#include "core/serving.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "algos/ects.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

/// Commits with label 1 once it has seen `need` points (same contract as the
/// streaming tests' FixedNeed).
class FixedNeed : public EarlyClassifier {
 public:
  explicit FixedNeed(size_t need) : need_(need) {}
  Status Fit(const Dataset&) override { return Status::OK(); }
  Result<EarlyPrediction> PredictEarly(const TimeSeries& series) const override {
    if (series.length() == 0) {
      return Status::InvalidArgument("empty series");
    }
    return EarlyPrediction{1, std::min(need_, series.length())};
  }
  std::string name() const override { return "fixed"; }
  bool SupportsMultivariate() const override { return true; }
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override {
    return std::make_unique<FixedNeed>(need_);
  }

 private:
  size_t need_;
};

std::shared_ptr<const EarlyClassifier> FittedEcts(const Dataset& d) {
  std::shared_ptr<EarlyClassifier> model = testing::CreateComposed("ects");
  EXPECT_TRUE(model->Fit(d).ok());
  return model;
}

TEST(ServingEngine, RegisterModelValidates) {
  ServingEngine engine;
  EXPECT_FALSE(engine.RegisterModel("m", nullptr, 1).ok());
  EXPECT_FALSE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(3), 0).ok());
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(3), 1).ok());
  auto dup = engine.RegisterModel("m", std::make_shared<FixedNeed>(5), 1);
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument);
}

TEST(ServingEngine, OpenRequiresARegisteredModel) {
  ServingEngine engine;
  auto id = engine.Open("nope");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kNotFound);
}

TEST(ServingEngine, AdmissionControlRejectsBeyondCapacity) {
  ServingOptions options;
  options.max_sessions = 2;
  ServingEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(3), 1).ok());
  auto first = engine.Open("m");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(engine.Open("m").ok());
  auto third = engine.Open("m");
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.stats().rejected, 1u);
  // A spike degrades, it does not wedge: capacity freed by Close is reusable.
  ASSERT_TRUE(engine.Close(*first).ok());
  EXPECT_TRUE(engine.Open("m").ok());
  EXPECT_EQ(engine.stats().peak_sessions, 2u);
}

TEST(ServingEngine, IngestValidatesSessionAndArity) {
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(3), 2).ok());
  auto id = engine.Open("m");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(engine.Ingest(*id + 99, {1.0, 2.0}).code(),
            StatusCode::kNotFound);
  // Arity is checked at the door, before the observation can reach a buffer.
  EXPECT_EQ(engine.Ingest(*id, {1.0}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.Ingest(*id, {1.0, 2.0}).ok());
  auto info = engine.Info(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->pending, 1u);
  EXPECT_EQ(info->observed, 0u);  // Ingest queues; only DispatchBatch runs
}

TEST(ServingEngine, DispatchBatchDecidesQueuedSessions) {
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(3), 1).ok());
  auto id = engine.Open("m");
  ASSERT_TRUE(id.ok());
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(engine.Ingest(*id, {static_cast<double>(t)}).ok());
  }
  auto decided = engine.DispatchBatch();
  ASSERT_TRUE(decided.ok());
  EXPECT_EQ(*decided, 1u);
  auto info = engine.Info(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->observed, 4u);
  EXPECT_EQ(info->pending, 0u);
  ASSERT_TRUE(info->decision.has_value());
  EXPECT_EQ(info->decision->prefix_length, 3u);
  EXPECT_FALSE(info->deadline_forced);
  // A second dispatch with nothing queued decides nothing new.
  auto again = engine.DispatchBatch();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0u);
  EXPECT_EQ(engine.stats().decisions, 1u);
}

TEST(ServingEngine, FinishFlushesTheQueueAndForcesADecision) {
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(100), 1).ok());
  auto id = engine.Open("m");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.Ingest(*id, {0.0}).ok());
  ASSERT_TRUE(engine.Ingest(*id, {1.0}).ok());
  auto finished = engine.Finish(*id);
  ASSERT_TRUE(finished.ok());
  EXPECT_EQ(finished->prefix_length, 2u);
  // Sticky: finishing again re-answers without changing anything.
  auto again = engine.Finish(*id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->prefix_length, 2u);
  EXPECT_EQ(engine.stats().decisions, 1u);
}

TEST(ServingEngine, ExpiredDeadlineForcesADecisionAtDispatch) {
  ServingOptions options;
  options.session_budget_seconds = 0.0;  // born expired
  ServingEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(100), 1).ok());
  auto id = engine.Open("m");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.Ingest(*id, {0.5}).ok());
  auto decided = engine.DispatchBatch();
  ASSERT_TRUE(decided.ok());
  EXPECT_EQ(*decided, 1u);
  auto info = engine.Info(*id);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info->decision.has_value());
  EXPECT_EQ(info->decision->prefix_length, 1u);
  EXPECT_TRUE(info->deadline_forced);
  EXPECT_EQ(engine.stats().deadline_forced, 1u);
}

TEST(ServingEngine, DeadlineNeverForcesAnEmptySession) {
  ServingOptions options;
  options.session_budget_seconds = 0.0;
  ServingEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(100), 1).ok());
  auto id = engine.Open("m");
  ASSERT_TRUE(id.ok());
  // Nothing observed: there is no prefix to answer on, so the expired
  // deadline must not inject a bogus Finish.
  auto decided = engine.DispatchBatch();
  ASSERT_TRUE(decided.ok());
  EXPECT_EQ(*decided, 0u);
  auto info = engine.Info(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->decision.has_value());
}

TEST(ServingEngine, EvictDecidedReclaimsOnlyDecidedSessions) {
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(2), 1).ok());
  auto decided_id = engine.Open("m");
  auto undecided_id = engine.Open("m");
  ASSERT_TRUE(decided_id.ok());
  ASSERT_TRUE(undecided_id.ok());
  for (int t = 0; t < 3; ++t) {
    ASSERT_TRUE(engine.Ingest(*decided_id, {static_cast<double>(t)}).ok());
  }
  ASSERT_TRUE(engine.Ingest(*undecided_id, {0.0}).ok());
  ASSERT_TRUE(engine.DispatchBatch().ok());
  EXPECT_EQ(engine.EvictDecided(), 1u);
  EXPECT_EQ(engine.Info(*decided_id).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(engine.Info(*undecided_id).ok());
  EXPECT_EQ(engine.stats().live_sessions, 1u);
  EXPECT_EQ(engine.stats().evicted, 1u);
}

TEST(ServingEngine, EvictIdleReclaimsOnlyIdleUndecidedSessions) {
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(100), 1).ok());
  auto idle_id = engine.Open("m");
  ASSERT_TRUE(idle_id.ok());
  ASSERT_TRUE(engine.Ingest(*idle_id, {0.0}).ok());
  ASSERT_TRUE(engine.DispatchBatch().ok());  // drain: pending must be empty
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto fresh_id = engine.Open("m");
  ASSERT_TRUE(fresh_id.ok());
  EXPECT_EQ(engine.EvictIdle(0.01), 1u);
  EXPECT_EQ(engine.Info(*idle_id).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(engine.Info(*fresh_id).ok());
}

TEST(ServingEngine, ReplayTraceIsDeterministic) {
  Dataset d = testing::MakeToyDataset(5, 12, 0.0, 3, 0.05);
  const auto a = BuildReplayTrace(d, 7, 42);
  const auto b = BuildReplayTrace(d, 7, 42);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.size(), 7u * 12u);  // every slot streams its full instance
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].session, b[i].session);
    EXPECT_EQ(a[i].values, b[i].values);
  }
  // A different seed interleaves differently (same multiset of events).
  const auto c = BuildReplayTrace(d, 7, 43);
  ASSERT_EQ(c.size(), a.size());
  bool any_difference = false;
  for (size_t i = 0; i < a.size(); ++i) {
    any_difference = any_difference || a[i].session != c[i].session;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ServingEngine, BatchedDecisionsAreBitIdenticalToSequential) {
  // The core serving contract: for any batching cadence (and any pool
  // width), the engine's decisions are bit-identical to replaying each
  // session through its own single-caller StreamingSession.
  Dataset d = testing::MakeToyDataset(10, 20, 0.0, 3, 0.05);
  auto model = FittedEcts(d);
  const size_t kSessions = 16;
  const auto trace = BuildReplayTrace(d, kSessions, 7);

  const auto expected = ReplaySequential(*model, 1, kSessions, trace);
  ASSERT_EQ(expected.size(), kSessions);
  for (const auto& outcome : expected) EXPECT_FALSE(outcome.failed);

  for (const size_t dispatch_every : {size_t{1}, size_t{7}, size_t{0}}) {
    ServingEngine engine;
    ASSERT_TRUE(engine.RegisterModel("ects", model, 1).ok());
    auto actual =
        ReplayThroughEngine(engine, "ects", kSessions, trace, dispatch_every);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ASSERT_EQ(actual->size(), expected.size());
    for (size_t s = 0; s < kSessions; ++s) {
      EXPECT_EQ((*actual)[s], expected[s])
          << "session " << s << " diverged at dispatch_every="
          << dispatch_every;
    }
  }
}

TEST(ServingEngine, SessionsAcrossModelsDispatchInOneBatch) {
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("fast", std::make_shared<FixedNeed>(1), 1).ok());
  ASSERT_TRUE(
      engine.RegisterModel("slow", std::make_shared<FixedNeed>(3), 1).ok());
  std::vector<SessionId> fast_ids, slow_ids;
  for (int i = 0; i < 3; ++i) {
    auto f = engine.Open("fast");
    auto s = engine.Open("slow");
    ASSERT_TRUE(f.ok() && s.ok());
    fast_ids.push_back(*f);
    slow_ids.push_back(*s);
  }
  for (int t = 0; t < 4; ++t) {
    for (SessionId id : fast_ids) {
      ASSERT_TRUE(engine.Ingest(id, {static_cast<double>(t)}).ok());
    }
    for (SessionId id : slow_ids) {
      ASSERT_TRUE(engine.Ingest(id, {static_cast<double>(t)}).ok());
    }
  }
  auto decided = engine.DispatchBatch();
  ASSERT_TRUE(decided.ok());
  EXPECT_EQ(*decided, 6u);
  for (SessionId id : fast_ids) {
    auto info = engine.Info(id);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->model, "fast");
    ASSERT_TRUE(info->decision.has_value());
    EXPECT_EQ(info->decision->prefix_length, 1u);
  }
  for (SessionId id : slow_ids) {
    auto info = engine.Info(id);
    ASSERT_TRUE(info.ok());
    ASSERT_TRUE(info->decision.has_value());
    EXPECT_EQ(info->decision->prefix_length, 3u);
  }
}

TEST(ServingEngine, ConcurrentIngestAndDispatchStaysConsistent) {
  // The TSan build of this test is the thread-safety proof: ingest threads
  // race DispatchBatch (which fans out over the pool) and eviction.
  Dataset d = testing::MakeToyDataset(8, 16, 0.0, 3, 0.05);
  auto model = FittedEcts(d);
  ServingEngine engine;
  ASSERT_TRUE(engine.RegisterModel("ects", model, 1).ok());

  constexpr size_t kWriters = 4;
  constexpr size_t kSessionsPerWriter = 8;
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t s = 0; s < kSessionsPerWriter; ++s) {
        auto id = engine.Open("ects");
        ASSERT_TRUE(id.ok());
        const TimeSeries& instance = d.instance((w + s) % d.size());
        for (size_t t = 0; t < instance.length(); ++t) {
          const Status status = engine.Ingest(*id, {instance.at(0, t)});
          if (status.code() == StatusCode::kNotFound) break;  // evicted: fine
          ASSERT_TRUE(status.ok());
        }
      }
    });
  }
  std::thread dispatcher([&] {
    for (int round = 0; round < 50; ++round) {
      ASSERT_TRUE(engine.DispatchBatch().ok());
      engine.EvictDecided();
      std::this_thread::yield();
    }
  });
  for (auto& t : writers) t.join();
  dispatcher.join();
  // Drain whatever the racing rounds left queued, then everything decides.
  ASSERT_TRUE(engine.DispatchBatch().ok());
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.opened, kWriters * kSessionsPerWriter);
  EXPECT_LE(stats.ingested, kWriters * kSessionsPerWriter * 16u);
  EXPECT_GT(stats.ingested, 0u);
  EXPECT_EQ(stats.live_sessions + stats.evicted, stats.opened);
}

TEST(ServingOptions, FromEnvParsesAndRejectsGarbage) {
  ServingOptions defaults;
  setenv("ETSC_SERVE_MAX_SESSIONS", "123", 1);
  setenv("ETSC_SERVE_BUDGET_MS", "250", 1);
  setenv("ETSC_SERVE_IDLE_MS", "garbage", 1);
  ServingOptions parsed = ServingOptions::FromEnv();
  EXPECT_EQ(parsed.max_sessions, 123u);
  EXPECT_DOUBLE_EQ(parsed.session_budget_seconds, 0.25);
  EXPECT_EQ(parsed.idle_timeout_seconds, defaults.idle_timeout_seconds);
  unsetenv("ETSC_SERVE_MAX_SESSIONS");
  unsetenv("ETSC_SERVE_BUDGET_MS");
  unsetenv("ETSC_SERVE_IDLE_MS");
  ServingOptions clean = ServingOptions::FromEnv();
  EXPECT_EQ(clean.max_sessions, defaults.max_sessions);
  EXPECT_EQ(clean.session_budget_seconds, defaults.session_budget_seconds);
}

}  // namespace
}  // namespace etsc
