#include "core/streaming.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "algos/ects.h"
#include "core/counters.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

/// Commits with label 1 as soon as it has seen `need` points (prefix < buffer
/// signals an early commitment to the session).
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

TEST(StreamingSession, CommitsOncePrefixFitsInsideBuffer) {
  FixedNeed model(3);
  StreamingSession session(model, 1);
  for (int t = 0; t < 3; ++t) {
    auto out = session.Push({static_cast<double>(t)});
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out->has_value()) << "at t=" << t;
  }
  // At the 4th point the model still only needs 3 < 4: decision is final.
  auto out = session.Push({3.0});
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(out->has_value());
  EXPECT_EQ((*out)->label, 1);
  EXPECT_EQ((*out)->prefix_length, 3u);
}

TEST(StreamingSession, DecisionSticksAfterCommitment) {
  FixedNeed model(2);
  StreamingSession session(model, 1);
  (void)session.Push({0.0});
  (void)session.Push({1.0});
  auto first = session.Push({2.0});
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  auto second = session.Push({99.0});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->prefix_length, (*first)->prefix_length);
}

TEST(StreamingSession, FinishForcesDecision) {
  FixedNeed model(100);  // never commits early
  StreamingSession session(model, 1);
  (void)session.Push({0.0});
  (void)session.Push({1.0});
  auto decision = session.Finish();
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->prefix_length, 2u);
  EXPECT_TRUE(session.decision().has_value());
}

TEST(StreamingSession, FinishWithoutDataFails) {
  FixedNeed model(1);
  StreamingSession session(model, 1);
  EXPECT_FALSE(session.Finish().ok());
}

TEST(StreamingSession, RejectsWrongVariableCount) {
  FixedNeed model(1);
  StreamingSession session(model, 2);
  auto out = session.Push({1.0});
  EXPECT_FALSE(out.ok());
}

TEST(StreamingSession, WrongArityLeavesBufferUntouched) {
  FixedNeed model(100);
  StreamingSession session(model, 2);
  auto bad = session.Push({1.0});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(session.observed(), 0u);
  // A malformed observation must not have left a ragged buffer behind: the
  // session keeps working with well-formed observations.
  auto good = session.Push({1.0, 2.0});
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(session.observed(), 1u);
  auto finished = session.Finish();
  ASSERT_TRUE(finished.ok());
  EXPECT_EQ(finished->prefix_length, 1u);
}

TEST(StreamingSession, WrongArityRejectedEvenAfterDecision) {
  FixedNeed model(1);
  StreamingSession session(model, 1);
  (void)session.Push({0.0});
  (void)session.Push({1.0});
  ASSERT_TRUE(session.decision().has_value());
  // The sticky-decision shortcut must not mask a malformed observation.
  auto bad = session.Push({1.0, 2.0});
  EXPECT_FALSE(bad.ok());
  auto good = session.Push({3.0});
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->has_value());
}

TEST(StreamingSession, ResetStartsOver) {
  FixedNeed model(1);
  StreamingSession session(model, 1);
  (void)session.Push({0.0});
  (void)session.Push({1.0});
  ASSERT_TRUE(session.decision().has_value());
  session.Reset();
  EXPECT_EQ(session.observed(), 0u);
  EXPECT_FALSE(session.decision().has_value());
  auto out = session.Push({5.0});
  ASSERT_TRUE(out.ok());
}

/// Like FixedNeed but counts PredictEarly invocations, so tests can assert
/// the sticky-decision shortcut really skips the classifier.
class CountingNeed : public EarlyClassifier {
 public:
  explicit CountingNeed(size_t need) : need_(need) {}
  Status Fit(const Dataset&) override { return Status::OK(); }
  Result<EarlyPrediction> PredictEarly(const TimeSeries& series) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (series.length() == 0) {
      return Status::InvalidArgument("empty series");
    }
    return EarlyPrediction{1, std::min(need_, series.length())};
  }
  std::string name() const override { return "counting"; }
  bool SupportsMultivariate() const override { return true; }
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override {
    return std::make_unique<CountingNeed>(need_);
  }
  int calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  size_t need_;
  mutable std::atomic<int> calls_{0};
};

TEST(StreamingSession, FinishWithoutDataIsInvalidArgument) {
  FixedNeed model(1);
  StreamingSession session(model, 1);
  auto finished = session.Finish();
  ASSERT_FALSE(finished.ok());
  EXPECT_EQ(finished.status().code(), StatusCode::kInvalidArgument);
  // The failed Finish left no decision behind: the session still works.
  auto out = session.Push({1.0});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(session.Finish().ok());
}

TEST(StreamingSession, FinishIsStickyLikePush) {
  CountingNeed model(100);  // never commits early
  StreamingSession session(model, 1);
  (void)session.Push({0.0});
  const int calls_before = model.calls();
  auto first = session.Finish();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(model.calls(), calls_before + 1);
  // Second Finish (and Push after a decision) answer from the sticky
  // decision without re-running the classifier.
  auto second = session.Finish();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->label, first->label);
  EXPECT_EQ(second->prefix_length, first->prefix_length);
  auto pushed = session.Push({1.0});
  ASSERT_TRUE(pushed.ok());
  EXPECT_EQ((*pushed)->prefix_length, first->prefix_length);
  EXPECT_EQ(model.calls(), calls_before + 1);
}

TEST(StreamingSession, ResetClearsDecisionAndSessionDecidesAgain) {
  FixedNeed model(2);
  StreamingSession session(model, 1);
  for (int t = 0; t < 3; ++t) (void)session.Push({static_cast<double>(t)});
  ASSERT_TRUE(session.decision().has_value());
  session.Reset();
  EXPECT_FALSE(session.decision().has_value());
  EXPECT_EQ(session.observed(), 0u);
  // The reused session reaches a fresh decision through the normal path.
  for (int t = 0; t < 3; ++t) (void)session.Push({static_cast<double>(t)});
  ASSERT_TRUE(session.decision().has_value());
  EXPECT_EQ(session.decision()->prefix_length, 2u);
}

TEST(StreamingSession, ExpectedLengthHintMakesPushesAllocationFree) {
  Counter& grows = MetricRegistry::Global().counter("timeseries.append_grows");
  FixedNeed model(100000);  // never commits: every push hits the buffer
  const size_t n = 500;

  StreamingSession hinted(model, 1, n);
  const uint64_t before_hinted = grows.value();
  for (size_t t = 0; t < n; ++t) (void)hinted.Push({static_cast<double>(t)});
  EXPECT_EQ(grows.value() - before_hinted, 0u)
      << "a correctly hinted session must never regrow its buffer";

  StreamingSession unhinted(model, 1);
  const uint64_t before_unhinted = grows.value();
  for (size_t t = 0; t < n; ++t) (void)unhinted.Push({static_cast<double>(t)});
  const uint64_t unhinted_grows = grows.value() - before_unhinted;
  EXPECT_GT(unhinted_grows, 0u);
  EXPECT_LE(unhinted_grows, 10u)
      << "growth must be geometric (O(log n) regrows), not per-push";
}

TEST(StreamingSession, ResetShrinksAnOvergrownBuffer) {
  Counter& shrinks =
      MetricRegistry::Global().counter("streaming.buffer_shrinks");
  FixedNeed model(1000000);
  StreamingSession session(model, 1, 16);
  // One unusually long stream balloons the capacity far past the hint...
  for (size_t t = 0; t < 4096; ++t) (void)session.Push({0.0});
  ASSERT_GE(session.buffer_capacity(), 4096u);
  const uint64_t before = shrinks.value();
  session.Reset();
  // ...and Reset releases it back to the hint instead of pinning ~4k slots
  // per channel for the session's remaining lifetime.
  EXPECT_EQ(shrinks.value() - before, 1u);
  EXPECT_LE(session.buffer_capacity(), 16u);
  // A short stream's capacity is within the keep threshold: Reset reuses it.
  for (size_t t = 0; t < 16; ++t) (void)session.Push({0.0});
  const uint64_t before_small = shrinks.value();
  const size_t capacity_small = session.buffer_capacity();
  session.Reset();
  EXPECT_EQ(shrinks.value() - before_small, 0u);
  EXPECT_EQ(session.buffer_capacity(), capacity_small);
}

TEST(StreamingSession, ManySessionsShareOneClassifierConcurrently) {
  // One const fitted model, many sessions across threads: the TSan build of
  // this test is the proof that PredictEarly is safely shareable read-only.
  Dataset d = testing::MakeToyDataset(10, 16, 0.0, 3, 0.05);
  auto model = testing::CreateComposed("ects");
  ASSERT_TRUE(model->Fit(d).ok());
  const EarlyClassifier& shared = *model;

  constexpr size_t kThreads = 8;
  constexpr size_t kSessionsPerThread = 4;
  std::vector<EarlyPrediction> results(kThreads * kSessionsPerThread);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      for (size_t s = 0; s < kSessionsPerThread; ++s) {
        const TimeSeries& instance = d.instance(0);
        StreamingSession session(shared, 1, instance.length());
        std::optional<EarlyPrediction> decided;
        for (size_t t = 0; t < instance.length() && !decided.has_value();
             ++t) {
          auto out = session.Push({instance.at(0, t)});
          ASSERT_TRUE(out.ok());
          decided = *out;
        }
        if (!decided.has_value()) {
          auto finished = session.Finish();
          ASSERT_TRUE(finished.ok());
          decided = *finished;
        }
        results[w * kSessionsPerThread + s] = *decided;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const EarlyPrediction& r : results) {
    EXPECT_EQ(r.label, results[0].label);
    EXPECT_EQ(r.prefix_length, results[0].prefix_length);
  }
}

TEST(StreamingSession, MatchesBatchPredictionWithRealAlgorithm) {
  // Streaming an instance point-by-point must reach the same label as the
  // batch PredictEarly, and commit no later.
  Dataset d = testing::MakeToyDataset(15, 24, 0.0, 3, 0.05);
  auto model = testing::CreateComposed("ects");
  ASSERT_TRUE(model->Fit(d).ok());

  const TimeSeries& instance = d.instance(0);
  auto batch = model->PredictEarly(instance);
  ASSERT_TRUE(batch.ok());

  StreamingSession session(*model, 1);
  std::optional<EarlyPrediction> streamed;
  for (size_t t = 0; t < instance.length() && !streamed.has_value(); ++t) {
    auto out = session.Push({instance.at(0, t)});
    ASSERT_TRUE(out.ok());
    streamed = *out;
  }
  if (!streamed.has_value()) {
    auto finished = session.Finish();
    ASSERT_TRUE(finished.ok());
    streamed = *finished;
  }
  EXPECT_EQ(streamed->label, batch->label);
  EXPECT_LE(streamed->prefix_length, instance.length());
}

}  // namespace
}  // namespace etsc
