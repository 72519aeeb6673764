// Durability and overload-policy coverage for the serving engine (DESIGN.md
// sec 16): WAL round trips, torn tails, a seeded corruption corpus (in the
// corruption_test.cc style — clean Status, never a crash), tiered shedding,
// malformed-observation guards, the chaos injectors, and the eviction vs.
// dispatch races the TSan matrix drives at ETSC_THREADS=8.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algos/ects.h"
#include "core/fault.h"
#include "core/rng.h"
#include "core/serving.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

/// Commits with label 1 once it has seen `need` points (same contract as the
/// streaming/serving tests' FixedNeed).
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

std::string TempWal(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".stale").c_str());
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Simulates a crash partway through a live replay: opens every slot, ingests
/// the first `events` trace entries (dispatching every `dispatch_every`), and
/// abandons the engine — no Finish, no Close, exactly what a killed process
/// leaves behind in the WAL.
void RunPartialTrace(const std::string& wal,
                     std::shared_ptr<const EarlyClassifier> model,
                     size_t num_sessions, const std::vector<IngestEvent>& trace,
                     size_t events, size_t dispatch_every) {
  ServingOptions options;
  options.wal_path = wal;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterModel("ects", model, 1).ok());
  std::vector<SessionId> ids(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    auto id = engine.Open("ects");
    ASSERT_TRUE(id.ok());
    ids[s] = *id;
  }
  size_t since = 0;
  for (size_t e = 0; e < events && e < trace.size(); ++e) {
    ASSERT_TRUE(engine.Ingest(ids[trace[e].session], trace[e].values).ok());
    if (dispatch_every > 0 && ++since >= dispatch_every) {
      since = 0;
      ASSERT_TRUE(engine.DispatchBatch().ok());
    }
  }
}

TEST(ServingWal, RecoveredReplayIsBitIdenticalToUncrashed) {
  Dataset d = testing::MakeToyDataset(10, 20, 0.0, 3, 0.05);
  auto model = FittedEcts(d);
  const size_t kSessions = 9;
  const auto trace = BuildReplayTrace(d, kSessions, 7);
  const auto expected = ReplaySequential(*model, 1, kSessions, trace);

  const std::string wal = TempWal("serving_roundtrip.wal");
  // Crash after ~60% of the traffic, mid-cadence.
  RunPartialTrace(wal, model, kSessions, trace, trace.size() * 3 / 5, 5);

  ServingEngine recovered;
  ASSERT_TRUE(recovered.RegisterModel("ects", model, 1).ok());
  auto rec = recovered.Recover(wal);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->sessions_recovered, kSessions);
  EXPECT_GT(rec->observations_replayed, 0u);
  EXPECT_EQ(rec->torn_rows, 0u);

  auto resumed =
      ResumeReplayThroughEngine(recovered, "ects", kSessions, trace, 5);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed->size(), kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ((*resumed)[s], expected[s]) << "session " << s << " diverged";
  }
}

TEST(ServingWal, TornTailIsSkippedAndResumeStaysBitIdentical) {
  Dataset d = testing::MakeToyDataset(8, 16, 0.0, 3, 0.05);
  auto model = FittedEcts(d);
  const size_t kSessions = 5;
  const auto trace = BuildReplayTrace(d, kSessions, 11);
  const auto expected = ReplaySequential(*model, 1, kSessions, trace);

  const std::string wal = TempWal("serving_torn.wal");
  RunPartialTrace(wal, model, kSessions, trace, trace.size() / 2, 7);
  // Tear the last row mid-append, as a crash between write and flush would.
  ASSERT_TRUE(TruncateTail(wal, 9).ok());

  ServingEngine recovered;
  ASSERT_TRUE(recovered.RegisterModel("ects", model, 1).ok());
  auto rec = recovered.Recover(wal);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->torn_rows, 1u);

  // The torn observation was never acknowledged durable; the resume replays
  // it from the trace, so the decision set still matches exactly.
  auto resumed =
      ResumeReplayThroughEngine(recovered, "ects", kSessions, trace, 7);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ((*resumed)[s], expected[s]) << "session " << s << " diverged";
  }
}

TEST(ServingWal, CorruptionCorpusYieldsStatusNeverACrash) {
  Dataset d = testing::MakeToyDataset(6, 12, 0.0, 3, 0.05);
  auto model = FittedEcts(d);
  const size_t kSessions = 4;
  const auto trace = BuildReplayTrace(d, kSessions, 3);
  const std::string wal = TempWal("serving_corpus.wal");
  RunPartialTrace(wal, model, kSessions, trace, trace.size() / 2, 6);
  const std::string pristine = ReadFile(wal);
  ASSERT_FALSE(pristine.empty());

  Rng rng(20240809);
  for (int trial = 0; trial < 60; ++trial) {
    std::string bytes = pristine;
    // Half the corpus: a single flipped byte; the other half: a truncation at
    // a random offset (torn tails included).
    if (trial % 2 == 0) {
      const size_t at = rng.Index(bytes.size());
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.Index(8)));
    } else {
      bytes.resize(rng.Index(bytes.size()));
    }
    const std::string corrupt = TempWal("serving_corpus_trial.wal");
    {
      std::ofstream out(corrupt, std::ios::binary);
      out << bytes;
    }
    ServingEngine engine;
    ASSERT_TRUE(engine.RegisterModel("ects", model, 1).ok());
    auto rec = engine.Recover(corrupt);
    if (!rec.ok()) {
      // Clean refusal is an acceptable outcome; a crash or a hang is not.
      EXPECT_FALSE(rec.status().message().empty());
      continue;
    }
    // A recovery that passed row validation must also dispatch cleanly.
    EXPECT_LE(rec->sessions_recovered, kSessions);
  }
}

TEST(ServingWal, RecoverNeedsTheModelsRegistered) {
  Dataset d = testing::MakeToyDataset(5, 10, 0.0, 2, 0.05);
  auto model = FittedEcts(d);
  const auto trace = BuildReplayTrace(d, 2, 5);
  const std::string wal = TempWal("serving_nomodel.wal");
  RunPartialTrace(wal, model, 2, trace, trace.size() / 2, 0);

  ServingEngine empty;
  auto rec = empty.Recover(wal);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServingWal, RecoverRefusesANonQuiescentEngine) {
  const std::string wal = TempWal("serving_nonfresh.wal");
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(2), 1).ok());
  ASSERT_TRUE(engine.Open("m").ok());
  auto rec = engine.Recover(wal);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServingWal, NewerFormatVersionIsRefusedWithUpgradeHint) {
  const std::string wal = TempWal("serving_newer.wal");
  {
    std::ofstream out(wal, std::ios::binary);
    out << "# etscwal v2\nO,1,m,#end\n";
  }
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(2), 1).ok());
  auto rec = engine.Recover(wal);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rec.status().message().find("upgrade"), std::string::npos);
}

TEST(ServingWal, MalformedSentineledRowIsDataLossNamingTheLine) {
  const std::string wal = TempWal("serving_malformed.wal");
  {
    std::ofstream out(wal, std::ios::binary);
    out << "# etscwal v1\nO,1,m,#end\nI,1,not-a-number,#end\n";
  }
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(2), 1).ok());
  auto rec = engine.Recover(wal);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(rec.status().message().find(":3"), std::string::npos);
}

TEST(ServingWal, ForeignFileRotatesToStaleBeforeJournaling) {
  const std::string wal = TempWal("serving_foreign.wal");
  {
    std::ofstream out(wal, std::ios::binary);
    out << "some other tool's file\n";
  }
  ServingOptions options;
  options.wal_path = wal;
  ServingEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(2), 1).ok());
  ASSERT_TRUE(engine.Open("m").ok());
  const std::string stale = ReadFile(wal + ".stale");
  EXPECT_NE(stale.find("some other tool's file"), std::string::npos);
  const std::string fresh = ReadFile(wal);
  EXPECT_EQ(fresh.rfind("# etscwal v1\n", 0), 0u);
  EXPECT_NE(fresh.find("O,1,m,#end"), std::string::npos);
}

TEST(ServingWal, FinishCloseAndEvictionsReplay) {
  Dataset d = testing::MakeToyDataset(5, 10, 0.0, 2, 0.05);
  auto model = FittedEcts(d);
  const std::string wal = TempWal("serving_lifecycle.wal");

  SessionId finished_id = 0;
  SessionId closed_id = 0;
  SessionId live_id = 0;
  std::optional<EarlyPrediction> finished_decision;
  {
    ServingOptions options;
    options.wal_path = wal;
    ServingEngine engine(options);
    ASSERT_TRUE(engine.RegisterModel("ects", model, 1).ok());
    auto a = engine.Open("ects");
    auto b = engine.Open("ects");
    auto c = engine.Open("ects");
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    finished_id = *a;
    closed_id = *b;
    live_id = *c;
    const TimeSeries& series = d.instance(0);
    for (size_t t = 0; t < 4; ++t) {
      ASSERT_TRUE(engine.Ingest(finished_id, {series.at(0, t)}).ok());
      ASSERT_TRUE(engine.Ingest(live_id, {series.at(0, t)}).ok());
    }
    auto fin = engine.Finish(finished_id);
    ASSERT_TRUE(fin.ok());
    finished_decision = *fin;
    ASSERT_TRUE(engine.Close(closed_id).ok());
    EXPECT_GT(engine.stats().wal_appends, 0u);
  }

  ServingEngine recovered;
  ASSERT_TRUE(recovered.RegisterModel("ects", model, 1).ok());
  auto rec = recovered.Recover(wal);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->sessions_recovered, 2u);
  EXPECT_EQ(rec->sessions_removed, 1u);
  EXPECT_EQ(rec->finishes_replayed, 1u);

  EXPECT_EQ(recovered.Info(closed_id).status().code(), StatusCode::kNotFound);
  auto live = recovered.Info(live_id);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->ingested, 4u);
  auto fin = recovered.Info(finished_id);
  ASSERT_TRUE(fin.ok());
  ASSERT_TRUE(fin->decision.has_value());
  ASSERT_TRUE(finished_decision.has_value());
  EXPECT_EQ(fin->decision->label, finished_decision->label);
  EXPECT_EQ(fin->decision->prefix_length, finished_decision->prefix_length);
}

TEST(ServingWal, MissingFileIsACleanEmptyRecoveryThatArmsTheJournal) {
  const std::string wal = TempWal("serving_missing.wal");
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(2), 1).ok());
  auto rec = engine.Recover(wal);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->sessions_recovered, 0u);
  // Post-recovery activity journals to the same (new) file.
  ASSERT_TRUE(engine.Open("m").ok());
  const std::string contents = ReadFile(wal);
  EXPECT_EQ(contents.rfind("# etscwal v1\n", 0), 0u);
  EXPECT_NE(contents.find("O,1,m,#end"), std::string::npos);
}

TEST(ServingWal, DisabledByDefaultAndModelNamesMustBeWalSafe) {
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(2), 1).ok());
  EXPECT_EQ(engine
                .RegisterModel("bad,name", std::make_shared<FixedNeed>(2), 1)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine
                .RegisterModel("bad\nname", std::make_shared<FixedNeed>(2), 1)
                .code(),
            StatusCode::kInvalidArgument);
  auto id = engine.Open("m");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.Ingest(*id, {1.0}).ok());
  EXPECT_EQ(engine.stats().wal_appends, 0u);
}

TEST(ServingWal, IngestedCountTracksLifetimeAcceptedObservations) {
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(2), 1).ok());
  auto id = engine.Open("m");
  ASSERT_TRUE(id.ok());
  for (int t = 0; t < 5; ++t) {
    ASSERT_TRUE(engine.Ingest(*id, {static_cast<double>(t)}).ok());
  }
  ASSERT_TRUE(engine.DispatchBatch().ok());
  // Post-decision (sticky) pushes do not advance `observed`, but every
  // accepted observation counts toward `ingested` — the WAL resume offset.
  ASSERT_TRUE(engine.Ingest(*id, {9.0}).ok());
  auto info = engine.Info(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->ingested, 6u);
  EXPECT_TRUE(info->decision.has_value());
}

TEST(ServingShed, SoftWatermarkShedsDecidedSessionsBeforeAdmitting) {
  ServingOptions options;
  options.max_sessions = 4;
  options.soft_watermark = 0.5;  // shed once the table holds 2
  ServingEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(1), 1).ok());
  auto decided = engine.Open("m");
  ASSERT_TRUE(decided.ok());
  ASSERT_TRUE(engine.Ingest(*decided, {1.0}).ok());
  ASSERT_TRUE(engine.Ingest(*decided, {2.0}).ok());
  ASSERT_TRUE(engine.DispatchBatch().ok());
  ASSERT_TRUE(engine.Open("m").ok());
  // Table now at the soft limit (2 of 4): this admission sheds the decided
  // session on its way in.
  ASSERT_TRUE(engine.Open("m").ok());
  EXPECT_EQ(engine.Info(*decided).status().code(), StatusCode::kNotFound);
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.shed_decided, 1u);
  EXPECT_EQ(stats.live_sessions, 2u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(ServingShed, HardRefusalCarriesAMachineReadableRetryHint) {
  ServingOptions options;
  options.max_sessions = 1;
  options.retry_after_ms = 250.0;
  ServingEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(5), 1).ok());
  ASSERT_TRUE(engine.Open("m").ok());
  auto refused = engine.Open("m");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  const auto retry = RetryAfterMs(refused.status());
  ASSERT_TRUE(retry.has_value());
  EXPECT_DOUBLE_EQ(*retry, 250.0);
  EXPECT_EQ(engine.stats().shed_refusals, 1u);
  // An OK status carries no hint.
  EXPECT_FALSE(RetryAfterMs(Status::OK()).has_value());
}

TEST(ServingShed, OldestIdleUndecidedSessionShedsWhenConfigured) {
  ServingOptions options;
  options.max_sessions = 2;
  options.shed_min_idle_seconds = 0.01;
  ServingEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(100), 1).ok());
  auto idle = engine.Open("m");
  ASSERT_TRUE(idle.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto fresh = engine.Open("m");
  ASSERT_TRUE(fresh.ok());
  // Full table, nothing decided: the hard tier sheds the oldest idle session
  // (well past the 10ms threshold) instead of refusing.
  auto admitted = engine.Open("m");
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_EQ(engine.Info(*idle).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(engine.Info(*fresh).ok());
  EXPECT_EQ(engine.stats().shed_idle, 1u);
  EXPECT_EQ(engine.stats().rejected, 0u);
}

TEST(ServingShed, UndecidedSessionsAreNeverShedByDefault) {
  // The default policy (shed_min_idle_seconds = inf) must preserve the
  // original hard-admission contract: live undecided work is never dropped.
  ServingOptions options;
  options.max_sessions = 2;
  ServingEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(100), 1).ok());
  ASSERT_TRUE(engine.Open("m").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(engine.Open("m").ok());
  auto third = engine.Open("m");
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.stats().live_sessions, 2u);
}

TEST(ServingShed, EnvKnobsRouteThroughTheValidatedParser) {
  ServingOptions defaults;
  setenv("ETSC_SERVE_SOFT_WATERMARK", "0.5", 1);
  setenv("ETSC_SERVE_SHED_IDLE_MS", "1500", 1);
  setenv("ETSC_SERVE_RETRY_MS", "50", 1);
  setenv("ETSC_SERVE_WATCHDOG_GRACE", "2", 1);
  setenv("ETSC_SERVE_WAL", "/tmp/knob.wal", 1);
  ServingOptions parsed = ServingOptions::FromEnv();
  EXPECT_DOUBLE_EQ(parsed.soft_watermark, 0.5);
  EXPECT_DOUBLE_EQ(parsed.shed_min_idle_seconds, 1.5);
  EXPECT_DOUBLE_EQ(parsed.retry_after_ms, 50.0);
  EXPECT_DOUBLE_EQ(parsed.watchdog_grace, 2.0);
  EXPECT_EQ(parsed.wal_path, "/tmp/knob.wal");
  // Garbage and out-of-range values warn and keep the defaults.
  setenv("ETSC_SERVE_SOFT_WATERMARK", "1.5", 1);
  setenv("ETSC_SERVE_SHED_IDLE_MS", "soon", 1);
  setenv("ETSC_SERVE_RETRY_MS", "-3", 1);
  setenv("ETSC_SERVE_WATCHDOG_GRACE", "2x", 1);
  setenv("ETSC_SERVE_WAL", "", 1);
  ServingOptions garbage = ServingOptions::FromEnv();
  EXPECT_DOUBLE_EQ(garbage.soft_watermark, defaults.soft_watermark);
  EXPECT_EQ(garbage.shed_min_idle_seconds, defaults.shed_min_idle_seconds);
  EXPECT_DOUBLE_EQ(garbage.retry_after_ms, defaults.retry_after_ms);
  EXPECT_DOUBLE_EQ(garbage.watchdog_grace, defaults.watchdog_grace);
  EXPECT_EQ(garbage.wal_path, defaults.wal_path);
  unsetenv("ETSC_SERVE_SOFT_WATERMARK");
  unsetenv("ETSC_SERVE_SHED_IDLE_MS");
  unsetenv("ETSC_SERVE_RETRY_MS");
  unsetenv("ETSC_SERVE_WATCHDOG_GRACE");
  unsetenv("ETSC_SERVE_WAL");
}

TEST(ServingIngestGuard, NonFiniteObservationsAreRejectedCleanly) {
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(2), 1).ok());
  auto id = engine.Open("m");
  ASSERT_TRUE(id.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(engine.Ingest(*id, {nan}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Ingest(*id, {inf}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Ingest(*id, {-inf}).code(), StatusCode::kInvalidArgument);
  // The rejected observations never reached the queue or the model.
  auto info = engine.Info(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->pending, 0u);
  EXPECT_EQ(info->ingested, 0u);
  EXPECT_EQ(engine.stats().ingest_rejected, 3u);
  // The session is not poisoned: clean traffic still decides.
  ASSERT_TRUE(engine.Ingest(*id, {1.0}).ok());
  ASSERT_TRUE(engine.Ingest(*id, {2.0}).ok());
  ASSERT_TRUE(engine.Ingest(*id, {3.0}).ok());
  ASSERT_TRUE(engine.DispatchBatch().ok());
  auto after = engine.Info(*id);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->decision.has_value());
}

TEST(ServingIngestGuard, MultivariateNaNIsCaughtInAnyChannel) {
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(2), 3).ok());
  auto id = engine.Open("m");
  ASSERT_TRUE(id.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(engine.Ingest(*id, {1.0, nan, 3.0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine.Ingest(*id, {1.0, 2.0, 3.0}).ok());
}

TEST(ServingFaultDeathTest, DieAtIngestExitsWithTheFaultCode) {
  EXPECT_EXIT(
      {
        ArmServeFault(ServeFaultPoint::kIngest, 2);
        ServingEngine engine;
        (void)engine.RegisterModel("m", std::make_shared<FixedNeed>(2), 1);
        auto id = engine.Open("m");
        (void)engine.Ingest(*id, {1.0});
        (void)engine.Ingest(*id, {2.0});  // the armed ordinal — never returns
      },
      ::testing::ExitedWithCode(kDieAtExitCode), "die-at fault");
}

TEST(ServingFaultDeathTest, DieAtDispatchExitsWithTheFaultCode) {
  EXPECT_EXIT(
      {
        ArmServeFault(ServeFaultPoint::kDispatch, 1);
        ServingEngine engine;
        (void)engine.RegisterModel("m", std::make_shared<FixedNeed>(2), 1);
        auto id = engine.Open("m");
        (void)engine.Ingest(*id, {1.0});
        (void)engine.DispatchBatch();  // mid-dispatch — never returns
      },
      ::testing::ExitedWithCode(kDieAtExitCode), "die-at fault");
}

TEST(ServingFaultDeathTest, ArmServeFaultFromEnvParsesTheDrillSpec) {
  EXPECT_EXIT(
      {
        setenv("ETSC_SERVE_FAULT", "die-at-ingest:1", 1);
        ArmServeFaultFromEnv();
        ServingEngine engine;
        (void)engine.RegisterModel("m", std::make_shared<FixedNeed>(2), 1);
        auto id = engine.Open("m");
        (void)engine.Ingest(*id, {1.0});
      },
      ::testing::ExitedWithCode(kDieAtExitCode), "die-at fault");
}

TEST(ServingFault, GarbageFaultSpecDisarms) {
  setenv("ETSC_SERVE_FAULT", "die-at-lunch:banana", 1);
  ArmServeFaultFromEnv();
  unsetenv("ETSC_SERVE_FAULT");
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<FixedNeed>(2), 1).ok());
  auto id = engine.Open("m");
  ASSERT_TRUE(id.ok());
  for (int t = 0; t < 5; ++t) {
    ASSERT_TRUE(engine.Ingest(*id, {static_cast<double>(t)}).ok());
  }
  ASSERT_TRUE(engine.DispatchBatch().ok());  // still alive: disarmed
}

TEST(ServingFault, HangingModelIsCancelledByTheWatchdog) {
  HangOptions hang;
  hang.hang_predict = true;
  hang.max_seconds = 10.0;  // safety valve if the watchdog is broken
  auto hanging = std::make_shared<HangingClassifier>(
      std::make_unique<FixedNeed>(1), hang);
  ServingOptions options;
  options.session_budget_seconds = 0.05;
  options.watchdog_grace = 2.0;  // cancel at ~0.1s
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterModel("hang", hanging, 1).ok());
  auto id = engine.Open("hang");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.Ingest(*id, {1.0}).ok());
  ASSERT_TRUE(engine.DispatchBatch().ok());
  // The hung predict was cooperatively cancelled; the session carries the
  // budget-overrun error instead of wedging the pool forever.
  auto info = engine.Info(*id);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ServingRace, EvictionSkipsClaimedSessionsUnderConcurrentDispatch) {
  // The TSan build of this test is the race proof: eviction sweeps run
  // against live ingest and dispatch, and claimed (in_flight) sessions must
  // be skipped, not torn down mid-replay.
  Dataset d = testing::MakeToyDataset(8, 16, 0.0, 3, 0.05);
  auto model = FittedEcts(d);
  ServingEngine engine;
  ASSERT_TRUE(engine.RegisterModel("ects", model, 1).ok());

  constexpr size_t kWriters = 4;
  constexpr size_t kSessionsPerWriter = 6;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t s = 0; s < kSessionsPerWriter; ++s) {
        auto id = engine.Open("ects");
        if (!id.ok()) continue;  // a racing shed pass may refuse
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
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(engine.DispatchBatch().ok());
      std::this_thread::yield();
    }
  });
  std::thread evictor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      engine.EvictDecided();
      engine.EvictIdle(0.0);
      std::this_thread::yield();
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  dispatcher.join();
  evictor.join();
  ASSERT_TRUE(engine.DispatchBatch().ok());
  const ServingStats stats = engine.stats();
  // Conservation law: every opened session is accounted for exactly once.
  EXPECT_EQ(stats.live_sessions + stats.evicted + stats.closed, stats.opened);
  EXPECT_EQ(stats.opened, kWriters * kSessionsPerWriter);
}

TEST(ServingRace, WalJournalingStaysConsistentUnderConcurrency) {
  // Same race, with the journal on: every accepted event lands in the WAL,
  // and a post-hoc recovery of the file parses cleanly end to end.
  Dataset d = testing::MakeToyDataset(6, 12, 0.0, 2, 0.05);
  auto model = FittedEcts(d);
  const std::string wal = TempWal("serving_race.wal");
  {
    ServingOptions options;
    options.wal_path = wal;
    ServingEngine engine(options);
    ASSERT_TRUE(engine.RegisterModel("ects", model, 1).ok());
    std::vector<std::thread> writers;
    for (size_t w = 0; w < 3; ++w) {
      writers.emplace_back([&, w] {
        for (size_t s = 0; s < 4; ++s) {
          auto id = engine.Open("ects");
          ASSERT_TRUE(id.ok());
          const TimeSeries& instance = d.instance((w + s) % d.size());
          for (size_t t = 0; t < instance.length(); ++t) {
            ASSERT_TRUE(engine.Ingest(*id, {instance.at(0, t)}).ok());
          }
        }
      });
    }
    std::thread dispatcher([&] {
      for (int round = 0; round < 20; ++round) {
        ASSERT_TRUE(engine.DispatchBatch().ok());
        std::this_thread::yield();
      }
    });
    for (auto& t : writers) t.join();
    dispatcher.join();
  }
  ServingEngine recovered;
  ASSERT_TRUE(recovered.RegisterModel("ects", model, 1).ok());
  auto rec = recovered.Recover(wal);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->sessions_recovered, 12u);
  EXPECT_EQ(rec->observations_replayed, 12u * 12u);
  EXPECT_EQ(rec->torn_rows, 0u);
}

}  // namespace
}  // namespace etsc
