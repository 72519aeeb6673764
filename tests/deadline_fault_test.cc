#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "core/deadline.h"
#include "core/evaluation.h"
#include "core/fault.h"
#include "core/streaming.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Deadline unit tests
// ---------------------------------------------------------------------------

TEST(Deadline, InfiniteNeverExpires) {
  const Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.Remaining(), kInf);
  EXPECT_TRUE(d.Check("unused").ok());
  EXPECT_FALSE(d.CheckEvery(1));
}

TEST(Deadline, InfiniteBudgetsMapToInfinite) {
  EXPECT_TRUE(Deadline::After(kInf).infinite());
  EXPECT_TRUE(Deadline::After(std::nan("")).infinite());
  EXPECT_TRUE(Deadline::After(1e300).infinite());
}

TEST(Deadline, NonPositiveBudgetIsAlreadyExpired) {
  for (double budget : {0.0, -1.0}) {
    const Deadline d = Deadline::After(budget);
    EXPECT_FALSE(d.infinite());
    EXPECT_TRUE(d.Expired());
    EXPECT_LE(d.Remaining(), 0.0);
    const Status status = d.Check("thing: budget exceeded");
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_EQ(status.message(), "thing: budget exceeded");
  }
}

TEST(Deadline, GenerousBudgetHasRemainingTime) {
  const Deadline d = Deadline::After(1000.0);
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.Remaining(), 900.0);
  EXPECT_LE(d.Remaining(), 1000.0);
  EXPECT_TRUE(d.Check("unused").ok());
}

TEST(Deadline, CheckEveryPollsFirstCallAndEveryStride) {
  // An already-expired deadline must be caught on the very first amortised
  // check, regardless of stride.
  const Deadline expired = Deadline::After(0.0);
  EXPECT_TRUE(expired.CheckEvery(1024));

  // Expiry between polls is observed no later than `stride` calls after it
  // happens, and is sticky afterwards.
  const Deadline d = Deadline::After(0.01);
  EXPECT_FALSE(d.CheckEvery(4));  // first call polls: not yet expired
  BurnWallClock(0.02);
  bool seen = false;
  for (int i = 0; i < 4; ++i) seen = d.CheckEvery(4);
  EXPECT_TRUE(seen);
  EXPECT_TRUE(d.CheckEvery(4));
}

// ---------------------------------------------------------------------------
// Deliberately-slow classifier: Fit and PredictEarly overrun their budgets.
// ---------------------------------------------------------------------------

/// Burns `fit_seconds` / `predict_seconds` of wall-clock and honors the
/// cooperative deadlines the way every real algorithm does.
class SlowClassifier : public EarlyClassifier {
 public:
  SlowClassifier(double fit_seconds, double predict_seconds)
      : fit_seconds_(fit_seconds), predict_seconds_(predict_seconds) {}

  Status Fit(const Dataset& train) override {
    if (train.empty()) return Status::InvalidArgument("slow: empty train set");
    const Deadline deadline = TrainDeadline();
    BurnWallClock(fit_seconds_);
    ETSC_RETURN_NOT_OK(deadline.Check("slow: train budget exceeded"));
    fitted_ = true;
    return Status::OK();
  }

  Result<EarlyPrediction> PredictEarly(const TimeSeries& series) const override {
    if (!fitted_) return Status::FailedPrecondition("slow: not fitted");
    const Deadline deadline = PredictDeadline();
    BurnWallClock(predict_seconds_);
    ETSC_RETURN_NOT_OK(deadline.Check("slow: predict budget exceeded"));
    return EarlyPrediction{0, std::min<size_t>(1, series.length())};
  }

  std::string name() const override { return "slow"; }
  bool SupportsMultivariate() const override { return true; }
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override {
    return std::make_unique<SlowClassifier>(fit_seconds_, predict_seconds_);
  }

 private:
  double fit_seconds_;
  double predict_seconds_;
  bool fitted_ = false;
};

TEST(DeadlineEvaluation, FitOverrunRecordsFailureAndSkipsRemainingFolds) {
  const Dataset data = testing::MakeToyDataset(10, 16);
  SlowClassifier slow(/*fit_seconds=*/0.05, /*predict_seconds=*/0.0);

  EvaluationOptions options;
  options.num_folds = 3;
  options.train_budget_seconds = 0.005;
  const EvaluationResult result = CrossValidate(data, slow, options);

  ASSERT_EQ(result.folds.size(), 1u);  // skip_folds_after_failure (default)
  EXPECT_FALSE(result.folds[0].trained);
  EXPECT_NE(result.folds[0].failure.find("train budget exceeded"),
            std::string::npos);
  EXPECT_FALSE(result.trained());
}

TEST(DeadlineEvaluation, AllFoldsAttemptedWhenSkippingDisabled) {
  const Dataset data = testing::MakeToyDataset(10, 16);
  SlowClassifier slow(0.05, 0.0);

  EvaluationOptions options;
  options.num_folds = 3;
  options.train_budget_seconds = 0.005;
  options.skip_folds_after_failure = false;
  const EvaluationResult result = CrossValidate(data, slow, options);

  ASSERT_EQ(result.folds.size(), 3u);
  for (const auto& fold : result.folds) {
    EXPECT_FALSE(fold.trained);
    EXPECT_FALSE(fold.failure.empty());
  }
}

TEST(DeadlineEvaluation, PredictOverrunDegradesToFullLengthMiss) {
  const Dataset data = testing::MakeToyDataset(10, 16);
  SlowClassifier slow(/*fit_seconds=*/0.0, /*predict_seconds=*/0.05);

  EvaluationOptions options;
  options.num_folds = 2;
  options.predict_budget_seconds = 0.005;
  const EvaluationResult result = CrossValidate(data, slow, options);

  ASSERT_FALSE(result.folds.empty());
  for (const auto& fold : result.folds) {
    EXPECT_TRUE(fold.trained);  // training was fine; prediction degraded
    EXPECT_EQ(fold.num_failed_predictions, fold.num_test);
    EXPECT_NE(fold.failure.find("predict budget exceeded"), std::string::npos);
    // Every instance scored as a full-length miss.
    EXPECT_EQ(fold.scores.accuracy, 0.0);
    EXPECT_EQ(fold.scores.earliness, 1.0);
  }
}

TEST(DeadlineEvaluation, UnlimitedBudgetsLeavePredictionsUntouched) {
  const Dataset data = testing::MakeToyDataset(10, 16);
  SlowClassifier quick(0.0, 0.0);
  const EvaluationResult result = CrossValidate(data, quick, {});
  ASSERT_FALSE(result.folds.empty());
  for (const auto& fold : result.folds) {
    EXPECT_TRUE(fold.trained);
    EXPECT_EQ(fold.num_failed_predictions, 0u);
    EXPECT_TRUE(fold.failure.empty());
  }
}

// ---------------------------------------------------------------------------
// Fault injection through CrossValidate and StreamingSession
// ---------------------------------------------------------------------------

TEST(FaultInjection, InjectedFitFailuresAreRecordedNotFatal) {
  const Dataset data = testing::MakeToyDataset(10, 16);
  FaultOptions faults;
  faults.fit_failure_rate = 1.0;
  FaultyClassifier faulty(std::make_unique<SlowClassifier>(0.0, 0.0), faults);

  EvaluationOptions options;
  options.num_folds = 2;
  options.skip_folds_after_failure = false;
  const EvaluationResult result = CrossValidate(data, faulty, options);
  ASSERT_EQ(result.folds.size(), 2u);
  for (const auto& fold : result.folds) {
    EXPECT_FALSE(fold.trained);
    EXPECT_NE(fold.failure.find("injected fit failure"), std::string::npos);
  }
}

TEST(FaultInjection, InjectedPredictFailuresDegradeGracefully) {
  const Dataset data = testing::MakeToyDataset(10, 16);
  FaultOptions faults;
  faults.predict_failure_rate = 1.0;
  FaultyClassifier faulty(std::make_unique<SlowClassifier>(0.0, 0.0), faults);

  EvaluationOptions options;
  options.num_folds = 2;
  const EvaluationResult result = CrossValidate(data, faulty, options);
  for (const auto& fold : result.folds) {
    EXPECT_TRUE(fold.trained);
    EXPECT_EQ(fold.num_failed_predictions, fold.num_test);
    EXPECT_NE(fold.failure.find("injected predict failure"), std::string::npos);
  }
}

TEST(FaultInjection, GarbagePredictionsAreClampedToValidMetrics) {
  const Dataset data = testing::MakeToyDataset(10, 16);
  FaultOptions faults;
  faults.garbage_prediction_rate = 1.0;  // impossible label, prefix > length
  FaultyClassifier faulty(std::make_unique<SlowClassifier>(0.0, 0.0), faults);

  EvaluationOptions options;
  options.num_folds = 2;
  const EvaluationResult result = CrossValidate(data, faulty, options);
  for (const auto& fold : result.folds) {
    EXPECT_TRUE(fold.trained);
    EXPECT_EQ(fold.scores.accuracy, 0.0);      // impossible label never matches
    EXPECT_LE(fold.scores.earliness, 1.0);     // prefix clamped to length
    EXPECT_TRUE(std::isfinite(fold.scores.harmonic_mean));
  }
}

TEST(FaultInjection, DeadlineOverrunInjectionTripsTrainBudget) {
  const Dataset data = testing::MakeToyDataset(8, 12);
  FaultOptions faults;
  faults.fit_delay_seconds = 0.05;
  FaultyClassifier faulty(std::make_unique<SlowClassifier>(0.0, 0.0), faults);

  EvaluationOptions options;
  options.num_folds = 2;
  options.train_budget_seconds = 0.005;
  const EvaluationResult result = CrossValidate(data, faulty, options);
  ASSERT_FALSE(result.folds.empty());
  EXPECT_FALSE(result.folds[0].trained);
  EXPECT_NE(result.folds[0].failure.find("train budget exceeded"),
            std::string::npos);
}

TEST(FaultInjection, FaultStreamIsDeterministic) {
  FaultOptions faults;
  faults.seed = 99;
  faults.predict_failure_rate = 0.5;
  const TimeSeries series = TimeSeries::Univariate({0.0, 1.0, 2.0});
  const Dataset train = testing::MakeToyDataset(4, 8);

  std::vector<bool> first, second;
  for (int run = 0; run < 2; ++run) {
    FaultyClassifier faulty(std::make_unique<SlowClassifier>(0.0, 0.0), faults);
    ASSERT_TRUE(faulty.Fit(train).ok());
    auto& outcomes = run == 0 ? first : second;
    for (int i = 0; i < 16; ++i) {
      outcomes.push_back(faulty.PredictEarly(series).ok());
    }
  }
  EXPECT_EQ(first, second);
}

TEST(FaultInjection, StreamingSessionSurvivesFaultyClassifier) {
  const Dataset train = testing::MakeToyDataset(6, 10);
  FaultOptions faults;
  faults.predict_failure_rate = 1.0;
  FaultyClassifier faulty(std::make_unique<SlowClassifier>(0.0, 0.0), faults);
  ASSERT_TRUE(faulty.Fit(train).ok());

  StreamingSession session(faulty, 1);
  auto out = session.Push({1.0});
  EXPECT_FALSE(out.ok());  // the error surfaces as a Status, never a crash
  EXPECT_EQ(session.observed(), 1u);
  EXPECT_FALSE(session.decision().has_value());
  EXPECT_FALSE(session.Finish().ok());
}

TEST(FaultInjection, NaNObservationsAreInjectedAndRepairable) {
  const Dataset clean = testing::MakeToyDataset(10, 20);
  Dataset dirty = InjectMissingValues(clean, /*rate=*/0.25, /*seed=*/5);
  ASSERT_EQ(dirty.size(), clean.size());

  size_t with_nans = 0;
  for (size_t i = 0; i < dirty.size(); ++i) {
    if (dirty.instance(i).HasMissingValues()) ++with_nans;
  }
  EXPECT_GT(with_nans, 0u);

  // The paper's Sec. 5.1 repair rule removes every injected NaN.
  dirty.FillMissingValues();
  for (size_t i = 0; i < dirty.size(); ++i) {
    EXPECT_FALSE(dirty.instance(i).HasMissingValues());
  }
}

TEST(FaultInjection, EvaluationSurvivesRawNaNObservations) {
  // Even without repair, an evaluation over a NaN-riddled dataset must come
  // back with a structured result, never abort.
  const Dataset dirty =
      InjectMissingValues(testing::MakeToyDataset(8, 12), 0.1, 11);
  SlowClassifier quick(0.0, 0.0);
  EvaluationOptions options;
  options.num_folds = 2;
  const EvaluationResult result = CrossValidate(dirty, quick, options);
  EXPECT_EQ(result.folds.size(), 2u);
}

// ---------------------------------------------------------------------------
// ETSC_FAULT: one grammar, one decorator
// ---------------------------------------------------------------------------

TEST(FaultSpecParse, AcceptsTheGrammarAndRejectsMalformedEntries) {
  struct Case {
    const char* entry;
    bool ok;
    const char* kind = "";
    int k = 1;
  };
  const Case kCases[] = {
      {"ECTS:flaky", true, "flaky", 1},
      {"ECTS:flaky:3", true, "flaky", 3},
      {"ECTS:crash", true, "crash", 1},
      {"ECTS:hang-fit", true, "hang-fit", 1},
      {"ECTS:hang-predict", true, "hang-predict", 1},
      {"ECTS:die-at", true, "die-at", 1},
      {"ECTS:die-at:2", true, "die-at", 2},
      {"1nn+ects-mpl:die-at:1000000000", true, "die-at", 1000000000},
      {"ingest:die-at", true, "die-at", 1},
      {"ingest:die-at:1", true, "die-at", 1},
      {"dispatch:die-at:5", true, "die-at", 5},
      // Malformed K: none may silently become some K.
      {"ECTS:die-at:0", false},
      {"ECTS:die-at:abc", false},
      {"ECTS:flaky:-1", false},
      {"ECTS:flaky:+2", false},
      {"ECTS:die-at:2x", false},
      {"ECTS:die-at:1.5", false},
      {"ECTS:flaky:99999999999", false},
      {"ECTS:die-at:", false},
      {"dispatch:die-at:banana", false},
      // A K on a kind that takes none.
      {"ECTS:crash:3", false},
      {"ECTS:hang-predict:1", false},
      // Missing target or kind.
      {"ECTS", false},
      {"ECTS:", false},
      {":crash", false},
      // Unknown kinds, including campaign kinds on a serving target.
      {"ECTS:explode", false},
      {"ingest:flaky", false},
      {"dispatch:crash", false},
      {"dispatch:die-at-dispatch:5", false},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.entry);
    const Result<FaultSpec> spec = ParseFaultSpec(c.entry);
    ASSERT_EQ(spec.ok(), c.ok) << spec.status().ToString();
    if (!c.ok) {
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(spec.status().message().find(std::string("\"") + c.entry +
                                             "\""),
                std::string::npos)
          << spec.status().message();
      continue;
    }
    const std::string entry = c.entry;
    EXPECT_EQ(spec->target, entry.substr(0, entry.find(':')));
    EXPECT_EQ(spec->kind, c.kind);
    EXPECT_EQ(spec->k, c.k);
  }
}

TEST(WrapWithFaults, UnnamedAlgorithmPassesThroughAsTheSamePointer) {
  auto slow = std::make_unique<SlowClassifier>(0.0, 0.0);
  EarlyClassifier* const raw = slow.get();
  auto out = WrapWithFaults("", "ECTS", std::move(slow));
  EXPECT_EQ(out.get(), raw);
  out = WrapWithFaults("EDSC:crash,ECTSX:crash,dispatch:die-at:1", "ECTS",
                       std::move(out));
  EXPECT_EQ(out.get(), raw);
  // The first entry naming ECTS wins; it is malformed, so nothing is
  // injected even though a valid entry for ECTS follows it.
  out = WrapWithFaults("ECTS:die-at:0,ECTS:crash", "ECTS", std::move(out));
  EXPECT_EQ(out.get(), raw);
}

/// One wrap per fault kind: WrapWithFaults must produce the behaviour of the
/// per-kind decorator class it replaced.
class WrapWithFaultsKind : public ::testing::TestWithParam<std::string> {};

TEST_P(WrapWithFaultsKind, BehavesLikeTheDecoratorItReplaces) {
  const std::string kind = GetParam();
  const Dataset data = testing::MakeToyDataset(6, 12);
  auto wrapped = WrapWithFaults("EDSC:crash,ECTS:" + kind, "ECTS",
                                std::make_unique<SlowClassifier>(0.0, 0.0));
  ASSERT_NE(dynamic_cast<FaultyClassifier*>(wrapped.get()), nullptr);
  EXPECT_EQ(wrapped->name(), "faulty-slow");
  EXPECT_TRUE(wrapped->SupportsMultivariate());

  if (kind == "flaky:1") {
    // Fails once transiently, then delegates; a clone starts over.
    const Status first = wrapped->Fit(data);
    EXPECT_EQ(first.code(), StatusCode::kUnavailable);
    EXPECT_NE(first.message().find("injected flaky fit failure"),
              std::string::npos);
    EXPECT_TRUE(wrapped->Fit(data).ok());
    EXPECT_TRUE(wrapped->PredictEarly(data.instance(0)).ok());
    EXPECT_EQ(wrapped->CloneUntrained()->Fit(data).code(),
              StatusCode::kUnavailable);
  } else if (kind == "crash") {
    // Every Fit fails deterministically, clones included.
    for (int attempt = 0; attempt < 3; ++attempt) {
      const Status status = wrapped->Fit(data);
      EXPECT_EQ(status.code(), StatusCode::kInternal);
      EXPECT_NE(status.message().find("injected fit failure"),
                std::string::npos);
    }
    EXPECT_EQ(wrapped->CloneUntrained()->Fit(data).code(),
              StatusCode::kInternal);
  } else if (kind == "hang-predict") {
    // Fit is clean; every prediction spins until the watchdog cancels it.
    EvaluationOptions options;
    options.num_folds = 2;
    options.predict_budget_seconds = 0.01;
    options.watchdog_grace = 2.0;
    const EvaluationResult result = CrossValidate(data, *wrapped, options);
    ASSERT_FALSE(result.folds.empty());
    for (const auto& fold : result.folds) {
      EXPECT_TRUE(fold.trained);
      EXPECT_EQ(fold.num_failed_predictions, fold.num_test);
      EXPECT_NE(fold.failure.find("cancelled by watchdog"), std::string::npos)
          << fold.failure;
    }
  } else {
    ASSERT_EQ(kind, "die-at:2");
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
          // Cell 1 and its fold clone (which shares the ordinal) survive;
          // the second wrap is cell 2 and dies mid-Fit.
          if (!wrapped->Fit(data).ok()) std::_Exit(1);
          if (!wrapped->CloneUntrained()->Fit(data).ok()) std::_Exit(1);
          auto second = WrapWithFaults(
              "ECTS:" + kind, "ECTS", std::make_unique<SlowClassifier>(0.0, 0.0));
          std::fprintf(stderr, "cell 2 starts\n");
          (void)second->Fit(data);
          std::_Exit(1);  // unreachable when the fault fires
        },
        ::testing::ExitedWithCode(kDieAtExitCode),
        "cell 2 starts.*die-at fault on cell #2");
  }
}

INSTANTIATE_TEST_SUITE_P(EachKind, WrapWithFaultsKind,
                         ::testing::Values("flaky:1", "crash", "hang-predict",
                                           "die-at:2"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':' || c == '-') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Campaign journal crash-safety (mini-campaign: ECTS on DodgerLoopGame)
// ---------------------------------------------------------------------------

bench::CampaignConfig MiniConfig(const std::string& cache_name) {
  bench::CampaignConfig config;
  config.algorithms = {"ECTS"};
  config.datasets = {"DodgerLoopGame"};
  config.folds = 2;
  config.height_scale = 1.0;
  config.train_budget_seconds = 30.0;
  config.cache_path = ::testing::TempDir() + cache_name;
  std::remove(config.cache_path.c_str());
  std::remove((config.cache_path + ".stale").c_str());
  return config;
}

TEST(CampaignJournal, RoundTripsCellsThroughTheJournal) {
  auto config = MiniConfig("journal_roundtrip.csv");
  bench::Campaign first(config);
  first.Run();
  const bench::CampaignCell* computed = first.Find("ECTS", "DodgerLoopGame");
  ASSERT_NE(computed, nullptr);
  EXPECT_TRUE(computed->trained);

  // report_only proves the cell comes back from the journal, not a recompute.
  auto reload_config = config;
  reload_config.report_only = true;
  bench::Campaign reloaded(reload_config);
  reloaded.Run();
  const bench::CampaignCell* loaded = reloaded.Find("ECTS", "DodgerLoopGame");
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(loaded->trained);
  EXPECT_NEAR(loaded->accuracy, computed->accuracy, 1e-9);
  EXPECT_NEAR(loaded->harmonic_mean, computed->harmonic_mean, 1e-9);
}

TEST(CampaignJournal, TruncatedTrailingRowIsSkippedAndRecomputed) {
  auto config = MiniConfig("journal_truncated.csv");
  {
    // A journal whose only row was cut off by a mid-write crash.
    const auto header = bench::JournalHeaderForConfig(config);
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    std::ofstream out(config.cache_path);
    out << *header << "\n";
    out << "ECTS,DodgerLoopGame,1,0.93";  // no sentinel, no newline
  }
  bench::Campaign campaign(config);
  campaign.Run();  // must skip the torn row and recompute the cell
  const bench::CampaignCell* cell = campaign.Find("ECTS", "DodgerLoopGame");
  ASSERT_NE(cell, nullptr);
  EXPECT_TRUE(cell->trained);

  // The rewritten journal is fully loadable afterwards.
  auto reload_config = config;
  reload_config.report_only = true;
  bench::Campaign reloaded(reload_config);
  reloaded.Run();
  EXPECT_NE(reloaded.Find("ECTS", "DodgerLoopGame"), nullptr);
}

TEST(CampaignJournal, StaleFingerprintIsRotatedAsideNotAppendedTo) {
  auto config = MiniConfig("journal_stale.csv");
  {
    std::ofstream out(config.cache_path);
    out << "# v1 some-older-configuration\n";
    out << "ECTS,DodgerLoopGame,1,0.5,0.5,0.5,0.5,1,0.001,\n";
  }
  bench::Campaign campaign(config);
  campaign.Run();

  // The old journal was rotated aside, not appended to under its old header.
  std::ifstream stale(config.cache_path + ".stale");
  ASSERT_TRUE(stale.good());
  std::string stale_header;
  std::getline(stale, stale_header);
  EXPECT_EQ(stale_header, "# v1 some-older-configuration");

  // The fresh journal carries this config's header (config fingerprint plus
  // the combined dataset fingerprint) and loads cleanly.
  const auto expected_header = bench::JournalHeaderForConfig(config);
  ASSERT_TRUE(expected_header.ok()) << expected_header.status().ToString();
  std::ifstream fresh(config.cache_path);
  ASSERT_TRUE(fresh.good());
  std::string fresh_header;
  std::getline(fresh, fresh_header);
  EXPECT_EQ(fresh_header, *expected_header);

  auto reload_config = config;
  reload_config.report_only = true;
  bench::Campaign reloaded(reload_config);
  reloaded.Run();
  const bench::CampaignCell* cell = reloaded.Find("ECTS", "DodgerLoopGame");
  ASSERT_NE(cell, nullptr);
  EXPECT_TRUE(cell->trained);
}

TEST(CampaignJournal, FailedCellsRoundTripWithFailureStrings) {
  auto config = MiniConfig("journal_failed.csv");
  config.train_budget_seconds = 0.0;  // every Fit dies on an expired deadline
  bench::Campaign campaign(config);
  campaign.Run();
  const bench::CampaignCell* cell = campaign.Find("ECTS", "DodgerLoopGame");
  ASSERT_NE(cell, nullptr);
  EXPECT_FALSE(cell->trained);
  EXPECT_NE(cell->failure.find("train budget exceeded"), std::string::npos);

  auto reload_config = config;
  reload_config.report_only = true;
  bench::Campaign reloaded(reload_config);
  reloaded.Run();
  const bench::CampaignCell* loaded = reloaded.Find("ECTS", "DodgerLoopGame");
  ASSERT_NE(loaded, nullptr);
  EXPECT_FALSE(loaded->trained);
  EXPECT_EQ(loaded->failure, cell->failure);
}

TEST(CampaignJournal, PredictDeadlineOverrunsSurfaceInTheCell) {
  auto config = MiniConfig("journal_predict_overrun.csv");
  config.predict_budget_seconds = 0.0;  // every prediction expires instantly
  bench::Campaign campaign(config);
  campaign.Run();
  const bench::CampaignCell* cell = campaign.Find("ECTS", "DodgerLoopGame");
  ASSERT_NE(cell, nullptr);
  EXPECT_TRUE(cell->trained);  // training was unaffected
  EXPECT_NE(cell->failure.find("predict budget exceeded"), std::string::npos);
  EXPECT_EQ(cell->accuracy, 0.0);  // every instance degraded to a miss
}

}  // namespace
}  // namespace etsc
