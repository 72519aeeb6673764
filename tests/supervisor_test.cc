// Supervisor tests: deterministic retry backoff, the failure taxonomy, the
// per-algorithm circuit breaker, watchdog cancellation through CancelToken,
// and the campaign fault matrix (flaky fits recover bit-identically, crashing
// algorithms are quarantined, hung predictions degrade to full-length
// misses). Everything here must be green under TSan: the watchdog is a real
// background thread and the campaign lanes run on the pool.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/deadline.h"
#include "core/evaluation.h"
#include "core/fault.h"
#include "core/json.h"
#include "core/parallel.h"
#include "core/supervisor.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

// ---------------------------------------------------------------------------
// Failure taxonomy
// ---------------------------------------------------------------------------

TEST(FailureTaxonomy, TransientCodesAreRetryable) {
  EXPECT_TRUE(IsTransientFailure(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(IsTransientFailure(StatusCode::kResourceExhausted));
  EXPECT_TRUE(IsTransientFailure(StatusCode::kUnavailable));
}

TEST(FailureTaxonomy, DeterministicCodesFailFast) {
  EXPECT_FALSE(IsTransientFailure(StatusCode::kOk));
  EXPECT_FALSE(IsTransientFailure(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsTransientFailure(StatusCode::kInternal));
  EXPECT_FALSE(IsTransientFailure(StatusCode::kDataLoss));
  EXPECT_FALSE(IsTransientFailure(StatusCode::kNotFound));
  EXPECT_FALSE(IsTransientFailure(StatusCode::kSkippedQuarantine));
}

TEST(FailureTaxonomy, NewCodesHaveNamesAndFactories) {
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_NE(Status::DeadlineExceeded("x").ToString().find("DeadlineExceeded"),
            std::string::npos);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_NE(Status::Unavailable("x").ToString().find("Unavailable"),
            std::string::npos);
  EXPECT_EQ(Status::SkippedQuarantine("x").code(),
            StatusCode::kSkippedQuarantine);
  EXPECT_NE(
      Status::SkippedQuarantine("x").ToString().find("SkippedQuarantine"),
      std::string::npos);
}

// ---------------------------------------------------------------------------
// Deterministic backoff
// ---------------------------------------------------------------------------

TEST(Backoff, PureFunctionOfPolicySeedAndAttempt) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10.0;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(BackoffDelayMs(policy, 42, attempt),
              BackoffDelayMs(policy, 42, attempt));
  }
  // Different seeds jitter differently (same envelope, different draw).
  EXPECT_NE(BackoffDelayMs(policy, 1, 1), BackoffDelayMs(policy, 2, 1));
}

TEST(Backoff, ExponentialEnvelopeWithJitterInHalfToFull) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 1000.0;
  for (uint64_t seed : {0ull, 7ull, 42ull, 12345ull}) {
    double envelope = policy.base_backoff_ms;
    for (int attempt = 1; attempt <= 10; ++attempt) {
      const double delay = BackoffDelayMs(policy, seed, attempt);
      const double cap = std::min(envelope, policy.max_backoff_ms);
      EXPECT_GE(delay, 0.5 * cap) << "seed " << seed << " attempt " << attempt;
      EXPECT_LT(delay, cap + 1e-9) << "seed " << seed << " attempt " << attempt;
      envelope *= policy.backoff_multiplier;
    }
    // Deep attempts stay under the cap forever.
    EXPECT_LE(BackoffDelayMs(policy, seed, 1000), policy.max_backoff_ms);
  }
}

TEST(SupervisorOptionsEnv, ReadsAndValidates) {
  ::setenv("ETSC_RETRY_MAX", "5", 1);
  ::setenv("ETSC_WATCHDOG_GRACE", "2.5", 1);
  ::setenv("ETSC_QUARANTINE_AFTER", "not-a-number", 1);
  const SupervisorOptions opts = SupervisorOptions::FromEnv();
  ::unsetenv("ETSC_RETRY_MAX");
  ::unsetenv("ETSC_WATCHDOG_GRACE");
  ::unsetenv("ETSC_QUARANTINE_AFTER");
  EXPECT_EQ(opts.retry.max_retries, 5);
  EXPECT_EQ(opts.watchdog_grace, 2.5);
  EXPECT_EQ(opts.quarantine_after, SupervisorOptions{}.quarantine_after);
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

TEST(CircuitBreakerTest, TripsAfterConsecutiveDistinctDatasetFailures) {
  CircuitBreaker breaker(3);
  EXPECT_FALSE(breaker.RecordFailure("A", "d1"));
  EXPECT_FALSE(breaker.RecordFailure("A", "d2"));
  EXPECT_FALSE(breaker.IsQuarantined("A"));
  EXPECT_TRUE(breaker.RecordFailure("A", "d3"));  // third distinct dataset
  EXPECT_TRUE(breaker.IsQuarantined("A"));
  // The trip transition is reported exactly once.
  EXPECT_FALSE(breaker.RecordFailure("A", "d4"));
  // Other algorithms are unaffected.
  EXPECT_FALSE(breaker.IsQuarantined("B"));
}

TEST(CircuitBreakerTest, SameDatasetRepeatsCountOnce) {
  CircuitBreaker breaker(2);
  EXPECT_FALSE(breaker.RecordFailure("A", "d1"));
  EXPECT_FALSE(breaker.RecordFailure("A", "d1"));  // retry burst: one strike
  EXPECT_FALSE(breaker.RecordFailure("A", "d1"));
  EXPECT_FALSE(breaker.IsQuarantined("A"));
  EXPECT_TRUE(breaker.RecordFailure("A", "d2"));
}

TEST(CircuitBreakerTest, SuccessResetsTheStreak) {
  CircuitBreaker breaker(2);
  EXPECT_FALSE(breaker.RecordFailure("A", "d1"));
  breaker.RecordSuccess("A");
  EXPECT_FALSE(breaker.RecordFailure("A", "d2"));
  EXPECT_FALSE(breaker.IsQuarantined("A"));
  EXPECT_TRUE(breaker.RecordFailure("A", "d3"));
}

TEST(CircuitBreakerTest, ZeroThresholdDisablesTheBreaker) {
  CircuitBreaker breaker(0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(breaker.RecordFailure("A", "d" + std::to_string(i)));
  }
  EXPECT_FALSE(breaker.IsQuarantined("A"));
}

// ---------------------------------------------------------------------------
// CancelToken and the Deadline piggyback
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, CancellationFlowsThroughEveryDeadlineCheck) {
  auto token = std::make_shared<CancelToken>();
  ScopedCancelToken install(token);
  const Deadline infinite;
  const Deadline generous = Deadline::After(1000.0);
  EXPECT_FALSE(infinite.Expired());
  EXPECT_FALSE(generous.Expired());

  token->RequestCancel();
  // Cancellation reaches even infinite deadlines: that is what lets the
  // watchdog stop a hang whose budget logic is broken.
  EXPECT_TRUE(infinite.Expired());
  EXPECT_TRUE(generous.Expired());
  const Status status = generous.Check("op: budget exceeded");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("cancelled by watchdog"), std::string::npos);
  EXPECT_TRUE(infinite.CheckEvery(1));
}

TEST(CancelTokenTest, ScopedInstallRestoresThePreviousToken) {
  EXPECT_FALSE(CancellationRequested());
  auto outer = std::make_shared<CancelToken>();
  {
    ScopedCancelToken install_outer(outer);
    {
      auto inner = std::make_shared<CancelToken>();
      ScopedCancelToken install_inner(inner);
      inner->RequestCancel();
      EXPECT_TRUE(CancellationRequested());
    }
    // The inner scope's cancellation must not leak into the outer task.
    EXPECT_FALSE(CancellationRequested());
  }
  EXPECT_FALSE(CancellationRequested());
}

// ---------------------------------------------------------------------------
// Cheap deterministic classifier for retry/watchdog plumbing tests
// ---------------------------------------------------------------------------

/// Predicts the majority training label after one observation. Trivial but
/// fully deterministic, so retried runs must reproduce its scores exactly.
class MajorityClassifier : public EarlyClassifier {
 public:
  Status Fit(const Dataset& train) override {
    if (train.empty()) return Status::InvalidArgument("majority: empty train");
    std::map<int, size_t> counts;
    for (size_t i = 0; i < train.size(); ++i) ++counts[train.label(i)];
    majority_ = counts.begin()->first;
    for (const auto& [label, n] : counts) {
      if (n > counts[majority_]) majority_ = label;
    }
    fitted_ = true;
    return Status::OK();
  }
  Result<EarlyPrediction> PredictEarly(const TimeSeries& series) const override {
    if (!fitted_) return Status::FailedPrecondition("majority: not fitted");
    return EarlyPrediction{majority_, std::min<size_t>(1, series.length())};
  }
  std::string name() const override { return "majority"; }
  bool SupportsMultivariate() const override { return true; }
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override {
    return std::make_unique<MajorityClassifier>();
  }

 private:
  int majority_ = 0;
  bool fitted_ = false;
};

/// Fit always returns the configured status; used to prove fail-fast.
class AlwaysFailsClassifier : public MajorityClassifier {
 public:
  explicit AlwaysFailsClassifier(Status status) : status_(std::move(status)) {}
  Status Fit(const Dataset&) override { return status_; }
  std::string name() const override { return "always-fails"; }
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override {
    return std::make_unique<AlwaysFailsClassifier>(status_);
  }

 private:
  Status status_;
};

EvaluationOptions RetryOptions(int max_retries) {
  EvaluationOptions options;
  options.num_folds = 2;
  options.retry.max_retries = max_retries;
  options.retry.base_backoff_ms = 0.1;  // keep tests fast; jitter still runs
  return options;
}

TEST(Retry, FlakyFitRecoversWithBitIdenticalScores) {
  const Dataset data = testing::MakeToyDataset(8, 16);
  MajorityClassifier clean;
  const EvaluationResult baseline = CrossValidate(data, clean, RetryOptions(0));
  ASSERT_TRUE(baseline.trained());

  FaultyClassifier flaky(std::make_unique<MajorityClassifier>(),
                         {.flaky_fit_failures = 1});
  const EvaluationResult retried = CrossValidate(data, flaky, RetryOptions(1));
  ASSERT_TRUE(retried.trained());
  ASSERT_EQ(retried.folds.size(), baseline.folds.size());
  for (size_t f = 0; f < retried.folds.size(); ++f) {
    EXPECT_EQ(retried.folds[f].fit_attempts, 2) << "fold " << f;
    EXPECT_TRUE(retried.folds[f].failure.empty()) << retried.folds[f].failure;
    // Recovery means *identical* results, not merely similar ones.
    EXPECT_EQ(retried.folds[f].scores.accuracy,
              baseline.folds[f].scores.accuracy);
    EXPECT_EQ(retried.folds[f].scores.harmonic_mean,
              baseline.folds[f].scores.harmonic_mean);
  }
}

TEST(Retry, ExhaustedRetriesRecordTheTransientFailure) {
  const Dataset data = testing::MakeToyDataset(8, 16);
  FaultyClassifier flaky(std::make_unique<MajorityClassifier>(),
                         {.flaky_fit_failures = 3});
  const EvaluationResult result = CrossValidate(data, flaky, RetryOptions(1));
  ASSERT_FALSE(result.folds.empty());
  EXPECT_FALSE(result.folds[0].trained);
  EXPECT_EQ(result.folds[0].fit_attempts, 2);  // 1 try + 1 retry, both doomed
  EXPECT_EQ(result.folds[0].failure_code, StatusCode::kUnavailable);
  EXPECT_NE(result.folds[0].failure.find("injected flaky fit failure"),
            std::string::npos);
}

TEST(Retry, DeterministicFailuresFailFast) {
  const Dataset data = testing::MakeToyDataset(8, 16);
  AlwaysFailsClassifier broken(Status::InvalidArgument("bad config"));
  const EvaluationResult result = CrossValidate(data, broken, RetryOptions(5));
  ASSERT_FALSE(result.folds.empty());
  EXPECT_FALSE(result.folds[0].trained);
  // No retries were spent on a failure that retrying cannot fix.
  EXPECT_EQ(result.folds[0].fit_attempts, 1);
  EXPECT_EQ(result.folds[0].failure_code, StatusCode::kInvalidArgument);
}

TEST(Retry, BitIdenticalAcrossThreadPoolWidths) {
  const Dataset data = testing::MakeToyDataset(8, 16);
  const size_t original_width = MaxParallelism();
  std::vector<EvaluationResult> results;
  for (const size_t width : {size_t{1}, size_t{8}}) {
    SetMaxParallelism(width);
    FaultyClassifier flaky(std::make_unique<MajorityClassifier>(),
                           {.flaky_fit_failures = 1});
    EvaluationOptions options = RetryOptions(1);
    options.num_folds = 4;
    results.push_back(CrossValidate(data, flaky, options));
  }
  SetMaxParallelism(original_width);
  ASSERT_EQ(results[0].folds.size(), results[1].folds.size());
  for (size_t f = 0; f < results[0].folds.size(); ++f) {
    EXPECT_EQ(results[0].folds[f].fit_attempts,
              results[1].folds[f].fit_attempts);
    EXPECT_EQ(results[0].folds[f].scores.accuracy,
              results[1].folds[f].scores.accuracy);
    EXPECT_EQ(results[0].folds[f].scores.harmonic_mean,
              results[1].folds[f].scores.harmonic_mean);
    EXPECT_EQ(results[0].folds[f].fold_seed, results[1].folds[f].fold_seed);
  }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

TEST(WatchdogTest, CancelsAHungFit) {
  const Dataset data = testing::MakeToyDataset(6, 12);
  FaultyClassifier hung(std::make_unique<MajorityClassifier>(),
                        {.hang_fit = true});

  EvaluationOptions options;
  options.num_folds = 2;
  options.train_budget_seconds = 0.02;
  options.watchdog_grace = 2.0;  // cancel after ~0.04s of hanging
  const EvaluationResult result = CrossValidate(data, hung, options);
  ASSERT_FALSE(result.folds.empty());
  EXPECT_FALSE(result.folds[0].trained);
  EXPECT_EQ(result.folds[0].failure_code, StatusCode::kDeadlineExceeded);
  EXPECT_NE(result.folds[0].failure.find("cancelled by watchdog"),
            std::string::npos)
      << result.folds[0].failure;
}

TEST(WatchdogTest, HungPredictionsDegradeToFullLengthMisses) {
  const Dataset data = testing::MakeToyDataset(6, 12);
  FaultyClassifier hung(std::make_unique<MajorityClassifier>(),
                        {.hang_predict = true});

  EvaluationOptions options;
  options.num_folds = 2;
  options.predict_budget_seconds = 0.01;
  options.watchdog_grace = 2.0;
  const EvaluationResult result = CrossValidate(data, hung, options);
  ASSERT_FALSE(result.folds.empty());
  for (const auto& fold : result.folds) {
    EXPECT_TRUE(fold.trained);  // training was fine; predictions hung
    EXPECT_EQ(fold.num_failed_predictions, fold.num_test);
    EXPECT_EQ(fold.scores.accuracy, 0.0);
    EXPECT_EQ(fold.scores.earliness, 1.0);
    EXPECT_NE(fold.failure.find("cancelled by watchdog"), std::string::npos)
        << fold.failure;
  }
}

TEST(WatchdogTest, DisabledGraceNeverCancels) {
  Watchdog::Watch watch("test-task", /*budget_seconds=*/0.001, /*grace=*/0.0);
  BurnWallClock(0.05);
  EXPECT_FALSE(watch.cancelled());
  EXPECT_FALSE(CancellationRequested());
}

TEST(WatchdogTest, WatchCancelsPastGraceTimesBudget) {
  Watchdog::Watch watch("test-task", /*budget_seconds=*/0.01, /*grace=*/2.0);
  // Cooperative poll loop, exactly what a budget-blind implementation's
  // Deadline::CheckEvery calls boil down to.
  const Deadline unbudgeted;
  Deadline safety = Deadline::After(10.0);
  while (!unbudgeted.CheckEvery(1) && !safety.Expired()) {
  }
  EXPECT_TRUE(watch.cancelled());
  EXPECT_TRUE(CancellationRequested());
}

// ---------------------------------------------------------------------------
// Campaign fault matrix: flaky recovers, crash quarantines, everything
// journals and reports; unaffected cells are bit-identical across widths.
// ---------------------------------------------------------------------------

bench::CampaignConfig FaultConfig(const std::string& cache_name) {
  bench::CampaignConfig config;
  config.algorithms = {"ECTS", "EDSC"};
  config.datasets = {"DodgerLoopGame", "DodgerLoopWeekend", "DodgerLoopDay"};
  config.folds = 2;
  config.height_scale = 1.0;
  config.train_budget_seconds = 30.0;
  config.supervisor.retry.max_retries = 1;
  config.supervisor.retry.base_backoff_ms = 0.1;
  config.supervisor.quarantine_after = 2;
  // ECTS needs one retry per fold; EDSC dies deterministically on the first
  // two datasets and must be quarantined on the third.
  config.fault_spec = "ECTS:flaky:1,EDSC:crash";
  config.cache_path = ::testing::TempDir() + cache_name;
  std::remove(config.cache_path.c_str());
  std::remove((config.cache_path + ".stale").c_str());
  std::remove((config.cache_path + ".report.json").c_str());
  return config;
}

TEST(CampaignSupervisor, FaultMatrixRunsToCompletion) {
  auto config = FaultConfig("fault_matrix.csv");
  bench::Campaign campaign(config);
  campaign.Run();

  // Flaky ECTS recovered everywhere, spending one retry per fold.
  for (const char* dataset :
       {"DodgerLoopGame", "DodgerLoopWeekend", "DodgerLoopDay"}) {
    const bench::CampaignCell* cell = campaign.Find("ECTS", dataset);
    ASSERT_NE(cell, nullptr) << dataset;
    EXPECT_TRUE(cell->trained) << dataset << ": " << cell->failure;
    EXPECT_EQ(cell->retries, 2) << dataset;  // 2 folds x 1 retry
    EXPECT_FALSE(cell->quarantined);
  }

  // Crashing EDSC failed fast twice (kInternal is not retried), then the
  // breaker quarantined it: the third cell was never attempted.
  for (const char* dataset : {"DodgerLoopGame", "DodgerLoopWeekend"}) {
    const bench::CampaignCell* cell = campaign.Find("EDSC", dataset);
    ASSERT_NE(cell, nullptr) << dataset;
    EXPECT_FALSE(cell->trained);
    EXPECT_FALSE(cell->quarantined);
    EXPECT_EQ(cell->retries, 0) << "deterministic failures must fail fast";
    EXPECT_NE(cell->failure.find("injected fit failure"), std::string::npos)
        << cell->failure;
  }
  const bench::CampaignCell* skipped = campaign.Find("EDSC", "DodgerLoopDay");
  ASSERT_NE(skipped, nullptr);
  EXPECT_FALSE(skipped->trained);
  EXPECT_TRUE(skipped->quarantined);
  EXPECT_NE(skipped->failure.find("SkippedQuarantine"), std::string::npos)
      << skipped->failure;

  // Retry counts and quarantine flags survive the journal round trip.
  auto reload_config = config;
  reload_config.report_only = true;
  bench::Campaign reloaded(reload_config);
  reloaded.Run();
  const bench::CampaignCell* ects = reloaded.Find("ECTS", "DodgerLoopGame");
  ASSERT_NE(ects, nullptr);
  EXPECT_EQ(ects->retries, 2);
  const bench::CampaignCell* edsc = reloaded.Find("EDSC", "DodgerLoopDay");
  ASSERT_NE(edsc, nullptr);
  EXPECT_TRUE(edsc->quarantined);
  EXPECT_NE(edsc->failure.find("SkippedQuarantine"), std::string::npos);

  // The JSON report enumerates the supervision outcome.
  std::ifstream in(campaign.ReportPath());
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto report = json::Parse(buffer.str());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->object.at("cells_quarantined").AsNumber(), 1.0);
  EXPECT_EQ(report->object.at("fit_retries").AsNumber(), 6.0);  // 3 cells x 2
  const auto& supervisor =
      report->object.at("config").object.at("supervisor").object;
  EXPECT_EQ(supervisor.at("max_retries").AsNumber(), 1.0);
  EXPECT_EQ(supervisor.at("quarantine_after").AsNumber(), 2.0);
  size_t quarantined_cells = 0;
  for (const auto& cell : report->object.at("cells").array) {
    if (cell.object.count("quarantined")) ++quarantined_cells;
  }
  EXPECT_EQ(quarantined_cells, 1u);
}

TEST(CampaignSupervisor, FaultedCampaignIsBitIdenticalAcrossWidths) {
  const size_t original_width = MaxParallelism();
  std::vector<std::vector<bench::CampaignCell>> runs;
  for (const size_t width : {size_t{1}, size_t{8}}) {
    SetMaxParallelism(width);
    auto config =
        FaultConfig("fault_width_" + std::to_string(width) + ".csv");
    bench::Campaign campaign(config);
    campaign.Run();
    runs.push_back(campaign.cells());
  }
  SetMaxParallelism(original_width);
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (size_t i = 0; i < runs[0].size(); ++i) {
    const auto& a = runs[0][i];
    const auto& b = runs[1][i];
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_EQ(a.dataset, b.dataset);
    EXPECT_EQ(a.trained, b.trained);
    EXPECT_EQ(a.quarantined, b.quarantined);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.failure, b.failure) << a.algorithm << "/" << a.dataset;
    EXPECT_EQ(a.accuracy, b.accuracy) << a.algorithm << "/" << a.dataset;
    EXPECT_EQ(a.f1, b.f1);
    EXPECT_EQ(a.earliness, b.earliness);
    EXPECT_EQ(a.harmonic_mean, b.harmonic_mean);
  }
}

TEST(CampaignSupervisor, RecoveredCellsMatchAFaultFreeRun) {
  // The flaky fault is transient: after its retry the cell must carry exactly
  // the scores a fault-free campaign computes.
  auto faulted_config = FaultConfig("fault_recovered.csv");
  bench::Campaign faulted(faulted_config);
  faulted.Run();

  auto clean_config = FaultConfig("fault_clean.csv");
  clean_config.algorithms = {"ECTS"};
  clean_config.fault_spec.clear();
  bench::Campaign clean(clean_config);
  clean.Run();

  for (const char* dataset :
       {"DodgerLoopGame", "DodgerLoopWeekend", "DodgerLoopDay"}) {
    const bench::CampaignCell* a = faulted.Find("ECTS", dataset);
    const bench::CampaignCell* b = clean.Find("ECTS", dataset);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->accuracy, b->accuracy) << dataset;
    EXPECT_EQ(a->f1, b->f1) << dataset;
    EXPECT_EQ(a->earliness, b->earliness) << dataset;
    EXPECT_EQ(a->harmonic_mean, b->harmonic_mean) << dataset;
    EXPECT_EQ(a->retries, 2) << dataset;
    EXPECT_EQ(b->retries, 0) << dataset;
  }
}

TEST(CampaignSupervisor, HungPredictCampaignDegradesToMisses) {
  bench::CampaignConfig config;
  config.algorithms = {"ECTS"};
  config.datasets = {"DodgerLoopGame"};
  config.folds = 2;
  config.height_scale = 1.0;
  config.train_budget_seconds = 30.0;
  // The hang ignores this budget entirely; only the watchdog (at
  // grace * budget = 0.02s per prediction) gets the cell unstuck.
  config.predict_budget_seconds = 0.01;
  config.supervisor.watchdog_grace = 2.0;
  config.fault_spec = "ECTS:hang-predict";
  config.cache_path = ::testing::TempDir() + "fault_hang.csv";
  std::remove(config.cache_path.c_str());
  std::remove((config.cache_path + ".stale").c_str());

  bench::Campaign campaign(config);
  campaign.Run();  // must terminate: every hung prediction is cancelled
  const bench::CampaignCell* cell = campaign.Find("ECTS", "DodgerLoopGame");
  ASSERT_NE(cell, nullptr);
  EXPECT_TRUE(cell->trained);  // training was unaffected
  EXPECT_EQ(cell->accuracy, 0.0);
  EXPECT_EQ(cell->earliness, 1.0);  // full-length misses
  EXPECT_NE(cell->failure.find("cancelled by watchdog"), std::string::npos)
      << cell->failure;
}

}  // namespace
}  // namespace etsc
