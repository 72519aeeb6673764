#include "core/evaluation.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "core/counters.h"
#include "core/log.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/trace.h"
#include "core/voting.h"

namespace etsc {

namespace {

// Evaluation metrics (DESIGN.md sec 9): how many folds ran, how many Fits
// failed, how many predictions were degraded to full-length misses.
Counter& FoldsRun() {
  static Counter& c = MetricRegistry::Global().counter("eval.folds_run");
  return c;
}
Counter& FitFailures() {
  static Counter& c = MetricRegistry::Global().counter("eval.fit_failures");
  return c;
}
Counter& PredictionsMade() {
  static Counter& c = MetricRegistry::Global().counter("eval.predictions");
  return c;
}
Counter& DegradedPredictions() {
  static Counter& c =
      MetricRegistry::Global().counter("eval.degraded_predictions");
  return c;
}
Counter& FitsSkipped() {
  static Counter& c = MetricRegistry::Global().counter("eval.fits_skipped");
  return c;
}
Counter& FitRetries() {
  static Counter& c = MetricRegistry::Global().counter("supervisor.retries");
  return c;
}
Histogram& BackoffMs() {
  static Histogram& h =
      MetricRegistry::Global().histogram("supervisor.backoff_ms");
  return h;
}

/// Shared prediction loop of EvaluateSplit and EvaluateFitted: scores
/// `classifier` (already fitted) on `test`, degrading failed predictions to
/// full-length misses. With `watchdog_grace` > 0 every prediction runs under
/// a watchdog Watch, so a hung PredictEarly is cancelled past
/// grace * predict_budget and degrades like any other overrun.
void RunTestSet(const Dataset& test, const EarlyClassifier& classifier,
                FoldOutcome* outcome, double watchdog_grace = 0.0) {
  std::vector<int> truth;
  std::vector<int> predicted;
  std::vector<size_t> prefixes;
  std::vector<size_t> lengths;
  Stopwatch test_timer;
  const auto predict_supervised =
      [&](const TimeSeries& ts) -> Result<EarlyPrediction> {
    if (watchdog_grace <= 0.0) return classifier.PredictEarly(ts);
    Watchdog::Watch watch("predict:" + classifier.name(),
                          classifier.predict_budget_seconds(), watchdog_grace);
    return classifier.PredictEarly(ts);
  };
  for (size_t i = 0; i < test.size(); ++i) {
    const TimeSeries& ts = test.instance(i);
    TraceSpan predict_span("eval", "PredictEarly");
    auto pred = predict_supervised(ts);
    if (!pred.ok()) {
      // A prediction failure (predict deadline overrun, watchdog
      // cancellation, internal fault) counts as consuming the full series
      // and predicting an impossible label (always wrong); it must not crash
      // an entire evaluation campaign. The first failure message is surfaced
      // on the outcome.
      ++outcome->num_failed_predictions;
      if (outcome->failure.empty()) {
        outcome->failure = pred.status().ToString();
        outcome->failure_code = pred.status().code();
      }
      truth.push_back(test.label(i));
      predicted.push_back(std::numeric_limits<int>::min());
      prefixes.push_back(ts.length());
      lengths.push_back(ts.length());
      continue;
    }
    truth.push_back(test.label(i));
    predicted.push_back(pred->label);
    // Clamp: a buggy/faulty classifier may report consuming more than it was
    // given; the metrics contract requires prefix <= length.
    prefixes.push_back(std::min(pred->prefix_length, ts.length()));
    lengths.push_back(ts.length());
  }
  outcome->test_seconds = test_timer.Seconds();
  outcome->num_test = test.size();
  outcome->scores = ComputeScores(truth, predicted, prefixes, lengths);
  if (MetricsEnabled()) {
    PredictionsMade().Add(test.size());
    if (outcome->num_failed_predictions > 0) {
      DegradedPredictions().Add(outcome->num_failed_predictions);
    }
  }
}

}  // namespace

double EvaluationResult::CpuSeconds() const {
  double sum = 0.0;
  for (const auto& fold : folds) sum += fold.train_seconds + fold.test_seconds;
  return sum;
}

bool EvaluationResult::trained() const {
  if (folds.empty()) return false;
  return std::all_of(folds.begin(), folds.end(),
                     [](const FoldOutcome& f) { return f.trained; });
}

EvalScores EvaluationResult::MeanScores() const {
  EvalScores mean;
  size_t n = 0;
  double acc = 0, f1 = 0, early = 0, hm = 0;
  for (const auto& fold : folds) {
    if (!fold.trained) continue;
    // An empty test fold carries explicit NaN scores (core/metrics.cc); it
    // must not drag the mean to NaN — skip it like an untrained fold.
    if (std::isnan(fold.scores.accuracy)) continue;
    acc += fold.scores.accuracy;
    f1 += fold.scores.f1;
    early += fold.scores.earliness;
    hm += fold.scores.harmonic_mean;
    ++n;
  }
  if (n == 0) return mean;
  mean.accuracy = acc / static_cast<double>(n);
  mean.f1 = f1 / static_cast<double>(n);
  mean.earliness = early / static_cast<double>(n);
  mean.harmonic_mean = hm / static_cast<double>(n);
  return mean;
}

double EvaluationResult::MeanTrainSeconds() const {
  double sum = 0;
  size_t n = 0;
  for (const auto& fold : folds) {
    if (!fold.trained) continue;
    sum += fold.train_seconds;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double EvaluationResult::MeanTestSecondsPerInstance() const {
  double sum = 0;
  size_t n = 0;
  for (const auto& fold : folds) {
    if (!fold.trained || fold.num_test == 0) continue;
    sum += fold.test_seconds / static_cast<double>(fold.num_test);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

namespace {

/// The supervised Fit+score path behind EvaluateSplit and RunFold: Fit is
/// re-attempted on the SAME instance for transient failures (bounded by the
/// policy, backed off deterministically from `backoff_seed`) and optionally
/// watched for hangs. Deterministic failures break out on the first attempt.
FoldOutcome SupervisedSplit(const Dataset& train, const Dataset& test,
                            EarlyClassifier* classifier,
                            const RetryPolicy& retry, double watchdog_grace,
                            uint64_t backoff_seed) {
  FoldOutcome outcome;
  Stopwatch train_timer;
  Status fit_status;
  int attempts = 0;
  for (;;) {
    {
      TraceSpan fit_span("eval", [&] { return "Fit:" + classifier->name(); });
      if (watchdog_grace > 0.0) {
        Watchdog::Watch watch("fit:" + classifier->name(),
                              classifier->train_budget_seconds(),
                              watchdog_grace);
        fit_status = classifier->Fit(train);
      } else {
        fit_status = classifier->Fit(train);
      }
    }
    ++attempts;
    if (fit_status.ok()) break;
    if (attempts > retry.max_retries ||
        !IsTransientFailure(fit_status.code())) {
      break;
    }
    // The delay schedule is a pure function of (policy, seed, attempt):
    // reproducible logs and telemetry, and — because results never depend on
    // *when* a retry ran — bit-identical scores at any pool width.
    const double delay_ms = BackoffDelayMs(retry, backoff_seed, attempts);
    if (MetricsEnabled()) {
      FitRetries().Add(1);
      BackoffMs().Record(delay_ms);
    }
    Logf(LogLevel::kInfo, "supervisor",
         "retrying %s fit (attempt %d failed: %s) after %.1fms backoff",
         classifier->name().c_str(), attempts, fit_status.ToString().c_str(),
         delay_ms);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay_ms));
  }
  outcome.train_seconds = train_timer.Seconds();
  outcome.fit_attempts = attempts;
  if (!fit_status.ok()) {
    if (MetricsEnabled()) FitFailures().Add(1);
    outcome.trained = false;
    outcome.failure = fit_status.ToString();
    outcome.failure_code = fit_status.code();
    return outcome;
  }
  outcome.trained = true;
  RunTestSet(test, *classifier, &outcome, watchdog_grace);
  return outcome;
}

}  // namespace

FoldOutcome EvaluateSplit(const Dataset& train, const Dataset& test,
                          EarlyClassifier* classifier, double watchdog_grace) {
  return SupervisedSplit(train, test, classifier, RetryPolicy{}, watchdog_grace,
                         /*backoff_seed=*/0);
}

FoldOutcome EvaluateFitted(const Dataset& test,
                           const EarlyClassifier& classifier,
                           double watchdog_grace) {
  FoldOutcome outcome;
  outcome.trained = true;
  RunTestSet(test, classifier, &outcome, watchdog_grace);
  return outcome;
}

namespace {

/// Immutable inputs of one fold, materialised before dispatch: the Subset
/// copies happen exactly once (not per iteration inside the parallel region)
/// and the fold's RNG seed is split from options.seed by index, so parallel
/// and serial runs see bit-identical data and seeds.
struct FoldInput {
  Dataset train;
  Dataset test;
  uint64_t seed = 0;
  size_t fold_index = 0;
  /// Fingerprint of the WHOLE cross-validated dataset (not the subset): with
  /// fold_index, num_folds, and the evaluation seed it pins down this fold's
  /// exact train split for the model-cache key. 0 when caching is off.
  uint64_t dataset_fingerprint = 0;
};

FoldOutcome RunFold(const FoldInput& input, const EarlyClassifier& prototype,
                    const EvaluationOptions& options) {
  TraceSpan fold_span("eval", [&] { return "fold:" + prototype.name(); });
  if (MetricsEnabled()) FoldsRun().Add(1);
  std::unique_ptr<EarlyClassifier> classifier =
      WrapForDataset(prototype.CloneUntrained(), input.train);
  // Budgets are set once, on the final (possibly voting-wrapped) classifier;
  // VotingEarlyClassifier::Fit shares the train budget across its voters.
  classifier->set_train_budget_seconds(options.train_budget_seconds);
  classifier->set_predict_budget_seconds(options.predict_budget_seconds);
  FoldOutcome outcome;
  ModelCacheKey key;
  bool restored = false;
  if (options.model_cache != nullptr) {
    // The key uses the fingerprint of the FINAL classifier (after voting
    // wrapping), so univariate-on-multivariate entries never alias plain ones.
    key.config_fingerprint = classifier->config_fingerprint();
    key.dataset_fingerprint = input.dataset_fingerprint;
    key.fold = input.fold_index;
    key.num_folds = options.num_folds;
    key.seed = options.seed;
    restored = options.model_cache->TryLoad(key, classifier.get());
  }
  if (restored) {
    if (MetricsEnabled()) FitsSkipped().Add(1);
    outcome = EvaluateFitted(input.test, *classifier, options.watchdog_grace);
  } else {
    outcome = SupervisedSplit(input.train, input.test, classifier.get(),
                              options.retry, options.watchdog_grace,
                              /*backoff_seed=*/input.seed);
    if (options.model_cache != nullptr && outcome.trained) {
      const Status stored = options.model_cache->Store(key, *classifier);
      if (!stored.ok()) {
        // A failed store only costs the next run a refit; the evaluation
        // result is unaffected.
        Logf(LogLevel::kWarn, "eval", "model cache store failed: %s",
             stored.ToString().c_str());
      }
    }
  }
  outcome.fold_seed = input.seed;
  return outcome;
}

}  // namespace

EvaluationResult CrossValidate(const Dataset& dataset,
                               const EarlyClassifier& prototype,
                               const EvaluationOptions& options) {
  EvaluationResult result;
  result.algorithm = prototype.name();
  result.dataset = dataset.name();
  Stopwatch wall;

  Rng rng(options.seed);
  const auto folds = StratifiedKFold(dataset, options.num_folds, &rng);
  // Hashing every observation is cheap next to training, but pointless when
  // caching is off.
  const uint64_t dataset_fingerprint =
      options.model_cache != nullptr ? dataset.Fingerprint() : 0;
  std::vector<FoldInput> inputs;
  inputs.reserve(folds.size());
  for (size_t f = 0; f < folds.size(); ++f) {
    inputs.push_back({dataset.Subset(folds[f].train),
                      dataset.Subset(folds[f].test),
                      SplitSeed(options.seed, f), f, dataset_fingerprint});
  }

  if (MaxParallelism() == 1) {
    // Exact serial path: folds after the first training failure are never
    // attempted (the paper's 48-hour rule would kill the whole run anyway).
    for (const FoldInput& input : inputs) {
      result.folds.push_back(RunFold(input, prototype, options));
      if (options.skip_folds_after_failure && !result.folds.back().trained) {
        break;
      }
    }
  } else {
    // Parallel path: every fold is an independent task over const inputs.
    // To keep results identical to the serial path, the outcome vector is
    // truncated after the first untrained fold (those folds were computed,
    // but a serial run would not have reported them).
    std::vector<FoldOutcome> outcomes(inputs.size());
    ParallelFor(inputs.size(), [&](size_t f) {
      outcomes[f] = RunFold(inputs[f], prototype, options);
    });
    for (FoldOutcome& outcome : outcomes) {
      const bool failed = !outcome.trained;
      result.folds.push_back(std::move(outcome));
      if (options.skip_folds_after_failure && failed) break;
    }
  }
  result.wall_seconds = wall.Seconds();
  return result;
}

}  // namespace etsc
