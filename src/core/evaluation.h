#ifndef ETSC_CORE_EVALUATION_H_
#define ETSC_CORE_EVALUATION_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <memory>

#include "core/classifier.h"
#include "core/dataset.h"
#include "core/metrics.h"
#include "core/model_cache.h"
#include "core/supervisor.h"

namespace etsc {

/// Simple wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }
  void Restart() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Outcome of one CV fold.
struct FoldOutcome {
  bool trained = false;          // false when Fit failed (e.g. budget exceeded)
  /// First failure observed in the fold: the Fit error when !trained, else
  /// the first prediction error (predict deadline overrun, internal fault).
  /// Failed cells are first-class results, never crashes.
  std::string failure;
  /// StatusCode of `failure` (kOk when the fold was clean) — the supervisor's
  /// failure taxonomy: transient codes were retried, deterministic ones
  /// failed fast, and the circuit breaker only counts real failures.
  StatusCode failure_code = StatusCode::kOk;
  /// Fit attempts consumed (1 = no retries). Deterministic: a function of
  /// the classifier's failure pattern and the retry policy, never of timing.
  int fit_attempts = 1;
  /// Predictions that returned an error and were degraded to a full-length
  /// miss; trained stays true so the fold still reports scores.
  size_t num_failed_predictions = 0;
  EvalScores scores;
  /// This fold's RNG seed, split from EvaluationOptions::seed by fold index
  /// *before* dispatch (SplitSeed), so it is identical whether the folds ran
  /// serially or on the thread pool. Stochastic per-fold machinery (fault
  /// injection, future reseeding classifiers) must draw from this, never
  /// from a generator shared across folds.
  uint64_t fold_seed = 0;
  /// Per-fold wall time, measured inside the fold's task — under parallel
  /// execution these sum to more than the harness wall-clock.
  double train_seconds = 0.0;
  double test_seconds = 0.0;     // total over the fold's test set
  size_t num_test = 0;
};

/// Aggregated result of evaluating one algorithm on one dataset.
struct EvaluationResult {
  std::string algorithm;
  std::string dataset;
  std::vector<FoldOutcome> folds;

  /// Wall-clock of the whole CrossValidate call (all folds); with the thread
  /// pool active this is less than the sum of per-fold times. The campaign
  /// reports CpuSeconds()/wall_seconds as its fold-level speedup.
  double wall_seconds = 0.0;

  /// Sum of per-fold train+test wall time — the serial-equivalent cost.
  double CpuSeconds() const;

  /// True when every fold trained within budget.
  bool trained() const;

  /// Mean scores over the folds that trained.
  EvalScores MeanScores() const;

  /// Mean per-fold training wall-clock (seconds) over trained folds.
  double MeanTrainSeconds() const;

  /// Mean per-instance prediction wall-clock (seconds) over trained folds.
  double MeanTestSecondsPerInstance() const;
};

/// Options of the paper's experimental protocol (Sec. 6.1).
struct EvaluationOptions {
  size_t num_folds = 5;                      // stratified random-sampling CV
  uint64_t seed = 42;
  double train_budget_seconds = std::numeric_limits<double>::infinity();
  /// Wall-clock budget for ONE PredictEarly call; an overrun degrades that
  /// instance to a full-length miss instead of hanging the evaluation.
  double predict_budget_seconds = std::numeric_limits<double>::infinity();
  /// Stop evaluating remaining folds once one fold fails to train (budget
  /// exhaustion would only repeat); the paper's 48-hour rule likewise kills
  /// the whole run.
  bool skip_folds_after_failure = true;
  /// Fitted-model cache. When set, each fold first tries to restore its
  /// (possibly voting-wrapped) classifier from the cache — a hit skips Fit
  /// entirely (counted as eval.fits_skipped) and reports train_seconds = 0 —
  /// and every freshly trained fold is stored back. Null disables caching.
  std::shared_ptr<const ModelCache> model_cache;
  /// Supervised-retry policy for Fit: transient failures (kDeadlineExceeded,
  /// kResourceExhausted, kUnavailable) are re-attempted on the SAME
  /// classifier instance up to retry.max_retries times, under deterministic
  /// backoff jittered by the fold seed. Deterministic failures fail fast.
  RetryPolicy retry;
  /// Watchdog grace multiple: a Fit or PredictEarly running longer than
  /// grace * its budget is cooperatively cancelled (degrading exactly like a
  /// budget overrun). <= 0 (the default) disables the watchdog entirely —
  /// no token installs, no background thread.
  double watchdog_grace = 0.0;
};

/// Runs stratified k-fold cross-validation of `prototype` (cloned per fold)
/// on `dataset`, reproducing the paper's protocol: voting wrapper for
/// univariate algorithms on multivariate data, per-fold wall-clock timing and
/// a train budget standing in for the 48-hour cut-off.
EvaluationResult CrossValidate(const Dataset& dataset,
                               const EarlyClassifier& prototype,
                               const EvaluationOptions& options = {});

/// Evaluates an already-configured classifier on an explicit train/test split;
/// used by tests and examples. `watchdog_grace` > 0 supervises the Fit and
/// every prediction (see EvaluationOptions::watchdog_grace).
FoldOutcome EvaluateSplit(const Dataset& train, const Dataset& test,
                          EarlyClassifier* classifier,
                          double watchdog_grace = 0.0);

/// Evaluates an already-FITTED classifier on a test set (no Fit call): the
/// cache-hit path of CrossValidate, also useful for scoring a model restored
/// via EarlyClassifier::LoadFitted. train_seconds is reported as 0.
FoldOutcome EvaluateFitted(const Dataset& test, const EarlyClassifier& classifier,
                           double watchdog_grace = 0.0);

}  // namespace etsc

#endif  // ETSC_CORE_EVALUATION_H_
