#ifndef ETSC_CORE_FAULT_H_
#define ETSC_CORE_FAULT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/classifier.h"
#include "core/dataset.h"
#include "core/rng.h"

namespace etsc {

/// Exit code of the die-at faults, so drills can tell a scripted death
/// (std::_Exit mid-Fit or mid-serve) from an ordinary failure.
inline constexpr int kDieAtExitCode = 86;

/// Configuration of the fault-injection decorator. Every field defaults to
/// "off", and each fault's code (its Rng draw and deadline check included)
/// runs only when its field is set. All rates
/// are probabilities in [0, 1]; the draws come from one seeded Rng so a given
/// (seed, call sequence) always injects the same faults.
struct FaultOptions {
  uint64_t seed = 7;
  /// Fit returns Status::Internal("injected fit failure") with this rate.
  double fit_failure_rate = 0.0;
  /// PredictEarly returns Status::Internal with this rate.
  double predict_failure_rate = 0.0;
  /// PredictEarly returns a corrupt EarlyPrediction with this rate: an
  /// impossible label and a prefix_length beyond the series length. Callers
  /// must survive both (EvaluateSplit clamps the prefix and scores the label
  /// as a miss).
  double garbage_prediction_rate = 0.0;
  /// Busy-wait this long at the top of Fit / each PredictEarly before
  /// checking the decorator's own deadline — simulates an overrunning
  /// implementation so budget expiry paths can be exercised with millisecond
  /// budgets instead of the paper's 48 hours.
  double fit_delay_seconds = 0.0;
  double predict_delay_seconds = 0.0;
  /// Fit fails its first K attempts with Status::Unavailable (a transient
  /// class the supervisor retries), then delegates. The attempt counter is
  /// per instance and CloneUntrained resets it — the retry loop re-Fits the
  /// same instance, which is exactly what RunFold's retry loop does; the
  /// counting stays deterministic because each fold owns its clone.
  int flaky_fit_failures = 0;
  /// Hang Fit / PredictEarly: the broken-budget-logic bug. The operation
  /// spins forever, ignoring its real budget, but still runs the framework's
  /// Deadline polls (on an infinite deadline); only the watchdog requesting
  /// cancellation through the thread's CancelToken gets it out, and the hang
  /// then returns kDeadlineExceeded exactly like a budget overrun.
  bool hang_fit = false;
  bool hang_predict = false;
  /// Upper bound on a hang: a broken watchdog wedges a test run for at most
  /// this long, after which the hang gives up with kInternal (a
  /// non-transient class, so the supervisor does not retry it).
  double hang_max_seconds = 30.0;
  /// An abruptly killed worker process: the die_at_cell-th campaign cell
  /// (1-based) that starts fitting this algorithm ends the process with
  /// std::_Exit(kDieAtExitCode) — no destructors, no atexit hooks, no
  /// stream flushes, the file-system state of a SIGKILL. Cells are counted
  /// per algorithm across the whole process; every clone of one wrap shares
  /// the wrap's ordinal, so however CrossValidate clones the prototype, one
  /// cell's folds count as one cell. 0 = off.
  int die_at_cell = 0;
};

/// The one fault-injection decorator: wraps any EarlyClassifier and injects
/// the faults FaultOptions selects — seeded failures, deadline overruns,
/// garbage predictions, transient fit failures, hangs and process death.
/// Used by tests and the ETSC_FAULT drills to prove that CrossValidate, the
/// supervisor, StreamingSession, serving and the benchmark Campaign degrade
/// gracefully (failed cells recorded with `failure` strings, never aborts).
///
/// Budgets set on the decorator are forwarded to the inner classifier at Fit
/// time, matching the voting wrapper's propagation contract. A clone gets a
/// fresh flaky counter and a re-seeded Rng, and shares the die-at ordinal.
class FaultyClassifier : public EarlyClassifier {
 public:
  FaultyClassifier(std::unique_ptr<EarlyClassifier> inner, FaultOptions options);

  Status Fit(const Dataset& train) override;
  Result<EarlyPrediction> PredictEarly(const TimeSeries& series) const override;
  std::string name() const override;
  bool SupportsMultivariate() const override;
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override;

 private:
  /// Claims this wrap's cell ordinal and dies if it is die_at_cell.
  void DieAtCell();
  /// Spins until cancelled (DeadlineExceeded) or hang_max_seconds (Internal).
  Status Hang(const char* op) const;

  std::unique_ptr<EarlyClassifier> inner_;
  FaultOptions options_;
  // PredictEarly is const in the interface; the fault stream is decorator
  // state, deterministic given the call order. It is drawn only when a
  // predict rate is non-zero, so other wraps stay race-free when serving
  // shares them across pool threads.
  mutable Rng rng_;
  int failed_attempts_ = 0;
  /// This wrap's campaign-cell ordinal; 0 until the first Fit assigns it
  /// from the process-wide per-algorithm counter. Shared across clones.
  std::shared_ptr<std::atomic<int>> cell_ordinal_;
};

/// One entry of the ETSC_FAULT grammar, "TARGET:KIND[:K]".
struct FaultSpec {
  /// An algorithm name (a campaign target), or "ingest" / "dispatch" (the
  /// serving targets).
  std::string target;
  /// Campaign targets: flaky, crash, hang-fit, hang-predict, die-at.
  /// Serving targets: die-at.
  std::string kind;
  /// The :K of flaky and die-at, an integer in [1, 1e9]; 1 when omitted.
  int k = 1;
};

/// Parses one ETSC_FAULT entry. A missing or unknown kind, a :K on a kind
/// that takes none, and a K outside the digits-only rule of env::ParseInteger
/// or outside [1, 1e9] are InvalidArgument naming the entry.
Result<FaultSpec> ParseFaultSpec(std::string_view entry);

/// Wraps `classifier` in the FaultyClassifier the first `spec` entry naming
/// `algorithm` asks for. `spec` is a comma list of ETSC_FAULT entries:
///   ALGO:flaky[:K]    the first K Fit attempts fail transiently
///   ALGO:crash        every Fit fails deterministically (kInternal)
///   ALGO:hang-fit     Fit spins until the watchdog cancels it
///   ALGO:hang-predict PredictEarly spins until the watchdog cancels it
///   ALGO:die-at[:K]   the process exits (code 86) on ALGO's K-th cell
/// A hang needs a watchdog grace and a finite budget for its operation. A
/// classifier no entry names comes back as the same pointer, unwrapped; a
/// malformed entry warns and injects nothing.
std::unique_ptr<EarlyClassifier> WrapWithFaults(
    std::string_view spec, const std::string& algorithm,
    std::unique_ptr<EarlyClassifier> classifier);

/// Serving-layer fault points (chaos-drill injectors for ServingEngine).
/// `kIngest` fires inside Ingest AFTER the observation was journaled and
/// applied — the crash loses nothing durable; `kDispatch` fires inside
/// DispatchBatch between the claim phase and the pool fan-out — the textbook
/// "killed mid-dispatch" instant, with queues moved but no decision applied.
enum class ServeFaultPoint { kIngest, kDispatch };

/// Arms a process-wide serving death from the first ETSC_FAULT entry naming
/// a serving target:
///   "ingest:die-at[:K]"   — die at the K-th accepted ingest (1-based)
///   "dispatch:die-at[:K]" — die at the K-th dispatched batch (1-based)
/// No such entry disarms; a malformed one warns and disarms (the
/// validated-env contract). The death is std::_Exit(kDieAtExitCode) — no
/// destructors, no flushes, the file-system state of a SIGKILL. Used by the
/// check.sh serving crash drill.
void ArmServeFaultFromEnv();

/// Programmatic arming (tests); `ordinal` <= 0 disarms.
void ArmServeFault(ServeFaultPoint point, int ordinal);

/// Hit counter for `point`: increments on every call and dies when the armed
/// ordinal is reached. No-op (and no counter bump) while disarmed.
void ServeFaultTick(ServeFaultPoint point);

/// Truncates the last `drop_bytes` bytes off `path` — the torn-tail state a
/// crash mid-append leaves behind, made scriptable for recovery drills.
/// Dropping more bytes than the file holds empties it.
Status TruncateTail(const std::string& path, size_t drop_bytes);

/// Returns a copy of `source` in which every observation is independently
/// replaced by NaN with probability `rate` (seeded) — a faulty data source
/// modelling sensor dropouts. Labels and metadata are preserved; callers can
/// exercise both the repair path (Dataset::FillMissingValues) and raw-NaN
/// robustness of downstream components.
Dataset InjectMissingValues(const Dataset& source, double rate, uint64_t seed);

/// Busy-waits (monotonic clock) for `seconds`; models a compute-bound
/// overrun, unlike sleeping, so deadline tests behave under load.
void BurnWallClock(double seconds);

}  // namespace etsc

#endif  // ETSC_CORE_FAULT_H_
