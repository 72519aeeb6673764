#ifndef ETSC_CORE_TRIGGER_H_
#define ETSC_CORE_TRIGGER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/dataset.h"
#include "core/deadline.h"
#include "core/registry.h"
#include "core/serialize.h"
#include "core/status.h"
#include "core/time_series.h"

namespace etsc {

/// The classifier/trigger seam (DESIGN.md sec 15).
///
/// Every ETSC algorithm in the paper fuses two concerns: a *base classifier*
/// that labels a prefix, and a *trigger* (stopping rule) that decides whether
/// the label is safe to emit now or whether the series should be observed
/// further. The Trigger interface isolates the second concern so any
/// registered stopping rule composes with any registered base classifier
/// through ComposedEarlyClassifier, turning the fixed set of published
/// pairings into a campaign cross-product axis.

/// How a ComposedEarlyClassifier spaces its checkpoint (prefix-length) grid
/// over the training length L. The variants reproduce the published grids of
/// the paper's algorithms exactly — same rounding, same minimum prefix — and
/// each trigger's DefaultComposedOptions() selects its own.
enum class CheckpointGrid {
  kFloorMinTwo,   // max(2, i*L/n), deduped, L appended (ProbThreshold, TEASER)
  kCeilMinTwo,    // max(2, ceil(i*L/n)), deduped, L appended (ECEC)
  kFloorMinOne,   // max(1, i*L/n), deduped, L appended (ECONOMY-K)
  kEveryPoint,    // 1, 2, ..., L (ECTS)
  kTriggerPlanned,  // the trigger's PlanCheckpoints chooses (STRUT)
};

/// Configuration of one classifier/trigger composition.
struct ComposedOptions {
  /// Grid size hint n (ignored by kEveryPoint / kTriggerPlanned).
  size_t num_checkpoints = 20;
  CheckpointGrid grid = CheckpointGrid::kFloorMinTwo;
  /// Z-normalise every series (train and predict) before the bank sees it
  /// (TEASER's optional preprocessing).
  bool z_normalize = false;
};

/// One halt-or-wait verdict.
struct TriggerDecision {
  bool halt = false;
  /// Label override: self-contained triggers (ECTS, ECONOMY-K) carry their
  /// own labelling machinery and decide the label together with the halt.
  /// Empty = use the bank classifier's prediction at this checkpoint.
  std::optional<int> label;
  /// Confidence in the emitted label at the halt point (best posterior,
  /// fused confidence, ...); 1.0 when the trigger has no probabilistic
  /// notion. Propagated into EarlyPrediction::confidence for serving.
  double confidence = 1.0;
};

/// What the composed pipeline shows the trigger at one checkpoint.
struct TriggerEvidence {
  size_t checkpoint = 0;      // index into the checkpoint grid
  size_t prefix_length = 0;   // time-points observed at this checkpoint
  /// No later checkpoint fits this series. A streamed series goes on past
  /// what has arrived, so there only the grid's final checkpoint is last.
  bool is_last = false;
  size_t train_length = 0;    // training length L the grid was built over
  /// Bank prediction at this checkpoint: argmax of `posteriors` when the
  /// trigger needs_posteriors(), otherwise the bank's Predict(). Zero when
  /// the trigger is self_contained() (no bank).
  int predicted = 0;
  /// Class posteriors aligned with `class_labels`; null when the trigger
  /// does not need them or is self-contained.
  const std::vector<double>* posteriors = nullptr;
  const std::vector<int>* class_labels = nullptr;
  /// The (preprocessed) series being classified, or the prefix of it
  /// observed so far; only its first `prefix_length` points may be read.
  const TimeSeries* series = nullptr;
  /// Prediction deadline of the enclosing PredictEarly (or cursor) call;
  /// triggers with expensive per-checkpoint work must poll it.
  const Deadline* deadline = nullptr;
};

/// Per-series mutable trigger scratch (consecutive-hit streaks, incremental
/// 1NN distances, ...). One state lives for one checkpoint walk: one
/// PredictEarly call, or one streamed series, whose cursor carries it from
/// point to point.
class TriggerState {
 public:
  virtual ~TriggerState() = default;
};

/// Everything a trigger may consult while fitting.
struct TriggerFitContext {
  /// Preprocessed training set (z-normalised already if the composition asks
  /// for it).
  const Dataset* train = nullptr;
  /// The checkpoint grid the composed classifier will walk at predict time.
  const std::vector<size_t>* checkpoints = nullptr;
  /// Fitted per-checkpoint bank, aligned with `checkpoints`; null for
  /// self-contained triggers (no bank is fitted for them).
  const std::vector<std::unique_ptr<FullClassifier>>* bank = nullptr;
  /// Unfitted base prototype; triggers that calibrate via cross-validation
  /// clone and fit it on folds (ECEC, TEASER).
  const FullClassifier* base = nullptr;
  /// Training deadline of the enclosing Fit call.
  const Deadline* deadline = nullptr;
};

/// A stopping rule, decoupled from the classifier it stops.
///
/// Contract:
///  * Fit() must be deterministic given (options, training data): all
///    randomness derives from seeds in the trigger's own options.
///  * Decide() must be const and thread-safe across concurrent series — all
///    per-series scratch lives in the TriggerState.
///  * Decide() depends only on the state and the evidence, and reads only
///    the first prefix_length points of the series, so a walk resumed as
///    more points arrive decides each checkpoint as a fresh walk would.
///  * Save/LoadState round-trip under the bumped ETSCMODL format: a loaded
///    trigger's Decide() is bit-identical to the instance saved.
class Trigger {
 public:
  virtual ~Trigger() = default;

  virtual std::string name() const = 0;

  /// Stable configuration string; see FullClassifier::config_fingerprint.
  virtual std::string config_fingerprint() const { return name(); }

  /// False = the composed pipeline calls the bank's Predict() instead of
  /// PredictProba() (cheaper; STRUT, ECTS).
  virtual bool needs_posteriors() const { return true; }

  /// True = the trigger owns its labelling machinery (ECTS's 1NN, ECONOMY-K's
  /// per-checkpoint GBDTs): the composition fits no bank and the trigger's
  /// decisions carry label overrides.
  virtual bool self_contained() const { return false; }

  /// Whether the trigger itself can observe multivariate series. The
  /// composition is multivariate iff base and trigger both are.
  virtual bool SupportsMultivariate() const { return true; }

  /// Grid the trigger was published with; used when a composition is built
  /// from a registry spec without explicit options.
  virtual ComposedOptions DefaultComposedOptions() const { return {}; }

  /// Validates `train` and optionally replaces the checkpoint grid (STRUT's
  /// truncation-point search runs here, before any bank model is fitted).
  /// Called first in ComposedEarlyClassifier::Fit.
  virtual Status PlanCheckpoints(const Dataset& train, const FullClassifier* base,
                                 const Deadline& deadline,
                                 std::vector<size_t>* checkpoints) {
    (void)train;
    (void)base;
    (void)deadline;
    (void)checkpoints;
    return Status::OK();
  }

  /// Fits the stopping rule (reliability tables, one-class gates, master
  /// prefix lengths, ...). The bank in `ctx` is already fitted.
  virtual Status Fit(const TriggerFitContext& ctx) = 0;

  /// Fresh per-series scratch; null for stateless triggers.
  virtual std::unique_ptr<TriggerState> NewState() const { return nullptr; }

  /// The halt-or-wait verdict at one checkpoint.
  virtual Result<TriggerDecision> Decide(const TriggerEvidence& evidence,
                                         TriggerState* state) const = 0;

  /// Fallback when the checkpoint walk ended without a halt (series shorter
  /// than every checkpoint). Empty = the composition's default fallback (bank
  /// model 0 on the full series). Self-contained triggers override this. A
  /// fallback consumes the whole series (prefix_length = series.length()),
  /// so it never commits a stream early.
  virtual Result<std::optional<EarlyPrediction>> Finalize(
      const TimeSeries& series, TriggerState* state) const {
    (void)series;
    (void)state;
    return std::optional<EarlyPrediction>();
  }

  /// Fresh, unfitted instance with identical configuration.
  virtual std::unique_ptr<Trigger> CloneUnfitted() const = 0;

  /// Persistence hooks; see FullClassifier::SaveState/LoadState.
  virtual Status SaveState(Serializer& out) const {
    (void)out;
    return Status::NotImplemented(name() + ": trigger persistence not supported");
  }
  virtual Status LoadState(Deserializer& in) {
    (void)in;
    return Status::NotImplemented(name() + ": trigger persistence not supported");
  }
};

template <>
struct RegistryKind<Trigger> {
  static constexpr const char* kName = "trigger";
};

/// Stopping rules by name ("prob", "ects-mpl", ...): the trigger half of a
/// '<base>+<trigger>' spec.
using TriggerRegistry = Registry<Trigger>;

}  // namespace etsc

#endif  // ETSC_CORE_TRIGGER_H_
