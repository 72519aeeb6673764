#ifndef ETSC_ALGOS_STRUT_H_
#define ETSC_ALGOS_STRUT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/trigger.h"

namespace etsc {

/// Metric STRUT optimises when choosing the truncation point (paper Sec. 4).
enum class StrutMetric {
  kAccuracy,
  kF1,
  kHarmonicMean,  // of accuracy and earliness (default)
};

/// How candidate truncation points are explored.
enum class StrutSearch {
  /// Evaluate every candidate fraction in `fractions` (the fixed-iteration
  /// variant the paper uses for S-MLSTM: {0.05, 0.2, 0.4, 0.6, 0.8, 1}).
  kGrid,
  /// The paper's faster approximation: after a coarse grid pass, binary-search
  /// between the best point and its earlier neighbour for the minimum t whose
  /// score stays within `tolerance` of the best.
  kBinary,
};

/// STRUT — Selective TRUncation of Time-series (the paper's proposed
/// baseline, Sec. 4). Wraps any full-TSC algorithm: the training set is split
/// into fit/validation parts, iteratively truncated to candidate prefix
/// lengths; the truncation point with the best validation score is kept and
/// the classifier is retrained on the full training set at that length. Every
/// test prediction consumes exactly the selected prefix.
struct StrutOptions {
  StrutMetric metric = StrutMetric::kHarmonicMean;
  StrutSearch search = StrutSearch::kBinary;
  /// Candidate truncation fractions of the series length for the grid pass.
  std::vector<double> fractions = {0.05, 0.2, 0.4, 0.6, 0.8, 1.0};
  double validation_fraction = 0.3;
  double tolerance = 0.02;  // score slack for the binary refinement
  uint64_t seed = 29;
};

/// The stopping-rule half of STRUT: a fixed-ratio trigger that runs the whole
/// truncation-point search in PlanCheckpoints (fit/validation split, fraction
/// grid, optional binary refinement) and plants the single winning prefix
/// length t* as the checkpoint grid. Decisions always halt — the composed
/// pipeline consumes exactly t* points. Registered as trigger "strut-search"
/// (binary refinement) and as "strut-grid" (search = kGrid, the fixed
/// iteration count of S-MLSTM). The paper's presets are aliases: "s-weasel" =
/// "adaptive-weasel+strut-search" (WEASEL or WEASEL+MUSE chosen by
/// dimensionality at Fit), "s-mini" = "minirocket+strut-search" and
/// "s-mlstm" = "mlstm+strut-grid".
class StrutTrigger : public Trigger {
 public:
  explicit StrutTrigger(StrutOptions options = {});

  std::string name() const override { return "strut-search"; }
  std::string config_fingerprint() const override;
  bool needs_posteriors() const override { return false; }
  ComposedOptions DefaultComposedOptions() const override;
  Status PlanCheckpoints(const Dataset& train, const FullClassifier* base,
                         const Deadline& deadline,
                         std::vector<size_t>* checkpoints) override;
  Status Fit(const TriggerFitContext& ctx) override;
  Result<TriggerDecision> Decide(const TriggerEvidence& evidence,
                                 TriggerState* state) const override;
  std::unique_ptr<Trigger> CloneUnfitted() const override;
  Status SaveState(Serializer& out) const override;
  Status LoadState(Deserializer& in) override;

  size_t truncation_point() const { return truncation_point_; }
  const StrutOptions& options() const { return options_; }

 private:
  /// Validation score of the base classifier trained at truncation `t`.
  Result<double> ScoreAt(const FullClassifier& base, const Dataset& fit,
                         const Dataset& validation, size_t t,
                         size_t full_length) const;

  StrutOptions options_;
  size_t truncation_point_ = 0;
};

}  // namespace etsc

#endif  // ETSC_ALGOS_STRUT_H_
