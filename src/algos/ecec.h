#ifndef ETSC_ALGOS_ECEC_H_
#define ETSC_ALGOS_ECEC_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/trigger.h"

namespace etsc {

/// ECEC — Effective Confidence-based Early Classification (Lv et al. 2019;
/// paper Sec. 3.5). Model-based and univariate: trains N WEASEL classifiers on
/// overlapping prefixes, estimates per-classifier label reliabilities
/// r_t(ŷ) = P(y = ŷ | h_t = ŷ) by cross-validation, fuses them into the
/// confidence  c(ŷ, t) = 1 − Π_{i ≤ t, ŷ_i = ŷ} (1 − r_i(ŷ_i)),  and learns
/// the confidence threshold θ minimising CF(θ) = α(1−acc) + (1−α)·earliness
/// over candidate thresholds taken between adjacent sorted CV confidences.
/// The prefix count N (Table 4: 20) is the composition's checkpoint count.
///
/// The confidence-ratio rule as a standalone trigger, usable with any base
/// classifier: cross-validates clones of the base per checkpoint to estimate
/// reliability tables, calibrates the fused-confidence threshold by
/// minimising CF(θ), and halts once the fused confidence of the bank's
/// prediction clears it. Registered as trigger "ecec-ratio"; the paper's
/// ECEC is the alias "ecec" = "weasel+ecec-ratio".
struct EcecTriggerOptions {
  double alpha = 0.8;    // Table 4: a = 0.8
  size_t cv_folds = 3;   // reliability-estimation folds
  /// Cap on distinct threshold candidates (adjacent-mean rule produces one
  /// per CV confidence value; the paper's datasets keep this tractable).
  size_t max_threshold_candidates = 200;
  uint64_t seed = 17;
};

class EcecRatioTrigger : public Trigger {
 public:
  explicit EcecRatioTrigger(EcecTriggerOptions options = {})
      : options_(options) {}

  std::string name() const override { return "ecec-ratio"; }
  std::string config_fingerprint() const override;
  bool needs_posteriors() const override { return false; }
  bool SupportsMultivariate() const override { return false; }
  ComposedOptions DefaultComposedOptions() const override;
  Status PlanCheckpoints(const Dataset& train, const FullClassifier* base,
                         const Deadline& deadline,
                         std::vector<size_t>* checkpoints) override;
  Status Fit(const TriggerFitContext& ctx) override;
  std::unique_ptr<TriggerState> NewState() const override;
  Result<TriggerDecision> Decide(const TriggerEvidence& evidence,
                                 TriggerState* state) const override;
  std::unique_ptr<Trigger> CloneUnfitted() const override;
  Status SaveState(Serializer& out) const override;
  Status LoadState(Deserializer& in) override;

  double threshold() const { return threshold_; }

 private:
  /// Reliability of the checkpoint-`ci` classifier predicting `label`.
  double Reliability(size_t ci, int label) const;

  EcecTriggerOptions options_;
  std::vector<std::map<int, double>> reliability_;  // [checkpoint][label] -> r
  double threshold_ = 0.5;
};

}  // namespace etsc

#endif  // ETSC_ALGOS_ECEC_H_
