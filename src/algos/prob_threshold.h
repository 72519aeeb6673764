#ifndef ETSC_ALGOS_PROB_THRESHOLD_H_
#define ETSC_ALGOS_PROB_THRESHOLD_H_

#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/trigger.h"

namespace etsc {

/// Probability-threshold early classifier: the simplest confidence-based
/// baseline in the ETSC literature (a one-tier TEASER without the one-class
/// SVM, or an ECEC without reliability fusion). Trains one clone of a
/// full-TSC classifier per prefix of a fixed grid and emits the prediction at
/// the first prefix whose top class probability reaches `threshold` for
/// `consecutive` prefixes in a row; useful as a sanity baseline when adding
/// new algorithms to the framework.
///
/// The stopping-rule half of the baseline, usable with any base classifier:
/// halt at the first checkpoint whose top posterior reaches `threshold` for
/// `consecutive` checkpoints in a row (same label throughout the streak).
/// Stateless after construction; registered as trigger "prob" (default grid:
/// 10 prefixes). The alias "prob-threshold" = "minirocket-logistic+prob".
struct ProbTriggerOptions {
  double threshold = 0.9;
  size_t consecutive = 1;
};

class ProbTrigger : public Trigger {
 public:
  explicit ProbTrigger(ProbTriggerOptions options = {});

  std::string name() const override { return "prob"; }
  std::string config_fingerprint() const override;
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

  const ProbTriggerOptions& options() const { return options_; }

 private:
  ProbTriggerOptions options_;
};

}  // namespace etsc

#endif  // ETSC_ALGOS_PROB_THRESHOLD_H_
