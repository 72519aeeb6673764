#ifndef ETSC_ALGOS_ECONOMY_K_H_
#define ETSC_ALGOS_ECONOMY_K_H_

#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/trigger.h"
#include "ml/gbdt.h"
#include "ml/kmeans.h"

namespace etsc {

/// ECONOMY-K (Dachraoui et al.; paper Sec. 3.1). Model-based and univariate:
/// full-length training series are k-means-clustered; per sampled time-point a
/// base classifier (gradient-boosted trees, the XGBoost stand-in) is trained
/// on raw prefixes, and per (cluster, time-point) a confusion matrix estimates
/// P(ŷ|y, g_k). At test time the expected cost
///   f_τ(x_{1:t}) = Σ_k P(g_k|x) Σ_y P(y|g_k) Σ_ŷ P_{t+τ}(ŷ|y,g_k)·C(ŷ|y)
///                + time_cost·(t+τ)
/// is evaluated over future horizons τ; the prediction is emitted when the
/// minimising τ is 0 (non-myopic stopping rule). The number of time-points
/// with a trained model (evenly spaced, default 20) is the composition's
/// checkpoint count.
///
/// The expected-cost minimiser as a standalone, self-contained trigger: it
/// clusters full-length training series, trains its own GBDT prefix models
/// per checkpoint, and halts when the expected-cost argmin over future
/// horizons is "now". The halting label comes from the trigger's own
/// per-checkpoint model (TriggerDecision::label), so no external base
/// classifier is consulted. Registered as trigger "eco-cost"; the paper's
/// ECONOMY-K is the alias "economy-k" = "gbdt+eco-cost".
struct EcoCostTriggerOptions {
  /// Cluster counts tried during Fit; the value with the lowest training cost
  /// is kept (the paper grid-searches {1, 2, 3}).
  std::vector<size_t> cluster_grid = {1, 2, 3};
  /// Cost of postponing the decision by one time-point (Table 4: 0.001).
  double time_cost = 0.001;
  /// Misclassification cost scale λ (Table 4: 100); the 0/1 error cost is
  /// λ·time_cost so the two cost axes are commensurable.
  double lambda = 100.0;
  /// Weight of the delay term relative to the misclassification cost when the
  /// *whole* series is consumed. With absolute per-step delay, λ=100 and
  /// cost=0.001 make full-length delay (0.001·L) exceed the maximum
  /// misclassification cost (0.1) for any L > 100, collapsing the rule to
  /// "always stop at the first checkpoint"; normalising delay by L keeps the
  /// Table-4 parameters meaningful at every series length.
  double relative_delay_weight = 0.5;
  /// Folds used to estimate P(ŷ|y, cluster) out-of-sample (in-sample
  /// confusion of boosted trees is near-perfect and would make the cost
  /// function stop at the first checkpoint). 0 falls back to in-sample.
  size_t cv_folds = 3;
  GbdtOptions gbdt;
  uint64_t seed = 5;
};

class EcoCostTrigger : public Trigger {
 public:
  explicit EcoCostTrigger(EcoCostTriggerOptions options = {})
      : options_(std::move(options)) {}

  std::string name() const override { return "eco-cost"; }
  std::string config_fingerprint() const override;
  bool needs_posteriors() const override { return false; }
  bool self_contained() const override { return true; }
  bool SupportsMultivariate() const override { return false; }
  ComposedOptions DefaultComposedOptions() const override;
  Status PlanCheckpoints(const Dataset& train, const FullClassifier* base,
                         const Deadline& deadline,
                         std::vector<size_t>* checkpoints) override;
  Status Fit(const TriggerFitContext& ctx) override;
  Result<TriggerDecision> Decide(const TriggerEvidence& evidence,
                                 TriggerState* state) const override;
  Result<std::optional<EarlyPrediction>> Finalize(
      const TimeSeries& series, TriggerState* state) const override;
  std::unique_ptr<Trigger> CloneUnfitted() const override;
  Status SaveState(Serializer& out) const override;
  Status LoadState(Deserializer& in) override;

  size_t chosen_clusters() const { return clusters_.centroids.size(); }

 private:
  /// Expected cost of deciding at checkpoint index `ci_future`, given cluster
  /// memberships at the current prefix.
  double ExpectedCost(const std::vector<double>& memberships,
                      size_t ci_future) const;

  Status FitWithClusters(const Dataset& train, size_t k,
                         const Deadline& deadline, double* training_cost);

  EcoCostTriggerOptions options_;
  size_t length_ = 0;
  std::vector<int> class_labels_;
  std::vector<size_t> checkpoints_;  // prefix lengths with a trained model
  KMeansModel clusters_;
  std::vector<GbdtClassifier> models_;  // one per checkpoint
  // prob_correct_[ci][k][yi] = P(ŷ = y | y = yi, cluster k) at checkpoint ci.
  std::vector<std::vector<std::vector<double>>> prob_correct_;
  // prior_[k][yi] = P(y = yi | cluster k).
  std::vector<std::vector<double>> prior_;
};

}  // namespace etsc

#endif  // ETSC_ALGOS_ECONOMY_K_H_
