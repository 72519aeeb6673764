#ifndef ETSC_ALGOS_ECTS_H_
#define ETSC_ALGOS_ECTS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/trigger.h"

namespace etsc {

/// ECTS — Early Classification on Time Series (Xing, Pei & Yu 2012; paper
/// Sec. 3.2). Prefix-based and univariate: for every training series it
/// learns a Minimum Prediction Length (MPL) — the prefix length from which
/// the series' reverse-nearest-neighbor set stays stable through full length —
/// and lowers MPLs further through agglomerative (single-linkage) clustering
/// whose label-pure clusters must be 1-NN- and RNN-consistent. At test time a
/// growing prefix is matched to its training 1-NN and a label is emitted once
/// the observed length reaches the neighbor's MPL. Registered as the alias
/// "ects" = "1nn+ects-mpl".
struct EctsOptions {
  /// Minimum |RNN| support a series needs for its RNN-based MPL (paper
  /// Table 4 uses 0).
  size_t support = 0;
  /// Stop merging clusters once their single-linkage distance exceeds this
  /// multiple of the mean pairwise distance (keeps O(N^2) clustering sane on
  /// large sets). <= 0 merges everything.
  double max_merge_distance_factor = 0.0;
};

/// The 1NN-stability rule as a self-contained trigger: it owns the training
/// series, the learned MPLs and the incremental 1-NN scan, and decides halt
/// and label together (no bank classifier involved). Registered as trigger
/// "ects-mpl"; the classifier half of a spec pairing it is ignored.
class EctsMplTrigger : public Trigger {
 public:
  explicit EctsMplTrigger(EctsOptions options = {}) : options_(options) {}

  std::string name() const override { return "ects-mpl"; }
  std::string config_fingerprint() const override;
  bool needs_posteriors() const override { return false; }
  bool self_contained() const override { return true; }
  bool SupportsMultivariate() const override { return false; }
  ComposedOptions DefaultComposedOptions() const override;
  Status PlanCheckpoints(const Dataset& train, const FullClassifier* base,
                         const Deadline& deadline,
                         std::vector<size_t>* checkpoints) override;
  Status Fit(const TriggerFitContext& ctx) override;
  std::unique_ptr<TriggerState> NewState() const override;
  Result<TriggerDecision> Decide(const TriggerEvidence& evidence,
                                 TriggerState* state) const override;
  Result<std::optional<EarlyPrediction>> Finalize(
      const TimeSeries& series, TriggerState* state) const override;
  std::unique_ptr<Trigger> CloneUnfitted() const override;
  Status SaveState(Serializer& out) const override;
  Status LoadState(Deserializer& in) override;

  /// Learned per-training-series MPLs (after clustering); exposed for tests.
  const std::vector<size_t>& mpls() const { return mpls_; }

 private:
  EctsOptions options_;
  std::vector<std::vector<double>> train_series_;
  std::vector<int> train_labels_;
  size_t length_ = 0;
  std::vector<size_t> mpls_;
};

}  // namespace etsc

#endif  // ETSC_ALGOS_ECTS_H_
