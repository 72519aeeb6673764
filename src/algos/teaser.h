#ifndef ETSC_ALGOS_TEASER_H_
#define ETSC_ALGOS_TEASER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/trigger.h"
#include "ml/one_class_svm.h"

namespace etsc {

/// TEASER — Two-tier Early and Accurate Series classifiER (Schäfer & Leser
/// 2020; paper Sec. 3.6). Prefix-based and univariate: S overlapping prefixes
/// each get a WEASEL + logistic-regression pipeline; a per-prefix one-class
/// SVM trained on the feature vectors (class probabilities + top-2 margin) of
/// correctly classified training instances accepts or rejects each
/// probabilistic prediction; an accepted label is emitted only after v
/// consecutive identical accepted predictions, with v ∈ {1..5} grid-searched
/// on the training set by harmonic mean of accuracy and earliness. The prefix
/// count S (Table 4: 20 for UCR, 10 for Biological/Maritime) is the
/// composition's checkpoint count; the original's internal z-normalisation
/// is ComposedOptions::z_normalize, off by default because the paper
/// evaluates the variant without it (online setting).
///
/// TEASER's two-tier gate as a standalone trigger, usable with any base
/// classifier that produces posteriors: per checkpoint, a one-class SVM
/// trained on the (posteriors + top-2 margin) features of correctly
/// classified training instances accepts or rejects the bank's prediction,
/// and v consecutive identical accepted predictions halt. Registered as
/// trigger "teaser-gate"; the paper's TEASER is the alias "teaser" =
/// "weasel+teaser-gate".
struct TeaserTriggerOptions {
  size_t max_consecutive = 5;
  /// Folds used to obtain out-of-sample probabilistic predictions for the
  /// one-class-SVM training set and the v grid search (the original uses
  /// cross-validation here; 0 falls back to cheap in-sample predictions).
  size_t cv_folds = 3;
  OneClassSvmOptions ocsvm;
  uint64_t seed = 23;
};

class TeaserGateTrigger : public Trigger {
 public:
  explicit TeaserGateTrigger(TeaserTriggerOptions options = {})
      : options_(options) {}

  std::string name() const override { return "teaser-gate"; }
  std::string config_fingerprint() const override;
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

  size_t chosen_v() const { return v_; }

  /// The OC-SVM feature vector: the class-probability vector plus the margin
  /// between the two largest probabilities.
  static std::vector<double> OcsvmFeatures(const std::vector<double>& proba);

 private:
  TeaserTriggerOptions options_;
  size_t v_ = 1;
  std::vector<OneClassSvm> filters_;
  std::vector<bool> filter_ok_;  // OC-SVM trained successfully per checkpoint
};

}  // namespace etsc

#endif  // ETSC_ALGOS_TEASER_H_
