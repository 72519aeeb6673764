#include "algos/ecec.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/metrics.h"
#include "core/rng.h"

namespace etsc {

namespace {

// Fused ECEC confidence of the prediction at prefix index `upto` given the
// sequence of per-prefix predictions and their reliabilities: agreement of
// earlier classifiers with the current label compounds confidence.
double FusedConfidence(const std::vector<int>& predictions,
                       const std::vector<double>& reliabilities, size_t upto) {
  const int label = predictions[upto];
  double product = 1.0;
  for (size_t i = 0; i <= upto; ++i) {
    if (predictions[i] == label) {
      product *= 1.0 - reliabilities[i];
    }
  }
  return 1.0 - product;
}

// Per-series prediction/reliability history the fused confidence folds over.
struct EcecRatioState : TriggerState {
  std::vector<int> preds;
  std::vector<double> rels;
};

}  // namespace

double EcecRatioTrigger::Reliability(size_t ci, int label) const {
  const auto& table = reliability_[ci];
  auto it = table.find(label);
  return it == table.end() ? 0.5 : it->second;
}

std::string EcecRatioTrigger::config_fingerprint() const {
  const auto& o = options_;
  return "ecec-ratio(a=" + FingerprintDouble(o.alpha) +
         ",cv=" + std::to_string(o.cv_folds) +
         ",thr=" + std::to_string(o.max_threshold_candidates) +
         ",seed=" + std::to_string(o.seed) + ")";
}

ComposedOptions EcecRatioTrigger::DefaultComposedOptions() const {
  ComposedOptions options;
  options.num_checkpoints = 20;
  options.grid = CheckpointGrid::kCeilMinTwo;
  return options;
}

Status EcecRatioTrigger::PlanCheckpoints(const Dataset& train,
                                         const FullClassifier*, const Deadline&,
                                         std::vector<size_t>*) {
  if (train.size() < options_.cv_folds) {
    return Status::InvalidArgument("ECEC: too few training series");
  }
  if (train.NumVariables() != 1) {
    return Status::InvalidArgument("ECEC: univariate input required");
  }
  if (train.MinLength() < 2) {
    return Status::InvalidArgument("ECEC: series too short");
  }
  return Status::OK();
}

Status EcecRatioTrigger::Fit(const TriggerFitContext& ctx) {
  const Dataset& train = *ctx.train;
  const std::vector<size_t>& prefix_lengths = *ctx.checkpoints;
  const Deadline& deadline = *ctx.deadline;
  const size_t length = train.MinLength();
  const size_t P = prefix_lengths.size();
  const size_t n = train.size();

  Rng rng(options_.seed);

  // Cross-validated per-prefix predictions for reliability estimation.
  // cv_pred[p][i] = held-out prediction of classifier p on training series i.
  std::vector<std::vector<int>> cv_pred(P, std::vector<int>(n, 0));
  const auto folds = StratifiedKFold(train, options_.cv_folds, &rng);
  for (const auto& split : folds) {
    Dataset fold_train = train.Subset(split.train);
    for (size_t p = 0; p < P; ++p) {
      ETSC_RETURN_NOT_OK(deadline.Check("ECEC: train budget exceeded"));
      std::unique_ptr<FullClassifier> model = ctx.base->CloneUntrained();
      ETSC_RETURN_NOT_OK(model->Fit(fold_train.Truncated(prefix_lengths[p])));
      for (size_t test_idx : split.test) {
        auto pred = model->Predict(train.instance(test_idx).Prefix(prefix_lengths[p]));
        cv_pred[p][test_idx] = pred.ok() ? *pred : train.label(test_idx) - 1;
      }
    }
  }

  // Reliability tables r_p(ŷ) = P(y = ŷ | h_p = ŷ), Laplace smoothed.
  reliability_.assign(P, {});
  for (size_t p = 0; p < P; ++p) {
    std::map<int, double> correct, total;
    for (size_t i = 0; i < n; ++i) {
      total[cv_pred[p][i]] += 1.0;
      if (cv_pred[p][i] == train.label(i)) correct[cv_pred[p][i]] += 1.0;
    }
    for (const auto& [label, count] : total) {
      reliability_[p][label] = (correct[label] + 1.0) / (count + 2.0);
    }
  }

  // Confidence of every (series, prefix) pair from CV predictions.
  std::vector<std::vector<double>> confidence(n, std::vector<double>(P, 0.0));
  std::vector<double> all_confidences;
  all_confidences.reserve(n * P);
  for (size_t i = 0; i < n; ++i) {
    std::vector<int> preds(P);
    std::vector<double> rels(P);
    for (size_t p = 0; p < P; ++p) {
      preds[p] = cv_pred[p][i];
      rels[p] = Reliability(p, preds[p]);
    }
    for (size_t p = 0; p < P; ++p) {
      confidence[i][p] = FusedConfidence(preds, rels, p);
      all_confidences.push_back(confidence[i][p]);
    }
  }

  // Threshold candidates: means of adjacent sorted confidence values.
  std::sort(all_confidences.begin(), all_confidences.end());
  all_confidences.erase(
      std::unique(all_confidences.begin(), all_confidences.end()),
      all_confidences.end());
  std::vector<double> candidates;
  for (size_t i = 0; i + 1 < all_confidences.size(); ++i) {
    candidates.push_back(0.5 * (all_confidences[i] + all_confidences[i + 1]));
  }
  if (candidates.empty()) candidates.push_back(0.5);
  if (candidates.size() > options_.max_threshold_candidates) {
    // Evenly subsample the sorted candidate list.
    std::vector<double> sampled;
    const size_t step = candidates.size() / options_.max_threshold_candidates;
    for (size_t i = 0; i < candidates.size(); i += std::max<size_t>(step, 1)) {
      sampled.push_back(candidates[i]);
    }
    candidates = std::move(sampled);
  }

  // Evaluate CF(θ) = α(1 - accuracy) + (1 - α) earliness for each candidate.
  double best_cf = std::numeric_limits<double>::infinity();
  double best_theta = candidates.front();
  for (double theta : candidates) {
    size_t correct = 0;
    double earliness_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      size_t stop = P - 1;
      for (size_t p = 0; p < P; ++p) {
        if (confidence[i][p] >= theta) {
          stop = p;
          break;
        }
      }
      if (cv_pred[stop][i] == train.label(i)) ++correct;
      earliness_sum += static_cast<double>(prefix_lengths[stop]) /
                       static_cast<double>(length);
    }
    const double accuracy = static_cast<double>(correct) / static_cast<double>(n);
    const double earliness = earliness_sum / static_cast<double>(n);
    const double cf =
        options_.alpha * (1.0 - accuracy) + (1.0 - options_.alpha) * earliness;
    if (cf < best_cf) {
      best_cf = cf;
      best_theta = theta;
    }
  }
  threshold_ = best_theta;
  return Status::OK();
}

std::unique_ptr<TriggerState> EcecRatioTrigger::NewState() const {
  return std::make_unique<EcecRatioState>();
}

Result<TriggerDecision> EcecRatioTrigger::Decide(const TriggerEvidence& ev,
                                                 TriggerState* state) const {
  if (reliability_.empty()) {
    return Status::FailedPrecondition("ECEC: not fitted");
  }
  auto* history = static_cast<EcecRatioState*>(state);
  history->preds.push_back(ev.predicted);
  history->rels.push_back(Reliability(ev.checkpoint, ev.predicted));
  const double confidence =
      FusedConfidence(history->preds, history->rels, history->preds.size() - 1);
  TriggerDecision decision;
  decision.confidence = confidence;
  if (confidence >= threshold_ || ev.is_last) decision.halt = true;
  return decision;
}

std::unique_ptr<Trigger> EcecRatioTrigger::CloneUnfitted() const {
  return std::make_unique<EcecRatioTrigger>(options_);
}

Status EcecRatioTrigger::SaveState(Serializer& out) const {
  if (reliability_.empty()) return Status::FailedPrecondition("ECEC: not fitted");
  out.Begin("ecec-ratio");
  out.SizeT(reliability_.size());
  for (const auto& per_label : reliability_) {
    out.SizeT(per_label.size());
    for (const auto& [label, r] : per_label) {  // std::map: sorted, stable
      out.I64(label);
      out.F64(r);
    }
  }
  out.F64(threshold_);
  out.End();
  return Status::OK();
}

Status EcecRatioTrigger::LoadState(Deserializer& in) {
  ETSC_RETURN_NOT_OK(in.Enter("ecec-ratio"));
  ETSC_ASSIGN_OR_RETURN(size_t num_reliability, in.SizeT());
  if (num_reliability == 0) {
    return Status::DataLoss("ECEC: empty reliability table");
  }
  reliability_.assign(num_reliability, {});
  for (auto& per_label : reliability_) {
    ETSC_ASSIGN_OR_RETURN(size_t entries, in.SizeT());
    for (size_t e = 0; e < entries; ++e) {
      ETSC_ASSIGN_OR_RETURN(int64_t label, in.I64());
      ETSC_ASSIGN_OR_RETURN(double r, in.F64());
      per_label[static_cast<int>(label)] = r;
    }
    if (per_label.size() != entries) {
      return Status::DataLoss("ECEC: duplicate reliability labels");
    }
  }
  ETSC_ASSIGN_OR_RETURN(threshold_, in.F64());
  return in.Leave();
}

}  // namespace etsc
