#include "algos/teaser.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/metrics.h"
#include "core/rng.h"

namespace etsc {

namespace {

// Accepted-prediction streak the v-consecutive rule folds over.
struct TeaserGateState : TriggerState {
  int last_label = 0;
  size_t streak = 0;
};

}  // namespace

std::vector<double> TeaserGateTrigger::OcsvmFeatures(
    const std::vector<double>& proba) {
  std::vector<double> features = proba;
  double top1 = -1.0, top2 = -1.0;
  for (double p : proba) {
    if (p > top1) {
      top2 = top1;
      top1 = p;
    } else if (p > top2) {
      top2 = p;
    }
  }
  features.push_back(top2 < 0.0 ? top1 : top1 - top2);
  return features;
}

std::string TeaserGateTrigger::config_fingerprint() const {
  const auto& o = options_;
  return "teaser-gate(v<=" + std::to_string(o.max_consecutive) +
         ",cv=" + std::to_string(o.cv_folds) +
         ",nu=" + FingerprintDouble(o.ocsvm.nu) +
         ",gamma=" + FingerprintDouble(o.ocsvm.gamma) +
         ",seed=" + std::to_string(o.seed) + ")";
}

ComposedOptions TeaserGateTrigger::DefaultComposedOptions() const {
  ComposedOptions options;
  options.num_checkpoints = 20;
  options.grid = CheckpointGrid::kFloorMinTwo;
  return options;
}

Status TeaserGateTrigger::PlanCheckpoints(const Dataset& train,
                                          const FullClassifier*,
                                          const Deadline&,
                                          std::vector<size_t>*) {
  if (train.empty()) return Status::InvalidArgument("TEASER: empty training set");
  if (train.NumVariables() != 1) {
    return Status::InvalidArgument("TEASER: univariate input required");
  }
  if (train.MinLength() < 2) {
    return Status::InvalidArgument("TEASER: series too short");
  }
  return Status::OK();
}

Status TeaserGateTrigger::Fit(const TriggerFitContext& ctx) {
  const Dataset& prepared = *ctx.train;
  const std::vector<size_t>& prefix_lengths = *ctx.checkpoints;
  const Deadline& deadline = *ctx.deadline;
  const size_t length = prepared.MinLength();
  const size_t P = prefix_lengths.size();
  const size_t n = prepared.size();

  Rng rng(options_.seed);

  filters_.clear();
  filter_ok_.assign(P, false);
  filters_.reserve(P);

  // train_accept[p][i] / train_pred[p][i]: the OC-SVM verdict and pipeline
  // prediction of prefix p on training instance i (used for the v search).
  std::vector<std::vector<int>> train_pred(P, std::vector<int>(n, 0));
  std::vector<std::vector<bool>> train_accept(P, std::vector<bool>(n, false));

  // Out-of-sample probability vectors per (prefix, instance) for the OC-SVM
  // and the v search; falls back to cheap in-sample (bank) predictions when
  // cv_folds == 0 or the training set is too small to fold.
  std::vector<std::vector<std::vector<double>>> oos_proba(
      P, std::vector<std::vector<double>>(n));
  const size_t folds =
      n >= 2 * std::max<size_t>(options_.cv_folds, 2) ? options_.cv_folds : 0;
  if (folds >= 2) {
    const auto splits = StratifiedKFold(prepared, folds, &rng);
    for (const auto& split : splits) {
      Dataset fold_train = prepared.Subset(split.train);
      for (size_t p = 0; p < P; ++p) {
        ETSC_RETURN_NOT_OK(deadline.Check("TEASER: train budget exceeded"));
        std::unique_ptr<FullClassifier> model = ctx.base->CloneUntrained();
        ETSC_RETURN_NOT_OK(model->Fit(fold_train.Truncated(prefix_lengths[p])));
        for (size_t test_idx : split.test) {
          auto proba = model->PredictProba(
              prepared.instance(test_idx).Prefix(prefix_lengths[p]));
          if (!proba.ok()) return proba.status();
          // Align fold-local class order with the global one.
          std::vector<double> aligned(prepared.NumClasses(), 0.0);
          const auto global_labels = prepared.ClassLabels();
          const auto& local_labels = model->class_labels();
          for (size_t k = 0; k < local_labels.size(); ++k) {
            for (size_t g = 0; g < global_labels.size(); ++g) {
              if (global_labels[g] == local_labels[k]) aligned[g] = (*proba)[k];
            }
          }
          oos_proba[p][test_idx] = std::move(aligned);
        }
      }
    }
  }

  const auto global_labels = prepared.ClassLabels();
  for (size_t p = 0; p < P; ++p) {
    ETSC_RETURN_NOT_OK(deadline.Check("TEASER: train budget exceeded"));
    const FullClassifier& model = *(*ctx.bank)[p];

    // Collect feature vectors of correctly classified training instances.
    std::vector<std::vector<double>> correct_features;
    std::vector<std::vector<double>> all_features(n);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> proba_values;
      int predicted_label;
      if (folds >= 2) {
        proba_values = oos_proba[p][i];
        const size_t best = static_cast<size_t>(
            std::max_element(proba_values.begin(), proba_values.end()) -
            proba_values.begin());
        predicted_label = global_labels[best];
      } else {
        auto proba =
            model.PredictProba(prepared.instance(i).Prefix(prefix_lengths[p]));
        if (!proba.ok()) return proba.status();
        proba_values = std::move(*proba);
        const auto& labels = model.class_labels();
        const size_t best = static_cast<size_t>(
            std::max_element(proba_values.begin(), proba_values.end()) -
            proba_values.begin());
        predicted_label = labels[best];
      }
      train_pred[p][i] = predicted_label;
      all_features[i] = OcsvmFeatures(proba_values);
      if (predicted_label == prepared.label(i)) {
        correct_features.push_back(all_features[i]);
      }
    }

    OneClassSvm filter(options_.ocsvm);
    if (correct_features.size() >= 2) {
      Status status = filter.Fit(correct_features, &rng);
      filter_ok_[p] = status.ok();
    }
    for (size_t i = 0; i < n; ++i) {
      if (filter_ok_[p]) {
        auto accepted = filter.Accepts(all_features[i]);
        train_accept[p][i] = accepted.ok() && *accepted;
      } else {
        train_accept[p][i] = true;  // no filter -> pass everything through
      }
    }
    filters_.push_back(std::move(filter));
  }

  // Grid-search v in {1..max_consecutive} by harmonic mean on training data.
  double best_hm = -1.0;
  size_t best_v = 1;
  for (size_t v = 1; v <= options_.max_consecutive; ++v) {
    size_t correct = 0;
    double earliness_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      int last_label = 0;
      size_t streak = 0;
      size_t stop = P - 1;
      int label = train_pred[P - 1][i];
      for (size_t p = 0; p < P; ++p) {
        if (train_accept[p][i]) {
          if (streak > 0 && train_pred[p][i] == last_label) {
            ++streak;
          } else {
            streak = 1;
            last_label = train_pred[p][i];
          }
          if (streak >= v) {
            stop = p;
            label = train_pred[p][i];
            break;
          }
        } else {
          streak = 0;
        }
      }
      if (label == prepared.label(i)) ++correct;
      earliness_sum += static_cast<double>(prefix_lengths[stop]) /
                       static_cast<double>(length);
    }
    const double accuracy = static_cast<double>(correct) / static_cast<double>(n);
    const double earliness = earliness_sum / static_cast<double>(n);
    const double hm = HarmonicMean(accuracy, earliness);
    if (hm > best_hm) {
      best_hm = hm;
      best_v = v;
    }
  }
  v_ = best_v;
  return Status::OK();
}

std::unique_ptr<TriggerState> TeaserGateTrigger::NewState() const {
  return std::make_unique<TeaserGateState>();
}

Result<TriggerDecision> TeaserGateTrigger::Decide(const TriggerEvidence& ev,
                                                  TriggerState* state) const {
  if (filter_ok_.empty()) return Status::FailedPrecondition("TEASER: not fitted");
  auto* gate = static_cast<TeaserGateState*>(state);
  const double best =
      *std::max_element(ev.posteriors->begin(), ev.posteriors->end());
  TriggerDecision decision;
  decision.confidence = best;
  if (ev.is_last) {
    // Final prefix: emit without the two-tier checks (paper Sec. 3.6).
    decision.halt = true;
    return decision;
  }

  bool accepted = true;
  if (filter_ok_[ev.checkpoint]) {
    auto verdict = filters_[ev.checkpoint].Accepts(OcsvmFeatures(*ev.posteriors));
    accepted = verdict.ok() && *verdict;
  }
  if (accepted) {
    if (gate->streak > 0 && ev.predicted == gate->last_label) {
      ++gate->streak;
    } else {
      gate->streak = 1;
      gate->last_label = ev.predicted;
    }
    if (gate->streak >= v_) decision.halt = true;
  } else {
    gate->streak = 0;
  }
  return decision;
}

std::unique_ptr<Trigger> TeaserGateTrigger::CloneUnfitted() const {
  return std::make_unique<TeaserGateTrigger>(options_);
}

Status TeaserGateTrigger::SaveState(Serializer& out) const {
  if (filter_ok_.empty()) return Status::FailedPrecondition("TEASER: not fitted");
  out.Begin("teaser-gate");
  out.SizeT(v_);
  out.BoolVec(filter_ok_);
  for (size_t p = 0; p < filters_.size(); ++p) {
    if (filter_ok_[p]) filters_[p].SaveState(out);
  }
  out.End();
  return Status::OK();
}

Status TeaserGateTrigger::LoadState(Deserializer& in) {
  ETSC_RETURN_NOT_OK(in.Enter("teaser-gate"));
  ETSC_ASSIGN_OR_RETURN(v_, in.SizeT());
  ETSC_ASSIGN_OR_RETURN(filter_ok_, in.BoolVec());
  if (filter_ok_.empty()) {
    return Status::DataLoss("TEASER: empty filter flag vector");
  }
  filters_.assign(filter_ok_.size(), OneClassSvm(options_.ocsvm));
  for (size_t p = 0; p < filters_.size(); ++p) {
    if (filter_ok_[p]) {
      ETSC_RETURN_NOT_OK(filters_[p].LoadState(in));
    }
  }
  return in.Leave();
}

}  // namespace etsc
