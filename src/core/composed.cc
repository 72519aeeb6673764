#include "core/composed.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace etsc {

std::vector<size_t> BuildCheckpointGrid(CheckpointGrid grid, size_t length,
                                        size_t num_checkpoints) {
  std::vector<size_t> checkpoints;
  if (length == 0) return checkpoints;
  switch (grid) {
    case CheckpointGrid::kEveryPoint:
      checkpoints.reserve(length);
      for (size_t l = 1; l <= length; ++l) checkpoints.push_back(l);
      return checkpoints;
    case CheckpointGrid::kTriggerPlanned:
      // The trigger's PlanCheckpoints fills the grid in.
      return checkpoints;
    case CheckpointGrid::kFloorMinTwo: {
      const size_t num = std::max<size_t>(1, std::min(num_checkpoints, length));
      for (size_t i = 1; i <= num; ++i) {
        const size_t len = std::max<size_t>(2, i * length / num);
        if (checkpoints.empty() || checkpoints.back() != len) {
          checkpoints.push_back(len);
        }
      }
      break;
    }
    case CheckpointGrid::kCeilMinTwo: {
      const size_t num = std::max<size_t>(1, std::min(num_checkpoints, length));
      for (size_t i = 1; i <= num; ++i) {
        const size_t len = std::max<size_t>(2, (i * length + num - 1) / num);
        if (checkpoints.empty() || checkpoints.back() != len) {
          checkpoints.push_back(len);
        }
      }
      break;
    }
    case CheckpointGrid::kFloorMinOne: {
      const size_t count = std::max<size_t>(1, std::min(num_checkpoints, length));
      for (size_t i = 1; i <= count; ++i) {
        const size_t len = std::max<size_t>(1, i * length / count);
        if (checkpoints.empty() || checkpoints.back() != len) {
          checkpoints.push_back(len);
        }
      }
      break;
    }
  }
  if (checkpoints.back() != length) checkpoints.push_back(length);
  return checkpoints;
}

ComposedEarlyClassifier::ComposedEarlyClassifier(
    std::string name, std::unique_ptr<FullClassifier> base,
    std::unique_ptr<Trigger> trigger, ComposedOptions options)
    : name_(std::move(name)),
      base_(std::move(base)),
      trigger_(std::move(trigger)),
      options_(options) {
  ETSC_CHECK(trigger_ != nullptr);
}

Status ComposedEarlyClassifier::Fit(const Dataset& train) {
  fitted_ = false;
  bank_.clear();
  const Deadline deadline = TrainDeadline();

  // TEASER-style optional preprocessing: the bank, the trigger and predict
  // time all see the normalised series.
  std::optional<Dataset> normalized;
  const Dataset* prepared = &train;
  if (options_.z_normalize) {
    normalized.emplace(train);
    for (size_t i = 0; i < normalized->size(); ++i) {
      normalized->instance(i).ZNormalize();
    }
    prepared = &*normalized;
  }

  length_ = prepared->size() == 0 ? 0 : prepared->MinLength();
  checkpoints_ = BuildCheckpointGrid(options_.grid, length_,
                                     options_.num_checkpoints);
  // The trigger validates the training set (with its own published error
  // conditions) and may replace the grid (STRUT's truncation-point search).
  ETSC_RETURN_NOT_OK(trigger_->PlanCheckpoints(*prepared, base_.get(), deadline,
                                               &checkpoints_));
  if (checkpoints_.empty()) {
    return Status::InvalidArgument(name_ + ": empty checkpoint grid");
  }

  if (!trigger_->self_contained()) {
    if (base_ == nullptr) {
      return Status::InvalidArgument(
          name_ + ": trigger '" + trigger_->name() +
          "' requires a base classifier but none was supplied");
    }
    bank_.reserve(checkpoints_.size());
    for (size_t len : checkpoints_) {
      ETSC_RETURN_NOT_OK(deadline.Check(name_ + ": train budget exceeded"));
      std::unique_ptr<FullClassifier> model = base_->CloneUntrained();
      ETSC_RETURN_NOT_OK(model->Fit(prepared->Truncated(len)));
      bank_.push_back(std::move(model));
    }
  }

  TriggerFitContext ctx;
  ctx.train = prepared;
  ctx.checkpoints = &checkpoints_;
  ctx.bank = trigger_->self_contained() ? nullptr : &bank_;
  ctx.base = base_.get();
  ctx.deadline = &deadline;
  ETSC_RETURN_NOT_OK(trigger_->Fit(ctx));

  fitted_ = true;
  return Status::OK();
}

Result<EarlyPrediction> ComposedEarlyClassifier::PredictEarly(
    const TimeSeries& series) const {
  if (!fitted_) return Status::FailedPrecondition(name_ + ": not fitted");
  const Deadline deadline = PredictDeadline();

  std::optional<TimeSeries> normalized;
  const TimeSeries* prepared = &series;
  if (options_.z_normalize) {
    normalized.emplace(series);
    normalized->ZNormalize();
    prepared = &*normalized;
  }

  const bool self = trigger_->self_contained();
  std::unique_ptr<TriggerState> state = trigger_->NewState();
  for (size_t p = 0; p < checkpoints_.size(); ++p) {
    if (!self) {
      // Self-contained triggers poll the deadline themselves (at a stride
      // tuned to their per-point cost); the bank walk checks per checkpoint.
      ETSC_RETURN_NOT_OK(deadline.Check(name_ + ": predict budget exceeded"));
    }
    const size_t len = checkpoints_[p];
    const bool is_last = p + 1 == checkpoints_.size() ||
                         checkpoints_[p + 1] > prepared->length();
    if (len > prepared->length()) break;

    TriggerEvidence ev;
    ev.checkpoint = p;
    ev.prefix_length = len;
    ev.is_last = is_last;
    ev.train_length = length_;
    ev.series = prepared;
    ev.deadline = &deadline;
    std::vector<double> proba;
    if (!self) {
      if (trigger_->needs_posteriors()) {
        ETSC_ASSIGN_OR_RETURN(proba,
                              bank_[p]->PredictProba(prepared->Prefix(len)));
        const std::vector<int>& labels = bank_[p]->class_labels();
        const size_t best = static_cast<size_t>(
            std::max_element(proba.begin(), proba.end()) - proba.begin());
        ev.predicted = labels[best];
        ev.posteriors = &proba;
        ev.class_labels = &labels;
      } else {
        ETSC_ASSIGN_OR_RETURN(ev.predicted,
                              bank_[p]->Predict(prepared->Prefix(len)));
      }
    }
    ETSC_ASSIGN_OR_RETURN(TriggerDecision decision,
                          trigger_->Decide(ev, state.get()));
    if (decision.halt) {
      EarlyPrediction out;
      out.label = decision.label ? *decision.label : ev.predicted;
      out.prefix_length = len;
      out.confidence = decision.confidence;
      return out;
    }
  }

  // No checkpoint halted: either the series is shorter than the first
  // checkpoint, or a self-contained trigger ran out of grid. The trigger's
  // Finalize gets the first say; the default is the earliest bank model on
  // everything we have.
  ETSC_ASSIGN_OR_RETURN(std::optional<EarlyPrediction> fallback,
                        trigger_->Finalize(*prepared, state.get()));
  if (fallback.has_value()) return *fallback;
  if (bank_.empty()) {
    return Status::Internal(name_ + ": no fallback model available");
  }
  ETSC_ASSIGN_OR_RETURN(int label, bank_[0]->Predict(*prepared));
  EarlyPrediction out;
  out.label = label;
  out.prefix_length = prepared->length();
  return out;
}

bool ComposedEarlyClassifier::SupportsMultivariate() const {
  return (base_ == nullptr || base_->SupportsMultivariate()) &&
         trigger_->SupportsMultivariate();
}

std::unique_ptr<EarlyClassifier> ComposedEarlyClassifier::CloneUntrained() const {
  return std::make_unique<ComposedEarlyClassifier>(
      name_, base_ ? base_->CloneUntrained() : nullptr,
      trigger_->CloneUnfitted(), options_);
}

std::string ComposedEarlyClassifier::config_fingerprint() const {
  return "Composed(base=" +
         (base_ ? base_->config_fingerprint() : std::string("none")) +
         ",trigger=" + trigger_->config_fingerprint() +
         ",grid=" + std::to_string(static_cast<int>(options_.grid)) +
         ",n=" + std::to_string(options_.num_checkpoints) +
         ",z=" + (options_.z_normalize ? "1" : "0") + ")";
}

Status ComposedEarlyClassifier::SaveState(Serializer& out) const {
  if (!fitted_) return Status::FailedPrecondition(name_ + ": not fitted");
  out.Begin("composed");
  out.SizeT(length_);
  out.SizeVec(checkpoints_);
  out.SizeT(bank_.size());
  for (const auto& model : bank_) {
    ETSC_RETURN_NOT_OK(model->SaveState(out));
  }
  out.Str(trigger_->name());
  ETSC_RETURN_NOT_OK(trigger_->SaveState(out));
  out.End();
  return Status::OK();
}

Status ComposedEarlyClassifier::LoadState(Deserializer& in) {
  fitted_ = false;
  bank_.clear();
  ETSC_RETURN_NOT_OK(in.Enter("composed"));
  ETSC_ASSIGN_OR_RETURN(length_, in.SizeT());
  ETSC_ASSIGN_OR_RETURN(checkpoints_, in.SizeVec());
  if (checkpoints_.empty()) {
    return Status::DataLoss(name_ + ": empty checkpoint grid in stream");
  }
  ETSC_ASSIGN_OR_RETURN(size_t num_models, in.SizeT());
  if (trigger_->self_contained()) {
    if (num_models != 0) {
      return Status::DataLoss(name_ + ": unexpected bank for self-contained trigger");
    }
  } else {
    if (num_models != checkpoints_.size() || num_models == 0) {
      return Status::DataLoss(name_ + ": model/checkpoint count mismatch");
    }
    if (base_ == nullptr) {
      return Status::InvalidArgument(name_ + ": no base classifier to load into");
    }
    bank_.reserve(num_models);
    for (size_t i = 0; i < num_models; ++i) {
      std::unique_ptr<FullClassifier> model = base_->CloneUntrained();
      ETSC_RETURN_NOT_OK(model->LoadState(in));
      bank_.push_back(std::move(model));
    }
  }
  ETSC_ASSIGN_OR_RETURN(std::string trigger_name, in.Str());
  if (trigger_name != trigger_->name()) {
    return Status::DataLoss(name_ + ": stream was saved with trigger '" +
                            trigger_name + "', instance uses '" +
                            trigger_->name() + "'");
  }
  ETSC_RETURN_NOT_OK(trigger_->LoadState(in));
  ETSC_RETURN_NOT_OK(in.Leave());
  fitted_ = true;
  return Status::OK();
}

Result<std::unique_ptr<EarlyClassifier>> MakeComposedFromSpec(
    const std::string& spec) {
  return MakeComposedFromSpec(spec, spec);
}

Result<std::unique_ptr<EarlyClassifier>> MakeComposedFromSpec(
    const std::string& spec, std::string name) {
  const size_t plus = spec.find('+');
  if (plus == std::string::npos || plus == 0 || plus + 1 >= spec.size()) {
    return Status::InvalidArgument(
        "composed spec '" + spec +
        "' is not of the form '<classifier>+<trigger>' (e.g. 'weasel+prob')");
  }
  const std::string base_name = spec.substr(0, plus);
  const std::string trigger_name = spec.substr(plus + 1);
  ETSC_ASSIGN_OR_RETURN(std::unique_ptr<Trigger> trigger,
                        TriggerRegistry::Global().Create(trigger_name));
  ETSC_ASSIGN_OR_RETURN(std::unique_ptr<FullClassifier> base,
                        BaseClassifierRegistry::Global().Create(base_name));
  const ComposedOptions options = trigger->DefaultComposedOptions();
  return std::unique_ptr<EarlyClassifier>(
      std::make_unique<ComposedEarlyClassifier>(
          std::move(name), std::move(base), std::move(trigger), options));
}

template <>
Result<std::unique_ptr<EarlyClassifier>> ClassifierRegistry::Create(
    const std::string& name) const {
  if (IsComposedSpec(name)) return MakeComposedFromSpec(name);
  return Lookup(name);
}

}  // namespace etsc
