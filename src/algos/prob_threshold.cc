#include "algos/prob_threshold.h"

#include <algorithm>


namespace etsc {

namespace {

struct ProbTriggerState : TriggerState {
  size_t streak = 0;
  int last_label = 0;
};

}  // namespace

ProbTrigger::ProbTrigger(ProbTriggerOptions options) : options_(options) {
  ETSC_CHECK(options_.consecutive >= 1);
}

std::string ProbTrigger::config_fingerprint() const {
  return "prob(thr=" + FingerprintDouble(options_.threshold) +
         ",consec=" + std::to_string(options_.consecutive) + ")";
}

ComposedOptions ProbTrigger::DefaultComposedOptions() const {
  ComposedOptions options;
  options.num_checkpoints = 10;
  options.grid = CheckpointGrid::kFloorMinTwo;
  return options;
}

Status ProbTrigger::PlanCheckpoints(const Dataset& train, const FullClassifier*,
                                    const Deadline&, std::vector<size_t>*) {
  if (train.empty()) {
    return Status::InvalidArgument("prob-threshold: empty training set");
  }
  if (train.MinLength() < 2) {
    return Status::InvalidArgument("prob-threshold: series too short");
  }
  return Status::OK();
}

Status ProbTrigger::Fit(const TriggerFitContext&) {
  // Purely reactive: no calibration beyond the threshold itself.
  return Status::OK();
}

std::unique_ptr<TriggerState> ProbTrigger::NewState() const {
  return std::make_unique<ProbTriggerState>();
}

Result<TriggerDecision> ProbTrigger::Decide(const TriggerEvidence& ev,
                                            TriggerState* state) const {
  auto* streaks = static_cast<ProbTriggerState*>(state);
  const double best =
      *std::max_element(ev.posteriors->begin(), ev.posteriors->end());
  TriggerDecision decision;
  decision.confidence = best;
  if (ev.is_last) {
    decision.halt = true;
    return decision;
  }
  if (best >= options_.threshold) {
    if (streaks->streak > 0 && ev.predicted == streaks->last_label) {
      ++streaks->streak;
    } else {
      streaks->streak = 1;
      streaks->last_label = ev.predicted;
    }
    if (streaks->streak >= options_.consecutive) decision.halt = true;
  } else {
    streaks->streak = 0;
  }
  return decision;
}

std::unique_ptr<Trigger> ProbTrigger::CloneUnfitted() const {
  return std::make_unique<ProbTrigger>(options_);
}

Status ProbTrigger::SaveState(Serializer& out) const {
  out.Begin("prob");
  out.End();
  return Status::OK();
}

Status ProbTrigger::LoadState(Deserializer& in) {
  ETSC_RETURN_NOT_OK(in.Enter("prob"));
  return in.Leave();
}

}  // namespace etsc
