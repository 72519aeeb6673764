#include "algos/strut.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/metrics.h"
#include "core/parallel.h"
#include "core/rng.h"

namespace etsc {

StrutTrigger::StrutTrigger(StrutOptions options) : options_(std::move(options)) {}

std::string StrutTrigger::config_fingerprint() const {
  const auto& o = options_;
  std::string fractions;
  for (double f : o.fractions) fractions += FingerprintDouble(f) + "/";
  return "strut-search(metric=" + std::to_string(static_cast<int>(o.metric)) +
         ",search=" + std::to_string(static_cast<int>(o.search)) +
         ",frac=" + fractions +
         ",val=" + FingerprintDouble(o.validation_fraction) +
         ",tol=" + FingerprintDouble(o.tolerance) +
         ",seed=" + std::to_string(o.seed) + ")";
}

ComposedOptions StrutTrigger::DefaultComposedOptions() const {
  ComposedOptions options;
  options.grid = CheckpointGrid::kTriggerPlanned;
  return options;
}

Result<double> StrutTrigger::ScoreAt(const FullClassifier& base,
                                     const Dataset& fit,
                                     const Dataset& validation, size_t t,
                                     size_t full_length) const {
  std::unique_ptr<FullClassifier> model = base.CloneUntrained();
  ETSC_RETURN_NOT_OK(model->Fit(fit.Truncated(t)));
  std::vector<int> truth, predicted;
  for (size_t i = 0; i < validation.size(); ++i) {
    ETSC_ASSIGN_OR_RETURN(int label, model->Predict(validation.instance(i).Prefix(t)));
    truth.push_back(validation.label(i));
    predicted.push_back(label);
  }
  const ConfusionMatrix cm(truth, predicted);
  const double earliness =
      static_cast<double>(t) / static_cast<double>(full_length);
  switch (options_.metric) {
    case StrutMetric::kAccuracy:
      return cm.Accuracy();
    case StrutMetric::kF1:
      return cm.MacroF1();
    case StrutMetric::kHarmonicMean:
      return HarmonicMean(cm.Accuracy(), earliness);
  }
  return Status::Internal("STRUT: unknown metric");
}

Status StrutTrigger::PlanCheckpoints(const Dataset& train,
                                     const FullClassifier* base,
                                     const Deadline& deadline,
                                     std::vector<size_t>* checkpoints) {
  if (base == nullptr) {
    return Status::InvalidArgument("STRUT: a base classifier is required");
  }
  if (train.size() < 4) {
    return Status::InvalidArgument("STRUT: too few training series");
  }
  const size_t length = train.MinLength();
  if (length < 2) return Status::InvalidArgument("STRUT: series too short");

  Rng rng(options_.seed);
  const SplitIndices split =
      StratifiedSplit(train, 1.0 - options_.validation_fraction, &rng);
  Dataset fit = train.Subset(split.train);
  Dataset validation = train.Subset(split.test);
  if (fit.empty() || validation.empty()) {
    return Status::InvalidArgument("STRUT: degenerate fit/validation split");
  }

  // Candidate truncation lengths from the fraction grid.
  std::set<size_t> candidate_set;
  for (double f : options_.fractions) {
    const size_t t = std::clamp<size_t>(
        static_cast<size_t>(std::round(f * static_cast<double>(length))), 2,
        length);
    candidate_set.insert(t);
  }
  std::vector<size_t> candidates(candidate_set.begin(), candidate_set.end());

  // The candidates' fits are independent: score them on the pool, longest
  // first (the full-length fit is about a third of the grid), each into its
  // own slot. The pick below walks the slots in ascending order with a
  // strict >, so ties resolve to the shortest length at any pool width.
  const size_t n = candidates.size();
  std::vector<double> scores(n, -1.0);
  std::vector<Status> failures(n);
  ETSC_RETURN_NOT_OK(ParallelForStatus(n, [&](size_t i) -> Status {
    const size_t c = n - 1 - i;
    ETSC_RETURN_NOT_OK(deadline.Check("STRUT: train budget exceeded"));
    auto score = ScoreAt(*base, fit, validation, candidates[c], length);
    // A length may be unusable for the base model; its slot stays at -1.
    if (score.ok()) {
      scores[c] = *score;
    } else {
      failures[c] = score.status();
    }
    return Status::OK();
  }));
  double best_score = -1.0;
  size_t best_t = length;
  for (size_t c = 0; c < n; ++c) {
    if (scores[c] > best_score) {
      best_score = scores[c];
      best_t = candidates[c];
    }
  }
  if (best_score < 0.0) {
    std::string why;
    for (const Status& failure : failures) {
      if (!failure.ok()) {
        why = " (shortest candidate: " + failure.ToString() + ")";
        break;
      }
    }
    return Status::Internal("STRUT: no truncation point could be scored" + why);
  }

  if (options_.search == StrutSearch::kBinary) {
    // Refine: binary-search the earliest t in (prev_candidate, best_t] whose
    // score stays within `tolerance` of the best grid score.
    size_t lo = 2;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (candidates[c] == best_t && c > 0) lo = candidates[c - 1] + 1;
    }
    size_t hi = best_t;
    while (lo < hi) {
      ETSC_RETURN_NOT_OK(deadline.Check("STRUT: train budget exceeded"));
      const size_t mid = lo + (hi - lo) / 2;
      auto score = ScoreAt(*base, fit, validation, mid, length);
      if (score.ok() && *score >= best_score - options_.tolerance) {
        hi = mid;
        if (*score > best_score) best_score = *score;
      } else {
        lo = mid + 1;
      }
    }
    best_t = hi;
  }

  truncation_point_ = best_t;
  // The single checkpoint: the composed pipeline fits one bank model on
  // Truncated(t*) — the legacy implementation's final refit.
  checkpoints->assign(1, best_t);
  return Status::OK();
}

Status StrutTrigger::Fit(const TriggerFitContext&) {
  // All the work happened in PlanCheckpoints.
  if (truncation_point_ == 0) {
    return Status::Internal("STRUT: PlanCheckpoints did not run");
  }
  return Status::OK();
}

Result<TriggerDecision> StrutTrigger::Decide(const TriggerEvidence&,
                                             TriggerState*) const {
  // Fixed-ratio rule: the only checkpoint is the chosen truncation point.
  TriggerDecision decision;
  decision.halt = true;
  return decision;
}

std::unique_ptr<Trigger> StrutTrigger::CloneUnfitted() const {
  return std::make_unique<StrutTrigger>(options_);
}

Status StrutTrigger::SaveState(Serializer& out) const {
  out.Begin("strut-search");
  out.SizeT(truncation_point_);
  out.End();
  return Status::OK();
}

Status StrutTrigger::LoadState(Deserializer& in) {
  ETSC_RETURN_NOT_OK(in.Enter("strut-search"));
  ETSC_ASSIGN_OR_RETURN(truncation_point_, in.SizeT());
  if (truncation_point_ == 0) {
    return Status::DataLoss("STRUT: zero truncation point");
  }
  return in.Leave();
}

}  // namespace etsc
