#include "core/voting.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace etsc {

namespace {

/// The label with the largest summed `weight`; std::map iteration order makes
/// ties deterministic (lowest label value wins, the paper's "first class
/// label").
template <typename WeightFn>
int MostVoted(const std::vector<EarlyPrediction>& votes, WeightFn weight) {
  std::map<int, double> tally;
  for (const EarlyPrediction& vote : votes) tally[vote.label] += weight(vote);
  return std::max_element(tally.begin(), tally.end(),
                          [](const auto& a, const auto& b) {
                            return a.second < b.second;
                          })
      ->first;
}

double OneVote(const EarlyPrediction&) { return 1.0; }

/// Voters that decided on less input weigh more.
double InverseEarliness(const EarlyPrediction& vote) {
  return 1.0 / std::max<double>(1.0, static_cast<double>(vote.prefix_length));
}

}  // namespace

std::string VotingSchemeName(VotingScheme scheme) {
  switch (scheme) {
    case VotingScheme::kMajorityWorstEarliness:
      return "majority-worst";
    case VotingScheme::kMajorityMeanEarliness:
      return "majority-mean";
    case VotingScheme::kEarliestVoter:
      return "earliest-voter";
    case VotingScheme::kEarlinessWeighted:
      return "earliness-weighted";
  }
  return "unknown";
}

VotingEarlyClassifier::VotingEarlyClassifier(
    std::unique_ptr<EarlyClassifier> prototype, VotingScheme scheme)
    : prototype_(std::move(prototype)), scheme_(scheme) {
  ETSC_CHECK(prototype_ != nullptr);
}

Status VotingEarlyClassifier::Fit(const Dataset& train) {
  if (train.empty()) {
    return Status::InvalidArgument("VotingEarlyClassifier: empty training set");
  }
  const Deadline deadline = TrainDeadline();
  const size_t num_vars = train.NumVariables();
  voters_.clear();
  voters_.reserve(num_vars);
  for (size_t v = 0; v < num_vars; ++v) {
    auto voter = prototype_->CloneUntrained();
    voter->set_train_budget_seconds(deadline.Remaining());
    voter->set_predict_budget_seconds(predict_budget_seconds_);
    ETSC_RETURN_NOT_OK(voter->Fit(train.SingleVariable(v)));
    voters_.push_back(std::move(voter));
  }
  return Status::OK();
}

Result<EarlyPrediction> VotingEarlyClassifier::PredictEarly(
    const TimeSeries& series) const {
  if (voters_.empty()) {
    return Status::FailedPrecondition("VotingEarlyClassifier: not fitted");
  }
  if (series.num_variables() != voters_.size()) {
    return Status::InvalidArgument(
        "VotingEarlyClassifier: variable count differs from training data");
  }
  std::vector<EarlyPrediction> votes;
  votes.reserve(voters_.size());
  size_t worst_prefix = 0;
  for (size_t v = 0; v < voters_.size(); ++v) {
    ETSC_ASSIGN_OR_RETURN(EarlyPrediction pred,
                          voters_[v]->PredictEarly(series.SingleVariable(v)));
    worst_prefix = std::max(worst_prefix, pred.prefix_length);
    votes.push_back(pred);
  }
  switch (scheme_) {
    case VotingScheme::kMajorityWorstEarliness:
      return EarlyPrediction{MostVoted(votes, OneVote), worst_prefix};
    case VotingScheme::kMajorityMeanEarliness: {
      double mean = 0.0;
      for (const EarlyPrediction& vote : votes) {
        mean += static_cast<double>(vote.prefix_length);
      }
      mean /= static_cast<double>(votes.size());
      const auto prefix = static_cast<size_t>(std::llround(mean));
      return EarlyPrediction{MostVoted(votes, OneVote),
                             std::max<size_t>(prefix, 1)};
    }
    case VotingScheme::kEarliestVoter:
      return *std::min_element(
          votes.begin(), votes.end(),
          [](const EarlyPrediction& a, const EarlyPrediction& b) {
            return a.prefix_length < b.prefix_length;
          });
    case VotingScheme::kEarlinessWeighted:
      return EarlyPrediction{MostVoted(votes, InverseEarliness), worst_prefix};
  }
  return Status::Internal("VotingEarlyClassifier: unknown scheme");
}

std::string VotingEarlyClassifier::name() const {
  if (scheme_ == VotingScheme::kMajorityWorstEarliness) {
    return prototype_->name() + "+vote";
  }
  return prototype_->name() + "+" + VotingSchemeName(scheme_);
}

std::unique_ptr<EarlyClassifier> VotingEarlyClassifier::CloneUntrained() const {
  return std::make_unique<VotingEarlyClassifier>(prototype_->CloneUntrained(),
                                                 scheme_);
}

std::unique_ptr<EarlyClassifier> WrapForDataset(
    std::unique_ptr<EarlyClassifier> classifier, const Dataset& dataset) {
  if (dataset.NumVariables() > 1 && !classifier->SupportsMultivariate()) {
    return std::make_unique<VotingEarlyClassifier>(std::move(classifier));
  }
  return classifier;
}

std::string VotingEarlyClassifier::config_fingerprint() const {
  if (scheme_ == VotingScheme::kMajorityWorstEarliness) {
    return "vote(" + prototype_->config_fingerprint() + ")";
  }
  return "vote[" + VotingSchemeName(scheme_) + "](" +
         prototype_->config_fingerprint() + ")";
}

Status VotingEarlyClassifier::SaveState(Serializer& out) const {
  if (voters_.empty()) {
    return Status::FailedPrecondition(name() + ": not fitted");
  }
  out.Begin("vote");
  out.SizeT(voters_.size());
  for (const auto& voter : voters_) {
    ETSC_RETURN_NOT_OK(voter->SaveState(out));
  }
  out.End();
  return Status::OK();
}

Status VotingEarlyClassifier::LoadState(Deserializer& in) {
  ETSC_RETURN_NOT_OK(in.Enter("vote"));
  ETSC_ASSIGN_OR_RETURN(size_t num_voters, in.SizeT());
  if (num_voters == 0) return Status::DataLoss(name() + ": no voters");
  voters_.clear();
  for (size_t v = 0; v < num_voters; ++v) {
    voters_.push_back(prototype_->CloneUntrained());
    ETSC_RETURN_NOT_OK(voters_.back()->LoadState(in));
  }
  return in.Leave();
}

}  // namespace etsc
