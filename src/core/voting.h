#ifndef ETSC_CORE_VOTING_H_
#define ETSC_CORE_VOTING_H_

#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"

namespace etsc {

/// How the per-variable votes combine into one prediction. The default is the
/// paper's scheme (Sec. 6.1); the others are the analysis it lists as future
/// work (Sec. 7).
enum class VotingScheme {
  /// Majority label; reported earliness is the worst voter's (paper default).
  kMajorityWorstEarliness,
  /// Majority label; earliness is the mean over voters (a vote can be tallied
  /// as each voter commits, so the expected consumption is the mean).
  kMajorityMeanEarliness,
  /// The single voter that committed earliest decides alone.
  kEarliestVoter,
  /// Weighted majority: each voter's vote counts 1/earliness, so voters that
  /// decided on less input (and were confident enough to do so) weigh more.
  kEarlinessWeighted,
};

std::string VotingSchemeName(VotingScheme scheme);

/// Applies a univariate ETSC algorithm to multivariate data the way the paper
/// does (Sec. 6.1): one classifier instance is trained per variable and at
/// test time each votes. Under the default scheme the most popular label wins
/// (ties resolved to the first/lowest label), and the reported earliness is
/// the *worst* (largest prefix) among the voters.
///
/// The train budget covers the whole Fit: each voter gets the time the
/// earlier voters left over, not a budget of its own.
class VotingEarlyClassifier : public EarlyClassifier {
 public:
  /// `prototype` supplies CloneUntrained() copies, one per variable.
  explicit VotingEarlyClassifier(
      std::unique_ptr<EarlyClassifier> prototype,
      VotingScheme scheme = VotingScheme::kMajorityWorstEarliness);

  Status Fit(const Dataset& train) override;
  Result<EarlyPrediction> PredictEarly(const TimeSeries& series) const override;
  /// `<proto>+vote` for the paper's scheme, `<proto>+<scheme name>` otherwise.
  std::string name() const override;
  bool SupportsMultivariate() const override { return true; }
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override;

  size_t num_voters() const { return voters_.size(); }

  /// `vote(<proto fp>)` for the paper's scheme,
  /// `vote[<scheme name>](<proto fp>)` otherwise.
  std::string config_fingerprint() const override;
  Status SaveState(Serializer& out) const override;
  Status LoadState(Deserializer& in) override;

 private:
  std::unique_ptr<EarlyClassifier> prototype_;
  VotingScheme scheme_;
  std::vector<std::unique_ptr<EarlyClassifier>> voters_;
};

/// Wraps `classifier` with voting when the dataset is multivariate and the
/// algorithm does not natively support it; otherwise returns it unchanged.
std::unique_ptr<EarlyClassifier> WrapForDataset(
    std::unique_ptr<EarlyClassifier> classifier, const Dataset& dataset);

}  // namespace etsc

#endif  // ETSC_CORE_VOTING_H_
