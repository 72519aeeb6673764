// Frozen per-fold scores of the four voting schemes (paper Sec. 6.1 and the
// Sec. 7 alternatives) with ECTS on a multivariate toy dataset, plus the
// default wrapper's name and configuration fingerprint: model-cache keys,
// saved models and campaign journals all depend on those strings.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "core/evaluation.h"
#include "core/voting.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

constexpr VotingScheme kSchemes[] = {
    VotingScheme::kMajorityWorstEarliness, VotingScheme::kMajorityMeanEarliness,
    VotingScheme::kEarliestVoter, VotingScheme::kEarlinessWeighted};

/// The wrapper under test, voting `ects` over every variable.
std::unique_ptr<EarlyClassifier> MakeVoting(VotingScheme scheme) {
  return std::make_unique<VotingEarlyClassifier>(
      testing::CreateComposed("ects"), scheme);
}

/// The paper's wrapper as the campaign builds it (WrapForDataset).
std::unique_ptr<EarlyClassifier> MakePaperVoting() {
  return std::make_unique<VotingEarlyClassifier>(
      testing::CreateComposed("ects"));
}

Dataset FreezeData() {
  return testing::MakeToyMultivariate(12, 32, 3, /*seed=*/7, /*noise=*/0.8);
}

EvaluationResult Evaluate(const EarlyClassifier& prototype) {
  EvaluationOptions options;
  options.num_folds = 2;
  return CrossValidate(FreezeData(), prototype, options);
}

struct FrozenScheme {
  VotingScheme scheme;
  const char* name;      // name() of the wrapper over `ects`
  EvalScores folds[2];   // {accuracy, f1, earliness, harmonic_mean} per fold
};

// Recorded (%.17g) while the paper's scheme and the three alternatives were
// still two classes.
constexpr FrozenScheme kFrozen[] = {
    {VotingScheme::kMajorityWorstEarliness,
     nullptr,
     {{0.77777777777777779, 0.77575757575757576, 0.86805555555555558,
       0.2256149279050042},
      {1, 1, 0.86979166666666663, 0.23041474654377883}}},
    {VotingScheme::kMajorityMeanEarliness,
     "ECTS+majority-mean",
     {{0.77777777777777779, 0.77575757575757576, 0.77083333333333337,
       0.35402298850574709},
      {1, 1, 0.64583333333333337, 0.52307692307692311}}},
    {VotingScheme::kEarliestVoter,
     "ECTS+earliest-voter",
     {{0.72222222222222221, 0.72294372294372289, 0.66319444444444442,
       0.45938069216757749},
      {0.94444444444444442, 0.94405594405594417, 0.40972222222222221,
       0.72649572649572647}}},
    {VotingScheme::kEarlinessWeighted,
     "ECTS+earliness-weighted",
     {{0.72222222222222221, 0.72294372294372289, 0.86805555555555558,
       0.2231255645889792},
      {0.94444444444444442, 0.94405594405594417, 0.86979166666666663,
       0.22886375875067319}}},
};

void ExpectScores(const EvaluationResult& result, const EvalScores (&want)[2],
                  const std::string& what) {
  ASSERT_EQ(result.folds.size(), 2u) << what;
  for (size_t f = 0; f < 2; ++f) {
    ASSERT_TRUE(result.folds[f].trained) << what << " fold " << f;
    const EvalScores& got = result.folds[f].scores;
    EXPECT_EQ(got.accuracy, want[f].accuracy) << what << " fold " << f;
    EXPECT_EQ(got.f1, want[f].f1) << what << " fold " << f;
    EXPECT_EQ(got.earliness, want[f].earliness) << what << " fold " << f;
    EXPECT_EQ(got.harmonic_mean, want[f].harmonic_mean)
        << what << " fold " << f;
  }
}

TEST(VotingFreeze, EverySchemeReproducesFrozenScores) {
  for (const FrozenScheme& frozen : kFrozen) {
    const std::string what = VotingSchemeName(frozen.scheme);
    auto model = MakeVoting(frozen.scheme);
    ExpectScores(Evaluate(*model), frozen.folds, what);
    if (frozen.name != nullptr) {
      EXPECT_EQ(model->name(), frozen.name);
    }
  }
}

// The paper's wrapper scores exactly like the majority-worst scheme.
TEST(VotingFreeze, PaperWrapperEqualsMajorityWorstScheme) {
  ExpectScores(Evaluate(*MakePaperVoting()), kFrozen[0].folds,
               "paper wrapper");
}

TEST(VotingFreeze, PaperWrapperNameAndFingerprint) {
  auto paper = MakePaperVoting();
  EXPECT_EQ(paper->name(), "ECTS+vote");
  EXPECT_EQ(paper->config_fingerprint(),
            "vote(Composed(base=1NN(euclid),trigger=ects-mpl(support=0,"
            "merge=0),grid=3,n=20,z=0))");
}

TEST(VotingFreeze, EverySchemeHasItsOwnFingerprint) {
  std::set<std::string> fingerprints;
  for (VotingScheme scheme : kSchemes) {
    fingerprints.insert(MakeVoting(scheme)->config_fingerprint());
  }
  EXPECT_EQ(fingerprints.size(), std::size(kSchemes));
}

// Every scheme persists through the one SaveState/LoadState: a saved model
// predicts bit-identically after LoadFitted, and a wrapper of another scheme
// refuses it.
TEST(VotingFreeze, SaveLoadRoundTripsEveryScheme) {
  const Dataset data = FreezeData();
  for (VotingScheme scheme : kSchemes) {
    const std::string what = VotingSchemeName(scheme);
    auto fitted = MakeVoting(scheme);
    ASSERT_TRUE(fitted->Fit(data).ok()) << what;
    std::stringstream saved;
    ASSERT_TRUE(fitted->Save(saved).ok()) << what;
    const std::string bytes = saved.str();

    auto restored = MakeVoting(scheme);
    std::istringstream in(bytes);
    ASSERT_TRUE(restored->LoadFitted(in).ok()) << what;
    for (size_t i = 0; i < data.size(); ++i) {
      auto want = fitted->PredictEarly(data.instance(i));
      auto got = restored->PredictEarly(data.instance(i));
      ASSERT_TRUE(want.ok() && got.ok()) << what << " instance " << i;
      EXPECT_EQ(got->label, want->label) << what << " instance " << i;
      EXPECT_EQ(got->prefix_length, want->prefix_length)
          << what << " instance " << i;
      EXPECT_EQ(got->confidence, want->confidence)
          << what << " instance " << i;
    }

    for (VotingScheme other : kSchemes) {
      if (other == scheme) continue;
      auto mismatched = MakeVoting(other);
      std::istringstream again(bytes);
      EXPECT_EQ(mismatched->LoadFitted(again).code(),
                StatusCode::kInvalidArgument)
          << what << " loaded into " << VotingSchemeName(other);
    }
  }
}

}  // namespace
}  // namespace etsc
