// Tests for the future-work extensions (paper Sec. 7): alternative voting
// schemes for univariate algorithms on multivariate data, and grid-search
// hyper-parameter tuning.

#include <gtest/gtest.h>

#include <memory>

#include "algos/ects.h"
#include "core/tuner.h"
#include "core/voting.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

/// Deterministic stub voter: variable v predicts label (v % 2) after v+1
/// points, so scheme outcomes can be asserted exactly. The wrapper fits one
/// clone per variable in order, so a counter shared across clones hands voter
/// v the hint v.
class PatternVoter : public EarlyClassifier {
 public:
  explicit PatternVoter(std::shared_ptr<size_t> counter =
                            std::make_shared<size_t>(0))
      : counter_(std::move(counter)) {}

  Status Fit(const Dataset& train) override {
    variable_hint_ = (*counter_)++;
    (void)train;
    return Status::OK();
  }
  Result<EarlyPrediction> PredictEarly(const TimeSeries& series) const override {
    const size_t consume = std::min(series.length(), variable_hint_ + 1);
    return EarlyPrediction{static_cast<int>(variable_hint_ % 2), consume};
  }
  std::string name() const override { return "pattern"; }
  bool SupportsMultivariate() const override { return false; }
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override {
    return std::make_unique<PatternVoter>(counter_);
  }

 private:
  std::shared_ptr<size_t> counter_;
  size_t variable_hint_ = 0;
};

Dataset ThreeVariableDataset() {
  Dataset d("3v", {}, {});
  Rng rng(5);
  for (int i = 0; i < 8; ++i) {
    std::vector<std::vector<double>> channels(3, std::vector<double>(10));
    for (auto& c : channels) {
      for (double& x : c) x = rng.Gaussian();
    }
    d.Add(TimeSeries::FromChannels(std::move(channels)).value(), i % 2);
  }
  return d;
}

class VotingSchemeTest : public ::testing::Test {
 protected:
  std::unique_ptr<VotingEarlyClassifier> Make(VotingScheme scheme) {
    // Reset the stub counter through a fresh prototype chain.
    auto proto = std::make_unique<PatternVoter>();
    auto wrapper =
        std::make_unique<VotingEarlyClassifier>(std::move(proto), scheme);
    return wrapper;
  }
};

// Voters predict: v0 -> label 0 after 1 pt, v1 -> label 1 after 2 pts,
// v2 -> label 0 after 3 pts. Majority = 0; worst earliness = 3; earliest = v0.
TEST_F(VotingSchemeTest, MajorityWorstMatchesPaperScheme) {
  auto wrapper = Make(VotingScheme::kMajorityWorstEarliness);
  Dataset d = ThreeVariableDataset();
  ASSERT_TRUE(wrapper->Fit(d).ok());
  auto pred = wrapper->PredictEarly(d.instance(0));
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred->label, 0);
  EXPECT_EQ(pred->prefix_length, 3u);
}

TEST_F(VotingSchemeTest, MajorityMeanUsesMeanPrefix) {
  auto wrapper = Make(VotingScheme::kMajorityMeanEarliness);
  Dataset d = ThreeVariableDataset();
  ASSERT_TRUE(wrapper->Fit(d).ok());
  auto pred = wrapper->PredictEarly(d.instance(0));
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred->label, 0);
  EXPECT_EQ(pred->prefix_length, 2u);  // mean of 1,2,3
}

TEST_F(VotingSchemeTest, EarliestVoterWins) {
  auto wrapper = Make(VotingScheme::kEarliestVoter);
  Dataset d = ThreeVariableDataset();
  ASSERT_TRUE(wrapper->Fit(d).ok());
  auto pred = wrapper->PredictEarly(d.instance(0));
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred->label, 0);          // v0 is earliest
  EXPECT_EQ(pred->prefix_length, 1u);
}

TEST_F(VotingSchemeTest, EarlinessWeightedFavorsEarlyVoters) {
  auto wrapper = Make(VotingScheme::kEarlinessWeighted);
  Dataset d = ThreeVariableDataset();
  ASSERT_TRUE(wrapper->Fit(d).ok());
  auto pred = wrapper->PredictEarly(d.instance(0));
  ASSERT_TRUE(pred.ok());
  // Weights: label0 = 1/1 + 1/3 = 1.33, label1 = 1/2 -> label 0.
  EXPECT_EQ(pred->label, 0);
}

TEST_F(VotingSchemeTest, NamesIncludeScheme) {
  auto wrapper = Make(VotingScheme::kEarliestVoter);
  EXPECT_EQ(wrapper->name(), "pattern+earliest-voter");
  EXPECT_EQ(VotingSchemeName(VotingScheme::kMajorityWorstEarliness),
            "majority-worst");
}

TEST_F(VotingSchemeTest, RealAlgorithmAllSchemesWork) {
  Dataset mv = testing::MakeToyMultivariate(10, 16, 2);
  for (VotingScheme scheme :
       {VotingScheme::kMajorityWorstEarliness,
        VotingScheme::kMajorityMeanEarliness, VotingScheme::kEarliestVoter,
        VotingScheme::kEarlinessWeighted}) {
    VotingEarlyClassifier wrapper(testing::CreateComposed("ects"), scheme);
    ASSERT_TRUE(wrapper.Fit(mv).ok()) << VotingSchemeName(scheme);
    EXPECT_GE(testing::EarlyAccuracy(wrapper, mv), 0.7)
        << VotingSchemeName(scheme);
  }
}

TEST(Tuner, PicksTheBetterCandidate) {
  Dataset d = testing::MakeToyDataset(15, 24);
  std::vector<TunerCandidate> grid;
  // A strong candidate and a deliberately crippled one (support so high the
  // RNN rule never fires and MPLs stay at L -> earliness 1 -> HM 0).
  grid.push_back({"ects-good", [] { return testing::CreateComposed("ects"); }});
  grid.push_back({"ects-late", [] {
                    EctsOptions options;
                    options.support = 100000;
                    options.max_merge_distance_factor = 1e-9;
                    return testing::Compose(
                        "ECTS", nullptr,
                        std::make_unique<EctsMplTrigger>(options));
                  }});
  auto verdict = TuneEarlyClassifier(d, grid);
  ASSERT_TRUE(verdict.ok());
  EXPECT_EQ(verdict->best_name, "ects-good");
  EXPECT_EQ(verdict->leaderboard.size(), 2u);
  ASSERT_NE(verdict->best_model, nullptr);
  // The returned model is trained and usable.
  EXPECT_GE(testing::EarlyAccuracy(*verdict->best_model, d), 0.8);
}

TEST(Tuner, EmptyGridRejected) {
  Dataset d = testing::MakeToyDataset(5, 10);
  EXPECT_FALSE(TuneEarlyClassifier(d, {}).ok());
}

TEST(Tuner, AllCandidatesFailingReported) {
  Dataset d = testing::MakeToyDataset(5, 10);
  std::vector<TunerCandidate> grid;
  grid.push_back({"null", [] { return std::unique_ptr<EarlyClassifier>(); }});
  auto verdict = TuneEarlyClassifier(d, grid);
  EXPECT_FALSE(verdict.ok());
}

TEST(Tuner, ObjectiveSelectable) {
  Dataset d = testing::MakeToyDataset(12, 20);
  std::vector<TunerCandidate> grid;
  grid.push_back({"ects", [] { return testing::CreateComposed("ects"); }});
  TunerOptions options;
  options.objective = TunerObjective::kAccuracy;
  auto verdict = TuneEarlyClassifier(d, grid, options);
  ASSERT_TRUE(verdict.ok());
  EXPECT_GT(verdict->best_score, 0.8);
}

}  // namespace
}  // namespace etsc
