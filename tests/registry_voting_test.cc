// Tests for the extensibility registry (paper Sec. 5.5) and the univariate ->
// multivariate voting wrapper (Sec. 6.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "algos/registrations.h"
#include "core/registry.h"
#include "core/voting.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

/// Minimal early classifier used to probe the wrappers: predicts the majority
/// training label after a fixed number of points.
class StubEarly : public EarlyClassifier {
 public:
  explicit StubEarly(size_t consume = 3, int forced_label = -999)
      : consume_(consume), forced_label_(forced_label) {}

  Status Fit(const Dataset& train) override {
    if (train.empty()) return Status::InvalidArgument("stub: empty");
    fitted_vars_ = train.NumVariables();
    if (forced_label_ != -999) {
      label_ = forced_label_;
      return Status::OK();
    }
    const auto counts = train.ClassCounts();
    size_t best = 0;
    for (const auto& [l, c] : counts) {
      if (c > best) {
        best = c;
        label_ = l;
      }
    }
    return Status::OK();
  }
  Result<EarlyPrediction> PredictEarly(const TimeSeries& series) const override {
    return EarlyPrediction{label_, std::min(consume_, series.length())};
  }
  std::string name() const override { return "stub"; }
  bool SupportsMultivariate() const override { return false; }
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override {
    return std::make_unique<StubEarly>(consume_, forced_label_);
  }

  size_t fitted_vars() const { return fitted_vars_; }

 private:
  size_t consume_;
  int forced_label_;
  int label_ = 0;
  size_t fitted_vars_ = 0;
};

/// Voter that spends ~0.15 s of wall time in Fit and then checks its train
/// deadline, like an algorithm polling between expensive phases.
class SlowVoter : public EarlyClassifier {
 public:
  Status Fit(const Dataset&) override {
    const Deadline deadline = TrainDeadline();
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return deadline.Check("slow voter fit");
  }
  Result<EarlyPrediction> PredictEarly(const TimeSeries& series) const override {
    return EarlyPrediction{0, series.length()};
  }
  std::string name() const override { return "slow"; }
  bool SupportsMultivariate() const override { return false; }
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override {
    return std::make_unique<SlowVoter>();
  }
};

TEST(Registry, BuiltinAlgorithmsRegistered) {
  RegisterBuiltinClassifiers();
  auto& registry = ClassifierRegistry::Global();
  for (const char* name : {"ecec", "economy-k", "ects", "edsc", "teaser",
                           "s-weasel", "s-mini", "s-mlstm"}) {
    EXPECT_TRUE(registry.Contains(name)) << name;
  }
}

TEST(Registry, CreateInstantiates) {
  RegisterBuiltinClassifiers();
  auto model = ClassifierRegistry::Global().Create("ects");
  ASSERT_TRUE(model.ok());
  EXPECT_EQ((*model)->name(), "ECTS");
}

TEST(Registry, UnknownNameIsNotFound) {
  RegisterBuiltinClassifiers();
  auto model = ClassifierRegistry::Global().Create("definitely-not-there");
  EXPECT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kNotFound);
  // The error is actionable: it names the bad input and lists what IS
  // registered, so a caller can fix a typo without reading the source.
  EXPECT_NE(model.status().message().find("definitely-not-there"),
            std::string::npos);
  EXPECT_NE(model.status().message().find("ects"), std::string::npos);
}

TEST(Registry, DuplicateRegistrationRejected) {
  ClassifierRegistry registry;
  ASSERT_TRUE(
      registry.Register("x", [] { return std::make_unique<StubEarly>(); }).ok());
  EXPECT_FALSE(
      registry.Register("x", [] { return std::make_unique<StubEarly>(); }).ok());
}

TEST(Registry, NamesSorted) {
  ClassifierRegistry registry;
  ASSERT_TRUE(
      registry.Register("b", [] { return std::make_unique<StubEarly>(); }).ok());
  ASSERT_TRUE(
      registry.Register("a", [] { return std::make_unique<StubEarly>(); }).ok());
  const auto names = registry.Names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
}

TEST(Voting, TrainsOneVoterPerVariable) {
  Dataset mv = testing::MakeToyMultivariate(5, 10, 2);
  VotingEarlyClassifier voting(std::make_unique<StubEarly>());
  ASSERT_TRUE(voting.Fit(mv).ok());
  EXPECT_EQ(voting.num_voters(), mv.NumVariables());
}

TEST(Voting, ReportsWorstEarliness) {
  // Stub consumes 3 points per voter, so the vote reports 3.
  Dataset mv = testing::MakeToyMultivariate(5, 10, 2);
  VotingEarlyClassifier voting(std::make_unique<StubEarly>(3));
  ASSERT_TRUE(voting.Fit(mv).ok());
  auto pred = voting.PredictEarly(mv.instance(0));
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(pred->prefix_length, 3u);
}

TEST(Voting, RejectsVariableMismatch) {
  Dataset mv = testing::MakeToyMultivariate(5, 10, 2);
  VotingEarlyClassifier voting(std::make_unique<StubEarly>());
  ASSERT_TRUE(voting.Fit(mv).ok());
  auto pred = voting.PredictEarly(TimeSeries::Univariate({1, 2, 3}));
  EXPECT_FALSE(pred.ok());
}

TEST(Voting, PredictBeforeFitFails) {
  VotingEarlyClassifier voting(std::make_unique<StubEarly>());
  auto pred = voting.PredictEarly(TimeSeries::Univariate({1.0}));
  EXPECT_FALSE(pred.ok());
  EXPECT_EQ(pred.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Voting, NameDerivedFromPrototype) {
  VotingEarlyClassifier voting(std::make_unique<StubEarly>());
  EXPECT_EQ(voting.name(), "stub+vote");
}

TEST(WrapForDatasetFn, WrapsOnlyWhenNeeded) {
  Dataset uni = testing::MakeToyDataset(4, 10);
  Dataset mv = testing::MakeToyMultivariate(4, 10, 2);

  auto plain = WrapForDataset(std::make_unique<StubEarly>(), uni);
  EXPECT_EQ(plain->name(), "stub");

  auto wrapped = WrapForDataset(std::make_unique<StubEarly>(), mv);
  EXPECT_EQ(wrapped->name(), "stub+vote");
}

// The train budget covers the whole fold: four voters of ~0.15 s each share
// one 0.3 s budget instead of getting 0.3 s apiece.
TEST(Voting, TrainBudgetIsSharedByAllVoters) {
  Dataset mv;
  for (int label = 0; label < 2; ++label) {
    std::vector<std::vector<double>> channels(4, std::vector<double>(8, label));
    mv.Add(TimeSeries::FromChannels(std::move(channels)).value(), label);
  }
  VotingEarlyClassifier voting(std::make_unique<SlowVoter>());
  voting.set_train_budget_seconds(0.3);
  const Status fitted = voting.Fit(mv);
  EXPECT_EQ(fitted.code(), StatusCode::kDeadlineExceeded) << fitted.ToString();
}

TEST(Voting, CloneUntrainedProducesFreshWrapper) {
  VotingEarlyClassifier voting(std::make_unique<StubEarly>());
  auto clone = voting.CloneUntrained();
  EXPECT_EQ(clone->name(), "stub+vote");
  // A clone is untrained.
  auto pred = clone->PredictEarly(TimeSeries::Univariate({1.0}));
  EXPECT_FALSE(pred.ok());
}

}  // namespace
}  // namespace etsc
