#include <gtest/gtest.h>

#include <memory>

#include "algos/ecec.h"
#include "algos/economy_k.h"
#include "algos/teaser.h"
#include "tests/test_util.h"
#include "tsc/weasel.h"

namespace etsc {
namespace {

using testing::Compose;
using testing::CreateComposed;
using testing::EarlyAccuracy;
using testing::MakeToyDataset;
using testing::MakeToyMultivariate;
using testing::TriggerOf;

/// "economy-k" with trigger `options` over `checkpoints` time-points.
std::unique_ptr<ComposedEarlyClassifier> EconomyK(
    const EcoCostTriggerOptions& options, size_t checkpoints) {
  return Compose("ECO-K", nullptr, std::make_unique<EcoCostTrigger>(options),
                 checkpoints);
}

/// "ecec" over `prefixes` prefixes with trigger `options`.
std::unique_ptr<ComposedEarlyClassifier> Ecec(
    size_t prefixes, const EcecTriggerOptions& options = {}) {
  return Compose("ECEC", std::make_unique<WeaselClassifier>(),
                 std::make_unique<EcecRatioTrigger>(options), prefixes);
}

/// "teaser" over `prefixes` prefixes.
std::unique_ptr<ComposedEarlyClassifier> Teaser(size_t prefixes) {
  return Compose("TEASER", std::make_unique<WeaselClassifier>(),
                 std::make_unique<TeaserGateTrigger>(), prefixes);
}

TEST(EconomyK, CheckpointsCoverHorizon) {
  Dataset d = MakeToyDataset(15, 40);
  EcoCostTriggerOptions options;
  options.gbdt.num_rounds = 10;
  auto model = EconomyK(options, /*checkpoints=*/10);
  ASSERT_TRUE(model->Fit(d).ok());
  ASSERT_FALSE(model->checkpoints().empty());
  EXPECT_EQ(model->checkpoints().back(), 40u);
  for (size_t i = 1; i < model->checkpoints().size(); ++i) {
    EXPECT_GT(model->checkpoints()[i], model->checkpoints()[i - 1]);
  }
}

TEST(EconomyK, ClusterGridSelectsOne) {
  Dataset d = MakeToyDataset(15, 30);
  EcoCostTriggerOptions options;
  options.cluster_grid = {1, 2, 3};
  options.gbdt.num_rounds = 10;
  auto model = EconomyK(options, /*checkpoints=*/6);
  ASSERT_TRUE(model->Fit(d).ok());
  EXPECT_GE(TriggerOf<EcoCostTrigger>(*model).chosen_clusters(), 1u);
  EXPECT_LE(TriggerOf<EcoCostTrigger>(*model).chosen_clusters(), 3u);
}

TEST(EconomyK, HighTimeCostForcesEarlyDecisions) {
  Dataset d = MakeToyDataset(20, 40, 0.0, 3, 0.05);
  EcoCostTriggerOptions cheap;
  cheap.gbdt.num_rounds = 10;
  EcoCostTriggerOptions costly = cheap;
  costly.time_cost = 0.05;   // waiting is expensive
  costly.lambda = 2.0;       // errors are cheap
  auto patient = EconomyK(cheap, /*checkpoints=*/8);
  auto hasty = EconomyK(costly, /*checkpoints=*/8);
  ASSERT_TRUE(patient->Fit(d).ok());
  ASSERT_TRUE(hasty->Fit(d).ok());
  double patient_prefix = 0, hasty_prefix = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    patient_prefix += static_cast<double>(
        patient->PredictEarly(d.instance(i))->prefix_length);
    hasty_prefix += static_cast<double>(
        hasty->PredictEarly(d.instance(i))->prefix_length);
  }
  EXPECT_LE(hasty_prefix, patient_prefix);
}

TEST(EconomyK, RejectsMultivariate) {
  auto model = CreateComposed("economy-k");
  EXPECT_FALSE(model->Fit(MakeToyMultivariate(5, 10)).ok());
}

TEST(EconomyK, PredictBeforeFitFails) {
  auto model = CreateComposed("economy-k");
  EXPECT_FALSE(model->PredictEarly(TimeSeries::Univariate({1.0})).ok());
}

TEST(Ecec, PrefixGridMatchesCeilRule) {
  Dataset d = MakeToyDataset(12, 20);
  auto model = Ecec(/*prefixes=*/4);
  ASSERT_TRUE(model->Fit(d).ok());
  // ceil(i*20/4) = 5, 10, 15, 20.
  EXPECT_EQ(model->checkpoints(),
            (std::vector<size_t>{5, 10, 15, 20}));
}

TEST(Ecec, ThresholdWithinUnitInterval) {
  Dataset d = MakeToyDataset(12, 20);
  auto model = Ecec(/*prefixes=*/4);
  ASSERT_TRUE(model->Fit(d).ok());
  EXPECT_GT(TriggerOf<EcecRatioTrigger>(*model).threshold(), 0.0);
  EXPECT_LE(TriggerOf<EcecRatioTrigger>(*model).threshold(), 1.0);
}

TEST(Ecec, AlphaShiftsEarliness) {
  Dataset d = MakeToyDataset(20, 40, 0.0, 3, 0.05);
  EcecTriggerOptions accurate;
  accurate.alpha = 0.99;  // accuracy-dominated cost
  EcecTriggerOptions eager = accurate;
  eager.alpha = 0.01;     // earliness-dominated cost
  auto patient = Ecec(/*prefixes=*/6, accurate);
  auto hasty = Ecec(/*prefixes=*/6, eager);
  ASSERT_TRUE(patient->Fit(d).ok());
  ASSERT_TRUE(hasty->Fit(d).ok());
  double patient_prefix = 0, hasty_prefix = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    patient_prefix += static_cast<double>(
        patient->PredictEarly(d.instance(i))->prefix_length);
    hasty_prefix += static_cast<double>(
        hasty->PredictEarly(d.instance(i))->prefix_length);
  }
  EXPECT_LE(hasty_prefix, patient_prefix);
}

TEST(Ecec, BudgetExhaustionReported) {
  Dataset d = MakeToyDataset(20, 40);
  auto model = CreateComposed("ecec");
  model->set_train_budget_seconds(0.0);
  EXPECT_EQ(model->Fit(d).code(), StatusCode::kDeadlineExceeded);
}

TEST(Ecec, RejectsMultivariate) {
  auto model = CreateComposed("ecec");
  EXPECT_FALSE(model->Fit(MakeToyMultivariate(5, 10)).ok());
}

TEST(Teaser, ChoosesConsistencyVInGrid) {
  Dataset d = MakeToyDataset(15, 30);
  auto model = Teaser(/*prefixes=*/5);
  ASSERT_TRUE(model->Fit(d).ok());
  EXPECT_GE(TriggerOf<TeaserGateTrigger>(*model).chosen_v(), 1u);
  EXPECT_LE(TriggerOf<TeaserGateTrigger>(*model).chosen_v(), 5u);
}

TEST(Teaser, LastPrefixIsFullLength) {
  Dataset d = MakeToyDataset(12, 24);
  auto model = Teaser(/*prefixes=*/4);
  ASSERT_TRUE(model->Fit(d).ok());
  EXPECT_EQ(model->checkpoints().back(), 24u);
}

TEST(Teaser, ZNormVariantRuns) {
  Dataset d = MakeToyDataset(15, 30);
  ComposedOptions options = TeaserGateTrigger().DefaultComposedOptions();
  options.num_checkpoints = 5;
  options.z_normalize = true;
  auto model = std::make_unique<ComposedEarlyClassifier>(
      "TEASER", std::make_unique<WeaselClassifier>(),
      std::make_unique<TeaserGateTrigger>(), options);
  ASSERT_TRUE(model->Fit(d).ok());
  EXPECT_GE(EarlyAccuracy(*model, d), 0.7);
}

TEST(Teaser, BudgetExhaustionReported) {
  Dataset d = MakeToyDataset(20, 40);
  auto model = CreateComposed("teaser");
  model->set_train_budget_seconds(0.0);
  EXPECT_EQ(model->Fit(d).code(), StatusCode::kDeadlineExceeded);
}

TEST(Teaser, PredictBeforeFitFails) {
  auto model = CreateComposed("teaser");
  EXPECT_FALSE(model->PredictEarly(TimeSeries::Univariate({1.0})).ok());
}

TEST(Teaser, SeriesShorterThanFirstPrefixHandled) {
  Dataset d = MakeToyDataset(15, 30);
  auto model = Teaser(/*prefixes=*/3);
  ASSERT_TRUE(model->Fit(d).ok());
  auto pred = model->PredictEarly(d.instance(0).Prefix(5));
  ASSERT_TRUE(pred.ok());
  EXPECT_LE(pred->prefix_length, 5u);
}

}  // namespace
}  // namespace etsc
