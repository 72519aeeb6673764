#include "algos/strut.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "tests/test_util.h"
#include "tsc/minirocket.h"
#include "tsc/weasel.h"

namespace etsc {
namespace {

using testing::Compose;
using testing::CreateComposed;
using testing::EarlyAccuracy;
using testing::MakeToyDataset;
using testing::MakeToyMultivariate;
using testing::TriggerOf;

/// STRUT over MiniROCKET: the "s-mini" composition with `options`.
std::unique_ptr<ComposedEarlyClassifier> Strut(StrutOptions options = {},
                                               std::string name = "S-MINI") {
  return Compose(std::move(name), std::make_unique<MiniRocketClassifier>(),
                 std::make_unique<StrutTrigger>(std::move(options)));
}

size_t TruncationPoint(const EarlyClassifier& model) {
  return TriggerOf<StrutTrigger>(model).truncation_point();
}

TEST(Strut, TruncationPointWithinHorizon) {
  Dataset d = MakeToyDataset(20, 40);
  auto model = Strut();
  ASSERT_TRUE(model->Fit(d).ok());
  EXPECT_GE(TruncationPoint(*model), 2u);
  EXPECT_LE(TruncationPoint(*model), 40u);
}

TEST(Strut, EveryPredictionConsumesTheChosenPrefix) {
  Dataset d = MakeToyDataset(15, 30);
  auto model = Strut();
  ASSERT_TRUE(model->Fit(d).ok());
  for (size_t i = 0; i < d.size(); ++i) {
    auto pred = model->PredictEarly(d.instance(i));
    ASSERT_TRUE(pred.ok());
    EXPECT_EQ(pred->prefix_length, TruncationPoint(*model));
  }
}

TEST(Strut, HarmonicMeanMetricPrefersEarlyOnEarlySignal) {
  // Class signal available from t = 0: the HM-optimal truncation point is
  // well before the end.
  Dataset d = MakeToyDataset(25, 40, 0.0, 3, 0.05);
  StrutOptions options;
  options.metric = StrutMetric::kHarmonicMean;
  auto model = Strut(options);
  ASSERT_TRUE(model->Fit(d).ok());
  EXPECT_LT(TruncationPoint(*model), 30u);
  EXPECT_GE(EarlyAccuracy(*model, d), 0.85);
}

TEST(Strut, LateSignalPushesTruncationLater) {
  Dataset early_d = MakeToyDataset(25, 40, 0.0, 3, 0.05);
  Dataset late_d = MakeToyDataset(25, 40, 0.7, 3, 0.05);
  auto early_m = Strut();
  auto late_m = Strut();
  ASSERT_TRUE(early_m->Fit(early_d).ok());
  ASSERT_TRUE(late_m->Fit(late_d).ok());
  EXPECT_LT(TruncationPoint(*early_m), TruncationPoint(*late_m));
}

TEST(Strut, AccuracyMetricRuns) {
  Dataset d = MakeToyDataset(15, 30);
  StrutOptions options;
  options.metric = StrutMetric::kAccuracy;
  auto model = Strut(options);
  ASSERT_TRUE(model->Fit(d).ok());
  EXPECT_GE(EarlyAccuracy(*model, d), 0.9);
}

TEST(Strut, F1MetricRuns) {
  Dataset d = MakeToyDataset(15, 30);
  StrutOptions options;
  options.metric = StrutMetric::kF1;
  auto model = Strut(options);
  ASSERT_TRUE(model->Fit(d).ok());
  EXPECT_GE(EarlyAccuracy(*model, d), 0.9);
}

TEST(Strut, GridSearchMatchesFractions) {
  Dataset d = MakeToyDataset(15, 40);
  StrutOptions options;
  options.search = StrutSearch::kGrid;
  options.fractions = {0.5};
  auto model = Strut(options);
  ASSERT_TRUE(model->Fit(d).ok());
  EXPECT_EQ(TruncationPoint(*model), 20u);
}

TEST(Strut, BinaryRefinementNeverLaterThanGridBest) {
  Dataset d = MakeToyDataset(25, 40, 0.0, 3, 0.05);
  StrutOptions grid;
  grid.search = StrutSearch::kGrid;
  StrutOptions binary = grid;
  binary.search = StrutSearch::kBinary;
  auto g = Strut(grid);
  auto b = Strut(binary);
  ASSERT_TRUE(g->Fit(d).ok());
  ASSERT_TRUE(b->Fit(d).ok());
  EXPECT_LE(TruncationPoint(*b), TruncationPoint(*g));
}

TEST(Strut, NamesFollowPaperConventions) {
  EXPECT_EQ(CreateComposed("s-weasel")->name(), "S-WEASEL");
  EXPECT_EQ(CreateComposed("s-mini")->name(), "S-MINI");
  EXPECT_EQ(CreateComposed("s-mlstm")->name(), "S-MLSTM");
}

TEST(Strut, AdaptiveWeaselHandlesBothDimensionalities) {
  auto uni = CreateComposed("s-weasel");
  ASSERT_TRUE(uni->Fit(MakeToyDataset(15, 30)).ok());
  auto mv = CreateComposed("s-weasel");
  ASSERT_TRUE(mv->Fit(MakeToyMultivariate(12, 24)).ok());
  EXPECT_TRUE(mv->SupportsMultivariate());
}

TEST(Strut, TooFewSeriesRejected) {
  Dataset d("few", {TimeSeries::Univariate({1, 2, 3})}, {0});
  auto model = Strut();
  EXPECT_FALSE(model->Fit(d).ok());
}

TEST(Strut, PredictBeforeFitFails) {
  auto model = Strut();
  EXPECT_FALSE(model->PredictEarly(TimeSeries::Univariate({1.0})).ok());
}

TEST(Strut, BudgetExhaustionReported) {
  Dataset d = MakeToyDataset(20, 40);
  auto model = Strut();
  model->set_train_budget_seconds(0.0);
  EXPECT_EQ(model->Fit(d).code(), StatusCode::kDeadlineExceeded);
}

TEST(Strut, CloneUntrainedKeepsNameAndConfig) {
  StrutOptions options;
  options.metric = StrutMetric::kAccuracy;
  auto model = Strut(options, "S-CUSTOM");
  auto clone = model->CloneUntrained();
  EXPECT_EQ(clone->name(), "S-CUSTOM");
}

TEST(Strut, ShorterTestSeriesConsumesWhatExists) {
  Dataset d = MakeToyDataset(15, 30);
  auto model = Strut();
  ASSERT_TRUE(model->Fit(d).ok());
  const size_t t = TruncationPoint(*model);
  auto pred = model->PredictEarly(d.instance(0).Prefix(t / 2 + 1));
  ASSERT_TRUE(pred.ok());
  EXPECT_LE(pred->prefix_length, t / 2 + 1);
}

}  // namespace
}  // namespace etsc
