// Tests for the ARFF loader (paper Sec. 5.5) and the probability-threshold
// baseline classifier.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "algos/prob_threshold.h"
#include "core/arff.h"
#include "tests/test_util.h"
#include "tsc/minirocket.h"

namespace etsc {
namespace {

constexpr char kArff[] = R"(% comment line
@relation test
@attribute att0 numeric
@attribute att1 numeric
@attribute att2 numeric
@attribute target {cat,dog}
@data
1.0,2.0,3.0,cat
4.0,5.0,6.0,dog
7.5,?,9.5,cat
)";

TEST(Arff, ParsesNominalClasses) {
  auto result = ParseArff(kArff);
  ASSERT_TRUE(result.ok());
  const Dataset& d = *result;
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(d.NumVariables(), 1u);
  EXPECT_EQ(d.MaxLength(), 3u);
  EXPECT_EQ(d.label(0), 0);  // cat
  EXPECT_EQ(d.label(1), 1);  // dog
  EXPECT_DOUBLE_EQ(d.instance(1).at(0, 2), 6.0);
}

TEST(Arff, MissingValuesAsNaN) {
  auto result = ParseArff(kArff);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::isnan(result->instance(2).at(0, 1)));
}

TEST(Arff, NumericIntegerClassKeepsValue) {
  auto result = ParseArff(
      "@relation r\n@attribute a numeric\n@attribute b numeric\n"
      "@attribute target numeric\n@data\n1,2,7\n3,4,-1\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->label(0), 7);
  EXPECT_EQ(result->label(1), -1);
}

TEST(Arff, StringClassMappedByAppearance) {
  auto result = ParseArff(
      "@relation r\n@attribute a numeric\n@attribute b numeric\n"
      "@attribute target string\n@data\n1,2,zz\n3,4,aa\n5,6,zz\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->label(0), 0);  // zz first seen
  EXPECT_EQ(result->label(1), 1);  // aa second
  EXPECT_EQ(result->label(2), 0);
}

TEST(Arff, QuotedAttributeNamesAndValues) {
  auto result = ParseArff(
      "@relation r\n@attribute 'att 0' numeric\n"
      "@attribute 'class' {'a b','c'}\n@data\n1.5,'a b'\n2.5,'c'\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->label(0), 0);
  EXPECT_EQ(result->label(1), 1);
}

TEST(Arff, RejectsFieldCountMismatch) {
  auto result = ParseArff(
      "@relation r\n@attribute a numeric\n@attribute t {x}\n@data\n1,2,x\n");
  EXPECT_FALSE(result.ok());
}

TEST(Arff, RejectsUnknownNominalValue) {
  auto result = ParseArff(
      "@relation r\n@attribute a numeric\n@attribute t {x,y}\n@data\n1,z\n");
  EXPECT_FALSE(result.ok());
}

TEST(Arff, RejectsMissingDataSection) {
  EXPECT_FALSE(ParseArff("@relation r\n@attribute a numeric\n").ok());
}

TEST(Arff, RejectsSparseRows) {
  auto result = ParseArff(
      "@relation r\n@attribute a numeric\n@attribute t {x}\n@data\n{0 1},x\n");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotImplemented);
}

TEST(Arff, LoadMissingFileFails) {
  EXPECT_FALSE(LoadArff("/no/such/file.arff").ok());
}

TEST(Arff, CaseInsensitiveKeywords) {
  auto result = ParseArff(
      "@RELATION r\n@ATTRIBUTE a NUMERIC\n@ATTRIBUTE t {x}\n@DATA\n1,x\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

MiniRocketOptions LogisticHead() {
  // Ridge margins are uncalibrated; the threshold rule needs the logistic
  // head's probabilities.
  MiniRocketOptions options;
  options.logistic_above_samples = 0;
  return options;
}

TEST(ProbThreshold, LearnsAndStopsEarly) {
  Dataset d = testing::MakeToyDataset(20, 40, 0.0, 3, 0.05);
  auto model = testing::CreateComposed("prob-threshold");
  ASSERT_TRUE(model->Fit(d).ok());
  double earliness = 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    auto pred = model->PredictEarly(d.instance(i));
    ASSERT_TRUE(pred.ok());
    earliness += static_cast<double>(pred->prefix_length) / 40.0;
    if (pred->label == d.label(i)) ++correct;
  }
  EXPECT_GE(static_cast<double>(correct) / d.size(), 0.9);
  EXPECT_LT(earliness / d.size(), 0.8);
}

TEST(ProbThreshold, HigherThresholdIsMoreCautious) {
  Dataset d = testing::MakeToyDataset(20, 40, 0.3, 3, 0.2);
  ProbTriggerOptions eager;
  eager.threshold = 0.55;
  ProbTriggerOptions cautious;
  cautious.threshold = 0.99;
  auto a = testing::Compose(
      "eager", std::make_unique<MiniRocketClassifier>(LogisticHead()),
      std::make_unique<ProbTrigger>(eager));
  auto b = testing::Compose(
      "cautious", std::make_unique<MiniRocketClassifier>(LogisticHead()),
      std::make_unique<ProbTrigger>(cautious));
  ASSERT_TRUE(a->Fit(d).ok());
  ASSERT_TRUE(b->Fit(d).ok());
  double eager_prefix = 0, cautious_prefix = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    eager_prefix +=
        static_cast<double>(a->PredictEarly(d.instance(i))->prefix_length);
    cautious_prefix +=
        static_cast<double>(b->PredictEarly(d.instance(i))->prefix_length);
  }
  EXPECT_LE(eager_prefix, cautious_prefix);
}

TEST(ProbThreshold, PrefixGridEndsAtFullLength) {
  Dataset d = testing::MakeToyDataset(10, 30);
  auto model = testing::CreateComposed("minirocket+prob");
  ASSERT_TRUE(model->Fit(d).ok());
  EXPECT_EQ(model->checkpoints().back(), 30u);
}

TEST(ProbThreshold, BudgetExhaustionReported) {
  Dataset d = testing::MakeToyDataset(15, 30);
  auto model = testing::CreateComposed("minirocket+prob");
  model->set_train_budget_seconds(0.0);
  EXPECT_EQ(model->Fit(d).code(), StatusCode::kDeadlineExceeded);
}

TEST(ProbThreshold, PredictBeforeFitFails) {
  auto model = testing::CreateComposed("minirocket+prob");
  EXPECT_FALSE(model->PredictEarly(TimeSeries::Univariate({1.0})).ok());
}

TEST(ProbThreshold, MultivariateSupportFollowsBase) {
  auto model = testing::CreateComposed("minirocket+prob");
  EXPECT_TRUE(model->SupportsMultivariate());
  Dataset mv = testing::MakeToyMultivariate(10, 16);
  ASSERT_TRUE(model->Fit(mv).ok());
  EXPECT_TRUE(model->PredictEarly(mv.instance(0)).ok());
}

TEST(ProbThreshold, ArffToClassifierEndToEnd) {
  // The paper's ingestion path: ARFF file -> framework dataset -> algorithm.
  std::string arff = "@relation toy\n";
  Dataset toy = testing::MakeToyDataset(10, 12);
  for (size_t t = 0; t < 12; ++t) {
    arff += "@attribute att" + std::to_string(t) + " numeric\n";
  }
  arff += "@attribute target {0,1}\n@data\n";
  for (size_t i = 0; i < toy.size(); ++i) {
    for (size_t t = 0; t < 12; ++t) {
      arff += std::to_string(toy.instance(i).at(0, t)) + ",";
    }
    arff += std::to_string(toy.label(i)) + "\n";
  }
  auto loaded = ParseArff(arff);
  ASSERT_TRUE(loaded.ok());
  auto model = testing::CreateComposed("minirocket+prob");
  ASSERT_TRUE(model->Fit(*loaded).ok());
  EXPECT_GE(testing::EarlyAccuracy(*model, *loaded), 0.9);
}

}  // namespace
}  // namespace etsc
