#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "algos/ects.h"
#include "algos/edsc.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

using testing::CreateComposed;
using testing::EarlyAccuracy;
using testing::MakeToyDataset;
using testing::MakeToyMultivariate;
using testing::TriggerOf;

const std::vector<size_t>& Mpls(const EarlyClassifier& model) {
  return TriggerOf<EctsMplTrigger>(model).mpls();
}

TEST(Ects, MplsWithinRange) {
  Dataset d = MakeToyDataset(15, 20);
  auto model = CreateComposed("ects");
  ASSERT_TRUE(model->Fit(d).ok());
  ASSERT_EQ(Mpls(*model).size(), d.size());
  for (size_t mpl : Mpls(*model)) {
    EXPECT_GE(mpl, 1u);
    EXPECT_LE(mpl, 20u);
  }
}

TEST(Ects, EarlySignalGivesEarlyPredictions) {
  // Signal present from t = 0: MPLs should be well below the full length,
  // so mean earliness stays below 1.
  Dataset d = MakeToyDataset(20, 40, /*signal_start=*/0.0, 3, 0.05);
  auto model = CreateComposed("ects");
  ASSERT_TRUE(model->Fit(d).ok());
  double earliness = 0.0;
  for (size_t i = 0; i < d.size(); ++i) {
    auto pred = model->PredictEarly(d.instance(i));
    ASSERT_TRUE(pred.ok());
    earliness += static_cast<double>(pred->prefix_length) / 40.0;
  }
  earliness /= static_cast<double>(d.size());
  EXPECT_LT(earliness, 0.9);
}

TEST(Ects, LateSignalDelaysPredictions) {
  // Classes identical until 60% of the horizon: accurate prediction requires
  // prefixes reaching into the signal.
  Dataset d = MakeToyDataset(20, 40, /*signal_start=*/0.6, 3, 0.05);
  auto model = CreateComposed("ects");
  ASSERT_TRUE(model->Fit(d).ok());
  EXPECT_GE(EarlyAccuracy(*model, d), 0.9);
}

TEST(Ects, RejectsMultivariateAndTinyInput) {
  auto model = CreateComposed("ects");
  EXPECT_FALSE(model->Fit(MakeToyMultivariate(5, 10)).ok());
  Dataset one("x", {TimeSeries::Univariate({1, 2})}, {0});
  EXPECT_FALSE(model->Fit(one).ok());
}

TEST(Ects, PredictBeforeFitFails) {
  auto model = CreateComposed("ects");
  EXPECT_FALSE(model->PredictEarly(TimeSeries::Univariate({1.0})).ok());
}

TEST(Ects, BudgetExhaustionReported) {
  Dataset d = MakeToyDataset(40, 60);
  auto model = CreateComposed("ects");
  model->set_train_budget_seconds(0.0);
  const Status status = model->Fit(d);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(Ects, SupportParameterRaisesMpl) {
  Dataset d = MakeToyDataset(15, 20);
  EctsOptions strict;
  strict.support = 1000;  // impossible support -> RNN rule never fires
  auto lax = CreateComposed("ects");
  auto hard = testing::Compose("ECTS", nullptr,
                               std::make_unique<EctsMplTrigger>(strict));
  ASSERT_TRUE(lax->Fit(d).ok());
  ASSERT_TRUE(hard->Fit(d).ok());
  // With impossible support, per-series MPLs can only come from clustering,
  // never lower than the lax variant on average.
  double lax_sum = 0, hard_sum = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    lax_sum += static_cast<double>(Mpls(*lax)[i]);
    hard_sum += static_cast<double>(Mpls(*hard)[i]);
  }
  EXPECT_GE(hard_sum, lax_sum);
}

TEST(Edsc, ShapeletTriplesWellFormed) {
  Dataset d = MakeToyDataset(15, 24);
  EdscClassifier model;
  ASSERT_TRUE(model.Fit(d).ok());
  ASSERT_FALSE(model.shapelets().empty());
  for (const auto& s : model.shapelets()) {
    EXPECT_GE(s.pattern.size(), 5u);   // minLen
    EXPECT_LE(s.pattern.size(), 12u);  // maxLen = L/2
    EXPECT_GT(s.threshold, 0.0);
    EXPECT_GT(s.utility, 0.0);
    EXPECT_GT(s.precision, 0.0);
    EXPECT_LE(s.precision, 1.0);
  }
}

TEST(Edsc, ShapeletsSortedByUtility) {
  Dataset d = MakeToyDataset(15, 24);
  EdscClassifier model;
  ASSERT_TRUE(model.Fit(d).ok());
  const auto& shapelets = model.shapelets();
  for (size_t i = 1; i < shapelets.size(); ++i) {
    EXPECT_LE(shapelets[i].utility, shapelets[i - 1].utility);
  }
}

TEST(Edsc, EarlyPredictionsBeforeFullLength) {
  Dataset d = MakeToyDataset(20, 40, 0.0, 3, 0.05);
  EdscOptions options;
  options.start_stride = 2;
  EdscClassifier model(options);
  ASSERT_TRUE(model.Fit(d).ok());
  size_t early = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    auto pred = model.PredictEarly(d.instance(i));
    ASSERT_TRUE(pred.ok());
    if (pred->prefix_length < 40) ++early;
  }
  EXPECT_GT(early, d.size() / 2);
}

TEST(Edsc, MaxLengthFractionRespected) {
  Dataset d = MakeToyDataset(10, 30);
  EdscOptions options;
  options.max_length_fraction = 0.2;  // maxLen = 6
  EdscClassifier model(options);
  ASSERT_TRUE(model.Fit(d).ok());
  for (const auto& s : model.shapelets()) {
    EXPECT_LE(s.pattern.size(), 6u);
  }
}

TEST(Edsc, BudgetExhaustionReported) {
  Dataset d = MakeToyDataset(30, 60);
  EdscClassifier model;
  model.set_train_budget_seconds(0.0);
  const Status status = model.Fit(d);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
}

TEST(Edsc, RejectsMultivariate) {
  EdscClassifier model;
  EXPECT_FALSE(model.Fit(MakeToyMultivariate(5, 20)).ok());
}

TEST(Edsc, PredictBeforeFitFails) {
  EdscClassifier model;
  EXPECT_FALSE(model.PredictEarly(TimeSeries::Univariate({1.0})).ok());
}

TEST(Edsc, StrideControlsCandidateCount) {
  Dataset d = MakeToyDataset(10, 30);
  EdscOptions dense_opts;
  dense_opts.max_shapelets = 100000;
  EdscOptions sparse_opts = dense_opts;
  sparse_opts.start_stride = 5;
  sparse_opts.length_stride = 5;
  EdscClassifier dense(dense_opts), sparse(sparse_opts);
  ASSERT_TRUE(dense.Fit(d).ok());
  ASSERT_TRUE(sparse.Fit(d).ok());
  // The greedy cover keeps few shapelets either way, but the sparse variant
  // cannot keep more than the dense one found.
  EXPECT_LE(sparse.shapelets().size(), dense.shapelets().size() + 5);
}

}  // namespace
}  // namespace etsc
