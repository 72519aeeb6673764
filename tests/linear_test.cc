#include "ml/linear.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"

namespace etsc {
namespace {

TEST(SparseVector, DotIgnoresOutOfRange) {
  SparseVector v;
  v.Add(0, 2.0);
  v.Add(9, 5.0);
  EXPECT_DOUBLE_EQ(v.Dot({3.0, 1.0}), 6.0);
}

TEST(SparseVector, L2Norm) {
  SparseVector v;
  v.Add(0, 3.0);
  v.Add(1, 4.0);
  EXPECT_DOUBLE_EQ(v.L2Norm(), 5.0);
}

TEST(LogisticRegression, SeparatesLinearlySeparable) {
  Rng rng(31);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 100; ++i) {
    const double v = rng.Uniform(-1, 1);
    x.push_back({v, rng.Gaussian(0, 0.1)});
    y.push_back(v > 0 ? 1 : -1);
  }
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());
  auto pred = model.Predict({0.9, 0.0});
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(*pred, 1);
  pred = model.Predict({-0.9, 0.0});
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(*pred, -1);
}

TEST(LogisticRegression, MulticlassSoftmaxSane) {
  Rng rng(32);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 30; ++i) {
      x.push_back({static_cast<double>(c) + rng.Gaussian(0, 0.1)});
      y.push_back(c);
    }
  }
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(x, y, &rng).ok());
  auto proba = model.PredictProba({1.0});
  ASSERT_TRUE(proba.ok());
  ASSERT_EQ(proba->size(), 3u);
  double total = 0.0;
  for (double p : *proba) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT((*proba)[1], (*proba)[0]);
  EXPECT_GT((*proba)[1], (*proba)[2]);
}

TEST(LogisticRegression, SparseFitMatchesUsage) {
  Rng rng(33);
  std::vector<SparseVector> rows(40);
  std::vector<int> y(40);
  for (int i = 0; i < 40; ++i) {
    const bool positive = i % 2 == 0;
    rows[i].Add(positive ? 0 : 1, 1.0);
    y[i] = positive ? 1 : 0;
  }
  LogisticRegression model;
  ASSERT_TRUE(model.FitSparse(rows, 2, y, &rng).ok());
  SparseVector q;
  q.Add(0, 1.0);
  auto pred = model.PredictSparse(q);
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(*pred, 1);
}

TEST(LogisticRegression, RequiresRng) {
  LogisticRegression model;
  EXPECT_FALSE(model.Fit({{1.0}}, {0}, nullptr).ok());
}

TEST(LogisticRegression, PredictBeforeFitFails) {
  LogisticRegression model;
  EXPECT_FALSE(model.Predict({1.0}).ok());
}

TEST(SolveSpdFn, SolvesIdentity) {
  std::vector<double> x;
  ASSERT_TRUE(SolveSpd({{1.0, 0.0}, {0.0, 1.0}}, {3.0, 4.0}, &x).ok());
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 4.0, 1e-12);
}

TEST(SolveSpdFn, SolvesGeneralSpd) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5].
  std::vector<double> x;
  ASSERT_TRUE(SolveSpd({{4.0, 2.0}, {2.0, 3.0}}, {10.0, 8.0}, &x).ok());
  EXPECT_NEAR(4 * x[0] + 2 * x[1], 10.0, 1e-9);
  EXPECT_NEAR(2 * x[0] + 3 * x[1], 8.0, 1e-9);
}

TEST(SolveSpdFn, RejectsIndefinite) {
  std::vector<double> x;
  EXPECT_FALSE(SolveSpd({{0.0, 0.0}, {0.0, 0.0}}, {1.0, 1.0}, &x).ok());
}

TEST(SolveSpdFn, RejectsBadDimensions) {
  std::vector<double> x;
  EXPECT_FALSE(SolveSpd({{1.0}}, {1.0, 2.0}, &x).ok());
}

TEST(RidgeClassifier, PrimalPathSeparates) {
  // More samples than features -> primal normal equations.
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 50; ++i) {
    const double v = i < 25 ? -1.0 : 1.0;
    x.push_back({v + 0.01 * i, 1.0});
    y.push_back(v < 0 ? 0 : 1);
  }
  RidgeClassifier model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  auto pred = model.Predict({-1.0, 1.0});
  ASSERT_TRUE(pred.ok());
  EXPECT_EQ(*pred, 0);
}

TEST(RidgeClassifier, DualPathSeparates) {
  // Fewer samples than features -> dual (Gram) system.
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(34);
  for (int i = 0; i < 10; ++i) {
    std::vector<double> row(30, 0.0);
    for (auto& v : row) v = rng.Gaussian(0, 0.05);
    row[0] = i < 5 ? -1.0 : 1.0;
    x.push_back(std::move(row));
    y.push_back(i < 5 ? 0 : 1);
  }
  RidgeClassifier model;
  ASSERT_TRUE(model.Fit(x, y).ok());
  size_t correct = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    auto pred = model.Predict(x[i]);
    if (pred.ok() && *pred == y[i]) ++correct;
  }
  EXPECT_EQ(correct, x.size());
}

TEST(RidgeClassifier, ProbaSumsToOne) {
  RidgeClassifier model;
  ASSERT_TRUE(model.Fit({{0.0}, {1.0}, {2.0}, {3.0}}, {0, 0, 1, 1}).ok());
  auto proba = model.PredictProba({1.5});
  ASSERT_TRUE(proba.ok());
  EXPECT_NEAR((*proba)[0] + (*proba)[1], 1.0, 1e-9);
}

TEST(RidgeClassifier, InputValidation) {
  RidgeClassifier model;
  EXPECT_FALSE(model.Fit({}, {}).ok());
  EXPECT_FALSE(model.Fit({{1.0}}, {0, 1}).ok());
  EXPECT_FALSE(model.Predict({1.0}).ok());
}

}  // namespace
}  // namespace etsc
