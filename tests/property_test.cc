// Property-style parameterized sweeps (TEST_P) over the framework's
// invariants: metric bounds, split invariants, transform identities and the
// EarlyClassifier contract for every registered algorithm.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>

#include "algos/registrations.h"
#include "core/metrics.h"
#include "core/registry.h"
#include "core/rng.h"
#include "core/voting.h"
#include "ml/fourier.h"
#include "ml/kmeans.h"
#include "ml/sfa.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

// ---------------------------------------------------------------- metrics

class MetricBoundsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricBoundsTest, AllScoresWithinBounds) {
  Rng rng(GetParam());
  const size_t n = 5 + rng.Index(50);
  const size_t num_classes = 2 + rng.Index(5);
  std::vector<int> truth(n), predicted(n);
  std::vector<size_t> prefixes(n), lengths(n);
  for (size_t i = 0; i < n; ++i) {
    truth[i] = static_cast<int>(rng.Index(num_classes));
    predicted[i] = static_cast<int>(rng.Index(num_classes));
    lengths[i] = 1 + rng.Index(100);
    prefixes[i] = 1 + rng.Index(lengths[i]);
  }
  const EvalScores scores = ComputeScores(truth, predicted, prefixes, lengths);
  EXPECT_GE(scores.accuracy, 0.0);
  EXPECT_LE(scores.accuracy, 1.0);
  EXPECT_GE(scores.f1, 0.0);
  EXPECT_LE(scores.f1, 1.0);
  EXPECT_GT(scores.earliness, 0.0);
  EXPECT_LE(scores.earliness, 1.0);
  EXPECT_GE(scores.harmonic_mean, 0.0);
  EXPECT_LE(scores.harmonic_mean, 1.0);
  // The harmonic mean of accuracy and timeliness lies between them (and is
  // zero when either is zero).
  const double lo = std::min(scores.accuracy, 1.0 - scores.earliness);
  const double hi = std::max(scores.accuracy, 1.0 - scores.earliness);
  if (lo <= 0.0) {
    EXPECT_DOUBLE_EQ(scores.harmonic_mean, 0.0);
  } else {
    EXPECT_GE(scores.harmonic_mean, lo - 1e-12);
    EXPECT_LE(scores.harmonic_mean, hi + 1e-12);
  }
}

TEST_P(MetricBoundsTest, PerfectPredictionMaximisesAccuracy) {
  Rng rng(GetParam() + 1000);
  const size_t n = 5 + rng.Index(30);
  std::vector<int> truth(n);
  for (auto& t : truth) t = static_cast<int>(rng.Index(3));
  const ConfusionMatrix cm(truth, truth);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(cm.MacroF1(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricBoundsTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------------------------ splits

class KFoldPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KFoldPropertyTest, PartitionAndStratification) {
  const size_t k = GetParam();
  Dataset d = testing::MakeToyDataset(4 * k, 8);  // 4k per class
  Rng rng(17);
  const auto folds = StratifiedKFold(d, k, &rng);
  ASSERT_EQ(folds.size(), k);
  std::set<size_t> seen;
  for (const auto& fold : folds) {
    EXPECT_EQ(fold.test.size(), 8u);  // 2 classes x 4 each
    for (size_t i : fold.test) EXPECT_TRUE(seen.insert(i).second);
    size_t zeros = 0;
    for (size_t i : fold.test) zeros += d.label(i) == 0 ? 1 : 0;
    EXPECT_EQ(zeros, 4u);
  }
  EXPECT_EQ(seen.size(), d.size());
}

INSTANTIATE_TEST_SUITE_P(FoldCounts, KFoldPropertyTest,
                         ::testing::Values(2, 3, 4, 5, 8));

// --------------------------------------------------------- transform sweeps

struct DftParam {
  size_t window;
  size_t coefficients;
  bool drop_first;
};

class SlidingDftPropertyTest : public ::testing::TestWithParam<DftParam> {};

TEST_P(SlidingDftPropertyTest, MatchesDirectDftEverywhere) {
  const DftParam param = GetParam();
  Rng rng(23);
  std::vector<double> series(param.window * 3);
  for (double& v : series) v = rng.Gaussian();
  const auto sliding =
      SlidingDft(series, param.window, param.coefficients, param.drop_first);
  const size_t row = 2 * param.coefficients;
  ASSERT_EQ(sliding.size(), (series.size() - param.window + 1) * row);
  for (size_t s = 0; s < sliding.size() / row; s += 3) {
    const std::vector<double> window(series.begin() + s,
                                     series.begin() + s + param.window);
    const auto direct =
        DftCoefficients(window, param.coefficients, param.drop_first);
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_NEAR(sliding[s * row + i], direct[i], 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SlidingDftPropertyTest,
    ::testing::Values(DftParam{8, 2, false}, DftParam{8, 2, true},
                      DftParam{16, 4, false}, DftParam{16, 4, true},
                      DftParam{25, 3, true}, DftParam{32, 8, false}));

struct SfaParam {
  size_t word_length;
  size_t alphabet;
  SfaBinning binning;
};

class SfaPropertyTest : public ::testing::TestWithParam<SfaParam> {};

TEST_P(SfaPropertyTest, WordsWithinBitBudgetAndDeterministic) {
  const SfaParam param = GetParam();
  SfaOptions options;
  options.word_length = param.word_length;
  options.alphabet_size = param.alphabet;
  options.binning = param.binning;
  Sfa sfa(options);

  Rng rng(29);
  std::vector<std::vector<double>> windows(40, std::vector<double>(16));
  std::vector<int> labels(40);
  for (size_t i = 0; i < windows.size(); ++i) {
    labels[i] = static_cast<int>(i % 2);
    for (double& v : windows[i]) {
      v = rng.Gaussian(labels[i] == 0 ? 0.0 : 2.0, 1.0);
    }
  }
  const std::vector<std::span<const double>> views(windows.begin(), windows.end());
  ASSERT_TRUE(sfa.Fit(views, 16, labels).ok());
  size_t bits = 1;
  while ((1u << bits) < param.alphabet) ++bits;
  for (const auto& w : windows) {
    const uint64_t word = sfa.Word(w);
    EXPECT_LT(word, 1ull << (bits * param.word_length));
    EXPECT_EQ(word, sfa.Word(w));  // deterministic
  }
  // Every learned bin boundary list is sorted.
  for (const auto& bounds : sfa.bins()) {
    EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
    EXPECT_LE(bounds.size(), param.alphabet - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SfaPropertyTest,
    ::testing::Values(SfaParam{2, 2, SfaBinning::kInformationGain},
                      SfaParam{4, 4, SfaBinning::kInformationGain},
                      SfaParam{6, 4, SfaBinning::kInformationGain},
                      SfaParam{4, 8, SfaBinning::kInformationGain},
                      SfaParam{4, 4, SfaBinning::kEquiDepth},
                      SfaParam{8, 2, SfaBinning::kEquiDepth}));

// ----------------------------------------------------------------- k-means

class KMeansPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KMeansPropertyTest, MoreClustersNeverIncreaseInertia) {
  Rng gen(31);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 60; ++i) {
    points.push_back({gen.Gaussian(0, 5), gen.Gaussian(0, 5)});
  }
  const size_t k = GetParam();
  KMeansOptions single;
  single.num_clusters = 1;
  KMeansOptions multi;
  multi.num_clusters = k;
  Rng rng1(7), rng2(7);
  auto one = KMeansFit(points, single, &rng1);
  auto many = KMeansFit(points, multi, &rng2);
  ASSERT_TRUE(one.ok() && many.ok());
  // k = 1 is the global mean: any k >= 1 local optimum has at most that
  // inertia (k-means++ guarantees at-least-one-centre-per-chosen-seed).
  EXPECT_LE(many->inertia, one->inertia + 1e-9);
  // Every assignment refers to an existing centroid.
  for (size_t a : many->assignments) EXPECT_LT(a, many->centroids.size());
}

INSTANTIATE_TEST_SUITE_P(ClusterCounts, KMeansPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// ------------------------------------------- EarlyClassifier contract sweep

class AlgorithmContractTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { RegisterBuiltinClassifiers(); }
};

TEST_P(AlgorithmContractTest, FitPredictContract) {
  auto model_result = ClassifierRegistry::Global().Create(GetParam());
  ASSERT_TRUE(model_result.ok());
  std::unique_ptr<EarlyClassifier> model = std::move(*model_result);

  Dataset train = testing::MakeToyDataset(12, 24, 0.0, 41);
  Dataset test = testing::MakeToyDataset(6, 24, 0.0, 43);
  ASSERT_TRUE(model->Fit(train).ok()) << GetParam();

  const std::set<int> valid_labels{0, 1};
  for (size_t i = 0; i < test.size(); ++i) {
    auto pred = model->PredictEarly(test.instance(i));
    ASSERT_TRUE(pred.ok()) << GetParam();
    EXPECT_TRUE(valid_labels.count(pred->label)) << GetParam();
    EXPECT_GE(pred->prefix_length, 1u);
    EXPECT_LE(pred->prefix_length, test.instance(i).length());
  }
}

TEST_P(AlgorithmContractTest, DeterministicAcrossIdenticalRuns) {
  auto a = ClassifierRegistry::Global().Create(GetParam());
  auto b = ClassifierRegistry::Global().Create(GetParam());
  ASSERT_TRUE(a.ok() && b.ok());
  Dataset train = testing::MakeToyDataset(10, 20, 0.0, 47);
  Dataset test = testing::MakeToyDataset(5, 20, 0.0, 53);
  ASSERT_TRUE((*a)->Fit(train).ok());
  ASSERT_TRUE((*b)->Fit(train).ok());
  for (size_t i = 0; i < test.size(); ++i) {
    auto pa = (*a)->PredictEarly(test.instance(i));
    auto pb = (*b)->PredictEarly(test.instance(i));
    ASSERT_TRUE(pa.ok() && pb.ok());
    EXPECT_EQ(pa->label, pb->label) << GetParam();
    EXPECT_EQ(pa->prefix_length, pb->prefix_length) << GetParam();
  }
}

TEST_P(AlgorithmContractTest, CloneUntrainedIsIndependent) {
  auto model = ClassifierRegistry::Global().Create(GetParam());
  ASSERT_TRUE(model.ok());
  auto clone = (*model)->CloneUntrained();
  // The clone must be untrained...
  EXPECT_FALSE(clone->PredictEarly(TimeSeries::Univariate(
                        std::vector<double>(20, 0.0)))
                   .ok());
  // ...and trainable on its own.
  Dataset train = testing::MakeToyDataset(10, 20, 0.0, 59);
  ASSERT_TRUE(clone->Fit(train).ok()) << GetParam();
}

TEST_P(AlgorithmContractTest, MultivariateThroughVotingWrapper) {
  auto model = ClassifierRegistry::Global().Create(GetParam());
  ASSERT_TRUE(model.ok());
  Dataset mv_train = testing::MakeToyMultivariate(10, 16, 2, 61);
  Dataset mv_test = testing::MakeToyMultivariate(4, 16, 2, 67);
  auto wrapped = WrapForDataset(std::move(*model), mv_train);
  ASSERT_TRUE(wrapped->Fit(mv_train).ok()) << GetParam();
  for (size_t i = 0; i < mv_test.size(); ++i) {
    auto pred = wrapped->PredictEarly(mv_test.instance(i));
    ASSERT_TRUE(pred.ok()) << GetParam();
    EXPECT_LE(pred->prefix_length, mv_test.instance(i).length());
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmContractTest,
                         ::testing::Values("ecec", "economy-k", "ects", "edsc",
                                           "teaser", "s-weasel", "s-mini"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// s-mlstm is excluded from the sweep above only for runtime; its contract is
// covered once here.
TEST(AlgorithmContractMlstm, FitPredictContract) {
  RegisterBuiltinClassifiers();
  auto model = ClassifierRegistry::Global().Create("s-mlstm");
  ASSERT_TRUE(model.ok());
  Dataset train = testing::MakeToyDataset(8, 16, 0.0, 71);
  ASSERT_TRUE((*model)->Fit(train).ok());
  auto pred = (*model)->PredictEarly(train.instance(0));
  ASSERT_TRUE(pred.ok());
  EXPECT_LE(pred->prefix_length, 16u);
}

}  // namespace
}  // namespace etsc
