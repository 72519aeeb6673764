// The SIMD substrate's contract (DESIGN.md sec 13): every kernel is
// bit-identical between the explicit-vector path and the always-built scalar
// reference (ETSC_SIMD=0), the SoA storage keeps padding invisible (golden
// fingerprints from the pre-SoA layout reproduce exactly), and whole
// evaluations are unchanged by the kernel path or the thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "algos/ects.h"
#include "core/arff.h"
#include "core/csv.h"
#include "core/dataset.h"
#include "core/evaluation.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/simd.h"
#include "core/time_series.h"
#include "ml/distance.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<double> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.Gaussian();
  return out;
}

/// Forces the dispatch path for the lifetime of a scope, then re-reads the
/// environment (so tests cannot leak a forced path into each other).
class ScopedSimd {
 public:
  explicit ScopedSimd(int enabled) { simd::SetEnabledForTest(enabled); }
  ~ScopedSimd() { simd::SetEnabledForTest(-1); }
};

// ---------------------------------------------------------------------------
// Kernel bit-exactness: vector dispatch vs the scalar reference
// ---------------------------------------------------------------------------

TEST(SimdKernels, SumSqDiffMatchesScalarBitForBit) {
  ScopedSimd on(1);
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 15u, 16u, 17u, 31u, 64u, 257u}) {
    const auto a = RandomVec(n, 1000 + n);
    const auto b = RandomVec(n, 2000 + n);
    const double vec = simd::SumSqDiff(a.data(), b.data(), n);
    const double ref = simd::scalar::SumSqDiff(a.data(), b.data(), n);
    EXPECT_TRUE(SameBits(vec, ref)) << "n=" << n;
  }
}

TEST(SimdKernels, MinSubseriesSqMatchesScalarIncludingCounters) {
  ScopedSimd on(1);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t m : {1u, 4u, 7u, 16u, 19u, 33u, 64u}) {
    for (size_t n : {64u, 100u, 257u}) {
      const auto pattern = RandomVec(m, 10 * m + n);
      const auto series = RandomVec(n, 20 * m + n);
      for (double bound : {kInf, 30.0, 5.0, 0.5}) {
        uint64_t vw = 0, va = 0, sw = 0, sa = 0;
        const double vec = simd::MinSubseriesSq(pattern.data(), m,
                                                series.data(), n, bound, &vw,
                                                &va);
        const double ref = simd::scalar::MinSubseriesSq(
            pattern.data(), m, series.data(), n, bound, &sw, &sa);
        EXPECT_TRUE(SameBits(vec, ref)) << "m=" << m << " n=" << n;
        EXPECT_EQ(vw, sw) << "windows m=" << m << " n=" << n;
        EXPECT_EQ(va, sa) << "abandoned m=" << m << " n=" << n;
      }
    }
  }
}

TEST(SimdKernels, AxpyCountGreaterRotateMatchScalar) {
  ScopedSimd on(1);
  for (size_t n : {1u, 4u, 13u, 64u, 100u}) {
    const auto x = RandomVec(n, 3000 + n);
    auto out_v = RandomVec(n, 4000 + n);
    auto out_s = out_v;
    simd::Axpy(1.75, x.data(), out_v.data(), n);
    simd::scalar::Axpy(1.75, x.data(), out_s.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(SameBits(out_v[i], out_s[i])) << "axpy n=" << n << " i=" << i;
    }

    EXPECT_EQ(simd::CountGreater(x.data(), n, 0.25),
              simd::scalar::CountGreater(x.data(), n, 0.25));

    const auto cos_t = RandomVec(n, 5000 + n);
    const auto sin_t = RandomVec(n, 6000 + n);
    auto re_v = RandomVec(n, 7000 + n);
    auto im_v = RandomVec(n, 8000 + n);
    auto re_s = re_v;
    auto im_s = im_v;
    simd::RotatePhasors(cos_t.data(), sin_t.data(), 0.375, re_v.data(),
                        im_v.data(), n);
    simd::scalar::RotatePhasors(cos_t.data(), sin_t.data(), 0.375, re_s.data(),
                                im_s.data(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(SameBits(re_v[i], re_s[i])) << "re n=" << n << " i=" << i;
      EXPECT_TRUE(SameBits(im_v[i], im_s[i])) << "im n=" << n << " i=" << i;
    }
  }
}

TEST(SimdKernels, SplitScanMatchesScalar) {
  ScopedSimd on(1);
  for (size_t n : {2u, 8u, 37u, 100u, 513u}) {
    auto xv = RandomVec(n, 9000 + n);
    std::sort(xv.begin(), xv.end());
    // Duplicate a run of values so the equal-values guard is exercised.
    if (n >= 8) std::fill(xv.begin() + 2, xv.begin() + 6, xv[2]);
    const auto g = RandomVec(n, 10000 + n);
    std::vector<double> pg(n), ph(n);
    double tg = 0.0, th = 0.0;
    for (size_t i = 0; i < n; ++i) {
      tg += g[i];
      th += 1.0;
      pg[i] = tg;
      ph[i] = th;
    }
    const double parent = tg * tg / th;
    for (size_t leaf : {0u, 1u, 5u}) {
      const simd::SplitScanBest vec =
          simd::SplitScan(xv.data(), pg.data(), ph.data(), n, tg, th, parent,
                          leaf);
      const simd::SplitScanBest ref = simd::scalar::SplitScan(
          xv.data(), pg.data(), ph.data(), n, tg, th, parent, leaf);
      EXPECT_TRUE(SameBits(vec.gain, ref.gain)) << "n=" << n << " leaf=" << leaf;
      EXPECT_EQ(vec.pos, ref.pos) << "n=" << n << " leaf=" << leaf;
    }
  }
}

TEST(SimdKernels, DisabledPathUsesScalarIsa) {
  {
    ScopedSimd off(0);
    EXPECT_FALSE(simd::Enabled());
    EXPECT_STREQ(simd::ActiveIsa(), "scalar");
  }
  if (std::string(simd::CompiledIsa()) != "scalar") {
    ScopedSimd on(1);
    EXPECT_TRUE(simd::Enabled());
    EXPECT_STREQ(simd::ActiveIsa(), simd::CompiledIsa());
  }
}

// ---------------------------------------------------------------------------
// ETSC_SIMD environment validation (same contract as ETSC_THREADS)
// ---------------------------------------------------------------------------

class SimdEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ::unsetenv("ETSC_SIMD");
    simd::SetEnabledForTest(-1);
  }
  /// Re-reads ETSC_SIMD from the environment and reports the decision.
  bool EnabledFromEnv(const char* value) {
    if (value == nullptr) {
      ::unsetenv("ETSC_SIMD");
    } else {
      ::setenv("ETSC_SIMD", value, 1);
    }
    simd::SetEnabledForTest(-1);
    return simd::Enabled();
  }
};

TEST_F(SimdEnvTest, ParsesAndValidates) {
  if (std::string(simd::CompiledIsa()) == "scalar") {
    GTEST_SKIP() << "no vector ISA in this build";
  }
  EXPECT_TRUE(EnabledFromEnv(nullptr));   // unset: default on
  EXPECT_TRUE(EnabledFromEnv(""));        // empty: default on
  EXPECT_FALSE(EnabledFromEnv("0"));
  EXPECT_TRUE(EnabledFromEnv("1"));
  EXPECT_FALSE(EnabledFromEnv("0 "));     // trailing whitespace tolerated
  // Garbage keeps the default instead of silently flipping the path.
  EXPECT_TRUE(EnabledFromEnv("yes"));
  EXPECT_TRUE(EnabledFromEnv("01x"));
  EXPECT_TRUE(EnabledFromEnv("2"));
  EXPECT_TRUE(EnabledFromEnv("-1"));
  EXPECT_TRUE(EnabledFromEnv("99999999999999999999999999"));
}

TEST_F(SimdEnvTest, WhitespaceTolerantZeroDisables) {
  if (std::string(simd::CompiledIsa()) == "scalar") {
    GTEST_SKIP() << "no vector ISA in this build";
  }
  EXPECT_FALSE(EnabledFromEnv("0"));
  EXPECT_FALSE(EnabledFromEnv("0\t"));
}

// ---------------------------------------------------------------------------
// Whole-evaluation invariance: kernel path and thread count change nothing
// ---------------------------------------------------------------------------

EvalScores RunEcts(const Dataset& data) {
  auto ects = testing::CreateComposed("ects");
  EvaluationOptions options;
  options.num_folds = 3;
  const EvaluationResult result = CrossValidate(data, *ects, options);
  for (const auto& fold : result.folds) EXPECT_TRUE(fold.trained);
  return result.MeanScores();
}

TEST(SimdEquivalence, EvalScoresIdenticalAcrossSimdAndThreads) {
  const Dataset data = testing::MakeToyDataset(12, 32);
  EvalScores scalar_scores, simd_scores, parallel_scores;
  {
    ScopedSimd off(0);
    scalar_scores = RunEcts(data);
  }
  {
    ScopedSimd on(1);
    simd_scores = RunEcts(data);
    SetMaxParallelism(4);
    parallel_scores = RunEcts(data);
    SetMaxParallelism(0);
  }
  EXPECT_TRUE(SameBits(scalar_scores.accuracy, simd_scores.accuracy));
  EXPECT_TRUE(SameBits(scalar_scores.f1, simd_scores.f1));
  EXPECT_TRUE(SameBits(scalar_scores.earliness, simd_scores.earliness));
  EXPECT_TRUE(
      SameBits(scalar_scores.harmonic_mean, simd_scores.harmonic_mean));
  EXPECT_TRUE(SameBits(simd_scores.accuracy, parallel_scores.accuracy));
  EXPECT_TRUE(SameBits(simd_scores.f1, parallel_scores.f1));
  EXPECT_TRUE(SameBits(simd_scores.earliness, parallel_scores.earliness));
  EXPECT_TRUE(
      SameBits(simd_scores.harmonic_mean, parallel_scores.harmonic_mean));
}

TEST(SimdEquivalence, DistanceFrontEndIdenticalAcrossPaths) {
  const auto pattern = RandomVec(23, 77);
  const auto series = RandomVec(301, 78);
  double on_full, on_ea, off_full, off_ea;
  {
    ScopedSimd on(1);
    on_full = MinSubseriesDistanceSq(pattern, series);
    on_ea = MinSubseriesDistanceSqEarlyAbandon(pattern, series, on_full * 1.01);
  }
  {
    ScopedSimd off(0);
    off_full = MinSubseriesDistanceSq(pattern, series);
    off_ea =
        MinSubseriesDistanceSqEarlyAbandon(pattern, series, off_full * 1.01);
  }
  EXPECT_TRUE(SameBits(on_full, off_full));
  EXPECT_TRUE(SameBits(on_ea, off_ea));
}

// ---------------------------------------------------------------------------
// SoA layout invariants
// ---------------------------------------------------------------------------

TEST(SoaLayout, StrideIsPaddedAndPaddingInvisible) {
  for (size_t len : {0u, 1u, 3u, 4u, 5u, 17u}) {
    TimeSeries ts(2, len);
    EXPECT_EQ(ts.stride(), PaddedLength(len));
    EXPECT_EQ(ts.stride() % kSimdWidthDoubles, 0u);
    EXPECT_EQ(ts.channel(0).size(), len);
    EXPECT_EQ(ts.channel(1).size(), len);
  }
  // Padding bytes never reach the logical values or the fingerprint.
  TimeSeries a = TimeSeries::Univariate({1.0, 2.0, 3.0});
  EXPECT_EQ(a.length(), 3u);
  EXPECT_EQ(a.stride(), 4u);
  EXPECT_EQ(a.channel(0)[2], 3.0);
}

TEST(SoaLayout, AppendObservationGrowsAndClearRezeroes) {
  TimeSeries ts(2, 0);
  for (size_t t = 0; t < 19; ++t) {
    ts.AppendObservation({static_cast<double>(t), -static_cast<double>(t)});
    EXPECT_EQ(ts.length(), t + 1);
    EXPECT_EQ(ts.stride() % kSimdWidthDoubles, 0u);
    EXPECT_GE(ts.stride(), ts.length());
  }
  for (size_t t = 0; t < 19; ++t) {
    EXPECT_EQ(ts.at(0, t), static_cast<double>(t));
    EXPECT_EQ(ts.at(1, t), -static_cast<double>(t));
  }
  ts.ClearValues();
  EXPECT_EQ(ts.length(), 0u);
  EXPECT_EQ(ts.num_variables(), 2u);
  ts.AppendObservation({5.0, 6.0});
  EXPECT_EQ(ts.at(0, 0), 5.0);
  EXPECT_EQ(ts.at(1, 0), 6.0);
}

TEST(SoaLayout, DatasetViewsAliasThePoolAndCopiesDetach) {
  Dataset data = testing::MakeToyDataset(3, 10);
  // instance(i) is a view into the shared pool...
  EXPECT_FALSE(data.instance(0).owns_storage());
  // ...and copying it out detaches into owning storage with equal values.
  TimeSeries copy = data.instance(1);
  EXPECT_TRUE(copy.owns_storage());
  ASSERT_EQ(copy.length(), data.instance(1).length());
  for (size_t t = 0; t < copy.length(); ++t) {
    EXPECT_EQ(copy.at(0, t), data.instance(1).at(0, t));
  }
  // Copying the dataset re-targets views into the new pool.
  Dataset clone = data;
  EXPECT_NE(clone.instance(0).channel_data(0), data.instance(0).channel_data(0));
  EXPECT_EQ(clone.Fingerprint(), data.Fingerprint());
}

TEST(SoaLayout, AddingAViewOfTheSamePoolIsSafe) {
  Dataset data = testing::MakeToyDataset(2, 8);
  // Adding a view of this dataset's own pool must deep-copy before the pool
  // grows underneath it.
  for (int i = 0; i < 10; ++i) {
    data.Add(data.instance(0), 7);
  }
  EXPECT_EQ(data.size(), 14u);
  for (size_t i = 4; i < 14; ++i) {
    ASSERT_EQ(data.instance(i).length(), data.instance(0).length());
    for (size_t t = 0; t < data.instance(0).length(); ++t) {
      EXPECT_EQ(data.instance(i).at(0, t), data.instance(0).at(0, t));
    }
    EXPECT_EQ(data.label(i), 7);
  }
}

// ---------------------------------------------------------------------------
// Golden fingerprints: the SoA layout must hash exactly like the pre-SoA
// array-of-structures layout. Values captured from the pre-SoA tree compiled
// with the repo's own flags (-O3 -march=native — the toy generators are
// inline, so their low-order FP bits depend on the instantiating TU's
// contraction choices; capture goldens with matching flags).
// ---------------------------------------------------------------------------

TEST(SoaGolden, ToyDatasetsFingerprintUnchanged) {
  EXPECT_EQ(testing::MakeToyDataset().Fingerprint(), 2663709883990218226ULL);
  EXPECT_EQ(testing::MakeToyMultivariate().Fingerprint(),
            2295164349667963653ULL);
}

TEST(SoaGolden, DerivedViewsFingerprintUnchanged) {
  const Dataset toy = testing::MakeToyDataset();
  const Dataset mv = testing::MakeToyMultivariate();
  EXPECT_EQ(toy.Truncated(17).Fingerprint(), 3756445015908641855ULL);
  EXPECT_EQ(mv.SingleVariable(1).Fingerprint(), 5562910799598460025ULL);
  EXPECT_EQ(toy.Subset({3, 1, 4, 1, 5, 9, 2, 6}).Fingerprint(),
            341290907350399545ULL);
}

TEST(SoaGolden, CsvRoundTripFingerprintUnchanged) {
  const Dataset toy = testing::MakeToyDataset();
  const std::string path =
      ::testing::TempDir() + "/etsc_simd_golden_toy.csv";
  ASSERT_TRUE(SaveCsv(toy, path).ok());
  auto loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  loaded->set_name("toy");
  EXPECT_EQ(loaded->Fingerprint(), 10649833367675409526ULL);
  std::remove(path.c_str());
}

TEST(SoaGolden, ArffParseFingerprintUnchanged) {
  const char* arff =
      "@relation golden\n"
      "@attribute t1 numeric\n@attribute t2 numeric\n@attribute t3 numeric\n"
      "@attribute t4 numeric\n@attribute t5 numeric\n"
      "@attribute target {a,b}\n"
      "@data\n"
      "0.5,1.25,-3.0,0.0,2.5,a\n"
      "1.0,-1.5,0.125,4.0,-0.25,b\n"
      "2.0,3.5,-1.125,0.75,0.5,a\n";
  auto parsed = ParseArff(arff);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), 3u);
  EXPECT_EQ(parsed->MaxLength(), 5u);
  EXPECT_EQ(parsed->Fingerprint(), 8393685266116348647ULL);
}

// Fitted-model persistence over pool-backed datasets: a model fitted on SoA
// views must save and restore to bit-identical predictions.
TEST(SoaGolden, SaveLoadFittedOverPoolBackedDataset) {
  const Dataset data = testing::MakeToyDataset(8, 24);
  auto fitted = testing::CreateComposed("ects");
  ASSERT_TRUE(fitted->Fit(data).ok());
  std::stringstream stream;
  ASSERT_TRUE(fitted->Save(stream).ok());
  auto restored = testing::CreateComposed("ects");
  ASSERT_TRUE(restored->LoadFitted(stream).ok());
  for (size_t i = 0; i < data.size(); ++i) {
    const auto a = fitted->PredictEarly(data.instance(i));
    const auto b = restored->PredictEarly(data.instance(i));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->label, b->label);
    EXPECT_EQ(a->prefix_length, b->prefix_length);
  }
}

}  // namespace
}  // namespace etsc
