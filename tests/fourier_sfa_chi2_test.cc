// DFT / sliding (momentary) Fourier transform, symbolic Fourier approximation
// and chi² feature selection — the WEASEL substrate.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <sstream>

#include "core/rng.h"
#include "core/serialize.h"
#include "ml/chi2.h"
#include "ml/fourier.h"
#include "ml/sfa.h"

namespace etsc {
namespace {

TEST(Dft, DcCoefficientIsMean) {
  const auto coeffs = DftCoefficients({1.0, 2.0, 3.0, 4.0}, 1, false);
  ASSERT_EQ(coeffs.size(), 2u);
  EXPECT_NEAR(coeffs[0], 2.5, 1e-12);  // re of coefficient 0 = mean
  EXPECT_NEAR(coeffs[1], 0.0, 1e-12);
}

TEST(Dft, PureSineConcentratesInOneBin) {
  const size_t n = 32;
  std::vector<double> x(n);
  for (size_t t = 0; t < n; ++t) {
    x[t] = std::sin(2.0 * std::numbers::pi * 3.0 * t / n);
  }
  const auto coeffs = DftCoefficients(x, 6, false);
  // Magnitude at coefficient 3 is 0.5 (half amplitude); others near zero.
  for (size_t k = 0; k < 6; ++k) {
    const double mag = std::hypot(coeffs[2 * k], coeffs[2 * k + 1]);
    if (k == 3) {
      EXPECT_NEAR(mag, 0.5, 1e-9);
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-9);
    }
  }
}

TEST(Dft, DropFirstSkipsDc) {
  const std::vector<double> x{5.0, 5.0, 5.0, 5.0};
  const auto with_dc = DftCoefficients(x, 1, false);
  const auto without_dc = DftCoefficients(x, 1, true);
  EXPECT_NEAR(with_dc[0], 5.0, 1e-12);
  EXPECT_NEAR(without_dc[0], 0.0, 1e-12);
}

TEST(SlidingDftFn, MatchesDirectComputation) {
  Rng rng(41);
  std::vector<double> series(50);
  for (double& v : series) v = rng.Gaussian();
  const size_t w = 16;
  const auto sliding = SlidingDft(series, w, 4, true);
  const size_t row = 8;  // 4 coefficients, re/im interleaved
  ASSERT_EQ(sliding.size(), (series.size() - w + 1) * row);
  for (size_t s = 0; s < sliding.size() / row; ++s) {
    const std::vector<double> window(series.begin() + s, series.begin() + s + w);
    const auto direct = DftCoefficients(window, 4, true);
    ASSERT_EQ(row, direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      EXPECT_NEAR(sliding[s * row + i], direct[i], 1e-8) << "window " << s << " i " << i;
    }
  }
}

TEST(SlidingDftFn, TooShortSeriesYieldsNothing) {
  EXPECT_TRUE(SlidingDft({1.0, 2.0}, 5, 2, false).empty());
}

TEST(Entropy, UniformAndPure) {
  EXPECT_NEAR(LabelEntropy({0, 1}), std::log(2.0), 1e-12);
  EXPECT_NEAR(LabelEntropy({1, 1, 1}), 0.0, 1e-12);
  EXPECT_NEAR(LabelEntropy({}), 0.0, 1e-12);
}

TEST(EquiDepthBinsFn, QuartileBoundaries) {
  std::vector<double> values;
  for (int i = 0; i < 100; ++i) values.push_back(static_cast<double>(i));
  const auto bounds = EquiDepthBins(values, 4);
  ASSERT_EQ(bounds.size(), 3u);
  EXPECT_NEAR(bounds[0], 25.0, 2.0);
  EXPECT_NEAR(bounds[1], 50.0, 2.0);
  EXPECT_NEAR(bounds[2], 75.0, 2.0);
}

TEST(EquiDepthBinsFn, StrictlyIncreasing) {
  const auto bounds = EquiDepthBins({1.0, 1.0, 1.0, 1.0, 1.0}, 4);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

TEST(InformationGainBinsFn, FindsClassBoundary) {
  // Class 0 lives below 0, class 1 above: one IG boundary near 0.
  std::vector<std::pair<double, int>> data;
  for (int i = 0; i < 50; ++i) {
    data.emplace_back(-1.0 - 0.01 * i, 0);
    data.emplace_back(1.0 + 0.01 * i, 1);
  }
  const auto bounds = InformationGainBins(data, 2);
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_NEAR(bounds[0], 0.0, 0.2);
}

TEST(InformationGainBinsFn, PadsWithEquiDepthWhenPure) {
  // Single class: no informative split exists, equi-depth padding kicks in.
  std::vector<std::pair<double, int>> data;
  for (int i = 0; i < 40; ++i) data.emplace_back(static_cast<double>(i), 0);
  const auto bounds = InformationGainBins(data, 4);
  EXPECT_EQ(bounds.size(), 3u);
}

TEST(Sfa, WordsDifferAcrossClasses) {
  // Windows from two very different generators should map to different words.
  Rng rng(42);
  std::vector<std::vector<double>> windows;
  std::vector<int> labels;
  for (int i = 0; i < 30; ++i) {
    std::vector<double> low(16), high(16);
    for (size_t t = 0; t < 16; ++t) {
      low[t] = std::sin(2.0 * std::numbers::pi * t / 16.0) + rng.Gaussian(0, 0.05);
      high[t] = 5.0 + std::sin(2.0 * std::numbers::pi * 5.0 * t / 16.0) +
                rng.Gaussian(0, 0.05);
    }
    windows.push_back(std::move(low));
    labels.push_back(0);
    windows.push_back(std::move(high));
    labels.push_back(1);
  }
  Sfa sfa;
  const std::vector<std::span<const double>> views(windows.begin(), windows.end());
  ASSERT_TRUE(sfa.Fit(views, 16, labels).ok());
  EXPECT_NE(sfa.Word(windows[0]), sfa.Word(windows[1]));
  // The transform is deterministic.
  EXPECT_EQ(sfa.Word(windows[0]), sfa.Word(windows[0]));
  // The leading symbol separates the two classes (their DC levels differ by 5
  // sigma-free units), even if finer symbols wiggle within a class.
  const uint64_t mask = (1ull << sfa.bits_per_symbol()) - 1;
  EXPECT_EQ(sfa.Word(windows[0]) & mask, sfa.Word(windows[2]) & mask);
  EXPECT_NE(sfa.Word(windows[0]) & mask, sfa.Word(windows[1]) & mask);
}

TEST(Sfa, WordFitsInBits) {
  SfaOptions options;
  options.word_length = 6;
  options.alphabet_size = 4;  // 2 bits/symbol -> 12 bits
  Sfa sfa(options);
  std::vector<std::vector<double>> windows(10, std::vector<double>(8, 0.0));
  std::vector<int> labels(10, 0);
  Rng rng(43);
  for (auto& w : windows) {
    for (double& v : w) v = rng.Gaussian();
  }
  const std::vector<std::span<const double>> views(windows.begin(), windows.end());
  ASSERT_TRUE(sfa.Fit(views, 8, labels).ok());
  EXPECT_LT(sfa.Word(windows[0]), 1ull << 12);
}

TEST(Sfa, RejectsOversizedWord) {
  SfaOptions options;
  options.word_length = 40;
  options.alphabet_size = 16;  // 4 bits * 40 > 63
  Sfa sfa(options);
  const std::vector<double> window{1.0, 2.0};
  const std::vector<std::span<const double>> views{window};
  EXPECT_FALSE(sfa.Fit(views, 2, std::vector<int>{0}).ok());
}

TEST(Sfa, SupervisedBinningNeedsLabels) {
  Sfa sfa;
  const std::vector<double> window{1.0, 2.0};
  const std::vector<std::span<const double>> views{window};
  EXPECT_FALSE(sfa.Fit(views, 2, {}).ok());
}

TEST(Sfa, EquiDepthModeNeedsNoLabels) {
  SfaOptions options;
  options.binning = SfaBinning::kEquiDepth;
  Sfa sfa(options);
  std::vector<std::vector<double>> windows(8, std::vector<double>(8, 0.0));
  Rng rng(44);
  for (auto& w : windows) {
    for (double& v : w) v = rng.Gaussian();
  }
  const std::vector<std::span<const double>> views(windows.begin(), windows.end());
  EXPECT_TRUE(sfa.Fit(views, 8, {}).ok());
  EXPECT_TRUE(sfa.fitted());
}

/// A serialized Sfa state with the given fields, opened for LoadState.
Deserializer SfaState(size_t word_length, size_t alphabet_size,
                      size_t bits_per_symbol,
                      const std::vector<std::vector<double>>& bins) {
  Serializer out;
  out.Begin("sfa");
  out.SizeT(word_length);
  out.SizeT(alphabet_size);
  out.Bool(false);
  out.U8(static_cast<uint8_t>(SfaBinning::kInformationGain));
  out.SizeT(bits_per_symbol);
  out.F64Mat(bins);
  out.End();
  std::stringstream stream;
  EXPECT_TRUE(out.Finish(stream, "test", "sfa", "fp").ok());
  auto in = Deserializer::FromStream(stream);
  EXPECT_TRUE(in.ok());
  return std::move(in).value();
}

TEST(SfaLoadState, AcceptsFittedShape) {
  Deserializer in = SfaState(2, 4, 2, {{-1.0, 0.0, 1.0}, {0.5}});
  Sfa sfa;
  ASSERT_TRUE(sfa.LoadState(in).ok());
  const std::vector<double> approx{0.7, 0.1};
  EXPECT_EQ(sfa.WordFromApproximation(approx.data()), 2u);  // symbols 2, 0
}

TEST(SfaLoadState, RejectsShiftOverflow) {
  // bits_per_symbol * word_length wraps to 0 in 64 bits; the word would then
  // be shifted by 2^63.
  Deserializer in = SfaState(2, 4, size_t{1} << 63, {{0.0}, {0.0}});
  Sfa sfa;
  EXPECT_EQ(sfa.LoadState(in).code(), StatusCode::kDataLoss);
}

TEST(SfaLoadState, RejectsStateFitCannotProduce) {
  struct Case {
    const char* what;
    size_t word_length, alphabet_size, bits_per_symbol;
    std::vector<std::vector<double>> bins;
  };
  const Case cases[] = {
      {"bits do not match the alphabet", 2, 4, 3, {{0.0}, {0.0}}},
      {"alphabet below 2", 2, 1, 1, {{}, {}}},
      {"alphabet above 256", 2, 257, 9, {{}, {}}},
      {"word beyond 63 bits", 32, 4, 2, std::vector<std::vector<double>>(32)},
      {"row count differs from word length", 2, 4, 2, {{0.0}}},
      {"too many boundaries", 2, 4, 2, {{0.0, 1.0, 2.0, 3.0}, {0.0}}},
      {"descending boundaries", 2, 4, 2, {{1.0, 0.0}, {0.0}}},
  };
  for (const Case& c : cases) {
    Deserializer in =
        SfaState(c.word_length, c.alphabet_size, c.bits_per_symbol, c.bins);
    Sfa sfa;
    EXPECT_EQ(sfa.LoadState(in).code(), StatusCode::kDataLoss) << c.what;
  }
}

TEST(Chi2, InformativeFeatureScoresHigher) {
  // Feature 0 appears only in class 0, feature 1 only in class 1, feature 2 in
  // both equally: the class-pure features must dominate the balanced one.
  std::vector<SparseVector> rows(20);
  std::vector<int> labels(20);
  for (int i = 0; i < 20; ++i) {
    labels[i] = i < 10 ? 0 : 1;
    rows[i].Add(i < 10 ? 0 : 1, 1.0);
    rows[i].Add(2, 1.0);
  }
  const auto scores = Chi2Scores(rows, 3, labels);
  EXPECT_GT(scores[0], scores[2]);
  EXPECT_GT(scores[1], scores[2]);
  // A feature with identical mass in both (equal-mass) classes scores zero.
  EXPECT_NEAR(scores[2], 0.0, 1e-9);
}

TEST(Chi2, SelectAppliesThreshold) {
  std::vector<SparseVector> rows(20);
  std::vector<int> labels(20);
  for (int i = 0; i < 20; ++i) {
    labels[i] = i < 10 ? 0 : 1;
    rows[i].Add(i < 10 ? 0 : 1, 1.0);
    rows[i].Add(2, 1.0);
  }
  const auto selected = Chi2Select(rows, 3, labels, 2.0);
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0], 0u);
  EXPECT_EQ(selected[1], 1u);
}

TEST(Chi2, NeverSelectsEmptySet) {
  // All features uninformative: fall back to observed features.
  std::vector<SparseVector> rows(4);
  std::vector<int> labels{0, 1, 0, 1};
  for (auto& r : rows) r.Add(0, 1.0);
  const auto selected = Chi2Select(rows, 1, labels, 100.0);
  EXPECT_FALSE(selected.empty());
}

TEST(Chi2, ProjectRemapsIndices) {
  SparseVector row;
  row.Add(3, 2.0);
  row.Add(7, 5.0);
  const SparseVector projected = ProjectRow(row, {3, 7});
  ASSERT_EQ(projected.entries.size(), 2u);
  EXPECT_EQ(projected.entries[0].first, 0u);
  EXPECT_EQ(projected.entries[1].first, 1u);
  EXPECT_DOUBLE_EQ(projected.entries[1].second, 5.0);
}

TEST(Chi2, ProjectDropsUnselected) {
  SparseVector row;
  row.Add(1, 1.0);
  row.Add(2, 1.0);
  const SparseVector projected = ProjectRow(row, {2});
  ASSERT_EQ(projected.entries.size(), 1u);
  EXPECT_EQ(projected.entries[0].first, 0u);
}

}  // namespace
}  // namespace etsc
