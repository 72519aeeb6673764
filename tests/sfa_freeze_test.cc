// Bit-identity freeze of the SFA kernels that WEASEL and WEASEL+MUSE run.
// The reference below is the plain formulation: every window copied into its
// own vector, its DFT evaluated directly with std::cos/std::sin, information
// gain counted in std::map label histograms and every segment's best split
// searched again in every round. Sfa::bins(), Sfa::Word() and the words of
// both bag-of-patterns transforms (read back from the fitted vocabularies)
// must equal it exactly, with ==, not within a tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numbers>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/dataset.h"
#include "core/rng.h"
#include "core/serialize.h"
#include "core/simd.h"
#include "core/time_series.h"
#include "ml/sfa.h"
#include "tsc/muse.h"
#include "tsc/weasel.h"

namespace etsc {
namespace {

namespace reference {

std::vector<double> Dft(const std::vector<double>& window,
                        size_t num_coefficients, bool drop_first) {
  const size_t n = window.size();
  std::vector<double> out;
  if (n == 0 || num_coefficients == 0) return out;
  out.reserve(2 * num_coefficients);
  const size_t first = drop_first ? 1 : 0;
  const double inv_n = 1.0 / static_cast<double>(n);
  for (size_t c = first; c < first + num_coefficients; ++c) {
    double re = 0.0, im = 0.0;
    const double w = -2.0 * std::numbers::pi * static_cast<double>(c) * inv_n;
    for (size_t t = 0; t < n; ++t) {
      const double angle = w * static_cast<double>(t);
      re += window[t] * std::cos(angle);
      im += window[t] * std::sin(angle);
    }
    out.push_back(re * inv_n);
    out.push_back(im * inv_n);
  }
  return out;
}

std::vector<std::vector<double>> SlidingDft(const std::vector<double>& series,
                                            size_t window_size,
                                            size_t num_coefficients,
                                            bool drop_first) {
  std::vector<std::vector<double>> out;
  if (window_size == 0 || series.size() < window_size || num_coefficients == 0) {
    return out;
  }
  const size_t num_windows = series.size() - window_size + 1;
  const size_t first = drop_first ? 1 : 0;
  const double inv_n = 1.0 / static_cast<double>(window_size);
  std::vector<double> re(num_coefficients, 0.0), im(num_coefficients, 0.0);
  for (size_t k = 0; k < num_coefficients; ++k) {
    const double w =
        -2.0 * std::numbers::pi * static_cast<double>(k + first) * inv_n;
    for (size_t t = 0; t < window_size; ++t) {
      const double angle = w * static_cast<double>(t);
      re[k] += series[t] * std::cos(angle);
      im[k] += series[t] * std::sin(angle);
    }
  }
  auto emit = [&]() {
    std::vector<double> coeffs;
    for (size_t k = 0; k < num_coefficients; ++k) {
      coeffs.push_back(re[k] * inv_n);
      coeffs.push_back(im[k] * inv_n);
    }
    out.push_back(std::move(coeffs));
  };
  emit();
  std::vector<double> cos_t(num_coefficients), sin_t(num_coefficients);
  for (size_t k = 0; k < num_coefficients; ++k) {
    const double theta =
        2.0 * std::numbers::pi * static_cast<double>(k + first) * inv_n;
    cos_t[k] = std::cos(theta);
    sin_t[k] = std::sin(theta);
  }
  for (size_t s = 1; s < num_windows; ++s) {
    const double x_out = series[s - 1];
    const double x_in = series[s + window_size - 1];
    simd::RotatePhasors(cos_t.data(), sin_t.data(), x_in - x_out, re.data(),
                        im.data(), num_coefficients);
    emit();
  }
  return out;
}

double RangeEntropy(const std::vector<std::pair<double, int>>& data,
                    size_t begin, size_t end) {
  std::map<int, size_t> counts;
  for (size_t i = begin; i < end; ++i) ++counts[data[i].second];
  double entropy = 0.0;
  const double n = static_cast<double>(end - begin);
  for (const auto& [label, count] : counts) {
    const double p = static_cast<double>(count) / n;
    entropy -= p * std::log(p);
  }
  return entropy;
}

size_t BestBinarySplit(const std::vector<std::pair<double, int>>& data,
                       size_t begin, size_t end) {
  const double total = static_cast<double>(end - begin);
  const double parent = RangeEntropy(data, begin, end);
  double best_gain = 1e-12;
  size_t best_split = begin;
  std::map<int, size_t> left_counts;
  std::map<int, size_t> right_counts;
  for (size_t i = begin; i < end; ++i) ++right_counts[data[i].second];
  auto entropy_of = [](const std::map<int, size_t>& counts, double n) {
    double e = 0.0;
    for (const auto& [label, c] : counts) {
      if (c == 0) continue;
      const double p = static_cast<double>(c) / n;
      e -= p * std::log(p);
    }
    return e;
  };
  for (size_t i = begin; i + 1 < end; ++i) {
    ++left_counts[data[i].second];
    --right_counts.find(data[i].second)->second;
    if (data[i].first == data[i + 1].first) continue;
    const double n_left = static_cast<double>(i + 1 - begin);
    const double n_right = total - n_left;
    const double gain = parent - (n_left / total) * entropy_of(left_counts, n_left) -
                        (n_right / total) * entropy_of(right_counts, n_right);
    if (gain > best_gain) {
      best_gain = gain;
      best_split = i + 1;
    }
  }
  return best_split;
}

std::vector<double> InformationGainBins(std::vector<std::pair<double, int>> data,
                                        size_t num_bins) {
  std::vector<double> bounds;
  if (num_bins < 2 || data.size() < 2) return bounds;
  std::sort(data.begin(), data.end());
  struct Segment {
    size_t begin, end;
  };
  std::vector<Segment> segments{{0, data.size()}};
  while (segments.size() < num_bins) {
    bool split_done = false;
    size_t best_seg = 0, best_at = 0;
    double best_len = 0;
    for (size_t s = 0; s < segments.size(); ++s) {
      const auto& seg = segments[s];
      if (seg.end - seg.begin < 2) continue;
      const size_t at = BestBinarySplit(data, seg.begin, seg.end);
      if (at == seg.begin) continue;
      const double len = static_cast<double>(seg.end - seg.begin);
      if (!split_done || len > best_len) {
        split_done = true;
        best_seg = s;
        best_at = at;
        best_len = len;
      }
    }
    if (!split_done) break;
    Segment right{best_at, segments[best_seg].end};
    segments[best_seg].end = best_at;
    segments.push_back(right);
  }
  for (const auto& seg : segments) {
    if (seg.begin > 0) {
      bounds.push_back(0.5 * (data[seg.begin - 1].first + data[seg.begin].first));
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  if (bounds.size() + 1 < num_bins) {
    std::vector<double> values;
    for (const auto& [v, y] : data) values.push_back(v);
    for (double b : EquiDepthBins(std::move(values), num_bins)) {
      if (bounds.size() + 1 >= num_bins) break;
      if (std::find(bounds.begin(), bounds.end(), b) == bounds.end()) {
        bounds.push_back(b);
      }
    }
    std::sort(bounds.begin(), bounds.end());
  }
  if (bounds.size() > num_bins - 1) bounds.resize(num_bins - 1);
  return bounds;
}

std::vector<double> Approximate(const std::vector<double>& window,
                                const SfaOptions& options) {
  std::vector<double> coeffs =
      Dft(window, (options.word_length + 1) / 2, options.norm_mean);
  coeffs.resize(options.word_length, 0.0);
  return coeffs;
}

/// Sfa::Fit's boundaries, learned from one copied vector per window.
std::vector<std::vector<double>> Bins(
    const std::vector<std::vector<double>>& windows,
    const std::vector<int>& labels, const SfaOptions& options) {
  std::vector<std::vector<double>> approx;
  for (const auto& window : windows) approx.push_back(Approximate(window, options));
  std::vector<std::vector<double>> bins(options.word_length);
  for (size_t pos = 0; pos < options.word_length; ++pos) {
    if (options.binning == SfaBinning::kInformationGain) {
      std::vector<std::pair<double, int>> data;
      for (size_t i = 0; i < windows.size(); ++i) {
        data.emplace_back(approx[i][pos], labels[i]);
      }
      bins[pos] = InformationGainBins(std::move(data), options.alphabet_size);
    } else {
      std::vector<double> values;
      for (const auto& a : approx) values.push_back(a[pos]);
      bins[pos] = EquiDepthBins(std::move(values), options.alphabet_size);
    }
  }
  return bins;
}

uint64_t Word(const std::vector<std::vector<double>>& bins,
              const std::vector<double>& approx, size_t bits_per_symbol) {
  uint64_t word = 0;
  for (size_t pos = 0; pos < bins.size(); ++pos) {
    const auto& bounds = bins[pos];
    const size_t symbol = static_cast<size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), approx[pos]) -
        bounds.begin());
    word |= static_cast<uint64_t>(symbol) << (pos * bits_per_symbol);
  }
  return word;
}

size_t BitsPerSymbol(size_t alphabet_size) {
  size_t bits = 1;
  while ((1u << bits) < alphabet_size) ++bits;
  return bits;
}

/// Every stride-1 window of `size` over `series`, each in its own vector,
/// labelled with its series' label.
void CollectWindows(const std::vector<std::vector<double>>& series,
                    const std::vector<int>& labels, size_t size,
                    std::vector<std::vector<double>>* windows,
                    std::vector<int>* window_labels) {
  for (size_t i = 0; i < series.size(); ++i) {
    for (size_t start = 0; start + size <= series[i].size(); ++start) {
      windows->emplace_back(series[i].begin() + start,
                            series[i].begin() + start + size);
      window_labels->push_back(labels[i]);
    }
  }
}

/// The words of a bag-of-patterns transform over one series for one window
/// size: the sliding DFT rows, truncated to the word length.
std::vector<uint64_t> SeriesWords(const std::vector<double>& values,
                                  size_t window,
                                  const std::vector<std::vector<double>>& bins,
                                  const SfaOptions& options) {
  std::vector<uint64_t> words;
  for (auto approx : SlidingDft(values, window, (options.word_length + 1) / 2,
                                options.norm_mean)) {
    approx.resize(options.word_length, 0.0);
    words.push_back(Word(bins, approx, BitsPerSymbol(options.alphabet_size)));
  }
  return words;
}

/// Appends the uni- and bigram keys of `words` to a training vocabulary in
/// the order the transforms insert them.
template <typename Pack>
void GrowVocabulary(const std::vector<uint64_t>& words, size_t window,
                    bool use_bigrams, Pack pack,
                    std::unordered_map<uint64_t, size_t>* vocabulary) {
  for (size_t s = 0; s < words.size(); ++s) {
    vocabulary->emplace(pack(words[s], 0), vocabulary->size());
    if (use_bigrams && s >= window) {
      vocabulary->emplace(pack(words[s], words[s - window] + 1),
                          vocabulary->size());
    }
  }
}

}  // namespace reference

// ------------------------------------------------------------------ data

/// `per_class` series per class of `length` points; the classes differ in
/// frequency and level. With `tied`, values are rounded to halves so many
/// windows (and their Fourier values) coincide and IG splits meet ties.
struct Series {
  std::vector<std::vector<double>> values;
  std::vector<int> labels;
};

Series MakeSeries(size_t classes, size_t per_class, size_t length, bool tied,
                  uint64_t seed) {
  // Non-contiguous, unsorted labels: splits must not depend on label values.
  constexpr int kLabels[] = {7, -2, 40, 3};
  Rng rng(seed);
  Series out;
  for (size_t c = 0; c < classes; ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      std::vector<double> v(length);
      const double phase = rng.Uniform(0.0, 2.0 * std::numbers::pi);
      for (size_t t = 0; t < length; ++t) {
        const double u = static_cast<double>(t) / static_cast<double>(length);
        v[t] = 0.5 * static_cast<double>(c) +
               std::sin(2.0 * std::numbers::pi * (1.0 + static_cast<double>(c)) *
                            u +
                        phase) +
               rng.Gaussian(0.0, 0.4);
        if (tied) v[t] = std::round(2.0 * v[t]) / 2.0;
      }
      out.values.push_back(std::move(v));
      out.labels.push_back(kLabels[c]);
    }
  }
  return out;
}

Dataset ToDataset(const Series& series) {
  Dataset dataset;
  for (size_t i = 0; i < series.values.size(); ++i) {
    dataset.Add(TimeSeries::Univariate(series.values[i]), series.labels[i]);
  }
  return dataset;
}

Dataset MakeMultivariate(size_t classes, size_t per_class, size_t length,
                         bool tied, uint64_t seed) {
  const Series a = MakeSeries(classes, per_class, length, tied, seed);
  const Series b = MakeSeries(classes, per_class, length, tied, seed + 1);
  Dataset dataset;
  for (size_t i = 0; i < a.values.size(); ++i) {
    auto series = TimeSeries::FromChannels({a.values[i], b.values[i]});
    dataset.Add(std::move(series).value(), a.labels[i]);
  }
  return dataset;
}

/// Round-trips a model's state through the public serializer so the test can
/// read its fitted transforms and vocabulary.
template <typename Model>
Deserializer SavedState(const Model& model) {
  Serializer out;
  EXPECT_TRUE(model.SaveState(out).ok());
  std::stringstream stream;
  EXPECT_TRUE(out.Finish(stream, "test", "freeze", "fp").ok());
  auto in = Deserializer::FromStream(stream);
  EXPECT_TRUE(in.ok());
  return std::move(in).value();
}

std::unordered_map<uint64_t, size_t> ReadVocabulary(Deserializer& in) {
  std::unordered_map<uint64_t, size_t> vocabulary;
  const size_t count = in.SizeT().value();
  for (size_t i = 0; i < count; ++i) {
    const uint64_t key = in.U64().value();
    vocabulary[key] = in.SizeT().value();
  }
  return vocabulary;
}

// ------------------------------------------------------------------- Sfa

struct SfaCase {
  size_t word_length;
  size_t alphabet;
  bool norm_mean;
  size_t classes;
  bool tied;
  SfaBinning binning;
};

std::string CaseName(const ::testing::TestParamInfo<SfaCase>& info) {
  const SfaCase& c = info.param;
  return "wl" + std::to_string(c.word_length) + "_a" + std::to_string(c.alphabet) +
         (c.norm_mean ? "_nm" : "_dc") + "_k" + std::to_string(c.classes) +
         (c.tied ? "_tied" : "_cont") +
         (c.binning == SfaBinning::kInformationGain ? "_ig" : "_eqd");
}

class SfaFreezeTest : public ::testing::TestWithParam<SfaCase> {};

TEST_P(SfaFreezeTest, BinsAndWordsMatchReference) {
  const SfaCase param = GetParam();
  SfaOptions options;
  options.word_length = param.word_length;
  options.alphabet_size = param.alphabet;
  options.norm_mean = param.norm_mean;
  options.binning = param.binning;
  constexpr size_t kWindow = 10;
  const Series data = MakeSeries(param.classes, 6, 24, param.tied,
                                 100 + param.classes + (param.tied ? 10 : 0));
  std::vector<std::vector<double>> windows;
  std::vector<int> labels;
  reference::CollectWindows(data.values, data.labels, kWindow, &windows, &labels);

  Sfa sfa(options);
  const std::vector<std::span<const double>> views(data.values.begin(),
                                                   data.values.end());
  ASSERT_TRUE(sfa.Fit(views, kWindow, data.labels).ok());

  const auto expected = reference::Bins(windows, labels, options);
  ASSERT_EQ(sfa.bins().size(), expected.size());
  for (size_t pos = 0; pos < expected.size(); ++pos) {
    EXPECT_EQ(sfa.bins()[pos], expected[pos]) << "position " << pos;
  }
  const size_t bits = reference::BitsPerSymbol(param.alphabet);
  for (const auto& window : windows) {
    ASSERT_EQ(sfa.Word(window),
              reference::Word(expected, reference::Approximate(window, options),
                              bits));
  }
}

std::vector<SfaCase> AllCases() {
  std::vector<SfaCase> cases;
  for (size_t wl : {3, 4, 8}) {
    for (size_t alphabet : {2, 4, 6}) {
      for (bool norm_mean : {false, true}) {
        for (size_t classes : {2, 3, 4}) {
          for (bool tied : {false, true}) {
            cases.push_back(
                {wl, alphabet, norm_mean, classes, tied, SfaBinning::kInformationGain});
          }
        }
      }
    }
  }
  for (bool tied : {false, true}) {
    cases.push_back({4, 4, false, 2, tied, SfaBinning::kEquiDepth});
    cases.push_back({3, 6, true, 3, tied, SfaBinning::kEquiDepth});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, SfaFreezeTest, ::testing::ValuesIn(AllCases()),
                         CaseName);

// ---------------------------------------------------------------- WEASEL

struct TransformCase {
  const char* name;
  size_t classes;
  bool tied;
  size_t word_length;
  size_t alphabet;
  bool norm_mean;
  bool normalize_input;
};

// Without this gtest prints the raw bytes of the case, `name`'s address among
// them, and the test names that ctest discovers change with every ASLR layout.
void PrintTo(const TransformCase& c, std::ostream* os) { *os << c.name; }

class WeaselWordsFreezeTest : public ::testing::TestWithParam<TransformCase> {};

TEST_P(WeaselWordsFreezeTest, VocabularyMatchesReference) {
  const TransformCase param = GetParam();
  WeaselOptions options;
  options.word_length = param.word_length;
  options.alphabet_size = param.alphabet;
  options.norm_mean = param.norm_mean;
  options.normalize_input = param.normalize_input;
  const Series data = MakeSeries(param.classes, 5, 36, param.tied, 200);
  const Dataset train = ToDataset(data);
  WeaselClassifier model(options);
  ASSERT_TRUE(model.Fit(train).ok());

  std::vector<std::vector<double>> inputs = data.values;
  if (param.normalize_input) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      TimeSeries ts = train.instance(i);
      ts.ZNormalize();
      std::span<const double> c = ts.channel(0);
      inputs[i].assign(c.begin(), c.end());
    }
  }
  SfaOptions sfa_options;
  sfa_options.word_length = param.word_length;
  sfa_options.alphabet_size = param.alphabet;
  sfa_options.norm_mean = param.norm_mean;
  const std::vector<size_t> sizes =
      ChooseWindowSizes(options.min_window, 36, options.max_window_count);

  Deserializer in = SavedState(model);
  ASSERT_TRUE(in.Enter("weasel").ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(in.SizeT().ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(in.Bool().ok());
  ASSERT_EQ(in.SizeVec().value(), sizes);
  ASSERT_EQ(in.SizeT().value(), sizes.size());
  std::vector<std::vector<std::vector<double>>> bins;
  for (size_t w : sizes) {
    Sfa sfa;
    ASSERT_TRUE(sfa.LoadState(in).ok());
    std::vector<std::vector<double>> windows;
    std::vector<int> labels;
    reference::CollectWindows(inputs, data.labels, w, &windows, &labels);
    ASSERT_EQ(sfa.bins(), reference::Bins(windows, labels, sfa_options))
        << "window " << w;
    bins.push_back(sfa.bins());
  }

  std::unordered_map<uint64_t, size_t> expected;
  for (const auto& values : inputs) {
    for (size_t wi = 0; wi < sizes.size(); ++wi) {
      reference::GrowVocabulary(
          reference::SeriesWords(values, sizes[wi], bins[wi], sfa_options),
          sizes[wi], options.use_bigrams,
          [&](uint64_t word, uint64_t prev) {
            return PackWeaselKey(wi, word, prev);
          },
          &expected);
    }
  }
  EXPECT_EQ(ReadVocabulary(in), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, WeaselWordsFreezeTest,
    ::testing::Values(TransformCase{"defaults", 2, false, 4, 4, false, false},
                      TransformCase{"tied3", 3, true, 4, 4, false, false},
                      TransformCase{"odd_word", 4, false, 3, 6, true, true},
                      TransformCase{"long_word", 2, true, 8, 2, true, false}),
    [](const ::testing::TestParamInfo<TransformCase>& info) {
      return std::string(info.param.name);
    });

// ------------------------------------------------------------------ MUSE

class MuseWordsFreezeTest : public ::testing::TestWithParam<TransformCase> {};

TEST_P(MuseWordsFreezeTest, VocabularyMatchesReference) {
  const TransformCase param = GetParam();
  MuseOptions options;
  options.weasel.word_length = param.word_length;
  options.weasel.alphabet_size = param.alphabet;
  options.weasel.norm_mean = param.norm_mean;
  const Dataset train = MakeMultivariate(param.classes, 4, 28, param.tied, 300);
  MuseClassifier model(options);
  ASSERT_TRUE(model.Fit(train).ok());

  // Raw variables, then their derivatives: MuseClassifier's channel order.
  std::vector<std::vector<std::vector<double>>> channels(train.size());
  for (size_t i = 0; i < train.size(); ++i) {
    for (size_t v = 0; v < 2; ++v) {
      std::span<const double> c = train.instance(i).channel(v);
      channels[i].emplace_back(c.begin(), c.end());
    }
    for (size_t v = 0; v < 2; ++v) channels[i].push_back(Derivative(channels[i][v]));
  }
  SfaOptions sfa_options;
  sfa_options.word_length = param.word_length;
  sfa_options.alphabet_size = param.alphabet;
  sfa_options.norm_mean = param.norm_mean;
  const std::vector<size_t> sizes = ChooseWindowSizes(
      options.weasel.min_window, 28, options.weasel.max_window_count);

  Deserializer in = SavedState(model);
  ASSERT_TRUE(in.Enter("muse").ok());
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(in.SizeT().ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(in.Bool().ok());
  ASSERT_EQ(in.SizeT().value(), 2u);
  ASSERT_EQ(in.SizeVec().value(), sizes);
  ASSERT_EQ(in.SizeT().value(), 4u);
  std::vector<std::vector<std::vector<std::vector<double>>>> bins(4);
  for (size_t c = 0; c < 4; ++c) {
    ASSERT_EQ(in.SizeT().value(), sizes.size());
    std::vector<std::vector<double>> series;
    for (const auto& per_instance : channels) series.push_back(per_instance[c]);
    for (size_t w : sizes) {
      Sfa sfa;
      ASSERT_TRUE(sfa.LoadState(in).ok());
      std::vector<std::vector<double>> windows;
      std::vector<int> labels;
      reference::CollectWindows(series, train.labels(), w, &windows, &labels);
      ASSERT_EQ(sfa.bins(), reference::Bins(windows, labels, sfa_options))
          << "channel " << c << " window " << w;
      bins[c].push_back(sfa.bins());
    }
  }

  std::unordered_map<uint64_t, size_t> expected;
  for (const auto& per_instance : channels) {
    for (size_t c = 0; c < 4; ++c) {
      for (size_t wi = 0; wi < sizes.size(); ++wi) {
        reference::GrowVocabulary(
            reference::SeriesWords(per_instance[c], sizes[wi], bins[c][wi],
                                   sfa_options),
            sizes[wi], options.weasel.use_bigrams,
            [&](uint64_t word, uint64_t prev) {
              return PackMuseKey(c, wi, word, prev);
            },
            &expected);
      }
    }
  }
  EXPECT_EQ(ReadVocabulary(in), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MuseWordsFreezeTest,
    ::testing::Values(TransformCase{"defaults", 3, false, 4, 4, false, false},
                      TransformCase{"tied2", 2, true, 3, 6, true, false},
                      TransformCase{"four_classes", 4, false, 8, 2, false, false}),
    [](const ::testing::TestParamInfo<TransformCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace etsc
