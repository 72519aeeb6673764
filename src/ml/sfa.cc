#include "ml/sfa.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "ml/fourier.h"

namespace etsc {

double LabelEntropy(const std::vector<int>& labels) {
  if (labels.empty()) return 0.0;
  std::map<int, size_t> counts;
  for (int y : labels) ++counts[y];
  double entropy = 0.0;
  const double n = static_cast<double>(labels.size());
  for (const auto& [label, count] : counts) {
    const double p = static_cast<double>(count) / n;
    entropy -= p * std::log(p);
  }
  return entropy;
}

namespace {

// Entropy of a label histogram over n elements. `counts` is indexed by
// ascending label rank and zero counts are skipped, so the terms are summed in
// the same order as over a std::map<label, count> of the non-empty labels.
double CountsEntropy(const std::vector<size_t>& counts, double n) {
  double e = 0.0;
  for (size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / n;
    e -= p * std::log(p);
  }
  return e;
}

// Finds the single best IG split of data[begin, end), whose labels are ranks
// below left->size(); returns the split index (first element of the right
// part) or begin when no valid split exists. `left`/`right` are scratch
// histograms.
size_t BestBinarySplit(const std::vector<std::pair<double, int>>& data,
                       size_t begin, size_t end, std::vector<size_t>* left,
                       std::vector<size_t>* right) {
  std::fill(left->begin(), left->end(), 0);
  std::fill(right->begin(), right->end(), 0);
  for (size_t i = begin; i < end; ++i) ++(*right)[data[i].second];
  const double total = static_cast<double>(end - begin);
  const double parent = CountsEntropy(*right, total);
  double best_gain = 1e-12;
  size_t best_split = begin;
  for (size_t i = begin; i + 1 < end; ++i) {
    ++(*left)[data[i].second];
    --(*right)[data[i].second];
    // Can only split between distinct values.
    if (data[i].first == data[i + 1].first) continue;
    const double n_left = static_cast<double>(i + 1 - begin);
    const double n_right = total - n_left;
    const double gain = parent - (n_left / total) * CountsEntropy(*left, n_left) -
                        (n_right / total) * CountsEntropy(*right, n_right);
    if (gain > best_gain) {
      best_gain = gain;
      best_split = i + 1;
    }
  }
  return best_split;
}

}  // namespace

size_t BitsPerSymbol(size_t alphabet_size) {
  size_t bits = 1;
  while ((size_t{1} << bits) < alphabet_size) ++bits;
  return bits;
}

std::vector<double> EquiDepthBins(std::vector<double> values, size_t num_bins) {
  std::vector<double> bounds;
  if (num_bins < 2 || values.empty()) return bounds;
  std::sort(values.begin(), values.end());
  for (size_t b = 1; b < num_bins; ++b) {
    const size_t idx = std::min(values.size() - 1, b * values.size() / num_bins);
    bounds.push_back(values[idx]);
  }
  // Boundaries must strictly increase for binary search; nudge duplicates.
  for (size_t i = 1; i < bounds.size(); ++i) {
    if (bounds[i] <= bounds[i - 1]) {
      bounds[i] = std::nextafter(bounds[i - 1], 1e300);
    }
  }
  return bounds;
}

std::vector<double> InformationGainBins(std::vector<std::pair<double, int>> data,
                                        size_t num_bins) {
  std::vector<double> bounds;
  if (num_bins < 2 || data.size() < 2) return bounds;
  // Replace labels by their ascending rank so split histograms are dense
  // arrays; the rank order keeps the sort order and the entropy term order.
  std::vector<int> classes;
  for (const auto& [v, y] : data) {
    auto it = std::lower_bound(classes.begin(), classes.end(), y);
    if (it == classes.end() || *it != y) classes.insert(it, y);
  }
  for (auto& [v, y] : data) {
    y = static_cast<int>(std::lower_bound(classes.begin(), classes.end(), y) -
                         classes.begin());
  }
  std::sort(data.begin(), data.end());
  std::vector<size_t> left(classes.size()), right(classes.size());

  // Greedy recursive splitting: repeatedly split the largest segment that has
  // an informative split until we have num_bins segments. A segment's best
  // split depends only on its range, so it is searched once, when a round
  // first needs it.
  struct Segment {
    size_t begin, end;
    bool searched = false;
    size_t split = 0;  // == begin: no valid split
  };
  std::vector<Segment> segments{{0, data.size()}};
  while (segments.size() < num_bins) {
    bool split_done = false;
    size_t best_seg = 0;
    double best_len = 0;
    for (size_t s = 0; s < segments.size(); ++s) {
      auto& seg = segments[s];
      if (seg.end - seg.begin < 2) continue;
      if (!seg.searched) {
        seg.split = BestBinarySplit(data, seg.begin, seg.end, &left, &right);
        seg.searched = true;
      }
      if (seg.split == seg.begin) continue;
      const double len = static_cast<double>(seg.end - seg.begin);
      if (!split_done || len > best_len) {
        split_done = true;
        best_seg = s;
        best_len = len;
      }
    }
    if (!split_done) break;
    const Segment parent = segments[best_seg];
    segments[best_seg] = Segment{parent.begin, parent.split};
    segments.push_back(Segment{parent.split, parent.end});
  }

  for (const auto& seg : segments) {
    if (seg.begin > 0) {
      bounds.push_back(0.5 * (data[seg.begin - 1].first + data[seg.begin].first));
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  // Pad with equi-depth boundaries if IG produced too few splits.
  if (bounds.size() + 1 < num_bins) {
    std::vector<double> values;
    values.reserve(data.size());
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

Status Sfa::Fit(std::span<const std::span<const double>> series,
                size_t window_size, std::span<const int> labels) {
  size_t num_windows = 0;
  if (window_size > 0) {
    for (std::span<const double> values : series) {
      if (values.size() >= window_size) num_windows += values.size() - window_size + 1;
    }
  }
  if (num_windows == 0) return Status::InvalidArgument("Sfa::Fit: no windows");
  const bool supervised = options_.binning == SfaBinning::kInformationGain;
  if (supervised && labels.size() != series.size()) {
    return Status::InvalidArgument(
        "Sfa::Fit: information-gain binning needs one label per series");
  }
  if (options_.alphabet_size < 2 || options_.alphabet_size > 256) {
    return Status::InvalidArgument("Sfa::Fit: alphabet_size out of range");
  }
  bits_per_symbol_ = BitsPerSymbol(options_.alphabet_size);
  if (options_.word_length > 63 / bits_per_symbol_) {
    return Status::InvalidArgument("Sfa::Fit: word does not fit in 64 bits");
  }

  // Approximate every training window with one DFT basis, position-major:
  // approx[pos * num_windows + i] is value `pos` of window i, so each
  // position's values are contiguous for binning.
  const size_t word_length = options_.word_length;
  const DftBasis basis(window_size, (word_length + 1) / 2, options_.norm_mean);
  const size_t row = basis.row_size();
  std::vector<double> approx(word_length * num_windows);
  std::vector<int> window_labels;
  if (supervised) window_labels.reserve(num_windows);
  std::vector<double> rows;
  size_t i = 0;
  for (size_t j = 0; j < series.size(); ++j) {
    if (series[j].size() < window_size) continue;
    const size_t count = series[j].size() - window_size + 1;
    rows.resize(count * row);
    basis.Coefficients(series[j].data(), count, rows.data());
    for (size_t s = 0; s < count; ++s) {
      for (size_t pos = 0; pos < word_length; ++pos) {
        approx[pos * num_windows + i + s] = rows[s * row + pos];
      }
    }
    if (supervised) window_labels.insert(window_labels.end(), count, labels[j]);
    i += count;
  }

  bins_.assign(word_length, {});
  for (size_t pos = 0; pos < word_length; ++pos) {
    const double* values = &approx[pos * num_windows];
    if (supervised) {
      std::vector<std::pair<double, int>> data(num_windows);
      for (size_t w = 0; w < num_windows; ++w) {
        data[w] = {values[w], window_labels[w]};
      }
      bins_[pos] = InformationGainBins(std::move(data), options_.alphabet_size);
    } else {
      bins_[pos] = EquiDepthBins(std::vector<double>(values, values + num_windows),
                                 options_.alphabet_size);
    }
  }
  return Status::OK();
}

std::vector<double> Sfa::Approximate(const std::vector<double>& window) const {
  // word_length real values = ceil(word_length / 2) complex coefficients.
  const size_t num_coeffs = (options_.word_length + 1) / 2;
  std::vector<double> coeffs =
      DftCoefficients(window, num_coeffs, options_.norm_mean);
  coeffs.resize(options_.word_length, 0.0);
  return coeffs;
}

uint64_t Sfa::WordFromApproximation(const double* approx) const {
  ETSC_DCHECK(fitted());
  uint64_t word = 0;
  for (size_t pos = 0; pos < options_.word_length; ++pos) {
    const auto& bounds = bins_[pos];
    const size_t symbol = static_cast<size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), approx[pos]) -
        bounds.begin());
    word |= static_cast<uint64_t>(symbol) << (pos * bits_per_symbol_);
  }
  return word;
}

uint64_t Sfa::Word(const std::vector<double>& window) const {
  return WordFromApproximation(Approximate(window).data());
}

void Sfa::SaveState(Serializer& out) const {
  out.Begin("sfa");
  // The transform reads word_length/norm_mean at predict time, so the options
  // travel with the fitted boundaries.
  out.SizeT(options_.word_length);
  out.SizeT(options_.alphabet_size);
  out.Bool(options_.norm_mean);
  out.U8(static_cast<uint8_t>(options_.binning));
  out.SizeT(bits_per_symbol_);
  out.F64Mat(bins_);
  out.End();
}

Status Sfa::LoadState(Deserializer& in) {
  ETSC_RETURN_NOT_OK(in.Enter("sfa"));
  ETSC_ASSIGN_OR_RETURN(options_.word_length, in.SizeT());
  ETSC_ASSIGN_OR_RETURN(options_.alphabet_size, in.SizeT());
  ETSC_ASSIGN_OR_RETURN(options_.norm_mean, in.Bool());
  ETSC_ASSIGN_OR_RETURN(uint8_t binning, in.U8());
  if (binning > static_cast<uint8_t>(SfaBinning::kInformationGain)) {
    return Status::DataLoss("Sfa: unknown binning mode");
  }
  options_.binning = static_cast<SfaBinning>(binning);
  ETSC_ASSIGN_OR_RETURN(bits_per_symbol_, in.SizeT());
  ETSC_ASSIGN_OR_RETURN(bins_, in.F64Mat());
  // Only states Fit can produce: WordFromApproximation shifts by
  // pos * bits_per_symbol_ and indexes bins_[pos], so both must be in range.
  if (options_.alphabet_size < 2 || options_.alphabet_size > 256 ||
      bits_per_symbol_ != BitsPerSymbol(options_.alphabet_size) ||
      options_.word_length > 63 / bits_per_symbol_ ||
      bins_.size() != options_.word_length) {
    return Status::DataLoss("Sfa: inconsistent fitted state");
  }
  for (const auto& bounds : bins_) {
    if (bounds.size() > options_.alphabet_size - 1 ||
        !std::is_sorted(bounds.begin(), bounds.end())) {
      return Status::DataLoss("Sfa: inconsistent fitted boundaries");
    }
  }
  return in.Leave();
}

}  // namespace etsc
