#ifndef ETSC_ML_SFA_H_
#define ETSC_ML_SFA_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/serialize.h"
#include "core/status.h"

namespace etsc {

/// How SFA chooses discretisation boundaries per Fourier coefficient.
enum class SfaBinning {
  kEquiDepth,        // quantile boundaries
  kInformationGain,  // supervised entropy-minimising boundaries (WEASEL)
};

struct SfaOptions {
  size_t word_length = 4;    // number of real values used (coefficient halves)
  size_t alphabet_size = 4;  // symbols per position
  bool norm_mean = false;    // drop the DC coefficient
  SfaBinning binning = SfaBinning::kInformationGain;
};

/// Symbolic Fourier Approximation: learns per-coefficient discretisation
/// boundaries from training windows and maps any window of the same size to a
/// compact integer word (paper Sec. 3.4: WEASEL's word extraction).
class Sfa {
 public:
  explicit Sfa(SfaOptions options = {}) : options_(options) {}

  /// Learns boundaries from every stride-1 window of `window_size` points in
  /// `series`, read in place (a series shorter than the window contributes
  /// none). The windows of series i carry class label labels[i] (required for
  /// information-gain binning; may be empty for equi-depth).
  Status Fit(std::span<const std::span<const double>> series,
             size_t window_size, std::span<const int> labels);

  /// DFT approximation used for word construction (word_length values).
  std::vector<double> Approximate(const std::vector<double>& window) const;

  /// Word for a window; symbols are packed little-endian, bits_per_symbol
  /// bits each.
  uint64_t Word(const std::vector<double>& window) const;

  /// Word from an already-computed approximation: `approx` points at (at
  /// least) word_length values, e.g. one row of SlidingDft's output.
  uint64_t WordFromApproximation(const double* approx) const;

  size_t bits_per_symbol() const { return bits_per_symbol_; }
  size_t word_length() const { return options_.word_length; }
  bool fitted() const { return !bins_.empty(); }

  /// Discretisation boundaries per coefficient position (alphabet_size - 1
  /// ascending thresholds each). Exposed for tests.
  const std::vector<std::vector<double>>& bins() const { return bins_; }

  /// Persists/restores boundaries plus the predict-relevant options.
  /// LoadState returns DataLoss unless the state is one Fit can produce:
  /// alphabet_size in [2, 256], the bits_per_symbol Fit derives from it, a
  /// word within 63 bits, and word_length boundary rows of at most
  /// alphabet_size - 1 ascending values.
  void SaveState(Serializer& out) const;
  Status LoadState(Deserializer& in);

 private:
  SfaOptions options_;
  size_t bits_per_symbol_ = 2;
  std::vector<std::vector<double>> bins_;
};

/// Bits one symbol of an `alphabet_size`-letter SFA word takes (at least 1).
size_t BitsPerSymbol(size_t alphabet_size);

/// Entropy of a label multiset (natural log).
double LabelEntropy(const std::vector<int>& labels);

/// Chooses up to `num_bins - 1` boundaries over (value, label) pairs by
/// recursive binary information-gain splits; falls back to equi-depth
/// boundaries for unsplittable data. Returned thresholds are ascending.
std::vector<double> InformationGainBins(std::vector<std::pair<double, int>> data,
                                        size_t num_bins);

/// Equi-depth (quantile) boundaries.
std::vector<double> EquiDepthBins(std::vector<double> values, size_t num_bins);

}  // namespace etsc

#endif  // ETSC_ML_SFA_H_
