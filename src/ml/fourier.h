#ifndef ETSC_ML_FOURIER_H_
#define ETSC_ML_FOURIER_H_

#include <cstddef>
#include <vector>

namespace etsc {

/// Direct DFT of windows of one fixed length: the repo's one direct-DFT path.
/// The twiddles cos(ω_k·t) and sin(ω_k·t) of every (coefficient, offset) pair
/// are evaluated once, at construction, from the same `angle = w * t`
/// expression a per-window evaluation would use, and every window is then a
/// serial multiply-add over the tables (no trigonometry). Coefficients are
/// [first, first + num_coefficients), with first = 1 when `drop_first` (the
/// SFA "mean-normalisation" switch skips the DC coefficient) and 0 otherwise.
class DftBasis {
 public:
  DftBasis(size_t window_size, size_t num_coefficients, bool drop_first);

  /// Values per output row: re/im interleaved, [re0, im0, re1, im1, ...].
  size_t row_size() const { return 2 * num_coefficients_; }

  /// Un-normalised sums Σ_t x[t]·cos(ω_k·t) and Σ_t x[t]·sin(ω_k·t) of the
  /// `count` stride-1 windows starting at `series`, which must hold
  /// count + window_size - 1 values. Writes `count` rows of row_size()
  /// values to `out`. Each sum accumulates serially in t, so a window's
  /// result does not depend on how many windows share the call.
  void Sums(const double* series, size_t count, double* out) const;

  /// Sums() divided by the window length: the DFT coefficients.
  void Coefficients(const double* series, size_t count, double* out) const;

 private:
  size_t window_size_;
  size_t num_coefficients_;
  double inv_n_;
  std::vector<double> cos_;  // [k * window_size_ + t]
  std::vector<double> sin_;
};

/// First `num_coefficients` complex coefficients of the discrete Fourier
/// transform of `window`, returned interleaved as
/// [re0, im0, re1, im1, ...] and normalised by the window length: one
/// DftBasis applied to one window.
std::vector<double> DftCoefficients(const std::vector<double>& window,
                                    size_t num_coefficients, bool drop_first);

/// Sliding-window DFT: the DftCoefficients of every stride-1 window of
/// `window_size` in `series`, as one flat row-major buffer of
/// `series.size() - window_size + 1` rows of 2·num_coefficients values (empty
/// when the series is shorter than the window). The first window is a direct
/// DFT; every later one is a momentary Fourier transform update (O(c) per
/// shift), so a full series costs O(L·c) after the first window.
std::vector<double> SlidingDft(const std::vector<double>& series,
                               size_t window_size, size_t num_coefficients,
                               bool drop_first);

}  // namespace etsc

#endif  // ETSC_ML_FOURIER_H_
