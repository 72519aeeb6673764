#include "ml/fourier.h"

#include <cmath>
#include <numbers>

#include "core/simd.h"
#include "core/status.h"

namespace etsc {

namespace {

// One accumulation step of the direct DFT, `acc + x * twiddle`. With FMA in
// the target ISA the compiler contracts that statement, as written in a plain
// per-window loop, into one fused multiply-add; it is spelled out here so
// LaneSums rounds the same way however it is vectorised.
inline double MulAdd(double x, double twiddle, double acc) {
#if defined(__FMA__)
  return std::fma(x, twiddle, acc);
#else
  return acc + x * twiddle;
#endif
}

// One coefficient's re/im sums of the kLanes neighbouring windows starting at
// x, written to out[j * row] and out[j * row + 1] for lane j. Every lane keeps
// its own serial accumulation over t and the lanes read overlapping,
// contiguous inputs, so the compiler can vectorise across windows without
// reassociating any sum.
template <size_t kLanes>
void LaneSums(const double* x, const double* cs, const double* sn, size_t n,
              size_t row, double* out) {
  double re[kLanes] = {}, im[kLanes] = {};
  for (size_t t = 0; t < n; ++t) {
    for (size_t j = 0; j < kLanes; ++j) {
      re[j] = MulAdd(x[t + j], cs[t], re[j]);
      im[j] = MulAdd(x[t + j], sn[t], im[j]);
    }
  }
  for (size_t j = 0; j < kLanes; ++j) {
    out[j * row] = re[j];
    out[j * row + 1] = im[j];
  }
}

}  // namespace

DftBasis::DftBasis(size_t window_size, size_t num_coefficients,
                   bool drop_first)
    : window_size_(window_size),
      num_coefficients_(num_coefficients),
      inv_n_(1.0 / static_cast<double>(window_size)),
      cos_(num_coefficients * window_size),
      sin_(num_coefficients * window_size) {
  const size_t first = drop_first ? 1 : 0;
  for (size_t k = 0; k < num_coefficients; ++k) {
    const double w =
        -2.0 * std::numbers::pi * static_cast<double>(k + first) * inv_n_;
    for (size_t t = 0; t < window_size; ++t) {
      const double angle = w * static_cast<double>(t);
      cos_[k * window_size + t] = std::cos(angle);
      sin_[k * window_size + t] = std::sin(angle);
    }
  }
}

void DftBasis::Sums(const double* series, size_t count, double* out) const {
  const size_t n = window_size_;
  const size_t row = row_size();
  // Four neighbouring windows per pass, then one at a time for the rest.
  size_t s = 0;
  for (; s + 4 <= count; s += 4) {
    for (size_t k = 0; k < num_coefficients_; ++k) {
      LaneSums<4>(series + s, &cos_[k * n], &sin_[k * n], n, row,
                  out + s * row + 2 * k);
    }
  }
  for (; s < count; ++s) {
    for (size_t k = 0; k < num_coefficients_; ++k) {
      LaneSums<1>(series + s, &cos_[k * n], &sin_[k * n], n, row,
                  out + s * row + 2 * k);
    }
  }
}

void DftBasis::Coefficients(const double* series, size_t count,
                            double* out) const {
  Sums(series, count, out);
  for (size_t i = 0; i < count * row_size(); ++i) out[i] *= inv_n_;
}

std::vector<double> DftCoefficients(const std::vector<double>& window,
                                    size_t num_coefficients, bool drop_first) {
  if (window.empty() || num_coefficients == 0) return {};
  const DftBasis basis(window.size(), num_coefficients, drop_first);
  std::vector<double> out(basis.row_size());
  basis.Coefficients(window.data(), 1, out.data());
  return out;
}

std::vector<double> SlidingDft(const std::vector<double>& series,
                               size_t window_size, size_t num_coefficients,
                               bool drop_first) {
  std::vector<double> out;
  if (window_size == 0 || series.size() < window_size || num_coefficients == 0) {
    return out;
  }
  const size_t num_windows = series.size() - window_size + 1;
  const size_t row = 2 * num_coefficients;
  out.resize(num_windows * row);

  const size_t first = drop_first ? 1 : 0;
  const double inv_n = 1.0 / static_cast<double>(window_size);

  // Initial window: direct DFT (un-normalised accumulators kept for updates).
  DftBasis(window_size, num_coefficients, drop_first)
      .Sums(series.data(), 1, out.data());
  std::vector<double> re(num_coefficients), im(num_coefficients);
  for (size_t k = 0; k < num_coefficients; ++k) {
    re[k] = out[2 * k];
    im[k] = out[2 * k + 1];
  }
  auto emit = [&](size_t s) {
    double* coeffs = &out[s * row];
    for (size_t k = 0; k < num_coefficients; ++k) {
      coeffs[2 * k] = re[k] * inv_n;
      coeffs[2 * k + 1] = im[k] * inv_n;
    }
  };
  emit(0);

  // Momentary Fourier updates: X'_k = (X_k - x_out + x_in·e^{-2πik·W/W}) ·
  // e^{2πik/W}; since e^{-2πik} = 1 the shift reduces to rotating
  // (X_k + x_in - x_out) by the per-step phasor. The phasors depend only on
  // (k, window_size), so the cos/sin tables are built once and the per-shift
  // work collapses to one RotatePhasors sweep over the coefficient arrays.
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
    emit(s);
  }
  return out;
}

}  // namespace etsc
