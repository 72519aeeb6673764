#include "core/simd.h"

// This translation unit is compiled with -ffp-contract=off (see
// src/core/CMakeLists.txt): the scalar reference spells out std::fma exactly
// where the vector path uses fused multiply-add, and spells mul/add where the
// vector path does not fuse — the compiler must not be able to contract one
// side only, or ETSC_SIMD would stop being a pure execution knob.
//
// Canonical accumulation structure (shared by every path of SumSqDiff and
// MinSubseriesSq): 16 independent lanes filled stride-16 (element i feeds
// lane i%16), lane-combined elementwise as (v0+v1)+(v2+v3) into 4 lanes, a
// stride-4 continuation on those lanes, the fixed (s0+s1)+(s2+s3) horizontal
// reduction of PR 2, then a sequential scalar tail. The AVX2 path maps lanes
// 4k..4k+3 onto vector accumulator k; the scalar reference keeps them in an
// acc[16] array, which GCC auto-vectorizes value-preservingly (stride-N
// independent partial sums need no reassociation) — so the ETSC_SIMD=0 path
// is the determinism reference, not a performance handicap.

#include <atomic>
#include <bit>
#include <cmath>
#include <limits>

#include "core/env.h"

#if defined(__AVX2__)
#include <immintrin.h>
#define ETSC_SIMD_LEVEL 2
#elif defined(__SSE2__) || defined(_M_X64)
#include <emmintrin.h>
#define ETSC_SIMD_LEVEL 1
#else
#define ETSC_SIMD_LEVEL 0
#endif

#if ETSC_SIMD_LEVEL == 2 && defined(__FMA__)
#define ETSC_SIMD_FMA 1
#else
#define ETSC_SIMD_FMA 0
#endif

namespace etsc {
namespace simd {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kNoPos = ~size_t{0};

/// The one multiply-add the whole layer agrees on: fused exactly when the
/// vector path fuses (FMA builds), plain mul+add otherwise.
inline double MulAdd(double x, double y, double acc) {
#if ETSC_SIMD_FMA
  return std::fma(x, y, acc);
#else
  return acc + x * y;
#endif
}

/// (a.gain, a.pos) vs a candidate, first-strictly-greater-wins: ties keep the
/// lower position, matching a sequential ascending scan.
inline void ConsiderSplit(SplitScanBest* best, double gain, size_t pos) {
  if (gain > best->gain || (gain == best->gain && pos < best->pos)) {
    best->gain = gain;
    best->pos = pos;
  }
}

std::atomic<int> g_enabled{-1};

int ParseEnabledEnv() {
  // Same validation contract as ETSC_THREADS: "yes", "01x" or an overflowing
  // value silently flipping the kernel path would hide a mistyped config.
  return static_cast<int>(env::IntegerOr("simd", "ETSC_SIMD", 1, 0, 1));
}

}  // namespace

const char* CompiledIsa() {
#if ETSC_SIMD_LEVEL == 2 && ETSC_SIMD_FMA
  return "avx2+fma";
#elif ETSC_SIMD_LEVEL == 2
  return "avx2";
#elif ETSC_SIMD_LEVEL == 1
  return "sse2";
#else
  return "scalar";
#endif
}

bool Enabled() {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    v = ParseEnabledEnv();
    g_enabled.store(v, std::memory_order_relaxed);
  }
  return v != 0 && ETSC_SIMD_LEVEL > 0;
}

const char* ActiveIsa() { return Enabled() ? CompiledIsa() : "scalar"; }

void SetEnabledForTest(int enabled) {
  g_enabled.store(enabled < 0 ? -1 : (enabled != 0 ? 1 : 0),
                  std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Scalar reference path.
// ---------------------------------------------------------------------------

namespace scalar {

double SumSqDiff(const double* a, const double* b, size_t n) {
  double acc[16] = {0.0};
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t j = 0; j < 16; ++j) {
      const double d = a[i + j] - b[i + j];
      acc[j] = MulAdd(d, d, acc[j]);
    }
  }
  double s0 = (acc[0] + acc[4]) + (acc[8] + acc[12]);
  double s1 = (acc[1] + acc[5]) + (acc[9] + acc[13]);
  double s2 = (acc[2] + acc[6]) + (acc[10] + acc[14]);
  double s3 = (acc[3] + acc[7]) + (acc[11] + acc[15]);
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 = MulAdd(d0, d0, s0);
    s1 = MulAdd(d1, d1, s1);
    s2 = MulAdd(d2, d2, s2);
    s3 = MulAdd(d3, d3, s3);
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum = MulAdd(d, d, sum);
  }
  return sum;
}

double MinSubseriesSq(const double* pattern, size_t m, const double* series,
                      size_t n, double best_sq, uint64_t* windows,
                      uint64_t* abandoned) {
  uint64_t num_windows = 0;
  uint64_t num_abandoned = 0;
  if (m == 0 || n < m) {
    if (windows != nullptr) *windows = 0;
    if (abandoned != nullptr) *abandoned = 0;
    return kInf;
  }
  for (size_t start = 0; start + m <= n; ++start) {
    ++num_windows;
    const double* s = series + start;
    bool drop = false;
    size_t i = 0;
    // Phase 1: 16 lanes, abandon check once per block. Partial sums of
    // squares only grow, so checkpoint granularity cannot change which
    // windows are abandoned — the final sum is always checked below.
    double acc[16] = {0.0};
    for (; i + 16 <= m; i += 16) {
      for (size_t j = 0; j < 16; ++j) {
        const double d = pattern[i + j] - s[i + j];
        acc[j] = MulAdd(d, d, acc[j]);
      }
      const double partial =
          (((acc[0] + acc[4]) + (acc[8] + acc[12])) +
           ((acc[1] + acc[5]) + (acc[9] + acc[13]))) +
          (((acc[2] + acc[6]) + (acc[10] + acc[14])) +
           ((acc[3] + acc[7]) + (acc[11] + acc[15])));
      if (partial >= best_sq) {
        drop = true;
        break;
      }
    }
    if (drop) {
      ++num_abandoned;
      continue;
    }
    // Phase 2: the 4 combined lanes of PR 2's kernel, check per 4-block.
    double s0 = (acc[0] + acc[4]) + (acc[8] + acc[12]);
    double s1 = (acc[1] + acc[5]) + (acc[9] + acc[13]);
    double s2 = (acc[2] + acc[6]) + (acc[10] + acc[14]);
    double s3 = (acc[3] + acc[7]) + (acc[11] + acc[15]);
    for (; i + 4 <= m; i += 4) {
      const double d0 = pattern[i] - s[i];
      const double d1 = pattern[i + 1] - s[i + 1];
      const double d2 = pattern[i + 2] - s[i + 2];
      const double d3 = pattern[i + 3] - s[i + 3];
      s0 = MulAdd(d0, d0, s0);
      s1 = MulAdd(d1, d1, s1);
      s2 = MulAdd(d2, d2, s2);
      s3 = MulAdd(d3, d3, s3);
      if ((s0 + s1) + (s2 + s3) >= best_sq) {
        drop = true;
        break;
      }
    }
    if (drop) {
      ++num_abandoned;
      continue;
    }
    // Phase 3: sequential tail, check per element.
    double sum = (s0 + s1) + (s2 + s3);
    for (; i < m; ++i) {
      const double d = pattern[i] - s[i];
      sum = MulAdd(d, d, sum);
      if (sum >= best_sq) {
        drop = true;
        break;
      }
    }
    if (drop) {
      ++num_abandoned;
      continue;
    }
    best_sq = sum;
    if (best_sq == 0.0) break;
  }
  if (windows != nullptr) *windows = num_windows;
  if (abandoned != nullptr) *abandoned = num_abandoned;
  return best_sq;
}

void Axpy(double w, const double* x, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = MulAdd(w, x[i], out[i]);
}

size_t CountGreater(const double* x, size_t n, double threshold) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) count += x[i] > threshold ? 1 : 0;
  return count;
}

void RotatePhasors(const double* cos_t, const double* sin_t, double delta,
                   double* re, double* im, size_t k) {
  // Deliberately unfused (this TU builds with -ffp-contract=off): a one-sided
  // contraction of re_new*c - im_new*s is exactly the drift this layer bans.
  for (size_t i = 0; i < k; ++i) {
    const double re_new = re[i] + delta;
    const double im_new = im[i];
    re[i] = re_new * cos_t[i] - im_new * sin_t[i];
    im[i] = re_new * sin_t[i] + im_new * cos_t[i];
  }
}

SplitScanBest SplitScan(const double* xv, const double* pg, const double* ph,
                        size_t n, double total_g, double total_h,
                        double parent_score, size_t min_leaf) {
  SplitScanBest best;
  if (n < 2) return best;
  const size_t leaf = min_leaf > 0 ? min_leaf : 1;
  if (n < 2 * leaf) return best;
  const size_t lo = leaf - 1;
  const size_t hi = n - leaf;  // exclusive
  for (size_t pos = lo; pos < hi; ++pos) {
    if (xv[pos] == xv[pos + 1]) continue;  // cannot split between equal values
    const double lg = pg[pos];
    const double lh = ph[pos];
    const double rg = total_g - lg;
    const double rh = total_h - lh;
    if (lh <= 0 || rh <= 0) continue;
    const double score = lg * lg / lh + rg * rg / rh;
    const double gain = score - parent_score;
    if (gain > best.gain) {
      best.gain = gain;
      best.pos = pos;
    }
  }
  return best;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// AVX2 path: 4 vector accumulators mirror the canonical 16 lanes.
// ---------------------------------------------------------------------------

#if ETSC_SIMD_LEVEL == 2

namespace vec {
namespace {

inline __m256d MulAddV(__m256d x, __m256d y, __m256d acc) {
#if ETSC_SIMD_FMA
  return _mm256_fmadd_pd(x, y, acc);
#else
  return _mm256_add_pd(acc, _mm256_mul_pd(x, y));
#endif
}

/// Fixed-order horizontal reduction (s0+s1)+(s2+s3) over the 4 lanes.
inline double HSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const double s0 = _mm_cvtsd_f64(lo);
  const double s1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
  const double s2 = _mm_cvtsd_f64(hi);
  const double s3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
  return (s0 + s1) + (s2 + s3);
}

/// Elementwise (v0+v1)+(v2+v3): the canonical 16->4 lane combine.
inline __m256d Combine4(__m256d v0, __m256d v1, __m256d v2, __m256d v3) {
  return _mm256_add_pd(_mm256_add_pd(v0, v1), _mm256_add_pd(v2, v3));
}

}  // namespace

double SumSqDiff(const double* a, const double* b, size_t n) {
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256d d0 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4));
    const __m256d d2 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 8), _mm256_loadu_pd(b + i + 8));
    const __m256d d3 =
        _mm256_sub_pd(_mm256_loadu_pd(a + i + 12), _mm256_loadu_pd(b + i + 12));
    a0 = MulAddV(d0, d0, a0);
    a1 = MulAddV(d1, d1, a1);
    a2 = MulAddV(d2, d2, a2);
    a3 = MulAddV(d3, d3, a3);
  }
  __m256d acc = Combine4(a0, a1, a2, a3);
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = MulAddV(d, d, acc);
  }
  double sum = HSum(acc);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum = MulAdd(d, d, sum);
  }
  return sum;
}

double MinSubseriesSq(const double* pattern, size_t m, const double* series,
                      size_t n, double best_sq, uint64_t* windows,
                      uint64_t* abandoned) {
  uint64_t num_windows = 0;
  uint64_t num_abandoned = 0;
  if (m == 0 || n < m) {
    if (windows != nullptr) *windows = 0;
    if (abandoned != nullptr) *abandoned = 0;
    return kInf;
  }
  for (size_t start = 0; start + m <= n; ++start) {
    ++num_windows;
    const double* s = series + start;
    bool drop = false;
    size_t i = 0;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    for (; i + 16 <= m; i += 16) {
      const __m256d d0 = _mm256_sub_pd(_mm256_loadu_pd(pattern + i),
                                       _mm256_loadu_pd(s + i));
      const __m256d d1 = _mm256_sub_pd(_mm256_loadu_pd(pattern + i + 4),
                                       _mm256_loadu_pd(s + i + 4));
      const __m256d d2 = _mm256_sub_pd(_mm256_loadu_pd(pattern + i + 8),
                                       _mm256_loadu_pd(s + i + 8));
      const __m256d d3 = _mm256_sub_pd(_mm256_loadu_pd(pattern + i + 12),
                                       _mm256_loadu_pd(s + i + 12));
      a0 = MulAddV(d0, d0, a0);
      a1 = MulAddV(d1, d1, a1);
      a2 = MulAddV(d2, d2, a2);
      a3 = MulAddV(d3, d3, a3);
      if (HSum(Combine4(a0, a1, a2, a3)) >= best_sq) {
        drop = true;
        break;
      }
    }
    if (drop) {
      ++num_abandoned;
      continue;
    }
    __m256d acc = Combine4(a0, a1, a2, a3);
    for (; i + 4 <= m; i += 4) {
      const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(pattern + i),
                                      _mm256_loadu_pd(s + i));
      acc = MulAddV(d, d, acc);
      if (HSum(acc) >= best_sq) {
        drop = true;
        break;
      }
    }
    if (drop) {
      ++num_abandoned;
      continue;
    }
    double sum = HSum(acc);
    for (; i < m; ++i) {
      const double d = pattern[i] - s[i];
      sum = MulAdd(d, d, sum);
      if (sum >= best_sq) {
        drop = true;
        break;
      }
    }
    if (drop) {
      ++num_abandoned;
      continue;
    }
    best_sq = sum;
    if (best_sq == 0.0) break;
  }
  if (windows != nullptr) *windows = num_windows;
  if (abandoned != nullptr) *abandoned = num_abandoned;
  return best_sq;
}

void Axpy(double w, const double* x, double* out, size_t n) {
  const __m256d vw = _mm256_set1_pd(w);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        out + i, MulAddV(vw, _mm256_loadu_pd(x + i), _mm256_loadu_pd(out + i)));
  }
  for (; i < n; ++i) out[i] = MulAdd(w, x[i], out[i]);
}

size_t CountGreater(const double* x, size_t n, double threshold) {
  const __m256d vt = _mm256_set1_pd(threshold);
  size_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(x + i), vt, _CMP_GT_OQ));
    count += static_cast<size_t>(std::popcount(static_cast<unsigned>(mask)));
  }
  for (; i < n; ++i) count += x[i] > threshold ? 1 : 0;
  return count;
}

void RotatePhasors(const double* cos_t, const double* sin_t, double delta,
                   double* re, double* im, size_t k) {
  const __m256d vd = _mm256_set1_pd(delta);
  size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    const __m256d c = _mm256_loadu_pd(cos_t + i);
    const __m256d sn = _mm256_loadu_pd(sin_t + i);
    const __m256d re_new = _mm256_add_pd(_mm256_loadu_pd(re + i), vd);
    const __m256d im_new = _mm256_loadu_pd(im + i);
    _mm256_storeu_pd(re + i, _mm256_sub_pd(_mm256_mul_pd(re_new, c),
                                           _mm256_mul_pd(im_new, sn)));
    _mm256_storeu_pd(im + i, _mm256_add_pd(_mm256_mul_pd(re_new, sn),
                                           _mm256_mul_pd(im_new, c)));
  }
  for (; i < k; ++i) {
    const double re_new = re[i] + delta;
    const double im_new = im[i];
    re[i] = re_new * cos_t[i] - im_new * sin_t[i];
    im[i] = re_new * sin_t[i] + im_new * cos_t[i];
  }
}

SplitScanBest SplitScan(const double* xv, const double* pg, const double* ph,
                        size_t n, double total_g, double total_h,
                        double parent_score, size_t min_leaf) {
  SplitScanBest best;
  if (n < 2) return best;
  const size_t leaf = min_leaf > 0 ? min_leaf : 1;
  if (n < 2 * leaf) return best;
  const size_t lo = leaf - 1;
  const size_t hi = n - leaf;  // exclusive
  const __m256d vtg = _mm256_set1_pd(total_g);
  const __m256d vth = _mm256_set1_pd(total_h);
  const __m256d vparent = _mm256_set1_pd(parent_score);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vninf = _mm256_set1_pd(-kInf);
  __m256d vbest_gain = _mm256_setzero_pd();
  __m256d vbest_pos = _mm256_set1_pd(-1.0);
  size_t pos = lo;
  for (; pos + 4 <= hi; pos += 4) {
    const __m256d x0 = _mm256_loadu_pd(xv + pos);
    const __m256d x1 = _mm256_loadu_pd(xv + pos + 1);
    const __m256d lg = _mm256_loadu_pd(pg + pos);
    const __m256d lh = _mm256_loadu_pd(ph + pos);
    const __m256d rg = _mm256_sub_pd(vtg, lg);
    const __m256d rh = _mm256_sub_pd(vth, lh);
    // valid <=> xv[pos] != xv[pos+1] (NEQ_UQ: the exact negation of ==) and
    // both hessian sums are strictly positive.
    __m256d valid = _mm256_cmp_pd(x0, x1, _CMP_NEQ_UQ);
    valid = _mm256_and_pd(valid, _mm256_cmp_pd(lh, vzero, _CMP_GT_OQ));
    valid = _mm256_and_pd(valid, _mm256_cmp_pd(rh, vzero, _CMP_GT_OQ));
    const __m256d score =
        _mm256_add_pd(_mm256_div_pd(_mm256_mul_pd(lg, lg), lh),
                      _mm256_div_pd(_mm256_mul_pd(rg, rg), rh));
    __m256d gain = _mm256_sub_pd(score, vparent);
    gain = _mm256_blendv_pd(vninf, gain, valid);
    const __m256d better = _mm256_cmp_pd(gain, vbest_gain, _CMP_GT_OQ);
    vbest_gain = _mm256_blendv_pd(vbest_gain, gain, better);
    const __m256d vpos = _mm256_set_pd(
        static_cast<double>(pos + 3), static_cast<double>(pos + 2),
        static_cast<double>(pos + 1), static_cast<double>(pos));
    vbest_pos = _mm256_blendv_pd(vbest_pos, vpos, better);
  }
  // Lane reduce in position order (lane j saw positions base+j), then the
  // scalar remainder — every remaining position is greater than any lane's,
  // so strict > preserves the global first-wins tie rule.
  alignas(32) double gains[4];
  alignas(32) double positions[4];
  _mm256_store_pd(gains, vbest_gain);
  _mm256_store_pd(positions, vbest_pos);
  for (size_t j = 0; j < 4; ++j) {
    if (positions[j] >= 0.0) {
      ConsiderSplit(&best, gains[j], static_cast<size_t>(positions[j]));
    }
  }
  for (; pos < hi; ++pos) {
    if (xv[pos] == xv[pos + 1]) continue;
    const double lg = pg[pos];
    const double lh = ph[pos];
    const double rg = total_g - lg;
    const double rh = total_h - lh;
    if (lh <= 0 || rh <= 0) continue;
    const double score = lg * lg / lh + rg * rg / rh;
    const double gain = score - parent_score;
    if (gain > best.gain) {
      best.gain = gain;
      best.pos = pos;
    }
  }
  if (best.pos == kNoPos) best.gain = 0.0;
  return best;
}

}  // namespace vec

#endif  // ETSC_SIMD_LEVEL == 2

// ---------------------------------------------------------------------------
// SSE2 path: paired __m128d registers mirror the same canonical lanes.
// acc128[2k]/acc128[2k+1] hold canonical lanes (4k,4k+1)/(4k+2,4k+3).
// SplitScan stays on the scalar code (identical results, selection logic is
// not worth 2-wide lanes).
// ---------------------------------------------------------------------------

#if ETSC_SIMD_LEVEL == 1

namespace vec {
namespace {

inline __m128d MulAddV(__m128d x, __m128d y, __m128d acc) {
  return _mm_add_pd(acc, _mm_mul_pd(x, y));
}

/// (s0+s1)+(s2+s3) over the canonical 4 lanes held as (lo: s0,s1; hi: s2,s3).
inline double HSumPair(__m128d lo, __m128d hi) {
  const double s0 = _mm_cvtsd_f64(lo);
  const double s1 = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
  const double s2 = _mm_cvtsd_f64(hi);
  const double s3 = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
  return (s0 + s1) + (s2 + s3);
}

}  // namespace

double SumSqDiff(const double* a, const double* b, size_t n) {
  __m128d acc[8];
  for (auto& v : acc) v = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    for (size_t j = 0; j < 8; ++j) {
      const __m128d d = _mm_sub_pd(_mm_loadu_pd(a + i + 2 * j),
                                   _mm_loadu_pd(b + i + 2 * j));
      acc[j] = MulAddV(d, d, acc[j]);
    }
  }
  // Canonical combine (v0+v1)+(v2+v3), elementwise on the register pairs.
  __m128d lo = _mm_add_pd(_mm_add_pd(acc[0], acc[2]), _mm_add_pd(acc[4], acc[6]));
  __m128d hi = _mm_add_pd(_mm_add_pd(acc[1], acc[3]), _mm_add_pd(acc[5], acc[7]));
  for (; i + 4 <= n; i += 4) {
    const __m128d d0 = _mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i));
    const __m128d d1 =
        _mm_sub_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2));
    lo = MulAddV(d0, d0, lo);
    hi = MulAddV(d1, d1, hi);
  }
  double sum = HSumPair(lo, hi);
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    sum = MulAdd(d, d, sum);
  }
  return sum;
}

double MinSubseriesSq(const double* pattern, size_t m, const double* series,
                      size_t n, double best_sq, uint64_t* windows,
                      uint64_t* abandoned) {
  uint64_t num_windows = 0;
  uint64_t num_abandoned = 0;
  if (m == 0 || n < m) {
    if (windows != nullptr) *windows = 0;
    if (abandoned != nullptr) *abandoned = 0;
    return kInf;
  }
  for (size_t start = 0; start + m <= n; ++start) {
    ++num_windows;
    const double* s = series + start;
    bool drop = false;
    size_t i = 0;
    __m128d acc[8];
    for (auto& v : acc) v = _mm_setzero_pd();
    for (; i + 16 <= m; i += 16) {
      for (size_t j = 0; j < 8; ++j) {
        const __m128d d = _mm_sub_pd(_mm_loadu_pd(pattern + i + 2 * j),
                                     _mm_loadu_pd(s + i + 2 * j));
        acc[j] = MulAddV(d, d, acc[j]);
      }
      const __m128d plo =
          _mm_add_pd(_mm_add_pd(acc[0], acc[2]), _mm_add_pd(acc[4], acc[6]));
      const __m128d phi =
          _mm_add_pd(_mm_add_pd(acc[1], acc[3]), _mm_add_pd(acc[5], acc[7]));
      if (HSumPair(plo, phi) >= best_sq) {
        drop = true;
        break;
      }
    }
    if (drop) {
      ++num_abandoned;
      continue;
    }
    __m128d lo =
        _mm_add_pd(_mm_add_pd(acc[0], acc[2]), _mm_add_pd(acc[4], acc[6]));
    __m128d hi =
        _mm_add_pd(_mm_add_pd(acc[1], acc[3]), _mm_add_pd(acc[5], acc[7]));
    for (; i + 4 <= m; i += 4) {
      const __m128d d0 =
          _mm_sub_pd(_mm_loadu_pd(pattern + i), _mm_loadu_pd(s + i));
      const __m128d d1 =
          _mm_sub_pd(_mm_loadu_pd(pattern + i + 2), _mm_loadu_pd(s + i + 2));
      lo = MulAddV(d0, d0, lo);
      hi = MulAddV(d1, d1, hi);
      if (HSumPair(lo, hi) >= best_sq) {
        drop = true;
        break;
      }
    }
    if (drop) {
      ++num_abandoned;
      continue;
    }
    double sum = HSumPair(lo, hi);
    for (; i < m; ++i) {
      const double d = pattern[i] - s[i];
      sum = MulAdd(d, d, sum);
      if (sum >= best_sq) {
        drop = true;
        break;
      }
    }
    if (drop) {
      ++num_abandoned;
      continue;
    }
    best_sq = sum;
    if (best_sq == 0.0) break;
  }
  if (windows != nullptr) *windows = num_windows;
  if (abandoned != nullptr) *abandoned = num_abandoned;
  return best_sq;
}

void Axpy(double w, const double* x, double* out, size_t n) {
  const __m128d vw = _mm_set1_pd(w);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(out + i,
                  MulAddV(vw, _mm_loadu_pd(x + i), _mm_loadu_pd(out + i)));
  }
  for (; i < n; ++i) out[i] = MulAdd(w, x[i], out[i]);
}

size_t CountGreater(const double* x, size_t n, double threshold) {
  const __m128d vt = _mm_set1_pd(threshold);
  size_t count = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const int mask = _mm_movemask_pd(_mm_cmpgt_pd(_mm_loadu_pd(x + i), vt));
    count += static_cast<size_t>(std::popcount(static_cast<unsigned>(mask)));
  }
  for (; i < n; ++i) count += x[i] > threshold ? 1 : 0;
  return count;
}

void RotatePhasors(const double* cos_t, const double* sin_t, double delta,
                   double* re, double* im, size_t k) {
  const __m128d vd = _mm_set1_pd(delta);
  size_t i = 0;
  for (; i + 2 <= k; i += 2) {
    const __m128d c = _mm_loadu_pd(cos_t + i);
    const __m128d sn = _mm_loadu_pd(sin_t + i);
    const __m128d re_new = _mm_add_pd(_mm_loadu_pd(re + i), vd);
    const __m128d im_new = _mm_loadu_pd(im + i);
    _mm_storeu_pd(re + i,
                  _mm_sub_pd(_mm_mul_pd(re_new, c), _mm_mul_pd(im_new, sn)));
    _mm_storeu_pd(im + i,
                  _mm_add_pd(_mm_mul_pd(re_new, sn), _mm_mul_pd(im_new, c)));
  }
  for (; i < k; ++i) {
    const double re_new = re[i] + delta;
    const double im_new = im[i];
    re[i] = re_new * cos_t[i] - im_new * sin_t[i];
    im[i] = re_new * sin_t[i] + im_new * cos_t[i];
  }
}

SplitScanBest SplitScan(const double* xv, const double* pg, const double* ph,
                        size_t n, double total_g, double total_h,
                        double parent_score, size_t min_leaf) {
  return scalar::SplitScan(xv, pg, ph, n, total_g, total_h, parent_score,
                           min_leaf);
}

}  // namespace vec

#endif  // ETSC_SIMD_LEVEL == 1

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

double SumSqDiff(const double* a, const double* b, size_t n) {
#if ETSC_SIMD_LEVEL > 0
  if (Enabled()) return vec::SumSqDiff(a, b, n);
#endif
  return scalar::SumSqDiff(a, b, n);
}

double MinSubseriesSq(const double* pattern, size_t m, const double* series,
                      size_t n, double best_sq, uint64_t* windows,
                      uint64_t* abandoned) {
#if ETSC_SIMD_LEVEL > 0
  if (Enabled()) {
    return vec::MinSubseriesSq(pattern, m, series, n, best_sq, windows,
                               abandoned);
  }
#endif
  return scalar::MinSubseriesSq(pattern, m, series, n, best_sq, windows,
                                abandoned);
}

void Axpy(double w, const double* x, double* out, size_t n) {
#if ETSC_SIMD_LEVEL > 0
  if (Enabled()) {
    vec::Axpy(w, x, out, n);
    return;
  }
#endif
  scalar::Axpy(w, x, out, n);
}

size_t CountGreater(const double* x, size_t n, double threshold) {
#if ETSC_SIMD_LEVEL > 0
  if (Enabled()) return vec::CountGreater(x, n, threshold);
#endif
  return scalar::CountGreater(x, n, threshold);
}

void RotatePhasors(const double* cos_t, const double* sin_t, double delta,
                   double* re, double* im, size_t k) {
#if ETSC_SIMD_LEVEL > 0
  if (Enabled()) {
    vec::RotatePhasors(cos_t, sin_t, delta, re, im, k);
    return;
  }
#endif
  scalar::RotatePhasors(cos_t, sin_t, delta, re, im, k);
}

SplitScanBest SplitScan(const double* xv, const double* pg, const double* ph,
                        size_t n, double total_g, double total_h,
                        double parent_score, size_t min_leaf) {
#if ETSC_SIMD_LEVEL > 0
  if (Enabled()) {
    return vec::SplitScan(xv, pg, ph, n, total_g, total_h, parent_score,
                          min_leaf);
  }
#endif
  return scalar::SplitScan(xv, pg, ph, n, total_g, total_h, parent_score,
                           min_leaf);
}

}  // namespace simd
}  // namespace etsc
