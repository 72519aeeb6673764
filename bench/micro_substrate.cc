// Google-benchmark microbenchmarks of the ML substrate kernels behind the
// ETSC algorithms: sliding DFT, SFA words, WEASEL/MiniROCKET transforms,
// k-means, subseries distance, GBDT and the LSTM forward pass.
//
// When ETSC_BENCH_SIMD_OUT names a path, the custom main additionally
// measures the SIMD substrate (explicit-vector kernels vs. the frozen
// pre-SIMD scalar implementations) and writes it there, with the host's core
// count, ISA, ETSC_THREADS and ETSC_SIMD. Re-record the committed file with
// `ETSC_BENCH_SIMD_OUT=BENCH_simd.json build/bench/micro_substrate`; a plain
// run writes nothing. Serving and pool speed are measured by perfbench/, not
// here.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numbers>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/env.h"
#include "core/evaluation.h"
#include "core/rng.h"
#include "core/simd.h"
#include "ml/distance.h"
#include "ml/fourier.h"
#include "ml/gbdt.h"
#include "ml/kmeans.h"
#include "ml/nn/lstm.h"
#include "ml/sfa.h"
#include "tests/test_util.h"
#include "tsc/minirocket.h"
#include "tsc/weasel.h"

namespace {

std::vector<double> RandomSeries(size_t n, uint64_t seed) {
  etsc::Rng rng(seed);
  std::vector<double> out(n);
  for (double& v : out) v = rng.Gaussian();
  return out;
}

void BM_SlidingDft(benchmark::State& state) {
  const auto series = RandomSeries(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(etsc::SlidingDft(series, 32, 4, true));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SlidingDft)->Range(128, 2048)->Complexity(benchmark::oN);

void BM_SfaWord(benchmark::State& state) {
  etsc::Rng rng(2);
  std::vector<std::vector<double>> windows(64);
  std::vector<int> labels(64);
  for (size_t i = 0; i < windows.size(); ++i) {
    windows[i] = RandomSeries(32, 100 + i);
    labels[i] = static_cast<int>(i % 2);
  }
  etsc::Sfa sfa;
  const std::vector<std::span<const double>> views(windows.begin(), windows.end());
  (void)sfa.Fit(views, 32, labels);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sfa.Word(windows[0]));
  }
}
BENCHMARK(BM_SfaWord);

void BM_WeaselFit(benchmark::State& state) {
  const etsc::Dataset data =
      etsc::testing::MakeToyDataset(static_cast<size_t>(state.range(0)), 64);
  for (auto _ : state) {
    etsc::WeaselClassifier model;
    benchmark::DoNotOptimize(model.Fit(data));
  }
}
BENCHMARK(BM_WeaselFit)->Arg(10)->Arg(20)->Arg(40);

void BM_MiniRocketTransform(benchmark::State& state) {
  const etsc::Dataset data = etsc::testing::MakeToyDataset(10, 128);
  etsc::MiniRocketClassifier model;
  (void)model.Fit(data);
  const etsc::TimeSeries& ts = data.instance(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Transform(ts));
  }
}
BENCHMARK(BM_MiniRocketTransform);

void BM_KMeans(benchmark::State& state) {
  etsc::Rng gen(3);
  std::vector<std::vector<double>> points(static_cast<size_t>(state.range(0)));
  for (auto& p : points) p = RandomSeries(16, gen.engine()());
  for (auto _ : state) {
    etsc::Rng rng(4);
    etsc::KMeansOptions options;
    options.num_clusters = 3;
    benchmark::DoNotOptimize(etsc::KMeansFit(points, options, &rng));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_KMeans)->Range(64, 1024)->Complexity(benchmark::oN);

void BM_MinSubseriesDistance(benchmark::State& state) {
  const auto pattern = RandomSeries(16, 5);
  const auto series = RandomSeries(static_cast<size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(etsc::MinSubseriesDistance(pattern, series));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinSubseriesDistance)->Range(128, 4096)->Complexity(benchmark::oN);

void BM_MinSubseriesDistanceSq(benchmark::State& state) {
  const auto pattern = RandomSeries(16, 5);
  const auto series = RandomSeries(static_cast<size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(etsc::MinSubseriesDistanceSq(pattern, series));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinSubseriesDistanceSq)
    ->Range(128, 4096)
    ->Complexity(benchmark::oN);

void BM_GbdtFit(benchmark::State& state) {
  etsc::Rng gen(7);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<std::vector<double>> x(n);
  std::vector<int> y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = RandomSeries(8, 200 + i);
    y[i] = x[i][0] > 0 ? 1 : 0;
  }
  etsc::GbdtOptions options;
  options.num_rounds = 10;
  for (auto _ : state) {
    etsc::GbdtClassifier model(options);
    benchmark::DoNotOptimize(model.Fit(x, y, nullptr));
  }
}
BENCHMARK(BM_GbdtFit)->Arg(64)->Arg(256);

void BM_LstmForward(benchmark::State& state) {
  etsc::Rng rng(8);
  etsc::nn::Lstm lstm(32, 16, &rng);
  std::vector<std::vector<std::vector<double>>> input(
      4, std::vector<std::vector<double>>(static_cast<size_t>(state.range(0))));
  for (auto& seq : input) {
    for (auto& step : seq) step = RandomSeries(32, 300);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.Forward(input));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LstmForward)->Range(4, 64)->Complexity(benchmark::oN);

// ---------------------------------------------------------------------------
// BENCH_simd.json: explicit-vector kernels vs. the frozen pre-SIMD scalars
// ---------------------------------------------------------------------------

/// Wall-clock ns per call of `fn`, doubling the repetition count until the
/// measurement window exceeds 50ms.
template <typename Fn>
double NsPerOp(Fn&& fn) {
  fn();  // warm-up
  size_t reps = 1;
  for (;;) {
    etsc::Stopwatch timer;
    for (size_t r = 0; r < reps; ++r) fn();
    const double elapsed = timer.Seconds();
    if (elapsed > 0.05 || reps >= (1u << 22)) {
      return elapsed * 1e9 / static_cast<double>(reps);
    }
    reps *= 2;
  }
}

// The four baselines below are verbatim freezes of the hot-path
// implementations as they stood before the simd layer (PR "SoA + SIMD"),
// so the recorded speedups keep meaning even after the library versions
// evolve further.

double FrozenMinSubseriesSq(const std::vector<double>& pattern,
                            const std::vector<double>& series,
                            double best_sq) {
  const size_t m = pattern.size();
  if (m == 0 || series.size() < m) {
    return std::numeric_limits<double>::infinity();
  }
  const double* p = pattern.data();
  for (size_t start = 0; start + m <= series.size(); ++start) {
    const double* s = series.data() + start;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    size_t i = 0;
    bool abandoned = false;
    for (; i + 4 <= m; i += 4) {
      const double d0 = p[i] - s[i];
      const double d1 = p[i + 1] - s[i + 1];
      const double d2 = p[i + 2] - s[i + 2];
      const double d3 = p[i + 3] - s[i + 3];
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
      if ((s0 + s1) + (s2 + s3) >= best_sq) {
        abandoned = true;
        break;
      }
    }
    if (abandoned) continue;
    double sum = (s0 + s1) + (s2 + s3);
    for (; i < m; ++i) {
      const double d = p[i] - s[i];
      sum += d * d;
      if (sum >= best_sq) {
        abandoned = true;
        break;
      }
    }
    if (abandoned) continue;
    best_sq = sum;
    if (best_sq == 0.0) break;
  }
  return best_sq;
}

void FrozenMiniRocketApply(const std::vector<double>& pooled,
                           size_t kernel_index, size_t dilation,
                           std::vector<double>* out) {
  const size_t length = pooled.size();
  const auto& triple = etsc::MiniRocketKernelTriples()[kernel_index];
  const int d = static_cast<int>(dilation);
  const int half = 4 * d;
  for (size_t t = 0; t < length; ++t) {
    double sum = 0.0;
    for (int k = 0; k < 9; ++k) {
      const int src = static_cast<int>(t) - half + k * d;
      if (src < 0 || src >= static_cast<int>(length)) continue;
      double w = -1.0;
      if (static_cast<size_t>(k) == triple[0] ||
          static_cast<size_t>(k) == triple[1] ||
          static_cast<size_t>(k) == triple[2]) {
        w = 2.0;
      }
      sum += w * pooled[static_cast<size_t>(src)];
    }
    (*out)[t] = sum;
  }
}

std::vector<double> FrozenSlidingDft(
    const std::vector<double>& series, size_t window_size,
    size_t num_coefficients, bool drop_first) {
  std::vector<double> out;
  if (window_size == 0 || series.size() < window_size || num_coefficients == 0) {
    return out;
  }
  const size_t num_windows = series.size() - window_size + 1;
  out.reserve(num_windows * 2 * num_coefficients);
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
    for (size_t k = 0; k < num_coefficients; ++k) {
      out.push_back(re[k] * inv_n);
      out.push_back(im[k] * inv_n);
    }
  };
  emit();
  for (size_t s = 1; s < num_windows; ++s) {
    const double x_out = series[s - 1];
    const double x_in = series[s + window_size - 1];
    for (size_t k = 0; k < num_coefficients; ++k) {
      const double theta =
          2.0 * std::numbers::pi * static_cast<double>(k + first) * inv_n;
      const double c = std::cos(theta), sn = std::sin(theta);
      const double re_new = re[k] + (x_in - x_out);
      const double im_new = im[k];
      re[k] = re_new * c - im_new * sn;
      im[k] = re_new * sn + im_new * c;
    }
    emit();
  }
  return out;
}

etsc::simd::SplitScanBest FrozenSplitScan(
    const std::vector<double>& xv, const std::vector<double>& gs,
    const std::vector<double>& hs, double total_g, double total_h,
    double parent_score, size_t min_leaf) {
  etsc::simd::SplitScanBest best;
  const size_t n = xv.size();
  double left_g = 0.0, left_h = 0.0;
  for (size_t pos = 0; pos + 1 < n; ++pos) {
    left_g += gs[pos];
    left_h += hs[pos];
    if (xv[pos] == xv[pos + 1]) continue;
    const size_t n_left = pos + 1;
    const size_t n_right = n - n_left;
    if (n_left < min_leaf || n_right < min_leaf) continue;
    const double right_g = total_g - left_g;
    const double right_h = total_h - left_h;
    if (left_h <= 0 || right_h <= 0) continue;
    const double score = left_g * left_g / left_h + right_g * right_g / right_h;
    const double gain = score - parent_score;
    if (gain > best.gain) {
      best.gain = gain;
      best.pos = pos;
    }
  }
  return best;
}

void WriteSimdBench(const char* path) {
  // MinSubseriesDistanceSq: m=64 pattern over n=4096 series, full scan (the
  // shapelet-scan shape EDSC produces).
  const auto pattern = RandomSeries(64, 21);
  const auto series = RandomSeries(4096, 22);
  const double minsub_base_ns = NsPerOp([&] {
    benchmark::DoNotOptimize(FrozenMinSubseriesSq(
        pattern, series, std::numeric_limits<double>::infinity()));
  });
  const double minsub_simd_ns = NsPerOp([&] {
    benchmark::DoNotOptimize(etsc::MinSubseriesDistanceSq(pattern, series));
  });

  // MiniROCKET kernel application: one kernel on a 4096-point pooled series.
  const auto pooled = RandomSeries(4096, 23);
  std::vector<double> conv(pooled.size(), 0.0);
  const double rocket_base_ns = NsPerOp([&] {
    FrozenMiniRocketApply(pooled, 42, 4, &conv);
    benchmark::DoNotOptimize(conv.data());
  });
  const double rocket_simd_ns = NsPerOp([&] {
    std::fill(conv.begin(), conv.end(), 0.0);
    etsc::MiniRocketApplyKernel(pooled, 42, 4, conv);
    benchmark::DoNotOptimize(conv.data());
  });

  // Sliding DFT (the WEASEL/SFA windowed transform): 2048 points, window 32,
  // 16 coefficients.
  const auto sfa_series = RandomSeries(2048, 24);
  const double dft_base_ns = NsPerOp([&] {
    benchmark::DoNotOptimize(FrozenSlidingDft(sfa_series, 32, 16, true));
  });
  const double dft_simd_ns = NsPerOp([&] {
    benchmark::DoNotOptimize(etsc::SlidingDft(sfa_series, 32, 16, true));
  });

  // GBDT split scan: one feature of 4096 sorted values, unit hessians.
  const size_t n = 4096;
  std::vector<double> xv = RandomSeries(n, 25);
  std::sort(xv.begin(), xv.end());
  const std::vector<double> gs = RandomSeries(n, 26);
  const std::vector<double> hs(n, 1.0);
  double total_g = 0.0, total_h = 0.0;
  std::vector<double> pg(n), ph(n);
  for (size_t i = 0; i < n; ++i) {
    total_g += gs[i];
    total_h += hs[i];
    pg[i] = total_g;
    ph[i] = total_h;
  }
  const double parent_score = total_g * total_g / total_h;
  const double split_base_ns = NsPerOp([&] {
    benchmark::DoNotOptimize(
        FrozenSplitScan(xv, gs, hs, total_g, total_h, parent_score, 5));
  });
  const double split_simd_ns = NsPerOp([&] {
    benchmark::DoNotOptimize(etsc::simd::SplitScan(
        xv.data(), pg.data(), ph.data(), n, total_g, total_h, parent_score, 5));
  });

  const std::string simd_env = etsc::env::StringOr("ETSC_SIMD", "");
  const std::string threads_env = etsc::env::StringOr("ETSC_THREADS", "");
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"etsc_threads_env\": \"%s\",\n"
               "  \"isa_compiled\": \"%s\",\n"
               "  \"isa_active\": \"%s\",\n"
               "  \"etsc_simd_env\": \"%s\",\n"
               "  \"kernels\": {\n"
               "    \"min_subseries_sq\": {\"baseline_ns\": %.1f, "
               "\"simd_ns\": %.1f, \"speedup\": %.3f},\n"
               "    \"minirocket_apply\": {\"baseline_ns\": %.1f, "
               "\"simd_ns\": %.1f, \"speedup\": %.3f},\n"
               "    \"sliding_dft\": {\"baseline_ns\": %.1f, "
               "\"simd_ns\": %.1f, \"speedup\": %.3f},\n"
               "    \"gbdt_split_scan\": {\"baseline_ns\": %.1f, "
               "\"simd_ns\": %.1f, \"speedup\": %.3f}\n"
               "  }\n"
               "}\n",
               std::thread::hardware_concurrency(), threads_env.c_str(),
               etsc::simd::CompiledIsa(), etsc::simd::ActiveIsa(),
               simd_env.c_str(),
               minsub_base_ns, minsub_simd_ns, minsub_base_ns / minsub_simd_ns,
               rocket_base_ns, rocket_simd_ns, rocket_base_ns / rocket_simd_ns,
               dft_base_ns, dft_simd_ns, dft_base_ns / dft_simd_ns,
               split_base_ns, split_simd_ns, split_base_ns / split_simd_ns);
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const char* simd_out = std::getenv("ETSC_BENCH_SIMD_OUT");
  if (simd_out != nullptr && *simd_out != '\0') WriteSimdBench(simd_out);
  return 0;
}
