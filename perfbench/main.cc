// perfbench: the repository's perf ledger. One process runs one workload
// (serve-predict, serve-durable or campaign-cold) for a fixed time, checks
// every output, and prints every metric by name with its unit. The last
// stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// carrying the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). A full ledger file — host facts, every metric, workload
// details such as the Figure 12/13 table — goes to <ledger-dir>.
//
// Usage (perfbench/run.py builds the binary and forwards these):
//   perfbench --workload serve-predict --seed 1 --seconds 10 --trace 0
//             [--ledger-dir .bench_build/ledger]
//             [--golden perfbench/golden_campaign.csv] [--write-golden]

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algos/registrations.h"
#include "core/json.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "perfbench/ledger.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Outcome;
using perfbench::Values;

/// Each workload's pool width, capped by nproc and ETSC_THREADS. The cap of
/// 4 keeps results comparable across hosts. The serving workloads run their
/// bounded numbers serially: a dispatch every 256 events wakes the pool for
/// tens of microseconds of work, and on a shared host those wake-ups swung
/// their numbers by up to 30% between runs. Traced serve-predict runs still
/// time the pooled dispatch (serving.pooled_speedup_x).
struct WorkloadSpec {
  const char* name;
  Outcome (*run)(const Options&);
  size_t width;
};
const WorkloadSpec kWorkloads[] = {
    {"serve-predict", &perfbench::RunServePredict, 1},
    {"serve-durable", &perfbench::RunServeDurable, 1},
    {"campaign-cold", &perfbench::RunCampaignCold, 4},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric tables; BENCHMARK.json lists the same names and units. Every
// run prints every metric of its table. A per-layer metric whose layer the
// workload does not exercise reads 0.
const MetricSpec kEndToEnd[] = {
    {"events_per_s", "1/s"},    {"decision_p50_us", "us"},
    {"decision_p99_us", "us"},  {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const MetricSpec kPerLayer[] = {
    {"serving.dispatch_ms_p50", "ms"},
    {"serving.dispatch_ms_p99", "ms"},
    {"serving.dispatch_calls", "count"},
    {"serving.sessions_per_dispatch", "count"},
    {"serving.ingest_us_p50", "us"},
    {"serving.ingest_us_p99", "us"},
    {"serving.wal_appends", "count"},
    {"serving.wal_bytes_per_row", "B"},
    {"serving.discarded_frac", "ratio"},
    {"serving.decision_samples", "count"},
    {"serving.recover_s", "s"},
    {"serving.recover_us_per_obs", "us"},
    {"serving.live_us_per_event", "us"},
    {"serving.pooled_speedup_x", "ratio"},
    {"classifier.predict_calls", "count"},
    {"classifier.predict_us_p50", "us"},
    {"classifier.predict_us_p99", "us"},
    {"classifier.predict_calls_per_event", "ratio"},
    {"classifier.halts_per_predict", "ratio"},
    {"nn.candidates_scanned", "count"},
    {"nn.abandon_frac", "ratio"},
    {"distance.prefix_sq_calls", "count"},
    {"distance.subseries_windows", "count"},
    {"eval.fit_s.ECTS", "s"},
    {"eval.fit_s.EDSC", "s"},
    {"eval.fit_s.S-MINI", "s"},
    {"eval.fit_s.S-WEASEL", "s"},
    {"eval.predict_us_per_instance.ECTS", "us"},
    {"eval.predict_us_per_instance.EDSC", "us"},
    {"eval.predict_us_per_instance.S-MINI", "us"},
    {"eval.predict_us_per_instance.S-WEASEL", "us"},
    {"eval.folds_run", "count"},
    {"eval.predictions", "count"},
    {"pool.tasks_executed", "count"},
    {"pool.busy_frac", "ratio"},
    {"campaign.lane_max_s", "s"},
    {"campaign.run_s", "s"},
    {"data.generate_s", "s"},
    {"trace.overhead_x", "ratio"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve-predict|serve-durable|campaign-cold --seed N --seconds S "
               "--trace 0|1 [--ledger-dir DIR] [--golden PATH] "
               "[--write-golden]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-golden") {
      options->write_golden = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::string(value) != "0" && std::string(value) != "1") return false;
      options->trace = std::string(value) == "1";
    } else if (flag == "--ledger-dir") {
      options->ledger_dir = value;
    } else if (flag == "--golden") {
      options->golden_path = value;
    } else {
      return false;
    }
  }
  return !options->workload.empty();
}

/// Host facts recorded with every result.
std::string HostJson() {
  const char* simd_env = std::getenv("ETSC_SIMD");
  etsc::json::Writer w;
  w.BeginObject();
  w.Field("nproc", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  w.Field("pool_width", static_cast<uint64_t>(etsc::MaxParallelism()));
  w.Field("simd_compiled", std::string(etsc::simd::CompiledIsa()));
  w.Field("simd_active", std::string(etsc::simd::ActiveIsa()));
  w.Field("etsc_simd", std::string(simd_env == nullptr ? "" : simd_env));
  w.Field("build_type", std::string(PERFBENCH_BUILD_TYPE));
  w.EndObject();
  return w.str();
}

/// Orders `values` by `table`, filling metrics the workload did not report
/// with 0. Returns false when the workload reported a name the table lacks.
template <size_t N>
bool Tabulate(const MetricSpec (&table)[N], const Values& values,
              std::vector<std::pair<MetricSpec, double>>* rows) {
  for (const auto& [name, value] : values) {
    const bool known = std::any_of(std::begin(table), std::end(table),
                                   [&](const MetricSpec& m) { return name == m.name; });
    if (!known) {
      std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
      return false;
    }
  }
  for (const MetricSpec& spec : table) {
    const auto it = values.find(spec.name);
    rows->push_back({spec, it == values.end() ? 0.0 : it->second});
  }
  return true;
}

void WriteMetrics(etsc::json::Writer& w,
                  const std::vector<std::pair<MetricSpec, double>>& rows) {
  w.BeginObject();
  for (const auto& [spec, value] : rows) {
    w.Key(spec.name).BeginObject();
    w.Field("value", value);
    w.Field("unit", std::string(spec.unit));
    w.EndObject();
  }
  w.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage("bad arguments");
  const auto workload =
      std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const WorkloadSpec& w) { return options.workload == w.name; });
  if (workload == std::end(kWorkloads)) return Usage("unknown workload");

  // Never wider than the host; a model cache from the environment would turn
  // campaign-cold into a warm run.
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  etsc::SetMaxParallelism(std::min({etsc::MaxParallelism(), nproc, workload->width}));
  unsetenv("ETSC_MODEL_CACHE");
  mkdir(options.ledger_dir.c_str(), 0755);
  etsc::RegisterBuiltinClassifiers();

  Outcome outcome = workload->run(options);
  outcome.end_to_end["peak_rss_mb"] = perfbench::PeakRssMb();
  std::vector<std::pair<MetricSpec, double>> end_to_end, per_layer;
  if (!Tabulate(kEndToEnd, outcome.end_to_end, &end_to_end) ||
      !Tabulate(kPerLayer, outcome.per_layer, &per_layer)) {
    return 3;
  }
  perfbench::Ops& ops = outcome.ops;
  if (ops.attempted == 0) ops.Count(false);  // nothing ran: not a pass
  const bool correct = ops.failed == 0;
  const double failed_frac =
      static_cast<double>(ops.failed) / static_cast<double>(ops.attempted);
  const auto& printed = options.trace ? per_layer : end_to_end;

  // The ledger file: everything this run measured.
  const std::string host = HostJson();
  etsc::json::Writer ledger;
  ledger.BeginObject();
  ledger.Field("workload", options.workload);
  ledger.Field("seed", options.seed);
  ledger.Field("seconds", options.seconds);
  ledger.Field("trace", options.trace);
  ledger.Key("host").RawValue(host);
  ledger.Field("attempted", ops.attempted);
  ledger.Field("failed", ops.failed);
  ledger.Field("ops_failed_frac", failed_frac);
  ledger.Key("metrics");
  WriteMetrics(ledger, printed);
  ledger.Key("details").RawValue(outcome.details_json);
  ledger.EndObject();
  const std::string ledger_path =
      options.ledger_dir + "/" + options.workload + "-seed" +
      std::to_string(options.seed) + (options.trace ? "-trace" : "") + ".json";
  std::ofstream(ledger_path, std::ios::trunc) << ledger.str() << "\n";

  std::printf("perfbench %s seed=%llu trace=%d host=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, host.c_str());
  std::printf("  %-40s %.6g of %llu\n", "ops_failed_frac", failed_frac,
              static_cast<unsigned long long>(ops.attempted));
  for (const auto& [spec, value] : printed) {
    std::printf("  %-40s %.6g %s\n", spec.name, value, spec.unit);
  }
  std::printf("  details %s\n  ledger  %s\n", outcome.details_json.c_str(),
              ledger_path.c_str());

  etsc::json::Writer result;
  result.BeginObject();
  result.Field("correct", correct);
  result.Field("attempted", ops.attempted);
  result.Field("failed", ops.failed);
  result.Key("metrics");
  WriteMetrics(result, printed);
  result.EndObject();
  std::printf("%s\n", result.str().c_str());
  return 0;
}
