// Serving-engine benchmark (DESIGN.md sec 14): replays a deterministic
// ingest trace of concurrent partial series through the multi-session
// ServingEngine and writes BENCH_serving.json — sessions/sec, sustained
// ingest rate, and p50/p99 per-decision latency from the core/counters
// histograms — at pool width 1 (the serial floor) and width 8. Every engine
// run is cross-checked bit-for-bit against the sequential
// single-StreamingSession reference before its numbers are reported.
//
// Durability and overload sections (DESIGN.md sec 16): the same replay with
// the session WAL armed (journaling overhead vs the pooled run), a crash —
// half the trace journaled, the engine abandoned — recovered and resumed to
// the bit-identical decision set (recovery replay time, resume wall), and a
// shedding run squeezed through a deliberately tiny session table (decided
// sessions shed at the soft watermark, refusals counted).
//
// Knobs: ETSC_BENCH_SERVING_OUT (default BENCH_serving.json; empty skips),
// ETSC_BENCH_SERVING_SESSIONS (default 2000; junk warns and keeps it),
// ETSC_BENCH_SERVING_DATASET (default PowerCons), ETSC_BENCH_SERVING_ALGO
// (default ects; any registry name or '<base>+<trigger>' spec).

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algos/registrations.h"
#include "core/counters.h"
#include "core/env.h"
#include "core/evaluation.h"
#include "core/parallel.h"
#include "core/registry.h"
#include "core/serving.h"
#include "data/repository.h"

namespace {

struct RunNumbers {
  double wall_seconds = 0.0;
  double sessions_per_second = 0.0;
  double ingest_per_second = 0.0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  size_t batches = 0;
  size_t wal_appends = 0;
  bool bit_identical = false;
};

/// One engine replay at pool `width` (journaling to `wal_path` when
/// non-empty), verified against `expected`.
RunNumbers RunAtWidth(size_t width,
                      const std::shared_ptr<const etsc::EarlyClassifier>& model,
                      const etsc::Dataset& data, size_t num_sessions,
                      const std::vector<etsc::IngestEvent>& trace,
                      const std::vector<etsc::ReplayOutcome>& expected,
                      const std::string& wal_path = std::string()) {
  etsc::SetMaxParallelism(width);
  etsc::Histogram& latency =
      etsc::MetricRegistry::Global().histogram("serving.decision_seconds");
  latency.Reset();

  etsc::ServingOptions options;
  options.expected_length = data.MaxLength();
  options.wal_path = wal_path;
  etsc::ServingEngine engine(options);
  RunNumbers numbers;
  if (!engine.RegisterModel("bench", model, data.NumVariables()).ok()) {
    etsc::SetMaxParallelism(0);
    return numbers;
  }
  etsc::Stopwatch timer;
  const auto actual =
      etsc::ReplayThroughEngine(engine, "bench", num_sessions, trace, 256);
  numbers.wall_seconds = timer.Seconds();
  etsc::SetMaxParallelism(0);
  if (!actual.ok()) return numbers;

  numbers.bit_identical = actual->size() == expected.size();
  for (size_t s = 0; numbers.bit_identical && s < expected.size(); ++s) {
    numbers.bit_identical = (*actual)[s] == expected[s];
  }
  numbers.sessions_per_second =
      static_cast<double>(num_sessions) / numbers.wall_seconds;
  numbers.ingest_per_second =
      static_cast<double>(trace.size()) / numbers.wall_seconds;
  numbers.p50_seconds = latency.Quantile(0.5);
  numbers.p99_seconds = latency.Quantile(0.99);
  numbers.batches = engine.stats().batches;
  numbers.wal_appends = engine.stats().wal_appends;
  return numbers;
}

struct RecoveryNumbers {
  size_t sessions_recovered = 0;
  size_t observations_replayed = 0;
  double replay_seconds = 0.0;
  double resume_wall_seconds = 0.0;
  bool bit_identical = false;
};

/// Crash-recovery drill: journal the first half of the trace, abandon the
/// engine mid-flight (a process death leaves exactly this file), recover a
/// fresh engine from the WAL and resume the remainder — the decision set
/// must still match the never-crashed sequential reference.
RecoveryNumbers RunRecovery(
    const std::shared_ptr<const etsc::EarlyClassifier>& model,
    const etsc::Dataset& data, size_t num_sessions,
    const std::vector<etsc::IngestEvent>& trace,
    const std::vector<etsc::ReplayOutcome>& expected,
    const std::string& wal_path) {
  std::remove(wal_path.c_str());
  RecoveryNumbers numbers;
  {
    etsc::ServingOptions options;
    options.expected_length = data.MaxLength();
    options.wal_path = wal_path;
    etsc::ServingEngine engine(options);
    if (!engine.RegisterModel("bench", model, data.NumVariables()).ok()) {
      return numbers;
    }
    std::vector<etsc::SessionId> ids(num_sessions);
    for (size_t s = 0; s < num_sessions; ++s) {
      auto id = engine.Open("bench");
      if (!id.ok()) return numbers;
      ids[s] = *id;
    }
    size_t since = 0;
    for (size_t e = 0; e < trace.size() / 2; ++e) {
      if (!engine.Ingest(ids[trace[e].session], trace[e].values).ok()) {
        return numbers;
      }
      if (++since >= 256) {
        since = 0;
        if (!engine.DispatchBatch().ok()) return numbers;
      }
    }
  }  // abandoned: no Finish, no Close — the observable state of a SIGKILL

  etsc::ServingOptions options;
  options.expected_length = data.MaxLength();
  etsc::ServingEngine recovered(options);
  if (!recovered.RegisterModel("bench", model, data.NumVariables()).ok()) {
    return numbers;
  }
  const auto recovery = recovered.Recover(wal_path);
  if (!recovery.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovery.status().ToString().c_str());
    return numbers;
  }
  numbers.sessions_recovered = recovery->sessions_recovered;
  numbers.observations_replayed = recovery->observations_replayed;
  numbers.replay_seconds = recovery->replay_seconds;

  etsc::Stopwatch timer;
  const auto actual = etsc::ResumeReplayThroughEngine(recovered, "bench",
                                                      num_sessions, trace, 256);
  numbers.resume_wall_seconds = timer.Seconds();
  if (!actual.ok()) return numbers;
  numbers.bit_identical = actual->size() == expected.size();
  for (size_t s = 0; numbers.bit_identical && s < expected.size(); ++s) {
    numbers.bit_identical = (*actual)[s] == expected[s];
  }
  return numbers;
}

struct ShedNumbers {
  size_t opened = 0;
  size_t shed_decided = 0;
  size_t shed_refusals = 0;
  double wall_seconds = 0.0;
};

/// Overload drill: squeeze `pressure_sessions` full-series sessions through
/// a table capped at `max_sessions` with the soft watermark at 0.5 — every
/// admission past the watermark sheds the decided sessions ahead of it, so
/// the run completes without a single hard refusal.
ShedNumbers RunShedPressure(
    const std::shared_ptr<const etsc::EarlyClassifier>& model,
    const etsc::Dataset& data, size_t pressure_sessions,
    size_t max_sessions) {
  etsc::ServingOptions options;
  options.expected_length = data.MaxLength();
  options.max_sessions = max_sessions;
  options.soft_watermark = 0.5;
  etsc::ServingEngine engine(options);
  ShedNumbers numbers;
  if (!engine.RegisterModel("bench", model, data.NumVariables()).ok()) {
    return numbers;
  }
  etsc::Stopwatch timer;
  for (size_t s = 0; s < pressure_sessions; ++s) {
    auto id = engine.Open("bench");
    if (!id.ok()) continue;  // counted by the engine as a shed refusal
    const etsc::TimeSeries& instance = data.instance(s % data.size());
    std::vector<double> point(data.NumVariables());
    for (size_t t = 0; t < instance.length(); ++t) {
      for (size_t v = 0; v < point.size(); ++v) point[v] = instance.at(v, t);
      if (!engine.Ingest(*id, point).ok()) break;
    }
    if ((s + 1) % 8 == 0 && !engine.DispatchBatch().ok()) break;
  }
  (void)engine.DispatchBatch();
  numbers.wall_seconds = timer.Seconds();
  const etsc::ServingStats stats = engine.stats();
  numbers.opened = stats.opened;
  numbers.shed_decided = stats.shed_decided;
  numbers.shed_refusals = stats.shed_refusals;
  return numbers;
}

int WriteServingBench(const char* path) {
  const std::string dataset_name =
      etsc::env::StringOr("ETSC_BENCH_SERVING_DATASET", "PowerCons");
  // A registry name or any '<base>+<trigger>' spec.
  const std::string algo =
      etsc::env::StringOr("ETSC_BENCH_SERVING_ALGO", "ects");
  const size_t num_sessions = static_cast<size_t>(etsc::env::NumberOr(
      "bench", "ETSC_BENCH_SERVING_SESSIONS", 2000.0, 1.0, 1e9));

  etsc::RepositoryOptions repo;
  auto benchmark = etsc::MakeBenchmarkDataset(dataset_name, repo);
  if (!benchmark.ok()) {
    std::fprintf(stderr, "%s\n", benchmark.status().ToString().c_str());
    return 1;
  }
  etsc::Dataset data = std::move(benchmark->data);
  data.FillMissingValues();

  auto created = etsc::ClassifierRegistry::Global().Create(algo);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<etsc::EarlyClassifier> model = std::move(*created);
  const etsc::Status fitted = model->Fit(data);
  if (!fitted.ok()) {
    std::fprintf(stderr, "fit failed: %s\n", fitted.ToString().c_str());
    return 1;
  }

  const auto trace = etsc::BuildReplayTrace(data, num_sessions, 42);
  etsc::Stopwatch sequential_timer;
  const auto expected =
      etsc::ReplaySequential(*model, data.NumVariables(), num_sessions, trace);
  const double sequential_seconds = sequential_timer.Seconds();

  const RunNumbers serial = RunAtWidth(1, model, data, num_sessions, trace,
                                       expected);
  const RunNumbers pooled = RunAtWidth(8, model, data, num_sessions, trace,
                                       expected);
  const std::string wal_path = std::string(path) + ".wal";
  std::remove(wal_path.c_str());
  const RunNumbers journaled = RunAtWidth(8, model, data, num_sessions, trace,
                                          expected, wal_path);
  const RecoveryNumbers recovery = RunRecovery(model, data, num_sessions,
                                               trace, expected, wal_path);
  std::remove(wal_path.c_str());
  std::remove((wal_path + ".stale").c_str());
  const ShedNumbers shed = RunShedPressure(model, data, num_sessions / 4, 64);
  if (!serial.bit_identical || !pooled.bit_identical ||
      !journaled.bit_identical || !recovery.bit_identical) {
    std::fprintf(stderr,
                 "FAIL: engine replay diverged from the sequential reference "
                 "(serial=%d pooled=%d journaled=%d recovered=%d)\n",
                 serial.bit_identical ? 1 : 0, pooled.bit_identical ? 1 : 0,
                 journaled.bit_identical ? 1 : 0,
                 recovery.bit_identical ? 1 : 0);
    return 2;
  }

  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"dataset\": \"%s\",\n"
      "  \"algorithm\": \"%s\",\n"
      "  \"sessions\": %zu,\n"
      "  \"events\": %zu,\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"sequential_reference_wall_s\": %.4f,\n"
      "  \"serial\": {\n"
      "    \"wall_s\": %.4f,\n"
      "    \"sessions_per_second\": %.1f,\n"
      "    \"ingest_per_second\": %.1f,\n"
      "    \"decision_p50_s\": %.3e,\n"
      "    \"decision_p99_s\": %.3e,\n"
      "    \"batches\": %zu,\n"
      "    \"bit_identical\": true\n"
      "  },\n"
      "  \"pooled_8\": {\n"
      "    \"wall_s\": %.4f,\n"
      "    \"sessions_per_second\": %.1f,\n"
      "    \"ingest_per_second\": %.1f,\n"
      "    \"decision_p50_s\": %.3e,\n"
      "    \"decision_p99_s\": %.3e,\n"
      "    \"batches\": %zu,\n"
      "    \"bit_identical\": true\n"
      "  },\n"
      "  \"dispatch_speedup\": %.3f,\n"
      "  \"wal\": {\n"
      "    \"wall_s\": %.4f,\n"
      "    \"wal_appends\": %zu,\n"
      "    \"append_overhead_x\": %.3f,\n"
      "    \"bit_identical\": true\n"
      "  },\n"
      "  \"recovery\": {\n"
      "    \"sessions_recovered\": %zu,\n"
      "    \"observations_replayed\": %zu,\n"
      "    \"wal_replay_ms\": %.2f,\n"
      "    \"resume_wall_s\": %.4f,\n"
      "    \"bit_identical\": true\n"
      "  },\n"
      "  \"shedding\": {\n"
      "    \"max_sessions\": 64,\n"
      "    \"soft_watermark\": 0.5,\n"
      "    \"opened\": %zu,\n"
      "    \"shed_decided\": %zu,\n"
      "    \"shed_refusals\": %zu,\n"
      "    \"wall_s\": %.4f\n"
      "  }\n"
      "}\n",
      dataset_name.c_str(), algo.c_str(), num_sessions, trace.size(),
      std::thread::hardware_concurrency(), sequential_seconds,
      serial.wall_seconds, serial.sessions_per_second,
      serial.ingest_per_second, serial.p50_seconds, serial.p99_seconds,
      serial.batches, pooled.wall_seconds, pooled.sessions_per_second,
      pooled.ingest_per_second, pooled.p50_seconds, pooled.p99_seconds,
      pooled.batches, serial.wall_seconds / pooled.wall_seconds,
      journaled.wall_seconds, journaled.wal_appends,
      journaled.wall_seconds / pooled.wall_seconds,
      recovery.sessions_recovered, recovery.observations_replayed,
      recovery.replay_seconds * 1000.0, recovery.resume_wall_seconds,
      shed.opened, shed.shed_decided, shed.shed_refusals, shed.wall_seconds);
  std::fclose(out);
  std::fprintf(stderr, "wrote %s\n", path);
  return 0;
}

}  // namespace

int main() {
  etsc::RegisterBuiltinClassifiers();
  const char* out = std::getenv("ETSC_BENCH_SERVING_OUT");
  if (out == nullptr) out = "BENCH_serving.json";
  if (*out == '\0') return 0;
  return WriteServingBench(out);
}
