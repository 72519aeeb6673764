#ifndef ETSC_PERFBENCH_LEDGER_H_
#define ETSC_PERFBENCH_LEDGER_H_

// Shared pieces of the perf ledger: run options, the metric tables every
// workload reports into, timing helpers and the in-memory span log.
//
// The ledger measures each layer from the outside: it times the calls it
// makes into core/serving, core/evaluation and the campaign, and reads the
// counters the program already keeps (MetricRegistry, the campaign report).
// Nothing here adds code or spans inside src/.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the ledger file and scratch files (WAL, journal).
  std::string ledger_dir = ".bench_build/ledger";
  /// campaign-cold's expected scores; with write_golden the run writes them
  /// there instead of checking (after an intended change of results).
  std::string golden_path = "perfbench/golden_campaign.csv";
  bool write_golden = false;
};

/// Name -> value of one run. Units live in the metric tables (main.cc),
/// so a workload can only report names that the tables declare.
using Values = std::map<std::string, double>;

/// Operations issued (Open, Ingest, DispatchBatch, Finish, Recover, cell,
/// output check) and how many of them failed or produced a wrong output.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// What one workload run hands back.
struct Outcome {
  Ops ops;
  Values end_to_end;  // measured on untraced repetitions
  Values per_layer;   // measured on traced repetitions (--trace 1 only)
  /// Workload-specific ledger rows, as a serialized JSON object (the
  /// Figure 12/13 table, sample counts, check details).
  std::string details_json = "{}";
};

Outcome RunServePredict(const Options& options);
Outcome RunServeDurable(const Options& options);
Outcome RunCampaignCold(const Options& options);

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// Median of `values` (0 when empty). Takes a copy: callers keep order.
double Median(std::vector<double> values);

/// Nearest-rank quantile q in [0, 1] of `values` (0 when empty); reorders.
double Quantile(std::vector<double>& values, double q);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Runs `body` at least `min_reps` times and then until `seconds` of wall
/// time have passed since the first call. Returns the repetitions made.
template <typename Body>
size_t Repeat(double seconds, size_t min_reps, Body&& body) {
  const int64_t start = NowNs();
  size_t reps = 0;
  while (reps < min_reps ||
         static_cast<double>(NowNs() - start) * 1e-9 < seconds) {
    body(reps);
    ++reps;
  }
  return reps;
}

/// Spans the benchmark records around the calls it makes, kept in memory and
/// written out as Chrome trace_event JSON at the end of a traced run.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t id;  // session id, batch number, or 0
    int64_t start_ns;
    int64_t end_ns;
  };

  void Add(const char* name, uint64_t id, int64_t start_ns, int64_t end_ns) {
    spans_.push_back({name, id, start_ns, end_ns});
  }
  void Clear() { spans_.clear(); }

  /// Durations in microseconds of every span named `name`.
  std::vector<double> DurationsUs(const char* name) const;

  /// Writes the spans to `path` as Chrome trace_event JSON. Consecutive
  /// spans named `collapse` (the per-observation Ingest calls) are merged
  /// into one span per run so the file stays viewable.
  void WriteChromeJson(const std::string& path, const char* collapse) const;

 private:
  std::vector<Span> spans_;
};

/// Lock-free sample buffer for calls made from pool threads (the timed
/// PredictEarly wrapper). Samples beyond the capacity are counted, not kept.
class SampleBuffer {
 public:
  explicit SampleBuffer(size_t capacity) : samples_(capacity) {}
  void Record(float value) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i < samples_.size()) samples_[i] = value;
  }
  size_t count() const { return next_.load(std::memory_order_relaxed); }
  std::vector<double> Values() const;
  void Reset() { next_.store(0, std::memory_order_relaxed); }

 private:
  std::vector<float> samples_;
  std::atomic<size_t> next_{0};
};

}  // namespace perfbench

#endif  // ETSC_PERFBENCH_LEDGER_H_
