#include "bench/bench_common.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "algos/ecec.h"
#include "algos/edsc.h"
#include "algos/registrations.h"
#include "algos/teaser.h"
#include "core/composed.h"
#include "core/registry.h"
#include "tsc/weasel.h"
#include <chrono>
#include <thread>

#include "core/counters.h"
#include "core/env.h"
#include "core/evaluation.h"
#include "core/fabric.h"
#include "core/fault.h"
#include "core/json.h"
#include "core/log.h"
#include "core/model_cache.h"
#include "core/parallel.h"
#include "core/record_log.h"
#include "core/simd.h"
#include "core/trace.h"

namespace etsc::bench {

namespace {

/// Parses "i/N" with 0 <= i < N into a shard selector.
bool ParseShard(const std::string& spec, size_t* index, size_t* count) {
  const size_t slash = spec.find('/');
  if (slash == std::string::npos) return false;
  const std::string_view view(spec);
  uint64_t i = 0;
  uint64_t n = 0;
  if (!record_log::ParseU64(view.substr(0, slash), &i) ||
      !record_log::ParseU64(view.substr(slash + 1), &n)) {
    return false;
  }
  if (n == 0 || i >= n) return false;
  *index = static_cast<size_t>(i);
  *count = static_cast<size_t>(n);
  return true;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

const std::vector<std::string>& PaperAlgorithms() {
  static const auto* kAlgorithms = new std::vector<std::string>{
      "ECEC", "ECO-K", "ECTS", "EDSC", "TEASER", "S-MINI", "S-MLSTM", "S-WEASEL"};
  return *kAlgorithms;
}

CampaignConfig CampaignConfig::FromEnv() {
  CampaignConfig config;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  config.height_scale = env::NumberOr("campaign", "ETSC_BENCH_SCALE",
                                      config.height_scale, 0.0, 1e6);
  config.folds = env::IntegerOr("campaign", "ETSC_BENCH_FOLDS", config.folds,
                                0, 1000000);
  config.train_budget_seconds = env::NumberOr(
      "campaign", "ETSC_BENCH_BUDGET", config.train_budget_seconds, 0.0, kInf);
  config.predict_budget_seconds =
      env::NumberOr("campaign", "ETSC_BENCH_PREDICT_BUDGET",
                    config.predict_budget_seconds, 0.0, kInf);
  config.maritime_windows =
      env::IntegerOr("campaign", "ETSC_BENCH_MARITIME",
                     config.maritime_windows, 0, 1000000000);
  config.cost_alpha = env::NumberOr("campaign", "ETSC_BENCH_ALPHA",
                                    config.cost_alpha, 0.0, 1.0);
  const std::string algos = env::StringOr("ETSC_BENCH_ALGOS", "");
  config.algorithms = algos.empty() ? PaperAlgorithms() : SplitCommas(algos);
  const std::string datasets = env::StringOr("ETSC_BENCH_DATASETS", "");
  config.datasets =
      datasets.empty() ? BenchmarkDatasetNames() : SplitCommas(datasets);
  config.cache_path =
      env::StringOr("ETSC_BENCH_CACHE", "etsc_campaign_cache.csv");
  config.report_path = env::StringOr("ETSC_BENCH_REPORT", "");
  config.report_only = !env::StringOr("ETSC_BENCH_REPORT_ONLY", "").empty();
  const std::string shard = env::StringOr("ETSC_BENCH_SHARD", "");
  if (!shard.empty() && !ParseShard(shard, &config.shard_index,
                                    &config.shard_count)) {
    Logf(LogLevel::kWarn, "campaign",
         "ETSC_BENCH_SHARD=\"%s\" is not \"i/N\" with 0 <= i < N; running "
         "the whole campaign",
         shard.c_str());
  }
  config.supervisor = SupervisorOptions::FromEnv();
  config.fault_spec = env::StringOr("ETSC_BENCH_FAULT", "");
  return config;
}

std::string CampaignConfig::Fingerprint() const {
  // retries and quarantine_after are part of the identity: they decide which
  // cells recover and which are skipped, so journals written under different
  // supervision must not merge. Backoff delay and watchdog grace only shape
  // wall-clock timing and stay out (like the shard selector and fault spec).
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "v%d scale=%.3f folds=%zu budget=%.0f pbudget=%.0f "
                "maritime=%zu seed=%llu retries=%d quarantine=%d",
                kJournalFormatVersion, height_scale, folds, train_budget_seconds,
                predict_budget_seconds, maritime_windows,
                static_cast<unsigned long long>(seed),
                supervisor.retry.max_retries, supervisor.quarantine_after);
  return buf;
}

Result<std::unique_ptr<EarlyClassifier>> MakePaperAlgorithm(
    const std::string& algorithm, const std::string& dataset_name,
    size_t series_length) {
  RegisterBuiltinClassifiers();
  if (algorithm == "ECEC" || algorithm == "TEASER") {
    // Implementation parameter (not in Table 4): fewer WEASEL window sizes so
    // N x (cv+1) pipeline fits stay inside the single-core budget.
    WeaselOptions weasel;
    weasel.max_window_count = 12;
    std::unique_ptr<Trigger> trigger;
    if (algorithm == "ECEC") {
      trigger = std::make_unique<EcecRatioTrigger>();  // N = 20, alpha = 0.8
    } else {
      trigger = std::make_unique<TeaserGateTrigger>();
    }
    ComposedOptions options = trigger->DefaultComposedOptions();
    if (algorithm == "TEASER" &&
        (dataset_name == "Biological" || dataset_name == "Maritime")) {
      options.num_checkpoints = 10;  // Table 4: S = 10, 20 for UCR
    }
    return std::unique_ptr<EarlyClassifier>(
        std::make_unique<ComposedEarlyClassifier>(
            algorithm, std::make_unique<WeaselClassifier>(weasel),
            std::move(trigger), options));
  }
  if (algorithm == "EDSC") {
    EdscOptions options;  // CHE, k = 3, minLen = 5, maxLen = L/2
    // Tractability scaling (documented in DESIGN.md): candidate subsampling
    // replaces the paper's 24-core / 48-hour budget.
    options.start_stride = std::max<size_t>(1, series_length / 64);
    options.length_stride = std::max<size_t>(1, series_length / 64);
    options.max_candidates = 1500;
    return std::unique_ptr<EarlyClassifier>(
        std::make_unique<EdscClassifier>(options));
  }
  // The rest run with their Table-4 defaults: the registry aliases. Composed
  // '<base>+<trigger>' specs resolve through the same registry, so the
  // cross-product campaign needs no per-pair code here.
  static const auto* kRegistryNames = new std::map<std::string, std::string>{
      {"ECO-K", "economy-k"}, {"ECTS", "ects"},       {"S-MINI", "s-mini"},
      {"S-MLSTM", "s-mlstm"}, {"S-WEASEL", "s-weasel"}};
  auto alias = kRegistryNames->find(algorithm);
  if (alias != kRegistryNames->end()) {
    return ClassifierRegistry::Global().Create(alias->second);
  }
  if (IsComposedSpec(algorithm)) {
    return ClassifierRegistry::Global().Create(algorithm);
  }
  std::string known;
  for (const auto& name : PaperAlgorithms()) {
    if (!known.empty()) known += ", ";
    known += name;
  }
  return Status::NotFound(
      "unknown paper algorithm '" + algorithm + "' (known: " + known +
      "; composed '<base>+<trigger>' specs are also accepted, see "
      "etsc_cli --list)");
}

Campaign::Campaign(CampaignConfig config) : config_(std::move(config)) {
  if (config_.shard_count > 1) {
    // Each shard owns a private journal + report; the merge step combines
    // them. Suffixing here (not in FromEnv) covers configs built in code too.
    const std::string suffix = ".shard-" + std::to_string(config_.shard_index) +
                               "-of-" + std::to_string(config_.shard_count);
    config_.cache_path += suffix;
    if (!config_.report_path.empty()) config_.report_path += suffix;
  }
}

RepositoryOptions Campaign::RepoOptions() const {
  RepositoryOptions repo;
  repo.seed = config_.seed;
  repo.height_scale = config_.height_scale;
  repo.maritime_windows = config_.maritime_windows;
  return repo;
}

namespace {

std::string Hex16(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Order-sensitive FNV-1a combination of the generated datasets' content
/// hashes; part of the journal header so a journal written against different
/// data (e.g. another ETSC_BENCH_SCALE repository build) reads as stale.
uint64_t CombineDataFingerprints(const std::vector<uint64_t>& fingerprints) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const uint64_t fp : fingerprints) {
    for (int i = 0; i < 8; ++i) {
      h ^= (fp >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// Campaign metrics (DESIGN.md sec 9): journalled rows and computed cells.
Counter& JournalAppends() {
  static Counter& c =
      MetricRegistry::Global().counter("campaign.journal_appends");
  return c;
}
Counter& CellsComputed() {
  static Counter& c =
      MetricRegistry::Global().counter("campaign.cells_computed");
  return c;
}

}  // namespace

Result<std::string> JournalHeaderForConfig(const CampaignConfig& config) {
  RepositoryOptions repo;
  repo.seed = config.seed;
  repo.height_scale = config.height_scale;
  repo.maritime_windows = config.maritime_windows;
  std::vector<uint64_t> fingerprints;
  for (const auto& dataset_name : config.datasets) {
    auto benchmark = MakeBenchmarkDataset(dataset_name, repo);
    // Skipping a failed dataset mirrors Run(): both sides hash exactly the
    // datasets the campaign would evaluate.
    if (!benchmark.ok()) continue;
    fingerprints.push_back(benchmark->data.Fingerprint());
  }
  if (fingerprints.empty()) {
    return Status::NotFound(
        "journal header: no configured dataset could be generated");
  }
  return "# " + config.Fingerprint() +
         " data=" + Hex16(CombineDataFingerprints(fingerprints));
}

namespace {

double ParseDoubleField(std::string_view field) {
  double value = 0.0;
  std::from_chars(field.data(), field.data() + field.size(), value);
  return value;
}

/// Parses one unsealed cell row; false when it has too few fields.
bool ParseJournalRow(std::string_view row, CampaignCell* cell) {
  const std::vector<std::string_view> f = record_log::SplitFields(row);
  if (f.size() < 11) return false;
  cell->algorithm = f[0];
  cell->dataset = f[1];
  cell->trained = f[2] == "1";
  cell->accuracy = ParseDoubleField(f[3]);
  cell->f1 = ParseDoubleField(f[4]);
  cell->earliness = ParseDoubleField(f[5]);
  cell->harmonic_mean = ParseDoubleField(f[6]);
  cell->train_seconds = ParseDoubleField(f[7]);
  cell->test_seconds_per_instance = ParseDoubleField(f[8]);
  std::from_chars(f[9].data(), f[9].data() + f[9].size(), cell->retries);
  cell->quarantined = f[10] == "1";
  if (f.size() > 11) cell->failure = record_log::UnescapeField(f[11]);
  return true;
}

}  // namespace

Status Campaign::LoadCache(const std::string& expected_header) {
  journal_stale_ = false;
  record_log::Reader log(config_.cache_path);
  // A journal claiming a NEWER format version is refused, not rotated: it may
  // hold row kinds this binary would misparse.
  ETSC_ASSIGN_OR_RETURN(const record_log::HeaderMatch header,
                        log.CheckHeader(expected_header));
  if (header == record_log::HeaderMatch::kForeign) {
    // Journal from another configuration (or a header truncated mid-write):
    // its rows must never be mixed with this config's. AppendCache rotates
    // the file aside before the first new row.
    journal_stale_ = true;
    Logf(LogLevel::kWarn, "campaign",
         "cache %s has a different fingerprint; it will be rotated aside "
         "before new results are journalled",
         config_.cache_path.c_str());
    return Status::OK();
  }
  size_t duplicates = 0;
  // (algorithm, dataset) -> index into cells_. An interrupted-then-resumed
  // campaign can journal the same cell twice; the LAST row (the freshest
  // result) must win, or Find() would pin lookups to the oldest row forever.
  std::map<std::pair<std::string, std::string>, size_t> index;
  std::string_view row;
  while (log.Next(&row)) {
    if (row.empty() || row[0] == '@') {
      continue;  // worker-fabric control row (lease / quarantine broadcast)
    }
    CampaignCell cell;
    if (!ParseJournalRow(row, &cell)) continue;
    const auto [it, inserted] =
        index.emplace(std::make_pair(cell.algorithm, cell.dataset),
                      cells_.size());
    if (inserted) {
      cells_.push_back(std::move(cell));
    } else {
      ++duplicates;
      cells_[it->second] = std::move(cell);
    }
  }
  if (log.torn_rows() > 0) {
    Logf(LogLevel::kWarn, "campaign",
         "cache %s: skipped %zu truncated row(s) from an interrupted write; "
         "the cells will be recomputed",
         config_.cache_path.c_str(), log.torn_rows());
  }
  if (duplicates > 0) {
    Logf(LogLevel::kWarn, "campaign",
         "cache %s: collapsed %zu duplicate row(s) from a resumed campaign; "
         "the latest result for each cell wins",
         config_.cache_path.c_str(), duplicates);
  }
  return Status::OK();
}

std::string FormatJournalRow(const CampaignCell& cell) {
  std::ostringstream out;
  // max_digits10 so a resumed campaign reloads bit-identical scores.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  // The failure field is free-form text from a Status message: escaped so a
  // newline cannot tear the row and an embedded seal cannot be forged.
  out << cell.algorithm << ',' << cell.dataset << ',' << (cell.trained ? 1 : 0)
      << ',' << cell.accuracy << ',' << cell.f1 << ',' << cell.earliness << ','
      << cell.harmonic_mean << ',' << cell.train_seconds << ','
      << cell.test_seconds_per_instance << ',' << cell.retries << ','
      << (cell.quarantined ? 1 : 0) << ','
      << record_log::EscapeField(cell.failure);
  return record_log::Seal(out.str());
}

Status Campaign::AppendCache(const CampaignCell& cell) {
  TraceSpan span("campaign", "journal_append");
  if (MetricsEnabled()) JournalAppends().Add(1);
  if (journal_stale_) {
    // Appending under a foreign header would make these rows silently
    // unloadable forever; move the old journal out of the way first.
    ETSC_ASSIGN_OR_RETURN(const std::string stale,
                          record_log::RotateToStale(config_.cache_path));
    Logf(LogLevel::kWarn, "campaign", "rotated cache %s to %s",
         config_.cache_path.c_str(), stale.c_str());
    journal_stale_ = false;
  }
  // One cell can take hours; the row is flushed so a later crash costs at
  // most the row being written, which readers then skip as torn.
  return record_log::AppendOnce(config_.cache_path, journal_header_,
                                FormatJournalRow(cell));
}

const CampaignCell* Campaign::Find(const std::string& algorithm,
                                   const std::string& dataset) const {
  for (const auto& cell : cells_) {
    if (cell.algorithm == algorithm && cell.dataset == dataset) return &cell;
  }
  return nullptr;
}

namespace {

/// One uncached (algorithm, dataset) cell scheduled on the thread pool. The
/// dataset pointer refers into a vector that outlives the task group; the
/// prototype is owned here so tasks never share mutable classifier state.
struct CellJob {
  const BenchmarkDataset* benchmark = nullptr;
  std::string algorithm;
  std::unique_ptr<EarlyClassifier> prototype;
  CampaignCell cell;
  double cpu_seconds = 0.0;
};

/// Wraps `classifier` in the fault decorator an ETSC_BENCH_FAULT entry
/// requests for `algorithm`; a prototype not named in the spec passes through
/// untouched. Entries are ALGO:KIND with an optional :k ("ECTS:flaky:2");
/// the first matching entry wins. Unknown kinds warn and inject nothing.
std::unique_ptr<EarlyClassifier> ApplyFaultSpec(
    const std::string& spec, const std::string& algorithm,
    std::unique_ptr<EarlyClassifier> classifier) {
  for (const std::string& entry : SplitCommas(spec)) {
    const size_t colon = entry.find(':');
    if (colon == std::string::npos || entry.substr(0, colon) != algorithm) {
      continue;
    }
    std::string kind = entry.substr(colon + 1);
    int k = 1;
    const size_t param = kind.find(':');
    if (param != std::string::npos) {
      k = std::max(1, std::atoi(kind.c_str() + param + 1));
      kind.resize(param);
    }
    if (kind == "flaky") {
      // Transient: each fold's Fit fails the first k attempts, then succeeds
      // — recoverable with ETSC_RETRY_MAX >= k, scores identical to clean.
      return std::make_unique<FlakyClassifier>(std::move(classifier), k);
    }
    if (kind == "crash") {
      // Deterministic kInternal on every Fit: fails fast (no retry) and
      // feeds the circuit breaker until the algorithm is quarantined.
      FaultOptions fault;
      fault.fit_failure_rate = 1.0;
      return std::make_unique<FaultyClassifier>(std::move(classifier), fault);
    }
    if (kind == "hang-fit" || kind == "hang-predict") {
      // Spins past its budget until the watchdog cancels (needs
      // ETSC_WATCHDOG_GRACE > 0 and a finite budget for that operation).
      HangOptions hang;
      hang.hang_fit = kind == "hang-fit";
      hang.hang_predict = kind == "hang-predict";
      return std::make_unique<HangingClassifier>(std::move(classifier), hang);
    }
    if (kind == "die-at") {
      // Abrupt process exit on this algorithm's k-th campaign cell: the
      // journal is left exactly as a SIGKILL would leave it (possibly with a
      // live lease row), which is what the worker-fabric crash drill needs.
      return std::make_unique<DieAtClassifier>(std::move(classifier), k);
    }
    Logf(LogLevel::kWarn, "campaign",
         "ETSC_BENCH_FAULT entry \"%s\": unknown fault kind \"%s\" (known: "
         "flaky[:k], crash, hang-fit, hang-predict, die-at[:k])",
         entry.c_str(), kind.c_str());
  }
  return classifier;
}

}  // namespace

Status Campaign::GenerateDatasets(std::vector<BenchmarkDataset>* benchmarks) {
  // Serial: generation draws from seeded RNGs, so it must not race or depend
  // on scheduling; cell tasks then capture const references into the vector
  // (satisfying the immutable-inputs contract of core/parallel.h). Runs
  // BEFORE any cache read: the journal header embeds the combined dataset
  // fingerprint, so the expected header is only known once the data exists.
  profiles_.clear();
  benchmarks->reserve(benchmarks->size() + config_.datasets.size());
  std::vector<uint64_t> data_fingerprints;
  for (const auto& dataset_name : config_.datasets) {
    auto benchmark = MakeBenchmarkDataset(dataset_name, RepoOptions());
    if (!benchmark.ok()) {
      Logf(LogLevel::kError, "campaign", "dataset %s failed: %s",
           dataset_name.c_str(), benchmark.status().ToString().c_str());
      continue;
    }
    profiles_.push_back(benchmark->canonical_profile);
    data_fingerprints.push_back(benchmark->data.Fingerprint());
    benchmarks->push_back(*std::move(benchmark));
  }
  if (benchmarks->empty()) {
    return Status::NotFound(
        "campaign: no configured dataset could be generated");
  }
  journal_header_ = "# " + config_.Fingerprint() +
                    " data=" + Hex16(CombineDataFingerprints(data_fingerprints));
  return Status::OK();
}

Status Campaign::Run() {
  TraceSpan run_span("campaign", "campaign_run");
  RunStats stats;
  Stopwatch total;
  Stopwatch phase;

  // Phase 1 (serial): generate every dataset once, in configuration order.
  std::vector<BenchmarkDataset> benchmarks;
  const Status generated = GenerateDatasets(&benchmarks);
  stats.generate_seconds = phase.Seconds();
  if (!generated.ok()) {
    Logf(LogLevel::kError, "campaign", "%s", generated.ToString().c_str());
    return generated;
  }

  phase.Restart();
  ETSC_RETURN_NOT_OK(LoadCache(journal_header_));
  stats.load_cache_seconds = phase.Seconds();
  stats.cells_loaded = cells_.size();

  // Phase 2 (serial): build the work list of uncached cells, dataset-major
  // like the reports. Prototypes are constructed here so an unknown
  // algorithm warns exactly once, in deterministic order.
  phase.Restart();
  std::vector<CellJob> jobs;
  for (size_t b = 0; b < benchmarks.size(); ++b) {
    const BenchmarkDataset& benchmark = benchmarks[b];
    const std::string& dataset_name = benchmark.canonical_profile.name;
    for (size_t a = 0; a < config_.algorithms.size(); ++a) {
      const std::string& algorithm = config_.algorithms[a];
      // Shard partition over the FULL dataset-major grid (before any cache
      // check), so every shard agrees on the assignment regardless of what
      // each has already journalled.
      const size_t grid_index = b * config_.algorithms.size() + a;
      if (config_.shard_count > 1 &&
          grid_index % config_.shard_count != config_.shard_index) {
        continue;
      }
      if (Find(algorithm, dataset_name) != nullptr) continue;  // cached
      if (config_.report_only) continue;  // reporting a running campaign
      auto prototype = MakePaperAlgorithm(algorithm, dataset_name,
                                          benchmark.data.MaxLength());
      if (!prototype.ok()) {
        Logf(LogLevel::kWarn, "campaign", "%s",
             prototype.status().ToString().c_str());
        continue;
      }
      CellJob job;
      job.benchmark = &benchmark;
      job.algorithm = algorithm;
      job.prototype = ApplyFaultSpec(config_.fault_spec, algorithm,
                                     std::move(*prototype));
      jobs.push_back(std::move(job));
    }
  }
  stats.plan_seconds = phase.Seconds();
  stats.cells_computed = jobs.size();

  if (jobs.empty()) {
    // Nothing to compute (fully cached or report-only): the report is still
    // written so downstream tooling always finds a fresh one after Run().
    stats.total_seconds = total.Seconds();
    WriteReport(stats);
    return Status::OK();
  }

  // Phase 3 (parallel): compute cells as one serial LANE per algorithm. Each
  // cell is seeded from config_.seed alone (CrossValidate splits per-fold
  // seeds before its own dispatch), so results are bit-identical to a serial
  // run; only the log lines and journal row order vary with scheduling.
  // Lanes keep the circuit breaker deterministic: an algorithm's failure
  // streak evolves in dataset order within its own lane, so which cells are
  // quarantined cannot depend on how threads interleave across algorithms.
  phase.Restart();
  // Resolved once and shared by every cell: with ETSC_MODEL_CACHE set, folds
  // whose fitted model is already on disk skip Fit entirely (counted as
  // eval.fits_skipped), which is what makes re-running shards cheap.
  const std::shared_ptr<const ModelCache> model_cache = ModelCache::FromEnv();
  CircuitBreaker breaker(config_.supervisor.quarantine_after);
  // Replay journalled outcomes into the breaker in dataset-major order so a
  // resumed campaign continues the same failure streaks a fresh run would
  // have accumulated; quarantine rows are skips, not evidence, and replaying
  // them would double-count.
  for (const auto& benchmark : benchmarks) {
    const std::string& dataset_name = benchmark.canonical_profile.name;
    for (const auto& algorithm : config_.algorithms) {
      const CampaignCell* cached = Find(algorithm, dataset_name);
      if (cached == nullptr || cached->quarantined) continue;
      if (cached->trained) {
        breaker.RecordSuccess(algorithm);
      } else {
        breaker.RecordFailure(algorithm, dataset_name);
      }
    }
  }
  // jobs is dataset-major; stable per-algorithm grouping keeps every lane's
  // cells in dataset order, which the breaker determinism argument needs.
  std::vector<std::vector<size_t>> lanes;
  {
    std::map<std::string, size_t> lane_of;
    for (size_t j = 0; j < jobs.size(); ++j) {
      const auto [it, inserted] = lane_of.emplace(jobs[j].algorithm, lanes.size());
      if (inserted) lanes.emplace_back();
      lanes[it->second].push_back(j);
    }
  }
  TaskGroup group;
  for (const auto& lane : lanes) {
    group.Run([this, &jobs, &model_cache, &breaker, &lane]() -> Status {
      for (const size_t j : lane) {
        CellJob& job = jobs[j];
        const std::string& dataset_name = job.benchmark->canonical_profile.name;
        CampaignCell& cell = job.cell;
        cell.algorithm = job.algorithm;
        cell.dataset = dataset_name;
        if (breaker.IsQuarantined(job.algorithm)) {
          // Never attempted: an explicit first-class row, so reports and
          // resumed campaigns can tell "skipped by the breaker" from
          // "tried and failed".
          cell.quarantined = true;
          cell.failure = Status::SkippedQuarantine(
                             job.algorithm +
                             " quarantined after repeated failures; "
                             "cell not attempted")
                             .ToString();
          {
            std::lock_guard<std::mutex> lock(journal_mu_);
            ETSC_RETURN_NOT_OK(AppendCache(cell));
          }
          Logf(LogLevel::kWarn, "campaign", "  %s on %s: %s",
               job.algorithm.c_str(), dataset_name.c_str(),
               cell.failure.c_str());
          continue;
        }
        TraceSpan cell_span("campaign", [&] {
          return "cell:" + job.algorithm + "/" + dataset_name;
        });
        Logf(LogLevel::kInfo, "campaign", "%s on %s (%zu instances)...",
             job.algorithm.c_str(), dataset_name.c_str(),
             job.benchmark->data.size());

        EvaluationOptions options;
        options.num_folds = config_.folds;
        options.seed = config_.seed;
        options.train_budget_seconds = config_.train_budget_seconds;
        options.predict_budget_seconds = config_.predict_budget_seconds;
        options.model_cache = model_cache;
        options.retry = config_.supervisor.retry;
        options.watchdog_grace = config_.supervisor.watchdog_grace;
        const EvaluationResult result =
            CrossValidate(job.benchmark->data, *job.prototype, options);

        cell.trained = result.trained();
        // Surface the first failure — a Fit error on an untrained cell, or a
        // degraded prediction (e.g. predict deadline overrun) on a trained
        // one — and the total Fit retries the supervisor spent across folds.
        for (const auto& fold : result.folds) {
          cell.retries += std::max(0, fold.fit_attempts - 1);
          if (cell.failure.empty() && !fold.failure.empty()) {
            cell.failure = fold.failure;
          }
        }
        const EvalScores scores = result.MeanScores();
        cell.accuracy = scores.accuracy;
        cell.f1 = scores.f1;
        cell.earliness = scores.earliness;
        cell.harmonic_mean = scores.harmonic_mean;
        cell.train_seconds = result.MeanTrainSeconds();
        cell.test_seconds_per_instance = result.MeanTestSecondsPerInstance();
        job.cpu_seconds = result.CpuSeconds();
        if (cell.trained) {
          breaker.RecordSuccess(job.algorithm);
        } else {
          breaker.RecordFailure(job.algorithm, dataset_name);
        }
        if (MetricsEnabled()) CellsComputed().Add(1);
        {
          // The journal is shared by all cells; the lock keeps each flushed
          // row whole so a reload never sees interleaved fragments.
          std::lock_guard<std::mutex> lock(journal_mu_);
          ETSC_RETURN_NOT_OK(AppendCache(cell));
        }
        Logf(LogLevel::kInfo, "campaign", "  %s on %s: %s",
             job.algorithm.c_str(), dataset_name.c_str(),
             cell.trained ? scores.ToString().c_str()
                          : ("DNF: " + cell.failure).c_str());
      }
      return Status::OK();
    });
  }
  // A lane stops at its first journal error: a cell that cannot be journalled
  // is not resumable, so the campaign must not finish as if it were.
  const Status status = group.Wait();
  if (!status.ok()) {
    Logf(LogLevel::kError, "campaign", "journal append failed: %s",
         status.ToString().c_str());
    return status;
  }
  stats.compute_seconds = phase.Seconds();

  // Phase 4 (serial): publish results in work-list order, so cells() and the
  // reports are independent of which cell finished first.
  for (auto& job : jobs) {
    stats.cpu_seconds += job.cpu_seconds;
    cells_.push_back(std::move(job.cell));
  }
  stats.total_seconds = total.Seconds();
  Logf(LogLevel::kInfo, "campaign",
       "%zu cell(s) in %.1fs wall, %.1fs cpu-sum (speedup %.2fx, %zu "
       "thread(s))",
       jobs.size(), stats.compute_seconds, stats.cpu_seconds,
       stats.compute_seconds > 0 ? stats.cpu_seconds / stats.compute_seconds
                                 : 1.0,
       MaxParallelism());
  WriteReport(stats);
  return Status::OK();
}

namespace {

/// Replays `algorithm`'s journalled lane outcomes (dataset-major grid order)
/// into `breaker`: quarantine rows are skips, not evidence. Because lane
/// prerequisites serialise each algorithm's cells across workers, every
/// worker replays the same prefix the single-process lane would have
/// accumulated — quarantine decisions are therefore bit-identical.
bool ReplayLaneIntoBreaker(const std::vector<fabric::GridCell>& grid,
                           const std::vector<fabric::CellStatus>& statuses,
                           const std::string& algorithm,
                           CircuitBreaker* breaker) {
  for (size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].algorithm != algorithm || !statuses[i].terminal) continue;
    if (statuses[i].quarantined_row) continue;
    if (statuses[i].trained) {
      breaker->RecordSuccess(algorithm);
    } else {
      breaker->RecordFailure(algorithm, grid[i].dataset);
    }
  }
  return breaker->IsQuarantined(algorithm);
}

}  // namespace

Status Campaign::RunWorker(const std::string& owner,
                           const WorkerDrillHooks* drill) {
  trace::SetProcessLabel("etsc-worker:" + owner);
  TraceSpan run_span("campaign", "worker_run");

  // Phase 1 (identical to Run): generate datasets, derive the header.
  std::vector<BenchmarkDataset> benchmarks;
  ETSC_RETURN_NOT_OK(GenerateDatasets(&benchmarks));

  // The grid every worker must agree on: dataset-major with per-algorithm
  // lane prerequisites. Unknown algorithms are excluded up-front (one
  // warning), mirroring Run()'s skip — a cell that could never produce a
  // terminal row would wedge the fabric's completion check forever.
  std::vector<std::string> algorithms;
  for (const auto& algorithm : config_.algorithms) {
    auto probe =
        MakePaperAlgorithm(algorithm, benchmarks.front().canonical_profile.name,
                           benchmarks.front().data.MaxLength());
    if (!probe.ok()) {
      Logf(LogLevel::kWarn, "campaign", "%s",
           probe.status().ToString().c_str());
      continue;
    }
    algorithms.push_back(algorithm);
  }
  if (algorithms.empty()) {
    return Status::NotFound("worker: no known algorithm configured");
  }
  std::vector<fabric::GridCell> grid;
  std::map<std::string, const BenchmarkDataset*> benchmark_of;
  {
    std::map<std::string, size_t> last_in_lane;
    for (const auto& benchmark : benchmarks) {
      const std::string& dataset_name = benchmark.canonical_profile.name;
      benchmark_of[dataset_name] = &benchmark;
      for (const auto& algorithm : algorithms) {
        fabric::GridCell cell;
        cell.algorithm = algorithm;
        cell.dataset = dataset_name;
        const auto it = last_in_lane.find(algorithm);
        if (it != last_in_lane.end()) cell.prerequisite = it->second;
        last_in_lane[algorithm] = grid.size();
        grid.push_back(std::move(cell));
      }
    }
  }

  fabric::WorkerJournal journal(config_.cache_path, journal_header_, grid,
                                owner, fabric::LeaseOptions::FromEnv());
  ETSC_RETURN_NOT_OK(journal.EnsureHeader());
  const std::shared_ptr<const ModelCache> model_cache = ModelCache::FromEnv();
  size_t computed = 0;

  for (;;) {
    ETSC_ASSIGN_OR_RETURN(const fabric::WorkerJournal::Acquired acquired,
                          journal.Acquire());
    if (acquired.all_terminal) break;
    if (acquired.index == fabric::kNoCell) {
      // Everything acquirable is leased by live workers (or gated on their
      // lanes); sleep until the soonest expiry could free a cell.
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          std::max(10.0, acquired.retry_after_ms)));
      continue;
    }
    const fabric::GridCell& gcell = journal.grid()[acquired.index];
    if (drill != nullptr && drill->on_cell &&
        !drill->on_cell(gcell.algorithm, gcell.dataset)) {
      // Crash drill: walk away holding the lease, like a SIGKILLed worker.
      Logf(LogLevel::kWarn, "campaign",
           "%s: drill hook abandoned the run holding the lease on %s/%s",
           owner.c_str(), gcell.algorithm.c_str(), gcell.dataset.c_str());
      return Status::OK();
    }

    CampaignCell cell;
    cell.algorithm = gcell.algorithm;
    cell.dataset = gcell.dataset;

    // Quarantine decision: a broadcast row published by any worker, or the
    // deterministic breaker replay over this lane's journalled outcomes.
    CircuitBreaker breaker(config_.supervisor.quarantine_after);
    const bool replayed_quarantine = ReplayLaneIntoBreaker(
        journal.grid(), acquired.statuses, gcell.algorithm, &breaker);
    if (acquired.quarantined_algorithms.count(gcell.algorithm) > 0 ||
        replayed_quarantine) {
      cell.quarantined = true;
      cell.failure = Status::SkippedQuarantine(
                         gcell.algorithm +
                         " quarantined after repeated failures; "
                         "cell not attempted")
                         .ToString();
      ETSC_RETURN_NOT_OK(
          journal.Complete(acquired.index, FormatJournalRow(cell)));
      if (MetricsEnabled()) JournalAppends().Add(1);
      Logf(LogLevel::kWarn, "campaign", "  %s on %s: %s",
           gcell.algorithm.c_str(), gcell.dataset.c_str(),
           cell.failure.c_str());
      continue;
    }

    const BenchmarkDataset& benchmark = *benchmark_of.at(gcell.dataset);
    auto prototype = MakePaperAlgorithm(gcell.algorithm, gcell.dataset,
                                        benchmark.data.MaxLength());
    if (!prototype.ok()) {
      // Probed fine above, so only exotic failures land here; a failed row
      // still terminates the cell so the grid completes.
      cell.failure = prototype.status().ToString();
      ETSC_RETURN_NOT_OK(
          journal.Complete(acquired.index, FormatJournalRow(cell)));
      if (MetricsEnabled()) JournalAppends().Add(1);
      continue;
    }
    auto classifier = ApplyFaultSpec(config_.fault_spec, gcell.algorithm,
                                     std::move(*prototype));
    TraceSpan cell_span("campaign", [&] {
      return "cell:" + gcell.algorithm + "/" + gcell.dataset;
    });
    Logf(LogLevel::kInfo, "campaign", "%s: %s on %s (%zu instances)...",
         owner.c_str(), gcell.algorithm.c_str(), gcell.dataset.c_str(),
         benchmark.data.size());

    EvaluationOptions options;
    options.num_folds = config_.folds;
    options.seed = config_.seed;
    options.train_budget_seconds = config_.train_budget_seconds;
    options.predict_budget_seconds = config_.predict_budget_seconds;
    options.model_cache = model_cache;
    options.retry = config_.supervisor.retry;
    options.watchdog_grace = config_.supervisor.watchdog_grace;

    bool lease_lost = false;
    {
      // Heartbeats renew the lease while the cell computes — a slow cell is
      // not a dead worker. Scoped so the keeper is joined before Complete.
      fabric::LeaseKeeper keeper(&journal, acquired.index);
      const EvaluationResult result =
          CrossValidate(benchmark.data, *classifier, options);
      cell.trained = result.trained();
      for (const auto& fold : result.folds) {
        cell.retries += std::max(0, fold.fit_attempts - 1);
        if (cell.failure.empty() && !fold.failure.empty()) {
          cell.failure = fold.failure;
        }
      }
      const EvalScores scores = result.MeanScores();
      cell.accuracy = scores.accuracy;
      cell.f1 = scores.f1;
      cell.earliness = scores.earliness;
      cell.harmonic_mean = scores.harmonic_mean;
      cell.train_seconds = result.MeanTrainSeconds();
      cell.test_seconds_per_instance = result.MeanTestSecondsPerInstance();
      lease_lost = keeper.lease_lost();
    }
    if (lease_lost) {
      // Stolen mid-compute (our heartbeats lapsed past the TTL): the thief's
      // re-run is the row of record; journalling ours too would be a
      // duplicate at best and a fork at worst.
      Logf(LogLevel::kWarn, "campaign",
           "%s: lease on %s/%s was stolen mid-compute; result discarded",
           owner.c_str(), gcell.algorithm.c_str(), gcell.dataset.c_str());
      continue;
    }
    if (!cell.trained) {
      // Feed the fresh failure into the replayed streak; the worker that
      // trips the breaker broadcasts the quarantine so the others stop
      // without waiting to re-derive it from rows.
      if (breaker.RecordFailure(gcell.algorithm, gcell.dataset)) {
        ETSC_RETURN_NOT_OK(journal.PublishQuarantine(gcell.algorithm));
      }
    }
    if (MetricsEnabled()) {
      CellsComputed().Add(1);
      JournalAppends().Add(1);
    }
    ++computed;
    ETSC_RETURN_NOT_OK(
        journal.Complete(acquired.index, FormatJournalRow(cell)));
    Logf(LogLevel::kInfo, "campaign", "  %s on %s: %s",
         gcell.algorithm.c_str(), gcell.dataset.c_str(),
         cell.trained ? "ok" : ("DNF: " + cell.failure).c_str());
  }
  Logf(LogLevel::kInfo, "campaign",
       "%s: campaign complete — every cell terminal (%zu computed here)",
       owner.c_str(), computed);
  return Status::OK();
}

Result<MergeSummary> MergeShardJournals(const std::string& out_path,
                                        const std::vector<std::string>& inputs,
                                        const CampaignConfig& config,
                                        const std::string& expected_header) {
  MergeSummary summary;
  std::map<std::pair<std::string, std::string>, std::string> rows;
  std::vector<std::pair<std::string, std::string>> order;
  for (const auto& path : inputs) {
    record_log::Reader log(path);
    if (!log.exists()) {
      return Status::IOError("cannot read shard journal " + path);
    }
    ETSC_ASSIGN_OR_RETURN(const record_log::HeaderMatch header,
                          log.CheckHeader(expected_header));
    if (header == record_log::HeaderMatch::kEmpty) {
      return Status::DataLoss(path + ": missing journal header line");
    }
    if (header == record_log::HeaderMatch::kForeign) {
      // Refuse rather than guess: shards from different configs or different
      // generated data must never be blended into one report. Name both
      // fingerprints so the operator can see exactly what disagrees.
      return Status::FailedPrecondition(
          path + " was written under a different campaign identity — "
          "refusing to interleave mismatched shards:\n  journal:  " +
          log.header() + "\n  expected: " + expected_header);
    }
    std::string_view row;
    while (log.Next(&row)) {  // torn rows are dropped, as LoadCache does
      if (!row.empty() && row[0] == '@') {
        ++summary.control_rows;  // lease/quarantine rows end with the merge
        continue;
      }
      const std::vector<std::string_view> fields =
          record_log::SplitFields(row);
      if (fields.size() < 2) continue;
      auto key = std::make_pair(std::string(fields[0]), std::string(fields[1]));
      std::string line = record_log::Seal(std::string(row));
      const auto [it, inserted] = rows.emplace(key, line);
      if (inserted) {
        order.push_back(key);
      } else {
        it->second = std::move(line);  // resumed shard: the freshest row wins
      }
    }
  }
  summary.rows = rows.size();

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot write merged journal " + out_path);
  }
  out << expected_header << "\n";
  std::map<std::pair<std::string, std::string>, bool> written;
  for (const auto& dataset : config.datasets) {
    for (const auto& algorithm : config.algorithms) {
      ++summary.grid_cells;
      const auto it = rows.find({algorithm, dataset});
      if (it == rows.end()) continue;
      ++summary.terminal_cells;
      out << it->second << "\n";
      written[it->first] = true;
    }
  }
  for (const auto& key : order) {
    if (!written.count(key)) out << rows[key] << "\n";
  }
  out.flush();
  if (!out) return Status::IOError("write to " + out_path + " failed");
  summary.complete =
      summary.grid_cells > 0 && summary.terminal_cells == summary.grid_cells;
  return summary;
}

std::string Campaign::ReportPath() const {
  return config_.report_path.empty() ? config_.cache_path + ".report.json"
                                     : config_.report_path;
}

void Campaign::WriteReport(const RunStats& stats) const {
  json::Writer w;
  w.BeginObject();
  w.Field("fingerprint", config_.Fingerprint());
  w.Key("config").BeginObject();
  w.Field("height_scale", config_.height_scale);
  w.Field("folds", config_.folds);
  w.Field("train_budget_seconds", config_.train_budget_seconds);
  // Infinity (the unlimited default) serialises as null per json::Writer.
  w.Field("predict_budget_seconds", config_.predict_budget_seconds);
  w.Field("maritime_windows", config_.maritime_windows);
  w.Field("seed", config_.seed);
  w.Field("cost_alpha", config_.cost_alpha);
  w.Key("algorithms").BeginArray();
  for (const auto& algorithm : config_.algorithms) w.String(algorithm);
  w.EndArray();
  w.Key("datasets").BeginArray();
  for (const auto& dataset : config_.datasets) w.String(dataset);
  w.EndArray();
  w.Field("cache_path", config_.cache_path);
  w.Field("report_only", config_.report_only);
  // The active kernel path (ETSC_SIMD x build ISA). Volatile for report
  // diffing: the SIMD equivalence gate compares an ETSC_SIMD=0 run against
  // an ETSC_SIMD=1 run, so --report-diff strips this block.
  w.Key("simd").BeginObject();
  w.Field("enabled", simd::Enabled());
  w.Field("isa_compiled", std::string(simd::CompiledIsa()));
  w.Field("isa_active", std::string(simd::ActiveIsa()));
  w.EndObject();
  w.Key("supervisor").BeginObject();
  w.Field("max_retries", config_.supervisor.retry.max_retries);
  w.Field("base_backoff_ms", config_.supervisor.retry.base_backoff_ms);
  w.Field("quarantine_after", config_.supervisor.quarantine_after);
  w.Field("watchdog_grace", config_.supervisor.watchdog_grace);
  w.EndObject();
  if (!config_.fault_spec.empty()) w.Field("fault_spec", config_.fault_spec);
  w.EndObject();
  w.Key("phases").BeginObject();
  w.Field("load_cache_seconds", stats.load_cache_seconds);
  w.Field("generate_seconds", stats.generate_seconds);
  w.Field("plan_seconds", stats.plan_seconds);
  w.Field("compute_seconds", stats.compute_seconds);
  w.Field("total_seconds", stats.total_seconds);
  w.EndObject();
  w.Field("threads", MaxParallelism());
  w.Field("cpu_seconds", stats.cpu_seconds);
  w.Field("cells_loaded", stats.cells_loaded);
  w.Field("cells_computed", stats.cells_computed);
  size_t failed = 0;
  size_t quarantined = 0;
  size_t retries = 0;
  for (const auto& cell : cells_) {
    if (!cell.trained) ++failed;
    if (cell.quarantined) ++quarantined;
    retries += static_cast<size_t>(std::max(0, cell.retries));
  }
  w.Field("cells_failed", failed);
  w.Field("cells_quarantined", quarantined);
  w.Field("fit_retries", retries);
  w.Key("cells").BeginArray();
  for (const auto& cell : cells_) {
    w.BeginObject();
    w.Field("algorithm", cell.algorithm);
    w.Field("dataset", cell.dataset);
    w.Field("trained", cell.trained);
    if (cell.retries > 0) w.Field("retries", cell.retries);
    if (cell.quarantined) w.Field("quarantined", cell.quarantined);
    if (!cell.failure.empty()) w.Field("failure", cell.failure);
    w.Field("accuracy", cell.accuracy);
    w.Field("f1", cell.f1);
    w.Field("earliness", cell.earliness);
    w.Field("harmonic_mean", cell.harmonic_mean);
    // Alpha-weighted cost (core/metrics.h CostScore): lower is better,
    // derived from the journalled accuracy/earliness under config cost_alpha.
    w.Field("cost", CostScore(cell.accuracy, cell.earliness, config_.cost_alpha));
    w.Field("train_seconds", cell.train_seconds);
    w.Field("test_seconds_per_instance", cell.test_seconds_per_instance);
    w.EndObject();
  }
  w.EndArray();
  // Snapshot of every process-wide metric at the end of the run: kernel and
  // early-abandon counters, pool queue/latency, deadline slack, degraded
  // predictions, journal appends.
  w.Key("metrics").RawValue(MetricRegistry::Global().ToJson());
  w.EndObject();

  const std::string path = ReportPath();
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    Logf(LogLevel::kWarn, "campaign", "cannot write report %s", path.c_str());
    return;
  }
  out << w.str() << "\n";
  Logf(LogLevel::kInfo, "campaign", "report written to %s", path.c_str());
}

double Campaign::CategoryMean(const std::string& algorithm,
                              DatasetCategory category,
                              double (*extract)(const CampaignCell&)) const {
  double sum = 0.0;
  size_t count = 0;
  for (const auto& profile : profiles_) {
    if (!profile.IsIn(category)) continue;
    const CampaignCell* cell = Find(algorithm, profile.name);
    if (cell == nullptr || !cell->trained) continue;
    const double value = extract(*cell);
    // Empty-fold cells carry explicit NaN scores (core/metrics.cc); they
    // must not turn the whole category mean into NaN.
    if (std::isnan(value)) continue;
    sum += value;
    ++count;
  }
  return count == 0 ? std::nan("") : sum / static_cast<double>(count);
}

double CellAccuracy(const CampaignCell& cell) { return cell.accuracy; }
double CellF1(const CampaignCell& cell) { return cell.f1; }
double CellEarliness(const CampaignCell& cell) { return cell.earliness; }
double CellHarmonicMean(const CampaignCell& cell) { return cell.harmonic_mean; }
double CellTrainMinutes(const CampaignCell& cell) {
  return cell.train_seconds / 60.0;
}

void PrintCategoryTable(const Campaign& campaign, const std::string& title,
                        double (*extract)(const CampaignCell&), int digits) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("(config: %s)\n", campaign.config().Fingerprint().c_str());
  std::printf("%-10s", "algorithm");
  for (DatasetCategory category : AllDatasetCategories()) {
    std::printf(" %12s", DatasetCategoryName(category).c_str());
  }
  std::printf("\n");
  for (const auto& algorithm : campaign.config().algorithms) {
    std::printf("%-10s", algorithm.c_str());
    for (DatasetCategory category : AllDatasetCategories()) {
      const double value = campaign.CategoryMean(algorithm, category, extract);
      if (std::isnan(value)) {
        std::printf(" %12s", "--");
      } else {
        std::printf(" %12.*f", digits, value);
      }
    }
    std::printf("\n");
  }
}

}  // namespace etsc::bench
