#ifndef ETSC_BENCH_BENCH_COMMON_H_
#define ETSC_BENCH_BENCH_COMMON_H_

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/categorize.h"
#include "core/classifier.h"
#include "core/dataset.h"
#include "core/supervisor.h"
#include "data/repository.h"

namespace etsc::bench {

/// Campaign configuration (paper Sec. 6.1 protocol, scaled for one machine).
/// Environment overrides:
///   ETSC_BENCH_SCALE     height scale for datasets above 1000 instances
///                        (default 0.05; 1.0 = paper-sized)
///   ETSC_BENCH_FOLDS     stratified CV folds (default 2; paper: 5)
///   ETSC_BENCH_BUDGET    per-fold training budget in seconds (default 30;
///                        stands in for the paper's 48-hour cut-off)
///   ETSC_BENCH_PREDICT_BUDGET  per-instance prediction budget in seconds
///                        (default: unlimited); an overrun degrades that
///                        instance to a full-length miss instead of stalling
///                        the campaign
///   ETSC_BENCH_MARITIME  maritime window count (default 1000)
///   ETSC_BENCH_ALPHA     misclassification-vs-delay cost ratio alpha in
///                        [0, 1] for the report's cost-sensitive score
///                        CostScore(acc, earliness, alpha) (default 0.8).
///                        Pure reporting: derived from journalled
///                        accuracy/earliness, so it is excluded from the
///                        journal fingerprint
///   ETSC_BENCH_ALGOS     comma list restricting algorithms; entries may be
///                        paper names (ECTS, TEASER, ...) or composed
///                        '<base>+<trigger>' specs such as
///                        "minirocket-logistic+prob" (default: all 8)
///   ETSC_BENCH_DATASETS  comma list restricting datasets (default: all 12)
///   ETSC_BENCH_CACHE     campaign cache path (default etsc_campaign_cache.csv)
///   ETSC_BENCH_REPORT    machine-readable JSON report path (default:
///                        `<cache_path>.report.json`)
///   ETSC_BENCH_REPORT_ONLY  when set (non-empty), Run() only loads the cache
///                        and reports; missing cells print as "--" instead of
///                        being computed (useful while a campaign is running
///                        in another process)
///   ETSC_BENCH_SHARD     "i/N": compute only cells whose dataset-major grid
///                        index is congruent to i mod N (0 <= i < N). Journal
///                        and report paths are suffixed ".shard-i-of-N";
///                        shards from the same config merge bit-identically
///                        (see `etsc_cli --merge-shards`)
///   ETSC_RETRY_MAX / ETSC_RETRY_BASE_MS / ETSC_QUARANTINE_AFTER /
///   ETSC_WATCHDOG_GRACE  supervisor knobs (core/supervisor.h): bounded Fit
///                        retries with deterministic backoff, per-algorithm
///                        circuit breaker, hung-cell watchdog
///   ETSC_BENCH_FAULT     fault-injection spec for supervisor testing, a
///                        comma list of ALGO:KIND entries wrapping the named
///                        algorithm's prototype: "ECTS:flaky:1" (first k Fit
///                        attempts fail transiently), "ECO-K:crash" (every
///                        Fit fails deterministically), "EDSC:hang-fit" /
///                        "EDSC:hang-predict" (spins until the watchdog
///                        cancels). Excluded from Fingerprint() like the
///                        shard selector — it is a harness knob, not a
///                        result-defining configuration... except that
///                        injected faults DO change the affected cells'
///                        results, which is why check.sh compares faulted
///                        campaigns against clean ones only on unaffected
///                        algorithms. The "die-at:<k>" kind (abrupt process
///                        exit mid-cell, core/fault.h) makes crash drills
///                        scriptable.
///   ETSC_LEASE_TTL_MS / ETSC_HEARTBEAT_MS  worker-fabric lease knobs
///                        (core/fabric.h): how long an unrenewed lease
///                        survives and how often RunWorker renews it.
///
/// Numeric overrides are validated: a value that is not a number (or is out
/// of range) logs a warning and keeps the default instead of silently
/// becoming 0 the way bare strtod would make it.
struct CampaignConfig {
  double height_scale = 0.05;
  size_t folds = 2;
  double train_budget_seconds = 30.0;
  double predict_budget_seconds = std::numeric_limits<double>::infinity();
  size_t maritime_windows = 1000;
  uint64_t seed = 42;
  /// Cost ratio for the report's cost-sensitive score (ETSC_BENCH_ALPHA).
  /// Reporting-only — derivable from journalled accuracy/earliness — so it
  /// does not participate in Fingerprint().
  double cost_alpha = 0.8;
  std::vector<std::string> algorithms;  // paper order
  std::vector<std::string> datasets;    // Table-3 order
  std::string cache_path = "etsc_campaign_cache.csv";
  /// JSON report destination; empty means `<cache_path>.report.json`.
  std::string report_path;
  bool report_only = false;
  /// Shard selector: this process computes only grid cells with
  /// index % shard_count == shard_index (dataset-major over the full
  /// datasets x algorithms grid, cached or not, so the partition is
  /// independent of cache state). 0/1 = the whole campaign. Excluded from
  /// Fingerprint(): all shards of one campaign share a config identity and
  /// their journals merge under one header.
  size_t shard_index = 0;
  size_t shard_count = 1;
  /// Cell-level supervision: Fit retry policy, circuit breaker threshold,
  /// watchdog grace (core/supervisor.h). max_retries and quarantine_after
  /// change which results exist (retried fits succeed, quarantined cells are
  /// skipped) and so participate in Fingerprint(); base_backoff_ms and
  /// watchdog_grace only shape wall-clock behaviour and do not.
  SupervisorOptions supervisor;
  /// Fault-injection spec (ETSC_BENCH_FAULT, see above); empty = no faults.
  std::string fault_spec;

  /// Built from defaults + environment overrides.
  static CampaignConfig FromEnv();

  /// One-line fingerprint; cache entries from other configs are discarded.
  std::string Fingerprint() const;
};

/// Names of the eight evaluated algorithms in the paper's plot order.
const std::vector<std::string>& PaperAlgorithms();

/// Journal format version, embedded in the header fingerprint as "v<N>".
/// v4 introduced '@'-prefixed control rows (worker leases and quarantine
/// broadcasts, core/fabric.h); readers from older builds would misparse
/// them, so LoadCache rejects any journal whose header claims a NEWER
/// version with an actionable error instead of loading garbage.
inline constexpr int kJournalFormatVersion = 4;

/// The journal header line Campaign writes and expects for `config`:
/// `# <config fingerprint> data=<16-hex combined dataset fingerprint>`.
/// Generates the configured datasets to hash them, so it costs one repository
/// pass; shards and the merge step use it to prove they describe the same
/// inputs. Fails when no configured dataset can be generated.
Result<std::string> JournalHeaderForConfig(const CampaignConfig& config);

struct CampaignCell;

/// Serialises one cell as a sealed journal row (core/record_log.h; no
/// trailing newline, failure text escaped) with max_digits10 floats — the single row format shared by the
/// single-process journal writer, the worker fabric, and the shard merge,
/// which is what makes their journals byte-comparable.
std::string FormatJournalRow(const CampaignCell& cell);

/// What MergeShardJournals found and wrote.
struct MergeSummary {
  /// Deduplicated terminal cell rows written to the output journal.
  size_t rows = 0;
  /// Control rows ('@' leases / quarantine broadcasts) dropped from inputs.
  size_t control_rows = 0;
  /// Cells of the config's datasets x algorithms grid.
  size_t grid_cells = 0;
  /// Grid cells with a terminal row among the merged inputs.
  size_t terminal_cells = 0;
  /// True when every grid cell is terminal — only then may the final JSON
  /// report be emitted (the continuous-merge loop polls this).
  bool complete = false;
};

/// Merges shard/worker journals written under one campaign identity into a
/// single canonical journal at `out_path`: every input's header must equal
/// `expected_header` (the mismatch diagnostic names both fingerprints),
/// newer-versioned inputs are rejected with an actionable error, control
/// rows are stripped, rows are deduplicated keep-last per (algorithm,
/// dataset) and re-emitted in the canonical dataset-major order of `config`
/// (off-grid rows survive in first-seen order). The merged journal is
/// byte-identical to a single-process run's journal, timing fields aside.
Result<MergeSummary> MergeShardJournals(const std::string& out_path,
                                        const std::vector<std::string>& inputs,
                                        const CampaignConfig& config,
                                        const std::string& expected_header);

/// Test-only crash-drill hooks for Campaign::RunWorker. `on_cell` runs after
/// a lease is acquired and before the cell computes; returning false makes
/// the worker abandon the run on the spot — lease row left in the journal,
/// never released — which is what a killed process looks like to the others.
struct WorkerDrillHooks {
  std::function<bool(const std::string& algorithm, const std::string& dataset)>
      on_cell;
};

/// Builds an algorithm with the paper's Table-4 parameters (plus the scaled
/// EDSC candidate cap documented in DESIGN.md). `dataset_name` selects the
/// per-dataset TEASER S (10 for Biological/Maritime, 20 otherwise). An
/// unknown name yields NotFound listing the paper algorithms.
Result<std::unique_ptr<EarlyClassifier>> MakePaperAlgorithm(
    const std::string& algorithm, const std::string& dataset_name,
    size_t series_length);

/// One (algorithm, dataset) cell of the campaign.
struct CampaignCell {
  std::string algorithm;
  std::string dataset;
  bool trained = false;
  /// Failure string of the first failed fold (Fit error) or, when trained,
  /// of the first degraded prediction (predict deadline overrun). Failed
  /// cells are first-class results: recorded, journalled, reported.
  std::string failure;
  double accuracy = 0.0;
  double f1 = 0.0;
  double earliness = 1.0;
  double harmonic_mean = 0.0;
  double train_seconds = 0.0;
  double test_seconds_per_instance = 0.0;
  /// Total Fit retries across folds (fit_attempts - 1 summed); 0 when every
  /// fold trained first try. Deterministic for a given config + fault spec.
  int retries = 0;
  /// True when the circuit breaker skipped this cell without attempting it
  /// (failure then holds the SkippedQuarantine status string).
  bool quarantined = false;
};

/// The full evaluation campaign: every algorithm on every dataset with
/// stratified CV, incrementally journalled so all fig/table benches share one
/// run and interrupted campaigns resume.
///
/// Uncached (algorithm, dataset) cells run concurrently on the global thread
/// pool (core/parallel.h, width from ETSC_THREADS) as one serial LANE per
/// algorithm (cells in dataset order), each cell's CV folds fanning out on
/// the same pool. Lanes exist for the circuit breaker: an algorithm's
/// consecutive-failure count evolves in dataset order regardless of how
/// lanes interleave, so quarantine decisions — which cells are skipped — are
/// bit-identical at every thread width. Results are bit-identical to a
/// serial run: datasets are generated and per-fold seeds split before
/// dispatch, and cells_ is filled in configuration order after all cells
/// complete. Journal rows are appended under a mutex as cells finish, so a
/// crash mid-campaign still loses at most the rows being written. Run()
/// reports aggregate wall-clock vs. CPU-sum speedup on stderr.
///
/// Journal crash-safety contract: the journal is a record log
/// (core/record_log.h) whose header is the config fingerprint. A file
/// written under another config is rotated aside before the first new
/// append, never appended to (its rows would be unloadable). Every row is
/// flushed as soon as its cell completes; a row torn by a mid-write crash is
/// skipped and its cell recomputed on the next run.
class Campaign {
 public:
  explicit Campaign(CampaignConfig config = CampaignConfig::FromEnv());

  /// Computes (or loads) every cell. Progress goes to the leveled logger
  /// (core/log.h, ETSC_LOG); a machine-readable JSON report — config, cells,
  /// failures, per-phase timings, and a metric-registry snapshot — is written
  /// to ReportPath() at the end of every run, including report-only and
  /// fully-cached ones. Fails on setup errors (e.g. a journal written by a
  /// newer build) and on the first journal append that fails (the campaign
  /// would not be resumable); cell failures are first-class rows, not
  /// errors.
  Status Run();

  /// Runs this campaign as one worker of a multi-process fabric: cells are
  /// leased through the shared journal (core/fabric.h) instead of planned
  /// up-front, heartbeats are renewed by a background LeaseKeeper while each
  /// cell computes, expired leases of dead workers are stolen (lowest cell
  /// index first), and quarantine decisions replayed from journalled rows —
  /// plus `@quarantine` broadcasts — match the single-process run bit for
  /// bit. Returns once every grid cell has a terminal row (also when other
  /// workers wrote them) or on a setup/journal error. Workers write no
  /// report; the continuous merge (`etsc_cli --merge-shards` /
  /// `--workers`) emits it once the grid is complete. `owner` names this
  /// worker in lease rows; `drill` injects test-only crash behaviour.
  Status RunWorker(const std::string& owner,
                   const WorkerDrillHooks* drill = nullptr);

  /// Where Run() writes the JSON report: config().report_path, or
  /// `<cache_path>.report.json` when unset.
  std::string ReportPath() const;

  /// Cell lookup; null when the combination is not part of the config.
  /// LoadCache deduplicates resumed journals keeping the LAST row per
  /// (algorithm, dataset) — a re-run cell's fresh result wins — so lookups
  /// are unambiguous.
  const CampaignCell* Find(const std::string& algorithm,
                           const std::string& dataset) const;

  /// Canonical Table-3 profiles of the configured datasets.
  const std::vector<DatasetProfile>& profiles() const { return profiles_; }

  const CampaignConfig& config() const { return config_; }
  const std::vector<CampaignCell>& cells() const { return cells_; }

  /// Mean of `extract(cell)` over trained cells of `algorithm` whose dataset
  /// belongs to `category`; NaN when nothing qualifies. Cells whose extracted
  /// value is itself NaN (empty-fold scores) carry no signal and are skipped.
  double CategoryMean(const std::string& algorithm, DatasetCategory category,
                      double (*extract)(const CampaignCell&)) const;

 private:
  /// Wall-clock phase timings and cell counts of one Run(), for the report.
  struct RunStats {
    double load_cache_seconds = 0.0;
    double generate_seconds = 0.0;
    double plan_seconds = 0.0;
    double compute_seconds = 0.0;
    double total_seconds = 0.0;
    double cpu_seconds = 0.0;
    size_t cells_loaded = 0;
    size_t cells_computed = 0;
  };

  /// Loads journalled rows under `expected_header`; skips control rows and
  /// torn rows; rejects journals claiming a format version newer than
  /// kJournalFormatVersion (actionable error instead of misparsed rows).
  Status LoadCache(const std::string& expected_header);
  /// Generates the configured datasets (profiles_, journal_header_) —
  /// phase 1 of Run() and RunWorker(). Appends the generated benchmarks to
  /// `benchmarks`; fails when not a single dataset could be generated.
  Status GenerateDatasets(std::vector<BenchmarkDataset>* benchmarks);
  /// Journals one cell (rotating a stale journal aside first). Requires
  /// journal_mu_ when cells complete concurrently: a row must hit the file
  /// whole (header decision, fresh-line check, write, flush).
  Status AppendCache(const CampaignCell& cell);
  void WriteReport(const RunStats& stats) const;
  RepositoryOptions RepoOptions() const;

  CampaignConfig config_;
  std::vector<CampaignCell> cells_;
  std::vector<DatasetProfile> profiles_;
  /// The journal on disk has another fingerprint: rotate it aside before
  /// the first append.
  bool journal_stale_ = false;
  /// Header of the journal this run writes/expects (config fingerprint +
  /// combined dataset fingerprint); set by Run() after dataset generation.
  std::string journal_header_;
  std::mutex journal_mu_;
};

/// Extraction helpers for CategoryMean.
double CellAccuracy(const CampaignCell& cell);
double CellF1(const CampaignCell& cell);
double CellEarliness(const CampaignCell& cell);
double CellHarmonicMean(const CampaignCell& cell);
double CellTrainMinutes(const CampaignCell& cell);

/// Prints a per-category table: one row per algorithm, one column per
/// category, formatted with `digits` decimals ("--" for missing).
void PrintCategoryTable(const Campaign& campaign, const std::string& title,
                        double (*extract)(const CampaignCell&), int digits = 3);

}  // namespace etsc::bench

#endif  // ETSC_BENCH_BENCH_COMMON_H_
