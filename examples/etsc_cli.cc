// Command-line front end of the framework — the C++ analogue of the Python
// repository's cli.py (paper Sec. 5.5). Runs any registered algorithm on a
// benchmark dataset or a user file, with the paper's CV protocol, and prints
// every metric of Sec. 2.2.
//
// Usage:
//   etsc_cli --list
//   etsc_cli --algo teaser --dataset PowerCons [--folds 5] [--budget 60]
//   etsc_cli --algo ects --csv my.csv [--variables 3]
//   etsc_cli --algo ecec --arff my.arff
//   etsc_cli --campaign [--shard I/N] [--max-retries N] [--quarantine-after N]
//                                             (config via ETSC_BENCH_* env)
//   etsc_cli --campaign --classifiers weasel,minirocket --triggers prob,ects-mpl
//            [--cost-alpha A]               (cross-product of composed
//                                             '<base>+<trigger>' specs as the
//                                             campaign's algorithm axis)
//   etsc_cli --campaign --workers K [--cache J]  (K lease-fabric worker
//                                             processes + continuous merge)
//   etsc_cli --worker --cache JOURNAL         (join an existing fabric journal)
//   etsc_cli --merge-shards OUT IN1 IN2 ... [--follow]
//                                             (combine shard journals + report)
//   etsc_cli --report-diff A.json B.json [--ignore-algos A,B]
//            [--map-algo OLD=NEW]           (compare reports modulo timings;
//                                             --map-algo renames an algorithm
//                                             before comparing, e.g. a paper
//                                             name vs its composed spec)
//   etsc_cli --serve --algo ects --dataset PowerCons [--sessions N]
//            [--dispatch-every K] [--serve-report OUT.json]
//                                             (multi-session serving engine
//                                              over a replayable ingest trace;
//                                              knobs via ETSC_SERVE_* env)
//   etsc_cli --serve ... --wal PATH           (journal every session event to
//                                              a write-ahead log)
//   etsc_cli --serve ... --wal PATH --recover (rebuild the session table from
//                                              the WAL, resume the trace, and
//                                              verify decisions bit-identical
//                                              to the uncrashed reference)
//
// Exit code 0 on success, 1 on usage/setup errors, 2 when the algorithm could
// not train within the budget, 3 when --report-diff finds a difference, 4 when
// --serve finds a batched/sequential divergence. ETSC_SERVE_FAULT
// ("die-at-ingest:K" / "die-at-dispatch:K") arms a scripted crash that exits
// with code 86 — the serving chaos drill in scripts/check.sh.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algos/registrations.h"
#include "bench/bench_common.h"
#include "core/arff.h"
#include "core/counters.h"
#include "core/csv.h"
#include "core/env.h"
#include "core/evaluation.h"
#include "core/fault.h"
#include "core/json.h"
#include "core/model_cache.h"
#include "core/registry.h"
#include "core/serving.h"
#include "core/trigger.h"
#include "data/repository.h"

namespace {

struct CliArgs {
  bool list = false;
  bool serve = false;                    // multi-session serving engine
  size_t sessions = 1000;               // --serve: concurrent live series
  size_t dispatch_every = 64;           // --serve: events per DispatchBatch
  std::string serve_report;             // --serve: JSON report destination
  std::string wal;                      // --serve: session WAL path
  bool recover = false;                 // --serve: rebuild table from the WAL
  bool campaign = false;
  bool worker = false;                   // join the fabric journal as a worker
  size_t workers = 0;                    // coordinator: spawn K worker processes
  std::string cache;                     // fabric journal override (--cache)
  bool follow = false;                   // --merge-shards: loop until complete
  std::string shard;                     // "i/N", with --campaign
  std::string merge_out;                 // destination of --merge-shards
  std::vector<std::string> merge_inputs; // shard journals to merge
  std::vector<std::string> diff_reports; // the two --report-diff operands
  std::vector<std::string> ignore_algos; // --report-diff: drop these cells
  // --report-diff: rename algorithm OLD to NEW on both sides before the
  // comparison (paper name vs its composed '<base>+<trigger>' spec).
  std::vector<std::pair<std::string, std::string>> map_algos;
  int max_retries = -1;                  // --campaign override; -1 = env/default
  int quarantine_after = -1;             // --campaign override; -1 = env/default
  std::vector<std::string> classifiers;  // cross-product: base classifiers
  std::vector<std::string> triggers;     // cross-product: stopping rules
  double cost_alpha = -1.0;              // report cost ratio; <0 = env/default
  std::string algo;
  std::string dataset;
  std::string csv_path;
  std::string arff_path;
  size_t variables = 1;
  size_t folds = 5;
  double budget = 300.0;
  uint64_t seed = 42;
  double scale = 0.2;
};

void PrintUsage() {
  std::printf(
      "usage: etsc_cli --list\n"
      "       etsc_cli --algo NAME (--dataset BENCH | --csv FILE [--variables"
      " K] | --arff FILE)\n"
      "                [--folds N] [--budget SECONDS] [--seed S] [--scale F]\n"
      "       etsc_cli --campaign [--shard I/N] [--max-retries N]\n"
      "                [--quarantine-after N]    (ETSC_BENCH_* env config)\n"
      "       etsc_cli --campaign --classifiers A,B --triggers X,Y\n"
      "                [--cost-alpha F]   (campaign over the cross-product of\n"
      "                 composed '<base>+<trigger>' specs; names per --list)\n"
      "       etsc_cli --campaign --workers K [--cache JOURNAL]\n"
      "                (spawn K crash-tolerant worker processes; leases via\n"
      "                 ETSC_LEASE_TTL_MS / ETSC_HEARTBEAT_MS)\n"
      "       etsc_cli --worker --cache JOURNAL  (attach one worker; owner id\n"
      "                from ETSC_WORKER_ID or pid)\n"
      "       etsc_cli --merge-shards OUT IN1 IN2 ... [--follow]\n"
      "       etsc_cli --report-diff A.json B.json [--ignore-algos A,B]\n"
      "                [--map-algo OLD=NEW]  (rename an algorithm before the\n"
      "                 diff: a paper name vs its composed spec)\n"
      "       etsc_cli --serve --algo NAME --dataset BENCH [--sessions N]\n"
      "                [--dispatch-every K] [--serve-report OUT.json]\n"
      "                [--wal PATH [--recover]]\n"
      "                (ETSC_SERVE_MAX_SESSIONS / _BUDGET_MS / _IDLE_MS /\n"
      "                 _SOFT_WATERMARK / _SHED_IDLE_MS / _RETRY_MS /\n"
      "                 _WATCHDOG_GRACE / _WAL env; ETSC_SERVE_FAULT arms the\n"
      "                 crash drill)\n");
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--list") {
      args->list = true;
    } else if (flag == "--serve") {
      args->serve = true;
    } else if (flag == "--sessions") {
      const char* v = next("--sessions");
      if (v == nullptr) return false;
      args->sessions = std::strtoul(v, nullptr, 10);
      if (args->sessions == 0) {
        std::fprintf(stderr, "--sessions needs a positive count\n");
        return false;
      }
    } else if (flag == "--dispatch-every") {
      const char* v = next("--dispatch-every");
      if (v == nullptr) return false;
      args->dispatch_every = std::strtoul(v, nullptr, 10);
    } else if (flag == "--serve-report") {
      const char* v = next("--serve-report");
      if (v == nullptr) return false;
      args->serve_report = v;
    } else if (flag == "--wal") {
      const char* v = next("--wal");
      if (v == nullptr) return false;
      args->wal = v;
    } else if (flag == "--recover") {
      args->recover = true;
    } else if (flag == "--campaign") {
      args->campaign = true;
    } else if (flag == "--worker") {
      args->worker = true;
    } else if (flag == "--workers") {
      const char* v = next("--workers");
      if (v == nullptr) return false;
      args->workers = std::strtoul(v, nullptr, 10);
      if (args->workers == 0) {
        std::fprintf(stderr, "--workers needs a positive count\n");
        return false;
      }
    } else if (flag == "--cache") {
      const char* v = next("--cache");
      if (v == nullptr) return false;
      args->cache = v;
    } else if (flag == "--follow") {
      args->follow = true;
    } else if (flag == "--shard") {
      const char* v = next("--shard");
      if (v == nullptr) return false;
      args->shard = v;
    } else if (flag == "--merge-shards") {
      const char* v = next("--merge-shards");
      if (v == nullptr) return false;
      args->merge_out = v;
      while (i + 1 < argc && argv[i + 1][0] != '-') {
        args->merge_inputs.push_back(argv[++i]);
      }
      if (args->merge_inputs.empty()) {
        std::fprintf(stderr, "--merge-shards needs input journals\n");
        return false;
      }
    } else if (flag == "--report-diff") {
      for (int k = 0; k < 2; ++k) {
        const char* v = next("--report-diff");
        if (v == nullptr) return false;
        args->diff_reports.push_back(v);
      }
    } else if (flag == "--ignore-algos") {
      const char* v = next("--ignore-algos");
      if (v == nullptr) return false;
      std::stringstream ss(v);
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (!item.empty()) args->ignore_algos.push_back(item);
      }
    } else if (flag == "--map-algo") {
      const char* v = next("--map-algo");
      if (v == nullptr) return false;
      const std::string mapping = v;
      const size_t eq = mapping.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == mapping.size()) {
        std::fprintf(stderr, "--map-algo needs OLD=NEW\n");
        return false;
      }
      args->map_algos.emplace_back(mapping.substr(0, eq),
                                   mapping.substr(eq + 1));
    } else if (flag == "--classifiers") {
      const char* v = next("--classifiers");
      if (v == nullptr) return false;
      std::stringstream ss(v);
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (!item.empty()) args->classifiers.push_back(item);
      }
    } else if (flag == "--triggers") {
      const char* v = next("--triggers");
      if (v == nullptr) return false;
      std::stringstream ss(v);
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (!item.empty()) args->triggers.push_back(item);
      }
    } else if (flag == "--cost-alpha") {
      const char* v = next("--cost-alpha");
      if (v == nullptr) return false;
      args->cost_alpha = std::strtod(v, nullptr);
      if (args->cost_alpha < 0.0 || args->cost_alpha > 1.0) {
        std::fprintf(stderr, "--cost-alpha needs a ratio in [0, 1]\n");
        return false;
      }
    } else if (flag == "--max-retries") {
      const char* v = next("--max-retries");
      if (v == nullptr) return false;
      args->max_retries = std::atoi(v);
    } else if (flag == "--quarantine-after") {
      const char* v = next("--quarantine-after");
      if (v == nullptr) return false;
      args->quarantine_after = std::atoi(v);
    } else if (flag == "--algo") {
      const char* v = next("--algo");
      if (v == nullptr) return false;
      args->algo = v;
    } else if (flag == "--dataset") {
      const char* v = next("--dataset");
      if (v == nullptr) return false;
      args->dataset = v;
    } else if (flag == "--csv") {
      const char* v = next("--csv");
      if (v == nullptr) return false;
      args->csv_path = v;
    } else if (flag == "--arff") {
      const char* v = next("--arff");
      if (v == nullptr) return false;
      args->arff_path = v;
    } else if (flag == "--variables") {
      const char* v = next("--variables");
      if (v == nullptr) return false;
      args->variables = std::strtoul(v, nullptr, 10);
    } else if (flag == "--folds") {
      const char* v = next("--folds");
      if (v == nullptr) return false;
      args->folds = std::strtoul(v, nullptr, 10);
    } else if (flag == "--budget") {
      const char* v = next("--budget");
      if (v == nullptr) return false;
      args->budget = std::strtod(v, nullptr);
    } else if (flag == "--seed") {
      const char* v = next("--seed");
      if (v == nullptr) return false;
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--scale") {
      const char* v = next("--scale");
      if (v == nullptr) return false;
      args->scale = std::strtod(v, nullptr);
    } else if (flag == "--help" || flag == "-h") {
      PrintUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return false;
    }
  }
  return true;
}

bool ParseShardSpec(const std::string& spec, size_t* index, size_t* count) {
  const size_t slash = spec.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= spec.size()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long i = std::strtoull(spec.c_str(), &end, 10);
  if (end != spec.c_str() + slash) return false;
  const unsigned long long n = std::strtoull(spec.c_str() + slash + 1, &end, 10);
  if (end != spec.c_str() + spec.size()) return false;
  if (n == 0 || i >= n) return false;
  *index = static_cast<size_t>(i);
  *count = static_cast<size_t>(n);
  return true;
}

/// Expands --classifiers x --triggers into composed '<base>+<trigger>' specs
/// and exports them (plus --cost-alpha) through the ETSC_BENCH_* environment
/// before any CampaignConfig::FromEnv() runs. Going through the environment —
/// not a config field — keeps every consumer consistent: forked --worker
/// children re-read the environment, and the journal fingerprint must agree
/// between coordinator and workers.
int ApplyCompositionFlags(const CliArgs& args) {
  if (args.classifiers.empty() != args.triggers.empty()) {
    std::fprintf(stderr,
                 "--classifiers and --triggers must be given together (the "
                 "campaign runs their cross-product)\n");
    return 1;
  }
  if (!args.classifiers.empty()) {
    std::string specs;
    for (const auto& base : args.classifiers) {
      for (const auto& trigger : args.triggers) {
        if (!specs.empty()) specs += ',';
        specs += base + "+" + trigger;
      }
    }
    ::setenv("ETSC_BENCH_ALGOS", specs.c_str(), 1);
    std::printf("composed grid: %zu classifier(s) x %zu trigger(s) = %zu "
                "configuration(s)\n",
                args.classifiers.size(), args.triggers.size(),
                args.classifiers.size() * args.triggers.size());
  }
  if (args.cost_alpha >= 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", args.cost_alpha);
    ::setenv("ETSC_BENCH_ALPHA", buf, 1);
  }
  return 0;
}

int RunCampaign(const CliArgs& args) {
  auto config = etsc::bench::CampaignConfig::FromEnv();
  if (!args.shard.empty() &&
      !ParseShardSpec(args.shard, &config.shard_index, &config.shard_count)) {
    std::fprintf(stderr, "bad --shard spec '%s' (want I/N with 0 <= I < N)\n",
                 args.shard.c_str());
    return 1;
  }
  // Flags beat the ETSC_RETRY_*/ETSC_QUARANTINE_AFTER environment.
  if (args.max_retries >= 0) {
    config.supervisor.retry.max_retries = args.max_retries;
  }
  if (args.quarantine_after >= 0) {
    config.supervisor.quarantine_after = args.quarantine_after;
  }
  etsc::bench::Campaign campaign(std::move(config));
  const etsc::Status status = campaign.Run();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("campaign journal: %s\nreport: %s\n",
              campaign.config().cache_path.c_str(),
              campaign.ReportPath().c_str());
  return 0;
}

int WriteMergedReport(etsc::bench::CampaignConfig config,
                      const std::string& journal_path);

void ApplySupervisorFlags(const CliArgs& args,
                          etsc::bench::CampaignConfig* config) {
  if (args.max_retries >= 0) {
    config->supervisor.retry.max_retries = args.max_retries;
  }
  if (args.quarantine_after >= 0) {
    config->supervisor.quarantine_after = args.quarantine_after;
  }
}

/// One fabric worker: leases cells from the shared journal until every cell
/// is terminal (or the lease loop hits a setup error). Workers never write
/// the report — that is the coordinator's (or --merge-shards') job.
int RunWorkerProcess(const CliArgs& args) {
  auto config = etsc::bench::CampaignConfig::FromEnv();
  ApplySupervisorFlags(args, &config);
  if (!args.cache.empty()) config.cache_path = args.cache;
  const char* worker_id = std::getenv("ETSC_WORKER_ID");
  const std::string owner = (worker_id != nullptr && *worker_id != '\0')
                                ? std::string(worker_id)
                                : "pid-" + std::to_string(::getpid());
  etsc::bench::Campaign campaign(std::move(config));
  const etsc::Status status = campaign.RunWorker(owner);
  if (!status.ok()) {
    std::fprintf(stderr, "worker %s: %s\n", owner.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("worker %s done: %s\n", owner.c_str(),
              campaign.config().cache_path.c_str());
  return 0;
}

/// Forks one `--worker` child (execs this same binary so a die-at fault or a
/// SIGKILL only takes down that child). Returns the child pid, or -1.
pid_t SpawnWorker(const std::string& exe, const std::string& cache,
                  size_t index) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  std::string worker_id = "w";  // two-step append: GCC 12 -Wrestrict FP
  worker_id += std::to_string(index);
  ::setenv("ETSC_WORKER_ID", worker_id.c_str(), 1);
  const char* trace = std::getenv("ETSC_TRACE");
  if (trace != nullptr && *trace != '\0') {
    // Per-worker trace files; the real pids give each worker its own lane
    // when the traces are concatenated into one timeline.
    ::setenv("ETSC_TRACE", (std::string(trace) + "." + worker_id).c_str(), 1);
  }
  const char* argv[] = {exe.c_str(), "--worker", "--cache", cache.c_str(),
                        nullptr};
  ::execv(exe.c_str(), const_cast<char**>(argv));
  std::fprintf(stderr, "execv %s failed\n", exe.c_str());
  ::_exit(127);
}

/// `--campaign --workers K`: spawns K lease-fabric workers over one shared
/// journal and runs the continuous merge loop, emitting the final report only
/// when every grid cell has a terminal row. Workers that die (crash, SIGKILL,
/// die-at fault) lose their leases to the survivors; if *all* workers die
/// before the grid completes, the fleet is respawned up to
/// ETSC_WORKER_RESTARTS times (default 3, campaign.worker_restarts counts).
int RunCoordinator(const CliArgs& args, const char* argv0) {
  auto config = etsc::bench::CampaignConfig::FromEnv();
  ApplySupervisorFlags(args, &config);
  // Children re-read the environment, so flag overrides must be exported or
  // the workers would derive a different journal fingerprint.
  if (args.max_retries >= 0) {
    ::setenv("ETSC_RETRY_MAX",
             std::to_string(config.supervisor.retry.max_retries).c_str(), 1);
  }
  if (args.quarantine_after >= 0) {
    ::setenv("ETSC_QUARANTINE_AFTER",
             std::to_string(config.supervisor.quarantine_after).c_str(), 1);
  }
  if (!args.cache.empty()) config.cache_path = args.cache;
  const std::string cache = config.cache_path;
  const std::string merged = cache + ".merged.csv";
  const auto header = etsc::bench::JournalHeaderForConfig(config);
  if (!header.ok()) {
    std::fprintf(stderr, "%s\n", header.status().ToString().c_str());
    return 1;
  }

  std::string exe = argv0;
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n > 0) {
    self[n] = '\0';
    exe = self;
  }

  int64_t restarts_left = etsc::env::IntegerOr(
      "campaign", "ETSC_WORKER_RESTARTS", 3, 0, 1000000);
  static etsc::Counter& worker_restarts =
      etsc::MetricRegistry::Global().counter("campaign.worker_restarts");

  std::vector<pid_t> children;
  auto spawn_fleet = [&]() -> bool {
    children.clear();
    for (size_t i = 0; i < args.workers; ++i) {
      const pid_t pid = SpawnWorker(exe, cache, i + 1);
      if (pid < 0) {
        std::fprintf(stderr, "fork failed for worker %zu\n", i + 1);
        return false;
      }
      children.push_back(pid);
    }
    return true;
  };
  if (!spawn_fleet()) return 1;
  std::printf("coordinator: %zu worker(s) on %s\n", args.workers,
              cache.c_str());

  bool complete = false;
  while (!complete) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    int wstatus = 0;
    pid_t done;
    while ((done = ::waitpid(-1, &wstatus, WNOHANG)) > 0) {
      for (auto& child : children) {
        if (child == done) child = -1;
      }
      if (WIFSIGNALED(wstatus) ||
          (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0)) {
        std::fprintf(stderr,
                     "coordinator: worker pid %d died (%s %d); its leases "
                     "will expire and be stolen\n",
                     static_cast<int>(done),
                     WIFSIGNALED(wstatus) ? "signal" : "exit",
                     WIFSIGNALED(wstatus) ? WTERMSIG(wstatus)
                                          : WEXITSTATUS(wstatus));
      }
    }

    // Continuous merge: a no-journal-yet error is just "too early".
    const auto merged_summary =
        etsc::bench::MergeShardJournals(merged, {cache}, config, *header);
    if (merged_summary.ok()) {
      complete = merged_summary->complete;
      if (complete) break;
    }

    const bool any_alive =
        std::any_of(children.begin(), children.end(),
                    [](pid_t pid) { return pid > 0; });
    if (!any_alive) {
      if (restarts_left <= 0) {
        std::fprintf(stderr,
                     "coordinator: all workers dead, grid incomplete, restart "
                     "budget exhausted\n");
        return 1;
      }
      --restarts_left;
      worker_restarts.Add(args.workers);
      std::fprintf(stderr, "coordinator: respawning %zu worker(s)\n",
                   args.workers);
      if (!spawn_fleet()) return 1;
    }
  }

  // The grid is complete; surviving workers observe all-terminal and exit on
  // their own, so a blocking reap cannot hang.
  for (const pid_t child : children) {
    if (child > 0) {
      int wstatus = 0;
      ::waitpid(child, &wstatus, 0);
    }
  }
  const auto final_merge =
      etsc::bench::MergeShardJournals(merged, {cache}, config, *header);
  if (!final_merge.ok()) {
    std::fprintf(stderr, "%s\n", final_merge.status().ToString().c_str());
    return 1;
  }
  std::printf("coordinator: all %zu grid cell(s) terminal; journal %s\n",
              final_merge->grid_cells, merged.c_str());
  return WriteMergedReport(std::move(config), merged);
}

/// Produces the merged JSON report by running a report-only campaign over the
/// merged journal. Run() re-reads the journal under the freshly recomputed
/// header and writes the report.
int WriteMergedReport(etsc::bench::CampaignConfig config,
                      const std::string& journal_path) {
  config.cache_path = journal_path;
  config.report_path = journal_path + ".report.json";
  config.report_only = true;
  config.shard_index = 0;
  config.shard_count = 1;
  etsc::bench::Campaign campaign(std::move(config));
  const etsc::Status status = campaign.Run();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("merged report: %s\n", campaign.ReportPath().c_str());
  return 0;
}

/// Combines shard (or fabric) journals written under one campaign config into
/// a single canonical journal at `out_path`, then writes the merged report.
/// Every input is validated against the fingerprint this process derives from
/// ETSC_BENCH_* + the generated data, so journals from a different config or
/// different data are refused with a diagnostic naming both fingerprints.
/// With `follow`, keeps re-merging until every grid cell has a terminal row
/// (a live view over journals that crashed workers are still filling in).
int MergeShards(const std::string& out_path,
                const std::vector<std::string>& inputs, bool follow) {
  auto config = etsc::bench::CampaignConfig::FromEnv();
  const auto header = etsc::bench::JournalHeaderForConfig(config);
  if (!header.ok()) {
    std::fprintf(stderr, "%s\n", header.status().ToString().c_str());
    return 1;
  }
  for (;;) {
    const auto merged =
        etsc::bench::MergeShardJournals(out_path, inputs, config, *header);
    if (!merged.ok()) {
      std::fprintf(stderr, "%s\n", merged.status().ToString().c_str());
      return 1;
    }
    if (!follow || merged->complete) {
      std::printf(
          "merged %zu row(s) from %zu journal(s) into %s (%zu/%zu grid "
          "cell(s) terminal%s)\n",
          merged->rows, inputs.size(), out_path.c_str(),
          merged->terminal_cells, merged->grid_cells,
          merged->complete ? "" : " — incomplete");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }
  return WriteMergedReport(std::move(config), out_path);
}

void WriteCanonical(const etsc::json::Value& value, etsc::json::Writer* w) {
  using Type = etsc::json::Value::Type;
  switch (value.type) {
    case Type::kNull:
      w->Null();
      break;
    case Type::kBool:
      w->Bool(value.bool_value);
      break;
    case Type::kNumber:
      w->Number(value.number);
      break;
    case Type::kString:
      w->String(value.string);
      break;
    case Type::kArray:
      w->BeginArray();
      for (const auto& element : value.array) WriteCanonical(element, w);
      w->EndArray();
      break;
    case Type::kObject:
      w->BeginObject();
      for (const auto& [key, element] : value.object) {
        w->Key(key);
        WriteCanonical(element, w);
      }
      w->EndObject();
      break;
  }
}

/// Drops every report field that legitimately varies between runs of the same
/// campaign — timings, thread counts, cache provenance, retry/backoff
/// telemetry, metric snapshots — so what remains is exactly the result
/// content that sharding must preserve. Cells of algorithms in
/// `ignore_algos` are removed wholesale (with the counts that cover them), so
/// a fault-injected campaign can be compared to a clean one on the
/// unaffected algorithms alone (the check.sh fault-matrix gate).
void StripVolatile(etsc::json::Value* report,
                   const std::vector<std::string>& ignore_algos) {
  if (!report->is_object()) return;
  for (const char* key : {"phases", "threads", "cpu_seconds", "cells_loaded",
                          "cells_computed", "metrics", "fit_retries",
                          "fault_spec"}) {
    report->object.erase(key);
  }
  const auto config = report->object.find("config");
  if (config != report->object.end() && config->second.is_object()) {
    config->second.object.erase("cache_path");
    config->second.object.erase("report_only");
    // Which kernel path computed the numbers is execution provenance, not
    // result content — ETSC_SIMD=0 and =1 runs must diff equal.
    config->second.object.erase("simd");
    // A harness knob, not result content: the whole point of --ignore-algos
    // is comparing a fault-injected campaign against a clean one.
    config->second.object.erase("fault_spec");
    // An ignored algorithm's presence in the config list is as irrelevant as
    // its cells: a clean ECTS-only run must compare equal to a faulted
    // ECTS+EDSC run under --ignore-algos EDSC.
    const auto algos = config->second.object.find("algorithms");
    if (algos != config->second.object.end() && algos->second.is_array()) {
      auto& list = algos->second.array;
      list.erase(std::remove_if(list.begin(), list.end(),
                                [&](const etsc::json::Value& name) {
                                  return std::find(ignore_algos.begin(),
                                                   ignore_algos.end(),
                                                   name.string) !=
                                         ignore_algos.end();
                                }),
                 list.end());
    }
  }
  const auto cells = report->object.find("cells");
  if (cells != report->object.end() && cells->second.is_array()) {
    auto& array = cells->second.array;
    array.erase(std::remove_if(array.begin(), array.end(),
                               [&](const etsc::json::Value& cell) {
                                 if (!cell.is_object()) return false;
                                 const auto algo = cell.object.find("algorithm");
                                 return algo != cell.object.end() &&
                                        std::find(ignore_algos.begin(),
                                                  ignore_algos.end(),
                                                  algo->second.string) !=
                                            ignore_algos.end();
                               }),
                array.end());
    for (auto& cell : array) {
      if (!cell.is_object()) continue;
      cell.object.erase("train_seconds");
      cell.object.erase("test_seconds_per_instance");
      cell.object.erase("retries");
    }
  }
  if (!ignore_algos.empty()) {
    // These aggregate over the dropped cells too; with algorithms ignored
    // they no longer describe the compared content.
    report->object.erase("cells_failed");
    report->object.erase("cells_quarantined");
  }
}

/// Renames algorithms (config list + cells) before the comparison. The use
/// case is the bit-identity contract between a paper algorithm and its
/// composed '<base>+<trigger>' spec: the campaigns agree on every score but
/// disagree on the algorithm's name, so --map-algo ECTS=1nn+ects-mpl maps the
/// paper-named report onto the spec's naming. Applied to both sides (a
/// no-op on the side already using NEW).
void MapAlgos(etsc::json::Value* report,
              const std::vector<std::pair<std::string, std::string>>& renames) {
  if (renames.empty() || !report->is_object()) return;
  auto rename = [&](etsc::json::Value* name) {
    if (name->type != etsc::json::Value::Type::kString) return;
    for (const auto& [from, to] : renames) {
      if (name->string == from) {
        name->string = to;
        return;
      }
    }
  };
  const auto config = report->object.find("config");
  if (config != report->object.end() && config->second.is_object()) {
    const auto algos = config->second.object.find("algorithms");
    if (algos != config->second.object.end() && algos->second.is_array()) {
      for (auto& name : algos->second.array) rename(&name);
    }
  }
  const auto cells = report->object.find("cells");
  if (cells != report->object.end() && cells->second.is_array()) {
    for (auto& cell : cells->second.array) {
      if (!cell.is_object()) continue;
      const auto algo = cell.object.find("algorithm");
      if (algo != cell.object.end()) rename(&algo->second);
    }
  }
}

etsc::Result<std::string> CanonicalReport(
    const std::string& path, const std::vector<std::string>& ignore_algos,
    const std::vector<std::pair<std::string, std::string>>& map_algos) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return etsc::Status::IOError("cannot read report " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = etsc::json::Parse(buffer.str());
  if (!parsed.ok()) return parsed.status();
  MapAlgos(&*parsed, map_algos);
  StripVolatile(&*parsed, ignore_algos);
  etsc::json::Writer w;
  WriteCanonical(*parsed, &w);
  return w.str();
}

int ReportDiff(const std::string& path_a, const std::string& path_b,
               const std::vector<std::string>& ignore_algos,
               const std::vector<std::pair<std::string, std::string>>&
                   map_algos) {
  const auto a = CanonicalReport(path_a, ignore_algos, map_algos);
  if (!a.ok()) {
    std::fprintf(stderr, "%s: %s\n", path_a.c_str(),
                 a.status().ToString().c_str());
    return 1;
  }
  const auto b = CanonicalReport(path_b, ignore_algos, map_algos);
  if (!b.ok()) {
    std::fprintf(stderr, "%s: %s\n", path_b.c_str(),
                 b.status().ToString().c_str());
    return 1;
  }
  if (*a == *b) {
    std::printf("reports match (modulo timings)\n");
    return 0;
  }
  size_t pos = 0;
  const size_t limit = std::min(a->size(), b->size());
  while (pos < limit && (*a)[pos] == (*b)[pos]) ++pos;
  const size_t from = pos < 40 ? 0 : pos - 40;
  std::fprintf(stderr,
               "reports differ at canonical byte %zu:\n  %s: ...%s\n  %s:"
               " ...%s\n",
               pos, path_a.c_str(), a->substr(from, 80).c_str(),
               path_b.c_str(), b->substr(from, 80).c_str());
  return 3;
}

/// Loads the dataset selected by --csv/--arff/--dataset into `out`.
/// Returns 0, or the exit code to fail with.
int LoadDatasetFromArgs(const CliArgs& args, etsc::Dataset* out) {
  if (!args.csv_path.empty()) {
    auto loaded = etsc::LoadCsv(args.csv_path, args.variables);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    *out = std::move(*loaded);
  } else if (!args.arff_path.empty()) {
    auto loaded = etsc::LoadArff(args.arff_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    *out = std::move(*loaded);
  } else if (!args.dataset.empty()) {
    etsc::RepositoryOptions repo;
    repo.seed = args.seed;
    repo.height_scale = args.scale;
    auto benchmark = etsc::MakeBenchmarkDataset(args.dataset, repo);
    if (!benchmark.ok()) {
      std::fprintf(stderr, "%s\n", benchmark.status().ToString().c_str());
      return 1;
    }
    *out = std::move(benchmark->data);
  } else {
    PrintUsage();
    return 1;
  }
  out->FillMissingValues();
  return 0;
}

/// `--serve`: fits (or cache-loads) one model, replays a deterministic ingest
/// trace of --sessions concurrent partial series through the ServingEngine in
/// batches of --dispatch-every events, cross-checks every decision against
/// the sequential single-StreamingSession reference, and reports throughput +
/// decision-latency quantiles (the Figure-13 numbers under serving load).
int RunServe(const CliArgs& args) {
  if (args.algo.empty()) {
    PrintUsage();
    return 1;
  }
  etsc::Dataset dataset;
  if (const int rc = LoadDatasetFromArgs(args, &dataset); rc != 0) return rc;
  std::printf("dataset %s: %zu instances, %zu vars, length %zu\n",
              dataset.name().c_str(), dataset.size(), dataset.NumVariables(),
              dataset.MaxLength());

  auto created = etsc::ClassifierRegistry::Global().Create(args.algo);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<etsc::EarlyClassifier> model = std::move(*created);
  if (dataset.NumVariables() > 1 && !model->SupportsMultivariate()) {
    std::fprintf(stderr, "%s does not support multivariate data\n",
                 args.algo.c_str());
    return 1;
  }

  // One fitted model shared by every session, reused across invocations via
  // the model cache (ETSC_MODEL_CACHE) under the full-dataset key.
  const auto cache = etsc::ModelCache::FromEnv();
  etsc::ModelCacheKey key;
  key.config_fingerprint = model->config_fingerprint();
  key.dataset_fingerprint = dataset.Fingerprint();
  key.fold = 0;
  key.num_folds = 1;
  key.seed = args.seed;
  etsc::Stopwatch fit_timer;
  bool cached = cache != nullptr && cache->TryLoad(key, model.get());
  if (!cached) {
    const etsc::Status fitted = model->Fit(dataset);
    if (!fitted.ok()) {
      std::fprintf(stderr, "fit failed: %s\n", fitted.ToString().c_str());
      return 2;
    }
    if (cache != nullptr) {
      const etsc::Status stored = cache->Store(key, *model);
      if (!stored.ok()) {
        std::fprintf(stderr, "model cache store: %s\n",
                     stored.ToString().c_str());
      }
    }
  }
  std::printf("model %s %s in %.2f s\n", args.algo.c_str(),
              cached ? "cache-loaded" : "fitted", fit_timer.Seconds());

  const auto trace =
      etsc::BuildReplayTrace(dataset, args.sessions, args.seed);
  if (trace.empty()) {
    std::fprintf(stderr, "empty ingest trace (empty dataset?)\n");
    return 1;
  }

  // Reference first: the sequential single-caller path.
  etsc::Stopwatch sequential_timer;
  const auto expected = etsc::ReplaySequential(
      *model, dataset.NumVariables(), args.sessions, trace);
  const double sequential_seconds = sequential_timer.Seconds();

  etsc::ServingOptions options = etsc::ServingOptions::FromEnv();
  options.expected_length = dataset.MaxLength();
  // --wal overrides ETSC_SERVE_WAL; --recover replays that file instead of
  // journaling onto it blind (Recover arms the appends itself).
  std::string wal_path = !args.wal.empty() ? args.wal : options.wal_path;
  if (args.recover && wal_path.empty()) {
    std::fprintf(stderr, "--recover needs --wal PATH (or ETSC_SERVE_WAL)\n");
    return 1;
  }
  options.wal_path = args.recover ? std::string() : wal_path;
  etsc::ServingEngine engine(options);
  std::shared_ptr<const etsc::EarlyClassifier> shared = model;
  const etsc::Status registered =
      engine.RegisterModel(args.algo, shared, dataset.NumVariables());
  if (!registered.ok()) {
    std::fprintf(stderr, "%s\n", registered.ToString().c_str());
    return 1;
  }

  etsc::WalRecovery recovery;
  if (args.recover) {
    auto recovered = engine.Recover(wal_path);
    if (!recovered.ok()) {
      std::fprintf(stderr, "recover failed: %s\n",
                   recovered.status().ToString().c_str());
      return 1;
    }
    recovery = *recovered;
    std::printf(
        "recover: %zu sessions (%zu observations, %zu finishes, %zu removed, "
        "%zu decided) from %s in %.1f ms; %zu torn row(s) skipped\n",
        recovery.sessions_recovered, recovery.observations_replayed,
        recovery.finishes_replayed, recovery.sessions_removed,
        recovery.decisions_recovered, wal_path.c_str(),
        recovery.replay_seconds * 1e3, recovery.torn_rows);
  }

  // Scripted crash injection for the chaos drill (no-op when unset).
  etsc::ArmServeFaultFromEnv();

  etsc::Stopwatch serve_timer;
  const auto actual =
      args.recover
          ? etsc::ResumeReplayThroughEngine(engine, args.algo, args.sessions,
                                            trace, args.dispatch_every)
          : etsc::ReplayThroughEngine(engine, args.algo, args.sessions, trace,
                                      args.dispatch_every);
  const double serve_seconds = serve_timer.Seconds();
  if (!actual.ok()) {
    std::fprintf(stderr, "%s\n", actual.status().ToString().c_str());
    return 1;
  }

  size_t divergent = 0;
  for (size_t s = 0; s < args.sessions; ++s) {
    if (!((*actual)[s] == expected[s])) ++divergent;
  }
  // Trigger decision metadata aggregated over the replayed sessions: where
  // the stopping rule halted, how early, and with what confidence. via_finish
  // sessions never tripped the trigger — the end of stream forced them.
  size_t trigger_halts = 0;
  size_t forced_finishes = 0;
  size_t failed_sessions = 0;
  double sum_halt_step = 0.0;
  double sum_earliness = 0.0;
  double sum_confidence = 0.0;
  for (const auto& outcome : *actual) {
    if (outcome.failed) {
      ++failed_sessions;
      continue;
    }
    if (outcome.via_finish) {
      ++forced_finishes;
    } else {
      ++trigger_halts;
    }
    sum_halt_step += static_cast<double>(outcome.halt_step);
    sum_earliness += outcome.earliness;
    sum_confidence += outcome.confidence;
  }
  const double decided =
      static_cast<double>(trigger_halts + forced_finishes);
  const double mean_halt_step = decided > 0.0 ? sum_halt_step / decided : 0.0;
  const double mean_earliness = decided > 0.0 ? sum_earliness / decided : 1.0;
  const double mean_confidence =
      decided > 0.0 ? sum_confidence / decided : 0.0;
  if (divergent > 0) {
    std::fprintf(stderr,
                 "FAIL: %zu/%zu sessions diverged from the sequential "
                 "reference\n",
                 divergent, args.sessions);
    return 4;
  }

  const etsc::ServingStats stats = engine.stats();
  const etsc::Histogram& latency =
      etsc::MetricRegistry::Global().histogram("serving.decision_seconds");
  const double sessions_per_second =
      serve_seconds > 0.0 ? static_cast<double>(args.sessions) / serve_seconds
                          : 0.0;
  const double ingest_per_second =
      serve_seconds > 0.0 ? static_cast<double>(trace.size()) / serve_seconds
                          : 0.0;
  std::printf(
      "serve: %zu sessions, %zu events, %zu batches, %zu decisions "
      "(%zu deadline-forced) in %.3f s (sequential reference %.3f s)\n",
      args.sessions, trace.size(), stats.batches, stats.decisions,
      stats.deadline_forced, serve_seconds, sequential_seconds);
  std::printf(
      "serve: %.0f sessions/s, %.0f obs/s ingest, decision latency "
      "p50=%.3g s p99=%.3g s — batched == sequential (bit-identical)\n",
      sessions_per_second, ingest_per_second, latency.Quantile(0.5),
      latency.Quantile(0.99));
  std::printf(
      "serve: %zu trigger halt(s), %zu forced finish(es), %zu failed; mean "
      "halt step %.1f, mean earliness %.3f, mean confidence %.3f\n",
      trigger_halts, forced_finishes, failed_sessions, mean_halt_step,
      mean_earliness, mean_confidence);
  if (!wal_path.empty()) {
    std::printf(
        "serve: WAL %s — %zu append(s); shed %zu decided + %zu idle, "
        "%zu refusal(s), %zu malformed ingest(s) rejected\n",
        wal_path.c_str(), stats.wal_appends, stats.shed_decided,
        stats.shed_idle, stats.shed_refusals, stats.ingest_rejected);
  }

  if (!args.serve_report.empty()) {
    etsc::json::Writer w;
    w.BeginObject();
    w.Key("dataset").String(dataset.name());
    w.Key("algorithm").String(args.algo);
    w.Key("sessions").Number(args.sessions);
    w.Key("events").Number(trace.size());
    w.Key("dispatch_every").Number(args.dispatch_every);
    w.Key("batches").Number(stats.batches);
    w.Key("decisions").Number(stats.decisions);
    w.Key("deadline_forced").Number(stats.deadline_forced);
    w.Key("serve_seconds").Number(serve_seconds);
    w.Key("sequential_seconds").Number(sequential_seconds);
    w.Key("sessions_per_second").Number(sessions_per_second);
    w.Key("ingest_per_second").Number(ingest_per_second);
    w.Key("decision_p50_seconds").Number(latency.Quantile(0.5));
    w.Key("decision_p99_seconds").Number(latency.Quantile(0.99));
    w.Key("trigger_halts").Number(trigger_halts);
    w.Key("forced_finishes").Number(forced_finishes);
    w.Key("failed_sessions").Number(failed_sessions);
    w.Key("mean_halt_step").Number(mean_halt_step);
    w.Key("mean_halt_earliness").Number(mean_earliness);
    w.Key("mean_halt_confidence").Number(mean_confidence);
    w.Key("wal").String(wal_path);
    w.Key("wal_appends").Number(stats.wal_appends);
    w.Key("recovered").Bool(args.recover);
    w.Key("sessions_recovered").Number(recovery.sessions_recovered);
    w.Key("observations_replayed").Number(recovery.observations_replayed);
    w.Key("wal_replay_ms").Number(recovery.replay_seconds * 1e3);
    w.Key("wal_torn_rows").Number(recovery.torn_rows);
    w.Key("shed_decided").Number(stats.shed_decided);
    w.Key("shed_idle").Number(stats.shed_idle);
    w.Key("shed_refusals").Number(stats.shed_refusals);
    w.Key("ingest_rejected").Number(stats.ingest_rejected);
    w.Key("bit_identical").Bool(true);
    w.EndObject();
    std::ofstream out(args.serve_report, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.serve_report.c_str());
      return 1;
    }
    out << w.str() << "\n";
    std::printf("serve report: %s\n", args.serve_report.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  etsc::RegisterBuiltinClassifiers();
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 1;
  }

  if (const int rc = ApplyCompositionFlags(args); rc != 0) return rc;

  if (!args.diff_reports.empty()) {
    return ReportDiff(args.diff_reports[0], args.diff_reports[1],
                      args.ignore_algos, args.map_algos);
  }
  if (!args.merge_out.empty()) {
    return MergeShards(args.merge_out, args.merge_inputs, args.follow);
  }
  if (args.serve) {
    return RunServe(args);
  }
  if (args.worker) {
    return RunWorkerProcess(args);
  }
  if (args.workers > 0) {
    return RunCoordinator(args, argv[0]);
  }
  if (args.campaign) {
    return RunCampaign(args);
  }

  if (args.list) {
    // One namespace: plain algorithms, and aliases as name=spec.
    const auto& algorithms = etsc::ClassifierRegistry::Global();
    std::printf("algorithms:");
    for (const auto& name : algorithms.Names()) {
      const std::string spec = algorithms.SpecOf(name);
      std::printf(" %s%s%s", name.c_str(), spec.empty() ? "" : "=",
                  spec.c_str());
    }
    std::printf("\ntriggers:");
    for (const auto& name : etsc::TriggerRegistry::Global().Names()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\nbase classifiers:");
    for (const auto& name : etsc::BaseClassifierRegistry::Global().Names()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\ndatasets:");
    for (const auto& name : etsc::BenchmarkDatasetNames()) {
      std::printf(" %s", name.c_str());
    }
    std::printf(
        "\ncomposed: any '<base classifier>+<trigger>' spec (e.g. "
        "minirocket-logistic+prob) works wherever an algorithm name does: "
        "--algo, ETSC_BENCH_ALGOS, or the --classifiers/--triggers "
        "cross-product\n");
    return 0;
  }

  if (args.algo.empty()) {
    PrintUsage();
    return 1;
  }
  auto model = etsc::ClassifierRegistry::Global().Create(args.algo);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }

  etsc::Dataset dataset;
  if (const int rc = LoadDatasetFromArgs(args, &dataset); rc != 0) return rc;

  std::printf("dataset %s: %zu instances, %zu vars, length %zu, %zu classes\n",
              dataset.name().c_str(), dataset.size(), dataset.NumVariables(),
              dataset.MaxLength(), dataset.NumClasses());

  etsc::EvaluationOptions options;
  options.num_folds = args.folds;
  options.seed = args.seed;
  options.train_budget_seconds = args.budget;
  // ETSC_MODEL_CACHE reuses fitted models across invocations of the same
  // (algorithm config, dataset, fold, seed); unset means no caching.
  options.model_cache = etsc::ModelCache::FromEnv();
  const etsc::EvaluationResult result =
      etsc::CrossValidate(dataset, **model, options);
  if (!result.trained()) {
    std::fprintf(stderr, "%s did not train within budget: %s\n",
                 args.algo.c_str(),
                 result.folds.empty() ? "?" : result.folds[0].failure.c_str());
    return 2;
  }
  const etsc::EvalScores scores = result.MeanScores();
  std::printf(
      "%s (%zu-fold CV): accuracy=%.4f f1=%.4f earliness=%.4f "
      "harmonic_mean=%.4f train=%.2f min test=%.4f s/instance\n",
      result.algorithm.c_str(), args.folds, scores.accuracy, scores.f1,
      scores.earliness, scores.harmonic_mean, result.MeanTrainSeconds() / 60.0,
      result.MeanTestSecondsPerInstance());
  return 0;
}
