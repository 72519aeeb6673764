#include "bench/bench_common.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.h"
#include "core/parallel.h"
#include "core/record_log.h"

namespace etsc {
namespace {

/// Sets one environment variable for the scope of a test and restores the
/// previous value (or unsets) on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* previous = std::getenv(name);
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_previous_) {
      ::setenv(name_.c_str(), previous_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string previous_;
  bool had_previous_ = false;
};

bench::CampaignConfig JournalConfig(const std::string& cache_name) {
  bench::CampaignConfig config;
  config.algorithms = {"ECTS"};
  config.datasets = {"DodgerLoopGame"};
  config.folds = 2;
  config.height_scale = 1.0;
  config.train_budget_seconds = 30.0;
  config.cache_path = ::testing::TempDir() + cache_name;
  std::remove(config.cache_path.c_str());
  std::remove((config.cache_path + ".stale").c_str());
  std::remove((config.cache_path + ".report.json").c_str());
  return config;
}

/// One pre-escaped journal row in the on-disk format.
std::string Row(const std::string& algorithm, const std::string& dataset,
                double accuracy, const std::string& failure) {
  std::ostringstream ss;
  ss << algorithm << ',' << dataset << ",1," << accuracy
     << ",0.5,0.25,0.5,1,0.001,0,0," << record_log::EscapeField(failure)
     << ",#end";
  return ss.str();
}

void WriteJournal(const bench::CampaignConfig& config,
                  const std::vector<std::string>& rows) {
  // The header Campaign expects: config fingerprint + dataset fingerprint.
  const auto header = bench::JournalHeaderForConfig(config);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  std::ofstream out(config.cache_path, std::ios::trunc);
  out << *header << "\n";
  for (const auto& row : rows) out << row << "\n";
}

// ---------------------------------------------------------------------------
// Journal field escaping
// ---------------------------------------------------------------------------

TEST(JournalEscape, RoundTripsEveryReservedCharacter) {
  const std::string nasty = "a,b\nnext\rline\\tail,#end\\n";
  const std::string escaped = record_log::EscapeField(nasty);
  // A single line without separators: safe to embed as one CSV field.
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  EXPECT_EQ(escaped.find('\r'), std::string::npos);
  EXPECT_EQ(escaped.find(','), std::string::npos);
  EXPECT_EQ(record_log::UnescapeField(escaped), nasty);
}

TEST(JournalEscape, SentinelCannotBeForged) {
  // The end-of-row sentinel starts with a comma; with every comma escaped, no
  // failure message can terminate a row early.
  const std::string escaped = record_log::EscapeField(",#end");
  EXPECT_EQ(escaped.find(','), std::string::npos);
  EXPECT_EQ(record_log::UnescapeField(escaped), ",#end");
}

TEST(JournalEscape, UnknownEscapesPassThroughVerbatim) {
  EXPECT_EQ(record_log::UnescapeField("a\\qb"), "a\\qb");
  EXPECT_EQ(record_log::UnescapeField("trailing\\"), "trailing\\");
}

// ---------------------------------------------------------------------------
// Journal round trip: hostile failure strings and duplicate rows
// ---------------------------------------------------------------------------

TEST(Journal, FailureWithNewlineAndSentinelRoundTrips) {
  auto config = JournalConfig("journal_escape.csv");
  config.report_only = true;  // load only: the cells come from the journal
  const std::string failure = "fit failed:\nline two with ,#end inside, done";
  WriteJournal(config, {Row("ECTS", "DodgerLoopGame", 0.75, failure)});

  bench::Campaign campaign(config);
  campaign.Run();
  ASSERT_EQ(campaign.cells().size(), 1u);
  const bench::CampaignCell* cell = campaign.Find("ECTS", "DodgerLoopGame");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->failure, failure);  // byte-for-byte after unescaping
  EXPECT_DOUBLE_EQ(cell->accuracy, 0.75);
}

TEST(Journal, DuplicateRowsKeepTheLastResult) {
  auto config = JournalConfig("journal_dupes.csv");
  config.report_only = true;
  // A resumed campaign journalled the same cell twice: the later (fresher)
  // row must win both in cells() and through Find().
  WriteJournal(config, {Row("ECTS", "DodgerLoopGame", 0.25, "stale, result"),
                        Row("ECTS", "DodgerLoopGame", 0.875, "")});

  bench::Campaign campaign(config);
  campaign.Run();
  ASSERT_EQ(campaign.cells().size(), 1u);  // deduplicated, not doubled
  const bench::CampaignCell* cell = campaign.Find("ECTS", "DodgerLoopGame");
  ASSERT_NE(cell, nullptr);
  EXPECT_DOUBLE_EQ(cell->accuracy, 0.875);
  EXPECT_TRUE(cell->failure.empty());
}

TEST(Journal, TornRowIsSkippedButLaterRowsStillLoad) {
  auto config = JournalConfig("journal_torn.csv");
  config.report_only = true;
  const auto header = bench::JournalHeaderForConfig(config);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  std::ofstream out(config.cache_path, std::ios::trunc);
  out << *header << "\n";
  out << "ECTS,DodgerLoopGame,1,0.1";  // crash mid-write: no sentinel
  out << "\n" << Row("ECTS", "DodgerLoopGame", 0.625, "msg, with commas")
      << "\n";
  out.close();

  bench::Campaign campaign(config);
  campaign.Run();
  ASSERT_EQ(campaign.cells().size(), 1u);
  const bench::CampaignCell* cell = campaign.Find("ECTS", "DodgerLoopGame");
  ASSERT_NE(cell, nullptr);
  EXPECT_DOUBLE_EQ(cell->accuracy, 0.625);
  EXPECT_EQ(cell->failure, "msg, with commas");
}

// ---------------------------------------------------------------------------
// Shardable campaigns
// ---------------------------------------------------------------------------

/// Journal rows with the two timing fields blanked: what must be identical
/// between a sharded and an unsharded run (timings legitimately vary).
std::vector<std::string> RowsModuloTimings(const std::string& path,
                                           std::string* header) {
  std::vector<std::string> rows;
  std::ifstream in(path);
  std::string line;
  if (std::getline(in, line) && header != nullptr) *header = line;
  while (std::getline(in, line)) {
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, ',')) fields.push_back(field);
    // algorithm,dataset,trained,acc,f1,earliness,hm,train_s,test_s,
    // retries,quarantined,failure...
    if (fields.size() > 8) fields[7] = fields[8] = "";
    std::string joined;
    for (const auto& f : fields) joined += f + ",";
    rows.push_back(joined);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(CampaignShard, ShardsPartitionTheGridAndMatchTheUnshardedRun) {
  auto full_config = JournalConfig("journal_shard_full.csv");
  full_config.algorithms = {"ECTS"};
  full_config.datasets = {"DodgerLoopGame", "PowerCons"};
  bench::Campaign full(full_config);
  full.Run();
  ASSERT_EQ(full.cells().size(), 2u);

  auto shard_base = JournalConfig("journal_shard.csv");
  shard_base.algorithms = full_config.algorithms;
  shard_base.datasets = full_config.datasets;
  std::vector<const bench::CampaignCell*> shard_cells;
  std::vector<std::string> shard_paths;
  for (size_t i = 0; i < 2; ++i) {
    auto config = shard_base;
    config.shard_index = i;
    config.shard_count = 2;
    bench::Campaign shard(config);
    // The constructor suffixes the journal path so shards never clobber each
    // other (or the unsharded journal).
    EXPECT_EQ(shard.config().cache_path,
              shard_base.cache_path + ".shard-" + std::to_string(i) + "-of-2");
    std::remove(shard.config().cache_path.c_str());
    shard.Run();
    // The 1x2 grid split two ways: each shard computes exactly one cell.
    EXPECT_EQ(shard.cells().size(), 1u);
    shard_paths.push_back(shard.config().cache_path);
    for (const auto& cell : shard.cells()) {
      const bench::CampaignCell* reference =
          full.Find(cell.algorithm, cell.dataset);
      ASSERT_NE(reference, nullptr) << cell.algorithm << "/" << cell.dataset;
      // Scores are bit-identical to the unsharded run, not merely close.
      EXPECT_EQ(cell.accuracy, reference->accuracy);
      EXPECT_EQ(cell.f1, reference->f1);
      EXPECT_EQ(cell.earliness, reference->earliness);
      EXPECT_EQ(cell.harmonic_mean, reference->harmonic_mean);
    }
  }

  // Both shard journals carry the SAME header as the unsharded journal (shard
  // coordinates are excluded from the config fingerprint), and the union of
  // their rows — timings aside — is exactly the unsharded journal.
  std::string full_header;
  std::vector<std::string> merged =
      RowsModuloTimings(full_config.cache_path, &full_header);
  std::vector<std::string> combined;
  for (const auto& path : shard_paths) {
    std::string header;
    for (auto& row : RowsModuloTimings(path, &header)) {
      combined.push_back(std::move(row));
    }
    EXPECT_EQ(header, full_header) << path;
  }
  std::sort(combined.begin(), combined.end());
  EXPECT_EQ(combined, merged);
}

// ---------------------------------------------------------------------------
// Environment parsing
// ---------------------------------------------------------------------------

TEST(CampaignEnv, GarbageNumericOverridesFallBackToDefaults) {
  ScopedEnv folds("ETSC_BENCH_FOLDS", "five");
  ScopedEnv scale("ETSC_BENCH_SCALE", "");
  ScopedEnv budget("ETSC_BENCH_BUDGET", "30x");
  ScopedEnv maritime("ETSC_BENCH_MARITIME", "-100");
  const bench::CampaignConfig defaults;
  const bench::CampaignConfig config = bench::CampaignConfig::FromEnv();
  // Bare strtod would have silently produced 0 for each of these.
  EXPECT_EQ(config.folds, defaults.folds);
  EXPECT_DOUBLE_EQ(config.height_scale, defaults.height_scale);
  EXPECT_DOUBLE_EQ(config.train_budget_seconds, defaults.train_budget_seconds);
  EXPECT_EQ(config.maritime_windows, defaults.maritime_windows);
}

TEST(CampaignEnv, ValidNumericOverridesParse) {
  ScopedEnv folds("ETSC_BENCH_FOLDS", "5");
  ScopedEnv scale("ETSC_BENCH_SCALE", "0.5");
  ScopedEnv budget("ETSC_BENCH_BUDGET", " 60 ");  // tolerates whitespace
  const bench::CampaignConfig config = bench::CampaignConfig::FromEnv();
  EXPECT_EQ(config.folds, 5u);
  EXPECT_DOUBLE_EQ(config.height_scale, 0.5);
  EXPECT_DOUBLE_EQ(config.train_budget_seconds, 60.0);
}

TEST(CampaignEnv, IntegerKnobsRejectFractionsAndSigns) {
  const bench::CampaignConfig defaults;
  for (const char* bad : {"2.5", "+3", "-0", "1e3", "3 4"}) {
    ScopedEnv folds("ETSC_BENCH_FOLDS", bad);
    ScopedEnv maritime("ETSC_BENCH_MARITIME", bad);
    const bench::CampaignConfig config = bench::CampaignConfig::FromEnv();
    EXPECT_EQ(config.folds, defaults.folds) << bad;
    EXPECT_EQ(config.maritime_windows, defaults.maritime_windows) << bad;
  }
  ScopedEnv folds("ETSC_BENCH_FOLDS", " 7\t");
  EXPECT_EQ(bench::CampaignConfig::FromEnv().folds, 7u);
}

TEST(ThreadsEnv, GarbageThreadCountFallsBackToHardwareDefault) {
  {
    ScopedEnv threads("ETSC_THREADS", "lots");
    SetMaxParallelism(0);  // 0 = re-resolve from the environment
    EXPECT_GE(MaxParallelism(), 1u);
  }
  {
    ScopedEnv threads("ETSC_THREADS", "3");
    SetMaxParallelism(0);
    EXPECT_EQ(MaxParallelism(), 3u);
  }
  SetMaxParallelism(0);  // restore the ambient default for later tests
}

// ---------------------------------------------------------------------------
// JSON campaign report
// ---------------------------------------------------------------------------

TEST(CampaignReport, RoundTripsThroughJson) {
  auto config = JournalConfig("journal_report.csv");
  bench::Campaign campaign(config);
  campaign.Run();
  ASSERT_EQ(campaign.cells().size(), 1u);

  std::ifstream in(campaign.ReportPath());
  ASSERT_TRUE(in.good()) << campaign.ReportPath();
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->Find("fingerprint")->AsString(), config.Fingerprint());
  const json::Value* cells = parsed->Find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->array.size(), 1u);
  const json::Value& cell = cells->array[0];
  EXPECT_EQ(cell.Find("algorithm")->AsString(), "ECTS");
  EXPECT_EQ(cell.Find("dataset")->AsString(), "DodgerLoopGame");
  EXPECT_TRUE(cell.Find("trained")->AsBool());
  // max_digits10 doubles survive the round trip bit-exactly.
  EXPECT_EQ(cell.Find("accuracy")->AsNumber(), campaign.cells()[0].accuracy);
  const json::Value* phases = parsed->Find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_GE(phases->Find("compute_seconds")->AsNumber(), 0.0);
  // The metric snapshot rides along: the instrumented evaluation must have
  // recorded at least this run's folds.
  const json::Value* metrics = parsed->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const json::Value* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* folds_run = counters->Find("eval.folds_run");
  ASSERT_NE(folds_run, nullptr);
  EXPECT_GE(folds_run->AsNumber(), 2.0);
}

TEST(CampaignReport, FullyCachedRunStillWritesAReport) {
  auto config = JournalConfig("journal_report_cached.csv");
  {
    bench::Campaign campaign(config);
    campaign.Run();
  }
  bench::Campaign cached(config);
  std::remove(cached.ReportPath().c_str());
  cached.Run();  // every cell cached: no compute phase, report still written
  std::ifstream in(cached.ReportPath());
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto parsed = json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->Find("cells_computed")->AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(parsed->Find("cells_loaded")->AsNumber(), 1.0);
}

}  // namespace
}  // namespace etsc
