#include "bench/bench_common.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/env.h"
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

  // The number rule itself (env::ParseNumber), shared with etsc_cli's flags:
  // junk, overflow, NaN, out-of-range and (below an infinite bound) infinity
  // are all rejected.
  for (const char* bad : {"abc", "2x", " ", "nan", "inf", "1e999", "-0.5",
                          "2e6"}) {
    ScopedEnv bad_scale("ETSC_BENCH_SCALE", bad);
    EXPECT_DOUBLE_EQ(bench::CampaignConfig::FromEnv().height_scale,
                     defaults.height_scale)
        << bad;
    EXPECT_FALSE(env::ParseNumber(bad, 0.0, 1e6).has_value()) << bad;
  }
}

TEST(CampaignEnv, ValidNumericOverridesParse) {
  ScopedEnv folds("ETSC_BENCH_FOLDS", "5");
  ScopedEnv scale("ETSC_BENCH_SCALE", "0.5");
  ScopedEnv budget("ETSC_BENCH_BUDGET", " 60 ");  // tolerates whitespace
  const bench::CampaignConfig config = bench::CampaignConfig::FromEnv();
  EXPECT_EQ(config.folds, 5u);
  EXPECT_DOUBLE_EQ(config.height_scale, 0.5);
  EXPECT_DOUBLE_EQ(config.train_budget_seconds, 60.0);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(env::ParseNumber(" 0.25\t", 0.0, 1.0), 0.25);
  EXPECT_EQ(env::ParseNumber("1e2", 0.0, 1e6), 100.0);
  EXPECT_EQ(env::ParseNumber("0", 0.0, 1.0), 0.0);  // bounds are inclusive
  EXPECT_EQ(env::ParseNumber("inf", 0.0, kInf), kInf);
  ScopedEnv unlimited("ETSC_BENCH_PREDICT_BUDGET", "inf");
  EXPECT_EQ(bench::CampaignConfig::FromEnv().predict_budget_seconds, kInf);
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
  {
    // Fewer than two folds cannot be split stratified: rejected at the knob
    // instead of failing a check inside CrossValidate.
    ScopedEnv one_fold("ETSC_BENCH_FOLDS", "1");
    EXPECT_EQ(bench::CampaignConfig::FromEnv().folds, defaults.folds);
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
