// Corruption-hardening tests: every untrusted byte stream the framework
// consumes — ETSCMODL model files, campaign journals, JSON reports, ARFF and
// CSV datasets — must fail with a clean Status (or load nothing) under
// deterministic bit-flip and truncation corpora. Never a crash, never UB;
// this test runs under ASan and UBSan in check.sh. All corruption positions
// are derived arithmetically from the payload size, no wall-clock and no
// unseeded randomness, so failures reproduce exactly.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algos/ects.h"
#include "bench/bench_common.h"
#include "core/arff.h"
#include "core/counters.h"
#include "core/csv.h"
#include "core/json.h"
#include "core/model_cache.h"
#include "core/status.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

bool IsDataLossOrInvalid(const Status& status) {
  return status.code() == StatusCode::kDataLoss ||
         status.code() == StatusCode::kInvalidArgument;
}

/// Deterministic sample of byte positions in [0, size): a fixed count of
/// evenly spread offsets plus the boundaries, so the corpus covers the magic,
/// the header, the body, and the trailing checksum without scaling with file
/// size.
std::vector<size_t> CorpusPositions(size_t size) {
  std::vector<size_t> positions;
  if (size == 0) return positions;
  const size_t samples = 64;
  for (size_t i = 0; i < samples; ++i) {
    positions.push_back((i * size) / samples);
  }
  positions.push_back(size - 1);
  return positions;
}

std::string SavedEctsModel() {
  auto model = testing::CreateComposed("ects");
  const Status fitted = model->Fit(testing::MakeToyDataset(6, 16));
  EXPECT_TRUE(fitted.ok()) << fitted.ToString();
  std::stringstream stream;
  EXPECT_TRUE(model->Save(stream).ok());
  return stream.str();
}

// ---------------------------------------------------------------------------
// ETSCMODL model streams
// ---------------------------------------------------------------------------

TEST(ModelCorruption, EveryBitFlipIsDetected) {
  const std::string bytes = SavedEctsModel();
  ASSERT_GT(bytes.size(), 32u);
  for (const size_t pos : CorpusPositions(bytes.size())) {
    for (int bit = 0; bit < 8; bit += 3) {  // bits 0, 3, 6 of each byte
      std::string corrupt = bytes;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << bit));
      std::stringstream stream(corrupt);
      auto model = testing::CreateComposed("ects");
      const Status status = model->LoadFitted(stream);
      // The format checksums every section, so a single flipped bit anywhere
      // must be detected — loading can never silently succeed.
      EXPECT_FALSE(status.ok()) << "byte " << pos << " bit " << bit;
      EXPECT_TRUE(IsDataLossOrInvalid(status))
          << "byte " << pos << " bit " << bit << ": " << status.ToString();
    }
  }
}

TEST(ModelCorruption, EveryTruncationFailsCleanly) {
  const std::string bytes = SavedEctsModel();
  for (const size_t cut : CorpusPositions(bytes.size())) {
    std::stringstream stream(bytes.substr(0, cut));
    auto model = testing::CreateComposed("ects");
    const Status status = model->LoadFitted(stream);
    EXPECT_FALSE(status.ok()) << "cut at " << cut;
    EXPECT_TRUE(IsDataLossOrInvalid(status))
        << "cut at " << cut << ": " << status.ToString();
  }
}

// ---------------------------------------------------------------------------
// Model cache: corrupt entries demote to logged misses and are evicted
// ---------------------------------------------------------------------------

TEST(ModelCacheCorruption, CorruptEntryBecomesMissAndIsEvicted) {
  const std::string dir = ::testing::TempDir() + "corrupt_model_cache";
  const ModelCache cache(dir);
  const Dataset train = testing::MakeToyDataset(6, 16);

  auto model = testing::CreateComposed("ects");
  ASSERT_TRUE(model->Fit(train).ok());
  ModelCacheKey key;
  key.config_fingerprint = model->config_fingerprint();
  key.dataset_fingerprint = train.Fingerprint();
  key.fold = 0;
  key.num_folds = 2;
  key.seed = 42;
  ASSERT_TRUE(cache.Store(key, *model).ok());

  // Sanity: the clean entry loads.
  auto restored = testing::CreateComposed("ects");
  ASSERT_TRUE(cache.TryLoad(key, restored.get()));

  // Corrupt the stored bytes in place (flip a bit in the body).
  const std::string path = cache.EntryPath(key, model->name());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  Counter& evictions =
      MetricRegistry::Global().counter("model_cache.corrupt_evictions");
  const uint64_t evictions_before = evictions.value();

  // The corrupt entry is a miss, never an error...
  auto victim = testing::CreateComposed("ects");
  EXPECT_FALSE(cache.TryLoad(key, victim.get()));
  // ...the bad file is deleted so later runs don't trip over it again...
  std::ifstream gone(path, std::ios::binary);
  EXPECT_FALSE(gone.good()) << path << " should have been evicted";
  EXPECT_EQ(evictions.value(), evictions_before + 1);

  // ...and a refit + store makes the slot usable again.
  auto refit = testing::CreateComposed("ects");
  ASSERT_TRUE(refit->Fit(train).ok());
  ASSERT_TRUE(cache.Store(key, *refit).ok());
  auto reloaded = testing::CreateComposed("ects");
  EXPECT_TRUE(cache.TryLoad(key, reloaded.get()));
  EXPECT_EQ(evictions.value(), evictions_before + 1);  // no further evictions
}

// ---------------------------------------------------------------------------
// Campaign journals: flipped or truncated rows are skipped, never fatal
// ---------------------------------------------------------------------------

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
  return config;
}

TEST(JournalCorruption, CorruptedJournalsNeverCrashTheLoader) {
  auto config = JournalConfig("journal_corruption.csv");
  bench::Campaign seed_campaign(config);
  seed_campaign.Run();

  std::string journal;
  {
    std::ifstream in(config.cache_path);
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    journal = buffer.str();
  }
  ASSERT_FALSE(journal.empty());

  auto run_report_only = [&](const std::string& contents, const char* what) {
    auto corrupt_config = JournalConfig("journal_corruption.csv");
    {
      std::ofstream out(corrupt_config.cache_path, std::ios::trunc);
      out << contents;
    }
    corrupt_config.report_only = true;  // load + report, no recompute
    bench::Campaign campaign(corrupt_config);
    campaign.Run();  // the assertion is "returns at all, cleanly"
    SUCCEED() << what;
  };

  // Each probe is a full (report-only) campaign run, so subsample the corpus.
  const std::vector<size_t> positions = CorpusPositions(journal.size());
  for (size_t i = 0; i < positions.size(); i += 8) {
    const size_t pos = positions[i];
    std::string flipped = journal;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x08);
    run_report_only(flipped, "bit flip");
    run_report_only(journal.substr(0, pos), "truncation");
  }
  // Pathological shapes seen from real half-written files.
  run_report_only("", "empty file");
  run_report_only("\n\n\n", "blank lines");
  run_report_only(std::string(4096, ','), "comma soup");
  run_report_only(journal + journal, "duplicated journal");
}

// ---------------------------------------------------------------------------
// JSON reports
// ---------------------------------------------------------------------------

TEST(ReportCorruption, FlippedAndTruncatedReportsParseToStatusNotCrash) {
  auto config = JournalConfig("report_corruption.csv");
  bench::Campaign campaign(config);
  campaign.Run();

  std::string report;
  {
    std::ifstream in(campaign.ReportPath());
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    report = buffer.str();
  }
  ASSERT_TRUE(json::Parse(report).ok());
  // Trim trailing whitespace so every strict prefix below is genuinely
  // incomplete (the root object's closing brace is the last byte).
  while (!report.empty() &&
         (report.back() == '\n' || report.back() == ' ')) {
    report.pop_back();
  }

  for (const size_t pos : CorpusPositions(report.size())) {
    std::string flipped = report;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x02);
    const auto parsed = json::Parse(flipped);  // either outcome is fine...
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    }
    const auto truncated = json::Parse(report.substr(0, pos));
    if (pos < report.size()) {
      EXPECT_FALSE(truncated.ok()) << "cut at " << pos;  // ...but no crash
    }
  }
}

// ---------------------------------------------------------------------------
// CSV loader diagnostics: file:line:column context on every rejection
// ---------------------------------------------------------------------------

TEST(CsvDiagnostics, NonNumericTokenReportsLineAndColumn) {
  const auto result = ParseCsv("1,0.5,0.25\n0,0.1,bogus\n", 1, "bad.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("bad.csv:2:7: bad numeric field "
                                           "'bogus'"),
            std::string::npos)
      << result.status().ToString();
}

TEST(CsvDiagnostics, BadLabelReportsColumnOne) {
  const auto result = ParseCsv("zero,0.5,0.25\n", 1, "bad.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("bad.csv:1:1: bad label field "
                                           "'zero'"),
            std::string::npos)
      << result.status().ToString();
}

TEST(CsvDiagnostics, RaggedMultivariateRowIsRejectedInPlace) {
  // Second variable of the first example has 2 values instead of 3.
  const auto result = ParseCsv("1,0.1,0.2,0.3\n1,0.4,0.5\n", 2, "ragged.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(
                "ragged.csv:2:1: ragged row: 2 values where the example's "
                "first variable has 3"),
            std::string::npos)
      << result.status().ToString();
}

TEST(CsvDiagnostics, TruncatedTrailingExampleIsRejected) {
  const auto result = ParseCsv("1,0.1,0.2\n1,0.3,0.4\n0,0.5,0.6\n", 2,
                               "trunc.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(
                "trunc.csv:3: truncated file: trailing rows do not form a "
                "complete example (got 1 of 2 variables)"),
            std::string::npos)
      << result.status().ToString();
}

TEST(CsvDiagnostics, BitFlippedCsvNeverCrashes) {
  const Dataset dataset = testing::MakeToyDataset(4, 8);
  const std::string clean = ToCsv(dataset);
  ASSERT_TRUE(ParseCsv(clean, 1, "toy.csv").ok());
  for (const size_t pos : CorpusPositions(clean.size())) {
    std::string flipped = clean;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x04);
    const auto result = ParseCsv(flipped, 1, "toy.csv");  // any clean outcome
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

// ---------------------------------------------------------------------------
// ARFF loader diagnostics
// ---------------------------------------------------------------------------

constexpr const char* kCleanArff =
    "@relation toy\n"
    "@attribute att0 numeric\n"
    "@attribute att1 numeric\n"
    "@attribute target {a,b}\n"
    "@data\n"
    "0.5,0.25,a\n"
    "0.125,0.75,b\n";

TEST(ArffDiagnostics, CleanFileLoads) {
  const auto result = ParseArff(kCleanArff, "toy.arff");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 2u);
}

TEST(ArffDiagnostics, BadNumericFieldReportsItsColumn) {
  const auto result = ParseArff(
      "@attribute att0 numeric\n"
      "@attribute target {a,b}\n"
      "@data\n"
      "oops,a\n",
      "bad.arff");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(
      result.status().message().find("bad.arff:4:1: bad numeric field 'oops'"),
      std::string::npos)
      << result.status().ToString();
}

TEST(ArffDiagnostics, RaggedFinalLineSuggestsTruncation) {
  const auto result = ParseArff(
      "@attribute att0 numeric\n"
      "@attribute att1 numeric\n"
      "@attribute target {a,b}\n"
      "@data\n"
      "0.5,0.25,a\n"
      "0.125,0.75",  // no trailing newline: the write was cut short
      "cut.arff");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(
                "cut.arff:6:1: ragged row: expected 3 fields, got 2 "
                "(truncated final line?)"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ArffDiagnostics, MissingDataSectionIsCalledOut) {
  const auto result = ParseArff(
      "@attribute att0 numeric\n"
      "@attribute target {a,b}\n",
      "headless.arff");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(
                "headless.arff: missing @data section (truncated file?)"),
            std::string::npos)
      << result.status().ToString();
}

TEST(ArffDiagnostics, BitFlippedArffNeverCrashes) {
  const std::string clean(kCleanArff);
  for (const size_t pos : CorpusPositions(clean.size())) {
    for (int bit = 0; bit < 8; bit += 2) {
      std::string flipped = clean;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      const auto result = ParseArff(flipped, "toy.arff");
      if (!result.ok()) {
        EXPECT_FALSE(result.status().message().empty());
      }
    }
  }
}

}  // namespace
}  // namespace etsc
