// Byte-freeze coverage for the three append-only record formats that share
// one file discipline (DESIGN.md sec 10): the campaign journal, the worker
// fabric's control rows inside it, and the serving WAL. Every case asserts the
// exact bytes a writer leaves on disk, including the fresh-line append after a
// torn, newline-less tail, so any change to the on-disk formats shows up here.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/fabric.h"
#include "core/record_log.h"
#include "core/serving.h"

namespace etsc {
namespace {

/// Never commits on its own: sessions decide only through Finish or a
/// deadline force, which keeps the scripted WAL sessions deterministic.
class NeverDecides : public EarlyClassifier {
 public:
  Status Fit(const Dataset&) override { return Status::OK(); }
  Result<EarlyPrediction> PredictEarly(const TimeSeries& series) const override {
    if (series.length() == 0) return Status::InvalidArgument("empty series");
    return EarlyPrediction{1, 1000000};
  }
  std::string name() const override { return "never"; }
  bool SupportsMultivariate() const override { return true; }
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override {
    return std::make_unique<NeverDecides>();
  }
};

std::string FreshPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  for (const char* suffix : {"", ".stale", ".lock", ".report.json"}) {
    std::remove((path + suffix).c_str());
  }
  return path;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// ---------------------------------------------------------------------------
// Serving WAL
// ---------------------------------------------------------------------------

TEST(RecordLogBytes, ScriptedWalSessionIsFrozen) {
  const std::string wal = FreshPath("record_log_wal.wal");
  ServingOptions options;
  options.wal_path = wal;
  options.session_budget_seconds = 0.0;  // born expired: dispatch forces
  ServingEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<NeverDecides>(), 2).ok());
  auto a = engine.Open("m");
  auto b = engine.Open("m");
  ASSERT_TRUE(a.ok() && b.ok());
  // Neither value survives a round trip with fewer than 17 digits.
  ASSERT_TRUE(engine.Ingest(*a, {0.1, 1.0 / 3.0}).ok());
  ASSERT_TRUE(engine.Ingest(*b, {2.0 / 3.0, -1.0 / 7.0}).ok());
  ASSERT_TRUE(engine.Finish(*a).ok());
  ASSERT_TRUE(engine.DispatchBatch().ok());  // forces b at 1 observation
  ASSERT_TRUE(engine.Close(*a).ok());
  EXPECT_EQ(ReadFile(wal),
            "# etscwal v1\n"
            "O,1,m,#end\n"
            "O,2,m,#end\n"
            "I,1,0.10000000000000001,0.33333333333333331,#end\n"
            "I,2,0.66666666666666663,-0.14285714285714285,#end\n"
            "F,1,#end\n"
            "D,1,1,#end\n"  // Finish runs the expired session inline
            "D,2,1,#end\n"
            "C,1,#end\n");
}

TEST(RecordLogBytes, WalAppendAfterATornTailStartsOnAFreshLine) {
  const std::string wal = FreshPath("record_log_wal_torn.wal");
  WriteFile(wal, "# etscwal v1\nO,1,m,#end\nI,1,0.5");
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<NeverDecides>(), 1).ok());
  auto rec = engine.Recover(wal);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->torn_rows, 1u);
  EXPECT_EQ(rec->sessions_recovered, 1u);
  ASSERT_TRUE(engine.Ingest(1, {0.25}).ok());
  ASSERT_TRUE(engine.Close(1).ok());
  EXPECT_EQ(ReadFile(wal),
            "# etscwal v1\n"
            "O,1,m,#end\n"
            "I,1,0.5\n"
            "I,1,0.25,#end\n"
            "C,1,#end\n");
}

// ---------------------------------------------------------------------------
// Campaign journal
// ---------------------------------------------------------------------------

bench::CampaignCell TrainedCell() {
  bench::CampaignCell cell;
  cell.algorithm = "ECTS";
  cell.dataset = "PowerCons";
  cell.trained = true;
  cell.accuracy = 0.1;
  cell.f1 = 2.0 / 3.0;
  cell.earliness = 0.25;
  cell.harmonic_mean = 1.0 / 3.0;
  cell.train_seconds = 12.5;
  cell.test_seconds_per_instance = 3e-05;
  cell.retries = 2;
  return cell;
}

bench::CampaignCell FailedCell() {
  bench::CampaignCell cell;
  cell.algorithm = "EDSC";
  cell.dataset = "PowerCons";
  cell.earliness = 1.0;
  cell.quarantined = true;
  cell.failure = "fit failed, see:\nC:\\path ,#end done";
  return cell;
}

constexpr char kTrainedRow[] =
    "ECTS,PowerCons,1,0.10000000000000001,0.66666666666666663,0.25,"
    "0.33333333333333331,12.5,3.0000000000000001e-05,2,0,,#end";
constexpr char kFailedRow[] =
    "EDSC,PowerCons,0,0,0,1,0,0,0,0,1,"
    "fit failed\\c see:\\nC:\\\\path \\c#end done,#end";

TEST(RecordLogBytes, JournalRowsAreFrozen) {
  EXPECT_EQ(bench::FormatJournalRow(TrainedCell()), kTrainedRow);
  EXPECT_EQ(bench::FormatJournalRow(FailedCell()), kFailedRow);
}

const char kFabricHeader[] = "# v4 record-log-test data=0000000000000000";

std::vector<fabric::GridCell> TwoCellGrid() {
  std::vector<fabric::GridCell> grid(2);
  grid[0].algorithm = "ECTS";
  grid[0].dataset = "PowerCons";
  grid[1].algorithm = "EDSC";
  grid[1].dataset = "PowerCons";
  return grid;
}

TEST(RecordLogBytes, JournalRowsWrittenThroughTheFabricAreFrozen) {
  const std::string path = FreshPath("record_log_journal.csv");
  fabric::WorkerJournal journal(path, kFabricHeader, TwoCellGrid(), "w1",
                                fabric::LeaseOptions());
  ASSERT_TRUE(journal.EnsureHeader().ok());
  ASSERT_TRUE(journal.Complete(0, bench::FormatJournalRow(TrainedCell())).ok());
  ASSERT_TRUE(journal.Complete(1, bench::FormatJournalRow(FailedCell())).ok());
  EXPECT_EQ(ReadFile(path), std::string(kFabricHeader) + "\n" + kTrainedRow +
                                "\n" + kFailedRow + "\n");
}

/// A campaign whose cells are deterministic: every ECTS Fit fails, and the
/// breaker quarantines the second dataset after the first failure.
bench::CampaignConfig CrashingConfig(const std::string& name) {
  bench::CampaignConfig config;
  config.algorithms = {"ECTS"};
  config.datasets = {"DodgerLoopGame", "DodgerLoopWeekend"};
  config.folds = 2;
  config.fault_spec = "ECTS:crash";
  config.supervisor.quarantine_after = 1;
  config.cache_path = FreshPath(name);
  return config;
}

constexpr char kCrashedRows[] =
    "ECTS,DodgerLoopGame,0,0,0,1,0,0,0,0,0,"
    "Internal: faulty-ECTS: injected fit failure,#end\n"
    "ECTS,DodgerLoopWeekend,0,0,0,1,0,0,0,0,1,"
    "SkippedQuarantine: ECTS quarantined after repeated failures; cell not "
    "attempted,#end\n";

TEST(RecordLogBytes, CampaignJournalIsFrozen) {
  const bench::CampaignConfig config = CrashingConfig("record_log_run.csv");
  const auto header = bench::JournalHeaderForConfig(config);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  bench::Campaign campaign(config);
  campaign.Run();
  EXPECT_EQ(ReadFile(config.cache_path), *header + "\n" + kCrashedRows);
}

TEST(RecordLogBytes, CampaignAppendAfterATornTailStartsOnAFreshLine) {
  const bench::CampaignConfig config = CrashingConfig("record_log_torn.csv");
  const auto header = bench::JournalHeaderForConfig(config);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  WriteFile(config.cache_path, *header + "\nECTS,DodgerLoopGame,0,0");
  bench::Campaign campaign(config);
  campaign.Run();
  EXPECT_EQ(ReadFile(config.cache_path),
            *header + "\nECTS,DodgerLoopGame,0,0\n" + kCrashedRows);
}

// ---------------------------------------------------------------------------
// Fabric control rows
// ---------------------------------------------------------------------------

TEST(RecordLogBytes, ControlRowsAreFrozen) {
  fabric::LeaseRow lease;
  lease.algorithm = "ECTS";
  lease.dataset = "PowerCons";
  lease.owner = "w1";
  lease.expiry_ms = 18446744073709551615u;
  EXPECT_EQ(fabric::FormatLeaseRow(lease),
            "@lease,ECTS,PowerCons,w1,18446744073709551615,#end");
  fabric::QuarantineRow quarantine;
  quarantine.algorithm = "EDSC";
  quarantine.owner = "pid-7";
  EXPECT_EQ(fabric::FormatQuarantineRow(quarantine),
            "@quarantine,EDSC,pid-7,#end");
}

/// Splits `bytes` at '\n'; the final element is the (possibly empty) text
/// after the last newline.
std::vector<std::string> Lines(const std::string& bytes) {
  std::vector<std::string> lines(1);
  for (const char c : bytes) {
    if (c == '\n') {
      lines.emplace_back();
    } else {
      lines.back() += c;
    }
  }
  return lines;
}

/// Asserts `line` is a lease row for ECTS/PowerCons held by `owner` whose
/// expiry lies in [lo, hi] (the monotonic clock is the one free field).
void ExpectLeaseRow(const std::string& line, const std::string& owner,
                    uint64_t lo, uint64_t hi) {
  const std::string prefix = "@lease,ECTS,PowerCons," + owner + ",";
  const std::string suffix = ",#end";
  ASSERT_GT(line.size(), prefix.size() + suffix.size()) << line;
  EXPECT_EQ(line.substr(0, prefix.size()), prefix);
  EXPECT_EQ(line.substr(line.size() - suffix.size()), suffix);
  const std::string digits = line.substr(
      prefix.size(), line.size() - prefix.size() - suffix.size());
  ASSERT_EQ(digits.find_first_not_of("0123456789"), std::string::npos) << line;
  const uint64_t expiry = std::stoull(digits);
  EXPECT_GE(expiry, lo);
  EXPECT_LE(expiry, hi);
}

TEST(RecordLogBytes, LeaseAndQuarantineRowsOnDiskAreFrozen) {
  const std::string path = FreshPath("record_log_fabric.csv");
  fabric::LeaseOptions options;
  options.ttl_ms = 5000.0;
  fabric::WorkerJournal journal(path, kFabricHeader, TwoCellGrid(), "w1",
                                options);
  ASSERT_TRUE(journal.EnsureHeader().ok());
  const uint64_t before = fabric::MonotonicMs();
  auto acquired = journal.Acquire();
  const uint64_t after = fabric::MonotonicMs();
  ASSERT_TRUE(acquired.ok());
  ASSERT_EQ(acquired->index, 0u);
  ASSERT_TRUE(journal.PublishQuarantine("ECTS").ok());

  const std::vector<std::string> lines = Lines(ReadFile(path));
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], kFabricHeader);
  ExpectLeaseRow(lines[1], "w1", before + 5000, after + 5000);
  EXPECT_EQ(lines[2], "@quarantine,ECTS,w1,#end");
  EXPECT_EQ(lines[3], "");  // every row ends with a newline
}

TEST(RecordLogBytes, FabricAppendAfterATornTailStartsOnAFreshLine) {
  const std::string path = FreshPath("record_log_fabric_torn.csv");
  WriteFile(path, std::string(kFabricHeader) + "\n@lease,ECTS,PowerCons,w0,12");
  fabric::LeaseOptions options;
  options.ttl_ms = 5000.0;
  fabric::WorkerJournal journal(path, kFabricHeader, TwoCellGrid(), "w1",
                                options);
  ASSERT_TRUE(journal.EnsureHeader().ok());
  const uint64_t before = fabric::MonotonicMs();
  auto acquired = journal.Acquire();
  const uint64_t after = fabric::MonotonicMs();
  ASSERT_TRUE(acquired.ok());
  ASSERT_EQ(acquired->index, 0u);
  EXPECT_FALSE(acquired->stolen);  // the torn lease row never counted

  const std::vector<std::string> lines = Lines(ReadFile(path));
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], kFabricHeader);
  EXPECT_EQ(lines[1], "@lease,ECTS,PowerCons,w0,12");
  ExpectLeaseRow(lines[2], "w1", before + 5000, after + 5000);
  EXPECT_EQ(lines[3], "");
}

// ---------------------------------------------------------------------------
// The record log itself: codec, header versions, reader bounds, rotation
// ---------------------------------------------------------------------------

TEST(RecordLog, FieldCodecRoundTripsAndSplitsStrictly) {
  EXPECT_EQ(record_log::Unseal(record_log::Seal("a,b")), "a,b");
  EXPECT_FALSE(record_log::Unseal("a,b,#en").has_value());
  const auto fields = record_log::SplitFields("a,,b,");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
  const std::string nasty = "x,y\n\\,#end\r";
  EXPECT_EQ(record_log::SplitFields(record_log::EscapeField(nasty)).size(), 1u);
  EXPECT_EQ(record_log::UnescapeField(record_log::EscapeField(nasty)), nasty);

  uint64_t v = 0;
  EXPECT_TRUE(record_log::ParseU64("18446744073709551615", &v));
  EXPECT_EQ(v, 18446744073709551615u);
  for (const char* bad : {"", "+1", "-1", " 1", "1 ", "1x", "0x10",
                          "18446744073709551616"}) {
    EXPECT_FALSE(record_log::ParseU64(bad, &v)) << "'" << bad << "'";
  }
}

TEST(RecordLog, HeaderVersionIsBoundedNotWrapped) {
  EXPECT_EQ(record_log::HeaderVersion("# v4 scale=1"), 4);
  EXPECT_EQ(record_log::HeaderVersion("# etscwal v1", "# etscwal v"), 1);
  EXPECT_EQ(record_log::HeaderVersion("# etscwal v1"), 0);  // another tag
  EXPECT_EQ(record_log::HeaderVersion("# v-3"), 0);
  // 2^32 + 1 must not wrap to v1, and a huge journal version must not read
  // as "unversioned".
  EXPECT_EQ(record_log::HeaderVersion("# etscwal v4294967297", "# etscwal v"),
            record_log::kVersionOutOfRange);
  EXPECT_EQ(record_log::HeaderVersion("# v99999999999999999999 x"),
            record_log::kVersionOutOfRange);
}

TEST(RecordLog, WalFromAFarFutureVersionIsRefused) {
  const std::string wal = FreshPath("record_log_wal_future.wal");
  WriteFile(wal, "# etscwal v4294967297\nO,1,m,#end\n");
  ServingEngine engine;
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<NeverDecides>(), 1).ok());
  auto rec = engine.Recover(wal);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rec.status().message().find("upgrade"), std::string::npos)
      << rec.status().ToString();
  EXPECT_EQ(ReadFile(wal), "# etscwal v4294967297\nO,1,m,#end\n");
}

TEST(RecordLog, JournalFromAFarFutureVersionIsRefusedNotRotated) {
  const std::string path = FreshPath("record_log_journal_future.csv");
  const std::string future = "# v99999999999 from-the-future data=00\n";
  WriteFile(path, future);
  fabric::WorkerJournal journal(path, kFabricHeader, TwoCellGrid(), "w1",
                                fabric::LeaseOptions());
  const Status status = journal.EnsureHeader();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("upgrade"), std::string::npos);
  EXPECT_EQ(ReadFile(path), future);
  EXPECT_EQ(ReadFile(path + ".stale"), "");

  const bench::CampaignConfig config = CrashingConfig("record_log_future.csv");
  WriteFile(config.cache_path, future);
  bench::Campaign campaign(config);
  const Status run = campaign.Run();
  EXPECT_EQ(run.code(), StatusCode::kFailedPrecondition) << run.ToString();
  EXPECT_EQ(ReadFile(config.cache_path), future);
}

TEST(RecordLog, ReaderStopsAtTheBytesPresentWhenItOpened) {
  const std::string path = FreshPath("record_log_reader.log");
  WriteFile(path, "# t v1\na,#end\n\nb,#end\ntorn");
  record_log::Reader log(path);
  ASSERT_TRUE(log.exists());
  EXPECT_EQ(log.header(), "# t v1");
  {
    // Another writer completes the torn line and appends a row meanwhile.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << ",#end\nc,#end\n";
  }
  std::vector<std::string> rows;
  std::string_view row;
  while (log.Next(&row)) {
    rows.push_back(std::string(row) + "@" + std::to_string(log.line_number()));
  }
  EXPECT_EQ(rows, (std::vector<std::string>{"a@2", "b@4"}));
  EXPECT_EQ(log.torn_rows(), 1u);
}

TEST(RecordLog, AppenderRefusesRowsThatWouldBreakTheFormat) {
  const std::string path = FreshPath("record_log_appender.log");
  record_log::Appender log;
  ASSERT_TRUE(log.Open(path, "# t v1").ok());
  EXPECT_EQ(log.Append("unsealed").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(log.Append("two\nlines,#end").code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(log.Append(record_log::Seal("ok")).ok());
  EXPECT_EQ(ReadFile(path), "# t v1\nok,#end\n");
}

/// Makes "<path>.stale" a non-empty directory, so rotating `path` fails.
void BlockRotation(const std::string& path) {
  const std::string stale = path + ".stale";
  ASSERT_EQ(::mkdir(stale.c_str(), 0755), 0);
  WriteFile(stale + "/keep", "x");
}

void UnblockRotation(const std::string& path) {
  std::remove((path + ".stale/keep").c_str());
  std::remove((path + ".stale").c_str());
}

TEST(RecordLog, FailedRotationIsAnErrorAndKeepsTheForeignLog) {
  const std::string path = FreshPath("record_log_rotate.csv");
  UnblockRotation(path);
  const std::string foreign = "# v4 another-campaign data=11\nx,y,#end\n";
  WriteFile(path, foreign);
  BlockRotation(path);
  fabric::WorkerJournal journal(path, kFabricHeader, TwoCellGrid(), "w1",
                                fabric::LeaseOptions());
  EXPECT_EQ(journal.EnsureHeader().code(), StatusCode::kIOError);
  EXPECT_EQ(ReadFile(path), foreign);

  ServingOptions options;
  options.wal_path = path;
  ServingEngine engine(options);
  ASSERT_TRUE(
      engine.RegisterModel("m", std::make_shared<NeverDecides>(), 1).ok());
  EXPECT_EQ(engine.Open("m").status().code(), StatusCode::kIOError);
  EXPECT_EQ(ReadFile(path), foreign);
  UnblockRotation(path);
}

TEST(RecordLog, CampaignFailsWhenItsJournalCannotBeWritten) {
  bench::CampaignConfig config = CrashingConfig("record_log_nodir.csv");
  config.cache_path =
      ::testing::TempDir() + "record_log_missing_dir/journal.csv";
  bench::Campaign campaign(config);
  const Status status = campaign.Run();
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();

  // A stale journal that cannot be rotated aside fails the run the same way,
  // and its rows survive.
  const bench::CampaignConfig stale = CrashingConfig("record_log_stale.csv");
  UnblockRotation(stale.cache_path);
  const std::string foreign = "# v4 another-campaign data=11\nx,y,#end\n";
  WriteFile(stale.cache_path, foreign);
  BlockRotation(stale.cache_path);
  bench::Campaign blocked(stale);
  EXPECT_EQ(blocked.Run().code(), StatusCode::kIOError);
  EXPECT_EQ(ReadFile(stale.cache_path), foreign);
  UnblockRotation(stale.cache_path);
}

}  // namespace
}  // namespace etsc
