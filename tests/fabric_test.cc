#include "core/fabric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/counters.h"
#include "core/dataset.h"
#include "core/fault.h"
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

/// One pre-escaped terminal journal row in the on-disk format.
std::string Row(const std::string& algorithm, const std::string& dataset,
                bool trained = true, bool quarantined = false) {
  std::ostringstream ss;
  ss << algorithm << ',' << dataset << ',' << (trained ? 1 : 0)
     << ",0.5,0.5,0.25,0.5,1,0.001,0," << (quarantined ? 1 : 0) << ",,#end";
  return ss.str();
}

uint64_t CounterValue(const std::string& name) {
  return MetricRegistry::Global().counter(name).value();
}

std::string TestPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
  std::remove((path + ".stale").c_str());
  return path;
}

// ---------------------------------------------------------------------------
// Lease options and control rows (pure, no I/O)
// ---------------------------------------------------------------------------

TEST(FabricLease, OptionsFromEnvValidateGarbageAndClampTheHeartbeat) {
  {
    ScopedEnv ttl("ETSC_LEASE_TTL_MS", "junk");
    ScopedEnv hb("ETSC_HEARTBEAT_MS", "-4");
    const fabric::LeaseOptions defaults;
    const fabric::LeaseOptions options = fabric::LeaseOptions::FromEnv();
    // Bare strtod would have silently produced 0 (an instantly-expiring
    // lease); garbage must keep the defaults instead.
    EXPECT_DOUBLE_EQ(options.ttl_ms, defaults.ttl_ms);
    EXPECT_DOUBLE_EQ(options.heartbeat_ms, defaults.heartbeat_ms);
  }
  {
    ScopedEnv ttl("ETSC_LEASE_TTL_MS", "1000");
    ScopedEnv hb("ETSC_HEARTBEAT_MS", "4000");
    const fabric::LeaseOptions options = fabric::LeaseOptions::FromEnv();
    EXPECT_DOUBLE_EQ(options.ttl_ms, 1000.0);
    // A heartbeat slower than the TTL could never keep a lease alive.
    EXPECT_DOUBLE_EQ(options.heartbeat_ms, 250.0);
  }
}

TEST(FabricLease, ControlRowsRoundTripAndTornRowsAreRejected) {
  fabric::LeaseRow lease;
  lease.algorithm = "ECTS";
  lease.dataset = "PowerCons";
  lease.owner = "w1";
  lease.expiry_ms = 123456789;
  const std::string line = fabric::FormatLeaseRow(lease);
  const fabric::ControlRow parsed = fabric::ParseControlRow(line);
  ASSERT_EQ(parsed.kind, fabric::ControlRowKind::kLease);
  EXPECT_EQ(parsed.lease.algorithm, "ECTS");
  EXPECT_EQ(parsed.lease.dataset, "PowerCons");
  EXPECT_EQ(parsed.lease.owner, "w1");
  EXPECT_EQ(parsed.lease.expiry_ms, 123456789u);

  // A torn control row (crash mid-write) must be skipped, not half-parsed.
  const std::string torn = line.substr(0, line.size() - 1);
  EXPECT_EQ(fabric::ParseControlRow(torn).kind, fabric::ControlRowKind::kNone);

  fabric::QuarantineRow quarantine;
  quarantine.algorithm = "EDSC";
  quarantine.owner = "w2";
  const fabric::ControlRow q =
      fabric::ParseControlRow(fabric::FormatQuarantineRow(quarantine));
  ASSERT_EQ(q.kind, fabric::ControlRowKind::kQuarantine);
  EXPECT_EQ(q.quarantine.algorithm, "EDSC");
  EXPECT_EQ(q.quarantine.owner, "w2");

  // Ordinary cell rows are not control rows.
  EXPECT_EQ(fabric::ParseControlRow(Row("ECTS", "PowerCons")).kind,
            fabric::ControlRowKind::kNone);
}

TEST(FabricLease, HeaderVersionParsesTheJournalFormat) {
  EXPECT_EQ(record_log::HeaderVersion("# v4 scale=1 data=00"), 4);
  EXPECT_EQ(record_log::HeaderVersion("# v99 future data=00"), 99);
  EXPECT_EQ(record_log::HeaderVersion("# unversioned"), 0);
}

// ---------------------------------------------------------------------------
// LeaseTable: expiry and steal determinism (explicit clock, no timing)
// ---------------------------------------------------------------------------

TEST(FabricLease, StealsTheLowestExpiredCellAndHonoursLanePrerequisites) {
  // Dataset-major 2x2 grid: [A/d1, B/d1, A/d2, B/d2] with per-algorithm lanes.
  std::vector<fabric::GridCell> grid(4);
  grid[0] = {"A", "d1", fabric::kNoCell};
  grid[1] = {"B", "d1", fabric::kNoCell};
  grid[2] = {"A", "d2", 0};
  grid[3] = {"B", "d2", 1};
  fabric::LeaseTable table(grid);

  auto lease = [](const char* algo, const char* ds, const char* owner,
                  uint64_t expiry) {
    fabric::LeaseRow row;
    row.algorithm = algo;
    row.dataset = ds;
    row.owner = owner;
    row.expiry_ms = expiry;
    return fabric::FormatLeaseRow(row);
  };
  table.ApplyLine(lease("A", "d1", "w1", 1000));
  table.ApplyLine(lease("B", "d1", "w1", 1000));

  // Both lanes' first cells are leased and live; the second cells are gated
  // on their prerequisites, so nothing is acquirable before expiry.
  bool stolen = false;
  EXPECT_EQ(table.NextAvailable(500, &stolen), fabric::kNoCell);
  EXPECT_EQ(table.MsUntilNextExpiry(500), 500u);

  // Past expiry both leases are stealable; the LOWEST index wins — every
  // surviving worker reaches the same answer (steal determinism).
  EXPECT_EQ(table.NextAvailable(1500, &stolen), 0u);
  EXPECT_TRUE(stolen);

  // A terminal row on cell 0 unblocks its lane successor (cell 2, unleased):
  // the expired lease on cell 1 still wins by index order.
  table.ApplyLine(Row("A", "d1"));
  EXPECT_EQ(table.NextAvailable(1500, &stolen), 1u);
  EXPECT_TRUE(stolen);

  // With cell 1 terminal too, the unleased cell 2 is next — not a steal.
  table.ApplyLine(Row("B", "d1", /*trained=*/false));
  EXPECT_EQ(table.NextAvailable(1500, &stolen), 2u);
  EXPECT_FALSE(stolen);

  table.ApplyLine(fabric::FormatQuarantineRow({"B", "w1"}));
  EXPECT_EQ(table.quarantined_algorithms().count("B"), 1u);

  EXPECT_FALSE(table.AllTerminal());
  table.ApplyLine(Row("A", "d2"));
  table.ApplyLine(Row("B", "d2", /*trained=*/false, /*quarantined=*/true));
  EXPECT_TRUE(table.AllTerminal());
  EXPECT_TRUE(table.statuses()[3].quarantined_row);
}

// ---------------------------------------------------------------------------
// WorkerJournal: the durable queue over a real file
// ---------------------------------------------------------------------------

const char kHeader[] = "# v4 fabric-test data=0000000000000000";

std::vector<fabric::GridCell> OneCellGrid() {
  std::vector<fabric::GridCell> grid(1);
  grid[0] = {"ECTS", "PowerCons", fabric::kNoCell};
  return grid;
}

TEST(FabricJournal, ASecondOwnerCannotLeaseALiveCell) {
  const std::string path = TestPath("fabric_double_lease.csv");
  fabric::LeaseOptions options;
  options.ttl_ms = 60000.0;  // nothing expires during the test
  fabric::WorkerJournal w1(path, kHeader, OneCellGrid(), "w1", options);
  fabric::WorkerJournal w2(path, kHeader, OneCellGrid(), "w2", options);
  ASSERT_TRUE(w1.EnsureHeader().ok());
  ASSERT_TRUE(w2.EnsureHeader().ok());

  auto first = w1.Acquire();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->index, 0u);
  EXPECT_FALSE(first->stolen);

  // The cell is leased and live: w2 must be refused, with a bounded wait.
  auto second = w2.Acquire();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->index, fabric::kNoCell);
  EXPECT_FALSE(second->all_terminal);
  EXPECT_GT(second->retry_after_ms, 0.0);

  ASSERT_TRUE(w1.Renew(0).ok());
  ASSERT_TRUE(w1.Complete(0, Row("ECTS", "PowerCons")).ok());

  // Terminal row published: everyone observes completion.
  auto after = w2.Acquire();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->all_terminal);
  // Renewing a terminal cell is a protocol violation, not a silent success.
  EXPECT_FALSE(w2.Renew(0).ok());
}

TEST(FabricJournal, AnExpiredLeaseIsStolenAndTheLoserDetectsItOnRenew) {
  const std::string path = TestPath("fabric_steal.csv");
  fabric::LeaseOptions fast;
  fast.ttl_ms = 1.0;  // w1's lease expires almost immediately
  fast.heartbeat_ms = 0.25;
  fabric::WorkerJournal w1(path, kHeader, OneCellGrid(), "w1", fast);
  fabric::LeaseOptions slow;
  slow.ttl_ms = 60000.0;
  fabric::WorkerJournal w2(path, kHeader, OneCellGrid(), "w2", slow);
  ASSERT_TRUE(w1.EnsureHeader().ok());

  auto first = w1.Acquire();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->index, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const uint64_t stolen_before = CounterValue("fabric.leases_stolen");
  auto steal = w2.Acquire();
  ASSERT_TRUE(steal.ok()) << steal.status().ToString();
  EXPECT_EQ(steal->index, 0u);
  EXPECT_TRUE(steal->stolen);
  EXPECT_EQ(CounterValue("fabric.leases_stolen"), stolen_before + 1);

  // The original owner's next heartbeat must report the loss so it discards
  // its in-flight result instead of journalling a duplicate row.
  const Status renew = w1.Renew(0);
  ASSERT_FALSE(renew.ok());
  EXPECT_NE(renew.ToString().find("w2"), std::string::npos) << renew.ToString();

  // Quarantine broadcast rides the same journal.
  ASSERT_TRUE(w2.PublishQuarantine("ECTS").ok());
  auto scan = w2.Acquire();
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->quarantined_algorithms.count("ECTS"), 1u);
}

TEST(FabricJournal, HeartbeatsKeepASlowCellAliveUntilTheKeeperStops) {
  const std::string path = TestPath("fabric_heartbeat.csv");
  fabric::LeaseOptions options;
  options.ttl_ms = 500.0;
  options.heartbeat_ms = 50.0;
  fabric::WorkerJournal w1(path, kHeader, OneCellGrid(), "w1", options);
  fabric::WorkerJournal w2(path, kHeader, OneCellGrid(), "w2", options);
  ASSERT_TRUE(w1.EnsureHeader().ok());

  auto acquired = w1.Acquire();
  ASSERT_TRUE(acquired.ok());
  ASSERT_EQ(acquired->index, 0u);

  const uint64_t beats_before = CounterValue("fabric.heartbeats");
  {
    // Simulates a cell whose compute outlives the TTL: the keeper's renewals
    // are the only thing standing between w1 and a steal.
    fabric::LeaseKeeper keeper(&w1, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(700));
    auto blocked = w2.Acquire();
    ASSERT_TRUE(blocked.ok());
    EXPECT_EQ(blocked->index, fabric::kNoCell)
        << "lease was stolen despite live heartbeats";
    EXPECT_FALSE(keeper.lease_lost());
  }
  EXPECT_GE(CounterValue("fabric.heartbeats"), beats_before + 2);

  // Keeper gone (worker died): the lease now ages out and the cell is stolen.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  auto steal = w2.Acquire();
  ASSERT_TRUE(steal.ok());
  EXPECT_EQ(steal->index, 0u);
  EXPECT_TRUE(steal->stolen);
}

TEST(FabricJournal, RejectsAJournalWrittenByANewerBuild) {
  const std::string path = TestPath("fabric_newer.csv");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# v99 from-the-future data=0000000000000000\n";
  }
  fabric::WorkerJournal journal(path, kHeader, OneCellGrid(), "w1",
                                fabric::LeaseOptions());
  const Status status = journal.EnsureHeader();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("newer"), std::string::npos)
      << status.ToString();
  // Unlike a config mismatch, the journal must NOT be rotated aside: the
  // operator asked for an explicit decision, not silent data loss.
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("# v99", 0), 0u);
}

// ---------------------------------------------------------------------------
// Campaign-level fabric: worker runs vs the serial campaign
// ---------------------------------------------------------------------------

bench::CampaignConfig FabricConfig(const std::string& cache_name) {
  bench::CampaignConfig config;
  config.algorithms = {"ECTS"};
  config.datasets = {"DodgerLoopGame", "PowerCons"};
  config.folds = 2;
  config.height_scale = 1.0;
  config.train_budget_seconds = 30.0;
  config.cache_path = TestPath(cache_name);
  std::remove((config.cache_path + ".report.json").c_str());
  std::remove((config.cache_path + ".merged.csv").c_str());
  return config;
}

/// Journal rows with the two timing fields blanked and control rows dropped:
/// what must be identical between a fabric run and the serial campaign.
std::vector<std::string> RowsModuloTimings(const std::string& path) {
  std::vector<std::string> rows;
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '@') continue;
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

TEST(FabricCampaign, OneWorkerCompletesTheGridIdenticallyToTheSerialRun) {
  auto serial_config = FabricConfig("fabric_serial_ref.csv");
  bench::Campaign serial(serial_config);
  ASSERT_TRUE(serial.Run().ok());
  ASSERT_EQ(serial.cells().size(), 2u);

  auto worker_config = FabricConfig("fabric_one_worker.csv");
  bench::Campaign worker(worker_config);
  const Status status = worker.RunWorker("w1");
  ASSERT_TRUE(status.ok()) << status.ToString();

  // Scores (not timings) must match the serial journal bit-for-bit.
  EXPECT_EQ(RowsModuloTimings(worker_config.cache_path),
            RowsModuloTimings(serial_config.cache_path));

  // The continuous merge sees a complete grid and strips the control rows.
  const auto header = bench::JournalHeaderForConfig(worker_config);
  ASSERT_TRUE(header.ok());
  const std::string merged_path = worker_config.cache_path + ".merged.csv";
  const auto merged = bench::MergeShardJournals(
      merged_path, {worker_config.cache_path}, worker_config, *header);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->complete);
  EXPECT_EQ(merged->grid_cells, 2u);
  EXPECT_EQ(merged->terminal_cells, 2u);
  EXPECT_GT(merged->control_rows, 0u);  // the fabric journal had lease rows
  std::ifstream in(merged_path);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_NE(line.substr(0, 1), "@") << "control row leaked into the merge";
  }
}

TEST(FabricCampaign, AKilledWorkersLeaseIsStolenAndTheMergeMatchesSerial) {
  ScopedEnv ttl("ETSC_LEASE_TTL_MS", "200");
  ScopedEnv hb("ETSC_HEARTBEAT_MS", "50");

  auto serial_config = FabricConfig("fabric_drill_ref.csv");
  bench::Campaign serial(serial_config);
  ASSERT_TRUE(serial.Run().ok());

  auto config = FabricConfig("fabric_drill.csv");
  const uint64_t stolen_before = CounterValue("fabric.leases_stolen");
  {
    // w1 computes its first cell, then "dies" holding the lease on the
    // second — the observable journal state of a SIGKILL mid-cell.
    bench::Campaign w1(config);
    std::atomic<int> cells{0};
    bench::WorkerDrillHooks drill;
    drill.on_cell = [&cells](const std::string&, const std::string&) {
      return cells.fetch_add(1) < 1;
    };
    const Status status = w1.RunWorker("w1", &drill);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  {
    // w2 joins the same journal, waits out the orphaned lease, steals it,
    // and finishes the grid.
    bench::Campaign w2(config);
    const Status status = w2.RunWorker("w2");
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  EXPECT_GE(CounterValue("fabric.leases_stolen"), stolen_before + 1);

  const auto header = bench::JournalHeaderForConfig(config);
  ASSERT_TRUE(header.ok());
  const std::string merged_path = config.cache_path + ".merged.csv";
  const auto merged = bench::MergeShardJournals(merged_path,
                                                {config.cache_path}, config,
                                                *header);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->complete);
  // Zero lost cells, and every surviving row identical to the serial run.
  EXPECT_EQ(RowsModuloTimings(merged_path),
            RowsModuloTimings(serial_config.cache_path));
}

TEST(FabricCampaign, MergeRefusesJournalsFromAnotherCampaignIdentity) {
  auto config = FabricConfig("fabric_merge_mismatch.csv");
  {
    std::ofstream out(config.cache_path, std::ios::trunc);
    out << "# v4 some-other-campaign data=1111111111111111\n";
    out << Row("ECTS", "PowerCons") << "\n";
  }
  const auto header = bench::JournalHeaderForConfig(config);
  ASSERT_TRUE(header.ok());
  const auto merged = bench::MergeShardJournals(
      config.cache_path + ".merged.csv", {config.cache_path}, config, *header);
  ASSERT_FALSE(merged.ok());
  // The diagnostic names BOTH fingerprints so the operator can see exactly
  // what disagrees.
  EXPECT_NE(merged.status().ToString().find("some-other-campaign"),
            std::string::npos)
      << merged.status().ToString();
  EXPECT_NE(merged.status().ToString().find(*header), std::string::npos)
      << merged.status().ToString();
}

TEST(FabricCampaign, CampaignRejectsAJournalFromANewerBuild) {
  auto config = FabricConfig("fabric_newer_campaign.csv");
  {
    std::ofstream out(config.cache_path, std::ios::trunc);
    out << "# v99 from-the-future data=0000000000000000\n";
  }
  bench::Campaign campaign(config);
  const Status status = campaign.Run();
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("newer"), std::string::npos)
      << status.ToString();
}

// ---------------------------------------------------------------------------
// die-at fault: the scripted SIGKILL for crash drills
// ---------------------------------------------------------------------------

class StubClassifier : public EarlyClassifier {
 public:
  Status Fit(const Dataset&) override { return Status::OK(); }
  Result<EarlyPrediction> PredictEarly(const TimeSeries& series) const override {
    EarlyPrediction prediction;
    prediction.prefix_length = series.length();
    return prediction;
  }
  std::string name() const override { return "stub"; }
  bool SupportsMultivariate() const override { return true; }
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override {
    return std::make_unique<StubClassifier>();
  }
};

TEST(DieAtDrill, ExitsTheProcessAbruptlyOnTheConfiguredCell) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        Dataset train;
        // First wrap = first campaign cell of "stub": survives die-at:2,
        // and its fold clones share the ordinal (one cell, many Fits).
        DieAtClassifier first(std::make_unique<StubClassifier>(), 2);
        if (!first.Fit(train).ok()) std::_Exit(1);
        auto clone = first.CloneUntrained();
        if (!clone->Fit(train).ok()) std::_Exit(1);
        // Second wrap = second cell: dies mid-Fit, no flushes, no atexit.
        DieAtClassifier second(std::make_unique<StubClassifier>(), 2);
        (void)second.Fit(train);
        std::_Exit(1);  // unreachable when the fault fires
      },
      ::testing::ExitedWithCode(kDieAtExitCode), "die-at fault");
}

}  // namespace
}  // namespace etsc
