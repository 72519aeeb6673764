#include "core/fabric.h"

#include <fcntl.h>
#include <sys/file.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "core/counters.h"
#include "core/env.h"
#include "core/log.h"
#include "core/record_log.h"

namespace etsc::fabric {

namespace {

constexpr char kLeaseTag[] = "@lease";
constexpr char kQuarantineTag[] = "@quarantine";

// Fabric metrics (DESIGN.md sec 12): lease traffic and contention.
Counter& LeasesAcquired() {
  static Counter& c = MetricRegistry::Global().counter("fabric.leases_acquired");
  return c;
}
Counter& LeasesStolen() {
  static Counter& c = MetricRegistry::Global().counter("fabric.leases_stolen");
  return c;
}
Counter& Heartbeats() {
  static Counter& c = MetricRegistry::Global().counter("fabric.heartbeats");
  return c;
}
Counter& HeartbeatsMissed() {
  static Counter& c =
      MetricRegistry::Global().counter("fabric.heartbeats_missed");
  return c;
}
Counter& LeaseWaits() {
  static Counter& c = MetricRegistry::Global().counter("fabric.lease_waits");
  return c;
}
Counter& QuarantinesPublished() {
  static Counter& c =
      MetricRegistry::Global().counter("fabric.quarantines_published");
  return c;
}

/// Parses the fields of one control row (its first field starts with '@');
/// kind stays kNone for a malformed one.
ControlRow ParseControlFields(const std::vector<std::string_view>& fields) {
  ControlRow out;
  if (fields.size() == 5 && fields[0] == kLeaseTag) {
    if (!record_log::ParseU64(fields[4], &out.lease.expiry_ms)) return out;
    out.kind = ControlRowKind::kLease;
    out.lease.algorithm = fields[1];
    out.lease.dataset = fields[2];
    out.lease.owner = fields[3];
  } else if (fields.size() == 3 && fields[0] == kQuarantineTag) {
    out.kind = ControlRowKind::kQuarantine;
    out.quarantine.algorithm = fields[1];
    out.quarantine.owner = fields[2];
  }
  return out;
}

}  // namespace

uint64_t MonotonicMs() {
  // CLOCK_MONOTONIC directly (not steady_clock, whose epoch is unspecified by
  // the standard): on Linux it is machine-wide, so expiry instants written by
  // one worker process are meaningful to every other worker on the host.
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000u +
         static_cast<uint64_t>(ts.tv_nsec) / 1000000u;
}

LeaseOptions LeaseOptions::FromEnv() {
  LeaseOptions options;
  options.ttl_ms =
      env::NumberOr("fabric", "ETSC_LEASE_TTL_MS", options.ttl_ms, 1e-3, 1e12);
  options.heartbeat_ms = env::NumberOr("fabric", "ETSC_HEARTBEAT_MS",
                                       options.heartbeat_ms, 1e-3, 1e12);
  if (options.heartbeat_ms >= options.ttl_ms) {
    const double clamped = options.ttl_ms / 4.0;
    Logf(LogLevel::kWarn, "fabric",
         "heartbeat (%g ms) must be shorter than the lease TTL (%g ms); "
         "clamping the heartbeat to %g ms",
         options.heartbeat_ms, options.ttl_ms, clamped);
    options.heartbeat_ms = clamped;
  }
  return options;
}

std::string FormatLeaseRow(const LeaseRow& row) {
  return record_log::Seal(std::string(kLeaseTag) + ',' + row.algorithm + ',' +
                          row.dataset + ',' + row.owner + ',' +
                          std::to_string(row.expiry_ms));
}

std::string FormatQuarantineRow(const QuarantineRow& row) {
  return record_log::Seal(std::string(kQuarantineTag) + ',' + row.algorithm +
                          ',' + row.owner);
}

ControlRow ParseControlRow(std::string_view line) {
  const auto row = record_log::Unseal(line);
  if (!row || row->empty() || row->front() != '@') return ControlRow();
  return ParseControlFields(record_log::SplitFields(*row));
}

FileLock::FileLock(const std::string& path) {
  fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd_ < 0) return;
  // Blocking exclusive lock: claim cycles are short (scan + one append), so
  // waiting is cheaper and simpler than a try-loop.
  if (::flock(fd_, LOCK_EX) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FileLock::~FileLock() {
  if (fd_ >= 0) {
    ::flock(fd_, LOCK_UN);
    ::close(fd_);
  }
}

LeaseTable::LeaseTable(const std::vector<GridCell>& grid)
    : grid_(grid), statuses_(grid.size()) {}

void LeaseTable::ApplyLine(std::string_view line) {
  // Unsealed lines (the header, torn rows) carry nothing.
  if (const auto row = record_log::Unseal(line)) ApplyRow(*row);
}

void LeaseTable::ApplyRow(std::string_view row) {
  const std::vector<std::string_view> fields = record_log::SplitFields(row);
  if (!fields[0].empty() && fields[0][0] == '@') {
    const ControlRow control = ParseControlFields(fields);
    if (control.kind == ControlRowKind::kQuarantine) {
      quarantined_algorithms_.insert(control.quarantine.algorithm);
      return;
    }
    if (control.kind != ControlRowKind::kLease) return;
    for (size_t i = 0; i < grid_.size(); ++i) {
      if (grid_[i].algorithm == control.lease.algorithm &&
          grid_[i].dataset == control.lease.dataset) {
        statuses_[i].lease_owner = control.lease.owner;
        statuses_[i].lease_expiry_ms = control.lease.expiry_ms;
        return;
      }
    }
    return;
  }
  // algorithm,dataset,trained,acc,f1,earl,hm,train_s,test_s,retries,
  // quarantined,failure — the bench journal row layout.
  if (fields.size() < 11) return;
  for (size_t i = 0; i < grid_.size(); ++i) {
    if (grid_[i].algorithm == fields[0] && grid_[i].dataset == fields[1]) {
      statuses_[i].terminal = true;
      statuses_[i].trained = fields[2] == "1";
      statuses_[i].quarantined_row = fields[10] == "1";
      return;
    }
  }
}

size_t LeaseTable::NextAvailable(uint64_t now_ms, bool* stolen) const {
  *stolen = false;
  for (size_t i = 0; i < grid_.size(); ++i) {
    const CellStatus& status = statuses_[i];
    if (status.terminal) continue;
    const size_t prerequisite = grid_[i].prerequisite;
    if (prerequisite != kNoCell && !statuses_[prerequisite].terminal) continue;
    if (status.lease_owner.empty()) {
      *stolen = false;
      return i;
    }
    if (status.lease_expiry_ms <= now_ms) {
      // Expired lease: the owner died or stalled past its TTL. Lowest index
      // wins — every worker scanning this journal picks the same victim.
      *stolen = true;
      return i;
    }
  }
  *stolen = false;
  return kNoCell;
}

uint64_t LeaseTable::MsUntilNextExpiry(uint64_t now_ms) const {
  uint64_t soonest = 0;
  for (size_t i = 0; i < grid_.size(); ++i) {
    const CellStatus& status = statuses_[i];
    if (status.terminal || status.lease_owner.empty()) continue;
    if (status.lease_expiry_ms <= now_ms) continue;
    const uint64_t wait = status.lease_expiry_ms - now_ms;
    if (soonest == 0 || wait < soonest) soonest = wait;
  }
  return soonest;
}

bool LeaseTable::AllTerminal() const {
  for (const CellStatus& status : statuses_) {
    if (!status.terminal) return false;
  }
  return !statuses_.empty();
}

WorkerJournal::WorkerJournal(std::string path, std::string expected_header,
                             std::vector<GridCell> grid, std::string owner,
                             LeaseOptions options)
    : path_(std::move(path)),
      lock_path_(path_ + ".lock"),
      expected_header_(std::move(expected_header)),
      owner_(std::move(owner)),
      grid_(std::move(grid)),
      options_(options) {}

Status WorkerJournal::AppendLocked(const std::string& row) const {
  // Reopened per append: another worker may have died mid-row since.
  return record_log::AppendOnce(path_, expected_header_, row);
}

Status WorkerJournal::EnsureHeader() {
  FileLock lock(lock_path_);
  if (!lock.ok()) {
    return Status::IOError("fabric: cannot lock " + lock_path_);
  }
  const record_log::Reader log(path_);
  ETSC_ASSIGN_OR_RETURN(const record_log::HeaderMatch match,
                        log.CheckHeader(expected_header_));
  if (match == record_log::HeaderMatch::kMatch) return Status::OK();
  if (match == record_log::HeaderMatch::kForeign) {
    // Same discipline as the single-process campaign: a journal from another
    // config is rotated aside, never appended to.
    ETSC_ASSIGN_OR_RETURN(const std::string stale,
                          record_log::RotateToStale(path_));
    Logf(LogLevel::kWarn, "fabric",
         "journal %s has a different fingerprint; rotated to %s",
         path_.c_str(), stale.c_str());
  }
  record_log::Appender create;
  return create.Open(path_, expected_header_);
}

Result<LeaseTable> WorkerJournal::ScanLocked() const {
  record_log::Reader log(path_);
  if (!log.exists()) {
    return Status::IOError("fabric: cannot read journal " + path_ +
                           " (EnsureHeader not run?)");
  }
  if (log.header() != expected_header_) {
    return Status::FailedPrecondition(
        "fabric: journal " + path_ + " header changed underneath this worker:"
        "\n  journal:  " + log.header() + "\n  expected: " + expected_header_);
  }
  LeaseTable table(grid_);
  std::string_view row;
  while (log.Next(&row)) table.ApplyRow(row);
  return table;
}

Result<WorkerJournal::Acquired> WorkerJournal::Acquire() {
  FileLock lock(lock_path_);
  if (!lock.ok()) {
    return Status::IOError("fabric: cannot lock " + lock_path_);
  }
  ETSC_ASSIGN_OR_RETURN(const LeaseTable table, ScanLocked());
  Acquired acquired;
  acquired.statuses = table.statuses();
  acquired.quarantined_algorithms = table.quarantined_algorithms();
  if (table.AllTerminal()) {
    acquired.all_terminal = true;
    return acquired;
  }
  const uint64_t now_ms = MonotonicMs();
  bool stolen = false;
  const size_t index = table.NextAvailable(now_ms, &stolen);
  if (index == kNoCell) {
    const uint64_t until_expiry = table.MsUntilNextExpiry(now_ms);
    acquired.retry_after_ms =
        until_expiry > 0
            ? std::min<double>(static_cast<double>(until_expiry) + 1.0,
                               options_.ttl_ms)
            : options_.heartbeat_ms;
    if (MetricsEnabled()) LeaseWaits().Add(1);
    return acquired;
  }
  const GridCell& cell = grid_[index];
  if (stolen) {
    if (MetricsEnabled()) LeasesStolen().Add(1);
    Logf(LogLevel::kWarn, "fabric",
         "%s: stealing expired lease on %s/%s (cell %zu) from %s",
         owner_.c_str(), cell.algorithm.c_str(), cell.dataset.c_str(), index,
         acquired.statuses[index].lease_owner.c_str());
  } else {
    Logf(LogLevel::kInfo, "fabric", "%s: leased %s/%s (cell %zu)",
         owner_.c_str(), cell.algorithm.c_str(), cell.dataset.c_str(), index);
  }
  LeaseRow row;
  row.algorithm = cell.algorithm;
  row.dataset = cell.dataset;
  row.owner = owner_;
  row.expiry_ms = now_ms + static_cast<uint64_t>(options_.ttl_ms);
  ETSC_RETURN_NOT_OK(AppendLocked(FormatLeaseRow(row)));
  if (MetricsEnabled()) LeasesAcquired().Add(1);
  acquired.index = index;
  acquired.stolen = stolen;
  acquired.statuses[index].lease_owner = owner_;
  acquired.statuses[index].lease_expiry_ms = row.expiry_ms;
  return acquired;
}

Status WorkerJournal::Renew(size_t index) {
  ETSC_CHECK(index < grid_.size());
  FileLock lock(lock_path_);
  if (!lock.ok()) {
    return Status::IOError("fabric: cannot lock " + lock_path_);
  }
  ETSC_ASSIGN_OR_RETURN(const LeaseTable table, ScanLocked());
  const CellStatus& status = table.statuses()[index];
  const GridCell& cell = grid_[index];
  if (status.terminal) {
    return Status::FailedPrecondition(
        "fabric: " + cell.algorithm + "/" + cell.dataset +
        " is already terminal; nothing to renew");
  }
  if (status.lease_owner != owner_) {
    return Status::FailedPrecondition(
        "fabric: lease on " + cell.algorithm + "/" + cell.dataset +
        " now belongs to " + status.lease_owner + "; " + owner_ +
        " must discard its result");
  }
  const uint64_t now_ms = MonotonicMs();
  if (status.lease_expiry_ms <= now_ms) {
    // Late heartbeat: the lease had already expired but nobody stole it yet.
    // Renewing is still correct (we remain the owner of record); count it so
    // operators can tell the TTL is too tight for this machine.
    if (MetricsEnabled()) HeartbeatsMissed().Add(1);
    Logf(LogLevel::kWarn, "fabric",
         "%s: heartbeat on %s/%s arrived %llu ms after lease expiry "
         "(raise ETSC_LEASE_TTL_MS or lower ETSC_HEARTBEAT_MS)",
         owner_.c_str(), cell.algorithm.c_str(), cell.dataset.c_str(),
         static_cast<unsigned long long>(now_ms - status.lease_expiry_ms));
  }
  LeaseRow row;
  row.algorithm = cell.algorithm;
  row.dataset = cell.dataset;
  row.owner = owner_;
  row.expiry_ms = now_ms + static_cast<uint64_t>(options_.ttl_ms);
  ETSC_RETURN_NOT_OK(AppendLocked(FormatLeaseRow(row)));
  if (MetricsEnabled()) Heartbeats().Add(1);
  return Status::OK();
}

Status WorkerJournal::PublishQuarantine(const std::string& algorithm) {
  FileLock lock(lock_path_);
  if (!lock.ok()) {
    return Status::IOError("fabric: cannot lock " + lock_path_);
  }
  ETSC_ASSIGN_OR_RETURN(const LeaseTable table, ScanLocked());
  if (table.quarantined_algorithms().count(algorithm) > 0) {
    return Status::OK();  // another worker already published it
  }
  QuarantineRow row;
  row.algorithm = algorithm;
  row.owner = owner_;
  ETSC_RETURN_NOT_OK(AppendLocked(FormatQuarantineRow(row)));
  if (MetricsEnabled()) QuarantinesPublished().Add(1);
  Logf(LogLevel::kWarn, "fabric",
       "%s: published quarantine for %s — other workers will skip its "
       "remaining cells",
       owner_.c_str(), algorithm.c_str());
  return Status::OK();
}

Status WorkerJournal::Complete(size_t index, const std::string& cell_row) {
  ETSC_CHECK(index < grid_.size());
  FileLock lock(lock_path_);
  if (!lock.ok()) {
    return Status::IOError("fabric: cannot lock " + lock_path_);
  }
  return AppendLocked(cell_row);
}

LeaseKeeper::LeaseKeeper(WorkerJournal* journal, size_t cell_index)
    : journal_(journal), cell_index_(cell_index) {
  thread_ = std::thread([this] { Loop(); });
}

LeaseKeeper::~LeaseKeeper() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void LeaseKeeper::Loop() {
  const auto cadence = std::chrono::duration<double, std::milli>(
      journal_->options().heartbeat_ms);
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, cadence, [this] { return stop_; })) break;
    lock.unlock();
    const Status status = journal_->Renew(cell_index_);
    if (status.code() == StatusCode::kFailedPrecondition) {
      // Stolen (or already terminal via a thief): stop renewing and tell the
      // worker its in-flight result is no longer the row of record.
      lost_.store(true, std::memory_order_relaxed);
      Logf(LogLevel::kWarn, "fabric", "heartbeat stopped: %s",
           status.message().c_str());
      return;
    }
    if (!status.ok()) {
      // Transient I/O trouble: keep trying — the lease survives until TTL.
      Logf(LogLevel::kWarn, "fabric", "heartbeat failed: %s",
           status.ToString().c_str());
    }
    lock.lock();
  }
}

}  // namespace etsc::fabric
