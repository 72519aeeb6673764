#ifndef ETSC_CORE_FABRIC_H_
#define ETSC_CORE_FABRIC_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/status.h"

namespace etsc::fabric {

/// Multi-worker campaign fabric: the crash-safe campaign journal doubles as a
/// durable lease-based work queue shared by N worker processes.
///
/// Protocol. The journal stays an append-only record log (core/record_log.h)
/// whose header is the campaign's and whose rows are cell results
/// (bench/bench_common.h). Workers additionally append CONTROL rows — rows
/// starting with '@', sealed like every other row, which result readers skip:
///
///   @lease,<algorithm>,<dataset>,<owner>,<expiry_ms>
///   @quarantine,<algorithm>,<owner>
///
/// A worker claims a cell by appending a lease row under an exclusive file
/// lock (flock on `<journal>.lock`), renews it by appending a fresh lease row
/// before the previous expiry (the LAST lease row per cell wins, matching the
/// journal's keep-last dedup discipline), and marks it done by appending the
/// ordinary cell row. Expiry times come from CLOCK_MONOTONIC (machine-wide on
/// Linux), so leases from killed workers expire on every surviving worker's
/// clock and are stolen deterministically: among stealable cells the LOWEST
/// grid index wins.
///
/// Determinism. Each cell carries a `prerequisite` — the previous cell of the
/// same algorithm in dataset-major order — and only becomes acquirable once
/// its prerequisite is terminal. That serialises every algorithm's lane
/// across workers exactly like the single-process campaign's lanes, so the
/// circuit-breaker replay over journalled outcomes (bench RunWorker) reaches
/// the same quarantine decisions bit-for-bit. A `@quarantine` row published
/// by the worker that trips the breaker stops the other workers immediately.
///
/// Crash safety. All appends inherit the record-log discipline: a torn
/// control row is ignored by every reader; a worker killed mid-cell leaves only a
/// lease row whose expiry passes, after which the cell is stolen and re-run —
/// no cell is ever lost and no cell row is ever overwritten.

/// "No cell" marker for grid indices.
inline constexpr size_t kNoCell = static_cast<size_t>(-1);

/// Milliseconds on the machine-wide monotonic clock; comparable across
/// processes on the same host, immune to wall-clock steps.
uint64_t MonotonicMs();

/// Lease timing knobs. FromEnv reads ETSC_LEASE_TTL_MS and ETSC_HEARTBEAT_MS
/// (invalid or non-positive values warn and keep the default; a heartbeat
/// that is not strictly shorter than the TTL is clamped to ttl_ms / 4).
struct LeaseOptions {
  /// A lease not renewed for this long is stealable.
  double ttl_ms = 5000.0;
  /// Renewal cadence of the LeaseKeeper background thread.
  double heartbeat_ms = 1000.0;

  static LeaseOptions FromEnv();
};

/// One campaign grid cell in dataset-major order, plus the lane link.
struct GridCell {
  std::string algorithm;
  std::string dataset;
  /// Index of the previous cell of the same algorithm (dataset-major), or
  /// kNoCell for the first. A cell is only acquirable once its prerequisite
  /// is terminal — the cross-process equivalent of the per-algorithm lanes.
  size_t prerequisite = kNoCell;
};

/// Parsed `@lease` control row.
struct LeaseRow {
  std::string algorithm;
  std::string dataset;
  std::string owner;
  uint64_t expiry_ms = 0;
};

/// Parsed `@quarantine` control row.
struct QuarantineRow {
  std::string algorithm;
  std::string owner;
};

/// Serialises a lease row as a sealed journal line (no trailing newline).
std::string FormatLeaseRow(const LeaseRow& row);

/// Serialises a quarantine row as a sealed journal line (no newline).
std::string FormatQuarantineRow(const QuarantineRow& row);

/// Control-row classification; kNone covers non-control lines, torn rows and
/// malformed control rows (all of which scanners must skip, not half-parse).
enum class ControlRowKind { kNone, kLease, kQuarantine };

struct ControlRow {
  ControlRowKind kind = ControlRowKind::kNone;
  LeaseRow lease;
  QuarantineRow quarantine;
};

/// Parses one journal line as a control row; kind == kNone when it is not a
/// well-formed, sealed control row.
ControlRow ParseControlRow(std::string_view line);

/// RAII exclusive advisory lock (flock) on `path`, creating the file if
/// needed. Serialises journal read-scan-claim-append cycles across worker
/// processes and across threads (each FileLock opens its own descriptor).
class FileLock {
 public:
  explicit FileLock(const std::string& path);
  ~FileLock();

  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;

  /// False when the lock file could not be opened or locked.
  bool ok() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

/// Per-cell view assembled by replaying journal lines in file order.
struct CellStatus {
  /// A result row for the cell exists — computed, failed, or quarantined.
  bool terminal = false;
  /// The terminal row's trained flag (breaker replay evidence).
  bool trained = false;
  /// The terminal row is a breaker skip (not evidence for the replay).
  bool quarantined_row = false;
  /// Latest lease, when any: empty owner = never leased.
  std::string lease_owner;
  uint64_t lease_expiry_ms = 0;
};

/// Pure replay of journal lines into per-cell statuses + the set of
/// algorithms with a published `@quarantine` row. No I/O, no clock: callers
/// feed lines and ask questions against an explicit `now`, which is what
/// makes steal determinism directly testable.
class LeaseTable {
 public:
  explicit LeaseTable(const std::vector<GridCell>& grid);

  /// Applies one journal line (cell row, control row, or junk — junk and
  /// torn rows are ignored). Later lines win, matching keep-last dedup.
  void ApplyLine(std::string_view line);
  /// ApplyLine for a row a record_log::Reader already unsealed.
  void ApplyRow(std::string_view row);

  /// Lowest-index cell that is not terminal, whose prerequisite (if any) is
  /// terminal, and that is unleased or holds a lease expired at `now_ms`.
  /// Sets *stolen when the returned cell's lease was expired (a steal).
  /// Returns kNoCell when nothing is currently acquirable.
  size_t NextAvailable(uint64_t now_ms, bool* stolen) const;

  /// Milliseconds until the soonest live-lease expiry after `now_ms`; 0 when
  /// no live lease exists (then NextAvailable can only be blocked by
  /// terminal-row publication, which another worker performs imminently).
  uint64_t MsUntilNextExpiry(uint64_t now_ms) const;

  bool AllTerminal() const;

  const std::vector<CellStatus>& statuses() const { return statuses_; }
  const std::set<std::string>& quarantined_algorithms() const {
    return quarantined_algorithms_;
  }

 private:
  const std::vector<GridCell>& grid_;
  std::vector<CellStatus> statuses_;
  std::set<std::string> quarantined_algorithms_;
};

/// The durable work queue over one campaign journal, as seen by one worker.
/// Every operation is one atomic read-scan-append cycle under the file lock;
/// the object itself holds no journal state between calls, so any number of
/// workers (in any mix of threads and processes) can share the file.
class WorkerJournal {
 public:
  /// `expected_header` is the full campaign header line ("# <fingerprint>
  /// data=<hex>"); `grid` is the dataset-major cell grid with lane
  /// prerequisites; `owner` names this worker in lease rows.
  WorkerJournal(std::string path, std::string expected_header,
                std::vector<GridCell> grid, std::string owner,
                LeaseOptions options);

  /// Creates the journal with the expected header if missing; accepts a
  /// matching header; rejects a NEWER-versioned header with an actionable
  /// error; rotates any other mismatched journal to `<path>.stale` exactly
  /// like the single-process campaign (IOError when that rename fails).
  Status EnsureHeader();

  /// Outcome of one Acquire scan.
  struct Acquired {
    /// Leased cell, or kNoCell when nothing was acquirable.
    size_t index = kNoCell;
    /// The lease replaced an expired one from another owner.
    bool stolen = false;
    /// Every grid cell has a terminal row: the campaign is complete.
    bool all_terminal = false;
    /// Suggested wait before the next Acquire when index == kNoCell.
    double retry_after_ms = 0.0;
    /// Snapshot of the journal at claim time (breaker replay input).
    std::vector<CellStatus> statuses;
    std::set<std::string> quarantined_algorithms;
  };

  /// Scans the journal and claims the lowest acquirable cell by appending a
  /// lease row, all under the file lock.
  Result<Acquired> Acquire();

  /// Extends this owner's lease on `index`. kFailedPrecondition when the
  /// lease now belongs to another owner (the cell was stolen — the caller's
  /// result must be discarded) or the cell is already terminal.
  Status Renew(size_t index);

  /// Publishes a `@quarantine` row for `algorithm` (once; repeat calls while
  /// a row already exists are no-ops).
  Status PublishQuarantine(const std::string& algorithm);

  /// Appends the terminal cell row (a sealed bench FormatJournalRow line) for
  /// `index`. The row is flushed before the lock is released.
  Status Complete(size_t index, const std::string& cell_row);

  const std::vector<GridCell>& grid() const { return grid_; }
  const LeaseOptions& options() const { return options_; }
  const std::string& owner() const { return owner_; }
  const std::string& path() const { return path_; }

 private:
  /// Reads the journal into a LeaseTable; caller holds the file lock.
  Result<LeaseTable> ScanLocked() const;
  /// Appends one sealed row (record_log::AppendOnce). Caller holds the lock.
  Status AppendLocked(const std::string& row) const;

  const std::string path_;
  const std::string lock_path_;
  const std::string expected_header_;
  const std::string owner_;
  const std::vector<GridCell> grid_;
  const LeaseOptions options_;
};

/// Background heartbeat: renews the lease on one cell every heartbeat_ms
/// while the owning worker computes it (the fabric's analogue of the
/// supervisor's watchdog thread — same lazily-joined cadence loop, opposite
/// purpose: it proves liveness instead of policing it). Stops renewing and
/// raises lease_lost() if the cell was stolen; the worker must then discard
/// its result — the thief's re-run is the row of record.
class LeaseKeeper {
 public:
  LeaseKeeper(WorkerJournal* journal, size_t cell_index);
  ~LeaseKeeper();

  LeaseKeeper(const LeaseKeeper&) = delete;
  LeaseKeeper& operator=(const LeaseKeeper&) = delete;

  bool lease_lost() const { return lost_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  WorkerJournal* const journal_;
  const size_t cell_index_;
  std::atomic<bool> lost_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace etsc::fabric

#endif  // ETSC_CORE_FABRIC_H_
