#ifndef ETSC_CORE_PARALLEL_H_
#define ETSC_CORE_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <memory>

#include "core/deadline.h"
#include "core/status.h"

namespace etsc {

/// Shared concurrency substrate: one lazily-started global thread pool that
/// every parallel loop in the framework (campaign lanes, CV folds, STRUT's
/// grid of candidate truncation lengths, dispatched longest-first, MiniROCKET
/// kernel application, EDSC candidate scoring, k-means assignment) draws from,
/// so the process never oversubscribes the machine no matter how the loops
/// nest.
///
/// Width. The pool's parallelism (worker threads + the calling thread) comes
/// from the ETSC_THREADS environment variable at first use, defaulting to
/// std::thread::hardware_concurrency(). Width 1 is an exact serial fallback:
/// no pool is started, every loop below runs inline in the caller, and the
/// results are bit-identical to the parallel runs by construction (see the
/// determinism contract in DESIGN.md section 8).
///
/// Nesting. All loops are caller-participating: the calling thread consumes
/// iterations itself and pool workers only help, so a ParallelFor issued from
/// inside a pool task can never deadlock — in the worst case the caller simply
/// runs every iteration. Helper tasks that were queued but never started are
/// cancelled when the loop drains, so an inner loop never waits behind
/// unrelated long-running outer tasks.
///
/// Determinism. Iteration i writes only to slot i of its output; random draws
/// are made (or per-task seeds split off) *before* dispatch. Error selection
/// is deterministic too: the failure of the lowest-numbered iteration wins,
/// regardless of completion order.

/// Current loop parallelism (worker threads + caller), >= 1. Reads
/// ETSC_THREADS on first call.
size_t MaxParallelism();

/// Overrides the parallelism, resizing the global pool (0 restores the
/// ETSC_THREADS / hardware default). Must not be called while parallel loops
/// are in flight; intended for tests and benchmarks that compare serial vs.
/// parallel execution in one process.
void SetMaxParallelism(size_t width);

/// Runs body(0..n-1) on the pool, blocking until every iteration finished.
/// The first exception (lowest iteration index) is rethrown in the caller.
/// `grain` batches consecutive iterations into one task to amortise dispatch
/// for cheap bodies.
void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                 size_t grain = 1);

/// ParallelFor over Status-returning bodies: returns the first (lowest-index)
/// non-OK Status, skipping iterations that have not started once a failure is
/// observed. When `deadline` is non-null and expires, remaining iterations
/// are skipped and ResourceExhausted(what) is returned — the cooperative
/// cancellation path for budgeted fits that parallelise internally. Each task
/// polls a private copy of the deadline, so the amortised check state is
/// never shared across threads.
Status ParallelForStatus(size_t n, const std::function<Status(size_t)>& body,
                         size_t grain = 1, const Deadline* deadline = nullptr,
                         const std::string& what = "parallel loop cancelled");

/// A group of heterogeneous tasks sharing the pool. Run() dispatches (inline
/// at width 1), Wait() blocks for all of them and returns the first non-OK
/// Status in submission order; exceptions are rethrown from Wait(). The
/// destructor waits for (and discards the status of) any tasks still in
/// flight, so a group can never outlive its captures.
class TaskGroup {
 public:
  TaskGroup();
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Dispatches fn; when `deadline` (optional) is already expired at dispatch
  /// or at task start, the task is skipped and its slot reports
  /// ResourceExhausted instead of running.
  void Run(std::function<Status()> fn, const Deadline* deadline = nullptr);

  Status Wait();

 private:
  struct State;
  std::shared_ptr<State> state_;
};

}  // namespace etsc

#endif  // ETSC_CORE_PARALLEL_H_
