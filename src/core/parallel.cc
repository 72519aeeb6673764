#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/counters.h"
#include "core/env.h"
#include "core/trace.h"

namespace etsc {

namespace {

/// Set inside pool workers; lets TaskGroup::Run fall back to inline execution
/// so nested groups can never starve each other of workers.
thread_local bool tls_pool_worker = false;

// Pool metrics: queue depth (with high-water mark), queued->start latency and
// executed-task count. All behind the inlined MetricsEnabled() guard.
Gauge& QueueDepth() {
  static Gauge& g = MetricRegistry::Global().gauge("pool.queue_depth");
  return g;
}
Histogram& TaskLatency() {
  static Histogram& h =
      MetricRegistry::Global().histogram("pool.task_latency_seconds");
  return h;
}
Counter& TasksExecuted() {
  static Counter& c = MetricRegistry::Global().counter("pool.tasks_executed");
  return c;
}

size_t EnvThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  // Validated: "8x", "eight" or an overflowing value silently selecting the
  // hardware default would hide a mistyped campaign configuration.
  return static_cast<size_t>(env::IntegerOr(
      "parallel", "ETSC_THREADS", hw == 0 ? 1 : hw, 1, 1000000));
}

/// The process-wide pool. Workers are started lazily on the first submit and
/// joined from the destructor at process exit. Tasks must never block on
/// other queued tasks — every loop primitive below has its caller participate
/// in the work, so the queue always drains and workers only accelerate.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool pool;
    return pool;
  }

  ~ThreadPool() { Shutdown(); }

  size_t width() {
    std::lock_guard<std::mutex> lock(mu_);
    if (width_ == 0) width_ = EnvThreadCount();
    return width_;
  }

  /// Stops and re-launches workers for a new width (0 = re-read the
  /// environment / hardware default). Leftover queued tasks are executed
  /// inline — by construction they are cancellation-aware no-ops once their
  /// loop has drained.
  void Resize(size_t new_width) {
    std::deque<std::function<void()>> leftovers = StopWorkers();
    for (auto& task : leftovers) task();
    std::lock_guard<std::mutex> lock(mu_);
    width_ = new_width == 0 ? EnvThreadCount() : new_width;
  }

  uint64_t Submit(std::function<void()> task) {
    const uint64_t enqueue_us = trace::NowMicros();
    std::unique_lock<std::mutex> lock(mu_);
    if (width_ == 0) width_ = EnvThreadCount();
    const uint64_t ticket = next_ticket_++;
    queue_.push_back(QueueEntry{ticket, std::move(task), enqueue_us});
    if (MetricsEnabled()) QueueDepth().Add(1);
    // Workers materialise on demand, capped at width-1 (the caller of every
    // loop is the remaining participant).
    if (workers_.size() < width_ - 1 && idle_ == 0) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
    lock.unlock();
    cv_.notify_one();
    return ticket;
  }

  /// Removes a still-queued task. Returns false when it already started (or
  /// finished) — the caller must then wait for its completion.
  bool CancelPending(uint64_t ticket) {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->ticket == ticket) {
        queue_.erase(it);
        if (MetricsEnabled()) QueueDepth().Add(-1);
        return true;
      }
    }
    return false;
  }

 private:
  struct QueueEntry {
    uint64_t ticket;
    std::function<void()> task;
    uint64_t enqueue_us;  // trace clock at Submit, for the latency histogram
  };

  void WorkerLoop() {
    tls_pool_worker = true;
    for (;;) {
      std::function<void()> task;
      uint64_t enqueue_us = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        ++idle_;
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        --idle_;
        if (stopping_) return;
        task = std::move(queue_.front().task);
        enqueue_us = queue_.front().enqueue_us;
        queue_.pop_front();
      }
      if (MetricsEnabled()) {
        QueueDepth().Add(-1);
        TaskLatency().Record(
            static_cast<double>(trace::NowMicros() - enqueue_us) * 1e-6);
        TasksExecuted().Add(1);
      }
      TraceSpan span("pool", "pool_task");
      task();
    }
  }

  std::deque<std::function<void()>> StopWorkers() {
    std::vector<std::thread> workers;
    std::deque<std::function<void()>> leftovers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      workers.swap(workers_);
      for (auto& entry : queue_) leftovers.push_back(std::move(entry.task));
      if (MetricsEnabled() && !queue_.empty()) {
        QueueDepth().Add(-static_cast<int64_t>(queue_.size()));
      }
      queue_.clear();
    }
    cv_.notify_all();
    for (std::thread& worker : workers) worker.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = false;
    }
    return leftovers;
  }

  void Shutdown() {
    std::deque<std::function<void()>> leftovers = StopWorkers();
    for (auto& task : leftovers) task();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<QueueEntry> queue_;
  std::vector<std::thread> workers_;
  uint64_t next_ticket_ = 1;
  size_t width_ = 0;  // 0 = not resolved yet
  size_t idle_ = 0;
  bool stopping_ = false;
};

/// Shared bookkeeping of one ParallelFor: an atomic iteration cursor plus the
/// first (lowest-index) failure. Heap-allocated and shared with helper tasks
/// so a cancelled helper can be dropped from the queue safely.
struct LoopState {
  std::atomic<size_t> next{0};
  std::atomic<bool> abort{false};

  std::mutex mu;
  std::condition_variable cv;
  size_t finished_helpers = 0;

  size_t error_index = SIZE_MAX;
  Status status;
  std::exception_ptr exception;

  void Record(size_t index, Status st, std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(mu);
    if (index < error_index) {
      error_index = index;
      status = std::move(st);
      exception = e;
    }
    abort.store(true, std::memory_order_relaxed);
  }
};

/// Consumes chunks until the cursor passes n or a failure aborts the loop.
/// Runs in the caller and in every helper; each participant polls its own
/// copy of the deadline so the amortised expiry state is thread-local.
void DrainChunks(LoopState* state, size_t n, size_t grain,
                 const std::function<Status(size_t)>* body,
                 const Deadline* deadline, const std::string* what) {
  Deadline local = deadline != nullptr ? *deadline : Deadline::Infinite();
  for (;;) {
    if (state->abort.load(std::memory_order_relaxed)) return;
    const size_t start = state->next.fetch_add(grain, std::memory_order_relaxed);
    if (start >= n) return;
    if (deadline != nullptr && local.CheckEvery(4)) {
      state->Record(start, Status::DeadlineExceeded(*what), nullptr);
      return;
    }
    const size_t end = std::min(n, start + grain);
    for (size_t i = start; i < end; ++i) {
      try {
        Status st = (*body)(i);
        if (!st.ok()) {
          state->Record(i, std::move(st), nullptr);
          return;
        }
      } catch (...) {
        state->Record(i, Status::Internal("exception in parallel body"),
                      std::current_exception());
        return;
      }
    }
  }
}

/// The engine behind ParallelFor / ParallelForStatus: dispatch helpers, work
/// alongside them, cancel the ones that never started, wait for the rest.
Status RunLoop(size_t n, size_t grain,
               const std::function<Status(size_t)>& body,
               const Deadline* deadline, const std::string& what) {
  if (n == 0) return Status::OK();
  if (grain == 0) grain = 1;
  ThreadPool& pool = ThreadPool::Instance();
  const size_t chunks = (n + grain - 1) / grain;
  const size_t helpers = std::min(pool.width() - 1, chunks - 1);

  if (helpers == 0) {
    // Exact serial fallback: plain loop, early exit on the first failure.
    Deadline local = deadline != nullptr ? *deadline : Deadline::Infinite();
    for (size_t i = 0; i < n; ++i) {
      if (deadline != nullptr && i % grain == 0 && local.CheckEvery(4)) {
        return Status::DeadlineExceeded(what);
      }
      ETSC_RETURN_NOT_OK(body(i));
    }
    return Status::OK();
  }

  auto state = std::make_shared<LoopState>();
  // Helpers adopt the submitting thread's cancel token (possibly empty) so a
  // watchdog cancellation of the supervised task reaches every participant —
  // and so pool threads never act under a stale token from a previous task.
  std::shared_ptr<CancelToken> token = CurrentCancelToken();
  std::vector<uint64_t> tickets;
  tickets.reserve(helpers);
  for (size_t h = 0; h < helpers; ++h) {
    tickets.push_back(
        pool.Submit([state, n, grain, &body, deadline, &what, token] {
          ScopedCancelToken install(token);
          DrainChunks(state.get(), n, grain, &body, deadline, &what);
          std::lock_guard<std::mutex> lock(state->mu);
          ++state->finished_helpers;
          state->cv.notify_all();
        }));
  }

  DrainChunks(state.get(), n, grain, &body, deadline, &what);

  // The loop has drained (or aborted): helpers still queued would only no-op,
  // so pull them back rather than waiting behind unrelated pool tasks.
  size_t expected = helpers;
  for (uint64_t ticket : tickets) {
    if (pool.CancelPending(ticket)) --expected;
  }
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock,
                   [&] { return state->finished_helpers >= expected; });
    if (state->exception != nullptr) std::rethrow_exception(state->exception);
    return state->status;
  }
}

}  // namespace

size_t MaxParallelism() { return ThreadPool::Instance().width(); }

void SetMaxParallelism(size_t width) { ThreadPool::Instance().Resize(width); }

void ParallelFor(size_t n, const std::function<void(size_t)>& body,
                 size_t grain) {
  const Status status = RunLoop(
      n, grain,
      [&body](size_t i) {
        body(i);
        return Status::OK();
      },
      nullptr, "");
  // Exceptions were rethrown by RunLoop; a void body cannot produce a Status.
  ETSC_CHECK(status.ok());
}

Status ParallelForStatus(size_t n, const std::function<Status(size_t)>& body,
                         size_t grain, const Deadline* deadline,
                         const std::string& what) {
  return RunLoop(n, grain, body, deadline, what);
}

// ---------------------------------------------------------------------------
// TaskGroup
// ---------------------------------------------------------------------------

struct TaskGroup::State {
  std::mutex mu;
  std::condition_variable cv;
  /// Tasks not yet picked up; Wait() and pool helpers both pop from here, so
  /// the group makes progress even when every worker is busy elsewhere.
  std::deque<std::pair<size_t, std::function<Status()>>> todo;
  size_t next_seq = 0;
  size_t running = 0;

  size_t error_seq = SIZE_MAX;
  Status status;
  std::exception_ptr exception;

  /// Records a task failure; OK outcomes are never recorded so they cannot
  /// shadow a later-submitted failure. mu is held by the caller.
  void Record(size_t seq, Status st, std::exception_ptr e) {
    if (st.ok() && e == nullptr) return;
    if (seq < error_seq) {
      error_seq = seq;
      status = std::move(st);
      exception = e;
    }
  }

  /// Pops and runs queued tasks until the deque is empty.
  void Drain() {
    std::unique_lock<std::mutex> lock(mu);
    while (!todo.empty()) {
      auto [seq, fn] = std::move(todo.front());
      todo.pop_front();
      ++running;
      lock.unlock();
      Status st;
      std::exception_ptr e = nullptr;
      try {
        st = fn();
      } catch (...) {
        st = Status::Internal("exception in task group body");
        e = std::current_exception();
      }
      lock.lock();
      Record(seq, std::move(st), e);
      --running;
      cv.notify_all();
    }
  }
};

TaskGroup::TaskGroup() : state_(std::make_shared<State>()) {}

TaskGroup::~TaskGroup() {
  try {
    Wait();
  } catch (...) {
    // A destructor must not throw; Wait() from user code reports failures.
  }
}

void TaskGroup::Run(std::function<Status()> fn, const Deadline* deadline) {
  const bool inline_only = MaxParallelism() == 1 || tls_pool_worker;
  if (deadline != nullptr) {
    // Copy the expiry instant into the closure (the caller's Deadline may die
    // before a queued task starts) and re-check it at task start, so a group
    // whose budget ran out stops launching work instead of burning through
    // the remaining queue.
    Deadline at_dispatch = *deadline;
    fn = [expiry = at_dispatch, inner = std::move(fn)]() -> Status {
      if (expiry.Expired()) {
        return Status::DeadlineExceeded("task group: deadline expired");
      }
      return inner();
    };
    if (at_dispatch.Expired()) {
      std::lock_guard<std::mutex> lock(state_->mu);
      state_->Record(state_->next_seq++,
                     Status::DeadlineExceeded("task group: deadline expired"),
                     nullptr);
      return;
    }
  }
  // Group tasks run under the submitter's cancel token (possibly empty, which
  // deliberately masks whatever token the executing pool thread last held).
  fn = [token = CurrentCancelToken(), inner = std::move(fn)]() -> Status {
    ScopedCancelToken install(token);
    return inner();
  };
  std::shared_ptr<State> state = state_;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->todo.emplace_back(state->next_seq++, std::move(fn));
  }
  if (inline_only) {
    state->Drain();
    return;
  }
  ThreadPool::Instance().Submit([state] { state->Drain(); });
}

Status TaskGroup::Wait() {
  state_->Drain();  // participate instead of idling behind busy workers
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] {
    return state_->todo.empty() && state_->running == 0;
  });
  if (state_->exception != nullptr) {
    std::exception_ptr e = state_->exception;
    state_->exception = nullptr;
    std::rethrow_exception(e);
  }
  return state_->status;
}

}  // namespace etsc
