#include "core/supervisor.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/counters.h"
#include "core/env.h"
#include "core/log.h"
#include "core/rng.h"

namespace etsc {

namespace {

Counter& QuarantineEvents() {
  static Counter& c =
      MetricRegistry::Global().counter("supervisor.quarantine_events");
  return c;
}

Counter& WatchdogCancellations() {
  static Counter& c =
      MetricRegistry::Global().counter("supervisor.watchdog_cancellations");
  return c;
}

}  // namespace

SupervisorOptions SupervisorOptions::FromEnv() {
  SupervisorOptions opts;
  opts.retry.max_retries = static_cast<int>(env::IntegerOr(
      "supervisor", "ETSC_RETRY_MAX", opts.retry.max_retries, 0, 1000000));
  opts.retry.base_backoff_ms =
      env::NumberOr("supervisor", "ETSC_RETRY_BASE_MS",
                    opts.retry.base_backoff_ms, 0.0, 1e9);
  opts.quarantine_after = static_cast<int>(
      env::IntegerOr("supervisor", "ETSC_QUARANTINE_AFTER",
                     opts.quarantine_after, 0, 1000000));
  opts.watchdog_grace = env::NumberOr("supervisor", "ETSC_WATCHDOG_GRACE",
                                      opts.watchdog_grace, 0.0, 1e6);
  return opts;
}

bool IsTransientFailure(StatusCode code) {
  switch (code) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
    case StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

double BackoffDelayMs(const RetryPolicy& policy, uint64_t seed, int attempt) {
  if (attempt < 1) attempt = 1;
  double delay = policy.base_backoff_ms;
  for (int i = 1; i < attempt; ++i) {
    delay *= policy.backoff_multiplier;
    if (delay >= policy.max_backoff_ms) break;
  }
  delay = std::min(delay, policy.max_backoff_ms);
  // Jitter in [0.5, 1.0): the top 53 bits of the split give a uniform double
  // — a pure function of (seed, attempt), so the schedule is reproducible.
  const double unit =
      static_cast<double>(SplitSeed(seed, static_cast<uint64_t>(attempt)) >>
                          11) *
      0x1p-53;
  return delay * (0.5 + 0.5 * unit);
}

bool CircuitBreaker::RecordFailure(const std::string& algo,
                                   const std::string& dataset) {
  if (quarantine_after_ <= 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[algo];
  if (e.quarantined) return false;
  if (e.consecutive_failures > 0 && e.last_failed_dataset == dataset) {
    return false;  // A retry burst on one dataset is one strike, not many.
  }
  e.last_failed_dataset = dataset;
  if (++e.consecutive_failures < quarantine_after_) return false;
  e.quarantined = true;
  if (MetricsEnabled()) QuarantineEvents().Add();
  Logf(LogLevel::kWarn, "supervisor",
       "quarantining algorithm %s after %d consecutive failed datasets "
       "(last: %s)",
       algo.c_str(), e.consecutive_failures, dataset.c_str());
  return true;
}

void CircuitBreaker::RecordSuccess(const std::string& algo) {
  if (quarantine_after_ <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[algo];
  if (e.quarantined) return;
  e.consecutive_failures = 0;
  e.last_failed_dataset.clear();
}

bool CircuitBreaker::IsQuarantined(const std::string& algo) const {
  if (quarantine_after_ <= 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(algo);
  return it != entries_.end() && it->second.quarantined;
}

Watchdog& Watchdog::Instance() {
  static Watchdog dog;
  return dog;
}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

uint64_t Watchdog::Register(std::shared_ptr<CancelToken> token,
                            std::string label, double budget_seconds,
                            double grace) {
  Task task;
  task.token = std::move(token);
  task.label = std::move(label);
  task.started = Deadline::Clock::now();
  task.cancel_after_seconds = grace * budget_seconds;
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
    tasks_.emplace(id, std::move(task));
    if (!started_) {
      started_ = true;
      thread_ = std::thread([this] { RunLoop(); });
    }
  }
  cv_.notify_all();
  return id;
}

void Watchdog::Unregister(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  tasks_.erase(id);
}

void Watchdog::RunLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    // Earliest pending expiry decides how long to sleep; new registrations
    // and shutdown interrupt the wait through the condition variable.
    const auto now = Deadline::Clock::now();
    auto next_due = Deadline::Clock::time_point::max();
    for (auto& [id, task] : tasks_) {
      if (task.cancelled) continue;
      const auto due =
          task.started + std::chrono::duration_cast<Deadline::Clock::duration>(
                             std::chrono::duration<double>(
                                 task.cancel_after_seconds));
      if (due <= now) {
        task.cancelled = true;
        task.token->RequestCancel();
        if (MetricsEnabled()) WatchdogCancellations().Add();
        Logf(LogLevel::kWarn, "watchdog",
             "cancelling hung task %s: ran %.3fs past %.3fs allowance "
             "(last heartbeat %.3fs ago)",
             task.label.c_str(),
             std::chrono::duration<double>(now - task.started).count(),
             task.cancel_after_seconds,
             task.token->SecondsSinceHeartbeat());
      } else {
        next_due = std::min(next_due, due);
      }
    }
    if (next_due == Deadline::Clock::time_point::max()) {
      cv_.wait(lock);
    } else {
      cv_.wait_until(lock, next_due);
    }
  }
}

Watchdog::Watch::Watch(std::string label, double budget_seconds, double grace)
    : token_(std::make_shared<CancelToken>()), install_(token_) {
  if (grace > 0.0 && budget_seconds > 0.0 && std::isfinite(budget_seconds)) {
    id_ = Instance().Register(token_, std::move(label), budget_seconds, grace);
  }
}

Watchdog::Watch::~Watch() {
  if (id_ != 0) Instance().Unregister(id_);
}

}  // namespace etsc
