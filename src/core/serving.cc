#include "core/serving.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "core/counters.h"
#include "core/env.h"
#include "core/fault.h"
#include "core/log.h"
#include "core/parallel.h"
#include "core/record_log.h"
#include "core/rng.h"
#include "core/supervisor.h"

namespace etsc {

namespace {

// WAL grammar (DESIGN.md sec 16): a record log (core/record_log.h) with one
// sealed row per event.
//   O,<id>,<model>        session opened against <model>
//   I,<id>,<v0>,<v1>,...  one observation accepted (%.17g round-trips)
//   F,<id>                explicit Finish claimed the session
//   D,<id>,<n>            deadline force-finish at <n> observed values
//   C,<id>                session removed (Close / eviction / shed)
constexpr char kWalTag[] = "# etscwal v";
constexpr char kWalHeader[] = "# etscwal v1";

// Consecutive sessions one pool task dispatches (amortises task dispatch for
// cheap per-session work). Decisions are bit-identical at any grain.
constexpr size_t kDispatchGrain = 8;

Counter& Opened() {
  static Counter& c =
      MetricRegistry::Global().counter("serving.sessions_opened");
  return c;
}
Counter& Rejected() {
  static Counter& c =
      MetricRegistry::Global().counter("serving.sessions_rejected");
  return c;
}
Counter& Closed() {
  static Counter& c =
      MetricRegistry::Global().counter("serving.sessions_closed");
  return c;
}
Counter& Evicted() {
  static Counter& c =
      MetricRegistry::Global().counter("serving.sessions_evicted");
  return c;
}
Counter& Ingested() {
  static Counter& c =
      MetricRegistry::Global().counter("serving.observations_ingested");
  return c;
}
Counter& IngestRejected() {
  static Counter& c =
      MetricRegistry::Global().counter("serving.ingest_rejected");
  return c;
}
Counter& Batches() {
  static Counter& c = MetricRegistry::Global().counter("serving.batches");
  return c;
}
Counter& BatchDecisions() {
  static Counter& c = MetricRegistry::Global().counter("serving.decisions");
  return c;
}
Counter& DeadlineForced() {
  static Counter& c =
      MetricRegistry::Global().counter("serving.deadline_forced");
  return c;
}
Counter& ShedDecidedCount() {
  static Counter& c = MetricRegistry::Global().counter("serving.shed_decided");
  return c;
}
Counter& ShedIdleCount() {
  static Counter& c = MetricRegistry::Global().counter("serving.shed_idle");
  return c;
}
Counter& ShedRefusals() {
  static Counter& c = MetricRegistry::Global().counter("serving.shed_refusals");
  return c;
}
Counter& WalAppends() {
  static Counter& c = MetricRegistry::Global().counter("serving.wal_appends");
  return c;
}
Counter& WalRecoveredSessions() {
  static Counter& c =
      MetricRegistry::Global().counter("serving.wal_recovered_sessions");
  return c;
}
Counter& WalReplayedObservations() {
  static Counter& c =
      MetricRegistry::Global().counter("serving.wal_replayed_observations");
  return c;
}
Counter& WalTornRows() {
  static Counter& c = MetricRegistry::Global().counter("serving.wal_torn_rows");
  return c;
}
Gauge& LiveSessions() {
  static Gauge& g = MetricRegistry::Global().gauge("serving.live_sessions");
  return g;
}
Histogram& DecisionSeconds() {
  static Histogram& h =
      MetricRegistry::Global().histogram("serving.decision_seconds");
  return h;
}
Histogram& BatchSeconds() {
  static Histogram& h =
      MetricRegistry::Global().histogram("serving.batch_seconds");
  return h;
}
Histogram& ShedSeconds() {
  static Histogram& h =
      MetricRegistry::Global().histogram("serving.shed_seconds");
  return h;
}
Histogram& WalReplaySeconds() {
  static Histogram& h =
      MetricRegistry::Global().histogram("serving.wal_replay_seconds");
  return h;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool ParseFiniteDouble(std::string_view field, double* out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *out);
  return ec == std::errc() && ptr == end && std::isfinite(*out);
}

}  // namespace

std::optional<double> RetryAfterMs(const Status& status) {
  static constexpr char kToken[] = "retry_after_ms=";
  const std::string& message = status.message();
  const size_t pos = message.find(kToken);
  if (pos == std::string::npos) return std::nullopt;
  const char* start = message.c_str() + pos + std::strlen(kToken);
  char* end = nullptr;
  const double parsed = std::strtod(start, &end);
  if (end == start || !std::isfinite(parsed) || parsed < 0.0) {
    return std::nullopt;
  }
  return parsed;
}

ServingOptions ServingOptions::FromEnv() {
  ServingOptions options;
  options.max_sessions = static_cast<size_t>(
      env::NumberOr("serving", "ETSC_SERVE_MAX_SESSIONS",
                    static_cast<double>(options.max_sessions), 1.0, 1e9));
  const double budget_ms =
      env::NumberOr("serving", "ETSC_SERVE_BUDGET_MS", 0.0, 0.0, 1e12);
  if (budget_ms > 0.0) options.session_budget_seconds = budget_ms / 1e3;
  const double idle_ms =
      env::NumberOr("serving", "ETSC_SERVE_IDLE_MS", 0.0, 0.0, 1e12);
  if (idle_ms > 0.0) options.idle_timeout_seconds = idle_ms / 1e3;
  options.soft_watermark = env::NumberOr(
      "serving", "ETSC_SERVE_SOFT_WATERMARK", options.soft_watermark, 0.01,
      1.0);
  const double shed_idle_ms =
      env::NumberOr("serving", "ETSC_SERVE_SHED_IDLE_MS", 0.0, 0.0, 1e12);
  if (shed_idle_ms > 0.0) options.shed_min_idle_seconds = shed_idle_ms / 1e3;
  options.retry_after_ms = env::NumberOr(
      "serving", "ETSC_SERVE_RETRY_MS", options.retry_after_ms, 1.0, 1e9);
  options.watchdog_grace =
      env::NumberOr("serving", "ETSC_SERVE_WATCHDOG_GRACE",
                    options.watchdog_grace, 0.0, 1e6);
  options.wal_path = env::StringOr("ETSC_SERVE_WAL", "");
  return options;
}

ServingEngine::ServingEngine(ServingOptions options)
    : options_(std::move(options)), wal_path_(options_.wal_path) {}

Status ServingEngine::RegisterModel(
    const std::string& name, std::shared_ptr<const EarlyClassifier> model,
    size_t num_variables) {
  if (model == nullptr) {
    return Status::InvalidArgument("RegisterModel: null model for " + name);
  }
  if (num_variables == 0) {
    return Status::InvalidArgument(
        "RegisterModel: zero-variable model " + name);
  }
  if (name.empty()) {
    return Status::InvalidArgument("RegisterModel: empty model name");
  }
  for (const char c : name) {
    // Model names are WAL row fields; commas and control characters would
    // corrupt the journal grammar.
    if (c == ',' || static_cast<unsigned char>(c) < 0x20) {
      return Status::InvalidArgument(
          "RegisterModel: model name must be WAL-safe "
          "(no commas or control characters): " +
          name);
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (model_index_.count(name) != 0) {
    return Status::InvalidArgument("RegisterModel: duplicate model " + name);
  }
  model_index_[name] = models_.size();
  models_.push_back(ModelEntry{name, std::move(model), num_variables});
  return Status::OK();
}

Status ServingEngine::WalArmLocked(bool keep_existing) {
  if (wal_.is_open()) return Status::OK();
  if (!keep_existing && !record_log::Reader(wal_path_).empty()) {
    // An existing file this engine never Recover()ed is some other run's
    // history: rotate it aside rather than interleave two histories.
    ETSC_ASSIGN_OR_RETURN(const std::string stale,
                          record_log::RotateToStale(wal_path_));
    Logf(LogLevel::kWarn, "serving",
         "rotated un-recovered WAL %s to %s before journaling",
         wal_path_.c_str(), stale.c_str());
  }
  return wal_.Open(wal_path_, kWalHeader);
}

Status ServingEngine::WalAppend(std::string row) {
  if (wal_path_.empty()) return Status::OK();
  std::lock_guard<std::mutex> lock(wal_mu_);
  ETSC_RETURN_NOT_OK(WalArmLocked(/*keep_existing=*/false));
  ETSC_RETURN_NOT_OK(wal_.Append(record_log::Seal(std::move(row))));
  ++wal_appends_;
  if (MetricsEnabled()) WalAppends().Add(1);
  return Status::OK();
}

Result<WalRecovery> ServingEngine::Recover(const std::string& path) {
  const auto started = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  if (!sessions_.empty()) {
    return Status::FailedPrecondition(
        "Recover: engine already holds sessions; recover into a fresh engine");
  }
  {
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    if (wal_.is_open()) {
      return Status::FailedPrecondition(
          "Recover: WAL already armed; recover before any journaled activity");
    }
    wal_path_ = path;
  }

  WalRecovery rec;
  // Opened before arming: the reader stops at the bytes present now, so rows
  // this recovery appends (deadline forces at its dispatch) are never read
  // back as history.
  record_log::Reader log(path);
  ETSC_ASSIGN_OR_RETURN(const record_log::HeaderMatch header,
                        log.CheckHeader(kWalHeader, kWalTag));
  if (header == record_log::HeaderMatch::kForeign) {
    return Status::FailedPrecondition("Recover: " + path +
                                      " is not a serving WAL (header '" +
                                      log.header() + "')");
  }
  // Arm the appender on the same file BEFORE replaying: recovery continues
  // the history, it never rotates it.
  {
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    ETSC_RETURN_NOT_OK(WalArmLocked(/*keep_existing=*/true));
  }

  // A malformed sealed row poisons the rebuild; the engine is cleared so
  // a caller that ignores the error cannot serve from half a history.
  const auto fail = [&](Status error) -> Status {
    sessions_.clear();
    next_id_ = 1;
    return error;
  };

  SessionId max_id = 0;
  std::string_view row;
  while (log.Next(&row)) {
    const auto line_ref = [&] {
      return path + ":" + std::to_string(log.line_number());
    };
    const std::vector<std::string_view> f = record_log::SplitFields(row);
    uint64_t id = 0;
    if (f.size() < 2 || f[0].size() != 1 || !record_log::ParseU64(f[1], &id) ||
        id == 0) {
      return fail(
          Status::DataLoss("Recover: malformed WAL row at " + line_ref()));
    }
    switch (f[0][0]) {
      case 'O': {
        if (f.size() != 3) {
          return fail(
              Status::DataLoss("Recover: malformed open row at " + line_ref()));
        }
        const auto model_it = model_index_.find(std::string(f[2]));
        if (model_it == model_index_.end()) {
          return fail(Status::FailedPrecondition(
              "Recover: WAL row at " + line_ref() + " needs model '" +
              std::string(f[2]) + "', which is not registered"));
        }
        if (sessions_.count(id) != 0) {
          return fail(Status::DataLoss(
              "Recover: duplicate session open at " + line_ref()));
        }
        const ModelEntry& entry = models_[model_it->second];
        sessions_.emplace(
            id, std::make_unique<Session>(
                    id, model_it->second, *entry.model, entry.num_variables,
                    options_.expected_length,
                    Deadline::After(options_.session_budget_seconds)));
        max_id = std::max(max_id, id);
        break;
      }
      case 'I': {
        const auto it = sessions_.find(id);
        if (it == sessions_.end()) {
          return fail(Status::DataLoss(
              "Recover: observation for unknown session at " + line_ref()));
        }
        Session& session = *it->second;
        const size_t arity = models_[session.model_index].num_variables;
        if (f.size() != 2 + arity) {
          return fail(Status::DataLoss(
              "Recover: observation arity mismatch at " + line_ref()));
        }
        std::vector<double> values(arity);
        for (size_t v = 0; v < arity; ++v) {
          if (!ParseFiniteDouble(f[2 + v], &values[v])) {
            return fail(Status::DataLoss(
                "Recover: unparseable observation value at " + line_ref()));
          }
        }
        session.pending.push_back(std::move(values));
        ++session.ingested;
        ++rec.observations_replayed;
        break;
      }
      case 'F':
      case 'D': {
        const auto it = sessions_.find(id);
        if (it == sessions_.end()) {
          return fail(Status::DataLoss(
              "Recover: finish for unknown session at " + line_ref()));
        }
        Session& session = *it->second;
        // How much of the queue the original finish consumed: an explicit
        // Finish claimed everything journaled before its row; a deadline
        // force ran with exactly <n> values observed — observations that
        // raced past the force stay queued, exactly as they did live.
        size_t stop_at = std::numeric_limits<size_t>::max();
        if (f[0][0] == 'D') {
          uint64_t n = 0;
          if (f.size() != 3 || !record_log::ParseU64(f[2], &n)) {
            return fail(Status::DataLoss(
                "Recover: malformed force-finish row at " + line_ref()));
          }
          stop_at = static_cast<size_t>(n);
        } else if (f.size() != 2) {
          return fail(Status::DataLoss(
              "Recover: malformed finish row at " + line_ref()));
        }
        size_t used = 0;
        while (used < session.pending.size() &&
               session.stream.observed() < stop_at) {
          auto out = session.stream.Push(session.pending[used]);
          ++used;
          if (!out.ok()) {
            if (session.error.ok()) session.error = out.status();
            break;
          }
        }
        if (f[0][0] == 'F') {
          // Live Finish flushed the whole claim, sticky discards included.
          used = session.pending.size();
        }
        session.pending.erase(session.pending.begin(),
                              session.pending.begin() + used);
        const bool had_decision = session.stream.decision().has_value();
        if (session.error.ok() && session.stream.observed() > 0) {
          auto finished = session.stream.Finish();
          if (finished.ok() && !had_decision && f[0][0] == 'D') {
            session.deadline_forced = true;
          }
        }
        ++rec.finishes_replayed;
        break;
      }
      case 'C': {
        const auto it = sessions_.find(id);
        if (it == sessions_.end()) {
          return fail(Status::DataLoss(
              "Recover: close for unknown session at " + line_ref()));
        }
        sessions_.erase(it);
        ++rec.sessions_removed;
        break;
      }
      default:
        return fail(
            Status::DataLoss("Recover: unknown WAL row kind at " + line_ref()));
    }
  }
  rec.torn_rows = log.torn_rows();
  next_id_ = std::max(next_id_, max_id + 1);
  rec.sessions_recovered = sessions_.size();
  stats_.live_sessions = sessions_.size();
  stats_.peak_sessions = std::max(stats_.peak_sessions, sessions_.size());

  // The queued observations now run through the ordinary dispatch path — the
  // same claim/fan-out/replay machinery as an uncrashed run, which is what
  // makes post-recovery decisions bit-identical to one.
  lock.unlock();
  ETSC_ASSIGN_OR_RETURN(const size_t batch_decisions, DispatchBatch());
  (void)batch_decisions;
  {
    std::lock_guard<std::mutex> relock(mu_);
    for (const auto& [id, session] : sessions_) {
      if (session->stream.decision().has_value()) ++rec.decisions_recovered;
    }
  }
  rec.replay_seconds = SecondsSince(started);
  if (MetricsEnabled()) {
    WalRecoveredSessions().Add(rec.sessions_recovered);
    WalReplayedObservations().Add(rec.observations_replayed);
    WalTornRows().Add(rec.torn_rows);
    WalReplaySeconds().Record(rec.replay_seconds);
    LiveSessions().Set(static_cast<int64_t>(rec.sessions_recovered));
  }
  Logf(LogLevel::kInfo, "serving",
       "recovered %zu sessions (%zu observations, %zu finishes, %zu removed, "
       "%zu torn rows skipped) from %s in %.3fs",
       rec.sessions_recovered, rec.observations_replayed,
       rec.finishes_replayed, rec.sessions_removed, rec.torn_rows,
       path.c_str(), rec.replay_seconds);
  return rec;
}

Result<SessionId> ServingEngine::Open(const std::string& model_name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = model_index_.find(model_name);
  if (it == model_index_.end()) {
    return Status::NotFound("Open: unregistered model " + model_name);
  }
  if (sessions_.size() >= options_.max_sessions) {
    // Hard watermark: shed whatever is reclaimable; refuse only if the table
    // is still full — with a machine-readable back-off so clients degrade to
    // delay instead of a retry storm.
    ShedLocked();
    if (sessions_.size() >= options_.max_sessions) {
      ++stats_.rejected;
      ++stats_.shed_refusals;
      if (MetricsEnabled()) {
        Rejected().Add(1);
        ShedRefusals().Add(1);
      }
      char hint[48];
      std::snprintf(hint, sizeof(hint), "; retry_after_ms=%g",
                    options_.retry_after_ms);
      return Status::Unavailable(
          "Open: session table full (" +
          std::to_string(options_.max_sessions) +
          " sessions); evict or raise ETSC_SERVE_MAX_SESSIONS" + hint);
    }
  } else {
    // Soft watermark: shed opportunistically so the hard refusal stays rare.
    const double frac =
        std::min(std::max(options_.soft_watermark, 0.0), 1.0);
    const auto soft_limit = static_cast<size_t>(
        std::ceil(frac * static_cast<double>(options_.max_sessions)));
    if (sessions_.size() >= soft_limit) ShedLocked();
  }
  const ModelEntry& entry = models_[it->second];
  const SessionId id = next_id_;
  // Write-ahead: if the journal refuses the row, the open never happened
  // (and the id was not consumed).
  ETSC_RETURN_NOT_OK(
      WalAppend("O," + std::to_string(id) + "," + entry.name));
  ++next_id_;
  sessions_.emplace(
      id, std::make_unique<Session>(
              id, it->second, *entry.model, entry.num_variables,
              options_.expected_length,
              Deadline::After(options_.session_budget_seconds)));
  ++stats_.opened;
  stats_.live_sessions = sessions_.size();
  stats_.peak_sessions = std::max(stats_.peak_sessions, sessions_.size());
  if (MetricsEnabled()) {
    Opened().Add(1);
    LiveSessions().Set(static_cast<int64_t>(sessions_.size()));
  }
  return id;
}

Status ServingEngine::Ingest(SessionId id, const std::vector<double>& values) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("Ingest: no session " + std::to_string(id));
  }
  Session& session = *it->second;
  const size_t arity = models_[session.model_index].num_variables;
  // Mirrors StreamingSession's arity-before-everything rule: a malformed
  // observation is reported here and can never reach a buffer.
  if (values.size() != arity) {
    ++stats_.ingest_rejected;
    if (MetricsEnabled()) IngestRejected().Add(1);
    return Status::InvalidArgument(
        "Ingest: observation has " + std::to_string(values.size()) +
        " values, expected " + std::to_string(arity));
  }
  for (const double v : values) {
    if (!std::isfinite(v)) {
      ++stats_.ingest_rejected;
      if (MetricsEnabled()) IngestRejected().Add(1);
      return Status::InvalidArgument(
          "Ingest: non-finite value in observation for session " +
          std::to_string(id) +
          " (repair the feed upstream, e.g. Dataset::FillMissingValues)");
    }
  }
  if (!wal_path_.empty()) {
    std::string row;
    row.reserve(32 + 25 * values.size());  // one allocation, seal included
    row += "I,";
    row += std::to_string(id);
    char buf[40];
    for (const double v : values) {
      // 17 significant digits round-trip every finite double exactly.
      std::snprintf(buf, sizeof(buf), ",%.17g", v);
      row += buf;
    }
    ETSC_RETURN_NOT_OK(WalAppend(std::move(row)));
  }
  session.pending.push_back(values);
  session.last_activity = std::chrono::steady_clock::now();
  ++session.ingested;
  ++stats_.ingested;
  if (MetricsEnabled()) Ingested().Add(1);
  // Chaos drill: the die-at-ingest injector fires after the observation is
  // journaled and applied, so the crash it models loses nothing durable.
  ServeFaultTick(ServeFaultPoint::kIngest);
  return Status::OK();
}

void ServingEngine::RunSession(Session* session) {
  // With the watchdog enabled, the whole per-session replay runs under a
  // supervision watch: a model that ignores its budget is cooperatively
  // cancelled (CancelToken → kDeadlineExceeded) instead of wedging the pool.
  std::optional<Watchdog::Watch> watch;
  if (options_.watchdog_grace > 0.0) {
    watch.emplace("serving session " + std::to_string(session->id),
                  options_.session_budget_seconds, options_.watchdog_grace);
  }
  // Replays the claimed observations in arrival order through the session's
  // own StreamingSession — the single-caller semantics, verbatim, which is
  // what makes batched decisions bit-identical to the streaming path.
  const bool had_decision = session->stream.decision().has_value();
  for (const std::vector<double>& values : session->taking) {
    const auto push_started = std::chrono::steady_clock::now();
    auto out = session->stream.Push(values);
    if (!out.ok()) {
      if (session->error.ok()) session->error = out.status();
      break;
    }
    if (out->has_value() && !had_decision && !session->decided_in_batch) {
      session->decided_in_batch = true;
      if (MetricsEnabled()) DecisionSeconds().Record(SecondsSince(push_started));
    }
  }
  session->taking.clear();
  // Deadline enforcement: an undecided session past its budget answers NOW
  // with whatever it has seen — a forced Finish on the observed prefix.
  if (!session->stream.decision().has_value() && session->error.ok() &&
      session->stream.observed() > 0 && session->deadline.Expired()) {
    // Write-ahead, with the observed count: observations racing into the
    // fresh queue while we force may journal before this row, and the count
    // is what keeps the replayed force at the same prefix. If the journal
    // refuses, the force is skipped and retried at the next dispatch.
    const Status wal =
        WalAppend("D," + std::to_string(session->id) + "," +
                  std::to_string(session->stream.observed()));
    if (!wal.ok()) {
      Logf(LogLevel::kWarn, "serving",
           "deferring deadline force of session %llu: %s",
           static_cast<unsigned long long>(session->id),
           wal.message().c_str());
      return;
    }
    const auto finish_started = std::chrono::steady_clock::now();
    auto forced = session->stream.Finish();
    if (!forced.ok()) {
      if (session->error.ok()) session->error = forced.status();
    } else if (!had_decision) {
      session->deadline_forced = true;
      session->decided_in_batch = true;
      if (MetricsEnabled()) {
        DecisionSeconds().Record(SecondsSince(finish_started));
        DeadlineForced().Add(1);
      }
    }
  }
}

Result<size_t> ServingEngine::DispatchBatch() {
  const auto batch_started = std::chrono::steady_clock::now();
  // Claim phase: move each session's queue into its `taking` slot and mark it
  // in flight, so concurrent Ingest keeps appending to a fresh queue and
  // concurrent accessors see "busy" instead of racing the pool tasks.
  std::vector<Session*> work;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, session] : sessions_) {
      if (session->in_flight) continue;  // claimed by an overlapping batch
      const bool due = !session->pending.empty() ||
                       (!session->stream.decision().has_value() &&
                        session->error.ok() && session->stream.observed() > 0 &&
                        session->deadline.Expired());
      if (!due) continue;
      session->taking = std::exchange(session->pending, {});
      session->decided_in_batch = false;
      session->in_flight = true;
      work.push_back(session.get());
    }
    // Model-major order: sessions sharing a model land in the same grain-run
    // of pool tasks, so one task stays on one model's working set.
    std::stable_sort(work.begin(), work.end(),
                     [](const Session* a, const Session* b) {
                       return a->model_index < b->model_index;
                     });
  }

  // Chaos drill: "killed mid-dispatch" — queues claimed, nothing applied.
  ServeFaultTick(ServeFaultPoint::kDispatch);

  ParallelFor(
      work.size(), [&](size_t i) { RunSession(work[i]); }, kDispatchGrain);

  size_t decisions = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Session* session : work) {
      session->in_flight = false;
      if (session->decided_in_batch) ++decisions;
    }
    stats_.decisions += decisions;
    stats_.deadline_forced += static_cast<size_t>(std::count_if(
        work.begin(), work.end(), [](const Session* s) {
          return s->decided_in_batch && s->deadline_forced;
        }));
    ++stats_.batches;
  }
  if (MetricsEnabled()) {
    Batches().Add(1);
    BatchDecisions().Add(decisions);
    BatchSeconds().Record(SecondsSince(batch_started));
  }
  return decisions;
}

Result<EarlyPrediction> ServingEngine::Finish(SessionId id) {
  // Claim the session exactly like a batch would, then run it inline.
  Session* session = nullptr;
  bool had_decision = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return Status::NotFound("Finish: no session " + std::to_string(id));
    }
    session = it->second.get();
    if (session->in_flight) {
      return Status::Unavailable("Finish: session " + std::to_string(id) +
                                 " is being dispatched");
    }
    // Journaled at claim time, under the table lock: every observation row
    // before this F row is exactly the claim the finish flushes.
    ETSC_RETURN_NOT_OK(WalAppend("F," + std::to_string(id)));
    had_decision = session->stream.decision().has_value();
    session->taking = std::exchange(session->pending, {});
    session->decided_in_batch = false;
    session->in_flight = true;
  }
  RunSession(session);
  Result<EarlyPrediction> result = [&]() -> Result<EarlyPrediction> {
    if (!session->error.ok()) return session->error;
    return session->stream.Finish();
  }();
  {
    std::lock_guard<std::mutex> lock(mu_);
    session->in_flight = false;
    if (result.ok() && !had_decision) {
      // A fresh decision, whether the queue flush or the Finish made it.
      ++stats_.decisions;
      if (MetricsEnabled()) BatchDecisions().Add(1);
    }
  }
  return result;
}

Result<SessionInfo> ServingEngine::Info(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("Info: no session " + std::to_string(id));
  }
  const Session& session = *it->second;
  if (session.in_flight) {
    return Status::Unavailable("Info: session " + std::to_string(id) +
                               " is being dispatched");
  }
  if (!session.error.ok()) return session.error;
  SessionInfo info;
  info.id = session.id;
  info.model = models_[session.model_index].name;
  info.observed = session.stream.observed();
  info.pending = session.pending.size();
  info.ingested = session.ingested;
  info.decision = session.stream.decision();
  info.meta = session.stream.decision_meta();
  info.deadline_forced = session.deadline_forced;
  return info;
}

Status ServingEngine::Close(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("Close: no session " + std::to_string(id));
  }
  if (it->second->in_flight) {
    return Status::Unavailable("Close: session " + std::to_string(id) +
                               " is being dispatched");
  }
  ETSC_RETURN_NOT_OK(WalAppend("C," + std::to_string(id)));
  sessions_.erase(it);
  ++stats_.closed;
  stats_.live_sessions = sessions_.size();
  if (MetricsEnabled()) {
    Closed().Add(1);
    LiveSessions().Set(static_cast<int64_t>(sessions_.size()));
  }
  return Status::OK();
}

bool ServingEngine::RemoveSessionLocked(
    std::map<SessionId, std::unique_ptr<Session>>::iterator it) {
  // Write-ahead: a removal the journal refused did not happen — the session
  // stays (and stays reclaimable by a later pass).
  const Status wal = WalAppend("C," + std::to_string(it->first));
  if (!wal.ok()) {
    Logf(LogLevel::kWarn, "serving",
         "keeping session %llu: WAL close row failed (%s)",
         static_cast<unsigned long long>(it->first), wal.message().c_str());
    return false;
  }
  sessions_.erase(it);
  return true;
}

size_t ServingEngine::EvictDecidedLocked(bool shed) {
  size_t evicted = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    Session& session = *it->second;
    const bool reclaimable =
        !session.in_flight && session.pending.empty() &&
        (session.stream.decision().has_value() || !session.error.ok());
    if (!reclaimable) {
      ++it;
      continue;
    }
    const auto cur = it++;
    if (RemoveSessionLocked(cur)) ++evicted;
  }
  stats_.evicted += evicted;
  if (shed) stats_.shed_decided += evicted;
  stats_.live_sessions = sessions_.size();
  if (MetricsEnabled() && evicted > 0) {
    Evicted().Add(evicted);
    if (shed) ShedDecidedCount().Add(evicted);
    LiveSessions().Set(static_cast<int64_t>(sessions_.size()));
  }
  return evicted;
}

size_t ServingEngine::ShedLocked() {
  const auto started = std::chrono::steady_clock::now();
  // Tier 1: decided sessions have delivered their answer — reclaim them all.
  size_t shed = EvictDecidedLocked(/*shed=*/true);
  // Tier 2: if that freed nothing and the policy allows it, shed the single
  // oldest-idle undecided session past the threshold — one admission's worth
  // of room, taken from the series least likely to come back.
  if (shed == 0 && std::isfinite(options_.shed_min_idle_seconds)) {
    auto oldest = sessions_.end();
    double oldest_idle = options_.shed_min_idle_seconds;
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      Session& session = *it->second;
      if (session.in_flight || !session.pending.empty() ||
          session.stream.decision().has_value() || !session.error.ok()) {
        continue;
      }
      const double idle = SecondsSince(session.last_activity);
      if (idle >= oldest_idle) {
        oldest_idle = idle;
        oldest = it;
      }
    }
    if (oldest != sessions_.end() && RemoveSessionLocked(oldest)) {
      shed = 1;
      ++stats_.shed_idle;
      ++stats_.evicted;
      stats_.live_sessions = sessions_.size();
      if (MetricsEnabled()) {
        ShedIdleCount().Add(1);
        Evicted().Add(1);
        LiveSessions().Set(static_cast<int64_t>(sessions_.size()));
      }
    }
  }
  if (MetricsEnabled()) ShedSeconds().Record(SecondsSince(started));
  return shed;
}

size_t ServingEngine::EvictDecided() {
  std::lock_guard<std::mutex> lock(mu_);
  return EvictDecidedLocked(/*shed=*/false);
}

size_t ServingEngine::EvictIdle(double idle_seconds) {
  if (idle_seconds < 0.0) idle_seconds = options_.idle_timeout_seconds;
  std::lock_guard<std::mutex> lock(mu_);
  size_t evicted = 0;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    Session& session = *it->second;
    const bool idle = !session.in_flight && session.pending.empty() &&
                      !session.stream.decision().has_value() &&
                      SecondsSince(session.last_activity) > idle_seconds;
    if (!idle) {
      ++it;
      continue;
    }
    const auto cur = it++;
    if (RemoveSessionLocked(cur)) ++evicted;
  }
  stats_.evicted += evicted;
  stats_.live_sessions = sessions_.size();
  if (MetricsEnabled() && evicted > 0) {
    Evicted().Add(evicted);
    LiveSessions().Set(static_cast<int64_t>(sessions_.size()));
  }
  return evicted;
}

ServingStats ServingEngine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServingStats out = stats_;
  {
    std::lock_guard<std::mutex> wal_lock(wal_mu_);
    out.wal_appends = wal_appends_;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Replayable ingest traces
// ---------------------------------------------------------------------------

std::vector<IngestEvent> BuildReplayTrace(const Dataset& data,
                                          size_t num_sessions, uint64_t seed) {
  std::vector<IngestEvent> trace;
  if (data.empty() || num_sessions == 0) return trace;
  const size_t num_variables = data.NumVariables();
  size_t max_length = 0;
  std::vector<const TimeSeries*> streams(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    streams[s] = &data.instance(s % data.size());
    max_length = std::max(max_length, streams[s]->length());
  }
  Rng rng(seed);
  std::vector<size_t> order(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) order[s] = s;
  for (size_t t = 0; t < max_length; ++t) {
    // Fresh shuffle per round: arrival order within an observation period is
    // traffic noise, and the engine's decisions must not depend on it.
    rng.Shuffle(&order);
    for (const size_t s : order) {
      const TimeSeries& series = *streams[s];
      if (t >= series.length()) continue;
      IngestEvent event;
      event.session = s;
      event.values.resize(num_variables);
      for (size_t v = 0; v < num_variables; ++v) {
        event.values[v] = series.at(v, t);
      }
      trace.push_back(std::move(event));
    }
  }
  return trace;
}

std::vector<ReplayOutcome> ReplaySequential(
    const EarlyClassifier& model, size_t num_variables, size_t num_sessions,
    const std::vector<IngestEvent>& trace) {
  std::vector<std::unique_ptr<StreamingSession>> sessions;
  sessions.reserve(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    sessions.push_back(
        std::make_unique<StreamingSession>(model, num_variables));
  }
  std::vector<ReplayOutcome> outcomes(num_sessions);
  std::vector<bool> decided(num_sessions, false);
  for (const IngestEvent& event : trace) {
    StreamingSession& session = *sessions[event.session];
    auto out = session.Push(event.values);
    if (!out.ok()) {
      if (!decided[event.session]) {
        outcomes[event.session].failed = true;
        decided[event.session] = true;
      }
      continue;
    }
    if (out->has_value() && !decided[event.session]) {
      const DecisionMeta& meta = *session.decision_meta();
      outcomes[event.session] = {(*out)->label,  (*out)->prefix_length,
                                 false,          false,
                                 meta.halt_step, meta.earliness,
                                 meta.confidence};
      decided[event.session] = true;
    }
  }
  for (size_t s = 0; s < num_sessions; ++s) {
    if (decided[s]) continue;
    auto finished = sessions[s]->Finish();
    if (finished.ok()) {
      const DecisionMeta& meta = *sessions[s]->decision_meta();
      outcomes[s] = {finished->label, finished->prefix_length,
                     true,            false,
                     meta.halt_step,  meta.earliness,
                     meta.confidence};
    } else {
      outcomes[s].failed = true;
    }
  }
  return outcomes;
}

namespace {

/// Shared tail of the engine replays: read every slot's outcome, Finishing
/// the still-undecided ones (end of stream).
std::vector<ReplayOutcome> CollectOutcomes(ServingEngine& engine,
                                           const std::vector<SessionId>& ids) {
  std::vector<ReplayOutcome> outcomes(ids.size());
  for (size_t s = 0; s < ids.size(); ++s) {
    auto info = engine.Info(ids[s]);
    if (info.ok() && info->decision.has_value()) {
      const DecisionMeta& meta = *info->meta;
      outcomes[s] = {info->decision->label, info->decision->prefix_length,
                     info->deadline_forced, false,
                     meta.halt_step,        meta.earliness,
                     meta.confidence};
      continue;
    }
    if (!info.ok() && info.status().code() != StatusCode::kNotFound) {
      // Sticky classifier error on the session.
      outcomes[s].failed = true;
      continue;
    }
    auto finished = engine.Finish(ids[s]);
    if (finished.ok()) {
      // Re-query for the metadata the forced Finish just produced.
      auto after = engine.Info(ids[s]);
      const DecisionMeta meta =
          after.ok() && after->meta.has_value() ? *after->meta : DecisionMeta{};
      outcomes[s] = {finished->label, finished->prefix_length,
                     true,            false,
                     meta.halt_step,  meta.earliness,
                     meta.confidence};
    } else {
      outcomes[s].failed = true;
    }
  }
  return outcomes;
}

}  // namespace

Result<std::vector<ReplayOutcome>> ReplayThroughEngine(
    ServingEngine& engine, const std::string& model_name, size_t num_sessions,
    const std::vector<IngestEvent>& trace, size_t dispatch_every) {
  std::vector<SessionId> ids(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    ETSC_ASSIGN_OR_RETURN(ids[s], engine.Open(model_name));
  }
  size_t since_dispatch = 0;
  for (const IngestEvent& event : trace) {
    ETSC_RETURN_NOT_OK(engine.Ingest(ids[event.session], event.values));
    if (dispatch_every > 0 && ++since_dispatch >= dispatch_every) {
      since_dispatch = 0;
      ETSC_ASSIGN_OR_RETURN(size_t decisions, engine.DispatchBatch());
      (void)decisions;
    }
  }
  ETSC_ASSIGN_OR_RETURN(size_t tail, engine.DispatchBatch());
  (void)tail;
  return CollectOutcomes(engine, ids);
}

Result<std::vector<ReplayOutcome>> ResumeReplayThroughEngine(
    ServingEngine& engine, const std::string& model_name, size_t num_sessions,
    const std::vector<IngestEvent>& trace, size_t dispatch_every) {
  // Slot s was session id s + 1 in the crashed run (fresh-engine id order);
  // its SessionInfo::ingested says how far into the trace the WAL already
  // carried it. A slot the WAL never saw (crash before its Open) is opened
  // fresh here and replays from the top.
  std::vector<SessionId> ids(num_sessions);
  std::vector<size_t> skip(num_sessions, 0);
  for (size_t s = 0; s < num_sessions; ++s) {
    const SessionId expected = static_cast<SessionId>(s + 1);
    auto info = engine.Info(expected);
    if (info.ok()) {
      ids[s] = expected;
      skip[s] = info->ingested;
      continue;
    }
    if (info.status().code() == StatusCode::kNotFound) {
      ETSC_ASSIGN_OR_RETURN(ids[s], engine.Open(model_name));
      continue;
    }
    // Sticky error: the session exists and will report `failed` — nothing
    // more to feed it.
    ids[s] = expected;
    skip[s] = std::numeric_limits<size_t>::max();
  }
  std::vector<size_t> seen(num_sessions, 0);
  size_t since_dispatch = 0;
  for (const IngestEvent& event : trace) {
    if (seen[event.session]++ < skip[event.session]) continue;
    ETSC_RETURN_NOT_OK(engine.Ingest(ids[event.session], event.values));
    if (dispatch_every > 0 && ++since_dispatch >= dispatch_every) {
      since_dispatch = 0;
      ETSC_ASSIGN_OR_RETURN(size_t decisions, engine.DispatchBatch());
      (void)decisions;
    }
  }
  ETSC_ASSIGN_OR_RETURN(size_t tail, engine.DispatchBatch());
  (void)tail;
  return CollectOutcomes(engine, ids);
}

}  // namespace etsc
