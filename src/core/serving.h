#ifndef ETSC_CORE_SERVING_H_
#define ETSC_CORE_SERVING_H_

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/dataset.h"
#include "core/deadline.h"
#include "core/record_log.h"
#include "core/status.h"
#include "core/streaming.h"

namespace etsc {

/// Multi-session streaming serving engine (DESIGN.md sec 14, durability and
/// overload policy in sec 16).
///
/// The paper's online setting (Sec. 6.2.5, Figure 13) asks whether one
/// decision fits inside one observation period; the ROADMAP's north star asks
/// the same question under load — one partial series per live vessel, tens of
/// thousands of them, all sharing a handful of fitted models. ServingEngine
/// is that load path: a session table of StreamingSessions over shared
/// read-only classifiers, with
///   * batched dispatch: Ingest() only queues observations; DispatchBatch()
///     drains every queue, grouping sessions that share a model and fanning
///     the groups out over the global thread pool (core/parallel). Each
///     session's observations are replayed in arrival order through its own
///     StreamingSession, so batched decisions are bit-identical to the
///     single-caller streaming path by construction — at any pool width.
///   * durability: with `wal_path` set, every Open / Ingest / Finish / Close
///     / eviction appends one row to a per-engine write-ahead record log
///     (core/record_log.h) BEFORE the in-memory state changes (write-ahead,
///     literally: a mutation the WAL refused never happened). Recover(path)
///     replays the journal against the registered models and rebuilds the
///     session table, so a crashed process restarts with every in-flight
///     series intact and post-recovery decisions bit-identical to an
///     uncrashed run; torn tails from a mid-write crash are skipped cleanly.
///   * tiered overload policy: Open() under light load admits; past the soft
///     watermark it first sheds reclaimable sessions (decided ones, then the
///     oldest idle undecided one once they exceed `shed_min_idle_seconds`);
///     only when the table is still at `max_sessions` after shedding does it
///     refuse — Unavailable carrying a machine-readable `retry_after_ms=`
///     hint (RetryAfterMs()), so a traffic spike degrades in stages instead
///     of hitting a wall.
///   * per-session deadlines: a session that has not decided within its
///     budget (core/deadline) is force-finished on the prefix observed so
///     far at the next dispatch — late answers are still answers. With
///     `watchdog_grace` > 0 each dispatched session additionally runs under
///     the supervisor watchdog, so a model that ignores its budget (a hung
///     PredictEarly) is cooperatively cancelled instead of wedging the pool.
///   * eviction: decided and idle sessions are reclaimed explicitly
///     (EvictDecided / EvictIdle) so a long-running server's table tracks
///     live traffic, not its history.
///
/// Thread-safety: every public method except Recover (which requires a
/// quiescent, freshly-constructed engine) is safe to call concurrently. The
/// session table is mutex-guarded; DispatchBatch claims its work under the
/// lock (per-session in-flight flags) and runs it lock-free on the pool, so
/// concurrent Ingest/Open never block behind a running batch, and accessors
/// report Unavailable for the (brief) window a session is being dispatched
/// rather than racing it.
///
/// Metrics: serving.sessions_opened / sessions_rejected / sessions_closed /
/// sessions_evicted / observations_ingested / ingest_rejected / batches /
/// decisions / deadline_forced / shed_decided / shed_idle / shed_refusals /
/// wal_appends / wal_recovered_sessions / wal_replayed_observations /
/// wal_torn_rows counters, a serving.live_sessions gauge, and
/// serving.decision_seconds + serving.batch_seconds + serving.shed_seconds +
/// serving.wal_replay_seconds histograms (the Figure-13 quantity under
/// serving load; p50/p99 via Histogram::Quantile).
struct ServingOptions {
  /// Admission-control capacity of the session table (the hard watermark).
  size_t max_sessions = 100000;
  /// Fraction of max_sessions at which Open() starts shedding reclaimable
  /// sessions before admitting (the soft watermark). 1.0 = shed only when
  /// full.
  double soft_watermark = 0.85;
  /// An undecided session idle at least this long is sheddable once the soft
  /// watermark is crossed (decided sessions are always sheddable there).
  /// Infinity (the default) = never shed undecided sessions.
  double shed_min_idle_seconds = std::numeric_limits<double>::infinity();
  /// Advisory client back-off carried in the Status payload of an
  /// over-capacity refusal ("retry_after_ms=<n>"; RetryAfterMs() parses it).
  double retry_after_ms = 100.0;
  /// Per-session decision budget in seconds, measured from Open(). An
  /// undecided session whose deadline expired is force-finished at the next
  /// DispatchBatch (serving.deadline_forced). Infinity = never force.
  double session_budget_seconds = std::numeric_limits<double>::infinity();
  /// Default idle threshold for EvictIdle() in seconds (a session is idle
  /// since its last Open/Ingest). Infinity = never idle-evict.
  double idle_timeout_seconds = std::numeric_limits<double>::infinity();
  /// > 0: every dispatched session runs under the supervisor watchdog, which
  /// cooperatively cancels it after grace * session_budget_seconds — the
  /// chaos-harness answer to a model that hangs past its budget. Requires a
  /// finite session budget to arm (the watchdog contract). 0 = off.
  double watchdog_grace = 0.0;
  /// Session write-ahead journal path; empty = no durability. An existing
  /// file that was not Recover()ed is rotated to `<path>.stale` on first use
  /// (it is some other engine's history, never appended to blindly).
  std::string wal_path;
  /// Buffer-capacity hint per session (StreamingSession expected_length):
  /// the generators' series length makes steady-state pushes allocation-free.
  size_t expected_length = 0;
  /// Consecutive sessions one pool task dispatches (amortises task dispatch
  /// for cheap per-session work).
  size_t batch_grain = 8;

  /// Defaults overridden by validated environment knobs (core/env — garbage
  /// values warn and keep the default, like ETSC_THREADS):
  /// ETSC_SERVE_MAX_SESSIONS, ETSC_SERVE_BUDGET_MS, ETSC_SERVE_IDLE_MS,
  /// ETSC_SERVE_SOFT_WATERMARK, ETSC_SERVE_SHED_IDLE_MS, ETSC_SERVE_RETRY_MS,
  /// ETSC_SERVE_WATCHDOG_GRACE, ETSC_SERVE_WAL.
  static ServingOptions FromEnv();
};

using SessionId = uint64_t;

/// Point-in-time, lock-consistent view of one session.
struct SessionInfo {
  SessionId id = 0;
  std::string model;
  size_t observed = 0;      // observations already applied to the buffer
  size_t pending = 0;       // observations queued for the next batch
  /// Observations accepted over the session's lifetime (observed + pending +
  /// post-decision discards). Exactly the count of `I` rows the WAL holds
  /// for the session, which is what lets a recovered process resume an
  /// ingest trace at the right offset.
  size_t ingested = 0;
  std::optional<EarlyPrediction> decision;
  /// Trigger metadata of the decision (halt step, earliness, confidence,
  /// forced flag); engaged exactly when `decision` is.
  std::optional<DecisionMeta> meta;
  bool deadline_forced = false;  // decision came from a deadline force-finish
};

/// Counts for one engine (engine-local, unlike the process-wide metrics).
struct ServingStats {
  size_t live_sessions = 0;
  size_t peak_sessions = 0;
  size_t opened = 0;
  size_t rejected = 0;
  size_t closed = 0;
  size_t evicted = 0;
  size_t ingested = 0;
  size_t ingest_rejected = 0;
  size_t batches = 0;
  size_t decisions = 0;
  size_t deadline_forced = 0;
  /// Overload-policy tiers: decided / oldest-idle sessions shed to admit new
  /// traffic, and Opens refused because shedding could not free a slot.
  size_t shed_decided = 0;
  size_t shed_idle = 0;
  size_t shed_refusals = 0;
  /// WAL rows appended by this engine (0 when durability is off).
  size_t wal_appends = 0;
};

/// Outcome of one WAL replay (ServingEngine::Recover).
struct WalRecovery {
  size_t sessions_recovered = 0;    // live sessions after the replay
  size_t sessions_removed = 0;      // Close/eviction rows applied
  size_t observations_replayed = 0;
  size_t finishes_replayed = 0;     // Finish + deadline-force rows
  size_t decisions_recovered = 0;   // sessions holding a decision afterwards
  size_t torn_rows = 0;             // unsealed rows skipped (torn tail)
  double replay_seconds = 0.0;
};

/// Parses the machine-readable "retry_after_ms=<n>" hint an over-capacity
/// Open() refusal carries in its Status message; nullopt when absent.
std::optional<double> RetryAfterMs(const Status& status);

class ServingEngine {
 public:
  explicit ServingEngine(ServingOptions options = {});
  ~ServingEngine() = default;
  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Registers a fitted model under `name`; sessions opened against it share
  /// the instance read-only, so `model` must be fitted and must not be
  /// mutated afterwards. `num_variables` is the channel arity every
  /// observation of the model's sessions must have. Names must be free of
  /// commas and control characters (they are WAL row fields).
  Status RegisterModel(const std::string& name,
                       std::shared_ptr<const EarlyClassifier> model,
                       size_t num_variables);

  /// Replays the session WAL at `path` against the registered models and
  /// rebuilds the session table: Open rows re-open sessions under their
  /// original ids, Ingest rows re-queue observations in arrival order,
  /// Finish/force rows re-commit sticky decisions at the same prefix, Close
  /// rows remove. The queued observations then run through the ordinary
  /// DispatchBatch path, so post-recovery decisions are bit-identical to an
  /// uncrashed run of the same event sequence. Appends continue on the same
  /// file. A missing or empty file is a clean empty recovery. Torn
  /// (unsealed) tail rows are skipped and counted; a sealed but malformed
  /// row is DataLoss naming the line; a row against an
  /// unregistered model is FailedPrecondition. Must be called on a quiescent
  /// engine with no sessions and no WAL rows written yet.
  Result<WalRecovery> Recover(const std::string& path);

  /// Admits one new live series against a registered model. Past the soft
  /// watermark the admission first sheds reclaimable sessions (decided, then
  /// oldest-idle per ServingOptions::shed_min_idle_seconds); Unavailable
  /// with a retry_after_ms payload only once the table still holds
  /// max_sessions after shedding. NotFound for an unregistered model.
  Result<SessionId> Open(const std::string& model_name);

  /// Queues one observation for `id` (validated against the model's arity
  /// before it can ever reach the buffer; non-finite values — NaN/Inf from a
  /// corrupt feed — are refused the same way and can never poison the shared
  /// model dispatch). The classifier does NOT run here — that is
  /// DispatchBatch's job. Observations queued after the session decided are
  /// accepted and discarded at dispatch exactly like StreamingSession's
  /// sticky-decision Push path.
  Status Ingest(SessionId id, const std::vector<double>& values);

  /// Drains every session's queue: groups sessions by model, fans the groups
  /// out over the global thread pool, and replays each session's queued
  /// observations in arrival order through its StreamingSession. Sessions
  /// past their deadline that remain undecided are force-finished on the
  /// observed prefix. Returns the number of sessions that reached a decision
  /// in this batch. The first per-session classifier error is kept sticky on
  /// the session and reported by Info()/Finish(); it never aborts the batch.
  Result<size_t> DispatchBatch();

  /// Flushes `id`'s queue and forces a decision on whatever was observed
  /// (end of stream). Sticky like StreamingSession::Finish.
  Result<EarlyPrediction> Finish(SessionId id);

  /// Point-in-time view of one session (NotFound after eviction/close;
  /// Unavailable while a batch is dispatching it).
  Result<SessionInfo> Info(SessionId id) const;

  /// Removes one session.
  Status Close(SessionId id);

  /// Removes every decided session; returns how many were evicted.
  size_t EvictDecided();

  /// Removes every undecided session idle (no Open/Ingest) for longer than
  /// `idle_seconds` (defaults to options.idle_timeout_seconds); returns how
  /// many were evicted. Decided sessions are EvictDecided's business.
  size_t EvictIdle(double idle_seconds = -1.0);

  ServingStats stats() const;
  const ServingOptions& options() const { return options_; }

 private:
  struct ModelEntry {
    std::string name;
    std::shared_ptr<const EarlyClassifier> model;
    size_t num_variables = 0;
  };

  struct Session {
    SessionId id = 0;
    size_t model_index = 0;
    StreamingSession stream;
    std::vector<std::vector<double>> pending;  // queued since last dispatch
    std::vector<std::vector<double>> taking;   // claimed by a running batch
    Deadline deadline;
    std::chrono::steady_clock::time_point last_activity =
        std::chrono::steady_clock::now();
    size_t ingested = 0;          // lifetime accepted observations (WAL rows)
    bool in_flight = false;       // claimed by a running DispatchBatch
    bool deadline_forced = false;
    bool decided_in_batch = false;  // scratch: decision made by this batch
    Status error;                 // first classifier error, sticky

    Session(SessionId id, size_t model_index, const EarlyClassifier& model,
            size_t num_variables, size_t expected_length, Deadline deadline)
        : id(id),
          model_index(model_index),
          stream(model, num_variables, expected_length),
          deadline(deadline) {}
  };

  /// Replays one session's claimed observations through its stream; called
  /// from pool tasks with the session claimed (in_flight) and the table lock
  /// released. Sets decided_in_batch / deadline_forced / error. With
  /// watchdog_grace > 0 the replay runs under a supervisor watchdog watch.
  void RunSession(Session* session);

  /// Seals `row` and appends it to the WAL (lazily arming it on first use —
  /// an existing un-Recover()ed file rotates to .stale); flushed per row.
  /// OK when the WAL is disabled. Thread-safe (own mutex, nested inside mu_
  /// where both are held).
  Status WalAppend(std::string row);
  Status WalArmLocked(bool keep_existing);

  /// Overload-policy shedding pass (mu_ held): evicts every decided session,
  /// then — only if that freed nothing and `shed_min_idle_seconds` is finite
  /// — the single oldest-idle undecided session past the threshold. Returns
  /// how many sessions were shed.
  size_t ShedLocked();
  size_t EvictDecidedLocked(bool shed);
  /// Removes one session (mu_ held): WAL row first, then erase. Returns
  /// false when the WAL refused (the session stays).
  bool RemoveSessionLocked(std::map<SessionId,
                                    std::unique_ptr<Session>>::iterator it);

  const ServingOptions options_;

  mutable std::mutex mu_;
  std::vector<ModelEntry> models_;
  std::map<std::string, size_t> model_index_;
  std::map<SessionId, std::unique_ptr<Session>> sessions_;
  SessionId next_id_ = 1;
  ServingStats stats_;

  // WAL state: path fixed at construction (or by Recover), stream armed
  // lazily. Lock order: mu_ before wal_mu_ (RunSession takes wal_mu_ alone).
  mutable std::mutex wal_mu_;
  std::string wal_path_;
  record_log::Appender wal_;
  size_t wal_appends_ = 0;
};

/// One replayable ingest event: `session` is a slot in [0, num_sessions).
struct IngestEvent {
  size_t session = 0;
  std::vector<double> values;
};

/// Deterministic serving workload from a dataset: slot s streams instance
/// s % data.size() point by point; arrivals are interleaved round-robin with
/// a per-round seeded shuffle (live traffic does not arrive sorted by
/// session). A pure function of (data, num_sessions, seed) — the same trace
/// replays bit-identically anywhere.
std::vector<IngestEvent> BuildReplayTrace(const Dataset& data,
                                          size_t num_sessions, uint64_t seed);

/// Outcome of one replayed session, comparable bit-for-bit. The trigger
/// metadata (halt step, earliness ratio, confidence at halt) participates in
/// the equality, so the batched-vs-sequential contract covers it too.
struct ReplayOutcome {
  int label = 0;
  size_t prefix_length = 0;
  bool via_finish = false;   // decided only when forced at end of stream
  bool failed = false;       // classifier error (label/prefix meaningless)
  size_t halt_step = 0;      // observations ingested at the decision
  double earliness = 1.0;    // prefix_length / halt_step
  double confidence = 1.0;   // trigger confidence at the halt

  bool operator==(const ReplayOutcome&) const = default;
};

/// Reference semantics: replays the trace through one StreamingSession per
/// slot, strictly sequentially (the pre-serving single-caller path).
/// Undecided sessions are Finish()ed at end of trace.
std::vector<ReplayOutcome> ReplaySequential(const EarlyClassifier& model,
                                            size_t num_variables,
                                            size_t num_sessions,
                                            const std::vector<IngestEvent>& trace);

/// Replays the trace through `engine` (model must already be registered as
/// `model_name`): opens one session per slot, ingests events in order,
/// dispatches a batch every `dispatch_every` events (0 = one dispatch at the
/// end), and Finish()es undecided sessions. The returned outcomes must be
/// bit-identical to ReplaySequential for any dispatch_every and any
/// ETSC_THREADS — the serving engine's core contract (test-asserted). On a
/// fresh engine, slot s is session id s + 1 (ids are assigned sequentially
/// from 1), which is the mapping ResumeReplayThroughEngine relies on.
Result<std::vector<ReplayOutcome>> ReplayThroughEngine(
    ServingEngine& engine, const std::string& model_name, size_t num_sessions,
    const std::vector<IngestEvent>& trace, size_t dispatch_every);

/// Continues a replay on a Recover()ed engine: slot s maps to session id
/// s + 1 (re-opened when missing); each slot skips the `ingested`
/// observations the WAL already delivered and ingests the remainder of the
/// trace at the same cadence, then Finish()es undecided sessions. A crashed
/// replay resumed through this function yields outcomes bit-identical to an
/// uncrashed ReplayThroughEngine/ReplaySequential over the full trace — the
/// chaos-drill contract (check.sh).
Result<std::vector<ReplayOutcome>> ResumeReplayThroughEngine(
    ServingEngine& engine, const std::string& model_name, size_t num_sessions,
    const std::vector<IngestEvent>& trace, size_t dispatch_every);

}  // namespace etsc

#endif  // ETSC_CORE_SERVING_H_
