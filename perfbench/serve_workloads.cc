// serve-predict and serve-durable: a closed-loop replay of BuildReplayTrace
// over PowerCons through core/serving's ServingEngine, timed call by call
// from the outside and checked against ReplaySequential on every repetition.
//
// serve-predict serves 1nn+ects-mpl with the WAL off: the classifier does
// almost all the work (sessions halt late, so most pushes re-run
// PredictEarly). serve-durable serves 1nn+prob with the session WAL on: it
// journals the first half of the trace, abandons the engine, Recover()s a
// fresh one from the WAL and resumes the rest. Sessions halt early, so most
// events are post-decision discards and the WAL write and recovery read paths
// dominate.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/composed.h"
#include "core/counters.h"
#include "core/json.h"
#include "core/parallel.h"
#include "core/serving.h"
#include "data/repository.h"
#include "perfbench/ledger.h"

namespace perfbench {
namespace {

constexpr size_t kSessions = 4000;
/// Pool width of the pooled replays in traced serve-predict runs.
constexpr size_t kPooledWidth = 4;
constexpr size_t kDispatchEvery = 256;
constexpr size_t kSetupReps = 9;
constexpr char kDataset[] = "PowerCons";
constexpr char kModelName[] = "ledger";

/// Forwarding EarlyClassifier that times every PredictEarly of the served
/// model (traced runs only). ects-mpl and prob are self-contained triggers,
/// so this is the whole base-predict + trigger-decide cost.
class TimedClassifier final : public etsc::EarlyClassifier {
 public:
  TimedClassifier(std::shared_ptr<const etsc::EarlyClassifier> inner,
                  SampleBuffer* predict_us, std::atomic<uint64_t>* halts)
      : inner_(std::move(inner)), predict_us_(predict_us), halts_(halts) {}

  etsc::Status Fit(const etsc::Dataset&) override {
    return etsc::Status::FailedPrecondition(
        "TimedClassifier only wraps an already fitted model");
  }
  etsc::Result<etsc::EarlyPrediction> PredictEarly(
      const etsc::TimeSeries& series) const override {
    const int64_t start = NowNs();
    auto out = inner_->PredictEarly(series);
    predict_us_->Record(static_cast<float>(NowNs() - start) * 1e-3f);
    if (out.ok() && out->prefix_length < series.length()) {
      halts_->fetch_add(1, std::memory_order_relaxed);
    }
    return out;
  }
  std::string name() const override { return inner_->name(); }
  bool SupportsMultivariate() const override {
    return inner_->SupportsMultivariate();
  }
  std::unique_ptr<etsc::EarlyClassifier> CloneUntrained() const override {
    return inner_->CloneUntrained();
  }
  std::string config_fingerprint() const override {
    return inner_->config_fingerprint();
  }

 private:
  std::shared_ptr<const etsc::EarlyClassifier> inner_;
  SampleBuffer* predict_us_;
  std::atomic<uint64_t>* halts_;
};

/// Fitted model plus trace: everything a repetition needs.
struct Served {
  etsc::Dataset data;
  std::shared_ptr<const etsc::EarlyClassifier> model;
  std::vector<etsc::IngestEvent> trace;
  double generate_s = 0.0;
};

/// Data generation, Fit and trace build — the set-up the ledger times.
etsc::Result<Served> SetUp(const std::string& spec, uint64_t seed) {
  Served served;
  const int64_t start = NowNs();
  ETSC_ASSIGN_OR_RETURN(etsc::BenchmarkDataset benchmark,
                        etsc::MakeBenchmarkDataset(kDataset));
  served.data = std::move(benchmark.data);
  served.data.FillMissingValues();
  served.generate_s = static_cast<double>(NowNs() - start) * 1e-9;
  ETSC_ASSIGN_OR_RETURN(std::unique_ptr<etsc::EarlyClassifier> model,
                        etsc::MakeComposedFromSpec(spec));
  ETSC_RETURN_NOT_OK(model->Fit(served.data));
  served.model = std::move(model);
  served.trace = etsc::BuildReplayTrace(served.data, kSessions, seed);
  return served;
}

/// Timestamps of one repetition — enough to place every decision after the
/// fact. A "batch" is any call that dispatches queued observations: a
/// DispatchBatch, or the dispatch inside Recover.
struct Timeline {
  struct Batch {
    size_t events;  // trace events ingested before the call
    int64_t end_ns;
    bool recover;   // the dispatch inside Recover, not a DispatchBatch
  };
  std::vector<int64_t> ingest_ns;  // per trace event: start of its Ingest
  std::vector<Batch> batches;      // in call order, so `events` ascends
  std::vector<int64_t> finish_ns;  // per slot: return of its Finish, or 0

  explicit Timeline(size_t events) : ingest_ns(events, 0), finish_ns(kSessions, 0) {}
};

/// Times one engine call into `spans` (traced) and returns its end.
template <typename Call>
int64_t Timed(SpanLog* spans, const char* name, uint64_t id, Call&& call) {
  const int64_t start = NowNs();
  call();
  const int64_t end = NowNs();
  if (spans != nullptr) spans->Add(name, id, start, end);
  return end;
}

/// Ingests trace[begin, end) into `ids`, dispatching every kDispatchEvery
/// events (the closed loop), plus a final dispatch when `tail` is set.
void Feed(etsc::ServingEngine& engine, const std::vector<etsc::SessionId>& ids,
          const std::vector<etsc::IngestEvent>& trace, size_t begin,
          size_t end, bool tail, Timeline* timeline, SpanLog* spans,
          Ops* ops) {
  const auto dispatch = [&](size_t events) {
    const int64_t done = Timed(spans, "DispatchBatch", timeline->batches.size(),
                               [&] { ops->Count(engine.DispatchBatch().ok()); });
    timeline->batches.push_back({events, done, false});
  };
  size_t since = 0;
  for (size_t e = begin; e < end; ++e) {
    const etsc::IngestEvent& event = trace[e];
    const int64_t start = NowNs();
    timeline->ingest_ns[e] = start;
    ops->Count(engine.Ingest(ids[event.session], event.values).ok());
    if (spans != nullptr) spans->Add("Ingest", ids[event.session], start, NowNs());
    if (++since >= kDispatchEvery) {
      since = 0;
      dispatch(e + 1);
    }
  }
  if (tail) dispatch(end);
}

std::vector<etsc::SessionId> OpenAll(etsc::ServingEngine& engine,
                                     SpanLog* spans, Ops* ops) {
  std::vector<etsc::SessionId> ids(kSessions, 0);
  for (size_t s = 0; s < kSessions; ++s) {
    Timed(spans, "Open", s + 1, [&] {
      auto id = engine.Open(kModelName);
      ops->Count(id.ok());
      if (id.ok()) ids[s] = *id;
    });
  }
  return ids;
}

/// Reads every slot's outcome, Finish()ing the undecided ones — the same
/// rules as etsc::ReplayThroughEngine's collection step, with the Finish
/// calls timed.
std::vector<etsc::ReplayOutcome> Collect(
    etsc::ServingEngine& engine, const std::vector<etsc::SessionId>& ids,
    Timeline* timeline, SpanLog* spans, Ops* ops) {
  std::vector<etsc::ReplayOutcome> outcomes(ids.size());
  for (size_t s = 0; s < ids.size(); ++s) {
    auto info = engine.Info(ids[s]);
    ops->Count(info.ok() || info.status().code() == etsc::StatusCode::kNotFound);
    if (info.ok() && info->decision.has_value()) {
      const etsc::DecisionMeta& meta = *info->meta;
      outcomes[s] = {info->decision->label, info->decision->prefix_length,
                     info->deadline_forced, false,
                     meta.halt_step,        meta.earliness,
                     meta.confidence};
      continue;
    }
    if (!info.ok() && info.status().code() != etsc::StatusCode::kNotFound) {
      outcomes[s].failed = true;  // sticky session error
      continue;
    }
    etsc::Result<etsc::EarlyPrediction> finished =
        etsc::Status::Internal("not finished");
    timeline->finish_ns[s] = Timed(spans, "Finish", ids[s], [&] {
      finished = engine.Finish(ids[s]);
    });
    ops->Count(finished.ok());
    if (!finished.ok()) {
      outcomes[s].failed = true;
      continue;
    }
    auto after = engine.Info(ids[s]);
    ops->Count(after.ok());
    const etsc::DecisionMeta meta = after.ok() && after->meta.has_value()
                                        ? *after->meta
                                        : etsc::DecisionMeta{};
    outcomes[s] = {finished->label, finished->prefix_length, true, false,
                   meta.halt_step,  meta.earliness,          meta.confidence};
  }
  return outcomes;
}

/// Bit-identity check of one repetition against the sequential reference;
/// each slot is one attempted check.
void Check(const std::vector<etsc::ReplayOutcome>& actual,
           const std::vector<etsc::ReplayOutcome>& expected, Ops* ops) {
  for (size_t s = 0; s < expected.size(); ++s) {
    ops->Count(s < actual.size() && actual[s] == expected[s]);
  }
}

/// Per-slot trace index of the observation each session halted on
/// (halt_step-th event of the slot); SIZE_MAX when the slot has no such
/// event (a failed session).
std::vector<size_t> HaltEvents(const std::vector<etsc::IngestEvent>& trace,
                               const std::vector<etsc::ReplayOutcome>& outcomes) {
  std::vector<size_t> seen(kSessions, 0);
  std::vector<size_t> halt(kSessions, SIZE_MAX);
  for (size_t e = 0; e < trace.size(); ++e) {
    const size_t s = trace[e].session;
    if (++seen[s] == outcomes[s].halt_step && !outcomes[s].failed) halt[s] = e;
  }
  return halt;
}

/// Decision latency per slot in microseconds: from the Ingest of the halting
/// observation to the return of the batch (or Finish) that produced the
/// decision. A slot whose producer cannot be placed counts as a failure.
std::vector<double> DecisionLatenciesUs(
    const Timeline& timeline, const std::vector<size_t>& halt_events,
    const std::vector<etsc::ReplayOutcome>& outcomes, Ops* ops) {
  std::vector<double> latencies;
  latencies.reserve(kSessions);
  for (size_t s = 0; s < kSessions; ++s) {
    if (outcomes[s].failed) continue;
    const size_t e = halt_events[s];
    int64_t produced = 0;
    if (e != SIZE_MAX) {
      if (outcomes[s].via_finish) {
        produced = timeline.finish_ns[s];
      } else {
        const auto batch = std::upper_bound(
            timeline.batches.begin(), timeline.batches.end(), e,
            [](size_t event, const Timeline::Batch& b) { return event < b.events; });
        if (batch != timeline.batches.end()) produced = batch->end_ns;
      }
    }
    const bool placed = produced > 0 && produced >= timeline.ingest_ns[e];
    ops->Count(placed);
    if (placed) {
      latencies.push_back(static_cast<double>(produced - timeline.ingest_ns[e]) *
                          1e-3);
    }
  }
  return latencies;
}

/// Mean distinct sessions per DispatchBatch: the sessions each call had to
/// claim, known from the trace and the batch boundaries.
double SessionsPerDispatch(const std::vector<etsc::IngestEvent>& trace,
                           const Timeline& timeline) {
  std::vector<size_t> last_batch(kSessions, SIZE_MAX);
  size_t prev = 0;
  double total = 0.0;
  size_t batches = 0;
  for (size_t b = 0; b < timeline.batches.size(); ++b) {
    const size_t upto = timeline.batches[b].events;
    size_t distinct = 0;
    for (size_t e = prev; e < upto; ++e) {
      const size_t s = trace[e].session;
      if (last_batch[s] != b) {
        last_batch[s] = b;
        ++distinct;
      }
    }
    prev = upto;
    if (timeline.batches[b].recover) continue;
    total += static_cast<double>(distinct);
    ++batches;
  }
  return batches == 0 ? 0.0 : total / static_cast<double>(batches);
}

/// Share of events that arrived after their session had decided (accepted,
/// journaled when the WAL is on, then discarded at dispatch).
double DiscardedFrac(const std::vector<etsc::IngestEvent>& trace,
                     const std::vector<etsc::ReplayOutcome>& outcomes) {
  std::vector<size_t> length(kSessions, 0);
  for (const etsc::IngestEvent& event : trace) ++length[event.session];
  double discarded = 0.0;
  for (size_t s = 0; s < kSessions; ++s) {
    if (!outcomes[s].failed && outcomes[s].halt_step <= length[s]) {
      discarded += static_cast<double>(length[s] - outcomes[s].halt_step);
    }
  }
  return trace.empty() ? 0.0 : discarded / static_cast<double>(trace.size());
}

double RegistryCounter(const char* name) {
  return static_cast<double>(
      etsc::MetricRegistry::Global().counter(name).value());
}

double FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size) : 0.0;
}

/// What one repetition measured.
struct Rep {
  double wall_s = 0.0;         // timed phases
  double recover_s = 0.0;      // serve-durable only
  double live_feed_s = 0.0;    // serve-durable: journaled half, ingest+dispatch
  size_t live_events = 0;
  size_t observations_replayed = 0;
  double wal_appends = 0.0;
  double wal_bytes = 0.0;
  std::vector<double> latencies_us;
  Timeline timeline;

  explicit Rep(size_t events) : timeline(events) {}
};

/// Everything shared by both serving workloads.
struct ServeRun {
  const Options& options;
  Served served;
  std::vector<etsc::ReplayOutcome> reference;
  std::vector<size_t> halt_events;
  double setup_s = 0.0;
  double generate_s = 0.0;
  double reference_s = 0.0;
  Ops ops;
};

etsc::Status Prepare(const std::string& spec, ServeRun* run) {
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  for (size_t i = 0; i < kSetupReps; ++i) {
    const int64_t start = NowNs();
    auto served = SetUp(spec, run->options.seed);
    run->ops.Count(served.ok());
    if (!served.ok()) return served.status();
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    generate_s.push_back(served->generate_s);
    run->served = std::move(*served);
  }
  run->setup_s = Median(setup_s);
  run->generate_s = Median(generate_s);
  // The reference is computed untimed, once, from the unwrapped model.
  const int64_t start = NowNs();
  run->reference = etsc::ReplaySequential(
      *run->served.model, run->served.data.NumVariables(), kSessions,
      run->served.trace);
  run->reference_s = static_cast<double>(NowNs() - start) * 1e-9;
  run->halt_events = HaltEvents(run->served.trace, run->reference);
  return etsc::Status::OK();
}

/// The model a repetition serves: the fitted model itself, or (traced) the
/// timing wrapper around it.
std::shared_ptr<const etsc::EarlyClassifier> ServedModel(
    const ServeRun& run, bool traced, SampleBuffer* predict_us,
    std::atomic<uint64_t>* halts) {
  if (!traced) return run.served.model;
  return std::make_shared<TimedClassifier>(run.served.model, predict_us, halts);
}

etsc::ServingOptions EngineOptions(const ServeRun& run) {
  etsc::ServingOptions options;  // defaults, never the ETSC_SERVE_* env
  options.expected_length = run.served.data.MaxLength();
  return options;
}

/// serve-predict repetition: open, replay the whole trace, collect.
Rep RunPredictRep(ServeRun& run, bool traced, SpanLog* spans,
                  SampleBuffer* predict_us, std::atomic<uint64_t>* halts) {
  const auto& trace = run.served.trace;
  Rep rep(trace.size());
  etsc::ServingEngine engine(EngineOptions(run));
  run.ops.Count(engine
                    .RegisterModel(kModelName,
                                   ServedModel(run, traced, predict_us, halts),
                                   run.served.data.NumVariables())
                    .ok());
  const int64_t start = NowNs();
  const auto ids = OpenAll(engine, spans, &run.ops);
  Feed(engine, ids, trace, 0, trace.size(), /*tail=*/true, &rep.timeline,
       spans, &run.ops);
  const auto outcomes = Collect(engine, ids, &rep.timeline, spans, &run.ops);
  rep.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  Check(outcomes, run.reference, &run.ops);
  rep.latencies_us =
      DecisionLatenciesUs(rep.timeline, run.halt_events, run.reference, &run.ops);
  return rep;
}

/// serve-durable repetition: journal the first half, abandon the engine,
/// Recover a fresh one from the WAL, resume the rest, collect.
Rep RunDurableRep(ServeRun& run, bool traced, SpanLog* spans,
                  SampleBuffer* predict_us, std::atomic<uint64_t>* halts) {
  const auto& trace = run.served.trace;
  const size_t half = trace.size() / 2;
  const std::string wal = run.options.ledger_dir + "/serve-durable.wal";
  std::remove(wal.c_str());
  std::remove((wal + ".stale").c_str());
  Rep rep(trace.size());
  const auto model = ServedModel(run, traced, predict_us, halts);
  const size_t arity = run.served.data.NumVariables();

  double journal_s = 0.0;
  {
    etsc::ServingOptions options = EngineOptions(run);
    options.wal_path = wal;
    etsc::ServingEngine engine(options);
    run.ops.Count(engine.RegisterModel(kModelName, model, arity).ok());
    const int64_t start = NowNs();
    const auto ids = OpenAll(engine, spans, &run.ops);
    const int64_t fed = NowNs();
    Feed(engine, ids, trace, 0, half, /*tail=*/false, &rep.timeline, spans,
         &run.ops);
    const int64_t end = NowNs();
    journal_s = static_cast<double>(end - start) * 1e-9;
    rep.live_feed_s = static_cast<double>(end - fed) * 1e-9;
    rep.live_events = half;
    rep.wal_appends += static_cast<double>(engine.stats().wal_appends);
  }  // abandoned: no Finish, no Close — what a killed process leaves behind

  etsc::ServingEngine engine(EngineOptions(run));
  run.ops.Count(engine.RegisterModel(kModelName, model, arity).ok());
  etsc::Result<etsc::WalRecovery> recovery =
      etsc::Status::Internal("not recovered");
  const int64_t recover_start = NowNs();
  const int64_t recovered_at =
      Timed(spans, "Recover", 0, [&] { recovery = engine.Recover(wal); });
  run.ops.Count(recovery.ok());
  rep.recover_s = static_cast<double>(recovered_at - recover_start) * 1e-9;
  if (recovery.ok()) rep.observations_replayed = recovery->observations_replayed;
  rep.timeline.batches.push_back({half, recovered_at, true});

  // Resume: slot s is session s + 1, and the WAL must have carried exactly
  // the slot's share of the first half.
  const int64_t resume_start = NowNs();
  std::vector<size_t> journaled(kSessions, 0);
  for (size_t e = 0; e < half; ++e) ++journaled[trace[e].session];
  std::vector<etsc::SessionId> ids(kSessions, 0);
  for (size_t s = 0; s < kSessions; ++s) {
    ids[s] = s + 1;
    auto info = engine.Info(ids[s]);
    run.ops.Count(info.ok() && info->ingested == journaled[s]);
  }
  Feed(engine, ids, trace, half, trace.size(), /*tail=*/true, &rep.timeline,
       spans, &run.ops);
  const auto outcomes = Collect(engine, ids, &rep.timeline, spans, &run.ops);
  const int64_t resume_end = NowNs();
  rep.wall_s = journal_s + rep.recover_s +
               static_cast<double>(resume_end - resume_start) * 1e-9;
  rep.wal_appends += static_cast<double>(engine.stats().wal_appends);
  rep.wal_bytes = FileBytes(wal);
  std::remove(wal.c_str());
  Check(outcomes, run.reference, &run.ops);
  rep.latencies_us =
      DecisionLatenciesUs(rep.timeline, run.halt_events, run.reference, &run.ops);
  return rep;
}

using RepFn = Rep (*)(ServeRun&, bool, SpanLog*, SampleBuffer*,
                      std::atomic<uint64_t>*);

Outcome RunServe(const Options& options, const std::string& spec,
                 RepFn run_rep, bool durable) {
  ServeRun run{options, {}, {}, {}, 0.0, 0.0, 0.0, {}};
  Outcome outcome;
  const etsc::Status prepared = Prepare(spec, &run);
  if (!prepared.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 prepared.ToString().c_str());
    outcome.ops = run.ops;
    return outcome;
  }
  const auto& trace = run.served.trace;
  const double events = static_cast<double>(trace.size());

  // Untraced repetitions give the end-to-end numbers; with --trace 1 they
  // alternate with traced ones, which give the per-layer numbers and the
  // trace overhead (traced wall over untraced wall). Traced serve-predict
  // runs add an untraced replay on a kPooledWidth pool, so the ledger keeps
  // the pooled-dispatch speed-up over the serial engine.
  const size_t serial_width = etsc::MaxParallelism();
  const size_t pooled_width = std::min<size_t>(
      kPooledWidth, std::max(1u, std::thread::hardware_concurrency()));
  const size_t cycle = !options.trace ? 1 : durable ? 2 : 3;
  std::vector<double> wall, traced_wall, pooled_wall, p50, p99, recover;
  std::vector<double> dispatch_p50, dispatch_p99, ingest_p50, ingest_p99;
  std::vector<double> predict_p50, predict_p99, traced_recover, recover_per_obs;
  std::vector<double> live_per_event;
  double dispatch_calls = 0, sessions_per_dispatch = 0, wal_appends = 0;
  double wal_bytes_per_row = 0, predict_calls = 0, halts_per_predict = 0;
  double samples = 0, nn_scanned = 0, nn_abandon_frac = 0, prefix_sq = 0;
  double windows = 0;
  SpanLog spans;
  SampleBuffer predict_us(trace.size() + 2 * kSessions);
  std::atomic<uint64_t> halts{0};
  const size_t reps = Repeat(options.seconds, std::max<size_t>(cycle, 3), [&](size_t i) {
    const bool traced = i % cycle == 1;
    const bool pooled = i % cycle == 2;
    spans.Clear();
    predict_us.Reset();
    halts.store(0);
    etsc::MetricRegistry::Global().ResetAll();
    if (pooled) etsc::SetMaxParallelism(pooled_width);
    const Rep rep = run_rep(run, traced, traced ? &spans : nullptr,
                            &predict_us, &halts);
    if (pooled) {
      etsc::SetMaxParallelism(serial_width);
      pooled_wall.push_back(rep.wall_s);
      return;
    }
    std::vector<double> latencies = rep.latencies_us;
    samples = static_cast<double>(latencies.size());
    if (!traced) {
      wall.push_back(rep.wall_s);
      p50.push_back(Quantile(latencies, 0.50));
      p99.push_back(Quantile(latencies, 0.99));
      recover.push_back(rep.recover_s);
      return;
    }
    traced_wall.push_back(rep.wall_s);
    std::vector<double> dispatch_ms = spans.DurationsUs("DispatchBatch");
    for (double& d : dispatch_ms) d *= 1e-3;
    dispatch_p50.push_back(Quantile(dispatch_ms, 0.50));
    dispatch_p99.push_back(Quantile(dispatch_ms, 0.99));
    std::vector<double> ingest = spans.DurationsUs("Ingest");
    ingest_p50.push_back(Quantile(ingest, 0.50));
    ingest_p99.push_back(Quantile(ingest, 0.99));
    std::vector<double> predicts = predict_us.Values();
    predict_p50.push_back(Quantile(predicts, 0.50));
    predict_p99.push_back(Quantile(predicts, 0.99));
    dispatch_calls = static_cast<double>(dispatch_ms.size());
    sessions_per_dispatch = SessionsPerDispatch(trace, rep.timeline);
    predict_calls = static_cast<double>(predict_us.count());
    halts_per_predict =
        predict_calls > 0 ? static_cast<double>(halts.load()) / predict_calls : 0;
    wal_appends = rep.wal_appends;
    wal_bytes_per_row = rep.wal_appends > 0 ? rep.wal_bytes / rep.wal_appends : 0;
    if (durable) {
      traced_recover.push_back(rep.recover_s);
      if (rep.observations_replayed > 0) {
        recover_per_obs.push_back(rep.recover_s * 1e6 /
                                  static_cast<double>(rep.observations_replayed));
      }
      live_per_event.push_back(rep.live_feed_s * 1e6 /
                               static_cast<double>(rep.live_events));
    }
    nn_scanned = RegistryCounter("nn.candidates_scanned");
    nn_abandon_frac =
        nn_scanned > 0 ? RegistryCounter("nn.candidates_abandoned") / nn_scanned : 0;
    prefix_sq = RegistryCounter("distance.prefix_sq_calls");
    windows = RegistryCounter("distance.subseries_windows");
    spans.WriteChromeJson(options.ledger_dir + "/" + options.workload +
                              ".trace.json",
                          "Ingest");
  });

  outcome.ops = run.ops;
  if (!options.trace) {
    outcome.end_to_end = {
        {"events_per_s", events / Median(wall)},
        {"decision_p50_us", Median(p50)},
        {"decision_p99_us", Median(p99)},
        {"setup_s", run.setup_s},
    };
  } else {
    outcome.per_layer = {
        {"serving.dispatch_ms_p50", Median(dispatch_p50)},
        {"serving.dispatch_ms_p99", Median(dispatch_p99)},
        {"serving.dispatch_calls", dispatch_calls},
        {"serving.sessions_per_dispatch", sessions_per_dispatch},
        {"serving.ingest_us_p50", Median(ingest_p50)},
        {"serving.ingest_us_p99", Median(ingest_p99)},
        {"serving.wal_appends", wal_appends},
        {"serving.wal_bytes_per_row", wal_bytes_per_row},
        {"serving.discarded_frac", DiscardedFrac(trace, run.reference)},
        {"serving.decision_samples", samples},
        {"classifier.predict_calls", predict_calls},
        {"classifier.predict_us_p50", Median(predict_p50)},
        {"classifier.predict_us_p99", Median(predict_p99)},
        {"classifier.predict_calls_per_event", predict_calls / events},
        {"classifier.halts_per_predict", halts_per_predict},
        {"nn.candidates_scanned", nn_scanned},
        {"nn.abandon_frac", nn_abandon_frac},
        {"distance.prefix_sq_calls", prefix_sq},
        {"distance.subseries_windows", windows},
        {"data.generate_s", run.generate_s},
        {"trace.overhead_x", Median(traced_wall) / Median(wall)},
    };
    if (!durable) {
      outcome.per_layer["serving.pooled_speedup_x"] = Median(wall) / Median(pooled_wall);
    } else {
      outcome.per_layer["serving.recover_s"] = Median(traced_recover);
      outcome.per_layer["serving.recover_us_per_obs"] = Median(recover_per_obs);
      outcome.per_layer["serving.live_us_per_event"] = Median(live_per_event);
    }
  }

  size_t via_finish = 0;
  double halt_steps = 0.0;
  for (const auto& o : run.reference) {
    if (o.via_finish) ++via_finish;
    halt_steps += static_cast<double>(o.halt_step);
  }
  etsc::json::Writer w;
  w.BeginObject();
  w.Field("dataset", std::string(kDataset));
  w.Field("model", spec);
  w.Field("sessions", kSessions);
  w.Field("events", trace.size());
  w.Field("dispatch_every", kDispatchEvery);
  w.Field("wal", durable);
  w.Field("pool_width", serial_width);
  if (options.trace && !durable) w.Field("pooled_width", pooled_width);
  w.Field("reps", reps);
  w.Field("decision_samples_per_rep", samples);
  w.Field("finished_sessions", via_finish);
  w.Field("mean_halt_step", halt_steps / static_cast<double>(kSessions));
  w.Field("sequential_reference_s", run.reference_s);
  w.Field("events_per_s_untraced", events / Median(wall));
  w.Key("rep_wall_s").BeginArray();
  for (const double s : wall) w.Number(s);
  w.EndArray();
  if (durable) w.Field("recover_s_untraced", Median(recover));
  w.EndObject();
  outcome.details_json = w.str();
  return outcome;
}

}  // namespace

Outcome RunServePredict(const Options& options) {
  return RunServe(options, "1nn+ects-mpl", &RunPredictRep, /*durable=*/false);
}

Outcome RunServeDurable(const Options& options) {
  return RunServe(options, "1nn+prob", &RunDurableRep, /*durable=*/true);
}

}  // namespace perfbench
