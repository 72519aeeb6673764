#include "core/fault.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "core/deadline.h"
#include "core/env.h"
#include "core/log.h"
#include "core/record_log.h"

namespace etsc {

namespace {

/// Process-wide campaign-cell ordinal per algorithm name: the k-th wrap of
/// one algorithm to reach its first Fit gets ordinal k. Leaked so it is
/// usable from pool threads regardless of static destruction order.
int NextCellOrdinal(const std::string& algorithm) {
  static std::mutex* const mu = new std::mutex();
  static std::map<std::string, int>* const counts =
      new std::map<std::string, int>();
  std::lock_guard<std::mutex> lock(*mu);
  return ++(*counts)[algorithm];
}

/// Armed serving fault: which point dies, at which 1-based hit. A plain
/// atomic pair — the tick path must stay cheap enough to sit inside Ingest.
std::atomic<int> g_serve_fault_point{-1};  // -1 disarmed, else ServeFaultPoint
std::atomic<int> g_serve_fault_ordinal{0};
std::atomic<int> g_serve_fault_hits[2] = {{0}, {0}};

/// The first entry of the comma list `spec` whose target `wanted` accepts,
/// parsed. An entry that fails to parse warns and yields nothing, as if no
/// entry named the target.
template <typename Wanted>
std::optional<FaultSpec> FirstEntryFor(std::string_view spec, Wanted wanted) {
  for (const std::string_view entry : record_log::SplitFields(spec)) {
    if (!wanted(entry.substr(0, entry.find(':')))) continue;
    Result<FaultSpec> parsed = ParseFaultSpec(entry);
    if (parsed.ok()) return std::move(parsed).value();
    Logf(LogLevel::kWarn, "fault", "ignoring invalid %s",
         parsed.status().message().c_str());
    return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

void ArmServeFault(ServeFaultPoint point, int ordinal) {
  g_serve_fault_hits[0].store(0, std::memory_order_relaxed);
  g_serve_fault_hits[1].store(0, std::memory_order_relaxed);
  if (ordinal <= 0) {
    g_serve_fault_point.store(-1, std::memory_order_release);
    return;
  }
  g_serve_fault_ordinal.store(ordinal, std::memory_order_relaxed);
  g_serve_fault_point.store(static_cast<int>(point), std::memory_order_release);
}

void ArmServeFaultFromEnv() {
  const std::optional<FaultSpec> fault =
      FirstEntryFor(env::StringOr("ETSC_FAULT", ""), [](std::string_view t) {
        return t == "ingest" || t == "dispatch";
      });
  // No serving entry, or a malformed one, disarms (ordinal 0).
  ArmServeFault(fault && fault->target == "dispatch"
                    ? ServeFaultPoint::kDispatch
                    : ServeFaultPoint::kIngest,
                fault ? fault->k : 0);
}

void ServeFaultTick(ServeFaultPoint point) {
  if (g_serve_fault_point.load(std::memory_order_acquire) !=
      static_cast<int>(point)) {
    return;
  }
  const int hit = 1 + g_serve_fault_hits[static_cast<int>(point)].fetch_add(
                          1, std::memory_order_acq_rel);
  if (hit == g_serve_fault_ordinal.load(std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "[fault] serving: die-at fault on %s #%d — exiting abruptly "
                 "(code %d), WAL left as a crash would\n",
                 point == ServeFaultPoint::kIngest ? "ingest" : "dispatch",
                 hit, kDieAtExitCode);
    std::_Exit(kDieAtExitCode);
  }
}

Status TruncateTail(const std::string& path, size_t drop_bytes) {
  std::FILE* probe = std::fopen(path.c_str(), "rb");
  if (probe == nullptr) {
    return Status::IOError("TruncateTail: cannot open " + path);
  }
  std::fseek(probe, 0, SEEK_END);
  const long size = std::ftell(probe);
  std::fclose(probe);
  if (size < 0) return Status::IOError("TruncateTail: cannot size " + path);
  const long keep =
      drop_bytes >= static_cast<size_t>(size)
          ? 0
          : size - static_cast<long>(drop_bytes);
  if (truncate(path.c_str(), keep) != 0) {
    return Status::IOError("TruncateTail: truncate failed on " + path);
  }
  return Status::OK();
}

void BurnWallClock(double seconds) {
  if (seconds <= 0.0) return;
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(seconds));
  volatile uint64_t sink = 0;
  while (std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<uint64_t>(i);
  }
}

FaultyClassifier::FaultyClassifier(std::unique_ptr<EarlyClassifier> inner,
                                   FaultOptions options)
    : inner_(std::move(inner)),
      options_(options),
      rng_(options.seed),
      cell_ordinal_(std::make_shared<std::atomic<int>>(0)) {
  ETSC_CHECK(inner_ != nullptr);
}

void FaultyClassifier::DieAtCell() {
  int ordinal = cell_ordinal_->load(std::memory_order_acquire);
  if (ordinal == 0) {
    // First Fit of this wrap: claim the cell ordinal. Folds racing on the
    // pool agree on one ordinal via the CAS; the loser reuses the winner's.
    const int fresh = NextCellOrdinal(inner_->name());
    int expected = 0;
    if (cell_ordinal_->compare_exchange_strong(expected, fresh,
                                               std::memory_order_acq_rel)) {
      ordinal = fresh;
    } else {
      ordinal = expected;
    }
  }
  if (ordinal == options_.die_at_cell) {
    std::fprintf(stderr,
                 "[fault] %s: die-at fault on cell #%d — exiting abruptly "
                 "(code %d), journal left as a crash would\n",
                 name().c_str(), ordinal, kDieAtExitCode);
    std::_Exit(kDieAtExitCode);
  }
}

Status FaultyClassifier::Hang(const char* op) const {
  // The bug being modelled: the implementation ignores its real budget (it
  // polls an infinite deadline) yet still runs the framework's cooperative
  // checks, so only a CancelToken cancellation can reach it.
  const Deadline unbudgeted = Deadline::Infinite();
  const Deadline safety = Deadline::After(options_.hang_max_seconds);
  volatile uint64_t sink = 0;
  while (!unbudgeted.CheckEvery(1)) {
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<uint64_t>(i);
    if (safety.Expired() && !CancellationRequested()) {
      return Status::Internal(name() + std::string(": ") + op +
                              " hang hit the " +
                              std::to_string(options_.hang_max_seconds) +
                              "s safety valve without a watchdog cancellation");
    }
  }
  return Status::DeadlineExceeded(name() + std::string(": ") + op +
                                  " hang cancelled by watchdog");
}

Status FaultyClassifier::Fit(const Dataset& train) {
  inner_->set_train_budget_seconds(train_budget_seconds());
  inner_->set_predict_budget_seconds(predict_budget_seconds());
  if (options_.die_at_cell > 0) DieAtCell();
  if (failed_attempts_ < options_.flaky_fit_failures) {
    ++failed_attempts_;
    return Status::Unavailable(name() + ": injected flaky fit failure (attempt " +
                               std::to_string(failed_attempts_) + " of " +
                               std::to_string(options_.flaky_fit_failures) +
                               " doomed)");
  }
  if (options_.fit_delay_seconds > 0.0 || options_.fit_failure_rate > 0.0) {
    const Deadline deadline = TrainDeadline();
    BurnWallClock(options_.fit_delay_seconds);
    ETSC_RETURN_NOT_OK(deadline.Check(name() + ": train budget exceeded"));
    if (options_.fit_failure_rate > 0.0 &&
        rng_.Bernoulli(options_.fit_failure_rate)) {
      return Status::Internal(name() + ": injected fit failure");
    }
  }
  if (options_.hang_fit) return Hang("fit");
  return inner_->Fit(train);
}

Result<EarlyPrediction> FaultyClassifier::PredictEarly(
    const TimeSeries& series) const {
  const bool draws = options_.predict_failure_rate > 0.0 ||
                     options_.garbage_prediction_rate > 0.0;
  if (draws || options_.predict_delay_seconds > 0.0) {
    const Deadline deadline = PredictDeadline();
    BurnWallClock(options_.predict_delay_seconds);
    ETSC_RETURN_NOT_OK(deadline.Check(name() + ": predict budget exceeded"));
  }
  if (draws) {
    // One draw decides the injected outcome so the fault stream stays aligned
    // with the call sequence regardless of which rates are enabled.
    const double u = rng_.Uniform();
    if (u < options_.predict_failure_rate) {
      return Status::Internal(name() + ": injected predict failure");
    }
    if (u < options_.predict_failure_rate + options_.garbage_prediction_rate) {
      return EarlyPrediction{std::numeric_limits<int>::max(),
                             series.length() * 2 + 1};
    }
  }
  if (options_.hang_predict) return Hang("predict");
  return inner_->PredictEarly(series);
}

std::string FaultyClassifier::name() const { return "faulty-" + inner_->name(); }

bool FaultyClassifier::SupportsMultivariate() const {
  return inner_->SupportsMultivariate();
}

std::unique_ptr<EarlyClassifier> FaultyClassifier::CloneUntrained() const {
  // Fresh flaky counter and Rng: each fold's fault history is its own. The
  // shared ordinal: a CV fold's clone belongs to its prototype's cell.
  auto clone =
      std::make_unique<FaultyClassifier>(inner_->CloneUntrained(), options_);
  clone->cell_ordinal_ = cell_ordinal_;
  return clone;
}

Result<FaultSpec> ParseFaultSpec(std::string_view entry) {
  const auto invalid = [entry](const std::string& why) {
    return Status::InvalidArgument("ETSC_FAULT entry \"" + std::string(entry) +
                                   "\": " + why);
  };
  const size_t colon = entry.find(':');
  if (colon == 0 || colon == std::string_view::npos) {
    return invalid("want TARGET:KIND[:K]");
  }
  FaultSpec spec;
  spec.target = std::string(entry.substr(0, colon));
  std::string_view kind = entry.substr(colon + 1);
  const size_t param = kind.find(':');
  const std::string_view k =
      param == std::string_view::npos ? "" : kind.substr(param + 1);
  kind = kind.substr(0, param);
  const bool serving = spec.target == "ingest" || spec.target == "dispatch";
  const bool takes_k = kind == "die-at" || (!serving && kind == "flaky");
  const bool known = takes_k || (!serving && (kind == "crash" ||
                                              kind == "hang-fit" ||
                                              kind == "hang-predict"));
  if (!known) {
    return invalid("unknown fault kind \"" + std::string(kind) + "\" (known: " +
                   (serving ? "die-at[:K])"
                            : "flaky[:K], crash, hang-fit, hang-predict, "
                              "die-at[:K])"));
  }
  if (param != std::string_view::npos) {
    if (!takes_k) return invalid(std::string(kind) + " takes no :K");
    const std::optional<int64_t> parsed = env::ParseInteger(k, 1, 1000000000);
    if (!parsed) return invalid("K must be an integer in [1, 1000000000]");
    spec.k = static_cast<int>(*parsed);
  }
  spec.kind = std::string(kind);
  return spec;
}

std::unique_ptr<EarlyClassifier> WrapWithFaults(
    std::string_view spec, const std::string& algorithm,
    std::unique_ptr<EarlyClassifier> classifier) {
  const std::optional<FaultSpec> fault = FirstEntryFor(
      spec, [&algorithm](std::string_view t) { return t == algorithm; });
  if (!fault) return classifier;
  FaultOptions options;
  if (fault->kind == "flaky") {
    // Transient: each fold's Fit fails the first k attempts, then succeeds
    // — recoverable with ETSC_RETRY_MAX >= k, scores identical to clean.
    options.flaky_fit_failures = fault->k;
  } else if (fault->kind == "crash") {
    // Deterministic kInternal on every Fit: fails fast (no retry) and
    // feeds the circuit breaker until the algorithm is quarantined.
    options.fit_failure_rate = 1.0;
  } else if (fault->kind == "die-at") {
    // Abrupt process exit on this algorithm's k-th campaign cell: the
    // journal is left exactly as a SIGKILL would leave it (possibly with a
    // live lease row), which is what the worker-fabric crash drill needs.
    options.die_at_cell = fault->k;
  } else {
    options.hang_fit = fault->kind == "hang-fit";
    options.hang_predict = fault->kind == "hang-predict";
  }
  return std::make_unique<FaultyClassifier>(std::move(classifier), options);
}

Dataset InjectMissingValues(const Dataset& source, double rate, uint64_t seed) {
  Rng rng(seed);
  Dataset corrupted = source;
  if (rate <= 0.0) return corrupted;
  for (size_t i = 0; i < corrupted.size(); ++i) {
    TimeSeries& series = corrupted.instance(i);
    for (size_t v = 0; v < series.num_variables(); ++v) {
      for (size_t t = 0; t < series.length(); ++t) {
        if (rng.Bernoulli(rate)) {
          series.at(v, t) = std::numeric_limits<double>::quiet_NaN();
        }
      }
    }
  }
  return corrupted;
}

}  // namespace etsc
