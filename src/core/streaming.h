#ifndef ETSC_CORE_STREAMING_H_
#define ETSC_CORE_STREAMING_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/classifier.h"

namespace etsc {

/// Trigger decision metadata captured at the instant a session commits: at
/// which step the trigger halted, how early that was relative to what had
/// been observed, and how confident the trigger claimed to be. Derived purely
/// from the decision-time state, so the batched serving path reproduces it
/// bit-identically to the sequential one.
struct DecisionMeta {
  size_t halt_step = 0;     // observations ingested when the decision landed
  double earliness = 1.0;   // prefix_length / halt_step; 1 = needed it all
  double confidence = 1.0;  // EarlyPrediction::confidence at the halt
  bool forced = false;      // decision came from Finish(), not a trigger halt

  bool operator==(const DecisionMeta&) const = default;
};

/// Online wrapper around a trained EarlyClassifier for the paper's streaming
/// setting (Sec. 6.2.5): measurements arrive one time-point at a time and the
/// session reports the moment the algorithm commits.
///
/// The session owns the classifier's PredictCursor: each Push advances it
/// over the observed prefix, and a decision is "ready" once the algorithm
/// commits strictly inside what has actually been observed. A composed
/// classifier's cursor resumes its checkpoint walk, so a point costs only
/// the checkpoints it completes; any other classifier gets the default
/// cursor, one PredictEarly over the whole prefix per point. Finish forces
/// the cursor's end-of-stream answer, exactly PredictEarly on the prefix.
///
/// Metrics: streaming.pushes / streaming.decisions / streaming.sessions_reset
/// counters, and a streaming.push_seconds histogram of per-Push latency — the
/// incremental cost of one arriving point, which is the quantity Figure 13's
/// online-feasibility analysis compares to the observation period.
class StreamingSession {
 public:
  /// `classifier` must outlive the session and already be fitted; taking a
  /// reference makes the non-null requirement part of the signature.
  /// `num_variables` is the expected channel count per observation.
  /// `expected_length` (optional) pre-reserves buffer capacity for streams of
  /// that length, so the steady-state push path never reallocates; it also
  /// bounds the capacity a reused session keeps across Reset().
  StreamingSession(const EarlyClassifier& classifier, size_t num_variables,
                   size_t expected_length = 0);

  /// Appends one observation (one value per variable) and advances the
  /// cursor. Returns the decision if the classifier committed with this
  /// point, std::nullopt otherwise. Once a decision is made, further pushes
  /// keep returning it without re-running the classifier. An observation
  /// whose arity differs from `num_variables` is rejected with
  /// InvalidArgument before touching the buffer (even after a decision), so
  /// the buffer can never go ragged.
  Result<std::optional<EarlyPrediction>> Push(const std::vector<double>& values);

  /// Forces a decision on whatever has been observed (end of stream).
  /// A session with zero observations has nothing to decide on and reports
  /// InvalidArgument. The forced decision is as sticky as a Push one: further
  /// Finish() and Push() calls keep returning it without re-running the
  /// classifier.
  Result<EarlyPrediction> Finish();

  /// Number of observations pushed so far.
  size_t observed() const { return observed_; }

  /// The decision, if one has been made.
  const std::optional<EarlyPrediction>& decision() const { return decision_; }

  /// Metadata of the decision (halt step, earliness ratio, confidence,
  /// whether it was forced by Finish); engaged exactly when decision() is.
  const std::optional<DecisionMeta>& decision_meta() const { return meta_; }

  /// Per-channel buffer capacity in time-points (what Reset()'s shrink rule
  /// operates on; exposed so capacity regressions are testable).
  size_t buffer_capacity() const { return buffer_.capacity(); }

  /// Clears the buffer, the decision and the cursor for the next stream
  /// (counted as streaming.sessions_reset); its first Push makes a fresh
  /// cursor. Capacity inflated far
  /// beyond the expected length by one unusually long stream is released
  /// (counted as streaming.buffer_shrinks), so a long-lived reused session
  /// cannot pin the peak stream's RSS forever.
  void Reset();

 private:
  /// Records the decision (sticky) and releases the cursor.
  void Commit(const EarlyPrediction& pred, double earliness, bool forced);

  const EarlyClassifier& classifier_;
  /// Per-stream walk state: made by a stream's first Push, released once
  /// the session decides, so idle and decided sessions hold none.
  std::unique_ptr<PredictCursor> cursor_;
  TimeSeries buffer_;
  size_t observed_ = 0;
  size_t expected_length_;
  std::optional<EarlyPrediction> decision_;
  std::optional<DecisionMeta> meta_;
};

}  // namespace etsc

#endif  // ETSC_CORE_STREAMING_H_
