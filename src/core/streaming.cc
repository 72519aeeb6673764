#include "core/streaming.h"

#include <algorithm>
#include <utility>

#include "core/counters.h"
#include "core/evaluation.h"

namespace etsc {

namespace {

Counter& Pushes() {
  static Counter& c = MetricRegistry::Global().counter("streaming.pushes");
  return c;
}
Counter& Decisions() {
  static Counter& c = MetricRegistry::Global().counter("streaming.decisions");
  return c;
}
Counter& SessionsReset() {
  static Counter& c =
      MetricRegistry::Global().counter("streaming.sessions_reset");
  return c;
}
Counter& BufferShrinks() {
  static Counter& c =
      MetricRegistry::Global().counter("streaming.buffer_shrinks");
  return c;
}
Histogram& PushSeconds() {
  static Histogram& h =
      MetricRegistry::Global().histogram("streaming.push_seconds");
  return h;
}

}  // namespace

StreamingSession::StreamingSession(const EarlyClassifier& classifier,
                                   size_t num_variables,
                                   size_t expected_length)
    : classifier_(classifier),
      buffer_(num_variables, 0),
      expected_length_(expected_length) {
  ETSC_CHECK(num_variables >= 1);
  if (expected_length_ > 0) buffer_.ReserveLength(expected_length_);
}

Result<std::optional<EarlyPrediction>> StreamingSession::Push(
    const std::vector<double>& values) {
  // Arity is validated before anything else — including the sticky-decision
  // shortcut — so a malformed observation is always reported and can never
  // leave the buffer with ragged channels.
  if (values.size() != buffer_.num_variables()) {
    return Status::InvalidArgument(
        "StreamingSession: observation has " + std::to_string(values.size()) +
        " values, expected " + std::to_string(buffer_.num_variables()));
  }
  if (decision_.has_value()) return decision_;
  Stopwatch push_timer;
  buffer_.AppendObservation(values);
  ++observed_;
  if (MetricsEnabled()) Pushes().Add(1);

  if (cursor_ == nullptr) cursor_ = classifier_.NewCursor();
  auto advanced = cursor_->Advance(buffer_);
  // The latency histogram is the Figure-13 quantity: what one arriving point
  // costs, decision or not, success or failure.
  if (MetricsEnabled()) PushSeconds().Record(push_timer.Seconds());
  ETSC_ASSIGN_OR_RETURN(std::optional<EarlyPrediction> pred,
                        std::move(advanced));
  if (!pred.has_value()) return pred;
  // The cursor commits only strictly inside the buffer, so the ratio is < 1.
  Commit(*pred, static_cast<double>(pred->prefix_length) /
                    static_cast<double>(observed_),
         /*forced=*/false);
  return decision_;
}

void StreamingSession::Commit(const EarlyPrediction& pred, double earliness,
                              bool forced) {
  decision_ = pred;
  meta_ = DecisionMeta{observed_, earliness, pred.confidence, forced};
  cursor_.reset();
  if (MetricsEnabled()) Decisions().Add(1);
}

Result<EarlyPrediction> StreamingSession::Finish() {
  // Sticky exactly like Push: a decided session keeps answering without
  // re-running the classifier, whether the decision came from a Push or from
  // a previous Finish.
  if (decision_.has_value()) return *decision_;
  if (observed_ == 0) {
    return Status::InvalidArgument(
        "StreamingSession: Finish() with no observations");
  }
  ETSC_ASSIGN_OR_RETURN(EarlyPrediction pred, cursor_->Finish(buffer_));
  Commit(pred,
         std::min(1.0, static_cast<double>(pred.prefix_length) /
                           static_cast<double>(observed_)),
         /*forced=*/true);
  return pred;
}

void StreamingSession::Reset() {
  // Shrink rule: one unusually long stream must not pin its capacity for the
  // session's whole lifetime. Anything up to the expected length (plus the
  // geometric-growth headroom of one doubling) is kept for reuse; beyond
  // that, release and re-reserve the hint.
  const size_t keep =
      2 * PaddedLength(std::max(expected_length_, size_t{256}));
  if (buffer_.capacity() > keep) {
    buffer_.ReleaseCapacity();
    if (expected_length_ > 0) buffer_.ReserveLength(expected_length_);
    if (MetricsEnabled()) BufferShrinks().Add(1);
  } else {
    buffer_.ClearValues();
  }
  observed_ = 0;
  decision_.reset();
  meta_.reset();
  cursor_.reset();
  if (MetricsEnabled()) SessionsReset().Add(1);
}

}  // namespace etsc
