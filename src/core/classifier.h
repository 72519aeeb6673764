#ifndef ETSC_CORE_CLASSIFIER_H_
#define ETSC_CORE_CLASSIFIER_H_

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/deadline.h"
#include "core/serialize.h"
#include "core/status.h"
#include "core/time_series.h"

namespace etsc {

/// Formats a double for config fingerprints: shortest round-trip-exact,
/// locale-independent representation.
std::string FingerprintDouble(double v);

/// Result of an early classification: the predicted label and how many
/// time-points of the instance the algorithm consumed before committing.
struct EarlyPrediction {
  int label = 0;
  size_t prefix_length = 0;
  /// Trigger confidence in the label at the halt point (best posterior, fused
  /// confidence, ...); 1.0 for algorithms without a probabilistic notion.
  double confidence = 1.0;
};

/// Resumable early prediction over ONE growing stream (DESIGN.md sec 14).
///
/// Every call receives everything observed so far, and each call's prefix
/// extends the previous call's; a cursor may keep per-stream scratch between
/// calls, so an arriving point costs only the work that point adds instead
/// of a fresh PredictEarly over the whole prefix. A cursor borrows the
/// classifier that made it, which must outlive it and stay fitted.
class PredictCursor {
 public:
  virtual ~PredictCursor() = default;

  /// One more point arrived. Returns the decision when the classifier
  /// commits strictly inside `prefix` (the streaming commit rule), and
  /// std::nullopt to keep waiting. No call may follow a decision.
  virtual Result<std::optional<EarlyPrediction>> Advance(
      const TimeSeries& prefix) = 0;

  /// End of stream: exactly PredictEarly(prefix).
  virtual Result<EarlyPrediction> Finish(const TimeSeries& prefix) = 0;
};

/// Interface for algorithms that classify complete time-series (the paper's
/// "full TSC" algorithms: WEASEL, MiniROCKET, MLSTM). STRUT builds early
/// classifiers out of these.
class FullClassifier {
 public:
  virtual ~FullClassifier() = default;

  /// Trains on a labelled dataset. All instances must share the variable
  /// count; lengths may vary (algorithms pad or window as needed).
  virtual Status Fit(const Dataset& train) = 0;

  /// Predicts the class of one (complete or truncated) series.
  virtual Result<int> Predict(const TimeSeries& series) const = 0;

  /// Class-membership scores aligned with ClassLabels() of the training set.
  /// Default implementation returns a one-hot vector from Predict().
  virtual Result<std::vector<double>> PredictProba(const TimeSeries& series) const;

  /// Labels seen at Fit time, sorted ascending (defines PredictProba order).
  virtual const std::vector<int>& class_labels() const = 0;

  virtual std::string name() const = 0;

  /// Whether multivariate input is natively supported.
  virtual bool SupportsMultivariate() const = 0;

  /// Fresh, untrained instance with the same configuration. Used by STRUT and
  /// the per-variable voting wrapper to retrain on derived datasets.
  virtual std::unique_ptr<FullClassifier> CloneUntrained() const = 0;

  /// Stable string identifying the configuration (not the fitted state): two
  /// instances with equal fingerprints train identically given the same data
  /// and seed. Default: name(). Used to refuse loading a model saved under a
  /// different configuration.
  virtual std::string config_fingerprint() const { return name(); }

  /// Writes the fitted state in the versioned ETSCMODL format. Requires a
  /// fitted instance; backends without persistence return NotImplemented.
  Status Save(std::ostream& out) const;

  /// Restores fitted state saved by an instance with the same name() and
  /// config_fingerprint(). Mismatches yield InvalidArgument; corrupt or
  /// truncated streams yield DataLoss.
  Status LoadFitted(std::istream& in);

  /// Persistence hooks: serialize/restore fitted state only (configuration is
  /// carried by construction, budgets are runtime settings). Overrides must
  /// produce a LoadState-ed instance whose Predict/PredictProba are
  /// bit-identical to the instance SaveState was called on.
  virtual Status SaveState(Serializer& out) const {
    (void)out;
    return Status::NotImplemented(name() + ": persistence not supported");
  }
  virtual Status LoadState(Deserializer& in) {
    (void)in;
    return Status::NotImplemented(name() + ": persistence not supported");
  }
};

/// Interface every ETSC algorithm implements (mirrors the Python framework's
/// `EarlyClassifier` abstract class, paper Sec. 5.5).
class EarlyClassifier {
 public:
  virtual ~EarlyClassifier() = default;

  /// Trains on complete, labelled series. May return ResourceExhausted when
  /// the configured train budget is exceeded (the paper terminated runs after
  /// 48 hours); callers treat that as "unable to train" (Fig. 13 hatches).
  virtual Status Fit(const Dataset& train) = 0;

  /// Classifies a test instance as early as possible. The returned
  /// prefix_length reports how many points were consumed; it equals
  /// series.length() when the algorithm had to observe everything.
  virtual Result<EarlyPrediction> PredictEarly(const TimeSeries& series) const = 0;

  /// Cursor for streaming one series point by point (StreamingSession).
  /// The default re-runs PredictEarly on the whole prefix at every Advance
  /// and commits when the reported prefix_length falls strictly inside it;
  /// algorithms whose checkpoint walk can resume override this.
  virtual std::unique_ptr<PredictCursor> NewCursor() const;

  virtual std::string name() const = 0;

  virtual bool SupportsMultivariate() const = 0;

  /// Fresh, untrained instance with identical configuration.
  virtual std::unique_ptr<EarlyClassifier> CloneUntrained() const = 0;

  /// Stable string identifying the configuration (not the fitted state); see
  /// FullClassifier::config_fingerprint. Default: name().
  virtual std::string config_fingerprint() const { return name(); }

  /// Writes the fitted model in the versioned ETSCMODL format (core/serialize.h).
  /// Requires a fitted instance.
  Status Save(std::ostream& out) const;

  /// Restores a model saved by an instance with the same name() and
  /// config_fingerprint() — construct/configure first, then load. Mismatched
  /// name or configuration yields InvalidArgument; corrupt, truncated or
  /// future-versioned streams yield DataLoss/InvalidArgument, never UB.
  Status LoadFitted(std::istream& in);

  /// Persistence hooks; see FullClassifier::SaveState/LoadState.
  virtual Status SaveState(Serializer& out) const {
    (void)out;
    return Status::NotImplemented(name() + ": persistence not supported");
  }
  virtual Status LoadState(Deserializer& in) {
    (void)in;
    return Status::NotImplemented(name() + ": persistence not supported");
  }

  /// Wall-clock training budget in seconds; Fit of expensive algorithms polls
  /// this and fails with ResourceExhausted when exceeded.
  double train_budget_seconds() const { return train_budget_seconds_; }
  void set_train_budget_seconds(double seconds) { train_budget_seconds_ = seconds; }

  /// Wall-clock budget in seconds for ONE PredictEarly call, or for one
  /// cursor Advance/Finish when streaming — the work one arriving point
  /// adds (default: no limit). Implementations poll PredictDeadline() and
  /// fail with ResourceExhausted on expiry; EvaluateSplit degrades such a
  /// miss to a full-length wrong prediction instead of letting one slow
  /// instance stall a campaign.
  double predict_budget_seconds() const { return predict_budget_seconds_; }
  void set_predict_budget_seconds(double seconds) {
    predict_budget_seconds_ = seconds;
  }

 protected:
  /// Deadline covering the current Fit call; construct once at the top of
  /// Fit so every phase (preprocessing included) counts against the budget.
  Deadline TrainDeadline() const { return Deadline::After(train_budget_seconds_); }

  /// Deadline covering one PredictEarly call (or one cursor Advance/Finish);
  /// construct at the top of each call.
  Deadline PredictDeadline() const {
    return Deadline::After(predict_budget_seconds_);
  }

  double train_budget_seconds_ = std::numeric_limits<double>::infinity();
  double predict_budget_seconds_ = std::numeric_limits<double>::infinity();
};

}  // namespace etsc

#endif  // ETSC_CORE_CLASSIFIER_H_
