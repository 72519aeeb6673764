#include "core/classifier.h"

#include <cstdio>

namespace etsc {

std::string FingerprintDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
namespace {

/// Shared Save/LoadFitted plumbing for both classifier interfaces: the header
/// carries kind/name/config_fingerprint, the body is one "state" section
/// owned by the implementation's SaveState/LoadState.
template <typename ClassifierT>
Status SaveImpl(const ClassifierT& model, const char* kind,
                std::ostream& out) {
  Serializer s;
  s.Begin("state");
  ETSC_RETURN_NOT_OK(model.SaveState(s));
  s.End();
  return s.Finish(out, kind, model.name(), model.config_fingerprint());
}

template <typename ClassifierT>
Status LoadImpl(ClassifierT& model, const char* kind, std::istream& in) {
  ETSC_ASSIGN_OR_RETURN(Deserializer d, Deserializer::FromStream(in));
  if (d.header().kind != kind) {
    return Status::InvalidArgument("LoadFitted: stream holds a '" +
                                   d.header().kind + "' model, expected '" +
                                   kind + "'");
  }
  if (d.header().name != model.name()) {
    return Status::InvalidArgument("LoadFitted: stream holds '" +
                                   d.header().name + "', this instance is '" +
                                   model.name() + "'");
  }
  if (d.header().fingerprint != model.config_fingerprint()) {
    return Status::InvalidArgument(
        "LoadFitted: configuration mismatch for '" + model.name() +
        "' (saved under \"" + d.header().fingerprint + "\", loading into \"" +
        model.config_fingerprint() + "\")");
  }
  ETSC_RETURN_NOT_OK(d.Enter("state"));
  ETSC_RETURN_NOT_OK(model.LoadState(d));
  return d.Leave();
}

/// The algorithm-agnostic cursor: one PredictEarly over the whole prefix per
/// arriving point.
class RewalkCursor final : public PredictCursor {
 public:
  explicit RewalkCursor(const EarlyClassifier& model) : model_(model) {}

  Result<std::optional<EarlyPrediction>> Advance(
      const TimeSeries& prefix) override {
    ETSC_ASSIGN_OR_RETURN(EarlyPrediction pred, model_.PredictEarly(prefix));
    // A consumption equal to the prefix means "my answer *so far*" — it may
    // still change with more data, so only an early commitment is final.
    if (pred.prefix_length < prefix.length()) return std::optional(pred);
    return std::optional<EarlyPrediction>();
  }

  Result<EarlyPrediction> Finish(const TimeSeries& prefix) override {
    return model_.PredictEarly(prefix);
  }

 private:
  const EarlyClassifier& model_;
};

}  // namespace

std::unique_ptr<PredictCursor> EarlyClassifier::NewCursor() const {
  return std::make_unique<RewalkCursor>(*this);
}

Result<std::vector<double>> FullClassifier::PredictProba(
    const TimeSeries& series) const {
  ETSC_ASSIGN_OR_RETURN(int label, Predict(series));
  const auto& labels = class_labels();
  std::vector<double> proba(labels.size(), 0.0);
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == label) {
      proba[i] = 1.0;
      break;
    }
  }
  return proba;
}

Status FullClassifier::Save(std::ostream& out) const {
  return SaveImpl(*this, "full", out);
}

Status FullClassifier::LoadFitted(std::istream& in) {
  return LoadImpl(*this, "full", in);
}

Status EarlyClassifier::Save(std::ostream& out) const {
  return SaveImpl(*this, "early", out);
}

Status EarlyClassifier::LoadFitted(std::istream& in) {
  return LoadImpl(*this, "early", in);
}

}  // namespace etsc
