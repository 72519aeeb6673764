// Tests of the resumable streaming cursor (DESIGN.md sec 14/15): for every
// trigger that never reads is_last, a composed classifier's cursor must serve
// every stream bit-identically to the default cursor, which re-runs
// PredictEarly on the whole prefix at every point; a stream fed to
// completion must reach the offline PredictEarly decision, and an undecided
// stream must Finish exactly like PredictEarly on its prefix; the serving
// engine must stay equal to the sequential replay at pool width 8; and the
// cursor must decide each checkpoint once per stream.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algos/registrations.h"
#include "core/composed.h"
#include "core/parallel.h"
#include "core/registry.h"
#include "core/rng.h"
#include "core/serving.h"
#include "core/streaming.h"
#include "core/trigger.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

using testing::MakeToyDataset;

/// Forwards PredictEarly only, so streaming through it takes the default
/// re-walk cursor: the reference every composed cursor is held to.
class RewalkOnly final : public EarlyClassifier {
 public:
  explicit RewalkOnly(std::shared_ptr<const EarlyClassifier> inner)
      : inner_(std::move(inner)) {}
  Status Fit(const Dataset&) override {
    return Status::NotImplemented("RewalkOnly wraps a fitted model");
  }
  Result<EarlyPrediction> PredictEarly(const TimeSeries& series) const override {
    return inner_->PredictEarly(series);
  }
  std::string name() const override { return inner_->name() + "+rewalk"; }
  bool SupportsMultivariate() const override {
    return inner_->SupportsMultivariate();
  }
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override {
    return inner_->CloneUntrained();
  }

 private:
  std::shared_ptr<const EarlyClassifier> inner_;
};

/// Every ClassifierRegistry name and every '<base>+<trigger>' spec except the
/// mlstm base (too slow to fit 7 times here; s-mlstm covers it): 51 names.
std::vector<std::string> AllCompositions() {
  RegisterBuiltinClassifiers();
  std::vector<std::string> names = ClassifierRegistry::Global().Names();
  for (const std::string& base : BaseClassifierRegistry::Global().Names()) {
    if (base == "mlstm") continue;
    for (const std::string& trigger : TriggerRegistry::Global().Names()) {
      names.push_back(base + "+" + trigger);
    }
  }
  return names;
}

const Dataset& TrainSet() {
  static const auto* kData = new Dataset(MakeToyDataset(12, 32));
  return *kData;
}

/// `name` fitted on TrainSet(), once per test binary.
std::shared_ptr<const EarlyClassifier> Fitted(const std::string& name) {
  static auto* cache =
      new std::map<std::string, std::shared_ptr<const EarlyClassifier>>();
  auto it = cache->find(name);
  if (it != cache->end()) return it->second;
  RegisterBuiltinClassifiers();
  auto created = ClassifierRegistry::Global().Create(name);
  EXPECT_TRUE(created.ok()) << name << ": " << created.status().ToString();
  if (!created.ok()) return nullptr;
  std::shared_ptr<EarlyClassifier> model = std::move(*created);
  const Status fit = model->Fit(TrainSet());
  EXPECT_TRUE(fit.ok()) << name << ": " << fit.ToString();
  if (!fit.ok()) return nullptr;
  return cache->emplace(name, std::move(model)).first->second;
}

/// One session per training series, each streamed to a random length in
/// [1, L + 6] (past L the series wraps around), arrivals shuffled across
/// sessions. Covers streams ending before the first checkpoint, exactly on
/// a checkpoint, and beyond the training length.
std::vector<IngestEvent> RaggedTrace(const Dataset& data, uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> arrivals;
  for (size_t s = 0; s < data.size(); ++s) {
    const size_t length = data.instance(s).length();
    const size_t streamed = static_cast<size_t>(
        rng.Int(1, static_cast<int64_t>(length) + 6));
    arrivals.insert(arrivals.end(), streamed, s);
  }
  rng.Shuffle(&arrivals);
  std::vector<size_t> next(data.size(), 0);
  std::vector<IngestEvent> trace;
  trace.reserve(arrivals.size());
  for (const size_t s : arrivals) {
    const TimeSeries& series = data.instance(s);
    const size_t t = next[s]++ % series.length();
    trace.push_back({s, {series.at(0, t)}});
  }
  return trace;
}

void ExpectSameOutcomes(const std::vector<ReplayOutcome>& got,
                        const std::vector<ReplayOutcome>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].label, want[s].label) << what << " session " << s;
    EXPECT_EQ(got[s].prefix_length, want[s].prefix_length)
        << what << " session " << s;
    EXPECT_EQ(got[s].via_finish, want[s].via_finish) << what << " session " << s;
    EXPECT_EQ(got[s].failed, want[s].failed) << what << " session " << s;
    EXPECT_EQ(got[s].halt_step, want[s].halt_step) << what << " session " << s;
    EXPECT_EQ(got[s].earliness, want[s].earliness) << what << " session " << s;
    EXPECT_EQ(got[s].confidence, want[s].confidence)
        << what << " session " << s;
  }
}

/// Whether `name`'s trigger reads TriggerEvidence::is_last. The re-walk
/// cursor marks the last checkpoint fitting a partial stream is_last, the
/// composed cursor only the grid's final one, so only the triggers that
/// ignore the flag serve identically through both. EDSC (no trigger) takes
/// the re-walk cursor either way.
bool ReadsIsLast(const std::string& name) {
  const std::string spec = ClassifierRegistry::Global().SpecOf(name);
  const std::string composed = spec.empty() ? name : spec;
  const size_t plus = composed.find('+');
  if (plus == std::string::npos) return false;
  const std::string trigger = composed.substr(plus + 1);
  return trigger != "ects-mpl" && trigger != "strut-search" &&
         trigger != "strut-grid";
}

TEST(StreamingCursorTest, CursorEqualsRewalkWhenTriggerIgnoresIsLast) {
  const Dataset& data = TrainSet();
  const std::vector<IngestEvent> trace = RaggedTrace(data, 7);
  const std::vector<std::string> names = AllCompositions();
  EXPECT_EQ(names.size(), 51u);
  size_t compared = 0;
  for (const std::string& name : names) {
    if (ReadsIsLast(name)) continue;
    ++compared;
    std::shared_ptr<const EarlyClassifier> model = Fitted(name);
    ASSERT_NE(model, nullptr) << name;
    const RewalkOnly rewalk(model);
    ExpectSameOutcomes(ReplaySequential(*model, 1, data.size(), trace),
                       ReplaySequential(rewalk, 1, data.size(), trace), name);
  }
  // ects, s-mini, s-mlstm, s-weasel, edsc and 6 bases x 3 triggers.
  EXPECT_EQ(compared, 23u);
}

TEST(StreamingCursorTest, CompleteStreamReachesTheOfflineDecision) {
  const Dataset& data = TrainSet();
  size_t compared = 0;
  for (const std::string& name : AllCompositions()) {
    std::shared_ptr<const EarlyClassifier> model = Fitted(name);
    ASSERT_NE(model, nullptr) << name;
    const auto* composed =
        dynamic_cast<const ComposedEarlyClassifier*>(model.get());
    if (composed == nullptr || composed->composed_options().z_normalize) {
      continue;
    }
    ++compared;
    for (size_t i = 0; i < data.size(); ++i) {
      const TimeSeries& series = data.instance(i);
      auto offline = model->PredictEarly(series);
      ASSERT_TRUE(offline.ok()) << name << ": " << offline.status().ToString();
      StreamingSession session(*model, 1);
      for (size_t t = 0; t < series.length(); ++t) {
        auto out = session.Push({series.at(0, t)});
        ASSERT_TRUE(out.ok()) << name << ": " << out.status().ToString();
        if (out->has_value()) break;
      }
      auto streamed = session.Finish();  // sticky once decided
      ASSERT_TRUE(streamed.ok()) << name << ": " << streamed.status().ToString();
      EXPECT_EQ(streamed->label, offline->label) << name << " series " << i;
      EXPECT_EQ(streamed->prefix_length, offline->prefix_length)
          << name << " series " << i;
    }
  }
  EXPECT_EQ(compared, 50u);  // every composition; edsc is a plain class
}

TEST(StreamingCursorTest, UndecidedStreamFinishesLikePredictEarly) {
  // Finish reads the prefix offline: its last fitting checkpoint is is_last,
  // even when Advance already decided that checkpoint as an inner one.
  const Dataset& data = TrainSet();
  Rng rng(10);
  size_t finished = 0;
  for (const std::string& name : AllCompositions()) {
    std::shared_ptr<const EarlyClassifier> model = Fitted(name);
    ASSERT_NE(model, nullptr) << name;
    for (size_t i = 0; i < data.size(); ++i) {
      const TimeSeries& series = data.instance(i);
      const size_t length = static_cast<size_t>(
          rng.Int(1, static_cast<int64_t>(series.length())));
      StreamingSession session(*model, 1);
      bool decided = false;
      for (size_t t = 0; t < length && !decided; ++t) {
        auto out = session.Push({series.at(0, t)});
        ASSERT_TRUE(out.ok()) << name << ": " << out.status().ToString();
        decided = out->has_value();
      }
      if (decided) continue;
      ++finished;
      auto streamed = session.Finish();
      auto offline = model->PredictEarly(series.Prefix(length));
      ASSERT_TRUE(streamed.ok()) << name << ": " << streamed.status().ToString();
      ASSERT_TRUE(offline.ok()) << name << ": " << offline.status().ToString();
      EXPECT_EQ(streamed->label, offline->label) << name << " series " << i;
      EXPECT_EQ(streamed->prefix_length, offline->prefix_length)
          << name << " series " << i;
      EXPECT_EQ(streamed->confidence, offline->confidence)
          << name << " series " << i;
    }
  }
  EXPECT_GT(finished, 0u);
}

TEST(StreamingCursorTest, ZNormalizingCompositionRestartsEveryAdvance) {
  RegisterBuiltinClassifiers();
  ComposedOptions options;
  options.grid = CheckpointGrid::kEveryPoint;
  options.z_normalize = true;
  auto trigger = TriggerRegistry::Global().Create("ects-mpl");
  ASSERT_TRUE(trigger.ok());
  auto model = std::make_shared<ComposedEarlyClassifier>(
      "z-ects", nullptr, std::move(*trigger), options);
  ASSERT_TRUE(model->Fit(TrainSet()).ok());
  const std::vector<IngestEvent> trace = RaggedTrace(TrainSet(), 8);
  const RewalkOnly rewalk(model);
  ExpectSameOutcomes(ReplaySequential(*model, 1, TrainSet().size(), trace),
                     ReplaySequential(rewalk, 1, TrainSet().size(), trace),
                     model->name());
}

TEST(StreamingCursorTest, EngineAtWidthEightEqualsSequential) {
  const Dataset& data = TrainSet();
  const std::vector<IngestEvent> trace = RaggedTrace(data, 9);
  SetMaxParallelism(8);
  for (const std::string name :
       {"ects", "1nn+prob", "gbdt+ecec-ratio", "gbdt+eco-cost"}) {
    std::shared_ptr<const EarlyClassifier> model = Fitted(name);
    ASSERT_NE(model, nullptr) << name;
    ServingEngine engine;
    ASSERT_TRUE(engine.RegisterModel("m", model, 1).ok());
    auto batched = ReplayThroughEngine(engine, "m", data.size(), trace, 16);
    ASSERT_TRUE(batched.ok()) << name << ": " << batched.status().ToString();
    ExpectSameOutcomes(*batched, ReplaySequential(*model, 1, data.size(), trace),
                       name);
  }
  SetMaxParallelism(0);  // restore the ETSC_THREADS / hardware default
}

/// Never halts and counts its Decide calls: what a stream costs in
/// checkpoint decisions.
class CountingTrigger final : public Trigger {
 public:
  std::string name() const override { return "counting"; }
  bool self_contained() const override { return true; }
  Status Fit(const TriggerFitContext&) override { return Status::OK(); }
  Result<TriggerDecision> Decide(const TriggerEvidence&,
                                 TriggerState*) const override {
    decides.fetch_add(1, std::memory_order_relaxed);
    return TriggerDecision{};
  }
  Result<std::optional<EarlyPrediction>> Finalize(
      const TimeSeries& series, TriggerState*) const override {
    EarlyPrediction out;
    out.prefix_length = series.length();
    return std::optional<EarlyPrediction>(out);
  }
  std::unique_ptr<Trigger> CloneUnfitted() const override {
    return std::make_unique<CountingTrigger>();
  }

  mutable std::atomic<size_t> decides{0};
};

TEST(StreamingCursorTest, EachCheckpointIsDecidedOncePerStream) {
  auto trigger = std::make_unique<CountingTrigger>();
  CountingTrigger* counter = trigger.get();
  ComposedOptions options;
  options.grid = CheckpointGrid::kEveryPoint;
  ComposedEarlyClassifier model("counting", nullptr, std::move(trigger),
                                options);
  ASSERT_TRUE(model.Fit(TrainSet()).ok());
  const TimeSeries& series = TrainSet().instance(0);
  const size_t length = series.length();

  StreamingSession session(model, 1);
  for (size_t t = 0; t < length; ++t) {
    auto out = session.Push({series.at(0, t)});
    ASSERT_TRUE(out.ok());
    ASSERT_FALSE(out->has_value());
  }
  // Each Push decides the one checkpoint now strictly inside the buffer.
  EXPECT_EQ(counter->decides.load(), length - 1);
  ASSERT_TRUE(session.Finish().ok());
  EXPECT_EQ(counter->decides.load(), length);

  // Reset renews the cursor: the next stream walks from the first
  // checkpoint again.
  session.Reset();
  counter->decides = 0;
  for (size_t t = 0; t < 3; ++t) ASSERT_TRUE(session.Push({0.0}).ok());
  EXPECT_EQ(counter->decides.load(), 2u);

  // PredictEarly is a fresh cursor's Finish: one walk over the whole series.
  counter->decides = 0;
  ASSERT_TRUE(model.PredictEarly(series).ok());
  EXPECT_EQ(counter->decides.load(), length);
}

}  // namespace
}  // namespace etsc
