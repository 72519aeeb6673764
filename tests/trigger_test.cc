// Tests of the classifier/trigger seam (DESIGN.md sec 15): registry
// behaviour, per-trigger fit determinism, halt monotonicity, Save/LoadFitted
// round-trips through ComposedEarlyClassifier, the frozen per-fold scores of
// every registry name and of each alias's spec twin (serial and at pool
// width 8), alias fingerprints, and the model cache's demotion of pre-bump
// ETSCMODL artifacts.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "algos/base_classifiers.h"
#include "algos/prob_threshold.h"
#include "algos/registrations.h"
#include "bench/bench_common.h"
#include "core/composed.h"
#include "core/counters.h"
#include "core/evaluation.h"
#include "core/model_cache.h"
#include "core/parallel.h"
#include "core/registry.h"
#include "core/serialize.h"
#include "core/trigger.h"
#include "tests/test_util.h"

namespace etsc {
namespace {

using testing::MakeToyDataset;

/// One spec per registered trigger, each over a cheap base; the base half of
/// self-contained triggers (ects-mpl, eco-cost) is created but unused.
const std::vector<std::string>& AllTriggerSpecs() {
  static const auto* kSpecs = new std::vector<std::string>{
      "gbdt+prob",     "gbdt+ecec-ratio",   "weasel+teaser-gate",
      "1nn+ects-mpl",  "gbdt+eco-cost",     "gbdt+strut-search",
      "gbdt+strut-grid"};
  return *kSpecs;
}

std::vector<EarlyPrediction> PredictAll(const EarlyClassifier& model,
                                        const Dataset& test) {
  std::vector<EarlyPrediction> out;
  for (size_t i = 0; i < test.size(); ++i) {
    auto pred = model.PredictEarly(test.instance(i));
    EXPECT_TRUE(pred.ok()) << model.name() << ": " << pred.status().ToString();
    out.push_back(pred.ok() ? *pred : EarlyPrediction{});
  }
  return out;
}

void ExpectSamePredictions(const std::vector<EarlyPrediction>& a,
                           const std::vector<EarlyPrediction>& b,
                           const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label) << what << " instance " << i;
    EXPECT_EQ(a[i].prefix_length, b[i].prefix_length)
        << what << " instance " << i;
    EXPECT_EQ(a[i].confidence, b[i].confidence) << what << " instance " << i;
  }
}

// ---------------------------------------------------------------------------
// Registries (satellite: structured NotFound, both namespaces)
// ---------------------------------------------------------------------------

TEST(TriggerRegistryTest, UnknownTriggerListsRegisteredNames) {
  RegisterBuiltinClassifiers();
  auto created = TriggerRegistry::Global().Create("no-such-trigger");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kNotFound);
  const std::string message = created.status().ToString();
  EXPECT_NE(message.find("registered triggers:"), std::string::npos) << message;
  EXPECT_NE(message.find("prob"), std::string::npos) << message;
  EXPECT_NE(message.find("ects-mpl"), std::string::npos) << message;
}

TEST(TriggerRegistryTest, UnknownBaseListsRegisteredNames) {
  RegisterBuiltinClassifiers();
  auto created = BaseClassifierRegistry::Global().Create("no-such-base");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kNotFound);
  const std::string message = created.status().ToString();
  EXPECT_NE(message.find("registered base classifiers:"), std::string::npos)
      << message;
  EXPECT_NE(message.find("weasel"), std::string::npos) << message;
}

TEST(TriggerRegistryTest, AllTriggersAndBasesRegistered) {
  RegisterBuiltinClassifiers();
  EXPECT_EQ(TriggerRegistry::Global().Names().size(), AllTriggerSpecs().size());
  EXPECT_EQ(BaseClassifierRegistry::Global().Names().size(), 7u);
  for (const std::string& spec : AllTriggerSpecs()) {
    auto model = MakeComposedFromSpec(spec);
    ASSERT_TRUE(model.ok()) << spec << ": " << model.status().ToString();
    EXPECT_EQ((*model)->name(), spec);
  }
}

TEST(TriggerRegistryTest, ComposedSpecErrorsAreStructured) {
  RegisterBuiltinClassifiers();
  auto bad_trigger = MakeComposedFromSpec("weasel+nope");
  ASSERT_FALSE(bad_trigger.ok());
  EXPECT_EQ(bad_trigger.status().code(), StatusCode::kNotFound);
  EXPECT_NE(bad_trigger.status().ToString().find("registered triggers:"),
            std::string::npos);
  auto bad_base = MakeComposedFromSpec("nope+prob");
  ASSERT_FALSE(bad_base.ok());
  EXPECT_EQ(bad_base.status().code(), StatusCode::kNotFound);
  EXPECT_NE(bad_base.status().ToString().find("registered base classifiers:"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-trigger: fit determinism
// ---------------------------------------------------------------------------

TEST(TriggerFitTest, FitIsDeterministicPerTrigger) {
  RegisterBuiltinClassifiers();
  const Dataset data = MakeToyDataset(12, 32);
  const Dataset test = MakeToyDataset(6, 32, 0.0, /*seed=*/11);
  for (const std::string& spec : AllTriggerSpecs()) {
    auto first = MakeComposedFromSpec(spec);
    auto second = MakeComposedFromSpec(spec);
    ASSERT_TRUE(first.ok() && second.ok()) << spec;
    ASSERT_TRUE((*first)->Fit(data).ok()) << spec;
    ASSERT_TRUE((*second)->Fit(data).ok()) << spec;
    // Two fits from the same options and data must agree byte-for-byte in
    // their serialized state, not just in their predictions.
    std::ostringstream bytes_first, bytes_second;
    ASSERT_TRUE((*first)->Save(bytes_first).ok()) << spec;
    ASSERT_TRUE((*second)->Save(bytes_second).ok()) << spec;
    EXPECT_EQ(bytes_first.str(), bytes_second.str()) << spec;
    ExpectSamePredictions(PredictAll(**first, test), PredictAll(**second, test),
                          spec);
  }
}

// ---------------------------------------------------------------------------
// Halt monotonicity (prob trigger: a stricter threshold never halts earlier)
// ---------------------------------------------------------------------------

TEST(TriggerHaltTest, ProbTriggerHaltIsMonotoneInThreshold) {
  const Dataset data = MakeToyDataset(12, 32);
  const Dataset test = MakeToyDataset(6, 32, 0.0, /*seed=*/11);
  auto composed_at = [&](double threshold) {
    ProbTriggerOptions options;
    options.threshold = threshold;
    auto trigger = std::make_unique<ProbTrigger>(options);
    const ComposedOptions composed = trigger->DefaultComposedOptions();
    return std::make_unique<ComposedEarlyClassifier>(
        "gbdt+prob", std::make_unique<GbdtSeriesClassifier>(),
        std::move(trigger), composed);
  };
  auto lax = composed_at(0.55);
  auto strict = composed_at(0.95);
  ASSERT_TRUE(lax->Fit(data).ok());
  ASSERT_TRUE(strict->Fit(data).ok());
  const auto lax_preds = PredictAll(*lax, test);
  const auto strict_preds = PredictAll(*strict, test);
  for (size_t i = 0; i < test.size(); ++i) {
    // With consecutive=1 a checkpoint accepted at 0.95 is accepted at 0.55
    // too, so the lax run can never consume a longer prefix.
    EXPECT_LE(lax_preds[i].prefix_length, strict_preds[i].prefix_length)
        << "instance " << i;
  }
}

// ---------------------------------------------------------------------------
// Per-trigger: Save/LoadFitted round-trip through ComposedEarlyClassifier
// ---------------------------------------------------------------------------

TEST(TriggerSerializationTest, SaveLoadFittedRoundTripPerTrigger) {
  RegisterBuiltinClassifiers();
  const Dataset data = MakeToyDataset(12, 32);
  const Dataset test = MakeToyDataset(6, 32, 0.0, /*seed=*/11);
  for (const std::string& spec : AllTriggerSpecs()) {
    auto fitted = MakeComposedFromSpec(spec);
    ASSERT_TRUE(fitted.ok()) << spec;
    ASSERT_TRUE((*fitted)->Fit(data).ok()) << spec;
    std::stringstream stream;
    ASSERT_TRUE((*fitted)->Save(stream).ok()) << spec;
    auto restored = MakeComposedFromSpec(spec);
    ASSERT_TRUE(restored.ok()) << spec;
    const Status loaded = (*restored)->LoadFitted(stream);
    ASSERT_TRUE(loaded.ok()) << spec << ": " << loaded.ToString();
    ExpectSamePredictions(PredictAll(**fitted, test),
                          PredictAll(**restored, test), spec);
  }
}

// ---------------------------------------------------------------------------
// Frozen oracle: every registry name, and every alias's '<base>+<trigger>'
// twin, reproduces EvalScores recorded (%.17g) while the legacy names were
// still standalone classes, serial and at pool width 8
// ---------------------------------------------------------------------------

EvaluationResult EvaluateToy(const Dataset& data,
                             const EarlyClassifier& prototype) {
  EvaluationOptions options;
  options.num_folds = 2;
  // The voting wrapper multiplies every fit by its ensemble width; skip it to
  // keep the matrix fast.
  options.wrap_univariate_with_voting = false;
  return CrossValidate(data, prototype, options);
}

struct FrozenScores {
  const char* name;      // ClassifierRegistry name
  EvalScores folds[2];   // {accuracy, f1, earliness, harmonic_mean} per fold
};

const std::vector<FrozenScores>& FrozenRegistryScores() {
  static const auto* kFrozen = new std::vector<FrozenScores>{
      {"ecec",
       {{1, 1, 0.15625, 0.9152542372881356},
        {0.66666666666666663, 0.625, 0.15104166666666666, 0.7468499427262314}}},
      {"economy-k",
       {{1, 1, 0.03125, 0.98412698412698407},
        {1, 1, 0.03125, 0.98412698412698407}}},
      {"ects",
       {{1, 1, 0.057291666666666664, 0.97050938337801607},
        {1, 1, 0.03125, 0.98412698412698407}}},
      {"edsc",
       {{1, 1, 0.15625, 0.9152542372881356},
        {1, 1, 0.15625, 0.9152542372881356}}},
      {"prob-threshold",
       {{1, 1, 0.09375, 0.95081967213114749},
        {1, 1, 0.09375, 0.95081967213114749}}},
      {"s-mini",
       {{1, 1, 0.0625, 0.967741935483871},
        {0.91666666666666663, 0.91608391608391604, 0.0625, 0.9269662921348315}}},
      {"s-mlstm",
       {{1, 1, 0.0625, 0.967741935483871},
        {0.91666666666666663, 0.91608391608391604, 0.0625, 0.9269662921348315}}},
      {"s-weasel",
       {{0.83333333333333337, 0.82857142857142851, 0.125, 0.85365853658536583},
        {0.91666666666666663, 0.91608391608391604, 0.0625, 0.9269662921348315}}},
      {"teaser",
       {{1, 1, 0.26041666666666669, 0.85029940119760472},
        {1, 1, 0.44791666666666669, 0.71140939597315433}}},
  };
  return *kFrozen;
}

void ExpectFrozenScores(const EvaluationResult& result,
                        const FrozenScores& frozen, const std::string& what) {
  ASSERT_EQ(result.folds.size(), 2u) << what;
  for (size_t f = 0; f < 2; ++f) {
    ASSERT_TRUE(result.folds[f].trained) << what << " fold " << f;
    const EvalScores& got = result.folds[f].scores;
    const EvalScores& want = frozen.folds[f];
    EXPECT_EQ(got.accuracy, want.accuracy) << what << " fold " << f;
    EXPECT_EQ(got.f1, want.f1) << what << " fold " << f;
    EXPECT_EQ(got.earliness, want.earliness) << what << " fold " << f;
    EXPECT_EQ(got.harmonic_mean, want.harmonic_mean) << what << " fold " << f;
  }
}

/// Cross-validates `model` serial and at width 8 against `frozen`.
void ExpectFrozenSerialAndParallel(const EarlyClassifier& model,
                                   const FrozenScores& frozen,
                                   const std::string& what) {
  const Dataset data = MakeToyDataset(12, 32);
  SetMaxParallelism(1);
  const EvaluationResult serial = EvaluateToy(data, model);
  SetMaxParallelism(8);
  const EvaluationResult parallel = EvaluateToy(data, model);
  SetMaxParallelism(0);  // restore the ETSC_THREADS / hardware default
  ExpectFrozenScores(serial, frozen, what + " (serial)");
  ExpectFrozenScores(parallel, frozen, what + " (width 8)");
}

TEST(GoldenEquivalenceTest, RegistryNamesReproduceFrozenScores) {
  RegisterBuiltinClassifiers();
  EXPECT_EQ(FrozenRegistryScores().size(),
            ClassifierRegistry::Global().Names().size());
  for (const FrozenScores& frozen : FrozenRegistryScores()) {
    auto model = ClassifierRegistry::Global().Create(frozen.name);
    ASSERT_TRUE(model.ok()) << frozen.name;
    ExpectFrozenSerialAndParallel(**model, frozen, frozen.name);
  }
}

TEST(GoldenEquivalenceTest, LegacyEqualsComposedTwinSerialAndParallel) {
  RegisterBuiltinClassifiers();
  size_t aliases = 0;
  for (const FrozenScores& frozen : FrozenRegistryScores()) {
    const std::string spec = ClassifierRegistry::Global().SpecOf(frozen.name);
    if (spec.empty()) continue;  // edsc: no classifier/trigger split
    ++aliases;
    auto twin = MakeComposedFromSpec(spec);
    ASSERT_TRUE(twin.ok()) << spec;
    ExpectFrozenSerialAndParallel(**twin, frozen,
                                  std::string(frozen.name) + " twin " + spec);
  }
  EXPECT_EQ(aliases, 8u);
}

// ---------------------------------------------------------------------------
// Aliases: one namespace, fingerprints shared with the spec twin
// ---------------------------------------------------------------------------

std::string FingerprintOf(const std::string& name) {
  auto model = ClassifierRegistry::Global().Create(name);
  EXPECT_TRUE(model.ok()) << name << ": " << model.status().ToString();
  return model.ok() ? (*model)->config_fingerprint() : std::string();
}

TEST(AliasTest, AliasSharesItsSpecTwinsFingerprint) {
  RegisterBuiltinClassifiers();
  const auto& registry = ClassifierRegistry::Global();
  for (const std::string& name : registry.Names()) {
    const std::string spec = registry.SpecOf(name);
    if (spec.empty()) continue;
    EXPECT_EQ(FingerprintOf(name), FingerprintOf(spec)) << name;
  }
  // The alias keeps the paper's display name; the twin is named by its spec.
  EXPECT_EQ((*registry.Create("ects"))->name(), "ECTS");
  EXPECT_EQ((*registry.Create("1nn+ects-mpl"))->name(), "1nn+ects-mpl");
}

TEST(AliasTest, DistinctConfigurationsHaveDistinctFingerprints) {
  RegisterBuiltinClassifiers();
  // Three STRUT presets: different bases, and S-MLSTM's grid search.
  EXPECT_NE(FingerprintOf("s-weasel"), FingerprintOf("s-mini"));
  EXPECT_NE(FingerprintOf("s-mini"), FingerprintOf("s-mlstm"));
  EXPECT_NE(FingerprintOf("s-weasel"), FingerprintOf("s-mlstm"));
  EXPECT_NE(FingerprintOf("minirocket+strut-search"),
            FingerprintOf("minirocket+strut-grid"));

  // The campaign presets override the registered defaults.
  auto ecec_preset = bench::MakePaperAlgorithm("ECEC", "PowerCons", 144);
  ASSERT_TRUE(ecec_preset.ok());
  EXPECT_NE((*ecec_preset)->config_fingerprint(), FingerprintOf("ecec"));
  auto teaser_ucr = bench::MakePaperAlgorithm("TEASER", "PowerCons", 144);
  auto teaser_bio = bench::MakePaperAlgorithm("TEASER", "Biological", 144);
  ASSERT_TRUE(teaser_ucr.ok() && teaser_bio.ok());
  EXPECT_NE((*teaser_ucr)->config_fingerprint(),
            (*teaser_bio)->config_fingerprint());
}

TEST(AliasTest, LegacyFingerprintStreamIsRefused) {
  RegisterBuiltinClassifiers();
  auto model = ClassifierRegistry::Global().Create("ects");
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Fit(MakeToyDataset(6, 16)).ok());
  // The body bytes an ECTS model has always written, under the header the
  // standalone ECTS class used to stamp on it.
  Serializer legacy;
  legacy.Begin("state");
  ASSERT_TRUE((*model)->SaveState(legacy).ok());
  legacy.End();
  std::stringstream stream;
  ASSERT_TRUE(
      legacy.Finish(stream, "early", "ECTS", "ECTS(support=0,merge=0)").ok());

  auto fresh = ClassifierRegistry::Global().Create("ects");
  ASSERT_TRUE(fresh.ok());
  const Status status = (*fresh)->LoadFitted(stream);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_NE(status.message().find("configuration mismatch"), std::string::npos)
      << status.ToString();
}

TEST(AliasTest, CreateResolvesSpecsThroughTheOneResolver) {
  RegisterBuiltinClassifiers();
  auto spec = ClassifierRegistry::Global().Create("1nn+prob");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ((*spec)->name(), "1nn+prob");
  auto bad = ClassifierRegistry::Global().Create("1nn+nope");
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_NE(bad.status().message().find("registered triggers:"),
            std::string::npos);
  auto unknown = ClassifierRegistry::Global().Create("nope");
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("registered classifiers:"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Model cache: pre-bump (v1) artifacts demote to misses, never crash
// ---------------------------------------------------------------------------

class StaleFormatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/etsc_stale_cache_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    directory_ = tmpl;
  }
  void TearDown() override {
    // Entries the tests leave behind (best effort; the dir name is unique).
    std::remove((directory_ + "/leftover").c_str());
    ::rmdir(directory_.c_str());
  }
  std::string directory_;
};

/// Overwrites the u32 format_version (offset 8, after the 8-byte magic) of an
/// ETSCMODL file in place, little-endian.
void PatchFormatVersion(const std::string& path, uint32_t version) {
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open()) << path;
  file.seekp(8);
  const char bytes[4] = {static_cast<char>(version & 0xff),
                         static_cast<char>((version >> 8) & 0xff),
                         static_cast<char>((version >> 16) & 0xff),
                         static_cast<char>((version >> 24) & 0xff)};
  file.write(bytes, 4);
  ASSERT_TRUE(file.good()) << path;
}

bool FileExists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

TEST_F(StaleFormatTest, PreBumpArtifactIsDemotedToMissAndEvicted) {
  RegisterBuiltinClassifiers();
  const Dataset data = MakeToyDataset(10, 24);
  auto model = MakeComposedFromSpec("gbdt+prob");
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Fit(data).ok());

  ModelCache cache(directory_);
  ModelCacheKey key;
  key.config_fingerprint = (*model)->config_fingerprint();
  key.dataset_fingerprint = data.Fingerprint();
  key.num_folds = 1;
  key.seed = 7;
  ASSERT_TRUE(cache.Store(key, **model).ok());
  const std::string path = cache.EntryPath(key, (*model)->name());
  ASSERT_TRUE(FileExists(path));

  // Rewrite the entry as if a pre-bump build had written it.
  ASSERT_GE(kSerializeFormatVersion, 2u);
  PatchFormatVersion(path, 1);

  Counter& demotions =
      MetricRegistry::Global().counter("model_cache.stale_format_demotions");
  Counter& misses = MetricRegistry::Global().counter("model_cache.misses");
  const uint64_t demotions_before = demotions.value();
  const uint64_t misses_before = misses.value();

  auto fresh = MakeComposedFromSpec("gbdt+prob");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(cache.TryLoad(key, fresh->get()));
  EXPECT_EQ(demotions.value(), demotions_before + 1);
  EXPECT_EQ(misses.value(), misses_before + 1);
  // The stale entry is evicted so the refit's store replaces it.
  EXPECT_FALSE(FileExists(path));

  // The refit-and-store path fully recovers: the cache serves the new entry.
  ASSERT_TRUE((*fresh)->Fit(data).ok());
  ASSERT_TRUE(cache.Store(key, **fresh).ok());
  auto reloaded = MakeComposedFromSpec("gbdt+prob");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(cache.TryLoad(key, reloaded->get()));
  EXPECT_EQ(demotions.value(), demotions_before + 1);  // demotion was one-off
  std::remove(path.c_str());
}

TEST_F(StaleFormatTest, NewerFormatArtifactIsAMissNotACrash) {
  RegisterBuiltinClassifiers();
  const Dataset data = MakeToyDataset(10, 24);
  auto model = MakeComposedFromSpec("gbdt+prob");
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE((*model)->Fit(data).ok());

  ModelCache cache(directory_);
  ModelCacheKey key;
  key.config_fingerprint = (*model)->config_fingerprint();
  key.dataset_fingerprint = data.Fingerprint();
  key.num_folds = 1;
  key.seed = 7;
  ASSERT_TRUE(cache.Store(key, **model).ok());
  const std::string path = cache.EntryPath(key, (*model)->name());
  PatchFormatVersion(path, kSerializeFormatVersion + 1);

  // A future build's entry: the versioning policy rejects it in LoadFitted
  // (InvalidArgument), which the cache treats as a corrupt eviction + miss.
  auto fresh = MakeComposedFromSpec("gbdt+prob");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(cache.TryLoad(key, fresh->get()));
  EXPECT_FALSE(FileExists(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace etsc
