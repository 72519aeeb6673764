// Persistence tests: the versioned ETSCMODL model format (core/serialize.h),
// Save/LoadFitted on every registered algorithm, hostile-stream handling, the
// fitted-model cache, and dataset fingerprints.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/base_classifiers.h"
#include "algos/ects.h"
#include "algos/registrations.h"
#include "core/counters.h"
#include "core/dataset.h"
#include "core/evaluation.h"
#include "core/model_cache.h"
#include "core/registry.h"
#include "test_util.h"

namespace etsc {
namespace {

class SerializationTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterBuiltinClassifiers(); }
};

Dataset TrainSet() { return testing::MakeToyDataset(12, 32, 0.0, 3); }
Dataset HeldOutSet() { return testing::MakeToyDataset(8, 32, 0.0, 17); }

// ---------------------------------------------------------------------------
// Round trip: every registered algorithm
// ---------------------------------------------------------------------------

TEST_F(SerializationTest, EveryRegisteredAlgorithmRoundTripsBitIdentically) {
  const Dataset train = TrainSet();
  const Dataset test = HeldOutSet();
  for (const auto& name : ClassifierRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    auto original = ClassifierRegistry::Global().Create(name);
    ASSERT_TRUE(original.ok()) << original.status().ToString();
    const Status fitted = (*original)->Fit(train);
    ASSERT_TRUE(fitted.ok()) << fitted.ToString();

    std::stringstream stream;
    const Status saved = (*original)->Save(stream);
    ASSERT_TRUE(saved.ok()) << saved.ToString();

    // A FRESH registry instance — nothing is shared with the original.
    auto restored = ClassifierRegistry::Global().Create(name);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    const Status loaded = (*restored)->LoadFitted(stream);
    ASSERT_TRUE(loaded.ok()) << loaded.ToString();

    // The contract is bit-identity, not closeness: a restored model must
    // predict exactly what the original would, instance by instance.
    for (size_t i = 0; i < test.size(); ++i) {
      const auto a = (*original)->PredictEarly(test.instance(i));
      const auto b = (*restored)->PredictEarly(test.instance(i));
      ASSERT_EQ(a.ok(), b.ok()) << "instance " << i;
      if (!a.ok()) continue;
      EXPECT_EQ(a->label, b->label) << "instance " << i;
      EXPECT_EQ(a->prefix_length, b->prefix_length) << "instance " << i;
    }
    const FoldOutcome score_a = EvaluateFitted(test, **original);
    const FoldOutcome score_b = EvaluateFitted(test, **restored);
    EXPECT_EQ(score_a.scores.accuracy, score_b.scores.accuracy);
    EXPECT_EQ(score_a.scores.f1, score_b.scores.f1);
    EXPECT_EQ(score_a.scores.earliness, score_b.scores.earliness);
    EXPECT_EQ(score_a.scores.harmonic_mean, score_b.scores.harmonic_mean);
  }
}

// ---------------------------------------------------------------------------
// Hostile streams: errors, never UB or crashes
// ---------------------------------------------------------------------------

std::string SavedEctsModel() {
  auto model = testing::CreateComposed("ects");
  const Status fitted = model->Fit(testing::MakeToyDataset(6, 16));
  EXPECT_TRUE(fitted.ok()) << fitted.ToString();
  std::stringstream stream;
  EXPECT_TRUE(model->Save(stream).ok());
  return stream.str();
}

bool IsDataLossOrInvalid(const Status& status) {
  return status.code() == StatusCode::kDataLoss ||
         status.code() == StatusCode::kInvalidArgument;
}

TEST_F(SerializationTest, TruncatedStreamsFailCleanly) {
  const std::string bytes = SavedEctsModel();
  ASSERT_GT(bytes.size(), 32u);
  // Every interesting cut point: inside the magic, the header, the body, and
  // one byte short of complete.
  for (const size_t cut : std::vector<size_t>{0, 3, 9, 16, bytes.size() / 2,
                                              bytes.size() - 1}) {
    SCOPED_TRACE(cut);
    std::stringstream in(bytes.substr(0, cut));
    auto model = testing::CreateComposed("ects");
    const Status status = model->LoadFitted(in);
    ASSERT_FALSE(status.ok());
    EXPECT_TRUE(IsDataLossOrInvalid(status)) << status.ToString();
  }
}

TEST_F(SerializationTest, CorruptedBytesAreDetected) {
  const std::string bytes = SavedEctsModel();
  // Flip one byte at a spread of positions; the checksums (or the header
  // checks) must catch every one of them.
  for (const size_t pos : std::vector<size_t>{
           0, 9, bytes.size() / 4, bytes.size() / 2, bytes.size() - 2}) {
    SCOPED_TRACE(pos);
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5a);
    std::stringstream in(corrupt);
    auto model = testing::CreateComposed("ects");
    const Status status = model->LoadFitted(in);
    ASSERT_FALSE(status.ok());
    EXPECT_TRUE(IsDataLossOrInvalid(status)) << status.ToString();
  }
}

TEST_F(SerializationTest, GarbageStreamIsRejected) {
  std::stringstream in("this is not a model, not even close");
  auto model = testing::CreateComposed("ects");
  const Status status = model->LoadFitted(in);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(IsDataLossOrInvalid(status)) << status.ToString();
}

TEST_F(SerializationTest, FutureVersionIsInvalidArgument) {
  std::string bytes = SavedEctsModel();
  // Format: 8-byte magic, then the u32 version little-endian.
  bytes[8] = 99;
  std::stringstream in(bytes);
  auto model = testing::CreateComposed("ects");
  const Status status = model->LoadFitted(in);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST_F(SerializationTest, WrongAlgorithmIsInvalidArgument) {
  const std::string bytes = SavedEctsModel();
  auto other = ClassifierRegistry::Global().Create("edsc");
  ASSERT_TRUE(other.ok());
  std::stringstream in(bytes);
  const Status status = (*other)->LoadFitted(in);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST_F(SerializationTest, WrongConfigurationIsInvalidArgument) {
  const std::string bytes = SavedEctsModel();
  EctsOptions options;
  options.support = 2;  // differs from the saved model's support = 0
  auto model = testing::Compose("ECTS",
                                std::make_unique<NearestNeighborClassifier>(),
                                std::make_unique<EctsMplTrigger>(options));
  std::stringstream in(bytes);
  const Status status = model->LoadFitted(in);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

// ---------------------------------------------------------------------------
// Dataset fingerprints
// ---------------------------------------------------------------------------

TEST(DatasetFingerprint, DeterministicForIdenticalContent) {
  const Dataset a = testing::MakeToyDataset(5, 16, 0.0, 3);
  const Dataset b = testing::MakeToyDataset(5, 16, 0.0, 3);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(DatasetFingerprint, SensitiveToValuesLabelsAndName) {
  const Dataset base = testing::MakeToyDataset(5, 16, 0.0, 3);
  const Dataset other_values = testing::MakeToyDataset(5, 16, 0.0, 99);
  EXPECT_NE(base.Fingerprint(), other_values.Fingerprint());

  Dataset renamed = base;
  renamed.set_name("something-else");
  EXPECT_NE(base.Fingerprint(), renamed.Fingerprint());
}

// ---------------------------------------------------------------------------
// Fitted-model cache
// ---------------------------------------------------------------------------

std::string FreshCacheDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST_F(SerializationTest, WarmModelCacheSkipsEveryFit) {
  const Dataset data = testing::MakeToyDataset(10, 24, 0.0, 5);
  auto model = ClassifierRegistry::Global().Create("ects");
  ASSERT_TRUE(model.ok());

  EvaluationOptions options;
  options.num_folds = 3;
  options.seed = 7;
  options.model_cache =
      std::make_shared<ModelCache>(FreshCacheDir("model_cache_warm"));

  Counter& skipped = MetricRegistry::Global().counter("eval.fits_skipped");
  const uint64_t before = skipped.value();

  const EvaluationResult cold = CrossValidate(data, **model, options);
  ASSERT_TRUE(cold.trained());
  EXPECT_EQ(skipped.value(), before);  // empty cache: every fold really fits

  const EvaluationResult warm = CrossValidate(data, **model, options);
  ASSERT_TRUE(warm.trained());
  // The acceptance criterion: on the second run, EVERY fold comes from the
  // cache and no Fit runs at all.
  EXPECT_EQ(skipped.value() - before, options.num_folds);
  for (const auto& fold : warm.folds) {
    EXPECT_EQ(fold.train_seconds, 0.0);  // never fitted, nothing to time
  }

  // Cached folds score exactly like freshly trained ones.
  EXPECT_EQ(cold.MeanScores().accuracy, warm.MeanScores().accuracy);
  EXPECT_EQ(cold.MeanScores().f1, warm.MeanScores().f1);
  EXPECT_EQ(cold.MeanScores().earliness, warm.MeanScores().earliness);
  EXPECT_EQ(cold.MeanScores().harmonic_mean, warm.MeanScores().harmonic_mean);
}

TEST_F(SerializationTest, CacheKeyedBySeedAndFold) {
  const Dataset data = testing::MakeToyDataset(10, 24, 0.0, 5);
  auto model = ClassifierRegistry::Global().Create("ects");
  ASSERT_TRUE(model.ok());

  EvaluationOptions options;
  options.num_folds = 2;
  options.seed = 7;
  options.model_cache =
      std::make_shared<ModelCache>(FreshCacheDir("model_cache_seed"));

  Counter& skipped = MetricRegistry::Global().counter("eval.fits_skipped");
  CrossValidate(data, **model, options);
  const uint64_t after_cold = skipped.value();

  // A different seed draws different folds: its models must NOT be served
  // from the first seed's cache entries.
  options.seed = 8;
  CrossValidate(data, **model, options);
  EXPECT_EQ(skipped.value(), after_cold);
}

TEST_F(SerializationTest, UnloadableCacheEntryIsAMissNotAnError) {
  const Dataset data = testing::MakeToyDataset(6, 16);
  auto model = testing::CreateComposed("ects");
  ASSERT_TRUE(model->Fit(data).ok());

  const ModelCache cache(FreshCacheDir("model_cache_corrupt"));
  ModelCacheKey key;
  key.config_fingerprint = model->config_fingerprint();
  key.dataset_fingerprint = data.Fingerprint();
  key.fold = 0;
  key.num_folds = 3;
  key.seed = 7;
  ASSERT_TRUE(cache.Store(key, *model).ok());

  auto restored = testing::CreateComposed("ects");
  EXPECT_TRUE(cache.TryLoad(key, restored.get()));

  // Overwrite the entry with garbage: loading must degrade to a miss so the
  // caller refits, never an error or a crash.
  std::ofstream(cache.EntryPath(key, model->name()), std::ios::trunc)
      << "garbage";
  auto fresh = testing::CreateComposed("ects");
  EXPECT_FALSE(cache.TryLoad(key, fresh.get()));
}

}  // namespace
}  // namespace etsc
