// End-to-end smoke tests: every ETSC algorithm and every full-TSC algorithm
// must beat chance comfortably on an easy synthetic problem and report sane
// earliness. Finer-grained behaviour is covered by the per-module tests.

#include <gtest/gtest.h>

#include "algos/ecec.h"
#include "algos/economy_k.h"
#include "algos/edsc.h"
#include "algos/strut.h"
#include "algos/teaser.h"
#include "core/dataset.h"
#include "tests/test_util.h"
#include "tsc/minirocket.h"
#include "tsc/mlstm.h"
#include "tsc/muse.h"
#include "tsc/weasel.h"

namespace etsc {
namespace {

using testing::Compose;
using testing::CreateComposed;
using testing::EarlyAccuracy;
using testing::FullAccuracy;
using testing::MakeToyDataset;
using testing::MakeToyMultivariate;

struct Split {
  Dataset train;
  Dataset test;
};

Split MakeSplit(const Dataset& dataset, uint64_t seed = 9) {
  Rng rng(seed);
  const SplitIndices indices = StratifiedSplit(dataset, 0.7, &rng);
  return {dataset.Subset(indices.train), dataset.Subset(indices.test)};
}

TEST(SmokeEarly, Ects) {
  const Split split = MakeSplit(MakeToyDataset(25, 40));
  auto model = CreateComposed("ects");
  ASSERT_TRUE(model->Fit(split.train).ok());
  EXPECT_GE(EarlyAccuracy(*model, split.test), 0.8);
}

TEST(SmokeEarly, Edsc) {
  const Split split = MakeSplit(MakeToyDataset(20, 30));
  EdscOptions options;
  options.start_stride = 2;
  options.length_stride = 3;
  EdscClassifier model(options);
  ASSERT_TRUE(model.Fit(split.train).ok());
  EXPECT_GE(EarlyAccuracy(model, split.test), 0.7);
}

TEST(SmokeEarly, EconomyK) {
  const Split split = MakeSplit(MakeToyDataset(25, 40));
  EcoCostTriggerOptions options;
  options.gbdt.num_rounds = 15;
  auto model = Compose("ECO-K", nullptr,
                       std::make_unique<EcoCostTrigger>(options),
                       /*num_checkpoints=*/8);
  ASSERT_TRUE(model->Fit(split.train).ok());
  EXPECT_GE(EarlyAccuracy(*model, split.test), 0.8);
}

TEST(SmokeEarly, Ecec) {
  const Split split = MakeSplit(MakeToyDataset(25, 40));
  auto model = Compose("ECEC", std::make_unique<WeaselClassifier>(),
                       std::make_unique<EcecRatioTrigger>(),
                       /*num_checkpoints=*/6);
  ASSERT_TRUE(model->Fit(split.train).ok());
  EXPECT_GE(EarlyAccuracy(*model, split.test), 0.8);
}

TEST(SmokeEarly, Teaser) {
  const Split split = MakeSplit(MakeToyDataset(25, 40));
  auto model = Compose("TEASER", std::make_unique<WeaselClassifier>(),
                       std::make_unique<TeaserGateTrigger>(),
                       /*num_checkpoints=*/6);
  ASSERT_TRUE(model->Fit(split.train).ok());
  EXPECT_GE(EarlyAccuracy(*model, split.test), 0.8);
}

TEST(SmokeEarly, StrutWeasel) {
  const Split split = MakeSplit(MakeToyDataset(25, 40));
  auto model = CreateComposed("s-weasel");
  ASSERT_TRUE(model->Fit(split.train).ok());
  EXPECT_GE(EarlyAccuracy(*model, split.test), 0.8);
}

TEST(SmokeEarly, StrutMiniRocket) {
  const Split split = MakeSplit(MakeToyDataset(25, 40));
  auto model = CreateComposed("s-mini");
  ASSERT_TRUE(model->Fit(split.train).ok());
  EXPECT_GE(EarlyAccuracy(*model, split.test), 0.8);
}

TEST(SmokeEarly, StrutMlstm) {
  const Split split = MakeSplit(MakeToyDataset(20, 24));
  StrutOptions options;
  options.search = StrutSearch::kGrid;  // as the "s-mlstm" alias
  options.fractions = {0.25, 0.5, 1.0};
  auto model = Compose("S-MLSTM", std::make_unique<MlstmClassifier>(),
                       std::make_unique<StrutTrigger>(options));
  ASSERT_TRUE(model->Fit(split.train).ok());
  EXPECT_GE(EarlyAccuracy(*model, split.test), 0.7);
}

TEST(SmokeFull, Weasel) {
  const Split split = MakeSplit(MakeToyDataset(25, 40));
  WeaselClassifier model;
  ASSERT_TRUE(model.Fit(split.train).ok());
  EXPECT_GE(FullAccuracy(model, split.test), 0.85);
}

TEST(SmokeFull, Muse) {
  const Split split = MakeSplit(MakeToyMultivariate(15, 30));
  MuseClassifier model;
  ASSERT_TRUE(model.Fit(split.train).ok());
  EXPECT_GE(FullAccuracy(model, split.test), 0.8);
}

TEST(SmokeFull, MiniRocketUnivariate) {
  const Split split = MakeSplit(MakeToyDataset(25, 40));
  MiniRocketClassifier model;
  ASSERT_TRUE(model.Fit(split.train).ok());
  EXPECT_GE(FullAccuracy(model, split.test), 0.85);
}

TEST(SmokeFull, MiniRocketMultivariate) {
  const Split split = MakeSplit(MakeToyMultivariate(15, 30));
  MiniRocketClassifier model;
  ASSERT_TRUE(model.Fit(split.train).ok());
  EXPECT_GE(FullAccuracy(model, split.test), 0.8);
}

TEST(SmokeFull, Mlstm) {
  const Split split = MakeSplit(MakeToyMultivariate(15, 24));
  MlstmOptions options;
  options.epochs = 25;
  MlstmClassifier model(options);
  ASSERT_TRUE(model.Fit(split.train).ok());
  EXPECT_GE(FullAccuracy(model, split.test), 0.7);
}

// Every early classifier reports a prefix length no greater than the series
// length and at least 1.
TEST(SmokeEarly, PrefixLengthsAreSane) {
  const Split split = MakeSplit(MakeToyDataset(20, 30));
  auto model = CreateComposed("ects");
  ASSERT_TRUE(model->Fit(split.train).ok());
  for (size_t i = 0; i < split.test.size(); ++i) {
    auto pred = model->PredictEarly(split.test.instance(i));
    ASSERT_TRUE(pred.ok());
    EXPECT_GE(pred->prefix_length, 1u);
    EXPECT_LE(pred->prefix_length, split.test.instance(i).length());
  }
}

}  // namespace
}  // namespace etsc
