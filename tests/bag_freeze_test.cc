// Bit-identity freeze of the WEASEL and WEASEL+MUSE bag-of-patterns path:
// word counting, chi² projection and the logistic head. Per-instance
// PredictProba vectors are frozen as %.17g literals and compared with ==,
// over full series, shorter prefixes, a prefix shorter than the smallest
// window (an empty bag) and out-of-distribution series whose words the
// training vocabulary never saw. A save/load round trip must reproduce the
// saved bytes and every prediction, so whatever a model derives from its
// saved state at load time matches what Fit built.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "tests/test_util.h"
#include "tsc/muse.h"
#include "tsc/weasel.h"

namespace etsc {
namespace {

using testing::MakeToyDataset;
using testing::MakeToyMultivariate;

struct Probe {
  std::string name;
  TimeSeries series;
};

struct Frozen {
  const char* name;
  std::vector<double> proba;
};

/// A linear ramp on every channel: its windows differ only in level, so its
/// words (and their repeated bigrams) are far from the toy training data.
TimeSeries Ramp(size_t channels, size_t length) {
  std::vector<std::vector<double>> values(channels,
                                          std::vector<double>(length));
  for (size_t c = 0; c < channels; ++c) {
    for (size_t t = 0; t < length; ++t) {
      values[c][t] = 0.5 * static_cast<double>(t) - static_cast<double>(c);
    }
  }
  return TimeSeries::FromChannels(std::move(values)).value();
}

std::vector<Probe> WeaselProbes(const Dataset& train) {
  const TimeSeries loud = MakeToyDataset(1, 40, 0.0, 11, 4.0).instance(1);
  return {
      {"full-class0", train.instance(0)},
      {"full-class1", train.instance(39)},
      {"prefix-20", train.instance(25).Prefix(20)},
      {"prefix-9", train.instance(3).Prefix(9)},
      {"prefix-3-empty-bag", train.instance(5).Prefix(3)},
      {"loud-unseen", loud},
      {"ramp-unseen", Ramp(1, 40)},
      {"ramp-prefix-12-unseen", Ramp(1, 40).Prefix(12)},
  };
}

std::vector<Probe> MuseProbes(const Dataset& train) {
  const TimeSeries loud = MakeToyMultivariate(1, 30, 3, 9, 3.0).instance(2);
  return {
      {"full-class0", train.instance(0)},
      {"full-class1", train.instance(20)},
      {"full-class2", train.instance(44)},
      {"prefix-15", train.instance(31).Prefix(15)},
      {"prefix-3-empty-bag", train.instance(7).Prefix(3)},
      {"loud-unseen", loud},
      {"ramp-unseen", Ramp(2, 30)},
      {"ramp-prefix-10-unseen", Ramp(2, 30).Prefix(10)},
  };
}

std::string Literal(const std::vector<double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", values[i]);
    out += (i == 0 ? "" : ", ") + std::string(buf);
  }
  return out + "}";
}

/// Every probe's PredictProba must equal its frozen vector exactly. A
/// mismatch prints the actual vector as a pasteable literal.
void ExpectFrozen(const FullClassifier& model, const std::vector<Probe>& probes,
                  const std::vector<Frozen>& frozen) {
  ASSERT_EQ(probes.size(), frozen.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(probes[i].name, frozen[i].name);
    auto proba = model.PredictProba(probes[i].series);
    ASSERT_TRUE(proba.ok()) << probes[i].name << ": " << proba.status().ToString();
    EXPECT_EQ(*proba, frozen[i].proba)
        << probes[i].name << " got " << Literal(*proba);
  }
}

/// Save -> LoadFitted -> Save reproduces the bytes, and the loaded model
/// predicts every probe exactly as the fitted one does.
template <typename Model>
void ExpectRoundTrip(const Model& fitted, const std::vector<Probe>& probes) {
  std::stringstream first;
  ASSERT_TRUE(fitted.Save(first).ok());
  const std::string bytes = first.str();
  Model loaded;
  std::istringstream in(bytes);
  ASSERT_TRUE(loaded.LoadFitted(in).ok());
  std::stringstream second;
  ASSERT_TRUE(loaded.Save(second).ok());
  EXPECT_EQ(second.str(), bytes);
  for (const Probe& probe : probes) {
    auto want = fitted.PredictProba(probe.series);
    auto got = loaded.PredictProba(probe.series);
    ASSERT_TRUE(want.ok() && got.ok()) << probe.name;
    EXPECT_EQ(*got, *want) << probe.name;
    EXPECT_EQ(*loaded.Predict(probe.series), *fitted.Predict(probe.series))
        << probe.name;
  }
}

// Recorded (%.17g) while Transform still appended one entry per word and
// sorted the bag, and prediction projected the full bag onto the selection.
const std::vector<Frozen> kWeaselFrozen = {
    {"full-class0", {1, 1.6594546984994732e-193}},
    {"full-class1", {6.3798501729031545e-197, 1}},
    {"prefix-20", {5.0120078457828363e-49, 1}},
    {"prefix-9", {0.99999996414182846, 3.5858171586279976e-08}},
    {"prefix-3-empty-bag", {0.54353661087359728, 0.45646338912640272}},
    {"loud-unseen", {1.1738225927150315e-98, 1}},
    {"ramp-unseen", {8.1759401451730939e-156, 1}},
    {"ramp-prefix-12-unseen", {3.2152086730651674e-13, 0.99999999999967848}},
};

const std::vector<Frozen> kMuseFrozen = {
    {"full-class0", {1, 0, 0}},
    {"full-class1", {5.8913073292408754e-296, 1, 9.1117436769746615e-103}},
    {"full-class2", {1.546730830169447e-237, 0, 1}},
    {"prefix-15", {9.5856989735100233e-49, 1.787698034624542e-79, 1}},
    {"prefix-3-empty-bag",
     {0.39503831505709358, 0.25094303999682527, 0.3540186449460811}},
    {"loud-unseen", {3.0553878110434514e-50, 1.1457947554677165e-33, 1}},
    {"ramp-unseen", {1, 2.0919005010408339e-77, 6.3685481675775654e-65}},
    {"ramp-prefix-10-unseen",
     {4.8126841198806724e-07, 0.15203409152204897, 0.84796542720953916}},
};

TEST(BagFreeze, WeaselPredictProbaMatchesReference) {
  const Dataset train = MakeToyDataset();
  WeaselClassifier model;
  ASSERT_TRUE(model.Fit(train).ok());
  ExpectFrozen(model, WeaselProbes(train), kWeaselFrozen);
}

TEST(BagFreeze, MusePredictProbaMatchesReference) {
  const Dataset train = MakeToyMultivariate();
  MuseClassifier model;
  ASSERT_TRUE(model.Fit(train).ok());
  ExpectFrozen(model, MuseProbes(train), kMuseFrozen);
}

TEST(BagFreeze, WeaselSaveLoadSaveIsByteIdentical) {
  const Dataset train = MakeToyDataset();
  WeaselClassifier model;
  ASSERT_TRUE(model.Fit(train).ok());
  ExpectRoundTrip(model, WeaselProbes(train));
}

TEST(BagFreeze, MuseSaveLoadSaveIsByteIdentical) {
  const Dataset train = MakeToyMultivariate();
  MuseClassifier model;
  ASSERT_TRUE(model.Fit(train).ok());
  ExpectRoundTrip(model, MuseProbes(train));
}

}  // namespace
}  // namespace etsc
