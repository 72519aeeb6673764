#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "tests/test_util.h"
#include "tsc/muse.h"
#include "tsc/weasel.h"

namespace etsc {
namespace {

using testing::FullAccuracy;
using testing::MakeToyDataset;
using testing::MakeToyMultivariate;

TEST(ChooseWindowSizesFn, EvenSpreadAndBounds) {
  const auto sizes = ChooseWindowSizes(4, 40, 5);
  ASSERT_EQ(sizes.size(), 5u);
  EXPECT_EQ(sizes.front(), 4u);
  EXPECT_EQ(sizes.back(), 40u);
  for (size_t i = 1; i < sizes.size(); ++i) EXPECT_GT(sizes[i], sizes[i - 1]);
}

TEST(ChooseWindowSizesFn, ShortSeriesCollapses) {
  const auto sizes = ChooseWindowSizes(4, 5, 20);
  EXPECT_EQ(sizes.size(), 2u);  // only 4 and 5 possible
}

TEST(ChooseWindowSizesFn, MaxBelowMin) {
  const auto sizes = ChooseWindowSizes(8, 5, 10);
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], 5u);
}

TEST(PackWeaselKeyFn, InjectiveOnComponents) {
  const uint64_t a = PackWeaselKey(1, 100, 0);
  const uint64_t b = PackWeaselKey(2, 100, 0);
  const uint64_t c = PackWeaselKey(1, 101, 0);
  const uint64_t d = PackWeaselKey(1, 100, 1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

TEST(Weasel, LearnsToyProblem) {
  Dataset d = MakeToyDataset(20, 40);
  WeaselClassifier model;
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_GE(FullAccuracy(model, d), 0.95);  // train accuracy
  EXPECT_GT(model.num_features(), 0u);
}

TEST(Weasel, PredictsOnShorterPrefix) {
  Dataset d = MakeToyDataset(20, 40);
  WeaselClassifier model;
  ASSERT_TRUE(model.Fit(d).ok());
  // A prefix of half length must still classify (windows that fit are used).
  auto pred = model.Predict(d.instance(0).Prefix(20));
  EXPECT_TRUE(pred.ok());
}

TEST(Weasel, RejectsMultivariate) {
  Dataset mv = MakeToyMultivariate(5, 20);
  WeaselClassifier model;
  EXPECT_FALSE(model.Fit(mv).ok());
  EXPECT_FALSE(model.SupportsMultivariate());
}

TEST(Weasel, RejectsEmptyAndTooShort) {
  WeaselClassifier model;
  EXPECT_FALSE(model.Fit(Dataset()).ok());
  Dataset tiny("t", {TimeSeries::Univariate({1.0})}, {0});
  EXPECT_FALSE(model.Fit(tiny).ok());
}

TEST(Weasel, PredictBeforeFitFails) {
  WeaselClassifier model;
  EXPECT_FALSE(model.Predict(TimeSeries::Univariate({1, 2, 3})).ok());
}

TEST(Weasel, ProbaSumsToOne) {
  Dataset d = MakeToyDataset(15, 30);
  WeaselClassifier model;
  ASSERT_TRUE(model.Fit(d).ok());
  auto proba = model.PredictProba(d.instance(0));
  ASSERT_TRUE(proba.ok());
  double total = 0.0;
  for (double p : *proba) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Weasel, CloneUntrainedIsFresh) {
  Dataset d = MakeToyDataset(10, 20);
  WeaselClassifier model;
  ASSERT_TRUE(model.Fit(d).ok());
  auto clone = model.CloneUntrained();
  EXPECT_FALSE(clone->Predict(d.instance(0)).ok());
  ASSERT_TRUE(clone->Fit(d).ok());
  EXPECT_TRUE(clone->Predict(d.instance(0)).ok());
}

TEST(Weasel, DeterministicUnderSeed) {
  Dataset d = MakeToyDataset(15, 30);
  WeaselClassifier a, b;
  ASSERT_TRUE(a.Fit(d).ok());
  ASSERT_TRUE(b.Fit(d).ok());
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(*a.Predict(d.instance(i)), *b.Predict(d.instance(i)));
  }
}

TEST(Weasel, NormalizeInputOptionRuns) {
  WeaselOptions options;
  options.normalize_input = true;
  WeaselClassifier model(options);
  Dataset d = MakeToyDataset(15, 30);
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_GE(FullAccuracy(model, d), 0.8);
}

TEST(Muse, LearnsMultivariateToy) {
  Dataset mv = MakeToyMultivariate(15, 30);
  MuseClassifier model;
  ASSERT_TRUE(model.Fit(mv).ok());
  EXPECT_TRUE(model.SupportsMultivariate());
  EXPECT_GE(FullAccuracy(model, mv), 0.9);
}

TEST(Muse, DerivativeHelper) {
  const auto d = Derivative({1.0, 3.0, 6.0});
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 3.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);  // last repeats
}

TEST(Muse, DerivativeOfShortSeries) {
  EXPECT_EQ(Derivative({5.0}).size(), 1u);
  EXPECT_DOUBLE_EQ(Derivative({5.0})[0], 0.0);
}

TEST(Muse, VariableCountMismatchRejected) {
  Dataset mv = MakeToyMultivariate(10, 20);
  MuseClassifier model;
  ASSERT_TRUE(model.Fit(mv).ok());
  auto pred = model.Predict(TimeSeries::Univariate({1, 2, 3}));
  EXPECT_FALSE(pred.ok());
}

TEST(Muse, WithoutDerivativesStillWorks) {
  MuseOptions options;
  options.use_derivatives = false;
  MuseClassifier model(options);
  Dataset mv = MakeToyMultivariate(12, 24);
  ASSERT_TRUE(model.Fit(mv).ok());
  EXPECT_GE(FullAccuracy(model, mv), 0.8);
}

TEST(PackMuseKeyFn, ChannelSeparatesKeys) {
  EXPECT_NE(PackMuseKey(0, 1, 5, 0), PackMuseKey(1, 1, 5, 0));
  EXPECT_NE(PackMuseKey(255, 1, 5, 0), PackMuseKey(127, 1, 5, 0));
}

/// Two classes of `variables`-channel series; class 1 rises on every channel.
Dataset ManyVariables(size_t variables, size_t per_class = 3,
                      size_t length = 12) {
  Rng rng(5);
  Dataset dataset;
  for (int label = 0; label < 2; ++label) {
    for (size_t i = 0; i < per_class; ++i) {
      std::vector<std::vector<double>> channels(variables,
                                                std::vector<double>(length));
      for (auto& channel : channels) {
        for (size_t t = 0; t < length; ++t) {
          channel[t] = label * 0.3 * static_cast<double>(t) +
                       rng.Gaussian(0.0, 0.1);
        }
      }
      dataset.Add(TimeSeries::FromChannels(std::move(channels)).value(), label);
    }
  }
  return dataset;
}

bool Mentions(const Status& status, const std::string& text) {
  return status.message().find(text) != std::string::npos;
}

TEST(BagKeyLimits, MuseFitsUpTo128VariablesWithDerivatives) {
  // 2 x 128 channels fill the key's 8-bit channel field exactly.
  const Dataset d = ManyVariables(128);
  MuseClassifier model;
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_TRUE(model.Predict(d.instance(0)).ok());
}

TEST(BagKeyLimits, MuseRefusesChannelsBeyondTheKey) {
  MuseClassifier model;
  const Status status = model.Fit(ManyVariables(129));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Mentions(status, "8-bit channel field")) << status.ToString();
  // Without derivatives each variable is one channel: 129 fit.
  MuseOptions options;
  options.use_derivatives = false;
  MuseClassifier plain(options);
  EXPECT_TRUE(plain.Fit(ManyVariables(129)).ok());
}

TEST(BagKeyLimits, WordsWiderThan24BitsAreRefused) {
  // 8 symbols x 4 bits (alphabet 16) would spill into the window field.
  WeaselOptions wide;
  wide.word_length = 8;
  wide.alphabet_size = 16;
  WeaselClassifier weasel(wide);
  const Status status = weasel.Fit(MakeToyDataset(10, 30));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Mentions(status, "24-bit word field")) << status.ToString();
  MuseOptions muse_options;
  muse_options.weasel = wide;
  MuseClassifier muse(muse_options);
  EXPECT_EQ(muse.Fit(MakeToyMultivariate(5, 20)).code(),
            StatusCode::kInvalidArgument);
  // 6 x 4 = 24 bits fit exactly.
  WeaselOptions edge = wide;
  edge.word_length = 6;
  WeaselClassifier fits(edge);
  EXPECT_TRUE(fits.Fit(MakeToyDataset(10, 30)).ok());
}

TEST(BagKeyLimits, MuseRefusesMoreWindowsThanTheKeyHolds) {
  // MUSE's window field is 7 bits: 129 window sizes cannot be told apart.
  MuseOptions options;
  options.weasel.max_window_count = 129;
  MuseClassifier model(options);
  const Status status = model.Fit(MakeToyMultivariate(3, 140));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(Mentions(status, "7-bit window field")) << status.ToString();
}

/// A WEASEL stream up to its single transform, opened for LoadState: options
/// word length `model_word_length`, a transform of `word_length` symbols over
/// `alphabet_size` letters. Nothing follows, so a LoadState that accepts the
/// transform fails later on the missing vocabulary instead.
Deserializer WeaselHead(size_t model_word_length, size_t word_length,
                        size_t alphabet_size, size_t bits_per_symbol) {
  Serializer out;
  out.Begin("weasel");
  out.SizeT(model_word_length);
  out.SizeT(alphabet_size);
  out.Bool(false);
  out.Bool(true);
  out.Bool(false);
  out.SizeVec({4});
  out.SizeT(1);
  out.Begin("sfa");
  out.SizeT(word_length);
  out.SizeT(alphabet_size);
  out.Bool(false);
  out.U8(static_cast<uint8_t>(SfaBinning::kInformationGain));
  out.SizeT(bits_per_symbol);
  out.F64Mat(std::vector<std::vector<double>>(word_length));
  out.End();
  out.End();
  std::stringstream stream;
  EXPECT_TRUE(out.Finish(stream, "test", "weasel", "fp").ok());
  auto in = Deserializer::FromStream(stream);
  EXPECT_TRUE(in.ok());
  return std::move(in).value();
}

TEST(BagKeyLimits, LoadStateRefusesTransformsBeyondTheKey) {
  {
    Deserializer in = WeaselHead(8, 8, 16, 4);
    WeaselClassifier model;
    const Status status = model.LoadState(in);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    EXPECT_TRUE(Mentions(status, "24-bit word field")) << status.ToString();
  }
  {
    // Transform reads the model's word length of DFT values per window: a
    // longer transform word would read past them.
    Deserializer in = WeaselHead(2, 4, 4, 2);
    WeaselClassifier model;
    const Status status = model.LoadState(in);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    EXPECT_TRUE(Mentions(status, "word length differs")) << status.ToString();
  }
  {
    Serializer out;
    out.Begin("muse");
    out.SizeT(4);
    out.SizeT(4);
    for (int flag = 0; flag < 4; ++flag) out.Bool(true);
    out.SizeT(129);
    out.SizeVec({4});
    out.SizeT(258);
    out.End();
    std::stringstream stream;
    ASSERT_TRUE(out.Finish(stream, "test", "muse", "fp").ok());
    auto in = Deserializer::FromStream(stream);
    ASSERT_TRUE(in.ok());
    MuseClassifier model;
    const Status status = model.LoadState(*in);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    EXPECT_TRUE(Mentions(status, "channel")) << status.ToString();
  }
}

}  // namespace
}  // namespace etsc
