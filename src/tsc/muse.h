#ifndef ETSC_TSC_MUSE_H_
#define ETSC_TSC_MUSE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/classifier.h"
#include "ml/linear.h"
#include "ml/sfa.h"
#include "tsc/weasel.h"

namespace etsc {

/// WEASEL+MUSE (Schäfer & Leser 2017): the multivariate WEASEL. Each variable
/// (and optionally its first-order derivative) contributes
/// channel-identified SFA words to one joint bag of patterns, followed by the
/// same chi²-pruned logistic regression. Per the paper, the default input
/// normalisation is removed (streaming setting).
struct MuseOptions {
  WeaselOptions weasel;          // word/window/binning configuration
  bool use_derivatives = true;   // add d/dt channels
};

class MuseClassifier : public FullClassifier {
 public:
  explicit MuseClassifier(MuseOptions options = {}) : options_(options) {}

  Status Fit(const Dataset& train) override;
  Result<int> Predict(const TimeSeries& series) const override;
  Result<std::vector<double>> PredictProba(const TimeSeries& series) const override;
  const std::vector<int>& class_labels() const override {
    return logistic_.class_labels();
  }
  std::string name() const override { return "WEASEL+MUSE"; }
  bool SupportsMultivariate() const override { return true; }
  std::unique_ptr<FullClassifier> CloneUntrained() const override {
    return std::make_unique<MuseClassifier>(options_);
  }

  size_t num_features() const { return selected_.size(); }

  std::string config_fingerprint() const override;
  Status SaveState(Serializer& out) const override;
  Status LoadState(Deserializer& in) override;

 private:
  /// All channels of a series: the raw variables followed by their
  /// derivatives when enabled.
  std::vector<std::vector<double>> Channels(const TimeSeries& series) const;

  /// Calls visit(key) for every unigram and bigram key of `channels` under
  /// the fitted transforms, channel by channel, window size by window size.
  template <typename Visit>
  void ForEachKey(const std::vector<std::vector<double>>& channels,
                  Visit&& visit) const;
  /// Training bag of one series over vocabulary ids; unseen patterns get the
  /// next id.
  SparseVector TrainingBag(const std::vector<std::vector<double>>& channels,
                           weasel_detail::BagCounter* counter);
  /// The chi²-selected columns of one series, counted straight from its keys.
  Result<SparseVector> TransformSelected(const TimeSeries& series) const;

  MuseOptions options_;
  size_t num_variables_ = 0;
  std::vector<size_t> window_sizes_;
  // transforms_[channel][window_index]
  std::vector<std::vector<Sfa>> transforms_;
  std::unordered_map<uint64_t, size_t> vocabulary_;
  std::vector<size_t> selected_;
  // key -> column among selected_; derived from the two above, not saved.
  weasel_detail::ColumnMap columns_;
  LogisticRegression logistic_;
};

/// Packs (channel, window, word, prev+1) into a vocabulary key: 8 bits of
/// channel, 7 of window index, a 24-bit word and 25 bits of previous word + 1.
/// Fit refuses configurations that overflow it, so at most 256 channels: 128
/// variables with derivatives.
uint64_t PackMuseKey(size_t channel, size_t window_index, uint64_t word,
                     uint64_t prev_plus_1);

/// First-order difference (x[t+1] - x[t], length preserved by repeating the
/// last difference).
std::vector<double> Derivative(const std::vector<double>& values);

}  // namespace etsc

#endif  // ETSC_TSC_MUSE_H_
