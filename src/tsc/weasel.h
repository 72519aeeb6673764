#ifndef ETSC_TSC_WEASEL_H_
#define ETSC_TSC_WEASEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/classifier.h"
#include "ml/linear.h"
#include "ml/sfa.h"

namespace etsc {

/// Configuration of the WEASEL pipeline (Schäfer & Leser 2017; paper Sec. 3.4).
struct WeaselOptions {
  size_t word_length = 4;        // SFA word length (real coefficient count)
  size_t alphabet_size = 4;
  size_t min_window = 4;
  size_t max_window_count = 20;  // number of distinct window lengths
  bool use_bigrams = true;
  bool norm_mean = false;        // drop the DC Fourier coefficient
  /// Z-normalise each input series before the transform. The paper evaluates
  /// WEASEL *without* this step (unrealistic in streaming settings), so the
  /// default is off.
  bool normalize_input = false;
  double chi2_threshold = 2.0;
  LogisticRegressionOptions logistic;
  uint64_t seed = 7;
};

namespace weasel_detail {

/// Counts dense feature ids into a bag: one count per id plus the ids
/// touched, so building the bag costs its distinct ids, not one sorted entry
/// per word. Reused across the training series of one Fit.
class BagCounter {
 public:
  void Add(size_t id) {
    if (id >= counts_.size()) counts_.resize(id + 1, 0);
    if (counts_[id]++ == 0) touched_.push_back(id);
  }

  /// The bag in ascending id order, each id once with its count; leaves the
  /// counter empty for the next series.
  SparseVector Take();

 private:
  std::vector<uint32_t> counts_;
  std::vector<size_t> touched_;
};

/// Bits of the word field in a packed bag-of-patterns key.
inline constexpr size_t kKeyWordBits = 24;

/// InvalidArgument naming the limit unless `channels` channels, `windows`
/// window sizes and words of `word_length` symbols of `bits_per_symbol` bits
/// fit the packed key's fields of `channel_bits`, `window_bits` and
/// kKeyWordBits bits.
Status CheckKeyFields(size_t channels, size_t channel_bits, size_t windows,
                      size_t window_bits, size_t word_length,
                      size_t bits_per_symbol);

/// LoadState's check of one restored transform, as DataLoss: it makes words
/// of the model's `word_length` symbols (the bag transform computes that many
/// DFT values per window) and CheckKeyFields holds for them.
Status CheckLoadedTransform(const Sfa& sfa, size_t word_length,
                            size_t channels, size_t channel_bits,
                            size_t windows, size_t window_bits);

/// The bag of `columns`, the column of every selected key one series hit:
/// each column once, ascending, with its count. Sorting the hits keeps a
/// prediction's cost independent of how many columns were selected.
SparseVector ColumnBag(std::vector<size_t> columns);

/// Maps each vocabulary key whose id is in `selected` (sorted ids) to its
/// position there: the column the key counts into after chi² selection.
/// Prediction looks up every word and bigram of a series, so the map is one
/// flat table (open addressing, linear probing, at most half full) rather
/// than a node per key.
class ColumnMap {
 public:
  static constexpr size_t kNone = SIZE_MAX;

  ColumnMap() = default;
  ColumnMap(const std::unordered_map<uint64_t, size_t>& vocabulary,
            const std::vector<size_t>& selected);

  /// The column of `key`, or kNone when the key is not selected.
  size_t Find(uint64_t key) const {
    if (slots_.empty()) return kNone;
    for (size_t i = Hash(key) & mask_;; i = (i + 1) & mask_) {
      if (slots_[i].column == kNone || slots_[i].key == key) {
        return slots_[i].column;
      }
    }
  }

 private:
  struct Slot {
    uint64_t key = 0;
    size_t column = kNone;  // kNone marks an empty slot
  };

  static size_t Hash(uint64_t key) {
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdULL;
    return key ^ (key >> 33);
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
};

/// Persists a bag-of-patterns vocabulary in sorted-key order so saved bytes
/// are deterministic; shared by WEASEL and MUSE.
void SaveBagOfPatterns(Serializer& out,
                       const std::unordered_map<uint64_t, size_t>& vocabulary);
Status LoadBagOfPatterns(Deserializer& in,
                         std::unordered_map<uint64_t, size_t>* vocabulary);

}  // namespace weasel_detail

/// WEASEL: sliding windows of several lengths -> supervised SFA words ->
/// bag of uni+bigrams -> chi² pruning -> logistic regression. Univariate.
class WeaselClassifier : public FullClassifier {
 public:
  explicit WeaselClassifier(WeaselOptions options = {}) : options_(options) {}

  Status Fit(const Dataset& train) override;
  Result<int> Predict(const TimeSeries& series) const override;
  Result<std::vector<double>> PredictProba(const TimeSeries& series) const override;
  const std::vector<int>& class_labels() const override {
    return logistic_.class_labels();
  }
  std::string name() const override { return "WEASEL"; }
  bool SupportsMultivariate() const override { return false; }
  std::unique_ptr<FullClassifier> CloneUntrained() const override {
    return std::make_unique<WeaselClassifier>(options_);
  }

  /// Number of features surviving the chi² test (for tests/inspection).
  size_t num_features() const { return selected_.size(); }

  std::string config_fingerprint() const override;
  Status SaveState(Serializer& out) const override;
  Status LoadState(Deserializer& in) override;

 private:
  /// Calls visit(key) for every unigram and bigram key of `values` under the
  /// fitted transforms, window size by window size in series order.
  template <typename Visit>
  void ForEachKey(const std::vector<double>& values, Visit&& visit) const;
  /// Training bag of one series over vocabulary ids; unseen patterns get the
  /// next id.
  SparseVector TrainingBag(const std::vector<double>& values,
                           weasel_detail::BagCounter* counter);
  /// The chi²-selected columns of one series, counted straight from its keys.
  Result<SparseVector> TransformSelected(const TimeSeries& series) const;

  WeaselOptions options_;
  std::vector<size_t> window_sizes_;
  std::vector<Sfa> transforms_;  // one per window size
  // (window index, word, previous word + 1) -> dense feature id. prev = 0
  // encodes a unigram.
  std::unordered_map<uint64_t, size_t> vocabulary_;
  std::vector<size_t> selected_;  // chi²-surviving feature ids, sorted
  // key -> column among selected_; derived from the two above, not saved.
  weasel_detail::ColumnMap columns_;
  LogisticRegression logistic_;
};

/// Stable fingerprint of everything in WeaselOptions that affects training,
/// for config_fingerprint() of WEASEL-based pipelines.
std::string WeaselOptionsFingerprint(const WeaselOptions& options);

/// Packs a bag-of-patterns key: 15 bits of window index, a 24-bit word and
/// 25 bits of previous word + 1. Fit refuses configurations that overflow it.
uint64_t PackWeaselKey(size_t window_index, uint64_t word, uint64_t prev_plus_1);

/// Chooses `count` window sizes in [min_window, max_len], evenly spread.
std::vector<size_t> ChooseWindowSizes(size_t min_window, size_t max_len,
                                      size_t count);

}  // namespace etsc

#endif  // ETSC_TSC_WEASEL_H_
