#include "tsc/weasel.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/rng.h"
#include "ml/chi2.h"
#include "ml/fourier.h"

namespace etsc {

uint64_t PackWeaselKey(size_t window_index, uint64_t word, uint64_t prev_plus_1) {
  ETSC_DCHECK(word < (1ull << 24));
  ETSC_DCHECK(prev_plus_1 < (1ull << 25));
  return (static_cast<uint64_t>(window_index) << 49) | (word << 25) | prev_plus_1;
}

std::vector<size_t> ChooseWindowSizes(size_t min_window, size_t max_len,
                                      size_t count) {
  std::vector<size_t> sizes;
  if (max_len < min_window || count == 0) {
    if (max_len >= 2) sizes.push_back(std::min(max_len, min_window));
    return sizes;
  }
  const size_t span = max_len - min_window;
  const size_t steps = std::min(count, span + 1);
  for (size_t i = 0; i < steps; ++i) {
    const size_t w =
        min_window + (steps == 1 ? 0 : i * span / (steps - 1));
    if (sizes.empty() || sizes.back() != w) sizes.push_back(w);
  }
  return sizes;
}

Status WeaselClassifier::Fit(const Dataset& train) {
  if (train.empty()) return Status::InvalidArgument("WEASEL: empty training set");
  if (train.NumVariables() != 1) {
    return Status::InvalidArgument("WEASEL: univariate input required");
  }
  const size_t max_len = train.MinLength();
  if (max_len < 2) return Status::InvalidArgument("WEASEL: series too short");

  window_sizes_ = ChooseWindowSizes(options_.min_window, max_len,
                                    options_.max_window_count);
  if (window_sizes_.empty()) {
    return Status::InvalidArgument("WEASEL: no usable window sizes");
  }

  // Optionally z-normalise inputs (off by default; see WeaselOptions).
  std::vector<std::vector<double>> series(train.size());
  for (size_t i = 0; i < train.size(); ++i) {
    if (options_.normalize_input) {
      TimeSeries ts = train.instance(i);
      ts.ZNormalize();
      std::span<const double> c = ts.channel(0);
      series[i].assign(c.begin(), c.end());
    } else {
      std::span<const double> c = train.instance(i).channel(0);
      series[i].assign(c.begin(), c.end());
    }
  }

  // Fit one supervised SFA per window size.
  transforms_.clear();
  transforms_.reserve(window_sizes_.size());
  SfaOptions sfa_options;
  sfa_options.word_length = options_.word_length;
  sfa_options.alphabet_size = options_.alphabet_size;
  sfa_options.norm_mean = options_.norm_mean;
  sfa_options.binning = SfaBinning::kInformationGain;
  const std::vector<std::span<const double>> views(series.begin(), series.end());
  for (size_t w : window_sizes_) {
    Sfa sfa(sfa_options);
    ETSC_RETURN_NOT_OK(sfa.Fit(views, w, train.labels()));
    transforms_.push_back(std::move(sfa));
  }

  // Build the vocabulary and the training bags. Transform looks keys up in
  // vocabulary_ and appends unseen ones to `grow`, so passing vocabulary_ as
  // both makes training insert while prediction (grow == nullptr) drops.
  vocabulary_.clear();
  std::vector<SparseVector> bags(train.size());
  for (size_t i = 0; i < train.size(); ++i) {
    bags[i] = Transform(series[i], &vocabulary_);
  }
  const size_t dim = vocabulary_.size();
  for (auto& bag : bags) bag.SortAndMerge();

  // Chi² feature selection.
  selected_ = Chi2Select(bags, dim, train.labels(), options_.chi2_threshold);
  std::vector<SparseVector> projected = ProjectFeatures(bags, selected_);

  Rng rng(options_.seed);
  logistic_ = LogisticRegression(options_.logistic);
  return logistic_.FitSparse(projected, selected_.size(), train.labels(), &rng);
}

SparseVector WeaselClassifier::Transform(
    const std::vector<double>& values,
    std::unordered_map<uint64_t, size_t>* grow) const {
  SparseVector bag;
  for (size_t wi = 0; wi < window_sizes_.size(); ++wi) {
    const size_t w = window_sizes_[wi];
    if (values.size() < w) continue;
    const size_t num_coeffs = (options_.word_length + 1) / 2;
    const std::vector<double> coeffs =
        SlidingDft(values, w, num_coeffs, options_.norm_mean);
    const size_t row = 2 * num_coeffs;
    std::vector<uint64_t> words(coeffs.size() / row);
    for (size_t s = 0; s < words.size(); ++s) {
      words[s] = transforms_[wi].WordFromApproximation(&coeffs[s * row]);
    }
    for (size_t s = 0; s < words.size(); ++s) {
      const uint64_t uni_key = PackWeaselKey(wi, words[s], 0);
      auto it = vocabulary_.find(uni_key);
      if (it == vocabulary_.end()) {
        if (grow == nullptr) continue;
        it = grow->emplace(uni_key, grow->size()).first;
      }
      bag.Add(it->second, 1.0);
      if (options_.use_bigrams && s >= w) {
        const uint64_t bi_key = PackWeaselKey(wi, words[s], words[s - w] + 1);
        auto bit = vocabulary_.find(bi_key);
        if (bit == vocabulary_.end()) {
          if (grow == nullptr) continue;
          bit = grow->emplace(bi_key, grow->size()).first;
        }
        bag.Add(bit->second, 1.0);
      }
    }
  }
  bag.SortAndMerge();
  return bag;
}

Result<SparseVector> WeaselClassifier::TransformSelected(
    const TimeSeries& series) const {
  if (!logistic_.fitted()) {
    return Status::FailedPrecondition("WEASEL: not fitted");
  }
  if (series.num_variables() != 1) {
    return Status::InvalidArgument("WEASEL: univariate input required");
  }
  std::vector<double> values;
  if (options_.normalize_input) {
    TimeSeries copy = series;
    copy.ZNormalize();
    std::span<const double> c = copy.channel(0);
    values.assign(c.begin(), c.end());
  } else {
    std::span<const double> c = series.channel(0);
    values.assign(c.begin(), c.end());
  }
  return ProjectRow(Transform(values, nullptr), selected_);
}

Result<int> WeaselClassifier::Predict(const TimeSeries& series) const {
  ETSC_ASSIGN_OR_RETURN(SparseVector row, TransformSelected(series));
  return logistic_.PredictSparse(row);
}

Result<std::vector<double>> WeaselClassifier::PredictProba(
    const TimeSeries& series) const {
  ETSC_ASSIGN_OR_RETURN(SparseVector row, TransformSelected(series));
  return logistic_.PredictProbaSparse(row);
}

namespace {

/// The bag-of-patterns vocabulary in sorted-key order so saved bytes are
/// deterministic regardless of unordered_map iteration order.
void SaveVocabulary(Serializer& out,
                    const std::unordered_map<uint64_t, size_t>& vocabulary) {
  std::vector<std::pair<uint64_t, size_t>> entries(vocabulary.begin(),
                                                   vocabulary.end());
  std::sort(entries.begin(), entries.end());
  out.SizeT(entries.size());
  for (const auto& [key, id] : entries) {
    out.U64(key);
    out.SizeT(id);
  }
}

Status LoadVocabulary(Deserializer& in,
                      std::unordered_map<uint64_t, size_t>* vocabulary) {
  ETSC_ASSIGN_OR_RETURN(size_t count, in.SizeT());
  vocabulary->clear();
  for (size_t i = 0; i < count; ++i) {
    ETSC_ASSIGN_OR_RETURN(uint64_t key, in.U64());
    ETSC_ASSIGN_OR_RETURN(size_t id, in.SizeT());
    (*vocabulary)[key] = id;
  }
  if (vocabulary->size() != count) {
    return Status::DataLoss("WEASEL: duplicate vocabulary keys");
  }
  return Status::OK();
}

}  // namespace

namespace weasel_detail {

void SaveBagOfPatterns(Serializer& out,
                       const std::unordered_map<uint64_t, size_t>& vocabulary) {
  SaveVocabulary(out, vocabulary);
}

Status LoadBagOfPatterns(Deserializer& in,
                         std::unordered_map<uint64_t, size_t>* vocabulary) {
  return LoadVocabulary(in, vocabulary);
}

}  // namespace weasel_detail

Status WeaselClassifier::SaveState(Serializer& out) const {
  out.Begin("weasel");
  // Transform() reads these at predict time; they travel with the model so a
  // default-constructed instance predicts identically after LoadState.
  out.SizeT(options_.word_length);
  out.SizeT(options_.alphabet_size);
  out.Bool(options_.norm_mean);
  out.Bool(options_.use_bigrams);
  out.Bool(options_.normalize_input);
  out.SizeVec(window_sizes_);
  out.SizeT(transforms_.size());
  for (const Sfa& sfa : transforms_) sfa.SaveState(out);
  SaveVocabulary(out, vocabulary_);
  out.SizeVec(selected_);
  logistic_.SaveState(out);
  out.End();
  return Status::OK();
}

Status WeaselClassifier::LoadState(Deserializer& in) {
  ETSC_RETURN_NOT_OK(in.Enter("weasel"));
  ETSC_ASSIGN_OR_RETURN(options_.word_length, in.SizeT());
  ETSC_ASSIGN_OR_RETURN(options_.alphabet_size, in.SizeT());
  ETSC_ASSIGN_OR_RETURN(options_.norm_mean, in.Bool());
  ETSC_ASSIGN_OR_RETURN(options_.use_bigrams, in.Bool());
  ETSC_ASSIGN_OR_RETURN(options_.normalize_input, in.Bool());
  ETSC_ASSIGN_OR_RETURN(window_sizes_, in.SizeVec());
  ETSC_ASSIGN_OR_RETURN(size_t count, in.SizeT());
  if (count != window_sizes_.size()) {
    return Status::DataLoss("WEASEL: transform/window count mismatch");
  }
  transforms_.assign(count, Sfa{});
  for (Sfa& sfa : transforms_) ETSC_RETURN_NOT_OK(sfa.LoadState(in));
  ETSC_RETURN_NOT_OK(LoadVocabulary(in, &vocabulary_));
  ETSC_ASSIGN_OR_RETURN(selected_, in.SizeVec());
  ETSC_RETURN_NOT_OK(logistic_.LoadState(in));
  return in.Leave();
}

std::string WeaselOptionsFingerprint(const WeaselOptions& o) {
  std::string fp = "wl=" + std::to_string(o.word_length) +
                   ",as=" + std::to_string(o.alphabet_size) +
                   ",minw=" + std::to_string(o.min_window) +
                   ",wc=" + std::to_string(o.max_window_count) +
                   ",bg=" + std::to_string(o.use_bigrams ? 1 : 0) +
                   ",nm=" + std::to_string(o.norm_mean ? 1 : 0) +
                   ",ni=" + std::to_string(o.normalize_input ? 1 : 0) +
                   ",chi2=" + FingerprintDouble(o.chi2_threshold) +
                   ",l2=" + FingerprintDouble(o.logistic.l2) +
                   ",lr=" + FingerprintDouble(o.logistic.learning_rate) +
                   ",ep=" + std::to_string(o.logistic.epochs) +
                   ",fi=" + std::to_string(o.logistic.fit_intercept ? 1 : 0) +
                   ",seed=" + std::to_string(o.seed);
  return fp;
}

std::string WeaselClassifier::config_fingerprint() const {
  return "WEASEL(" + WeaselOptionsFingerprint(options_) + ")";
}

}  // namespace etsc
