#include "tsc/weasel.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/rng.h"
#include "ml/chi2.h"
#include "ml/fourier.h"

namespace etsc {

namespace {

// Window-index field of PackWeaselKey.
constexpr size_t kWindowBits = 15;

}  // namespace

uint64_t PackWeaselKey(size_t window_index, uint64_t word, uint64_t prev_plus_1) {
  ETSC_DCHECK(window_index < (1ull << kWindowBits));
  ETSC_DCHECK(word < (1ull << weasel_detail::kKeyWordBits));
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
  ETSC_RETURN_NOT_OK(weasel_detail::CheckKeyFields(
      1, 0, window_sizes_.size(), kWindowBits, options_.word_length,
      BitsPerSymbol(options_.alphabet_size)));

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

  // Build the vocabulary and the training bags.
  vocabulary_.clear();
  weasel_detail::BagCounter counter;
  std::vector<SparseVector> bags(train.size());
  for (size_t i = 0; i < train.size(); ++i) {
    bags[i] = TrainingBag(series[i], &counter);
  }

  // Chi² feature selection.
  selected_ = Chi2Select(bags, vocabulary_.size(), train.labels(),
                         options_.chi2_threshold);
  columns_ = weasel_detail::ColumnMap(vocabulary_, selected_);
  std::vector<SparseVector> projected = ProjectFeatures(bags, selected_);

  Rng rng(options_.seed);
  logistic_ = LogisticRegression(options_.logistic);
  return logistic_.FitSparse(projected, selected_.size(), train.labels(), &rng);
}

template <typename Visit>
void WeaselClassifier::ForEachKey(const std::vector<double>& values,
                                  Visit&& visit) const {
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
      visit(PackWeaselKey(wi, words[s], 0));
      if (options_.use_bigrams && s >= w) {
        visit(PackWeaselKey(wi, words[s], words[s - w] + 1));
      }
    }
  }
}

SparseVector WeaselClassifier::TrainingBag(const std::vector<double>& values,
                                           weasel_detail::BagCounter* counter) {
  ForEachKey(values, [&](uint64_t key) {
    counter->Add(vocabulary_.try_emplace(key, vocabulary_.size()).first->second);
  });
  return counter->Take();
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
  std::vector<size_t> hits;
  ForEachKey(values, [&](uint64_t key) {
    const size_t column = columns_.Find(key);
    if (column != weasel_detail::ColumnMap::kNone) hits.push_back(column);
  });
  return weasel_detail::ColumnBag(std::move(hits));
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

SparseVector BagCounter::Take() {
  std::sort(touched_.begin(), touched_.end());
  SparseVector bag;
  bag.entries.reserve(touched_.size());
  for (size_t id : touched_) {
    bag.entries.emplace_back(id, static_cast<double>(counts_[id]));
    counts_[id] = 0;
  }
  touched_.clear();
  return bag;
}

SparseVector ColumnBag(std::vector<size_t> columns) {
  std::sort(columns.begin(), columns.end());
  SparseVector bag;
  for (size_t i = 0; i < columns.size();) {
    size_t j = i + 1;
    while (j < columns.size() && columns[j] == columns[i]) ++j;
    bag.Add(columns[i], static_cast<double>(j - i));
    i = j;
  }
  return bag;
}

Status CheckKeyFields(size_t channels, size_t channel_bits, size_t windows,
                      size_t window_bits, size_t word_length,
                      size_t bits_per_symbol) {
  const auto refuse = [](const std::string& what, size_t bits,
                         const char* field) {
    return Status::InvalidArgument("bag-of-patterns key: " + what +
                                   " exceeds the " + std::to_string(bits) +
                                   "-bit " + field + " field");
  };
  if (word_length > kKeyWordBits / bits_per_symbol) {
    return refuse("a word of " + std::to_string(word_length) + " x " +
                      std::to_string(bits_per_symbol) + " bits",
                  kKeyWordBits, "word");
  }
  if (windows > (size_t{1} << window_bits)) {
    return refuse("a count of " + std::to_string(windows) + " window sizes",
                  window_bits, "window");
  }
  if (channels > (size_t{1} << channel_bits)) {
    return refuse("a count of " + std::to_string(channels) + " channels",
                  channel_bits, "channel");
  }
  return Status::OK();
}

Status CheckLoadedTransform(const Sfa& sfa, size_t word_length,
                            size_t channels, size_t channel_bits,
                            size_t windows, size_t window_bits) {
  if (sfa.word_length() != word_length) {
    return Status::DataLoss(
        "bag-of-patterns: transform word length differs from the model's");
  }
  const Status fits =
      CheckKeyFields(channels, channel_bits, windows, window_bits,
                     word_length, sfa.bits_per_symbol());
  return fits.ok() ? fits : Status::DataLoss(fits.message());
}

ColumnMap::ColumnMap(const std::unordered_map<uint64_t, size_t>& vocabulary,
                     const std::vector<size_t>& selected) {
  std::vector<Slot> entries;
  for (const auto& [key, id] : vocabulary) {
    const auto it = std::lower_bound(selected.begin(), selected.end(), id);
    if (it != selected.end() && *it == id) {
      entries.push_back(Slot{key, static_cast<size_t>(it - selected.begin())});
    }
  }
  // Sized by the entries, not by `selected`: a hostile saved model may give
  // several keys one id, and a full table would never end a probe.
  size_t capacity = 8;
  while (capacity < 2 * entries.size()) capacity *= 2;
  slots_.resize(capacity);
  mask_ = capacity - 1;
  for (const Slot& entry : entries) {
    size_t i = Hash(entry.key) & mask_;
    while (slots_[i].column != kNone) i = (i + 1) & mask_;
    slots_[i] = entry;
  }
}

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
  for (Sfa& sfa : transforms_) {
    ETSC_RETURN_NOT_OK(sfa.LoadState(in));
    ETSC_RETURN_NOT_OK(weasel_detail::CheckLoadedTransform(
        sfa, options_.word_length, 1, 0, count, kWindowBits));
  }
  ETSC_RETURN_NOT_OK(LoadVocabulary(in, &vocabulary_));
  ETSC_ASSIGN_OR_RETURN(selected_, in.SizeVec());
  columns_ = weasel_detail::ColumnMap(vocabulary_, selected_);
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
