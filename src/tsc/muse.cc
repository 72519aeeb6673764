#include "tsc/muse.h"

#include <algorithm>
#include <span>

#include "core/rng.h"
#include "ml/chi2.h"
#include "ml/fourier.h"

namespace etsc {

namespace {

// Channel and window-index fields of PackMuseKey.
constexpr size_t kChannelBits = 8;
constexpr size_t kWindowBits = 7;

}  // namespace

uint64_t PackMuseKey(size_t channel, size_t window_index, uint64_t word,
                     uint64_t prev_plus_1) {
  ETSC_DCHECK(channel < (1ull << kChannelBits));
  ETSC_DCHECK(window_index < (1ull << kWindowBits));
  ETSC_DCHECK(word < (1ull << weasel_detail::kKeyWordBits));
  ETSC_DCHECK(prev_plus_1 < (1ull << 25));
  return (static_cast<uint64_t>(channel) << 56) |
         (static_cast<uint64_t>(window_index) << 49) | (word << 25) |
         prev_plus_1;
}

std::vector<double> Derivative(const std::vector<double>& values) {
  std::vector<double> d(values.size(), 0.0);
  if (values.size() < 2) return d;
  for (size_t t = 0; t + 1 < values.size(); ++t) d[t] = values[t + 1] - values[t];
  d[values.size() - 1] = d[values.size() - 2];
  return d;
}

std::vector<std::vector<double>> MuseClassifier::Channels(
    const TimeSeries& series) const {
  std::vector<std::vector<double>> channels;
  channels.reserve(series.num_variables() * (options_.use_derivatives ? 2 : 1));
  for (size_t v = 0; v < series.num_variables(); ++v) {
    std::span<const double> c = series.channel(v);
    channels.emplace_back(c.begin(), c.end());
  }
  if (options_.use_derivatives) {
    for (size_t v = 0; v < series.num_variables(); ++v) {
      channels.push_back(Derivative(channels[v]));
    }
  }
  return channels;
}

Status MuseClassifier::Fit(const Dataset& train) {
  if (train.empty()) return Status::InvalidArgument("MUSE: empty training set");
  num_variables_ = train.NumVariables();
  const size_t max_len = train.MinLength();
  if (max_len < 2) return Status::InvalidArgument("MUSE: series too short");

  const auto& w = options_.weasel;
  window_sizes_ = ChooseWindowSizes(w.min_window, max_len, w.max_window_count);
  if (window_sizes_.empty()) {
    return Status::InvalidArgument("MUSE: no usable window sizes");
  }
  const size_t num_channels =
      num_variables_ * (options_.use_derivatives ? 2 : 1);
  ETSC_RETURN_NOT_OK(weasel_detail::CheckKeyFields(
      num_channels, kChannelBits, window_sizes_.size(), kWindowBits,
      w.word_length, BitsPerSymbol(w.alphabet_size)));

  // Channels of every training instance.
  std::vector<std::vector<std::vector<double>>> channels(train.size());
  for (size_t i = 0; i < train.size(); ++i) {
    channels[i] = Channels(train.instance(i));
  }

  SfaOptions sfa_options;
  sfa_options.word_length = w.word_length;
  sfa_options.alphabet_size = w.alphabet_size;
  sfa_options.norm_mean = w.norm_mean;
  sfa_options.binning = SfaBinning::kInformationGain;

  transforms_.assign(num_channels, {});
  std::vector<std::span<const double>> views(train.size());
  for (size_t c = 0; c < num_channels; ++c) {
    for (size_t i = 0; i < train.size(); ++i) views[i] = channels[i][c];
    transforms_[c].reserve(window_sizes_.size());
    for (size_t win : window_sizes_) {
      Sfa sfa(sfa_options);
      ETSC_RETURN_NOT_OK(sfa.Fit(views, win, train.labels()));
      transforms_[c].push_back(std::move(sfa));
    }
  }

  vocabulary_.clear();
  weasel_detail::BagCounter counter;
  std::vector<SparseVector> bags(train.size());
  for (size_t i = 0; i < train.size(); ++i) {
    bags[i] = TrainingBag(channels[i], &counter);
  }

  selected_ =
      Chi2Select(bags, vocabulary_.size(), train.labels(), w.chi2_threshold);
  columns_ = weasel_detail::ColumnMap(vocabulary_, selected_);
  std::vector<SparseVector> projected = ProjectFeatures(bags, selected_);

  Rng rng(w.seed);
  logistic_ = LogisticRegression(w.logistic);
  return logistic_.FitSparse(projected, selected_.size(), train.labels(), &rng);
}

template <typename Visit>
void MuseClassifier::ForEachKey(
    const std::vector<std::vector<double>>& channels, Visit&& visit) const {
  const auto& w = options_.weasel;
  for (size_t c = 0; c < channels.size() && c < transforms_.size(); ++c) {
    for (size_t wi = 0; wi < window_sizes_.size(); ++wi) {
      const size_t win = window_sizes_[wi];
      const auto& values = channels[c];
      if (values.size() < win) continue;
      const size_t num_coeffs = (w.word_length + 1) / 2;
      const std::vector<double> coeffs =
          SlidingDft(values, win, num_coeffs, w.norm_mean);
      const size_t row = 2 * num_coeffs;
      std::vector<uint64_t> words(coeffs.size() / row);
      for (size_t s = 0; s < words.size(); ++s) {
        words[s] = transforms_[c][wi].WordFromApproximation(&coeffs[s * row]);
      }
      for (size_t s = 0; s < words.size(); ++s) {
        visit(PackMuseKey(c, wi, words[s], 0));
        if (w.use_bigrams && s >= win) {
          visit(PackMuseKey(c, wi, words[s], words[s - win] + 1));
        }
      }
    }
  }
}

SparseVector MuseClassifier::TrainingBag(
    const std::vector<std::vector<double>>& channels,
    weasel_detail::BagCounter* counter) {
  ForEachKey(channels, [&](uint64_t key) {
    counter->Add(vocabulary_.try_emplace(key, vocabulary_.size()).first->second);
  });
  return counter->Take();
}

Result<SparseVector> MuseClassifier::TransformSelected(
    const TimeSeries& series) const {
  if (!logistic_.fitted()) return Status::FailedPrecondition("MUSE: not fitted");
  if (series.num_variables() != num_variables_) {
    return Status::InvalidArgument("MUSE: variable count mismatch");
  }
  std::vector<size_t> hits;
  ForEachKey(Channels(series), [&](uint64_t key) {
    const size_t column = columns_.Find(key);
    if (column != weasel_detail::ColumnMap::kNone) hits.push_back(column);
  });
  return weasel_detail::ColumnBag(std::move(hits));
}

Result<int> MuseClassifier::Predict(const TimeSeries& series) const {
  ETSC_ASSIGN_OR_RETURN(SparseVector row, TransformSelected(series));
  return logistic_.PredictSparse(row);
}

Result<std::vector<double>> MuseClassifier::PredictProba(
    const TimeSeries& series) const {
  ETSC_ASSIGN_OR_RETURN(SparseVector row, TransformSelected(series));
  return logistic_.PredictProbaSparse(row);
}

Status MuseClassifier::SaveState(Serializer& out) const {
  out.Begin("muse");
  out.SizeT(options_.weasel.word_length);
  out.SizeT(options_.weasel.alphabet_size);
  out.Bool(options_.weasel.norm_mean);
  out.Bool(options_.weasel.use_bigrams);
  out.Bool(options_.weasel.normalize_input);
  out.Bool(options_.use_derivatives);
  out.SizeT(num_variables_);
  out.SizeVec(window_sizes_);
  out.SizeT(transforms_.size());
  for (const auto& per_window : transforms_) {
    out.SizeT(per_window.size());
    for (const Sfa& sfa : per_window) sfa.SaveState(out);
  }
  weasel_detail::SaveBagOfPatterns(out, vocabulary_);
  out.SizeVec(selected_);
  logistic_.SaveState(out);
  out.End();
  return Status::OK();
}

Status MuseClassifier::LoadState(Deserializer& in) {
  ETSC_RETURN_NOT_OK(in.Enter("muse"));
  ETSC_ASSIGN_OR_RETURN(options_.weasel.word_length, in.SizeT());
  ETSC_ASSIGN_OR_RETURN(options_.weasel.alphabet_size, in.SizeT());
  ETSC_ASSIGN_OR_RETURN(options_.weasel.norm_mean, in.Bool());
  ETSC_ASSIGN_OR_RETURN(options_.weasel.use_bigrams, in.Bool());
  ETSC_ASSIGN_OR_RETURN(options_.weasel.normalize_input, in.Bool());
  ETSC_ASSIGN_OR_RETURN(options_.use_derivatives, in.Bool());
  ETSC_ASSIGN_OR_RETURN(num_variables_, in.SizeT());
  ETSC_ASSIGN_OR_RETURN(window_sizes_, in.SizeVec());
  ETSC_ASSIGN_OR_RETURN(size_t channels, in.SizeT());
  if (channels > (size_t{1} << kChannelBits)) {
    return Status::DataLoss("MUSE: more channels than the key's " +
                            std::to_string(kChannelBits) + "-bit field holds");
  }
  transforms_.assign(channels, {});
  for (auto& per_window : transforms_) {
    ETSC_ASSIGN_OR_RETURN(size_t windows, in.SizeT());
    if (windows != window_sizes_.size()) {
      return Status::DataLoss("MUSE: transform/window count mismatch");
    }
    per_window.assign(windows, Sfa{});
    for (Sfa& sfa : per_window) {
      ETSC_RETURN_NOT_OK(sfa.LoadState(in));
      ETSC_RETURN_NOT_OK(weasel_detail::CheckLoadedTransform(
          sfa, options_.weasel.word_length, channels, kChannelBits, windows,
          kWindowBits));
    }
  }
  ETSC_RETURN_NOT_OK(weasel_detail::LoadBagOfPatterns(in, &vocabulary_));
  ETSC_ASSIGN_OR_RETURN(selected_, in.SizeVec());
  columns_ = weasel_detail::ColumnMap(vocabulary_, selected_);
  ETSC_RETURN_NOT_OK(logistic_.LoadState(in));
  return in.Leave();
}

std::string MuseClassifier::config_fingerprint() const {
  return "WEASEL+MUSE(" + WeaselOptionsFingerprint(options_.weasel) +
         ",deriv=" + std::to_string(options_.use_derivatives ? 1 : 0) + ")";
}

}  // namespace etsc
