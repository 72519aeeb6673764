#include "algos/ects.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "ml/distance.h"
#include "ml/hierarchical.h"
#include "ml/nn_search.h"

namespace etsc {

namespace {

// Nearest neighbor per series per prefix length, computed incrementally:
// nn[l-1][i] is the 1-NN of i under prefix l. O(N^2 L) time, O(N^2) memory.
// The dominant cost of the trigger fit, so it polls the train deadline per
// prefix.
Status NearestPerPrefix(const std::vector<std::vector<double>>& series,
                        size_t length, const Deadline& deadline,
                        std::vector<std::vector<size_t>>* out) {
  const size_t n = series.size();
  std::vector<std::vector<double>> dist2(n, std::vector<double>(n, 0.0));
  std::vector<std::vector<size_t>> nn(length, std::vector<size_t>(n, 0));
  for (size_t l = 1; l <= length; ++l) {
    if (deadline.CheckEvery(8)) {
      return Status::DeadlineExceeded("ECTS: train budget exceeded");
    }
    const size_t t = l - 1;
    for (size_t i = 0; i < n; ++i) {
      const double xi = t < series[i].size() ? series[i][t] : 0.0;
      for (size_t j = i + 1; j < n; ++j) {
        const double xj = t < series[j].size() ? series[j][t] : 0.0;
        const double d = xi - xj;
        dist2[i][j] += d * d;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      size_t best = i == 0 ? 1 : 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const double d = i < j ? dist2[i][j] : dist2[j][i];
        if (d < best_d) {
          best_d = d;
          best = j;
        }
      }
      nn[l - 1][i] = best;
    }
  }
  *out = std::move(nn);
  return Status::OK();
}

// Incremental 1-NN scan over the growing prefix; `best` persists across
// checkpoints so the fallback can report the last nearest neighbor seen.
struct EctsMplState : TriggerState {
  std::vector<double> dist2;
  size_t best = 0;
};

}  // namespace

std::string EctsMplTrigger::config_fingerprint() const {
  return "ects-mpl(support=" + std::to_string(options_.support) + ",merge=" +
         FingerprintDouble(options_.max_merge_distance_factor) + ")";
}

ComposedOptions EctsMplTrigger::DefaultComposedOptions() const {
  ComposedOptions options;
  options.grid = CheckpointGrid::kEveryPoint;
  return options;
}

Status EctsMplTrigger::PlanCheckpoints(const Dataset& train,
                                       const FullClassifier*, const Deadline&,
                                       std::vector<size_t>*) {
  if (train.size() < 2) {
    return Status::InvalidArgument("ECTS: need at least two training series");
  }
  if (train.NumVariables() != 1) {
    return Status::InvalidArgument("ECTS: univariate input required");
  }
  if (train.MinLength() == 0) {
    return Status::InvalidArgument("ECTS: empty series");
  }
  return Status::OK();
}

Status EctsMplTrigger::Fit(const TriggerFitContext& ctx) {
  const Dataset& train = *ctx.train;
  const Deadline& deadline = *ctx.deadline;
  length_ = train.MinLength();

  const size_t n = train.size();
  train_series_.assign(n, {});
  train_labels_ = train.labels();
  for (size_t i = 0; i < n; ++i) {
    std::span<const double> c = train.instance(i).channel(0);
    train_series_[i].assign(c.begin(), c.end());
    train_series_[i].resize(length_);
  }

  // 1-NN per prefix, RNN sets per prefix.
  std::vector<std::vector<size_t>> nn;
  ETSC_RETURN_NOT_OK(NearestPerPrefix(train_series_, length_, deadline, &nn));
  std::vector<std::vector<std::vector<size_t>>> rnn(length_);
  for (size_t l = 1; l <= length_; ++l) {
    rnn[l - 1] = ReverseNearestNeighbors(nn[l - 1]);
    for (auto& set : rnn[l - 1]) std::sort(set.begin(), set.end());
  }

  // RNN-based MPL per series: the smallest l such that RNN_k(x) == RNN_L(x)
  // for all k in [l, L], with |RNN_L(x)| > support; L when unstable or empty.
  mpls_.assign(n, length_);
  const auto& rnn_full = rnn[length_ - 1];
  for (size_t i = 0; i < n; ++i) {
    if (rnn_full[i].size() <= options_.support || rnn_full[i].empty()) continue;
    size_t mpl = length_;
    for (size_t l = length_; l >= 1; --l) {
      if (rnn[l - 1][i] == rnn_full[i]) {
        mpl = l;
      } else {
        break;
      }
    }
    mpls_[i] = mpl;
  }

  ETSC_RETURN_NOT_OK(deadline.Check("ECTS: train budget exceeded"));

  // Agglomerative clustering on full-length distances (single linkage, the
  // 1-NN merge rule of the original algorithm).
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  double mean_dist = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      // Unrolled squared kernel; one sqrt per pair (the linkage thresholds
      // are expressed in real distances).
      const double sum = EuclideanPrefixSq(train_series_[i], train_series_[j],
                                           length_);
      dist[i][j] = dist[j][i] = std::sqrt(sum);
      mean_dist += dist[i][j];
      ++pairs;
    }
  }
  mean_dist /= static_cast<double>(std::max<size_t>(pairs, 1));

  auto merges_result = AgglomerativeCluster(dist, Linkage::kSingle);
  ETSC_RETURN_NOT_OK(merges_result.status());
  const auto& merges = merges_result.value();

  // Walk merges in order; every label-pure cluster may lower its members'
  // MPLs via combined 1-NN + RNN consistency.
  for (const auto& merge : merges) {
    if (options_.max_merge_distance_factor > 0.0 &&
        merge.distance > options_.max_merge_distance_factor * mean_dist) {
      break;
    }
    if (deadline.CheckEvery(8)) {
      return Status::DeadlineExceeded("ECTS: train budget exceeded");
    }
    const auto& members = merge.members;
    // Label purity.
    bool pure = true;
    for (size_t m : members) {
      if (train_labels_[m] != train_labels_[members[0]]) {
        pure = false;
        break;
      }
    }
    if (!pure) continue;

    std::set<size_t> member_set(members.begin(), members.end());
    // RNN of the cluster at full length: every series whose NN lies inside.
    std::vector<size_t> rnn_cluster_full;
    for (size_t j = 0; j < n; ++j) {
      if (member_set.count(nn[length_ - 1][j]) > 0) rnn_cluster_full.push_back(j);
    }
    // Find the smallest l with both consistencies holding on [l, L].
    size_t cluster_mpl = length_;
    for (size_t l = length_; l >= 1; --l) {
      bool consistent = true;
      // 1-NN consistency: members' NNs stay inside the cluster.
      for (size_t m : members) {
        if (member_set.count(nn[l - 1][m]) == 0) {
          consistent = false;
          break;
        }
      }
      if (consistent) {
        // RNN consistency: the cluster's RNN set matches the full-length one.
        std::vector<size_t> rnn_cluster;
        for (size_t j = 0; j < n; ++j) {
          if (member_set.count(nn[l - 1][j]) > 0) rnn_cluster.push_back(j);
        }
        if (rnn_cluster != rnn_cluster_full) consistent = false;
      }
      if (!consistent) break;
      cluster_mpl = l;
    }
    for (size_t m : members) mpls_[m] = std::min(mpls_[m], cluster_mpl);
  }
  return Status::OK();
}

std::unique_ptr<TriggerState> EctsMplTrigger::NewState() const {
  return std::make_unique<EctsMplState>();
}

Result<TriggerDecision> EctsMplTrigger::Decide(const TriggerEvidence& ev,
                                               TriggerState* state) const {
  if (train_series_.empty()) {
    return Status::FailedPrecondition("ECTS: not fitted");
  }
  if (ev.series->num_variables() != 1) {
    return Status::InvalidArgument("ECTS: univariate input required");
  }
  if (ev.deadline->CheckEvery(32)) {
    return Status::DeadlineExceeded("ECTS: predict budget exceeded");
  }
  auto* scan = static_cast<EctsMplState*>(state);
  const size_t n = train_series_.size();
  if (scan->dist2.empty()) scan->dist2.assign(n, 0.0);

  // One streamed point: update running squared distances to every training
  // series and track the nearest.
  const auto& values = ev.series->channel(0);
  const size_t l = ev.prefix_length;
  const size_t t = l - 1;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t j = 0; j < n; ++j) {
    const double d = values[t] - train_series_[j][t];
    scan->dist2[j] += d * d;
    if (scan->dist2[j] < best_d) {
      best_d = scan->dist2[j];
      scan->best = j;
    }
  }

  TriggerDecision decision;
  if (l >= mpls_[scan->best]) {
    decision.halt = true;
    decision.label = train_labels_[scan->best];
  }
  return decision;
}

Result<std::optional<EarlyPrediction>> EctsMplTrigger::Finalize(
    const TimeSeries& series, TriggerState* state) const {
  // No MPL reached: fall back to the nearest neighbor seen so far (index 0
  // when the series was too short for even one point).
  auto* scan = static_cast<EctsMplState*>(state);
  EarlyPrediction out;
  out.label = train_labels_[scan->best];
  out.prefix_length = series.length();
  return std::optional<EarlyPrediction>(out);
}

std::unique_ptr<Trigger> EctsMplTrigger::CloneUnfitted() const {
  return std::make_unique<EctsMplTrigger>(options_);
}

Status EctsMplTrigger::SaveState(Serializer& out) const {
  if (train_series_.empty()) return Status::FailedPrecondition("ECTS: not fitted");
  out.Begin("ects-mpl");
  out.F64Mat(train_series_);
  out.IntVec(train_labels_);
  out.SizeT(length_);
  out.SizeVec(mpls_);
  out.End();
  return Status::OK();
}

Status EctsMplTrigger::LoadState(Deserializer& in) {
  ETSC_RETURN_NOT_OK(in.Enter("ects-mpl"));
  ETSC_ASSIGN_OR_RETURN(train_series_, in.F64Mat());
  ETSC_ASSIGN_OR_RETURN(train_labels_, in.IntVec());
  ETSC_ASSIGN_OR_RETURN(length_, in.SizeT());
  ETSC_ASSIGN_OR_RETURN(mpls_, in.SizeVec());
  if (train_series_.empty() || train_labels_.size() != train_series_.size() ||
      mpls_.size() != train_series_.size()) {
    return Status::DataLoss("ECTS: inconsistent fitted state");
  }
  for (const auto& series : train_series_) {
    if (series.size() < length_) {
      return Status::DataLoss("ECTS: training series shorter than length");
    }
  }
  return in.Leave();
}

}  // namespace etsc
