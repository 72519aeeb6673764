#include "algos/economy_k.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <utility>

#include "core/rng.h"

namespace etsc {

namespace {

// Cluster membership probabilities of a prefix against full-length centroids,
// using only the first `prefix_len` coordinates (same logistic-of-relative-
// distance rule as KMeansModel::MembershipProbabilities).
std::vector<double> PrefixMemberships(
    const std::vector<std::vector<double>>& centroids,
    std::span<const double> prefix, size_t prefix_len) {
  std::vector<double> probs(centroids.size(), 0.0);
  if (centroids.empty()) return probs;
  std::vector<double> dist(centroids.size(), 0.0);
  double mean_dist = 0.0;
  for (size_t c = 0; c < centroids.size(); ++c) {
    double sum = 0.0;
    const size_t n = std::min({prefix_len, prefix.size(), centroids[c].size()});
    for (size_t t = 0; t < n; ++t) {
      const double d = prefix[t] - centroids[c][t];
      sum += d * d;
    }
    dist[c] = std::sqrt(sum);
    mean_dist += dist[c];
  }
  mean_dist /= static_cast<double>(centroids.size());
  double total = 0.0;
  for (size_t c = 0; c < centroids.size(); ++c) {
    const double delta = mean_dist > 0.0 ? (mean_dist - dist[c]) / mean_dist : 0.0;
    probs[c] = 1.0 / (1.0 + std::exp(-6.0 * delta));
    total += probs[c];
  }
  if (total > 0.0) {
    for (double& p : probs) p /= total;
  } else {
    std::fill(probs.begin(), probs.end(),
              1.0 / static_cast<double>(probs.size()));
  }
  return probs;
}

std::vector<double> PrefixFeatures(std::span<const double> values,
                                   size_t len) {
  std::vector<double> features(values.begin(),
                               values.begin() +
                                   std::min(len, values.size()));
  features.resize(len, features.empty() ? 0.0 : features.back());
  return features;
}

}  // namespace

std::string EcoCostTrigger::config_fingerprint() const {
  const auto& o = options_;
  std::string grid;
  for (size_t k : o.cluster_grid) grid += std::to_string(k) + "/";
  return "eco-cost(grid=" + grid + ",tc=" + FingerprintDouble(o.time_cost) +
         ",lambda=" + FingerprintDouble(o.lambda) +
         ",rdw=" + FingerprintDouble(o.relative_delay_weight) +
         ",cv=" + std::to_string(o.cv_folds) +
         ",gbdt=" + std::to_string(o.gbdt.num_rounds) + "/" +
         FingerprintDouble(o.gbdt.learning_rate) + "/" +
         FingerprintDouble(o.gbdt.subsample) + "/" +
         std::to_string(o.gbdt.tree.max_depth) + "/" +
         std::to_string(o.gbdt.tree.min_samples_leaf) +
         ",seed=" + std::to_string(o.seed) + ")";
}

ComposedOptions EcoCostTrigger::DefaultComposedOptions() const {
  ComposedOptions options;
  options.num_checkpoints = 20;
  options.grid = CheckpointGrid::kFloorMinOne;
  return options;
}

Status EcoCostTrigger::PlanCheckpoints(const Dataset& train,
                                       const FullClassifier*, const Deadline&,
                                       std::vector<size_t>*) {
  if (train.empty()) {
    return Status::InvalidArgument("ECONOMY-K: empty training set");
  }
  if (train.NumVariables() != 1) {
    return Status::InvalidArgument("ECONOMY-K: univariate input required");
  }
  if (train.MinLength() == 0) {
    return Status::InvalidArgument("ECONOMY-K: empty series");
  }
  return Status::OK();
}

double EcoCostTrigger::ExpectedCost(const std::vector<double>& memberships,
                                    size_t ci_future) const {
  const double err_cost = options_.lambda * options_.time_cost;
  // Delay normalised by the horizon: consuming everything costs
  // relative_delay_weight * err_cost.
  double cost = options_.relative_delay_weight * err_cost *
                static_cast<double>(checkpoints_[ci_future]) /
                static_cast<double>(length_);
  for (size_t k = 0; k < memberships.size(); ++k) {
    double misclass = 0.0;
    for (size_t yi = 0; yi < class_labels_.size(); ++yi) {
      misclass += prior_[k][yi] * (1.0 - prob_correct_[ci_future][k][yi]);
    }
    cost += memberships[k] * misclass * err_cost;
  }
  return cost;
}

Status EcoCostTrigger::FitWithClusters(const Dataset& train, size_t k,
                                       const Deadline& deadline,
                                       double* training_cost) {
  const size_t n = train.size();
  Rng rng(options_.seed + k);

  std::vector<std::vector<double>> full(n);
  for (size_t i = 0; i < n; ++i) {
    full[i] = PrefixFeatures(train.instance(i).channel(0), length_);
  }

  KMeansOptions kmeans_options;
  kmeans_options.num_clusters = k;
  ETSC_ASSIGN_OR_RETURN(clusters_, KMeansFit(full, kmeans_options, &rng));
  const size_t num_clusters = clusters_.centroids.size();
  const size_t num_classes = class_labels_.size();
  std::map<int, size_t> class_index;
  for (size_t c = 0; c < num_classes; ++c) class_index[class_labels_[c]] = c;

  // Class priors per cluster (Laplace-smoothed).
  prior_.assign(num_clusters, std::vector<double>(num_classes, 1.0));
  for (size_t i = 0; i < n; ++i) {
    prior_[clusters_.assignments[i]][class_index[train.label(i)]] += 1.0;
  }
  for (auto& row : prior_) {
    double total = 0.0;
    for (double v : row) total += v;
    for (double& v : row) v /= total;
  }

  // Out-of-sample predictions per checkpoint (k-fold CV) for the reliability
  // tables; in-sample GBDT confusion is near-perfect and would collapse the
  // stopping rule to the first checkpoint.
  std::vector<std::vector<int>> oos_pred(
      checkpoints_.size(), std::vector<int>(n, class_labels_[0] - 1));
  const size_t folds =
      n >= 2 * std::max<size_t>(options_.cv_folds, 2) ? options_.cv_folds : 0;
  if (folds >= 2) {
    const auto splits = StratifiedKFold(train, folds, &rng);
    for (const auto& split : splits) {
      for (size_t ci = 0; ci < checkpoints_.size(); ++ci) {
        ETSC_RETURN_NOT_OK(deadline.Check("ECONOMY-K: train budget exceeded"));
        const size_t len = checkpoints_[ci];
        std::vector<std::vector<double>> fold_features;
        std::vector<int> fold_labels;
        fold_features.reserve(split.train.size());
        for (size_t i : split.train) {
          fold_features.push_back(
              PrefixFeatures(train.instance(i).channel(0), len));
          fold_labels.push_back(train.label(i));
        }
        GbdtClassifier fold_model(options_.gbdt);
        ETSC_RETURN_NOT_OK(fold_model.Fit(fold_features, fold_labels, &rng));
        for (size_t i : split.test) {
          ETSC_ASSIGN_OR_RETURN(
              oos_pred[ci][i],
              fold_model.Predict(
                  PrefixFeatures(train.instance(i).channel(0), len)));
        }
      }
    }
  }

  // Base classifier + per-cluster correctness probabilities per checkpoint.
  models_.clear();
  models_.reserve(checkpoints_.size());
  prob_correct_.assign(
      checkpoints_.size(),
      std::vector<std::vector<double>>(num_clusters,
                                       std::vector<double>(num_classes, 0.5)));
  for (size_t ci = 0; ci < checkpoints_.size(); ++ci) {
    ETSC_RETURN_NOT_OK(deadline.Check("ECONOMY-K: train budget exceeded"));
    const size_t len = checkpoints_[ci];
    std::vector<std::vector<double>> features(n);
    for (size_t i = 0; i < n; ++i) {
      features[i] = PrefixFeatures(train.instance(i).channel(0), len);
    }
    GbdtClassifier model(options_.gbdt);
    ETSC_RETURN_NOT_OK(model.Fit(features, train.labels(), &rng));

    // Confusion-derived P(correct | y, cluster) with Laplace smoothing, from
    // the out-of-sample predictions when available.
    std::vector<std::vector<double>> correct(num_clusters,
                                             std::vector<double>(num_classes, 1.0));
    std::vector<std::vector<double>> totals(num_clusters,
                                            std::vector<double>(num_classes, 2.0));
    for (size_t i = 0; i < n; ++i) {
      int predicted;
      if (folds >= 2) {
        predicted = oos_pred[ci][i];
      } else {
        ETSC_ASSIGN_OR_RETURN(predicted, model.Predict(features[i]));
      }
      const size_t cluster = clusters_.assignments[i];
      const size_t yi = class_index[train.label(i)];
      totals[cluster][yi] += 1.0;
      if (predicted == train.label(i)) correct[cluster][yi] += 1.0;
    }
    for (size_t c = 0; c < num_clusters; ++c) {
      for (size_t yi = 0; yi < num_classes; ++yi) {
        prob_correct_[ci][c][yi] = correct[c][yi] / totals[c][yi];
      }
    }
    models_.push_back(std::move(model));
  }

  // Simulated cost of the stopping rule over the training set.
  double total_cost = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const auto& values = full[i];
    double cost = options_.relative_delay_weight * options_.lambda *
                  options_.time_cost;
    for (size_t ci = 0; ci < checkpoints_.size(); ++ci) {
      const auto memberships = PrefixMemberships(clusters_.centroids, values,
                                                 checkpoints_[ci]);
      size_t best_future = ci;
      double best_cost = std::numeric_limits<double>::infinity();
      for (size_t cj = ci; cj < checkpoints_.size(); ++cj) {
        const double c = ExpectedCost(memberships, cj);
        if (c < best_cost) {
          best_cost = c;
          best_future = cj;
        }
      }
      if (best_future == ci || ci + 1 == checkpoints_.size()) {
        const auto features = PrefixFeatures(values, checkpoints_[ci]);
        ETSC_ASSIGN_OR_RETURN(int predicted, models_[ci].Predict(features));
        cost = options_.relative_delay_weight * options_.lambda *
               options_.time_cost * static_cast<double>(checkpoints_[ci]) /
               static_cast<double>(length_);
        if (predicted != train.label(i)) {
          cost += options_.lambda * options_.time_cost;
        }
        break;
      }
    }
    total_cost += cost;
  }
  *training_cost = total_cost / static_cast<double>(n);
  return Status::OK();
}

Status EcoCostTrigger::Fit(const TriggerFitContext& ctx) {
  const Dataset& train = *ctx.train;
  length_ = train.MinLength();
  class_labels_ = train.ClassLabels();
  checkpoints_ = *ctx.checkpoints;

  // Grid-search cluster counts; keep the cheapest configuration.
  double best_cost = std::numeric_limits<double>::infinity();
  KMeansModel best_clusters;
  std::vector<GbdtClassifier> best_models;
  std::vector<std::vector<std::vector<double>>> best_prob_correct;
  std::vector<std::vector<double>> best_prior;
  bool found = false;
  for (size_t k : options_.cluster_grid) {
    double cost = 0.0;
    Status status = FitWithClusters(train, k, *ctx.deadline, &cost);
    if (!status.ok()) {
      // Budget expiry (either code) must abort the whole grid search, not
      // silently try the next k with no time left.
      if (status.code() == StatusCode::kResourceExhausted ||
          status.code() == StatusCode::kDeadlineExceeded) {
        return status;
      }
      continue;
    }
    if (cost < best_cost) {
      best_cost = cost;
      best_clusters = clusters_;
      best_models = models_;
      best_prob_correct = prob_correct_;
      best_prior = prior_;
      found = true;
    }
  }
  if (!found) {
    return Status::Internal("ECONOMY-K: every cluster configuration failed");
  }
  clusters_ = std::move(best_clusters);
  models_ = std::move(best_models);
  prob_correct_ = std::move(best_prob_correct);
  prior_ = std::move(best_prior);
  return Status::OK();
}

Result<TriggerDecision> EcoCostTrigger::Decide(const TriggerEvidence& ev,
                                               TriggerState*) const {
  if (models_.empty()) {
    return Status::FailedPrecondition("ECONOMY-K: not fitted");
  }
  if (ev.series->num_variables() != 1) {
    return Status::InvalidArgument("ECONOMY-K: univariate input required");
  }
  ETSC_RETURN_NOT_OK(ev.deadline->Check("ECONOMY-K: predict budget exceeded"));
  const auto& values = ev.series->channel(0);
  const size_t ci = ev.checkpoint;
  const auto memberships =
      PrefixMemberships(clusters_.centroids, values, ev.prefix_length);
  size_t best_future = ci;
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t cj = ci; cj < checkpoints_.size(); ++cj) {
    const double c = ExpectedCost(memberships, cj);
    if (c < best_cost) {
      best_cost = c;
      best_future = cj;
    }
  }
  TriggerDecision decision;
  if (best_future == ci || ev.is_last) {
    const auto features = PrefixFeatures(values, ev.prefix_length);
    ETSC_ASSIGN_OR_RETURN(int label, models_[ci].Predict(features));
    decision.halt = true;
    decision.label = label;
  }
  return decision;
}

Result<std::optional<EarlyPrediction>> EcoCostTrigger::Finalize(
    const TimeSeries& series, TriggerState*) const {
  // Series shorter than the first checkpoint: use the first model on what we
  // have.
  const auto features = PrefixFeatures(series.channel(0), checkpoints_[0]);
  ETSC_ASSIGN_OR_RETURN(int label, models_[0].Predict(features));
  EarlyPrediction out;
  out.label = label;
  out.prefix_length = series.length();
  return std::optional<EarlyPrediction>(out);
}

std::unique_ptr<Trigger> EcoCostTrigger::CloneUnfitted() const {
  return std::make_unique<EcoCostTrigger>(options_);
}

Status EcoCostTrigger::SaveState(Serializer& out) const {
  if (models_.empty()) return Status::FailedPrecondition("ECO-K: not fitted");
  out.Begin("eco-cost");
  out.SizeT(length_);
  out.IntVec(class_labels_);
  out.SizeVec(checkpoints_);
  clusters_.SaveState(out);
  out.SizeT(models_.size());
  for (const GbdtClassifier& model : models_) model.SaveState(out);
  out.SizeT(prob_correct_.size());
  for (const auto& per_cluster : prob_correct_) out.F64Mat(per_cluster);
  out.F64Mat(prior_);
  out.End();
  return Status::OK();
}

Status EcoCostTrigger::LoadState(Deserializer& in) {
  ETSC_RETURN_NOT_OK(in.Enter("eco-cost"));
  ETSC_ASSIGN_OR_RETURN(length_, in.SizeT());
  ETSC_ASSIGN_OR_RETURN(class_labels_, in.IntVec());
  ETSC_ASSIGN_OR_RETURN(checkpoints_, in.SizeVec());
  ETSC_RETURN_NOT_OK(clusters_.LoadState(in));
  ETSC_ASSIGN_OR_RETURN(size_t num_models, in.SizeT());
  if (num_models != checkpoints_.size() || num_models == 0 ||
      class_labels_.empty()) {
    return Status::DataLoss("ECO-K: inconsistent fitted state");
  }
  models_.assign(num_models, GbdtClassifier(options_.gbdt));
  for (GbdtClassifier& model : models_) {
    ETSC_RETURN_NOT_OK(model.LoadState(in));
  }
  ETSC_ASSIGN_OR_RETURN(size_t num_tables, in.SizeT());
  if (num_tables != num_models) {
    return Status::DataLoss("ECO-K: confusion table count mismatch");
  }
  prob_correct_.assign(num_tables, {});
  for (auto& per_cluster : prob_correct_) {
    ETSC_ASSIGN_OR_RETURN(per_cluster, in.F64Mat());
    if (per_cluster.size() != clusters_.centroids.size()) {
      return Status::DataLoss("ECO-K: confusion table cluster mismatch");
    }
  }
  ETSC_ASSIGN_OR_RETURN(prior_, in.F64Mat());
  if (prior_.size() != clusters_.centroids.size()) {
    return Status::DataLoss("ECO-K: prior cluster mismatch");
  }
  return in.Leave();
}

}  // namespace etsc
