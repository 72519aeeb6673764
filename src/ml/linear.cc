#include "ml/linear.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

namespace etsc {

double SparseVector::Dot(const std::vector<double>& dense) const {
  double sum = 0.0;
  for (const auto& [idx, val] : entries) {
    if (idx < dense.size()) sum += val * dense[idx];
  }
  return sum;
}

double SparseVector::L2Norm() const {
  double sum = 0.0;
  for (const auto& [idx, val] : entries) sum += val * val;
  return std::sqrt(sum);
}

namespace {

void SoftmaxInPlace(std::vector<double>* scores) {
  const double max_score = *std::max_element(scores->begin(), scores->end());
  double total = 0.0;
  for (double& s : *scores) {
    s = std::exp(s - max_score);
    total += s;
  }
  for (double& s : *scores) s /= total;
}

std::vector<int> SortedDistinctLabels(const std::vector<int>& labels) {
  std::vector<int> out(labels);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Status LogisticRegression::FitSparse(const std::vector<SparseVector>& rows,
                                     size_t dim, const std::vector<int>& labels,
                                     Rng* rng) {
  if (rows.empty()) {
    return Status::InvalidArgument("LogisticRegression: no samples");
  }
  if (rows.size() != labels.size()) {
    return Status::InvalidArgument("LogisticRegression: size mismatch");
  }
  if (rng == nullptr) {
    return Status::InvalidArgument("LogisticRegression: rng required");
  }
  class_labels_ = SortedDistinctLabels(labels);
  dim_ = dim;
  const size_t num_classes = class_labels_.size();
  std::map<int, size_t> class_index;
  for (size_t k = 0; k < num_classes; ++k) class_index[class_labels_[k]] = k;

  weights_.assign(num_classes, std::vector<double>(dim_, 0.0));
  intercepts_.assign(num_classes, 0.0);
  if (num_classes < 2) return Status::OK();

  // AdaGrad accumulators.
  std::vector<std::vector<double>> g2(num_classes,
                                      std::vector<double>(dim_, 1e-8));
  std::vector<double> g2_intercept(num_classes, 1e-8);

  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0);
  const double lr = options_.learning_rate;

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng->Shuffle(&order);
    for (size_t i : order) {
      std::vector<double> scores = DecisionScores(rows[i]);
      SoftmaxInPlace(&scores);
      const size_t yi = class_index[labels[i]];
      for (size_t k = 0; k < num_classes; ++k) {
        const double err = scores[k] - (k == yi ? 1.0 : 0.0);
        // Weight updates only on the row's non-zeros (sparse-friendly); L2 is
        // applied there as well (truncated regularisation).
        for (const auto& [idx, val] : rows[i].entries) {
          if (idx >= dim_) continue;
          const double grad = err * val + options_.l2 * weights_[k][idx];
          g2[k][idx] += grad * grad;
          weights_[k][idx] -= lr * grad / std::sqrt(g2[k][idx]);
        }
        if (options_.fit_intercept) {
          const double grad = err;
          g2_intercept[k] += grad * grad;
          intercepts_[k] -= lr * grad / std::sqrt(g2_intercept[k]);
        }
      }
    }
  }
  return Status::OK();
}

Status LogisticRegression::Fit(const std::vector<std::vector<double>>& rows,
                               const std::vector<int>& labels, Rng* rng) {
  std::vector<SparseVector> sparse(rows.size());
  size_t dim = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    dim = std::max(dim, rows[i].size());
    for (size_t j = 0; j < rows[i].size(); ++j) {
      if (rows[i][j] != 0.0) sparse[i].Add(j, rows[i][j]);
    }
  }
  return FitSparse(sparse, dim, labels, rng);
}

std::vector<double> LogisticRegression::DecisionScores(
    const SparseVector& row) const {
  std::vector<double> scores(class_labels_.size(), 0.0);
  for (size_t k = 0; k < class_labels_.size(); ++k) {
    scores[k] = row.Dot(weights_[k]) + intercepts_[k];
  }
  return scores;
}

Result<std::vector<double>> LogisticRegression::PredictProbaSparse(
    const SparseVector& row) const {
  if (!fitted()) {
    return Status::FailedPrecondition("LogisticRegression: not fitted");
  }
  if (class_labels_.size() == 1) return std::vector<double>{1.0};
  std::vector<double> scores = DecisionScores(row);
  SoftmaxInPlace(&scores);
  return scores;
}

Result<std::vector<double>> LogisticRegression::PredictProba(
    const std::vector<double>& row) const {
  SparseVector sparse;
  for (size_t j = 0; j < row.size(); ++j) {
    if (row[j] != 0.0) sparse.Add(j, row[j]);
  }
  return PredictProbaSparse(sparse);
}

Result<int> LogisticRegression::PredictSparse(const SparseVector& row) const {
  ETSC_ASSIGN_OR_RETURN(std::vector<double> proba, PredictProbaSparse(row));
  const size_t best = static_cast<size_t>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
  return class_labels_[best];
}

Result<int> LogisticRegression::Predict(const std::vector<double>& row) const {
  ETSC_ASSIGN_OR_RETURN(std::vector<double> proba, PredictProba(row));
  const size_t best = static_cast<size_t>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
  return class_labels_[best];
}

Status SolveSpd(std::vector<std::vector<double>> a, std::vector<double> b,
                std::vector<double>* x) {
  const size_t n = a.size();
  if (n == 0 || b.size() != n) {
    return Status::InvalidArgument("SolveSpd: bad dimensions");
  }
  // Cholesky: A = L Lᵀ, stored in the lower triangle of a.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a[i][j];
      for (size_t k = 0; k < j; ++k) sum -= a[i][k] * a[j][k];
      if (i == j) {
        if (sum <= 0.0) {
          return Status::InvalidArgument("SolveSpd: matrix not positive definite");
        }
        a[i][i] = std::sqrt(sum);
      } else {
        a[i][j] = sum / a[j][j];
      }
    }
  }
  // Forward solve L y = b.
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= a[i][k] * b[k];
    b[i] = sum / a[i][i];
  }
  // Back solve Lᵀ x = y.
  x->assign(n, 0.0);
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double sum = b[i];
    for (size_t k = i + 1; k < n; ++k) sum -= a[k][i] * (*x)[k];
    (*x)[i] = sum / a[i][i];
  }
  return Status::OK();
}

Status RidgeClassifier::Fit(const std::vector<std::vector<double>>& rows,
                            const std::vector<int>& labels) {
  if (rows.empty()) return Status::InvalidArgument("RidgeClassifier: no samples");
  if (rows.size() != labels.size()) {
    return Status::InvalidArgument("RidgeClassifier: size mismatch");
  }
  const size_t n = rows.size();
  const size_t d = rows[0].size();
  for (const auto& r : rows) {
    if (r.size() != d) {
      return Status::InvalidArgument("RidgeClassifier: ragged rows");
    }
  }
  class_labels_ = SortedDistinctLabels(labels);
  const size_t num_classes = class_labels_.size();
  weights_.assign(num_classes, std::vector<double>(d, 0.0));
  intercepts_.assign(num_classes, 0.0);
  if (num_classes < 2) return Status::OK();

  // Centre targets per class (intercept = class prior offset).
  std::vector<std::vector<double>> targets(num_classes, std::vector<double>(n));
  for (size_t k = 0; k < num_classes; ++k) {
    double mean = 0.0;
    for (size_t i = 0; i < n; ++i) {
      targets[k][i] = labels[i] == class_labels_[k] ? 1.0 : -1.0;
      mean += targets[k][i];
    }
    mean /= static_cast<double>(n);
    intercepts_[k] = mean;
    for (double& t : targets[k]) t -= mean;
  }

  if (d <= n) {
    // Primal: (XᵀX + αI) w = Xᵀ y.
    std::vector<std::vector<double>> gram(d, std::vector<double>(d, 0.0));
    for (size_t i = 0; i < n; ++i) {
      for (size_t p = 0; p < d; ++p) {
        const double xp = rows[i][p];
        if (xp == 0.0) continue;
        for (size_t q = p; q < d; ++q) gram[p][q] += xp * rows[i][q];
      }
    }
    for (size_t p = 0; p < d; ++p) {
      gram[p][p] += options_.alpha;
      for (size_t q = 0; q < p; ++q) gram[p][q] = gram[q][p];
    }
    for (size_t k = 0; k < num_classes; ++k) {
      std::vector<double> rhs(d, 0.0);
      for (size_t i = 0; i < n; ++i) {
        for (size_t p = 0; p < d; ++p) rhs[p] += rows[i][p] * targets[k][i];
      }
      ETSC_RETURN_NOT_OK(SolveSpd(gram, std::move(rhs), &weights_[k]));
    }
  } else {
    // Dual: (XXᵀ + αI) a = y, w = Xᵀ a.
    std::vector<std::vector<double>> gram(n, std::vector<double>(n, 0.0));
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i; j < n; ++j) {
        double dot = 0.0;
        for (size_t p = 0; p < d; ++p) dot += rows[i][p] * rows[j][p];
        gram[i][j] = dot;
        gram[j][i] = dot;
      }
      gram[i][i] += options_.alpha;
    }
    for (size_t k = 0; k < num_classes; ++k) {
      std::vector<double> alpha_vec;
      ETSC_RETURN_NOT_OK(SolveSpd(gram, targets[k], &alpha_vec));
      for (size_t i = 0; i < n; ++i) {
        for (size_t p = 0; p < d; ++p) {
          weights_[k][p] += alpha_vec[i] * rows[i][p];
        }
      }
    }
  }
  return Status::OK();
}

Result<int> RidgeClassifier::Predict(const std::vector<double>& row) const {
  ETSC_ASSIGN_OR_RETURN(std::vector<double> proba, PredictProba(row));
  const size_t best = static_cast<size_t>(
      std::max_element(proba.begin(), proba.end()) - proba.begin());
  return class_labels_[best];
}

Result<std::vector<double>> RidgeClassifier::PredictProba(
    const std::vector<double>& row) const {
  if (!fitted()) return Status::FailedPrecondition("RidgeClassifier: not fitted");
  if (class_labels_.size() == 1) return std::vector<double>{1.0};
  std::vector<double> scores(class_labels_.size(), 0.0);
  for (size_t k = 0; k < class_labels_.size(); ++k) {
    double dot = intercepts_[k];
    const size_t m = std::min(row.size(), weights_[k].size());
    for (size_t p = 0; p < m; ++p) dot += row[p] * weights_[k][p];
    scores[k] = dot;
  }
  SoftmaxInPlace(&scores);
  return scores;
}

void LogisticRegression::SaveState(Serializer& out) const {
  out.Begin("logistic");
  out.IntVec(class_labels_);
  out.SizeT(dim_);
  out.F64Mat(weights_);
  out.F64Vec(intercepts_);
  out.End();
}

Status LogisticRegression::LoadState(Deserializer& in) {
  ETSC_RETURN_NOT_OK(in.Enter("logistic"));
  ETSC_ASSIGN_OR_RETURN(class_labels_, in.IntVec());
  ETSC_ASSIGN_OR_RETURN(dim_, in.SizeT());
  ETSC_ASSIGN_OR_RETURN(weights_, in.F64Mat());
  ETSC_ASSIGN_OR_RETURN(intercepts_, in.F64Vec());
  if (weights_.size() != class_labels_.size() ||
      intercepts_.size() != class_labels_.size()) {
    return Status::DataLoss("LogisticRegression: inconsistent fitted state");
  }
  return in.Leave();
}

void RidgeClassifier::SaveState(Serializer& out) const {
  out.Begin("ridge");
  out.IntVec(class_labels_);
  out.F64Mat(weights_);
  out.F64Vec(intercepts_);
  out.End();
}

Status RidgeClassifier::LoadState(Deserializer& in) {
  ETSC_RETURN_NOT_OK(in.Enter("ridge"));
  ETSC_ASSIGN_OR_RETURN(class_labels_, in.IntVec());
  ETSC_ASSIGN_OR_RETURN(weights_, in.F64Mat());
  ETSC_ASSIGN_OR_RETURN(intercepts_, in.F64Vec());
  if (class_labels_.size() > 1 &&
      (weights_.size() != class_labels_.size() ||
       intercepts_.size() != class_labels_.size())) {
    return Status::DataLoss("RidgeClassifier: inconsistent fitted state");
  }
  return in.Leave();
}

}  // namespace etsc
