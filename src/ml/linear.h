#ifndef ETSC_ML_LINEAR_H_
#define ETSC_ML_LINEAR_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/serialize.h"
#include "core/status.h"

namespace etsc {

/// Sparse feature vector: (index, value) pairs in ascending index order, each
/// index once; producers append in that order. WEASEL bags-of-words are
/// extremely sparse, so the logistic solver accepts this form natively.
struct SparseVector {
  std::vector<std::pair<size_t, double>> entries;

  void Add(size_t index, double value) { entries.emplace_back(index, value); }
  double Dot(const std::vector<double>& dense) const;
  double L2Norm() const;
};

/// Options for multinomial logistic regression trained with AdaGrad SGD.
struct LogisticRegressionOptions {
  double l2 = 1e-4;
  double learning_rate = 0.5;
  size_t epochs = 15;
  bool fit_intercept = true;
};

/// Multinomial logistic regression over dense or sparse features; the linear
/// classifier behind WEASEL, TEASER's per-prefix pipelines, and (optionally)
/// MiniROCKET.
class LogisticRegression {
 public:
  explicit LogisticRegression(LogisticRegressionOptions options = {})
      : options_(options) {}

  /// Trains on sparse rows with feature dimensionality `dim`.
  Status FitSparse(const std::vector<SparseVector>& rows, size_t dim,
                   const std::vector<int>& labels, Rng* rng);

  /// Trains on dense rows.
  Status Fit(const std::vector<std::vector<double>>& rows,
             const std::vector<int>& labels, Rng* rng);

  Result<std::vector<double>> PredictProbaSparse(const SparseVector& row) const;
  Result<std::vector<double>> PredictProba(const std::vector<double>& row) const;
  Result<int> PredictSparse(const SparseVector& row) const;
  Result<int> Predict(const std::vector<double>& row) const;

  const std::vector<int>& class_labels() const { return class_labels_; }
  bool fitted() const { return !class_labels_.empty(); }

  /// Persists/restores the fitted coefficients (options are carried by
  /// construction and do not affect prediction).
  void SaveState(Serializer& out) const;
  Status LoadState(Deserializer& in);

 private:
  std::vector<double> DecisionScores(const SparseVector& row) const;

  LogisticRegressionOptions options_;
  std::vector<int> class_labels_;
  size_t dim_ = 0;
  std::vector<std::vector<double>> weights_;  // [class][feature]
  std::vector<double> intercepts_;
};

/// Options for the ridge classifier (one-vs-rest regression on ±1 targets).
struct RidgeOptions {
  double alpha = 1.0;
};

/// Ridge regression classifier (MiniROCKET's default head). Solves the primal
/// normal equations when #features <= #samples, otherwise the dual (Gram)
/// system, via Cholesky.
class RidgeClassifier {
 public:
  explicit RidgeClassifier(RidgeOptions options = {}) : options_(options) {}

  Status Fit(const std::vector<std::vector<double>>& rows,
             const std::vector<int>& labels);

  Result<int> Predict(const std::vector<double>& row) const;

  /// Softmax over decision margins; a calibrated probability is not defined
  /// for ridge, but callers only need a ranking.
  Result<std::vector<double>> PredictProba(const std::vector<double>& row) const;

  const std::vector<int>& class_labels() const { return class_labels_; }
  bool fitted() const { return !class_labels_.empty(); }

  void SaveState(Serializer& out) const;
  Status LoadState(Deserializer& in);

 private:
  RidgeOptions options_;
  std::vector<int> class_labels_;
  std::vector<std::vector<double>> weights_;  // [class][feature]
  std::vector<double> intercepts_;
};

/// Solves A x = b for symmetric positive-definite A in place via Cholesky.
/// A is row-major n×n. Fails when A is not positive definite.
Status SolveSpd(std::vector<std::vector<double>> a, std::vector<double> b,
                std::vector<double>* x);

}  // namespace etsc

#endif  // ETSC_ML_LINEAR_H_
