#ifndef ETSC_TESTS_TEST_UTIL_H_
#define ETSC_TESTS_TEST_UTIL_H_

#include <cmath>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "algos/registrations.h"
#include "core/composed.h"
#include "core/dataset.h"
#include "core/registry.h"
#include "core/rng.h"
#include "core/time_series.h"

namespace etsc {
namespace testing {

/// Two-class univariate dataset that is easy to separate: class 0 is a low
/// flat-ish signal, class 1 a sine with an upward level shift appearing from
/// `signal_start` onward. Balanced, `per_class` instances each of `length`.
inline Dataset MakeToyDataset(size_t per_class = 20, size_t length = 40,
                              double signal_start = 0.0, uint64_t seed = 3,
                              double noise = 0.1) {
  Rng rng(seed);
  Dataset dataset;
  dataset.set_name("toy");
  const size_t start = static_cast<size_t>(signal_start * static_cast<double>(length));
  for (int label = 0; label < 2; ++label) {
    for (size_t i = 0; i < per_class; ++i) {
      std::vector<double> values(length);
      const double phase = rng.Uniform(0.0, 2.0 * std::numbers::pi);
      for (size_t t = 0; t < length; ++t) {
        double v = rng.Gaussian(0.0, noise);
        if (label == 1 && t >= start) {
          v += 1.5 + std::sin(2.0 * std::numbers::pi * 3.0 *
                                  static_cast<double>(t) /
                                  static_cast<double>(length) +
                              phase);
        }
        values[t] = v;
      }
      dataset.Add(TimeSeries::Univariate(std::move(values)), label);
    }
  }
  return dataset;
}

/// Three-class multivariate dataset (2 variables): the class sets the
/// frequency of the first channel and the level of the second.
inline Dataset MakeToyMultivariate(size_t per_class = 15, size_t length = 30,
                                   size_t classes = 3, uint64_t seed = 4,
                                   double noise = 0.1) {
  Rng rng(seed);
  Dataset dataset;
  dataset.set_name("toy-mv");
  for (size_t label = 0; label < classes; ++label) {
    for (size_t i = 0; i < per_class; ++i) {
      std::vector<double> a(length), b(length);
      const double phase = rng.Uniform(0.0, 2.0 * std::numbers::pi);
      for (size_t t = 0; t < length; ++t) {
        const double u = static_cast<double>(t) / static_cast<double>(length);
        a[t] = std::sin(2.0 * std::numbers::pi * (1.0 + static_cast<double>(label)) * u +
                        phase) +
               rng.Gaussian(0.0, noise);
        b[t] = static_cast<double>(label) + rng.Gaussian(0.0, noise);
      }
      auto series = TimeSeries::FromChannels({std::move(a), std::move(b)});
      dataset.Add(std::move(series).value(), static_cast<int>(label));
    }
  }
  return dataset;
}

/// Fraction of correct predictions of an early classifier on a dataset.
template <typename Classifier>
double EarlyAccuracy(const Classifier& classifier, const Dataset& test) {
  size_t correct = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    auto pred = classifier.PredictEarly(test.instance(i));
    if (pred.ok() && pred->label == test.label(i)) ++correct;
  }
  return test.empty() ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(test.size());
}

/// Fraction of correct predictions of a full classifier on a dataset.
template <typename Classifier>
double FullAccuracy(const Classifier& classifier, const Dataset& test) {
  size_t correct = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    auto pred = classifier.Predict(test.instance(i));
    if (pred.ok() && *pred == test.label(i)) ++correct;
  }
  return test.empty() ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(test.size());
}

/// A registered algorithm or '<base>+<trigger>' spec, as the composition it
/// is (the paper's algorithms other than EDSC are aliases of composed specs).
inline std::unique_ptr<ComposedEarlyClassifier> CreateComposed(
    const std::string& name) {
  RegisterBuiltinClassifiers();
  auto created = ClassifierRegistry::Global().Create(name);
  ETSC_CHECK(created.ok());
  auto* composed = dynamic_cast<ComposedEarlyClassifier*>(created->get());
  ETSC_CHECK(composed != nullptr);
  created->release();
  return std::unique_ptr<ComposedEarlyClassifier>(composed);
}

/// A composition over the trigger's published grid (DefaultComposedOptions),
/// with the checkpoint count overridden when `num_checkpoints` > 0: how a
/// test builds an algorithm with non-default options.
inline std::unique_ptr<ComposedEarlyClassifier> Compose(
    std::string name, std::unique_ptr<FullClassifier> base,
    std::unique_ptr<Trigger> trigger, size_t num_checkpoints = 0) {
  ComposedOptions options = trigger->DefaultComposedOptions();
  if (num_checkpoints > 0) options.num_checkpoints = num_checkpoints;
  return std::make_unique<ComposedEarlyClassifier>(
      std::move(name), std::move(base), std::move(trigger), options);
}

/// The trigger of a composition, typed for its fitted accessors (mpls(),
/// threshold(), chosen_v(), truncation_point(), ...).
template <typename T>
const T& TriggerOf(const EarlyClassifier& model) {
  return dynamic_cast<const T&>(
      dynamic_cast<const ComposedEarlyClassifier&>(model).trigger());
}

}  // namespace testing
}  // namespace etsc

#endif  // ETSC_TESTS_TEST_UTIL_H_
