#include "algos/registrations.h"

#include <memory>

#include "algos/base_classifiers.h"
#include "algos/ecec.h"
#include "algos/economy_k.h"
#include "algos/ects.h"
#include "algos/edsc.h"
#include "algos/prob_threshold.h"
#include "algos/strut.h"
#include "algos/teaser.h"
#include "core/composed.h"
#include "core/registry.h"
#include "core/trigger.h"
#include "tsc/minirocket.h"
#include "tsc/mlstm.h"
#include "tsc/weasel.h"

namespace etsc {

namespace {

/// A paper algorithm's registry name: shorthand for its '<base>+<trigger>'
/// spec, built with the trigger's default grid and reporting `display` as its
/// name().
struct Alias {
  const char* name;
  const char* display;
  const char* spec;
};

constexpr Alias kAliases[] = {
    {"ecec", "ECEC", "weasel+ecec-ratio"},
    {"economy-k", "ECO-K", "gbdt+eco-cost"},
    {"ects", "ECTS", "1nn+ects-mpl"},
    {"prob-threshold", "P>=0.90-MiniROCKET", "minirocket-logistic+prob"},
    {"s-mini", "S-MINI", "minirocket+strut-search"},
    {"s-mlstm", "S-MLSTM", "mlstm+strut-grid"},
    {"s-weasel", "S-WEASEL", "adaptive-weasel+strut-search"},
    {"teaser", "TEASER", "weasel+teaser-gate"},
};

template <typename T>
void Add(Registry<T>& registry, const char* name,
         typename Registry<T>::Factory factory) {
  ETSC_CHECK(registry.Register(name, std::move(factory)).ok());
}

}  // namespace

void RegisterBuiltinClassifiers() {
  static const bool registered = [] {
    // Stopping rules, composable with any base via '<base>+<trigger>'.
    auto& triggers = TriggerRegistry::Global();
    Add(triggers, "prob", [] { return std::make_unique<ProbTrigger>(); });
    Add(triggers, "ecec-ratio",
        [] { return std::make_unique<EcecRatioTrigger>(); });
    Add(triggers, "teaser-gate",
        [] { return std::make_unique<TeaserGateTrigger>(); });
    Add(triggers, "eco-cost",
        [] { return std::make_unique<EcoCostTrigger>(); });
    Add(triggers, "ects-mpl",
        [] { return std::make_unique<EctsMplTrigger>(); });
    Add(triggers, "strut-search",
        [] { return std::make_unique<StrutTrigger>(); });
    Add(triggers, "strut-grid", [] {
      // S-MLSTM fixes the iteration count with the fraction grid (paper
      // Sec. 6.1).
      StrutOptions options;
      options.search = StrutSearch::kGrid;
      return std::make_unique<StrutTrigger>(options);
    });

    // Probabilistic full-series classifiers usable as the base half.
    auto& bases = BaseClassifierRegistry::Global();
    Add(bases, "weasel", [] { return std::make_unique<WeaselClassifier>(); });
    Add(bases, "adaptive-weasel",
        [] { return std::make_unique<AdaptiveWeasel>(); });
    Add(bases, "minirocket",
        [] { return std::make_unique<MiniRocketClassifier>(); });
    Add(bases, "minirocket-logistic", [] {
      // Logistic head: ridge margins are not calibrated probabilities, so
      // posterior-reading triggers need the logistic path.
      MiniRocketOptions options;
      options.logistic_above_samples = 0;
      return std::make_unique<MiniRocketClassifier>(options);
    });
    Add(bases, "mlstm", [] { return std::make_unique<MlstmClassifier>(); });
    Add(bases, "1nn",
        [] { return std::make_unique<NearestNeighborClassifier>(); });
    Add(bases, "gbdt", [] { return std::make_unique<GbdtSeriesClassifier>(); });

    // Early classifiers: EDSC (no classifier/trigger split) and the paper's
    // algorithms as aliases of their composed twins.
    auto& registry = ClassifierRegistry::Global();
    Add(registry, "edsc", [] { return std::make_unique<EdscClassifier>(); });
    for (const Alias& alias : kAliases) {
      auto factory = [alias] {
        auto model = MakeComposedFromSpec(alias.spec, alias.display);
        ETSC_CHECK(model.ok());
        return std::move(*model);
      };
      ETSC_CHECK(registry.Register(alias.name, factory, alias.spec).ok());
    }
    return true;
  }();
  (void)registered;
}

}  // namespace etsc
