// Reproduces the paper's Sec. 6.3 life-sciences claim: ETSC identifies ~65%
// of non-interesting tumor simulations early, freeing the compute they would
// have consumed. Replays the early-termination policy over held-out
// simulations for the strongest algorithms on the Biological dataset.

#include <cstdio>
#include <memory>

#include "algos/ecec.h"
#include "algos/registrations.h"
#include "core/composed.h"
#include "core/registry.h"
#include "core/voting.h"
#include "data/biological_sim.h"
#include "tsc/weasel.h"

namespace {

struct PolicyOutcome {
  size_t boring_total = 0;
  size_t boring_early = 0;
  size_t interesting_killed = 0;
  double saved_fraction = 0.0;
};

PolicyOutcome Replay(etsc::EarlyClassifier* model, const etsc::Dataset& test) {
  PolicyOutcome outcome;
  double total = 0.0, spent = 0.0;
  for (size_t i = 0; i < test.size(); ++i) {
    const etsc::TimeSeries& run = test.instance(i);
    auto pred = model->PredictEarly(run);
    if (!pred.ok()) continue;
    total += static_cast<double>(run.length());
    const bool boring = test.label(i) == 0;
    const bool predicted_boring = pred->label == 0;
    const bool early = pred->prefix_length < run.length();
    if (boring) ++outcome.boring_total;
    if (predicted_boring && early) {
      spent += static_cast<double>(pred->prefix_length);
      if (boring) ++outcome.boring_early;
      if (!boring) ++outcome.interesting_killed;
    } else {
      spent += static_cast<double>(run.length());
    }
  }
  outcome.saved_fraction = total > 0.0 ? 1.0 - spent / total : 0.0;
  return outcome;
}

}  // namespace

int main() {
  etsc::RegisterBuiltinClassifiers();
  etsc::BiologicalSimOptions sim;
  sim.num_simulations = 400;
  const etsc::Dataset dataset = etsc::MakeBiologicalDataset(sim);
  etsc::Rng rng(5);
  const etsc::SplitIndices split = etsc::StratifiedSplit(dataset, 0.7, &rng);
  etsc::Dataset train = dataset.Subset(split.train);
  etsc::Dataset test = dataset.Subset(split.test);

  std::printf("== Sec. 6.3: early termination of biological simulations ==\n");
  std::printf("%zu simulations (%.0f%% interesting); policy: terminate a run "
              "once predicted non-interesting before completion.\n",
              dataset.size(), 100.0 * 0.2);
  std::printf("%-12s %22s %18s %12s\n", "algorithm",
              "boring found early", "interesting killed", "compute saved");

  {
    // ECEC over 12 prefixes (Table 4 uses 20) to keep the replay quick.
    auto trigger = std::make_unique<etsc::EcecRatioTrigger>();
    etsc::ComposedOptions options = trigger->DefaultComposedOptions();
    options.num_checkpoints = 12;
    auto model = etsc::WrapForDataset(
        std::make_unique<etsc::ComposedEarlyClassifier>(
            "ECEC", std::make_unique<etsc::WeaselClassifier>(),
            std::move(trigger), options),
        train);
    if (model->Fit(train).ok()) {
      const PolicyOutcome o = Replay(model.get(), test);
      std::printf("%-12s %10zu/%zu (%3.0f%%) %18zu %11.1f%%\n", "ECEC+vote",
                  o.boring_early, o.boring_total,
                  100.0 * o.boring_early / std::max<size_t>(o.boring_total, 1),
                  o.interesting_killed, 100.0 * o.saved_fraction);
    }
  }
  {
    auto model = etsc::ClassifierRegistry::Global().Create("s-mini");
    if (model.ok() && (*model)->Fit(train).ok()) {
      const PolicyOutcome o = Replay(model->get(), test);
      std::printf("%-12s %10zu/%zu (%3.0f%%) %18zu %11.1f%%\n", "S-MINI",
                  o.boring_early, o.boring_total,
                  100.0 * o.boring_early / std::max<size_t>(o.boring_total, 1),
                  o.interesting_killed, 100.0 * o.saved_fraction);
    }
  }
  std::printf("\nPaper reference: 65%% of non-interesting simulations "
              "identified early (Sec. 6.3).\n");
  return 0;
}
