// Life-sciences scenario (paper Sec. 5.2 / 6.3): large-scale tumor-treatment
// simulations are expensive; an ETSC model watches each running simulation
// and recommends terminating the ones predicted *non-interesting*, freeing
// compute. The paper reports that ETSC identified 65% of non-interesting
// simulations early; this example reproduces that analysis with ECEC on the
// synthetic biological dataset.
//
//   ./biological_early_stop [num_simulations]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "algos/ecec.h"
#include "core/composed.h"
#include "core/dataset.h"
#include "core/metrics.h"
#include "core/voting.h"
#include "data/biological_sim.h"
#include "tsc/weasel.h"

int main(int argc, char** argv) {
  etsc::BiologicalSimOptions sim_options;
  if (argc > 1) sim_options.num_simulations = std::strtoul(argv[1], nullptr, 10);
  const etsc::Dataset dataset = etsc::MakeBiologicalDataset(sim_options);
  std::printf("Simulated %zu tumor-treatment runs (%zu time-points, 3 cell "
              "counts each); %.0f%% are 'interesting'.\n",
              dataset.size(), dataset.MaxLength(),
              100.0 * static_cast<double>(dataset.ClassCounts().at(1)) /
                  static_cast<double>(dataset.size()));

  etsc::Rng rng(99);
  const etsc::SplitIndices split = etsc::StratifiedSplit(dataset, 0.7, &rng);
  etsc::Dataset train = dataset.Subset(split.train);
  etsc::Dataset test = dataset.Subset(split.test);

  // ECEC is univariate: the framework's voting wrapper trains one instance per
  // cell-count channel (Alive/Necrotic/Apoptotic).
  // WEASEL + ECEC's confidence-ratio trigger over 12 prefixes (the registered
  // "ecec" alias uses Table 4's 20).
  auto trigger = std::make_unique<etsc::EcecRatioTrigger>();
  etsc::ComposedOptions options = trigger->DefaultComposedOptions();
  options.num_checkpoints = 12;
  auto model = etsc::WrapForDataset(
      std::make_unique<etsc::ComposedEarlyClassifier>(
          "ECEC", std::make_unique<etsc::WeaselClassifier>(),
          std::move(trigger), options),
      train);
  if (etsc::Status status = model->Fit(train); !status.ok()) {
    std::fprintf(stderr, "training failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // Replay the held-out simulations as if they were running live.
  size_t boring_total = 0;
  size_t boring_stopped_early = 0;
  size_t interesting_killed = 0;
  double timepoints_total = 0.0;
  double timepoints_spent = 0.0;
  std::vector<int> truth, predicted;
  std::vector<size_t> prefixes, lengths;
  for (size_t i = 0; i < test.size(); ++i) {
    const etsc::TimeSeries& run = test.instance(i);
    auto pred = model->PredictEarly(run);
    if (!pred.ok()) continue;
    truth.push_back(test.label(i));
    predicted.push_back(pred->label);
    prefixes.push_back(pred->prefix_length);
    lengths.push_back(run.length());
    timepoints_total += static_cast<double>(run.length());

    const bool is_boring = test.label(i) == 0;
    const bool predicted_boring = pred->label == 0;
    const bool early = pred->prefix_length < run.length();
    if (is_boring) {
      ++boring_total;
      if (predicted_boring && early) {
        ++boring_stopped_early;
        timepoints_spent += static_cast<double>(pred->prefix_length);
      } else {
        timepoints_spent += static_cast<double>(run.length());
      }
    } else {
      timepoints_spent += static_cast<double>(run.length());
      if (predicted_boring) ++interesting_killed;
    }
  }

  const etsc::EvalScores scores =
      etsc::ComputeScores(truth, predicted, prefixes, lengths);
  std::printf("ECEC+vote on held-out runs: %s\n", scores.ToString().c_str());
  std::printf(
      "Early termination policy: %zu/%zu (%.0f%%) of non-interesting "
      "simulations identified before completion (paper reports 65%%).\n",
      boring_stopped_early, boring_total,
      100.0 * static_cast<double>(boring_stopped_early) /
          static_cast<double>(boring_total));
  std::printf("Compute saved: %.1f%% of simulation time-points; %zu "
              "interesting runs would have been killed wrongly.\n",
              100.0 * (1.0 - timepoints_spent / timepoints_total),
              interesting_killed);
  return 0;
}
