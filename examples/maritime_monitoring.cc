// Maritime scenario (paper Sec. 5.3 / 6.3): port authorities want to know as
// early as possible whether a vessel will reach the port within the next 30
// minutes. This example trains S-MINI (STRUT over MiniROCKET, multivariate)
// on simulated AIS windows around the Brest port polygon and reports, per
// alert, how many minutes of warning the early classification buys.
//
//   ./maritime_monitoring [num_windows]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "algos/registrations.h"
#include "core/metrics.h"
#include "core/registry.h"
#include "data/maritime_sim.h"

int main(int argc, char** argv) {
  etsc::RegisterBuiltinClassifiers();
  etsc::MaritimeSimOptions sim_options;
  sim_options.num_windows = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 1500;
  const etsc::Dataset dataset = etsc::MakeMaritimeDataset(sim_options);
  std::printf("Simulated %zu 30-minute AIS windows around Brest (7 attributes "
              "per minute); %zu end inside the port polygon.\n",
              dataset.size(), dataset.ClassCounts().at(1));

  etsc::Rng rng(7);
  const etsc::SplitIndices split = etsc::StratifiedSplit(dataset, 0.7, &rng);
  etsc::Dataset train = dataset.Subset(split.train);
  etsc::Dataset test = dataset.Subset(split.test);

  auto created = etsc::ClassifierRegistry::Global().Create("s-mini");
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<etsc::EarlyClassifier> model = std::move(*created);
  if (etsc::Status status = model->Fit(train); !status.ok()) {
    std::fprintf(stderr, "training failed: %s\n", status.ToString().c_str());
    return 1;
  }

  std::vector<int> truth, predicted;
  std::vector<size_t> prefixes, lengths;
  double warning_minutes = 0.0;
  size_t true_alerts = 0, false_alerts = 0, missed = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    const etsc::TimeSeries& window = test.instance(i);
    auto pred = model->PredictEarly(window);
    if (!pred.ok()) continue;
    truth.push_back(test.label(i));
    predicted.push_back(pred->label);
    prefixes.push_back(pred->prefix_length);
    lengths.push_back(window.length());

    if (pred->label == 1 && test.label(i) == 1) {
      ++true_alerts;
      warning_minutes +=
          static_cast<double>(window.length() - pred->prefix_length);
    } else if (pred->label == 1) {
      ++false_alerts;
    } else if (test.label(i) == 1) {
      ++missed;
    }
  }

  const etsc::EvalScores scores =
      etsc::ComputeScores(truth, predicted, prefixes, lengths);
  std::printf("S-MINI on held-out windows: %s\n", scores.ToString().c_str());
  std::printf("Port-arrival alerts: %zu correct (avg %.1f minutes of advance "
              "warning), %zu false alerts, %zu arrivals missed.\n",
              true_alerts,
              true_alerts > 0 ? warning_minutes / static_cast<double>(true_alerts)
                              : 0.0,
              false_alerts, missed);
  return 0;
}
