// campaign-cold: Campaign::Run from an empty journal with no model cache over
// {ECTS, EDSC, S-MINI, S-WEASEL} x {PowerCons, Biological, BasicMotions,
// DodgerLoopGame} with 2 folds. Fit and CV prediction dominate; no serving
// code runs. Each algorithm is one serial lane on the pool, so the slowest
// lane sets the wall time.
//
// The grid, its data and its CV splits are fixed (campaign seed 42), and the
// run's --seed does not change them: the scores are checked against the one
// golden file kept next to this source, and a fixed grid keeps the overlap of
// the four lanes — which sets the wall time — the same from run to run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/counters.h"
#include "core/json.h"
#include "core/parallel.h"
#include "core/trace.h"
#include "data/repository.h"
#include "perfbench/ledger.h"

namespace perfbench {
namespace {

const std::vector<std::string> kAlgorithms = {"ECTS", "EDSC", "S-MINI",
                                              "S-WEASEL"};
const std::vector<std::string> kDatasets = {"PowerCons", "Biological",
                                            "BasicMotions", "DodgerLoopGame"};
constexpr size_t kSetupReps = 9;

std::string Key(const std::string& algorithm, const std::string& dataset) {
  return algorithm + "," + dataset;
}

/// The scores a campaign must reproduce exactly, one line per cell.
std::string GoldenRow(const etsc::bench::CampaignCell& cell) {
  char row[256];
  std::snprintf(row, sizeof(row), "%s,%s,%.17g,%.17g,%.17g,%.17g",
                cell.algorithm.c_str(), cell.dataset.c_str(), cell.accuracy,
                cell.f1, cell.earliness, cell.harmonic_mean);
  return row;
}

/// Golden rows keyed by "algorithm,dataset"; '#' lines are comments.
std::map<std::string, std::string> ReadGolden(const std::string& path) {
  std::map<std::string, std::string> golden;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t second = line.find(',', line.find(',') + 1);
    if (second != std::string::npos) golden[line.substr(0, second)] = line;
  }
  return golden;
}

/// Seconds each algorithm's lane spent in its cells, from the campaign's own
/// "cell:<algo>/<dataset>" spans (cells of one lane run back to back).
std::map<std::string, double> LaneSeconds() {
  std::map<std::string, double> lanes;
  auto parsed = etsc::json::Parse(etsc::trace::ToChromeJson());
  if (!parsed.ok()) return lanes;
  const etsc::json::Value* events = parsed->Find("traceEvents");
  if (events == nullptr || !events->is_array()) return lanes;
  for (const etsc::json::Value& event : events->array) {
    const etsc::json::Value* name = event.Find("name");
    const etsc::json::Value* dur = event.Find("dur");
    if (name == nullptr || dur == nullptr) continue;
    const std::string& text = name->AsString();
    if (text.rfind("cell:", 0) != 0) continue;
    const std::string algorithm = text.substr(5, text.find('/') - 5);
    lanes[algorithm] += dur->AsNumber() * 1e-6;
  }
  return lanes;
}

/// Nearest-rank quantile of (value, weight) pairs, each pair standing for
/// `weight` samples of `value`.
double WeightedQuantile(std::vector<std::pair<double, double>> samples,
                        double q) {
  std::sort(samples.begin(), samples.end());
  double total = 0.0;
  for (const auto& [value, weight] : samples) total += weight;
  const double rank = std::max(1.0, std::ceil(q * total));
  double seen = 0.0;
  for (const auto& [value, weight] : samples) {
    seen += weight;
    if (seen >= rank) return value;
  }
  return samples.empty() ? 0.0 : samples.back().first;
}

double Number(const etsc::json::Value& root, const std::string& a,
              const std::string& b = "") {
  const etsc::json::Value* v = root.Find(a);
  if (v != nullptr && !b.empty()) v = v->Find(b);
  return v == nullptr || v->is_null() ? 0.0 : v->AsNumber();
}

/// Per-cell numbers of one run as the campaign report states them.
struct CellTimes {
  double train_seconds = 0.0;              // mean per fold
  double test_seconds_per_instance = 0.0;  // one decision
};

/// What one Campaign::Run measured.
struct Rep {
  double run_s = 0.0;
  double cpu_seconds = 0.0;
  double predictions = 0.0;
  etsc::json::Value counters;
  std::map<std::string, CellTimes> cells;
  std::map<std::string, double> lanes;  // traced only
};

}  // namespace

Outcome RunCampaignCold(const Options& options) {
  Outcome outcome;

  etsc::bench::CampaignConfig config;  // defaults, never the ETSC_BENCH_* env
  config.algorithms = kAlgorithms;
  config.datasets = kDatasets;
  config.folds = 2;
  config.cache_path = options.ledger_dir + "/campaign-cold.csv";
  config.report_path = options.ledger_dir + "/campaign-cold.report.json";

  // Set-up: generate the grid's datasets exactly as the campaign will (their
  // observation periods and sizes feed the Figure 13 ratio), and load the
  // golden scores.
  etsc::RepositoryOptions repo;
  repo.seed = config.seed;
  repo.height_scale = config.height_scale;
  repo.maritime_windows = config.maritime_windows;
  std::map<std::string, double> period;
  std::map<std::string, double> decisions;  // test instances = CV decisions
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  std::map<std::string, std::string> golden;
  for (size_t i = 0; i < kSetupReps; ++i) {
    const int64_t start = NowNs();
    for (const std::string& name : kDatasets) {
      auto benchmark = etsc::MakeBenchmarkDataset(name, repo);
      outcome.ops.Count(benchmark.ok());
      if (benchmark.ok()) {
        period[name] = benchmark->data.observation_period_seconds();
        decisions[name] = static_cast<double>(benchmark->data.size());
      }
    }
    generate_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    golden = ReadGolden(options.golden_path);
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  if (!options.write_golden && golden.size() != kAlgorithms.size() * kDatasets.size()) {
    std::fprintf(stderr, "perfbench: golden file %s is missing or incomplete\n",
                 options.golden_path.c_str());
    outcome.ops.Count(false);
  }

  std::vector<Rep> untraced, traced;
  std::vector<std::string> golden_rows;
  const size_t reps = Repeat(options.seconds, options.trace ? 2 : 1, [&](size_t i) {
    const bool tracing = options.trace && i % 2 == 1;
    for (const std::string& path :
         {config.cache_path, config.cache_path + ".stale", config.report_path}) {
      std::remove(path.c_str());
    }
    etsc::MetricRegistry::Global().ResetAll();
    if (tracing) {
      etsc::trace::Clear();
      etsc::trace::SetEnabled(true);
    }
    etsc::bench::Campaign campaign(config);
    const int64_t start = NowNs();
    const etsc::Status status = campaign.Run();
    Rep rep;
    rep.run_s = static_cast<double>(NowNs() - start) * 1e-9;
    if (tracing) {
      etsc::trace::SetEnabled(false);
      rep.lanes = LaneSeconds();
      etsc::trace::Clear();
    }
    outcome.ops.Count(status.ok());

    // Outputs: every cell trained cleanly, with exactly the golden scores.
    golden_rows.clear();
    for (const auto& cell : campaign.cells()) {
      outcome.ops.Count(cell.trained && !cell.quarantined && cell.failure.empty());
      const std::string row = GoldenRow(cell);
      golden_rows.push_back(row);
      if (!options.write_golden) {
        const auto it = golden.find(Key(cell.algorithm, cell.dataset));
        outcome.ops.Count(it != golden.end() && it->second == row);
      }
    }
    outcome.ops.Count(campaign.cells().size() == kAlgorithms.size() * kDatasets.size());

    // Timings and counters, read back from the report Run() wrote.
    std::ifstream in(config.report_path);
    std::stringstream text;
    text << in.rdbuf();
    auto report = etsc::json::Parse(text.str());
    outcome.ops.Count(report.ok());
    if (report.ok()) {
      rep.cpu_seconds = Number(*report, "cpu_seconds");
      const etsc::json::Value* metrics = report->Find("metrics");
      if (metrics != nullptr && metrics->Find("counters") != nullptr) {
        rep.counters = *metrics->Find("counters");
      }
      rep.predictions = Number(rep.counters, "eval.predictions");
      const etsc::json::Value* cells = report->Find("cells");
      for (size_t c = 0; cells != nullptr && c < cells->array.size(); ++c) {
        const etsc::json::Value& cell = cells->array[c];
        rep.cells[Key(cell.Find("algorithm")->AsString(),
                      cell.Find("dataset")->AsString())] = {
            Number(cell, "train_seconds"),
            Number(cell, "test_seconds_per_instance")};
      }
    }
    (tracing ? traced : untraced).push_back(std::move(rep));
  });
  std::remove(config.cache_path.c_str());

  if (options.write_golden) {
    std::ofstream out(options.golden_path, std::ios::trunc);
    out << "# algorithm,dataset,accuracy,f1,earliness,harmonic_mean "
           "(campaign-cold, folds=2, seed=42; written with --write-golden)\n";
    std::sort(golden_rows.begin(), golden_rows.end());
    for (const std::string& row : golden_rows) out << row << "\n";
    outcome.ops.Count(static_cast<bool>(out));
  }

  const auto median_of = [](const std::vector<Rep>& reps, auto field) {
    std::vector<double> values;
    for (const Rep& rep : reps) values.push_back(field(rep));
    return Median(values);
  };
  const double run_s = median_of(untraced, [](const Rep& r) { return r.run_s; });
  const Rep& last = untraced.back();

  // Figure 12 (fit seconds per cell) and Figure 13 (test seconds per
  // decision over the observation period), medians over untraced runs.
  etsc::json::Writer w;
  w.BeginObject();
  w.Field("reps", reps);
  w.Field("campaign_s", run_s);
  w.Field("cpu_seconds", median_of(untraced, [](const Rep& r) { return r.cpu_seconds; }));
  w.Field("pool_width", etsc::MaxParallelism());
  w.Key("cells").BeginArray();
  std::vector<std::pair<double, double>> per_decision_us;
  for (const std::string& algorithm : kAlgorithms) {
    for (const std::string& dataset : kDatasets) {
      const std::string key = Key(algorithm, dataset);
      const double fit_s = median_of(untraced, [&](const Rep& r) {
        return r.cells.count(key) ? r.cells.at(key).train_seconds : 0.0;
      });
      const double test_s = median_of(untraced, [&](const Rep& r) {
        return r.cells.count(key) ? r.cells.at(key).test_seconds_per_instance
                                  : 0.0;
      });
      per_decision_us.push_back({test_s * 1e6, decisions[dataset]});
      w.BeginObject();
      w.Field("algorithm", algorithm);
      w.Field("dataset", dataset);
      w.Field("fig12_fit_s", fit_s);
      w.Field("decisions", decisions[dataset]);
      w.Field("test_s_per_decision", test_s);
      w.Field("observation_period_s", period[dataset]);
      w.Field("fig13_ratio", period[dataset] > 0 ? test_s / period[dataset] : 0.0);
      w.EndObject();
    }
  }
  w.EndArray();
  w.EndObject();
  outcome.details_json = w.str();

  if (!options.trace) {
    // One CV prediction is one decision: the "events" of this workload. The
    // campaign reports one mean test time per cell, so each decision carries
    // its cell's per-decision time (the Figure 13 numerator).
    outcome.end_to_end = {
        {"events_per_s", last.predictions / run_s},
        {"decision_p50_us", WeightedQuantile(per_decision_us, 0.50)},
        {"decision_p99_us", WeightedQuantile(per_decision_us, 0.99)},
        {"setup_s", Median(setup_s)},
    };
    return outcome;
  }

  const Rep& t = traced.back();
  const double width = static_cast<double>(etsc::MaxParallelism());
  double lane_max = 0.0;
  for (const auto& [algorithm, seconds] : t.lanes) {
    lane_max = std::max(lane_max, seconds);
  }
  const double scanned = Number(t.counters, "nn.candidates_scanned");
  outcome.per_layer = {
      {"eval.folds_run", Number(t.counters, "eval.folds_run")},
      {"eval.predictions", t.predictions},
      {"pool.tasks_executed", Number(t.counters, "pool.tasks_executed")},
      {"pool.busy_frac", t.cpu_seconds / (t.run_s * width)},
      {"campaign.lane_max_s", lane_max},
      {"campaign.run_s", t.run_s},
      {"nn.candidates_scanned", scanned},
      {"nn.abandon_frac",
       scanned > 0 ? Number(t.counters, "nn.candidates_abandoned") / scanned : 0},
      {"distance.prefix_sq_calls", Number(t.counters, "distance.prefix_sq_calls")},
      {"distance.subseries_windows",
       Number(t.counters, "distance.subseries_windows")},
      {"data.generate_s", Median(generate_s)},
      {"trace.overhead_x", t.run_s / run_s},
  };
  for (const std::string& algorithm : kAlgorithms) {
    double fit_s = 0.0;
    double predict_us = 0.0;
    for (const std::string& dataset : kDatasets) {
      const auto it = t.cells.find(Key(algorithm, dataset));
      if (it == t.cells.end()) continue;
      fit_s += it->second.train_seconds * static_cast<double>(config.folds);
      predict_us += it->second.test_seconds_per_instance * 1e6 /
                    static_cast<double>(kDatasets.size());
    }
    outcome.per_layer["eval.fit_s." + algorithm] = fit_s;
    outcome.per_layer["eval.predict_us_per_instance." + algorithm] = predict_us;
  }
  return outcome;
}

}  // namespace perfbench
