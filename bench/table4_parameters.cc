// Reproduces paper Table 4: the parameter values every campaign bench uses,
// echoed from the live option structs so the printout cannot drift from the
// code.

#include <cstdio>

#include "algos/ecec.h"
#include "algos/economy_k.h"
#include "algos/ects.h"
#include "algos/edsc.h"
#include "algos/strut.h"
#include "algos/teaser.h"
#include "bench/bench_common.h"
#include "core/trigger.h"

int main() {
  std::printf("== Table 4: parameter values of ETSC algorithms ==\n");

  // Prefix counts are the trigger's default checkpoint grid, the rest its
  // options.
  etsc::EcecTriggerOptions ecec;
  std::printf("ECEC       N = %zu, a = %.1f\n",
              etsc::EcecRatioTrigger().DefaultComposedOptions().num_checkpoints,
              ecec.alpha);

  etsc::EcoCostTriggerOptions eco;
  std::printf("ECONOMY-K  k = {");
  for (size_t i = 0; i < eco.cluster_grid.size(); ++i) {
    std::printf("%s%zu", i ? ", " : "", eco.cluster_grid[i]);
  }
  std::printf("}, lambda = %.0f, cost = %.3f\n", eco.lambda, eco.time_cost);

  etsc::EctsOptions ects;
  std::printf("ECTS       support = %zu\n", ects.support);

  etsc::EdscOptions edsc;
  std::printf("EDSC       CHE, k = %.0f, minLen = %zu, maxLen = L*%.1f\n",
              edsc.chebyshev_k, edsc.min_length, edsc.max_length_fraction);

  etsc::TeaserTriggerOptions teaser;
  const etsc::ComposedOptions teaser_grid =
      etsc::TeaserGateTrigger().DefaultComposedOptions();
  std::printf("TEASER     S: %zu for UCR, 10 for Biological/Maritime; "
              "v grid 1..%zu; z-norm %s\n",
              teaser_grid.num_checkpoints, teaser.max_consecutive,
              teaser_grid.z_normalize ? "on" : "off (paper variant)");

  etsc::StrutOptions strut;
  std::printf("S-MLSTM    truncation grid {");
  for (size_t i = 0; i < strut.fractions.size(); ++i) {
    std::printf("%s%.2f", i ? ", " : "", strut.fractions[i]);
  }
  std::printf("} x L, LSTM cells per MlstmOptions\n");

  const auto config = etsc::bench::CampaignConfig::FromEnv();
  std::printf("\nCampaign protocol: stratified %zu-fold CV, train budget "
              "%.0f s/fold (stand-in for the 48 h cut-off), dataset height "
              "scale %.2f.\n",
              config.folds, config.train_budget_seconds, config.height_scale);
  return 0;
}
