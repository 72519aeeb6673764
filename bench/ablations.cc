// Ablation benches for the design choices the paper discusses:
//   (a) TEASER with vs without its one-class SVM tier (Sec. 6.2.3 credits the
//       OC-SVM for TEASER outperforming plain S-WEASEL);
//   (b) TEASER with vs without z-normalisation (the paper removes it for the
//       online setting and reports ~5% difference);
//   (c) ECEC's accuracy/earliness trade-off knob α;
//   (d) STRUT grid search vs the faster binary-search refinement;
//   (e) WEASEL with vs without bigrams;
//   (f) the four voting schemes for univariate algorithms on multivariate
//       data (future-work analysis of Sec. 7).

#include <cstdio>
#include <memory>
#include <string>

#include "algos/ecec.h"
#include "algos/registrations.h"
#include "algos/strut.h"
#include "algos/teaser.h"
#include "core/composed.h"
#include "core/evaluation.h"
#include "core/registry.h"
#include "core/voting.h"
#include "data/repository.h"
#include "tsc/weasel.h"

namespace {

etsc::Dataset LoadDataset(const std::string& name) {
  etsc::RepositoryOptions repo;
  repo.height_scale = 0.35;
  repo.maritime_windows = 600;
  auto benchmark = etsc::MakeBenchmarkDataset(name, repo);
  ETSC_CHECK(benchmark.ok());
  return std::move(benchmark->data);
}

void Report(const char* label, const etsc::EvaluationResult& result) {
  if (!result.trained()) {
    std::printf("  %-28s DNF\n", label);
    return;
  }
  const etsc::EvalScores scores = result.MeanScores();
  std::printf("  %-28s acc=%.3f f1=%.3f earliness=%.3f hm=%.3f\n", label,
              scores.accuracy, scores.f1, scores.earliness,
              scores.harmonic_mean);
}

etsc::EvaluationOptions Opts() {
  etsc::EvaluationOptions options;
  options.num_folds = 2;
  options.train_budget_seconds = 60.0;
  return options;
}

/// A registered algorithm or '<base>+<trigger>' spec.
std::unique_ptr<etsc::EarlyClassifier> Create(const std::string& name) {
  auto model = etsc::ClassifierRegistry::Global().Create(name);
  ETSC_CHECK(model.ok());
  return std::move(*model);
}

/// A composition whose trigger or grid departs from the registered defaults.
std::unique_ptr<etsc::EarlyClassifier> Compose(
    const char* name, std::unique_ptr<etsc::FullClassifier> base,
    std::unique_ptr<etsc::Trigger> trigger, size_t num_prefixes,
    bool z_normalize = false) {
  etsc::ComposedOptions options = trigger->DefaultComposedOptions();
  options.num_checkpoints = num_prefixes;
  options.z_normalize = z_normalize;
  return std::make_unique<etsc::ComposedEarlyClassifier>(
      name, std::move(base), std::move(trigger), options);
}

std::unique_ptr<etsc::EarlyClassifier> Teaser(
    const etsc::TeaserTriggerOptions& options, bool z_normalize = false) {
  return Compose("TEASER", std::make_unique<etsc::WeaselClassifier>(),
                 std::make_unique<etsc::TeaserGateTrigger>(options),
                 /*num_prefixes=*/10, z_normalize);
}

}  // namespace

int main() {
  etsc::RegisterBuiltinClassifiers();
  const etsc::Dataset power = LoadDataset("PowerCons");
  const etsc::Dataset motions = LoadDataset("BasicMotions");

  std::printf("== Ablation (a): TEASER one-class SVM tier (PowerCons) ==\n");
  {
    etsc::TeaserTriggerOptions with_svm;
    Report("TEASER (two-tier)",
           CrossValidate(power, *Teaser(with_svm), Opts()));
    // Disabling the filter: a huge nu cap makes every OC-SVM fit degenerate to
    // pass-through; emulate by forcing the filter off via max_training_points
    // = 0 is invalid, so use an accept-all variant through options.
    etsc::TeaserTriggerOptions no_svm = with_svm;
    no_svm.ocsvm.nu = 1.0 - 1e-9;  // everything becomes an outlier bound
    no_svm.ocsvm.max_iters = 0;    // uniform alphas: accepts ~everything
    Report("TEASER (SVM tier neutered)",
           CrossValidate(power, *Teaser(no_svm), Opts()));
  }

  std::printf("\n== Ablation (b): TEASER z-normalisation (PowerCons) ==\n");
  {
    Report("TEASER (no z-norm, paper)",
           CrossValidate(power, *Teaser({}), Opts()));
    Report("TEASER (original z-norm)",
           CrossValidate(power, *Teaser({}, /*z_normalize=*/true), Opts()));
  }

  std::printf("\n== Ablation (c): ECEC alpha trade-off (PowerCons) ==\n");
  for (double alpha : {0.5, 0.8, 0.95}) {
    etsc::EcecTriggerOptions options;
    options.alpha = alpha;
    char label[32];
    std::snprintf(label, sizeof(label), "ECEC alpha=%.2f", alpha);
    auto ecec = Compose("ECEC", std::make_unique<etsc::WeaselClassifier>(),
                        std::make_unique<etsc::EcecRatioTrigger>(options),
                        /*num_prefixes=*/10);
    Report(label, CrossValidate(power, *ecec, Opts()));
  }

  std::printf("\n== Ablation (d): STRUT search mode (PowerCons) ==\n");
  {
    Report("S-MINI (grid)",
           CrossValidate(power, *Create("minirocket+strut-grid"), Opts()));
    Report("S-MINI (binary refine)",
           CrossValidate(power, *Create("s-mini"), Opts()));
  }

  std::printf("\n== Ablation (e): WEASEL bigrams inside S-WEASEL (PowerCons) ==\n");
  {
    Report("S-WEASEL (uni+bigrams)",
           CrossValidate(power, *Create("s-weasel"), Opts()));
    // A STRUT over WEASEL without bigrams.
    etsc::WeaselOptions no_bigrams;
    no_bigrams.use_bigrams = false;
    etsc::ComposedEarlyClassifier strut(
        "S-WEASEL-uni", std::make_unique<etsc::WeaselClassifier>(no_bigrams),
        std::make_unique<etsc::StrutTrigger>(),
        etsc::StrutTrigger().DefaultComposedOptions());
    Report("S-WEASEL (unigrams only)", CrossValidate(power, strut, Opts()));
  }

  std::printf("\n== Ablation (f): voting schemes, ECTS on BasicMotions ==\n");
  for (etsc::VotingScheme scheme :
       {etsc::VotingScheme::kMajorityWorstEarliness,
        etsc::VotingScheme::kMajorityMeanEarliness,
        etsc::VotingScheme::kEarliestVoter,
        etsc::VotingScheme::kEarlinessWeighted}) {
    etsc::VotingEarlyClassifier wrapper(Create("ects"), scheme);
    Report(etsc::VotingSchemeName(scheme).c_str(),
           CrossValidate(motions, wrapper, Opts()));
  }
  return 0;
}
