#ifndef ETSC_CORE_COMPOSED_H_
#define ETSC_CORE_COMPOSED_H_

#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/dataset.h"
#include "core/status.h"
#include "core/trigger.h"

namespace etsc {

/// Builds one of the shared checkpoint grids over training length `length`:
/// the exact rounding/minimum rules of the published algorithms (see
/// CheckpointGrid), deduped ascending, ending at `length`.
std::vector<size_t> BuildCheckpointGrid(CheckpointGrid grid, size_t length,
                                        size_t num_checkpoints);

/// Pairs any base (full) classifier with any trigger (DESIGN.md sec 15).
///
/// Fit: build the checkpoint grid, let the trigger plan/validate, fit one
/// clone of the base per checkpoint (the "bank"; skipped for self-contained
/// triggers), then fit the trigger against the bank. PredictEarly: walk the
/// checkpoints, show the trigger the bank's posterior (or plain prediction)
/// at each, emit at the first halt; series shorter than every checkpoint fall
/// back to the trigger's Finalize or the first bank model on the full series.
/// NewCursor resumes that walk across a growing stream, deciding each
/// checkpoint once per stream and marking only the grid's final checkpoint
/// is_last; PredictEarly is a fresh cursor's Finish, so there is one
/// checkpoint walk, not two.
///
/// The paper's published pairings (ECTS, ECEC, TEASER, ...) are registry
/// aliases of their '<base>+<trigger>' spec under a display name, so an
/// alias and its spec twin are the same composition with a different name().
class ComposedEarlyClassifier : public EarlyClassifier {
 public:
  ComposedEarlyClassifier(std::string name,
                          std::unique_ptr<FullClassifier> base,
                          std::unique_ptr<Trigger> trigger,
                          ComposedOptions options = {});

  Status Fit(const Dataset& train) override;
  Result<EarlyPrediction> PredictEarly(const TimeSeries& series) const override;
  std::unique_ptr<PredictCursor> NewCursor() const override;
  std::string name() const override { return name_; }
  bool SupportsMultivariate() const override;
  std::unique_ptr<EarlyClassifier> CloneUntrained() const override;
  std::string config_fingerprint() const override;
  Status SaveState(Serializer& out) const override;
  Status LoadState(Deserializer& in) override;

  bool fitted() const { return fitted_; }
  /// Prefix lengths walked at predict time (fitted instances only).
  const std::vector<size_t>& checkpoints() const { return checkpoints_; }
  const Trigger& trigger() const { return *trigger_; }
  /// Per-checkpoint fitted models (empty for self-contained triggers).
  const std::vector<std::unique_ptr<FullClassifier>>& bank() const {
    return bank_;
  }
  const ComposedOptions& composed_options() const { return options_; }

 private:
  friend class ComposedCursor;

  std::string name_;
  std::unique_ptr<FullClassifier> base_;
  std::unique_ptr<Trigger> trigger_;
  ComposedOptions options_;
  size_t length_ = 0;
  std::vector<size_t> checkpoints_;
  std::vector<std::unique_ptr<FullClassifier>> bank_;
  bool fitted_ = false;
};

/// True when `name` looks like a "classifier+trigger" composition spec.
inline bool IsComposedSpec(const std::string& name) {
  return name.find('+') != std::string::npos;
}

/// Instantiates a "classifier+trigger" spec from the two registries (e.g.
/// "weasel+prob") with the trigger's DefaultComposedOptions(), named after
/// the spec. Unknown halves yield the registry's structured NotFound listing
/// the names of the right namespace; a malformed spec yields InvalidArgument
/// describing the syntax.
Result<std::unique_ptr<EarlyClassifier>> MakeComposedFromSpec(
    const std::string& spec);

/// As above, but the composition reports `name` as its name() — how the
/// registry builds aliases ("ects" = "1nn+ects-mpl", shown as "ECTS").
Result<std::unique_ptr<EarlyClassifier>> MakeComposedFromSpec(
    const std::string& spec, std::string name);

}  // namespace etsc

#endif  // ETSC_CORE_COMPOSED_H_
