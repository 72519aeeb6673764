#ifndef ETSC_ALGOS_REGISTRATIONS_H_
#define ETSC_ALGOS_REGISTRATIONS_H_

namespace etsc {

/// Registers the framework's built-ins in the three namespaces (DESIGN.md
/// sec 15):
///  * TriggerRegistry: the stopping rules "prob", "ecec-ratio",
///    "teaser-gate", "eco-cost", "ects-mpl", "strut-search" and
///    "strut-grid";
///  * BaseClassifierRegistry: the full-series classifiers usable as the base
///    of a composition ("weasel", "adaptive-weasel", "minirocket",
///    "minirocket-logistic", "mlstm", "1nn", "gbdt");
///  * ClassifierRegistry: "edsc", plus the paper's Table-2 set and the three
///    STRUT variants as aliases of their '<base>+<trigger>' spec ("ects" =
///    "1nn+ects-mpl", ...), each with the trigger's default grid and the
///    paper's display name.
/// Idempotent — call it once at program start before resolving algorithms by
/// name. (Static-initialiser registration does not survive static-library
/// linking, so the registration is explicit; user code registers its own
/// algorithms with ClassifierRegistry::Global().Register.)
void RegisterBuiltinClassifiers();

}  // namespace etsc

#endif  // ETSC_ALGOS_REGISTRATIONS_H_
