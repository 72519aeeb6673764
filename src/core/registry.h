#ifndef ETSC_CORE_REGISTRY_H_
#define ETSC_CORE_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "core/status.h"

namespace etsc {

/// The noun a registry uses in its messages ("trigger 'x' is not
/// registered (registered triggers: ...)"); specialised per namespace.
template <typename T>
struct RegistryKind;
template <>
struct RegistryKind<EarlyClassifier> {
  static constexpr const char* kName = "classifier";
};
template <>
struct RegistryKind<FullClassifier> {
  static constexpr const char* kName = "base classifier";
};

/// Name -> factory registry: the framework's extension point (paper Sec. 5.5).
/// One implementation serves the three namespaces — early classifiers
/// (ClassifierRegistry), stopping rules (TriggerRegistry, core/trigger.h) and
/// the full-series classifiers a composition uses as its base
/// (BaseClassifierRegistry). Algorithms are registered explicitly at program
/// start (RegisterBuiltinClassifiers, or Register from user code) and every
/// harness and bench can then create them by name.
template <typename T>
class Registry {
 public:
  using Factory = std::function<std::unique_ptr<T>()>;

  /// Process-wide registry instance.
  static Registry& Global() {
    static Registry* registry = new Registry();
    return *registry;
  }

  /// Registers a factory; fails on duplicate names. `spec` records the
  /// '<base>+<trigger>' an alias expands to (shown by etsc_cli --list); empty
  /// for entries that are not aliases.
  Status Register(const std::string& name, Factory factory,
                  std::string spec = {}) {
    if (entries_.count(name) > 0) {
      return Status::InvalidArgument(std::string(RegistryKind<T>::kName) +
                                     " '" + name + "' already registered");
    }
    entries_[name] = Entry{std::move(factory), std::move(spec)};
    return Status::OK();
  }

  /// Instantiates a registered entry; unknown names yield a NotFound that
  /// lists the names of this namespace (and only those).
  Result<std::unique_ptr<T>> Create(const std::string& name) const {
    return Lookup(name);
  }

  bool Contains(const std::string& name) const {
    return entries_.count(name) > 0;
  }

  /// Registered names, sorted.
  std::vector<std::string> Names() const {
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) names.push_back(name);
    return names;
  }

  /// The spec `name` was registered as an alias of; empty otherwise.
  std::string SpecOf(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? std::string() : it->second.spec;
  }

 private:
  struct Entry {
    Factory factory;
    std::string spec;
  };

  Result<std::unique_ptr<T>> Lookup(const std::string& name) const {
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      const std::string kind = RegistryKind<T>::kName;
      std::string known;
      for (const auto& [registered, entry] : entries_) {
        if (!known.empty()) known += ", ";
        known += registered;
      }
      return Status::NotFound(kind + " '" + name +
                              "' is not registered (registered " + kind +
                              "s: " + known + ")");
    }
    return it->second.factory();
  }

  std::map<std::string, Entry> entries_;
};

using ClassifierRegistry = Registry<EarlyClassifier>;
using BaseClassifierRegistry = Registry<FullClassifier>;

/// The one resolver for algorithm names: a registered name (plain algorithm
/// or '<base>+<trigger>' alias) or any string containing '+', which resolves
/// through MakeComposedFromSpec. Defined in core/composed.cc.
template <>
Result<std::unique_ptr<EarlyClassifier>> ClassifierRegistry::Create(
    const std::string& name) const;

}  // namespace etsc

#endif  // ETSC_CORE_REGISTRY_H_
