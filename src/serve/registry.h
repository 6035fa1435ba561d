// The model registry a tms_server loads once at startup.
//
// The expensive part of answering a query is per-model state (the Markov
// sequence itself, and everything the engines derive from it); a one-shot
// CLI re-parses the model on every invocation, a server loads it exactly
// once and answers every subsequent request against the in-memory copy.
// Models are registered as `name=path` pairs; the name is the URL segment
// of POST /query/<name>. The registry is immutable after Load, so
// concurrent request threads read it without locks.
//
// Alongside the models the registry can hold PRECOMPILED queries:
// transducer files parsed once at startup and served by name via
// `precompiled=<name>` with an empty request body, so hot queries skip
// the body parse. The stored machine is the file's parse, unchanged: a
// precompiled request runs the very transducer the same text sent as a
// body runs, so its stream is byte-identical to the body query's.

#ifndef TMS_SERVE_REGISTRY_H_
#define TMS_SERVE_REGISTRY_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "markov/markov_sequence.h"
#include "transducer/transducer.h"

namespace tms::serve {

/// Immutable name -> MarkovSequence map shared by all request threads.
class ModelRegistry {
 public:
  ModelRegistry() = default;

  /// Loads every `(name, path)` spec; each path must parse as a
  /// `markov-sequence` text file. Duplicate names and empty names fail.
  static StatusOr<ModelRegistry> Load(
      const std::vector<std::pair<std::string, std::string>>& specs);

  /// Registers an in-memory model (tests; programmatic embedding).
  Status Insert(const std::string& name, markov::MarkovSequence mu);

  /// The model under `name`, or nullptr.
  const markov::MarkovSequence* Find(const std::string& name) const;

  std::vector<std::string> Names() const;
  size_t size() const { return models_.size(); }

  /// Parses the transducer query at `query_path` for model `model`
  /// (which must already be registered and share the query's input
  /// alphabet) and registers it under `(model, name)`.
  Status Precompile(const std::string& model, const std::string& name,
                    const std::string& query_path);

  /// Registers an in-memory precompiled query (tests; programmatic
  /// embedding). Same name rules as Insert, scoped per model.
  Status InsertPrecompiled(const std::string& model, const std::string& name,
                           transducer::Transducer t);

  /// The precompiled query under `(model, name)`, or nullptr.
  const transducer::Transducer* FindPrecompiled(
      const std::string& model, const std::string& name) const;

  /// "model:name" keys, sorted (startup log / introspection).
  std::vector<std::string> PrecompiledNames() const;

 private:
  std::map<std::string, markov::MarkovSequence> models_;
  std::map<std::pair<std::string, std::string>, transducer::Transducer>
      precompiled_;
};

}  // namespace tms::serve

#endif  // TMS_SERVE_REGISTRY_H_
