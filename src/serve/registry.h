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
// transducers minimized offline (optimize/transducer_opt.h) at startup and
// served by name via `precompiled=<name>` with an empty request body, so
// hot queries skip both the body parse and the minimization pass. The
// precompile step persists its result as a fingerprinted artifact next to
// the query file (optimize/artifact.h) and loads it back on later cold
// starts; a corrupted or stale artifact is rejected loudly
// (`optimize.artifact_rejected`) and the query is recompiled on the fly —
// never served from the bad file.

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

  /// Precompiles the transducer query at `query_path` for model `model`
  /// (which must already be registered and share the query's input
  /// alphabet) and registers it under `(model, name)`.
  ///
  /// The artifact `<query_path>.opt` is tried first (fingerprint-validated
  /// against the parsed query); on NotFound or rejection the query is
  /// minimized on the fly with optimize::MinimizeTransducer and the
  /// artifact is rewritten best-effort (a read-only query directory only
  /// costs the persistence, not the precompile).
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
