#include "serve/registry.h"

#include "io/binary_format.h"
#include "io/text_format.h"

namespace tms::serve {

StatusOr<ModelRegistry> ModelRegistry::Load(
    const std::vector<std::pair<std::string, std::string>>& specs) {
  ModelRegistry registry;
  for (const auto& [name, path] : specs) {
    // Cold-start fast path: a fingerprint-valid `<path>.tmsb` snapshot
    // skips the text parse; anything stale or corrupt is rejected loudly
    // and the text file stays authoritative (io/binary_format.h).
    auto mu = io::LoadMarkovSequenceFile(path, /*refresh_snapshot=*/true);
    if (!mu.ok()) {
      return Status::InvalidArgument("model '" + name + "' (" + path +
                                     "): " + mu.status().ToString());
    }
    TMS_RETURN_IF_ERROR(registry.Insert(name, std::move(*mu)));
  }
  return registry;
}

Status ModelRegistry::Insert(const std::string& name,
                             markov::MarkovSequence mu) {
  if (name.empty()) {
    return Status::InvalidArgument("model name must be non-empty");
  }
  if (models_.count(name) != 0) {
    return Status::InvalidArgument("duplicate model name '" + name + "'");
  }
  models_.emplace(name, std::move(mu));
  return Status::Ok();
}

const markov::MarkovSequence* ModelRegistry::Find(
    const std::string& name) const {
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : &it->second;
}

Status ModelRegistry::Precompile(const std::string& model,
                                 const std::string& name,
                                 const std::string& query_path) {
  const std::string context =
      "precompile '" + model + ":" + name + "' (" + query_path + "): ";
  const markov::MarkovSequence* mu = Find(model);
  if (mu == nullptr) {
    return Status::InvalidArgument(context + "unknown model");
  }
  auto text = io::ReadFile(query_path);
  if (!text.ok()) return text.status();
  auto parsed = io::ParseTransducer(*text);
  if (!parsed.ok()) {
    return Status::InvalidArgument(context + parsed.status().ToString());
  }
  if (!(mu->nodes() == parsed->input_alphabet())) {
    return Status::InvalidArgument(
        context + "query input alphabet does not match the model alphabet");
  }
  return InsertPrecompiled(model, name, *std::move(parsed));
}

Status ModelRegistry::InsertPrecompiled(const std::string& model,
                                        const std::string& name,
                                        transducer::Transducer t) {
  if (name.empty()) {
    return Status::InvalidArgument("precompiled name must be non-empty");
  }
  if (models_.count(model) == 0) {
    return Status::InvalidArgument("precompiled query '" + name +
                                   "' names unknown model '" + model + "'");
  }
  auto key = std::make_pair(model, name);
  if (precompiled_.count(key) != 0) {
    return Status::InvalidArgument("duplicate precompiled name '" + model +
                                   ":" + name + "'");
  }
  precompiled_.emplace(std::move(key), std::move(t));
  return Status::Ok();
}

const transducer::Transducer* ModelRegistry::FindPrecompiled(
    const std::string& model, const std::string& name) const {
  auto it = precompiled_.find(std::make_pair(model, name));
  return it == precompiled_.end() ? nullptr : &it->second;
}

std::vector<std::string> ModelRegistry::PrecompiledNames() const {
  std::vector<std::string> names;
  names.reserve(precompiled_.size());
  for (const auto& [key, t] : precompiled_) {
    names.push_back(key.first + ":" + key.second);
  }
  return names;
}

std::vector<std::string> ModelRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, mu] : models_) names.push_back(name);
  return names;
}

}  // namespace tms::serve
