#include "workload/bio.h"

#include "automata/regex.h"
#include "common/check.h"
#include "hmm/translate.h"

namespace tms::workload {
namespace {

Status ValidateConfig(const MotifConfig& config) {
  if (config.consensus.empty()) {
    return Status::InvalidArgument("motif consensus must be nonempty");
  }
  for (char c : config.consensus) {
    if (c != 'A' && c != 'C' && c != 'G' && c != 'T') {
      return Status::InvalidArgument(
          "motif consensus must be over ACGT, got: " +
          std::string(1, c));
    }
  }
  if (!(config.match_fidelity > 0.25 && config.match_fidelity <= 1.0)) {
    return Status::InvalidArgument("match_fidelity must be in (0.25, 1]");
  }
  if (!(config.motif_entry_prob > 0 && config.motif_entry_prob < 1)) {
    return Status::InvalidArgument("motif_entry_prob must be in (0, 1)");
  }
  return Status::Ok();
}

size_t BaseIndex(char c) {
  switch (c) {
    case 'A': return 0;
    case 'C': return 1;
    case 'G': return 2;
    default: return 3;  // 'T'
  }
}

}  // namespace

Alphabet DnaAlphabet() {
  Alphabet out;
  out.Intern("A");
  out.Intern("C");
  out.Intern("G");
  out.Intern("T");
  return out;
}

StatusOr<hmm::Hmm> BuildMotifHmm(const MotifConfig& config) {
  TMS_RETURN_IF_ERROR(ValidateConfig(config));
  const int k = static_cast<int>(config.consensus.size());
  Alphabet states;
  states.Intern("bg");
  for (int i = 1; i <= k; ++i) {
    std::string name = "m";
    name += std::to_string(i);
    states.Intern(name);
  }
  Alphabet bases = DnaAlphabet();
  const size_t ns = states.size();

  std::vector<double> initial(ns, 0.0);
  initial[0] = 1.0;  // reads start in background

  std::vector<double> transition(ns * ns, 0.0);
  // bg: stay or enter the motif.
  transition[0 * ns + 0] = 1.0 - config.motif_entry_prob;
  transition[0 * ns + 1] = config.motif_entry_prob;
  // m_i → m_{i+1}; m_k → bg.
  for (int i = 1; i < k; ++i) {
    transition[static_cast<size_t>(i) * ns + static_cast<size_t>(i + 1)] =
        1.0;
  }
  transition[static_cast<size_t>(k) * ns + 0] = 1.0;

  std::vector<double> emission(ns * bases.size(), 0.0);
  for (size_t b = 0; b < bases.size(); ++b) {
    emission[0 * bases.size() + b] = 0.25;  // uniform background
  }
  for (int i = 1; i <= k; ++i) {
    size_t consensus_base =
        BaseIndex(config.consensus[static_cast<size_t>(i - 1)]);
    for (size_t b = 0; b < bases.size(); ++b) {
      emission[static_cast<size_t>(i) * bases.size() + b] =
          b == consensus_base ? config.match_fidelity
                              : (1.0 - config.match_fidelity) / 3.0;
    }
  }
  return hmm::Hmm::Create(states, bases, std::move(initial),
                          std::move(transition), std::move(emission));
}

StatusOr<MotifScenario> MakeMotifScenario(const MotifConfig& config, int n,
                                          Rng& rng) {
  auto model = BuildMotifHmm(config);
  if (!model.ok()) return model.status();
  if (n < static_cast<int>(config.consensus.size())) {
    return Status::InvalidArgument("read shorter than the motif");
  }
  auto [labels, bases] = model->Sample(n, rng);
  auto mu = hmm::PosteriorMarkovSequence(*model, bases);
  if (!mu.ok()) return mu.status();
  MotifScenario out{std::move(model).value(), std::move(labels),
                    std::move(bases), std::move(mu).value()};
  return out;
}

StatusOr<projector::SProjector> MotifExtractor(const MotifConfig& config) {
  auto model = BuildMotifHmm(config);
  if (!model.ok()) return model.status();
  const Alphabet& states = model->states();
  std::string pattern;
  for (size_t i = 1; i < states.size(); ++i) {
    if (i > 1) pattern += ' ';
    pattern += states.Name(static_cast<Symbol>(i));
  }
  auto dfa = automata::CompileRegexToDfa(states, pattern);
  if (!dfa.ok()) return dfa.status();
  return projector::SProjector::Simple(std::move(dfa).value());
}

}  // namespace tms::workload
