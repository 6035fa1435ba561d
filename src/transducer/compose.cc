#include "transducer/compose.h"

#include "common/check.h"
#include "obs/obs.h"

namespace tms::transducer {

Transducer ComposeWithOutputDfa(const Transducer& t,
                                const automata::Dfa& output_dfa) {
  TMS_CHECK(output_dfa.alphabet() == t.output_alphabet());
  const int nc = output_dfa.num_states();
  TMS_OBS_HISTOGRAM("transducer.compose.states", t.num_states() * nc);
  Transducer out(t.input_alphabet(), t.output_alphabet(),
                 t.num_states() * nc);
  auto id = [nc](StateId q, automata::StateId c) {
    return static_cast<StateId>(q * nc + c);
  };
  out.SetInitial(id(t.initial(), output_dfa.initial()));
  for (StateId q = 0; q < t.num_states(); ++q) {
    for (automata::StateId c = 0; c < nc; ++c) {
      if (t.IsAccepting(q) && output_dfa.IsAccepting(c)) {
        out.SetAccepting(id(q, c), true);
      }
      for (size_t s = 0; s < t.input_alphabet().size(); ++s) {
        for (const Edge& e : t.Next(q, static_cast<Symbol>(s))) {
          automata::StateId c2 = output_dfa.Run(c, e.output);
          Status st = out.AddTransition(id(q, c), static_cast<Symbol>(s),
                                        id(e.target, c2), e.output);
          TMS_CHECK(st.ok());
        }
      }
    }
  }
  return out;
}

Transducer ComposeWithOutputConstraint(
    const Transducer& t, const ranking::OutputConstraint& constraint) {
  return ComposeWithOutputDfa(t, constraint.ToDfa(t.output_alphabet()));
}

Transducer ComposeWithInputDfa(const Transducer& t,
                               const automata::Dfa& input_dfa) {
  TMS_CHECK(input_dfa.alphabet() == t.input_alphabet());
  const int nc = input_dfa.num_states();
  Transducer out(t.input_alphabet(), t.output_alphabet(),
                 t.num_states() * nc);
  auto id = [nc](StateId q, automata::StateId c) {
    return static_cast<StateId>(q * nc + c);
  };
  out.SetInitial(id(t.initial(), input_dfa.initial()));
  for (StateId q = 0; q < t.num_states(); ++q) {
    for (automata::StateId c = 0; c < nc; ++c) {
      if (t.IsAccepting(q) && input_dfa.IsAccepting(c)) {
        out.SetAccepting(id(q, c), true);
      }
      for (size_t s = 0; s < t.input_alphabet().size(); ++s) {
        automata::StateId c2 = input_dfa.Next(c, static_cast<Symbol>(s));
        for (const Edge& e : t.Next(q, static_cast<Symbol>(s))) {
          Status st = out.AddTransition(id(q, c), static_cast<Symbol>(s),
                                        id(e.target, c2), e.output);
          TMS_CHECK(st.ok());
        }
      }
    }
  }
  return out;
}

}  // namespace tms::transducer
