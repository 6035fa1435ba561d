#include "automata/ops.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "common/check.h"
#include "obs/obs.h"

namespace tms::automata {

Dfa Determinize(const Nfa& nfa) {
  const size_t sigma = nfa.alphabet().size();
  std::map<std::vector<StateId>, StateId> subset_id;
  std::vector<std::vector<StateId>> subsets;

  auto intern = [&](std::vector<StateId> subset) -> StateId {
    auto it = subset_id.find(subset);
    if (it != subset_id.end()) return it->second;
    StateId id = static_cast<StateId>(subsets.size());
    subset_id.emplace(subset, id);
    subsets.push_back(std::move(subset));
    return id;
  };

  StateId start = intern({nfa.initial()});
  std::queue<StateId> work;
  work.push(start);
  // next_of[q][s] for interned subsets, filled lazily.
  std::vector<std::vector<StateId>> next_of;

  while (!work.empty()) {
    StateId id = work.front();
    work.pop();
    if (static_cast<size_t>(id) < next_of.size()) continue;
    // Subsets are interned in BFS order, so ids arrive in order here.
    TMS_CHECK_EQ(static_cast<size_t>(id), next_of.size());
    std::vector<StateId> row(sigma);
    for (size_t s = 0; s < sigma; ++s) {
      std::set<StateId> next;
      for (StateId q : subsets[static_cast<size_t>(id)]) {
        for (StateId q2 : nfa.Next(q, static_cast<Symbol>(s))) {
          next.insert(q2);
        }
      }
      StateId nid = intern(std::vector<StateId>(next.begin(), next.end()));
      row[s] = nid;
      if (static_cast<size_t>(nid) >= next_of.size()) work.push(nid);
    }
    next_of.push_back(std::move(row));
  }

  // next_of may still miss subsets discovered in the last rounds.
  while (next_of.size() < subsets.size()) {
    StateId id = static_cast<StateId>(next_of.size());
    std::vector<StateId> row(sigma);
    for (size_t s = 0; s < sigma; ++s) {
      std::set<StateId> next;
      for (StateId q : subsets[static_cast<size_t>(id)]) {
        for (StateId q2 : nfa.Next(q, static_cast<Symbol>(s))) {
          next.insert(q2);
        }
      }
      row[s] = intern(std::vector<StateId>(next.begin(), next.end()));
    }
    next_of.push_back(std::move(row));
  }

  TMS_OBS_HISTOGRAM("automata.determinize.states", subsets.size());
  Dfa out(nfa.alphabet(), static_cast<int>(subsets.size()));
  out.SetInitial(start);
  for (StateId id = 0; id < out.num_states(); ++id) {
    bool acc = false;
    for (StateId q : subsets[static_cast<size_t>(id)]) {
      if (nfa.IsAccepting(q)) acc = true;
    }
    out.SetAccepting(id, acc);
    for (size_t s = 0; s < sigma; ++s) {
      out.SetTransition(id, static_cast<Symbol>(s),
                        next_of[static_cast<size_t>(id)][s]);
    }
  }
  return out;
}

namespace {

// States of `dfa` reachable from the initial state.
std::vector<StateId> ReachableStates(const Dfa& dfa) {
  std::vector<bool> seen(static_cast<size_t>(dfa.num_states()), false);
  std::queue<StateId> work;
  seen[static_cast<size_t>(dfa.initial())] = true;
  work.push(dfa.initial());
  while (!work.empty()) {
    StateId q = work.front();
    work.pop();
    for (size_t s = 0; s < dfa.alphabet().size(); ++s) {
      StateId q2 = dfa.Next(q, static_cast<Symbol>(s));
      if (!seen[static_cast<size_t>(q2)]) {
        seen[static_cast<size_t>(q2)] = true;
        work.push(q2);
      }
    }
  }
  std::vector<StateId> out;
  for (StateId q = 0; q < dfa.num_states(); ++q) {
    if (seen[static_cast<size_t>(q)]) out.push_back(q);
  }
  return out;
}

}  // namespace

Dfa Minimize(const Dfa& dfa) {
  const size_t sigma = dfa.alphabet().size();
  std::vector<StateId> reachable = ReachableStates(dfa);

  // Moore's partition refinement restricted to reachable states. (Hopcroft
  // is asymptotically better; Moore is simpler and quadratic in the small
  // automata tms manipulates.)
  std::vector<int> block(static_cast<size_t>(dfa.num_states()), -1);
  for (StateId q : reachable) block[static_cast<size_t>(q)] = dfa.IsAccepting(q) ? 1 : 0;

  int num_blocks = 2;
  bool changed = true;
  while (changed) {
    changed = false;
    // Signature of each reachable state: (block, block of successors...).
    std::map<std::vector<int>, int> sig_to_block;
    std::vector<int> new_block(static_cast<size_t>(dfa.num_states()), -1);
    for (StateId q : reachable) {
      std::vector<int> sig;
      sig.reserve(sigma + 1);
      sig.push_back(block[static_cast<size_t>(q)]);
      for (size_t s = 0; s < sigma; ++s) {
        sig.push_back(
            block[static_cast<size_t>(dfa.Next(q, static_cast<Symbol>(s)))]);
      }
      auto it = sig_to_block.find(sig);
      if (it == sig_to_block.end()) {
        it = sig_to_block.emplace(std::move(sig),
                                  static_cast<int>(sig_to_block.size()))
                 .first;
      }
      new_block[static_cast<size_t>(q)] = it->second;
    }
    if (static_cast<int>(sig_to_block.size()) != num_blocks) changed = true;
    num_blocks = static_cast<int>(sig_to_block.size());
    block = std::move(new_block);
  }

  TMS_OBS_HISTOGRAM("automata.minimize.blocks", num_blocks);
  Dfa out(dfa.alphabet(), num_blocks);
  out.SetInitial(block[static_cast<size_t>(dfa.initial())]);
  for (StateId q : reachable) {
    StateId b = block[static_cast<size_t>(q)];
    out.SetAccepting(b, dfa.IsAccepting(q));
    for (size_t s = 0; s < sigma; ++s) {
      out.SetTransition(
          b, static_cast<Symbol>(s),
          block[static_cast<size_t>(dfa.Next(q, static_cast<Symbol>(s)))]);
    }
  }
  return out;
}

Dfa Product(const Dfa& a, const Dfa& b, BoolOp op) {
  TMS_CHECK(a.alphabet() == b.alphabet());
  const size_t sigma = a.alphabet().size();
  const int nb = b.num_states();
  TMS_OBS_HISTOGRAM("automata.product.states", a.num_states() * nb);
  Dfa out(a.alphabet(), a.num_states() * nb);
  auto id = [nb](StateId qa, StateId qb) {
    return static_cast<StateId>(qa * nb + qb);
  };
  out.SetInitial(id(a.initial(), b.initial()));
  for (StateId qa = 0; qa < a.num_states(); ++qa) {
    for (StateId qb = 0; qb < nb; ++qb) {
      bool acc = false;
      switch (op) {
        case BoolOp::kAnd:
          acc = a.IsAccepting(qa) && b.IsAccepting(qb);
          break;
        case BoolOp::kOr:
          acc = a.IsAccepting(qa) || b.IsAccepting(qb);
          break;
        case BoolOp::kDiff:
          acc = a.IsAccepting(qa) && !b.IsAccepting(qb);
          break;
      }
      out.SetAccepting(id(qa, qb), acc);
      for (size_t s = 0; s < sigma; ++s) {
        out.SetTransition(id(qa, qb), static_cast<Symbol>(s),
                          id(a.Next(qa, static_cast<Symbol>(s)),
                             b.Next(qb, static_cast<Symbol>(s))));
      }
    }
  }
  return out;
}

Dfa Complement(const Dfa& a) {
  Dfa out = a;
  for (StateId q = 0; q < out.num_states(); ++q) {
    out.SetAccepting(q, !a.IsAccepting(q));
  }
  return out;
}

Nfa NfaUnion(const Nfa& a, const Nfa& b) {
  TMS_CHECK(a.alphabet() == b.alphabet());
  // New initial state that mimics both initial states' outgoing behavior.
  Nfa out(a.alphabet(), a.num_states() + b.num_states() + 1);
  const StateId init = static_cast<StateId>(a.num_states() + b.num_states());
  const StateId boff = static_cast<StateId>(a.num_states());
  out.SetInitial(init);
  const size_t sigma = a.alphabet().size();
  for (StateId q = 0; q < a.num_states(); ++q) {
    out.SetAccepting(q, a.IsAccepting(q));
    for (size_t s = 0; s < sigma; ++s) {
      for (StateId q2 : a.Next(q, static_cast<Symbol>(s))) {
        out.AddTransition(q, static_cast<Symbol>(s), q2);
      }
    }
  }
  for (StateId q = 0; q < b.num_states(); ++q) {
    out.SetAccepting(boff + q, b.IsAccepting(q));
    for (size_t s = 0; s < sigma; ++s) {
      for (StateId q2 : b.Next(q, static_cast<Symbol>(s))) {
        out.AddTransition(boff + q, static_cast<Symbol>(s), boff + q2);
      }
    }
  }
  for (size_t s = 0; s < sigma; ++s) {
    for (StateId q2 : a.Next(a.initial(), static_cast<Symbol>(s))) {
      out.AddTransition(init, static_cast<Symbol>(s), q2);
    }
    for (StateId q2 : b.Next(b.initial(), static_cast<Symbol>(s))) {
      out.AddTransition(init, static_cast<Symbol>(s), boff + q2);
    }
  }
  if (a.IsAccepting(a.initial()) || b.IsAccepting(b.initial())) {
    out.SetAccepting(init, true);
  }
  return out;
}

Nfa NfaConcat(const Nfa& a, const Nfa& b) {
  TMS_CHECK(a.alphabet() == b.alphabet());
  Nfa out(a.alphabet(), a.num_states() + b.num_states());
  const StateId boff = static_cast<StateId>(a.num_states());
  const size_t sigma = a.alphabet().size();
  out.SetInitial(a.initial());
  // Copy a's transitions; whenever a transition would land in an accepting
  // state of a, also branch into b "as if b's initial had just been entered"
  // — i.e. add the edges of b's initial state from that point. Simpler and
  // ε-free: accepting states of a additionally carry b-initial's outgoing
  // edges.
  for (StateId q = 0; q < a.num_states(); ++q) {
    for (size_t s = 0; s < sigma; ++s) {
      for (StateId q2 : a.Next(q, static_cast<Symbol>(s))) {
        out.AddTransition(q, static_cast<Symbol>(s), q2);
      }
    }
  }
  for (StateId q = 0; q < b.num_states(); ++q) {
    out.SetAccepting(boff + q, b.IsAccepting(q));
    for (size_t s = 0; s < sigma; ++s) {
      for (StateId q2 : b.Next(q, static_cast<Symbol>(s))) {
        out.AddTransition(boff + q, static_cast<Symbol>(s), boff + q2);
      }
    }
  }
  for (StateId q = 0; q < a.num_states(); ++q) {
    if (!a.IsAccepting(q)) continue;
    for (size_t s = 0; s < sigma; ++s) {
      for (StateId q2 : b.Next(b.initial(), static_cast<Symbol>(s))) {
        out.AddTransition(q, static_cast<Symbol>(s), boff + q2);
      }
    }
  }
  // ε ∈ L(b) means accepting states of a are accepting in the result.
  if (b.IsAccepting(b.initial())) {
    for (StateId q = 0; q < a.num_states(); ++q) {
      if (a.IsAccepting(q)) out.SetAccepting(q, true);
    }
  }
  return out;
}

Nfa Reverse(const Nfa& a) {
  // Collapse all accepting states into a fresh initial state; the old
  // initial state becomes accepting.
  Nfa out(a.alphabet(), a.num_states() + 1);
  const StateId init = static_cast<StateId>(a.num_states());
  out.SetInitial(init);
  out.SetAccepting(a.initial(), true);
  const size_t sigma = a.alphabet().size();
  for (StateId q = 0; q < a.num_states(); ++q) {
    for (size_t s = 0; s < sigma; ++s) {
      for (StateId q2 : a.Next(q, static_cast<Symbol>(s))) {
        out.AddTransition(q2, static_cast<Symbol>(s), q);
        if (a.IsAccepting(q2)) {
          out.AddTransition(init, static_cast<Symbol>(s), q);
        }
      }
    }
  }
  // ε handling: if the original initial state is accepting, the reversal
  // also accepts ε.
  if (a.IsAccepting(a.initial())) out.SetAccepting(init, true);
  return out;
}

bool IsEmpty(const Nfa& a) {
  std::vector<bool> seen(static_cast<size_t>(a.num_states()), false);
  std::queue<StateId> work;
  seen[static_cast<size_t>(a.initial())] = true;
  work.push(a.initial());
  while (!work.empty()) {
    StateId q = work.front();
    work.pop();
    if (a.IsAccepting(q)) return false;
    for (size_t s = 0; s < a.alphabet().size(); ++s) {
      for (StateId q2 : a.Next(q, static_cast<Symbol>(s))) {
        if (!seen[static_cast<size_t>(q2)]) {
          seen[static_cast<size_t>(q2)] = true;
          work.push(q2);
        }
      }
    }
  }
  return true;
}

bool Equivalent(const Dfa& a, const Dfa& b) {
  Dfa sym_diff = Product(Product(a, b, BoolOp::kDiff),
                         Product(b, a, BoolOp::kDiff), BoolOp::kOr);
  return IsEmpty(sym_diff.ToNfa());
}

numeric::BigInt CountAcceptedStrings(const Dfa& a, int n) {
  TMS_CHECK(n >= 0);
  std::vector<numeric::BigInt> count(static_cast<size_t>(a.num_states()));
  count[static_cast<size_t>(a.initial())] = numeric::BigInt(1);
  for (int i = 0; i < n; ++i) {
    std::vector<numeric::BigInt> next(static_cast<size_t>(a.num_states()));
    for (StateId q = 0; q < a.num_states(); ++q) {
      if (count[static_cast<size_t>(q)].IsZero()) continue;
      for (size_t s = 0; s < a.alphabet().size(); ++s) {
        StateId q2 = a.Next(q, static_cast<Symbol>(s));
        next[static_cast<size_t>(q2)] += count[static_cast<size_t>(q)];
      }
    }
    count = std::move(next);
  }
  numeric::BigInt total;
  for (StateId q = 0; q < a.num_states(); ++q) {
    if (a.IsAccepting(q)) total += count[static_cast<size_t>(q)];
  }
  return total;
}

std::optional<Str> ShortestAccepted(const Nfa& a) {
  // BFS over subsets is exponential; BFS over single states suffices for
  // shortest-string existence since any accepting run visits single
  // states. Track the predecessor (state, symbol) for reconstruction.
  const int n = a.num_states();
  std::vector<int> pred_state(static_cast<size_t>(n), -1);
  std::vector<Symbol> pred_symbol(static_cast<size_t>(n), -1);
  std::vector<bool> seen(static_cast<size_t>(n), false);
  std::queue<StateId> work;
  seen[static_cast<size_t>(a.initial())] = true;
  work.push(a.initial());
  StateId goal = -1;
  if (a.IsAccepting(a.initial())) goal = a.initial();
  while (goal < 0 && !work.empty()) {
    StateId q = work.front();
    work.pop();
    for (size_t s = 0; s < a.alphabet().size() && goal < 0; ++s) {
      for (StateId q2 : a.Next(q, static_cast<Symbol>(s))) {
        if (seen[static_cast<size_t>(q2)]) continue;
        seen[static_cast<size_t>(q2)] = true;
        pred_state[static_cast<size_t>(q2)] = q;
        pred_symbol[static_cast<size_t>(q2)] = static_cast<Symbol>(s);
        if (a.IsAccepting(q2)) {
          goal = q2;
          break;
        }
        work.push(q2);
      }
    }
  }
  if (goal < 0) return std::nullopt;
  Str out;
  for (StateId q = goal; pred_state[static_cast<size_t>(q)] >= 0;
       q = pred_state[static_cast<size_t>(q)]) {
    out.push_back(pred_symbol[static_cast<size_t>(q)]);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

bool IsUniversal(const Dfa& a) { return IsEmpty(Complement(a).ToNfa()); }

namespace {

void EnumerateRec(const Nfa& a, int remaining, std::vector<StateId>* current,
                  Str* prefix, std::vector<Str>* out) {
  if (remaining == 0) {
    for (StateId q : *current) {
      if (a.IsAccepting(q)) {
        out->push_back(*prefix);
        return;
      }
    }
    return;
  }
  for (size_t s = 0; s < a.alphabet().size(); ++s) {
    std::set<StateId> next;
    for (StateId q : *current) {
      for (StateId q2 : a.Next(q, static_cast<Symbol>(s))) next.insert(q2);
    }
    if (next.empty()) continue;
    std::vector<StateId> next_vec(next.begin(), next.end());
    prefix->push_back(static_cast<Symbol>(s));
    EnumerateRec(a, remaining - 1, &next_vec, prefix, out);
    prefix->pop_back();
  }
}

}  // namespace

std::vector<Str> EnumerateAcceptedStrings(const Nfa& a, int n) {
  TMS_CHECK(n >= 0);
  std::vector<Str> out;
  std::vector<StateId> start = {a.initial()};
  Str prefix;
  EnumerateRec(a, n, &start, &prefix, &out);
  return out;
}

}  // namespace tms::automata
