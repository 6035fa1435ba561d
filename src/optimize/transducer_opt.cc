#include "optimize/transducer_opt.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "obs/obs.h"

namespace tms::optimize {

using automata::StateId;
using transducer::Edge;
using transducer::Transducer;

namespace {

int CountEdges(const Transducer& t) {
  int edges = 0;
  const int sigma = static_cast<int>(t.input_alphabet().size());
  for (StateId q = 0; q < t.num_states(); ++q) {
    for (int s = 0; s < sigma; ++s) {
      edges += static_cast<int>(t.Next(q, static_cast<Symbol>(s)).size());
    }
  }
  return edges;
}

/// Records the pass's metrics. Every counter and histogram is touched on
/// every pass — zero deltas included — so the stats-key schema does not
/// depend on whether the pass found anything to remove.
void RecordPass(const OptimizeStats& stats, int64_t elapsed_ns) {
  TMS_OBS_COUNT("optimize.passes", 1);
  TMS_OBS_COUNT("optimize.states_removed",
                stats.states_unreachable + stats.states_dead);
  TMS_OBS_COUNT("optimize.edges_removed",
                stats.edges_before - stats.edges_after);
  TMS_OBS_COUNT("optimize.states_merged", stats.states_merged);
  TMS_OBS_HISTOGRAM("optimize.optimize_ns", elapsed_ns);
  TMS_OBS_HISTOGRAM("optimize.states_before", stats.states_before);
  TMS_OBS_HISTOGRAM("optimize.states_after", stats.states_after);
  (void)stats;
  (void)elapsed_ns;
}

/// The prune, uninstrumented: MinimizeTransducer runs it as its first
/// stage and must report ONE pass, not two.
Transducer PruneImpl(const Transducer& t, OptimizeStats* stats) {
  const int n = t.num_states();
  const int sigma = static_cast<int>(t.input_alphabet().size());
  stats->states_before = n;
  stats->edges_before = CountEdges(t);

  // Reachability from the initial state.
  std::vector<bool> reachable(static_cast<size_t>(n), false);
  std::deque<StateId> frontier{t.initial()};
  reachable[static_cast<size_t>(t.initial())] = true;
  while (!frontier.empty()) {
    StateId q = frontier.front();
    frontier.pop_front();
    for (int s = 0; s < sigma; ++s) {
      for (const Edge& e : t.Next(q, static_cast<Symbol>(s))) {
        if (!reachable[static_cast<size_t>(e.target)]) {
          reachable[static_cast<size_t>(e.target)] = true;
          frontier.push_back(e.target);
        }
      }
    }
  }

  // Co-accessibility: a backward search from the accepting states over
  // the reversed edges.
  std::vector<std::vector<StateId>> sources(static_cast<size_t>(n));
  for (StateId q = 0; q < n; ++q) {
    for (int s = 0; s < sigma; ++s) {
      for (const Edge& e : t.Next(q, static_cast<Symbol>(s))) {
        sources[static_cast<size_t>(e.target)].push_back(q);
      }
    }
  }
  std::vector<bool> coaccessible(static_cast<size_t>(n), false);
  for (StateId q = 0; q < n; ++q) {
    if (t.IsAccepting(q)) {
      coaccessible[static_cast<size_t>(q)] = true;
      frontier.push_back(q);
    }
  }
  while (!frontier.empty()) {
    StateId q = frontier.front();
    frontier.pop_front();
    for (StateId p : sources[static_cast<size_t>(q)]) {
      if (!coaccessible[static_cast<size_t>(p)]) {
        coaccessible[static_cast<size_t>(p)] = true;
        frontier.push_back(p);
      }
    }
  }

  // Keep reachable ∧ co-accessible, renumbered monotonically so the
  // ascending-cell backtrack scan order is preserved.
  std::vector<StateId> new_id(static_cast<size_t>(n), -1);
  int kept = 0;
  for (StateId q = 0; q < n; ++q) {
    const bool live = reachable[static_cast<size_t>(q)] &&
                      coaccessible[static_cast<size_t>(q)];
    if (live) {
      new_id[static_cast<size_t>(q)] = kept++;
    } else if (!reachable[static_cast<size_t>(q)]) {
      ++stats->states_unreachable;
    } else {
      ++stats->states_dead;
    }
  }

  if (kept == 0) {
    // Empty language (the initial state itself is dead). Canonical empty
    // transducer: one non-accepting state, no edges.
    Transducer out(t.input_alphabet(), t.output_alphabet(), 1);
    stats->states_after = 1;
    stats->edges_after = 0;
    return out;
  }

  Transducer out(t.input_alphabet(), t.output_alphabet(), kept);
  out.SetInitial(new_id[static_cast<size_t>(t.initial())]);
  for (StateId q = 0; q < n; ++q) {
    if (new_id[static_cast<size_t>(q)] < 0) continue;
    out.SetAccepting(new_id[static_cast<size_t>(q)], t.IsAccepting(q));
    for (int s = 0; s < sigma; ++s) {
      for (const Edge& e : t.Next(q, static_cast<Symbol>(s))) {
        if (new_id[static_cast<size_t>(e.target)] < 0) continue;  // dead arc
        TMS_CHECK(out.AddTransition(new_id[static_cast<size_t>(q)],
                                    static_cast<Symbol>(s),
                                    new_id[static_cast<size_t>(e.target)],
                                    e.output)
                      .ok());
      }
    }
  }
  stats->states_after = out.num_states();
  stats->edges_after = CountEdges(out);
  TMS_CHECK(out.Validate().ok());
  return out;
}

/// The bisimulation quotient of an already-pruned transducer. `split`
/// lists classes forced into singletons by emission conflicts (see
/// MinimizeTransducer).
struct Quotient {
  std::vector<int> class_of;           // pruned state -> class id
  std::vector<std::set<int>> classes;  // class id -> members
};

Quotient RefinePartition(const Transducer& t,
                         const std::set<int>& singletons) {
  const int n = t.num_states();
  const int sigma = static_cast<int>(t.input_alphabet().size());
  Quotient q;
  q.class_of.assign(static_cast<size_t>(n), 0);
  // Initial partition: accepting vs non-accepting, with conflict-forced
  // states peeled into singletons up front.
  {
    std::map<std::tuple<bool, bool, int>, int> cls;
    for (StateId s = 0; s < n; ++s) {
      const bool single = singletons.count(static_cast<int>(s)) > 0;
      auto key = std::make_tuple(t.IsAccepting(s), single,
                                 single ? static_cast<int>(s) : -1);
      auto [it, inserted] = cls.emplace(key, static_cast<int>(cls.size()));
      q.class_of[static_cast<size_t>(s)] = it->second;
    }
  }
  // Refine until stable: the signature of a state is its current class
  // plus the set of (symbol, output, class(target)) triples. Outputs are
  // part of the signature, so merged states emit identically edge-for-
  // edge modulo target class. Grouping by (old class, signature) only
  // ever refines the partition, so it is stable exactly when the class
  // count stops growing.
  size_t num_classes =
      q.class_of.empty()
          ? 0
          : static_cast<size_t>(*std::max_element(q.class_of.begin(),
                                                  q.class_of.end())) +
                1;
  for (;;) {
    std::map<std::pair<int, std::set<std::tuple<int, Str, int>>>, int> next;
    std::vector<int> next_class(static_cast<size_t>(n), 0);
    for (StateId s = 0; s < n; ++s) {
      std::set<std::tuple<int, Str, int>> sig;
      for (int sym = 0; sym < sigma; ++sym) {
        for (const Edge& e : t.Next(s, static_cast<Symbol>(sym))) {
          sig.emplace(sym, e.output,
                      q.class_of[static_cast<size_t>(e.target)]);
        }
      }
      auto key = std::make_pair(q.class_of[static_cast<size_t>(s)],
                                std::move(sig));
      auto [it, inserted] = next.emplace(std::move(key),
                                         static_cast<int>(next.size()));
      next_class[static_cast<size_t>(s)] = it->second;
    }
    const size_t next_count = next.size();
    q.class_of = std::move(next_class);
    if (next_count == num_classes) break;
    num_classes = next_count;
  }
  q.classes.assign(num_classes, {});
  for (StateId s = 0; s < n; ++s) {
    q.classes[static_cast<size_t>(q.class_of[static_cast<size_t>(s)])].insert(
        static_cast<int>(s));
  }
  return q;
}

}  // namespace

Transducer PruneTransducer(const Transducer& t, OptimizeStats* stats) {
  Stopwatch sw;
  OptimizeStats local;
  Transducer out = PruneImpl(t, &local);
  RecordPass(local, sw.ElapsedNanos());
  if (stats != nullptr) *stats = local;
  return out;
}

Transducer MinimizeTransducer(const Transducer& t, OptimizeStats* stats) {
  Stopwatch sw;
  OptimizeStats local;
  Transducer pruned = PruneImpl(t, &local);
  const int n = pruned.num_states();
  const int sigma = static_cast<int>(pruned.input_alphabet().size());

  // Bisimulation quotient with an emission-conflict-split loop. A merge of
  // targets q3 ~ q5 is invalid when some source has edges to both on the
  // same symbol with DIFFERENT outputs — the quotient would need two
  // outputs on one (class, symbol, class) triple, which deterministic
  // emission forbids. On conflict the offending target class is split into
  // singletons and refinement reruns; the partition strictly refines each
  // round, so the loop terminates (worst case: all singletons = no merge).
  std::set<int> singletons;
  Quotient q;
  for (;;) {
    q = RefinePartition(pruned, singletons);
    std::set<int> conflicted;
    for (StateId s = 0; s < n; ++s) {
      for (int sym = 0; sym < sigma; ++sym) {
        std::map<int, const Str*> out_by_class;
        for (const Edge& e : pruned.Next(s, static_cast<Symbol>(sym))) {
          const int tc = q.class_of[static_cast<size_t>(e.target)];
          auto [it, inserted] = out_by_class.emplace(tc, &e.output);
          if (!inserted && !(*it->second == e.output)) conflicted.insert(tc);
        }
      }
    }
    if (conflicted.empty()) break;
    for (int c : conflicted) {
      for (int member : q.classes[static_cast<size_t>(c)]) {
        singletons.insert(member);
      }
    }
  }

  // Stable renumbering: classes ordered by smallest member (in the pruned
  // numbering, which is itself monotone in the input numbering).
  std::vector<int> order(q.classes.size());
  for (size_t c = 0; c < q.classes.size(); ++c) order[c] = static_cast<int>(c);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return *q.classes[static_cast<size_t>(a)].begin() <
           *q.classes[static_cast<size_t>(b)].begin();
  });
  std::vector<StateId> new_id(q.classes.size(), -1);
  for (size_t rank = 0; rank < order.size(); ++rank) {
    new_id[static_cast<size_t>(order[rank])] = static_cast<StateId>(rank);
  }

  Transducer out(pruned.input_alphabet(), pruned.output_alphabet(),
                 static_cast<int>(q.classes.size()));
  out.SetInitial(new_id[static_cast<size_t>(
      q.class_of[static_cast<size_t>(pruned.initial())])]);
  for (size_t c = 0; c < q.classes.size(); ++c) {
    const StateId rep = static_cast<StateId>(*q.classes[c].begin());
    out.SetAccepting(new_id[c], pruned.IsAccepting(rep));
    // Merged states share their (symbol, output, target-class) edge sets,
    // so the representative's edges are the class's edges. Duplicate adds
    // of the same triple+output are idempotent in AddTransition.
    for (int sym = 0; sym < sigma; ++sym) {
      for (const Edge& e : pruned.Next(rep, static_cast<Symbol>(sym))) {
        TMS_CHECK(out.AddTransition(
                         new_id[c], static_cast<Symbol>(sym),
                         new_id[static_cast<size_t>(
                             q.class_of[static_cast<size_t>(e.target)])],
                         e.output)
                      .ok());
      }
    }
  }
  TMS_CHECK(out.Validate().ok());

  local.states_merged = n - static_cast<int>(q.classes.size());
  local.states_after = out.num_states();
  local.edges_after = CountEdges(out);
  RecordPass(local, sw.ElapsedNanos());
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace tms::optimize
