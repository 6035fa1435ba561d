#include "optimize/transducer_opt.h"

#include <deque>
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
  TMS_OBS_HISTOGRAM("optimize.optimize_ns", elapsed_ns);
  TMS_OBS_HISTOGRAM("optimize.states_before", stats.states_before);
  TMS_OBS_HISTOGRAM("optimize.states_after", stats.states_after);
  (void)stats;
  (void)elapsed_ns;
}

/// The prune, uninstrumented, so that PruneTransducer records one pass
/// whichever of its two returns it takes.
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

}  // namespace

Transducer PruneTransducer(const Transducer& t, OptimizeStats* stats) {
  Stopwatch sw;
  OptimizeStats local;
  Transducer out = PruneImpl(t, &local);
  RecordPass(local, sw.ElapsedNanos());
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace tms::optimize
