#include "transducer/composition_cache.h"

#include <deque>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "exec/fault.h"
#include "obs/obs.h"
#include "optimize/transducer_opt.h"

namespace tms::transducer {
namespace {

std::string PrefixKey(const Str& prefix) {
  std::string key = "w:";
  for (Symbol s : prefix) {
    key += std::to_string(s);
    key += ',';
  }
  return key;
}

std::string ConstraintKey(const ranking::OutputConstraint& c) {
  std::string key = "c:";
  for (Symbol s : c.prefix) {
    key += std::to_string(s);
    key += ',';
  }
  key += '|';
  for (Symbol s : c.excluded_next) {  // std::set: already sorted
    key += std::to_string(s);
    key += ',';
  }
  key += c.allow_equal ? "|1" : "|0";
  return key;
}

size_t EstimateTransducerBytes(const Transducer& t) {
  size_t bytes = sizeof(Transducer) +
                 static_cast<size_t>(t.num_states()) *
                     (1 + t.input_alphabet().size() * sizeof(std::vector<Edge>));
  for (StateId q = 0; q < t.num_states(); ++q) {
    for (size_t s = 0; s < t.input_alphabet().size(); ++s) {
      for (const Edge& e : t.Next(q, static_cast<Symbol>(s))) {
        bytes += sizeof(Edge) + e.output.size() * sizeof(Symbol);
      }
    }
  }
  return bytes;
}

}  // namespace

// The prefix-skeleton product: ComposeWithOutputDfa against the constraint
// DFA for (prefix, X = ∅, eq = true), with each edge carrying the output
// symbol it consumes at position |w| (the only place X acts). Edges are
// stored in the exact order the direct composition inserts them, so
// Specialize emits the surviving edges in the direct composition's
// AddTransition order.
struct CompositionCache::Base {
  enum Accept : uint8_t { kNever = 0, kAlways = 1, kIfEqual = 2 };

  struct ProductEdge {
    StateId source;
    Symbol symbol;
    StateId target;    // target under X = ∅
    Symbol crossing;   // output symbol consumed at position |w|, or -1
    Str output;
  };

  int nc = 0;          // constraint-DFA states: |w| + 3
  int num_states = 0;  // t.num_states() * nc
  StateId initial = 0;
  std::vector<uint8_t> accept;     // per product state
  std::vector<ProductEdge> edges;  // direct-compose insertion order
  size_t bytes = 0;
};

CompositionCache::CompositionCache(const Transducer& t, size_t max_bytes)
    : t_(optimize::PruneTransducer(t)), max_bytes_(max_bytes) {}

std::shared_ptr<const CompositionCache::Base> CompositionCache::BuildBase(
    const Str& prefix) const {
  const Transducer& t = t_;
  const int w = static_cast<int>(prefix.size());
  auto base = std::make_shared<Base>();
  base->nc = w + 3;
  const int nc = base->nc;
  const int free_c = w + 1;
  const int dead_c = w + 2;
  base->num_states = t.num_states() * nc;
  base->initial = static_cast<StateId>(t.initial() * nc);
  base->accept.assign(static_cast<size_t>(base->num_states), Base::kNever);
  for (StateId q = 0; q < t.num_states(); ++q) {
    if (!t.IsAccepting(q)) continue;
    base->accept[static_cast<size_t>(q * nc + w)] = Base::kIfEqual;
    base->accept[static_cast<size_t>(q * nc + free_c)] = Base::kAlways;
  }
  for (StateId q = 0; q < t.num_states(); ++q) {
    for (int c = 0; c < nc; ++c) {
      for (size_t s = 0; s < t.input_alphabet().size(); ++s) {
        for (const Edge& e : t.Next(q, static_cast<Symbol>(s))) {
          // Run the emission through the X = ∅ constraint DFA by hand,
          // recording the symbol consumed at progress |w| (after which the
          // DFA is in `free` and can never return).
          int cc = c;
          Symbol crossing = -1;
          for (Symbol d : e.output) {
            if (cc == dead_c || cc == free_c) continue;
            if (cc == w) {
              crossing = d;
              cc = free_c;
              continue;
            }
            cc = (d == prefix[static_cast<size_t>(cc)]) ? cc + 1 : dead_c;
          }
          base->edges.push_back(Base::ProductEdge{
              static_cast<StateId>(q * nc + c), static_cast<Symbol>(s),
              static_cast<StateId>(e.target * nc + cc), crossing, e.output});
          base->bytes +=
              sizeof(Base::ProductEdge) + e.output.size() * sizeof(Symbol);
        }
      }
    }
  }
  base->bytes += sizeof(Base) + base->accept.size();
  return base;
}

std::shared_ptr<const Transducer> CompositionCache::Specialize(
    const Base& base, const ranking::OutputConstraint& constraint) const {
  Stopwatch sw;
  const int n = base.num_states;
  const StateId dead_c = static_cast<StateId>(base.nc - 1);
  const size_t ne = base.edges.size();

  // Per-constraint resolved target of every base edge: crossing symbols
  // in the excluded set divert into the dead column, exactly where the
  // constraint DFA of ComposeWithOutputConstraint sends them.
  std::vector<StateId> target(ne);
  for (size_t i = 0; i < ne; ++i) {
    const Base::ProductEdge& e = base.edges[i];
    StateId tgt = e.target;
    if (e.crossing >= 0 &&
        constraint.excluded_next.find(e.crossing) !=
            constraint.excluded_next.end()) {
      tgt = (tgt / base.nc) * base.nc + dead_c;
    }
    target[i] = tgt;
  }

  // CSR out-edge index by source (counting sort, stable: within a source
  // the base insertion order — the AddTransition order of the direct
  // composition — is preserved).
  std::vector<int> off(static_cast<size_t>(n) + 1, 0);
  for (const Base::ProductEdge& e : base.edges) {
    ++off[static_cast<size_t>(e.source) + 1];
  }
  for (int q = 0; q < n; ++q) off[static_cast<size_t>(q) + 1] += off[static_cast<size_t>(q)];
  std::vector<int> by_source(ne);
  {
    std::vector<int> cursor(off.begin(), off.end() - 1);
    for (size_t i = 0; i < ne; ++i) {
      by_source[static_cast<size_t>(
          cursor[static_cast<size_t>(base.edges[i].source)]++)] =
          static_cast<int>(i);
    }
  }

  // Forward reachability from the initial product state over the resolved
  // edges (dead-column states included, so the unreachable/dead stats
  // split matches what PruneTransducer reports on the full product).
  std::vector<bool> reachable(static_cast<size_t>(n), false);
  std::deque<StateId> frontier{base.initial};
  reachable[static_cast<size_t>(base.initial)] = true;
  while (!frontier.empty()) {
    const StateId q = frontier.front();
    frontier.pop_front();
    for (int c = off[static_cast<size_t>(q)]; c < off[static_cast<size_t>(q) + 1]; ++c) {
      const StateId tgt = target[static_cast<size_t>(by_source[static_cast<size_t>(c)])];
      if (!reachable[static_cast<size_t>(tgt)]) {
        reachable[static_cast<size_t>(tgt)] = true;
        frontier.push_back(tgt);
      }
    }
  }

  // Per-constraint acceptance (the allow_equal resolution of the
  // constraint DFA's accepting set).
  auto accepts = [&](size_t s) {
    return base.accept[s] == Base::kAlways ||
           (base.accept[s] == Base::kIfEqual && constraint.allow_equal);
  };

  // Co-accessibility: reverse CSR over the resolved targets, BFS from the
  // accepting states.
  std::vector<int> roff(static_cast<size_t>(n) + 1, 0);
  for (size_t i = 0; i < ne; ++i) ++roff[static_cast<size_t>(target[i]) + 1];
  for (int q = 0; q < n; ++q) roff[static_cast<size_t>(q) + 1] += roff[static_cast<size_t>(q)];
  std::vector<int> by_target(ne);
  {
    std::vector<int> cursor(roff.begin(), roff.end() - 1);
    for (size_t i = 0; i < ne; ++i) {
      by_target[static_cast<size_t>(
          cursor[static_cast<size_t>(target[i])]++)] = static_cast<int>(i);
    }
  }
  std::vector<bool> coacc(static_cast<size_t>(n), false);
  for (size_t s = 0; s < static_cast<size_t>(n); ++s) {
    if (accepts(s)) {
      coacc[s] = true;
      frontier.push_back(static_cast<StateId>(s));
    }
  }
  while (!frontier.empty()) {
    const StateId q = frontier.front();
    frontier.pop_front();
    for (int c = roff[static_cast<size_t>(q)]; c < roff[static_cast<size_t>(q) + 1]; ++c) {
      const StateId src =
          base.edges[static_cast<size_t>(by_target[static_cast<size_t>(c)])].source;
      if (!coacc[static_cast<size_t>(src)]) {
        coacc[static_cast<size_t>(src)] = true;
        frontier.push_back(src);
      }
    }
  }

  // Keep reachable ∧ co-accessible, renumbered monotonically — the exact
  // cut and numbering of optimize::PruneTransducer, whose byte-exactness
  // argument (docs/OPTIMIZE.md) this path inherits.
  std::vector<StateId> new_id(static_cast<size_t>(n), -1);
  int kept = 0;
  optimize::OptimizeStats st;
  st.states_before = n;
  st.edges_before = static_cast<int>(ne);
  for (size_t q = 0; q < static_cast<size_t>(n); ++q) {
    if (reachable[q] && coacc[q]) {
      new_id[q] = kept++;
    } else if (!reachable[q]) {
      ++st.states_unreachable;
    } else {
      ++st.states_dead;
    }
  }

  std::shared_ptr<Transducer> out;
  if (kept == 0) {
    // Canonical empty transducer, as PruneTransducer builds it: one
    // non-accepting state, no edges.
    out = std::make_shared<Transducer>(t_.input_alphabet(),
                                       t_.output_alphabet(), 1);
    st.states_after = 1;
    st.edges_after = 0;
  } else {
    out = std::make_shared<Transducer>(t_.input_alphabet(),
                                       t_.output_alphabet(), kept);
    out->SetInitial(new_id[static_cast<size_t>(base.initial)]);
    int emitted = 0;
    for (size_t q = 0; q < static_cast<size_t>(n); ++q) {
      if (new_id[q] < 0) continue;
      out->SetAccepting(new_id[q], accepts(q));
      for (int c = off[q]; c < off[q + 1]; ++c) {
        const size_t i = static_cast<size_t>(by_source[static_cast<size_t>(c)]);
        if (new_id[static_cast<size_t>(target[i])] < 0) continue;  // dead arc
        const Base::ProductEdge& e = base.edges[i];
        Status status = out->AddTransition(
            new_id[q], e.symbol, new_id[static_cast<size_t>(target[i])],
            e.output);
        TMS_CHECK(status.ok());
        ++emitted;
      }
    }
    st.states_after = kept;
    st.edges_after = emitted;
  }
  optimize::RecordPrunePass(st, sw.ElapsedNanos());
  TMS_OBS_COUNT("optimize.product_states_pruned",
                st.states_unreachable + st.states_dead);
  return out;
}

std::shared_ptr<const CompositionCache::Base> CompositionCache::GetBase(
    const Str& prefix) {
  std::string key = PrefixKey(prefix);
  {
    std::lock_guard<std::mutex> lock(lock_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      TouchLocked(it->second);
      ++stats_.hits;
      TMS_OBS_COUNT("cache.hits", 1);
      return it->second.base;
    }
    ++stats_.misses;
    TMS_OBS_COUNT("cache.misses", 1);
  }
  std::shared_ptr<const Base> base = BuildBase(prefix);
  // Simulated allocation failure (exec/fault.h): the build is served
  // uncached and the cache stays consistent — graceful degradation, not
  // an error.
  if (TMS_FAULT_POINT("cache.insert")) return base;
  std::lock_guard<std::mutex> lock(lock_);
  auto it = map_.find(key);
  if (it != map_.end()) return it->second.base;  // lost a build race
  Slot slot;
  slot.base = base;
  slot.bytes = base->bytes;
  InsertLocked(std::move(key), std::move(slot));
  return base;
}

std::shared_ptr<const Transducer> CompositionCache::Compose(
    const ranking::OutputConstraint& constraint) {
  std::string key = ConstraintKey(constraint);
  {
    std::lock_guard<std::mutex> lock(lock_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      TouchLocked(it->second);
      ++stats_.hits;
      TMS_OBS_COUNT("cache.hits", 1);
      return it->second.spec;
    }
    ++stats_.misses;
    TMS_OBS_COUNT("cache.misses", 1);
  }
  std::shared_ptr<const Base> base = GetBase(constraint.prefix);
  std::shared_ptr<const Transducer> spec = Specialize(*base, constraint);
  if (TMS_FAULT_POINT("cache.insert")) return spec;  // see GetBase
  std::lock_guard<std::mutex> lock(lock_);
  auto it = map_.find(key);
  if (it != map_.end()) return it->second.spec;  // lost a build race
  Slot slot;
  slot.spec = spec;
  slot.bytes = EstimateTransducerBytes(*spec);
  InsertLocked(std::move(key), std::move(slot));
  return spec;
}

CompositionCache::Stats CompositionCache::stats() const {
  std::lock_guard<std::mutex> lock(lock_);
  return stats_;
}

void CompositionCache::TouchLocked(Slot& slot) {
  lru_.splice(lru_.begin(), lru_, slot.lru_it);
}

void CompositionCache::InsertLocked(std::string key, Slot slot) {
  lru_.push_front(key);
  slot.lru_it = lru_.begin();
  stats_.bytes += slot.bytes;
  map_.emplace(std::move(key), std::move(slot));
  // Evict from the cold end until the budget holds; the entry just
  // inserted (at the front) is never the victim while anything older
  // remains, and is allowed to stay even if it alone exceeds the budget.
  while (stats_.bytes > max_bytes_ && lru_.size() > 1) {
    auto victim = map_.find(lru_.back());
    TMS_CHECK(victim != map_.end());
    stats_.bytes -= victim->second.bytes;
    map_.erase(victim);
    lru_.pop_back();
    ++stats_.evictions;
    TMS_OBS_COUNT("cache.evictions", 1);
  }
  TMS_OBS_GAUGE_SET("cache.bytes", static_cast<int64_t>(stats_.bytes));
}

}  // namespace tms::transducer
