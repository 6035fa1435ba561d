#include "query/column_graph.h"

#include <algorithm>

namespace tms::query {

kernels::Arena& ColumnDpArena() {
  static thread_local kernels::Arena arena;
  return arena;
}

ColumnGraph ColumnGraph::Build(const transducer::Transducer& t,
                               const ranking::OutputConstraint& c,
                               kernels::Arena& arena) {
  const size_t sigma = t.input_alphabet().size();
  const size_t nq = static_cast<size_t>(t.num_states());
  // Pair (q, k) has id q·nk + k, k the state of c.ToDfa(): prefix
  // progress 0..w, then free, then dead — ComposeWithOutputDfa's numbering.
  const int w = static_cast<int>(c.prefix.size());
  const int free_k = w + 1;
  const int dead_k = w + 2;
  const size_t nk = static_cast<size_t>(w) + 3;
  const size_t pairs = nq * nk;
  const size_t delta = t.output_alphabet().size();
  uint8_t* excluded = arena.Alloc<uint8_t>(delta);
  std::fill(excluded, excluded + delta, uint8_t{0});
  for (Symbol x : c.excluded_next) excluded[static_cast<size_t>(x)] = 1;
  // The constraint DFA run over one emission from progress k.
  auto advance = [&](int k, const Str& o) {
    for (Symbol d : o) {
      if (k == free_k || k == dead_k) break;  // both absorb
      if (k == w) {
        k = excluded[static_cast<size_t>(d)] ? dead_k : free_k;
      } else {
        k = d == c.prefix[static_cast<size_t>(k)] ? k + 1 : dead_k;
      }
    }
    return k;
  };
  auto accepts = [&](size_t p) {
    const int k = static_cast<int>(p % nk);
    return t.IsAccepting(static_cast<automata::StateId>(p / nk)) &&
           (k == free_k || (k == w && c.allow_equal));
  };

  // Forward: the pairs reachable from (initial, 0), recording every edge
  // crossed. Dead pairs absorb and never accept, so none is live and the
  // search does not enter them. mark[p]: -1 unreached, 0 reached, 1 also
  // co-accessible (below), then the live column.
  size_t query_edges = 0;
  for (size_t q = 0; q < nq; ++q) {
    for (size_t s = 0; s < sigma; ++s) {
      query_edges += t.Next(static_cast<automata::StateId>(q),
                            static_cast<Symbol>(s))
                         .size();
    }
  }
  int32_t* mark = arena.Alloc<int32_t>(pairs);
  std::fill(mark, mark + pairs, -1);
  int32_t* queue = arena.Alloc<int32_t>(pairs);
  int32_t* esrc = arena.Alloc<int32_t>(query_edges * nk);
  int32_t* etgt = arena.Alloc<int32_t>(query_edges * nk);
  size_t reached = 0;
  size_t crossed = 0;
  const size_t start = static_cast<size_t>(t.initial()) * nk;
  mark[start] = 0;
  queue[reached++] = static_cast<int32_t>(start);
  for (size_t head = 0; head < reached; ++head) {
    const size_t p = static_cast<size_t>(queue[head]);
    const int k = static_cast<int>(p % nk);
    for (size_t s = 0; s < sigma; ++s) {
      for (const transducer::Edge& e :
           t.Next(static_cast<automata::StateId>(p / nk),
                  static_cast<Symbol>(s))) {
        const int k2 = advance(k, e.output);
        if (k2 == dead_k) continue;
        const size_t p2 = static_cast<size_t>(e.target) * nk +
                          static_cast<size_t>(k2);
        esrc[crossed] = static_cast<int32_t>(p);
        etgt[crossed++] = static_cast<int32_t>(p2);
        if (mark[p2] < 0) {
          mark[p2] = 0;
          queue[reached++] = static_cast<int32_t>(p2);
        }
      }
    }
  }

  // Backward: over the crossed edges reversed (CSR by target), from the
  // reachable accepting pairs.
  int32_t* roff = arena.Alloc<int32_t>(pairs + 1);
  std::fill(roff, roff + pairs + 1, 0);
  for (size_t e = 0; e < crossed; ++e) {
    ++roff[static_cast<size_t>(etgt[e]) + 1];
  }
  for (size_t p = 0; p < pairs; ++p) roff[p + 1] += roff[p];
  int32_t* fill = arena.Alloc<int32_t>(pairs);
  std::copy(roff, roff + pairs, fill);
  int32_t* rsrc = arena.Alloc<int32_t>(crossed);
  for (size_t e = 0; e < crossed; ++e) {
    rsrc[fill[static_cast<size_t>(etgt[e])]++] = esrc[e];
  }
  int32_t* stack = arena.Alloc<int32_t>(reached);
  size_t top = 0;
  for (size_t i = 0; i < reached; ++i) {
    const size_t p = static_cast<size_t>(queue[i]);
    if (accepts(p)) {
      mark[p] = 1;
      stack[top++] = static_cast<int32_t>(p);
    }
  }
  while (top > 0) {
    const size_t p = static_cast<size_t>(stack[--top]);
    for (int32_t r = roff[p]; r < roff[p + 1]; ++r) {
      const size_t src = static_cast<size_t>(rsrc[r]);
      if (mark[src] == 0) {
        mark[src] = 1;
        stack[top++] = static_cast<int32_t>(src);
      }
    }
  }

  // Number the live pairs in ascending id: PruneTransducer's monotone
  // renumbering of the product.
  int32_t* pair_of = arena.Alloc<int32_t>(reached);
  size_t live = 0;
  for (size_t p = 0; p < pairs; ++p) {
    if (mark[p] == 1) {
      pair_of[live] = static_cast<int32_t>(p);
      mark[p] = static_cast<int32_t>(live++);
    } else {
      mark[p] = -1;
    }
  }
  ColumnGraph g;
  if (live == 0) return g;

  // The (s2, live column) CSR over the query's edges, each run through
  // the constraint, keeping the ones between live pairs in Next's order.
  // Every such edge was crossed once above, so `crossed` bounds them.
  const size_t cells = sigma * live;
  int32_t* off = arena.Alloc<int32_t>(cells + 1);
  int32_t* tgt = arena.Alloc<int32_t>(crossed);
  const Str** out = arena.Alloc<const Str*>(crossed);
  size_t pos = 0;
  for (size_t s2 = 0; s2 < sigma; ++s2) {
    for (size_t col = 0; col < live; ++col) {
      off[s2 * live + col] = static_cast<int32_t>(pos);
      const size_t p = static_cast<size_t>(pair_of[col]);
      const int k = static_cast<int>(p % nk);
      for (const transducer::Edge& e :
           t.Next(static_cast<automata::StateId>(p / nk),
                  static_cast<Symbol>(s2))) {
        const int k2 = advance(k, e.output);
        if (k2 == dead_k) continue;
        const int32_t col2 = mark[static_cast<size_t>(e.target) * nk +
                                 static_cast<size_t>(k2)];
        if (col2 < 0) continue;
        tgt[pos] = col2;
        out[pos++] = &e.output;
      }
    }
  }
  off[cells] = static_cast<int32_t>(pos);
  uint8_t* accepting = arena.Alloc<uint8_t>(live);
  for (size_t col = 0; col < live; ++col) {
    accepting[col] = accepts(static_cast<size_t>(pair_of[col])) ? 1 : 0;
  }
  g.cols = live;
  g.initial = static_cast<size_t>(mark[start]);
  g.accepting = accepting;
  g.off = off;
  g.tgt = tgt;
  g.out = out;
  return g;
}

}  // namespace tms::query
