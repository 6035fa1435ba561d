#include "query/confidence_exact.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "query/subset_dp.h"

namespace tms::query {
namespace {

using internal::AdvanceExact;
using internal::DoubleProb;
using internal::RationalProb;

template <typename P>
StatusOr<typename P::Value> ExactImpl(const markov::MarkovSequence& mu,
                                      const transducer::Transducer& t,
                                      const Str& o,
                                      ExactConfidenceStats* stats,
                                      int64_t max_layer_width) {
  if (!(mu.nodes() == t.input_alphabet())) {
    return Status::InvalidArgument(
        "Markov sequence node set and transducer input alphabet differ");
  }
  using Value = typename P::Value;
  const int n = mu.length();
  const size_t sigma = mu.nodes().size();
  const size_t jdim = o.size() + 1;

  // Number the (q, j) pairs reachable from (initial, 0) densely, in
  // breadth-first order: every pair-set of the DP is a subset of them, so
  // a pair-set is a bitset of `words` words over these numbers.
  std::vector<int32_t> pair_index(static_cast<size_t>(t.num_states()) * jdim,
                                  -1);
  std::vector<size_t> pairs;  // packed q * jdim + j, by number
  auto for_each_step = [&](size_t pair, size_t s2, auto&& visit) {
    const size_t packed = pairs[pair];
    const int j = static_cast<int>(packed % jdim);
    for (const transducer::Edge& e :
         t.Next(static_cast<automata::StateId>(packed / jdim),
                static_cast<Symbol>(s2))) {
      const int j2 = AdvanceExact(o, j, e.output);
      if (j2 >= 0) {
        visit(static_cast<size_t>(e.target) * jdim + static_cast<size_t>(j2));
      }
    }
  };
  auto number = [&](size_t packed) {
    if (pair_index[packed] >= 0) return;
    pair_index[packed] = static_cast<int32_t>(pairs.size());
    pairs.push_back(packed);
  };
  number(static_cast<size_t>(t.initial()) * jdim);
  for (size_t p = 0; p < pairs.size(); ++p) {
    for (size_t s2 = 0; s2 < sigma; ++s2) for_each_step(p, s2, number);
  }
  const size_t words = (pairs.size() + 63) / 64;
  auto set_bit = [](uint64_t* set, size_t bit) {
    set[bit / 64] |= uint64_t{1} << (bit % 64);
  };

  // succ[(p * σ + s2) * words ..]: the pairs that input symbol s2 takes
  // pair p to, tabulated once — the set step below only ORs these rows.
  std::vector<uint64_t> succ(pairs.size() * sigma * words, 0);
  for (size_t p = 0; p < pairs.size(); ++p) {
    for (size_t s2 = 0; s2 < sigma; ++s2) {
      uint64_t* row = &succ[(p * sigma + s2) * words];
      for_each_step(p, s2, [&](size_t packed) {
        set_bit(row, static_cast<size_t>(pair_index[packed]));
      });
    }
  }
  std::vector<uint64_t> accept(words, 0);
  for (size_t p = 0; p < pairs.size(); ++p) {
    if (pairs[p] % jdim == o.size() &&
        t.IsAccepting(static_cast<automata::StateId>(pairs[p] / jdim))) {
      set_bit(accept.data(), p);
    }
  }

  // Writes the successor pair-sets of `set` on every input of `row` into
  // step[s2 * words ..]: one pass over the set's pairs, each OR-ing its
  // tabulated successor bitsets on those inputs.
  std::vector<uint64_t> step(sigma * words);
  auto step_sets = [&](const uint64_t* set, auto row) {
    for (const auto& [s2, p] : row) std::fill_n(&step[s2 * words], words, 0);
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t rest = set[w]; rest != 0; rest &= rest - 1) {
        const size_t pair =
            w * 64 + static_cast<size_t>(__builtin_ctzll(rest));
        const uint64_t* from = &succ[pair * sigma * words];
        for (const auto& [s2, p] : row) {
          for (size_t v = s2 * words; v < (s2 + 1) * words; ++v) {
            step[v] |= from[v];
          }
        }
      }
    }
  };
  auto nonempty = [&](const uint64_t* set) {
    uint64_t any = 0;
    for (size_t w = 0; w < words; ++w) any |= set[w];
    return any != 0;
  };

  ExactConfidenceStats local_stats;
  auto account_layer = [&](const internal::SubsetLayer<Value>& layer) {
    const int64_t width = layer.width();
    local_stats.max_layer_width =
        std::max(local_stats.max_layer_width, width);
    local_stats.total_entries += width;
    if (max_layer_width > 0 && width > max_layer_width) {
      return Status::OutOfRange(
          "ConfidenceExact exceeded the layer-width budget (" +
          std::to_string(width) + " > " + std::to_string(max_layer_width) +
          "); the instance exhibits the FP^#P blowup");
    }
    return Status::Ok();
  };

  // cur : (node, pair-set) -> probability mass of the world prefixes
  // ending in that node whose runs reach exactly that pair-set.
  internal::SubsetLayer<Value> cur(sigma, words);
  internal::SubsetLayer<Value> next(sigma, words);
  for (size_t s = 0; s < sigma; ++s) {
    Value p0 = P::Initial(mu, static_cast<Symbol>(s));
    if (P::IsZero(p0)) continue;
    // Pair 0 is (initial, 0); its row on s is the first layer's set.
    const uint64_t* set = &succ[s * words];
    if (nonempty(set)) cur.Add(s, set, std::move(p0));
  }
  Status budget = account_layer(cur);

  internal::SuccessorRows<P> rows(sigma);
  for (int i = 2; budget.ok() && i <= n; ++i) {
    rows.Gather(mu, i, cur);
    next.Clear();
    cur.ForEachCell([&](size_t s, const uint64_t* set, const Value& mass) {
      const auto row = rows.row(s);
      step_sets(set, row);
      for (const auto& [s2, p] : row) {
        const uint64_t* set2 = &step[s2 * words];
        if (nonempty(set2)) next.Add(s2, set2, mass * p);
      }
    });
    std::swap(cur, next);
    budget = account_layer(cur);
  }
  if (!budget.ok()) return budget;

  // A world contributes iff its final pair-set holds an accepting state
  // paired with position |o|.
  Value total = P::Zero();
  cur.ForEachCell([&](size_t, const uint64_t* set, const Value& mass) {
    for (size_t w = 0; w < words; ++w) {
      if ((set[w] & accept[w]) != 0) {
        total += mass;
        return;
      }
    }
  });
  if (stats != nullptr) *stats = local_stats;
  return total;
}

}  // namespace

StatusOr<double> ConfidenceExact(const markov::MarkovSequence& mu,
                                 const transducer::Transducer& t, const Str& o,
                                 ExactConfidenceStats* stats,
                                 int64_t max_layer_width) {
  return ExactImpl<DoubleProb>(mu, t, o, stats, max_layer_width);
}

StatusOr<numeric::Rational> ConfidenceExactRational(
    const markov::MarkovSequence& mu, const transducer::Transducer& t,
    const Str& o, ExactConfidenceStats* stats, int64_t max_layer_width) {
  if (!mu.has_exact()) {
    return Status::FailedPrecondition(
        "exact confidence requires exact probabilities on the Markov "
        "sequence");
  }
  return ExactImpl<RationalProb>(mu, t, o, stats, max_layer_width);
}

}  // namespace tms::query
