// Shared test helpers: possible-world brute forcing (the ground truth all
// polynomial algorithms are validated against) and common assertions.

#ifndef TMS_TESTS_TEST_UTIL_H_
#define TMS_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "db/batch_evaluator.h"
#include "db/collection.h"
#include "markov/markov_sequence.h"
#include "markov/world_iter.h"
#include "projector/sprojector.h"
#include "strings/str.h"
#include "transducer/transducer.h"

namespace tms::testing {

/// Seed for a randomized suite: `fallback` unless the TMS_TEST_SEED
/// environment variable overrides it. The chosen seed is printed once per
/// call so any failure log names the exact replay command — wrap suite
/// bodies in SCOPED_TRACE(SeedTrace(seed)) so assertion failures carry it
/// too. Replay: TMS_TEST_SEED=<seed> ./the_test.
inline uint64_t TestSeed(uint64_t fallback) {
  const char* env = std::getenv("TMS_TEST_SEED");
  uint64_t seed = fallback;
  if (env != nullptr && *env != '\0') {
    seed = std::strtoull(env, nullptr, 10);
  }
  std::printf("[   SEED   ] TMS_TEST_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

/// Message for SCOPED_TRACE so every assertion failure in a randomized
/// suite states how to reproduce it.
inline std::string SeedTrace(uint64_t seed) {
  return "replay with TMS_TEST_SEED=" + std::to_string(seed);
}

/// Ground-truth evaluation by exhausting all possible worlds: the map from
/// every answer to its confidence.
inline std::map<Str, double> BruteForceAnswers(
    const markov::MarkovSequence& mu, const transducer::Transducer& t) {
  std::map<Str, double> out;
  markov::ForEachWorld(mu, [&](const Str& world, double p) {
    for (const Str& o : t.TransduceAll(world)) out[o] += p;
  });
  return out;
}

/// Ground-truth confidence of one answer.
inline double BruteForceConfidence(const markov::MarkovSequence& mu,
                                   const transducer::Transducer& t,
                                   const Str& o) {
  double total = 0;
  markov::ForEachWorld(mu, [&](const Str& world, double p) {
    if (t.Transduces(world, o)) total += p;
  });
  return total;
}

/// Ground-truth E_max of one answer.
inline double BruteForceEmax(const markov::MarkovSequence& mu,
                             const transducer::Transducer& t, const Str& o) {
  double best = 0;
  markov::ForEachWorld(mu, [&](const Str& world, double p) {
    if (p > best && t.Transduces(world, o)) best = p;
  });
  return best;
}

/// Ground-truth indexed s-projector answers with confidences.
inline std::map<std::pair<Str, int>, double> BruteForceIndexedAnswers(
    const markov::MarkovSequence& mu, const projector::SProjector& p) {
  std::map<std::pair<Str, int>, double> out;
  const int n = mu.length();
  markov::ForEachWorld(mu, [&](const Str& world, double prob) {
    for (int i = 1; i <= n + 1; ++i) {
      for (int len = 0; i + len - 1 <= n; ++len) {
        if (len == 0 && i > n + 1) continue;
        if (len > 0 && i > n) break;
        Str o(world.begin() + (i - 1), world.begin() + (i - 1 + len));
        if (p.MatchesIndexed(world, projector::IndexedAnswer{o, i})) {
          out[{o, i}] += prob;
        }
      }
    }
  });
  return out;
}

/// Ground-truth (non-indexed) s-projector answer map.
inline std::map<Str, double> BruteForceSProjectorAnswers(
    const markov::MarkovSequence& mu, const projector::SProjector& p) {
  std::map<Str, double> out;
  const int n = mu.length();
  markov::ForEachWorld(mu, [&](const Str& world, double prob) {
    // Collect the distinct outputs of this world, then add its mass once
    // per output.
    std::map<Str, bool> outputs;
    for (int i = 1; i <= n + 1; ++i) {
      for (int len = 0; i + len - 1 <= n; ++len) {
        if (len > 0 && i > n) break;
        Str o(world.begin() + (i - 1), world.begin() + (i - 1 + len));
        if (p.MatchesIndexed(world, projector::IndexedAnswer{o, i})) {
          outputs[o] = true;
        }
      }
    }
    for (const auto& [o, unused] : outputs) out[o] += prob;
  });
  return out;
}

/// The answers of a BatchEvaluator::EvaluateAll run as flat (key, answer)
/// rows, in key order then rank order: the rows of
/// SequenceCollection::TopKPerSequence. The status of the first failed
/// sequence instead, if any.
inline StatusOr<std::vector<db::SequenceCollection::Row>> BatchRows(
    const std::vector<db::BatchEvaluator::SequenceResult>& results) {
  std::vector<db::SequenceCollection::Row> rows;
  for (const db::BatchEvaluator::SequenceResult& r : results) {
    if (!r.status.ok()) return r.status;
    for (const query::AnswerInfo& info : r.answers) {
      rows.push_back(db::SequenceCollection::Row{r.key, info});
    }
  }
  return rows;
}

}  // namespace tms::testing

#endif  // TMS_TESTS_TEST_UTIL_H_
