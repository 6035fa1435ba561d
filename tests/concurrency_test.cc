// Determinism and safety of the parallel enumeration paths: byte-identical
// output at every thread count, the finite-score boundary of the Lawler
// engine, and the shared-state ownership rules of query/emax_enum.h.
//
// These tests carry the ctest label `concurrency`; run them under
// ThreadSanitizer with -DTMS_SANITIZE=thread and `ctest -L concurrency`.
// ParallelPipelineTest covers the answer pipeline on a pool, where each
// answer's confidence runs beside its pop's child solves.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "db/batch_evaluator.h"
#include "db/collection.h"
#include "exec/thread_pool.h"
#include "projector/imax_enum.h"
#include "projector/sprojector.h"
#include "query/answers.h"
#include "query/emax_enum.h"
#include "ranking/lawler.h"
#include "ranking/prefix_constraint.h"
#include "test_util.h"
#include "transducer/transducer.h"
#include "workload/random_models.h"

namespace tms {
namespace {

using query::EmaxEnumerator;
using ranking::OutputConstraint;
using ranking::ScoredAnswer;
using transducer::Transducer;

// ---------------------------------------------------------------------------
// Byte-identical parallel enumeration.

markov::MarkovSequence RandomMu(Rng& rng, int n = 6) {
  return workload::RandomMarkovSequence(3, n, 2, rng);
}

Transducer RandomT(const Alphabet& nodes, Rng& rng) {
  workload::RandomTransducerOptions opts;
  opts.num_states = 3;
  opts.max_emission = 2;
  opts.output_symbols = 2;
  opts.deterministic = rng.Bernoulli(0.5);
  return workload::RandomTransducer(nodes, opts, rng);
}

std::vector<ScoredAnswer> DrainEmax(const markov::MarkovSequence& mu,
                                    const Transducer& t,
                                    exec::ThreadPool* pool, int limit = 200) {
  EmaxEnumerator it(mu, t, {.pool = pool});
  std::vector<ScoredAnswer> out;
  while (static_cast<int>(out.size()) < limit) {
    auto answer = it.Next();
    if (!answer.has_value()) break;
    out.push_back(std::move(*answer));
  }
  return out;
}

// Exact comparison — same outputs, same score *bits* — so any
// nondeterministic merge or racy float path fails loudly.
void ExpectIdenticalStreams(const std::vector<ScoredAnswer>& a,
                            const std::vector<ScoredAnswer>& b,
                            const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].output, b[i].output) << label << " rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << label << " rank " << i;
  }
}

TEST(ParallelEmaxTest, ByteIdenticalAtEveryThreadCount) {
  Rng rng(2026);
  exec::ThreadPool pool2(1);  // --threads=2
  exec::ThreadPool pool8(7);  // --threads=8
  for (int trial = 0; trial < 10; ++trial) {
    markov::MarkovSequence mu = RandomMu(rng);
    Transducer t = RandomT(mu.nodes(), rng);
    std::vector<ScoredAnswer> seq = DrainEmax(mu, t, nullptr);
    ExpectIdenticalStreams(seq, DrainEmax(mu, t, &pool2),
                           "threads=2 trial " + std::to_string(trial));
    ExpectIdenticalStreams(seq, DrainEmax(mu, t, &pool8),
                           "threads=8 trial " + std::to_string(trial));
  }
}

TEST(ParallelImaxTest, ByteIdenticalAtEveryThreadCount) {
  Rng rng(31);
  exec::ThreadPool pool2(1);
  exec::ThreadPool pool8(7);
  for (int trial = 0; trial < 6; ++trial) {
    markov::MarkovSequence mu = RandomMu(rng, 5);
    auto p = projector::SProjector::Create(
        workload::RandomDfa(mu.nodes(), 2, rng, 0.6),
        workload::RandomDfa(mu.nodes(), 2, rng, 0.6),
        workload::RandomDfa(mu.nodes(), 2, rng, 0.6));
    ASSERT_TRUE(p.ok());
    auto drain = [&mu, &p](exec::ThreadPool* pool) {
      auto it = projector::ImaxEnumerator::Create(&mu, &*p, {.pool = pool});
      EXPECT_TRUE(it.ok());
      std::vector<ScoredAnswer> out;
      while (auto answer = it->Next()) out.push_back(std::move(*answer));
      return out;
    };
    std::vector<ScoredAnswer> seq = drain(nullptr);
    ExpectIdenticalStreams(seq, drain(&pool2),
                           "imax threads=2 trial " + std::to_string(trial));
    ExpectIdenticalStreams(seq, drain(&pool8),
                           "imax threads=8 trial " + std::to_string(trial));
  }
}

// ---------------------------------------------------------------------------
// The answer pipeline on a pool: each answer's confidence is a side task
// of the pop that produced it (ranking::AnswerStream::NextWith), run on
// any pool thread beside the child solves.

// The query::Confidence algorithm a transducer's answers take.
enum class ConfidencePath {
  kDeterministic,         // Theorem 4.6, on the requested kernel backend
  kDeterministicUniform,  // Theorem 4.6's uniform fast path
  kUniformSubset,         // Theorem 4.8
  kExact,                 // the general exact DP
};

ConfidencePath PathOf(const Transducer& t) {
  const bool uniform = t.UniformEmissionLength().has_value();
  if (t.IsDeterministic()) {
    return uniform ? ConfidencePath::kDeterministicUniform
                   : ConfidencePath::kDeterministic;
  }
  return uniform && t.num_states() <= 63 ? ConfidencePath::kUniformSubset
                                         : ConfidencePath::kExact;
}

// A random transducer whose confidence takes `path`.
Transducer DrawForPath(const Alphabet& nodes, ConfidencePath path, Rng& rng) {
  workload::RandomTransducerOptions opts;
  opts.num_states = 3;
  opts.max_emission = 2;
  opts.output_symbols = 2;
  opts.deterministic = path == ConfidencePath::kDeterministic ||
                       path == ConfidencePath::kDeterministicUniform;
  if (path == ConfidencePath::kDeterministicUniform ||
      path == ConfidencePath::kUniformSubset) {
    opts.uniform_k = 1;
  }
  for (int draw = 0; draw < 100; ++draw) {
    Transducer t = workload::RandomTransducer(nodes, opts, rng);
    if (PathOf(t) == path) return t;
  }
  ADD_FAILURE() << "no draw took confidence path " << static_cast<int>(path);
  return workload::RandomTransducer(nodes, opts, rng);
}

template <typename Q>
std::vector<query::AnswerInfo> DrainPipeline(const markov::MarkovSequence& mu,
                                             const Q& q,
                                             exec::EngineOptions options) {
  auto pipeline = query::AnswerPipeline::Create(
      mu, q, query::AnswerMode::kRanked, options);
  EXPECT_TRUE(pipeline.ok()) << pipeline.status();
  if (!pipeline.ok()) return {};
  auto answers = pipeline->Take(60);
  EXPECT_TRUE(answers.ok()) << answers.status();
  return answers.ok() ? std::move(*answers) : std::vector<query::AnswerInfo>{};
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

void ExpectIdenticalAnswers(const std::vector<query::AnswerInfo>& a,
                            const std::vector<query::AnswerInfo>& b,
                            const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].output, b[i].output) << label << " rank " << i;
    EXPECT_EQ(Bits(a[i].emax), Bits(b[i].emax)) << label << " rank " << i;
    EXPECT_EQ(Bits(a[i].confidence), Bits(b[i].confidence))
        << label << " rank " << i;
  }
}

TEST(ParallelPipelineTest,
     RankedStreamWithConfidenceByteIdenticalAtEveryThreadCount) {
  Rng rng(1919);
  exec::ThreadPool pool2(1);  // --threads=2
  exec::ThreadPool pool8(7);  // --threads=8
  struct Case {
    const char* name;
    ConfidencePath path;
    kernels::BackendChoice backend;
  };
  const Case cases[] = {
      {"thm4.6 dense", ConfidencePath::kDeterministic,
       kernels::BackendChoice::kDense},
      {"thm4.6 sparse", ConfidencePath::kDeterministic,
       kernels::BackendChoice::kSparse},
      {"thm4.6 uniform", ConfidencePath::kDeterministicUniform,
       kernels::BackendChoice::kAuto},
      {"thm4.8 subset", ConfidencePath::kUniformSubset,
       kernels::BackendChoice::kAuto},
      {"exact", ConfidencePath::kExact, kernels::BackendChoice::kAuto},
  };
  for (const Case& c : cases) {
    size_t answers = 0;
    for (int trial = 0; trial < 3; ++trial) {
      const std::string label =
          std::string(c.name) + " trial " + std::to_string(trial);
      markov::MarkovSequence mu = RandomMu(rng);
      Transducer t = DrawForPath(mu.nodes(), c.path, rng);
      std::vector<query::AnswerInfo> seq =
          DrainPipeline(mu, t, {.backend = c.backend});
      answers += seq.size();
      ExpectIdenticalAnswers(
          seq, DrainPipeline(mu, t, {.pool = &pool2, .backend = c.backend}),
          label + " threads=2");
      ExpectIdenticalAnswers(
          seq, DrainPipeline(mu, t, {.pool = &pool8, .backend = c.backend}),
          label + " threads=8");
    }
    EXPECT_GT(answers, 0u) << c.name << ": no answers to compare";
  }

  // One s-projector stream: I_max order, SProjectorConfidence.
  markov::MarkovSequence mu = RandomMu(rng, 5);
  std::optional<projector::SProjector> p;
  std::vector<query::AnswerInfo> seq;
  for (int draw = 0; draw < 20 && seq.empty(); ++draw) {
    auto drawn = projector::SProjector::Create(
        workload::RandomDfa(mu.nodes(), 2, rng, 0.6),
        workload::RandomDfa(mu.nodes(), 2, rng, 0.6),
        workload::RandomDfa(mu.nodes(), 2, rng, 0.6));
    ASSERT_TRUE(drawn.ok());
    p.emplace(std::move(*drawn));
    seq = DrainPipeline(mu, *p, {});
  }
  ASSERT_FALSE(seq.empty()) << "no s-projector with answers";
  ExpectIdenticalAnswers(seq, DrainPipeline(mu, *p, {.pool = &pool2}),
                         "s-projector threads=2");
  ExpectIdenticalAnswers(seq, DrainPipeline(mu, *p, {.pool = &pool8}),
                         "s-projector threads=8");
}

// ---------------------------------------------------------------------------
// Lawler boundary: non-finite scores must not enter the heap.

TEST(LawlerBoundaryTest, NanScoredSubspacesAreSkipped) {
  // Candidate answers: "0" with score 0.5, "1" with score NaN. The NaN
  // subspace is rejected at the boundary instead of corrupting EntryLess.
  auto solver =
      [](const OutputConstraint& c) -> std::optional<ScoredAnswer> {
    if (c.Admits({0})) return ScoredAnswer{{0}, 0.5};
    if (c.Admits({1})) {
      return ScoredAnswer{{1}, std::numeric_limits<double>::quiet_NaN()};
    }
    return std::nullopt;
  };
  ranking::LawlerEnumerator it(solver);
  auto first = it.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->output, Str({0}));
  EXPECT_EQ(first->score, 0.5);
  // Every remaining subspace resolves to the NaN answer → exhausted, and
  // the enumeration terminates instead of looping or crashing.
  EXPECT_FALSE(it.Next().has_value());
  EXPECT_FALSE(it.Next().has_value());
}

TEST(LawlerBoundaryTest, InfiniteScoresAreSkippedToo) {
  auto solver =
      [](const OutputConstraint& c) -> std::optional<ScoredAnswer> {
    if (c.Admits({0})) return ScoredAnswer{{0}, 0.25};
    if (c.Admits({1})) {
      return ScoredAnswer{{1}, std::numeric_limits<double>::infinity()};
    }
    return std::nullopt;
  };
  ranking::LawlerEnumerator it(solver);
  auto first = it.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->output, Str({0}));
  EXPECT_FALSE(it.Next().has_value());
}

// ---------------------------------------------------------------------------
// Ownership: the solver state must not dangle.

TEST(OwnershipTest, EnumeratorIsMovable) {
  Rng rng(56);
  markov::MarkovSequence mu = RandomMu(rng);
  Transducer t = RandomT(mu.nodes(), rng);
  std::vector<ScoredAnswer> want = DrainEmax(mu, t, nullptr);

  EmaxEnumerator a(mu, t);
  if (!want.empty()) {
    auto first = a.Next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->output, want[0].output);
  }
  EmaxEnumerator b = std::move(a);  // mid-stream move keeps solver state
  std::vector<ScoredAnswer> rest;
  while (auto answer = b.Next()) rest.push_back(std::move(*answer));
  ASSERT_EQ(rest.size() + (want.empty() ? 0 : 1), want.size());
  for (size_t i = 0; i < rest.size(); ++i) {
    EXPECT_EQ(rest[i].output, want[i + 1].output);
    EXPECT_EQ(rest[i].score, want[i + 1].score);
  }
}

// ---------------------------------------------------------------------------
// BatchEvaluator: identical to the sequential collection scan.

TEST(BatchEvaluatorTest, MatchesSequentialTopKPerSequence) {
  Rng rng(77);
  markov::MarkovSequence seed = RandomMu(rng, 5);
  db::SequenceCollection collection(seed.nodes());
  ASSERT_TRUE(collection.Insert("cart-a", seed).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(collection
                    .Insert("cart-" + std::to_string(i),
                            workload::RandomMarkovSequence(3, 4 + i, 2, rng))
                    .ok());
  }
  Transducer t = RandomT(collection.nodes(), rng);

  auto want = collection.TopKPerSequence(t, 3);
  ASSERT_TRUE(want.ok());

  for (int threads : {1, 2, 8}) {
    db::BatchEvaluator::Options options;
    options.threads = threads;
    auto batch = db::BatchEvaluator::Create(&collection, &t, options);
    ASSERT_TRUE(batch.ok());
    auto got = testing::BatchRows(batch->EvaluateAll(3));
    ASSERT_TRUE(got.ok()) << got.status().message();
    ASSERT_EQ(got->size(), want->size()) << "threads=" << threads;
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].key, (*want)[i].key) << "threads=" << threads;
      EXPECT_EQ((*got)[i].answer.output, (*want)[i].answer.output);
      EXPECT_EQ((*got)[i].answer.emax, (*want)[i].answer.emax);
      EXPECT_EQ((*got)[i].answer.confidence, (*want)[i].answer.confidence);
    }
  }
}

TEST(BatchEvaluatorTest, RejectsAlphabetMismatch) {
  Rng rng(78);
  markov::MarkovSequence mu = RandomMu(rng, 4);
  db::SequenceCollection collection(mu.nodes());
  ASSERT_TRUE(collection.Insert("only", mu).ok());
  markov::MarkovSequence foreign = workload::RandomMarkovSequence(4, 3, 2, rng);
  Transducer t = RandomT(foreign.nodes(), rng);
  if (!(t.input_alphabet() == collection.nodes())) {
    EXPECT_FALSE(db::BatchEvaluator::Create(&collection, &t).ok());
  }
  EXPECT_FALSE(db::BatchEvaluator::Create(nullptr, &t).ok());
  EXPECT_FALSE(db::BatchEvaluator::Create(&collection, nullptr).ok());
}

}  // namespace
}  // namespace tms
