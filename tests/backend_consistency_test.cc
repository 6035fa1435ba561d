// Backend-identity contract, end to end: an engine must produce the same
// bytes on the dense and the CSR-sparse kernel paths — the sparse layer
// skips only ⊕-identity entries of reductions evaluated in the dense
// order (see kernels/sparse.h), so not just the answers but the scores
// and their order are bitwise equal, at every thread count, under every
// --backend= request. Also covers the engine factory front door: kind
// dispatch and Status on alphabet mismatch. Seeds obey TMS_TEST_SEED.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/engine_options.h"
#include "exec/thread_pool.h"
#include "kernels/backend.h"
#include "projector/sprojector.h"
#include "query/confidence.h"
#include "query/engine_factory.h"
#include "query/membership.h"
#include "test_util.h"
#include "workload/random_models.h"

namespace tms {
namespace {

using kernels::BackendChoice;

struct Instance {
  markov::MarkovSequence mu;
  transducer::Transducer t;
};

// Large-alphabet instance in the sparse regime: |Σ|=24 with 3-entry rows
// (density 0.125 ≤ kAutoSparseMaxDensity, dim ≥ kAutoSparseMinDim), so
// kAuto actually resolves to the sparse backend here.
Instance SparseInstance(Rng& rng, int n = 6) {
  markov::MarkovSequence mu =
      workload::RandomHomogeneousMarkovSequence(24, n, /*support=*/3, rng);
  workload::RandomTransducerOptions opts;
  opts.num_states = 2;
  opts.deterministic = true;
  opts.max_emission = 1;
  opts.output_symbols = 2;
  opts.accept_prob = 1.0;
  transducer::Transducer t = workload::RandomTransducer(mu.nodes(), opts, rng);
  return Instance{std::move(mu), std::move(t)};
}

// Small dense inhomogeneous instance (dim < kAutoSparseMinDim): kAuto
// resolves to dense, and a forced kSparse exercises the explicit request
// (or its counted fallback when no CSR was built).
Instance DenseInstance(Rng& rng) {
  const int sigma = static_cast<int>(rng.UniformInt(2, 3));
  const int n = static_cast<int>(rng.UniformInt(2, 4));
  markov::MarkovSequence mu =
      workload::RandomMarkovSequence(sigma, n, /*support=*/sigma, rng);
  workload::RandomTransducerOptions opts;
  opts.num_states = static_cast<int>(rng.UniformInt(2, 3));
  opts.density = 1.2;
  opts.max_emission = 2;
  transducer::Transducer t = workload::RandomTransducer(mu.nodes(), opts, rng);
  return Instance{std::move(mu), std::move(t)};
}

// Drains up to `guard` answers of the given engine kind through the
// factory. All enumerator construction in this suite goes through
// query::MakeEnumerator — the same door the CLI and batch layers use.
std::vector<ranking::ScoredAnswer> Drain(query::EnumeratorKind kind,
                                         const Instance& inst,
                                         BackendChoice backend,
                                         exec::ThreadPool* pool = nullptr,
                                         int guard = 30) {
  exec::EngineOptions options;
  options.pool = pool;
  options.backend = backend;
  auto it = query::MakeEnumerator(kind, inst.mu, inst.t, options);
  if (!it.ok()) {
    ADD_FAILURE() << "MakeEnumerator: " << it.status();
    return {};
  }
  std::vector<ranking::ScoredAnswer> out;
  for (int i = 0; i < guard; ++i) {
    auto answer = (*it)->Next();
    if (!answer.has_value()) break;
    out.push_back(std::move(*answer));
  }
  return out;
}

// Byte-identical streams: same length, same outputs, bitwise-equal scores,
// same order.
void ExpectSameStream(const std::vector<ranking::ScoredAnswer>& got,
                      const std::vector<ranking::ScoredAnswer>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].output, want[i].output) << what << " answer " << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " answer " << i;
  }
}

TEST(BackendConsistencyTest, EmaxStreamIdenticalAcrossBackendsAndThreads) {
  const uint64_t seed = testing::TestSeed(9101);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    for (bool sparse_regime : {true, false}) {
      Instance inst =
          sparse_regime ? SparseInstance(rng) : DenseInstance(rng);
      const std::vector<ranking::ScoredAnswer> reference =
          Drain(query::EnumeratorKind::kEmax, inst, BackendChoice::kDense);
      for (BackendChoice backend :
           {BackendChoice::kDense, BackendChoice::kSparse,
            BackendChoice::kAuto}) {
        for (int threads : {1, 2, 8}) {
          std::optional<exec::ThreadPool> pool;
          if (threads > 1) pool.emplace(threads - 1);
          std::vector<ranking::ScoredAnswer> stream =
              Drain(query::EnumeratorKind::kEmax, inst, backend,
                    pool ? &*pool : nullptr);
          ExpectSameStream(
              stream, reference,
              std::string(sparse_regime ? "sparse-regime" : "dense-regime") +
                  " backend=" + kernels::BackendChoiceName(backend) +
                  " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(BackendConsistencyTest, UnrankedStreamIdenticalAcrossBackends) {
  const uint64_t seed = testing::TestSeed(9102);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 4; ++trial) {
    for (bool sparse_regime : {true, false}) {
      Instance inst =
          sparse_regime ? SparseInstance(rng, /*n=*/4) : DenseInstance(rng);
      const std::vector<ranking::ScoredAnswer> reference =
          Drain(query::EnumeratorKind::kUnranked, inst, BackendChoice::kDense);
      for (BackendChoice backend :
           {BackendChoice::kSparse, BackendChoice::kAuto}) {
        std::vector<ranking::ScoredAnswer> stream =
            Drain(query::EnumeratorKind::kUnranked, inst, backend);
        ExpectSameStream(stream, reference,
                         std::string("unranked backend=") +
                             kernels::BackendChoiceName(backend));
      }
    }
  }
}

TEST(BackendConsistencyTest, MembershipAgreesAcrossBackends) {
  const uint64_t seed = testing::TestSeed(9103);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 6; ++trial) {
    Instance inst = trial % 2 == 0 ? SparseInstance(rng, /*n=*/4)
                                   : DenseInstance(rng);
    EXPECT_EQ(query::HasAnyAnswer(inst.mu, inst.t, BackendChoice::kDense),
              query::HasAnyAnswer(inst.mu, inst.t, BackendChoice::kSparse));
    std::vector<ranking::ScoredAnswer> answers =
        Drain(query::EnumeratorKind::kUnranked, inst, BackendChoice::kDense,
              nullptr, /*guard=*/5);
    for (const ranking::ScoredAnswer& a : answers) {
      EXPECT_EQ(
          query::IsPossibleAnswer(inst.mu, inst.t, a.output,
                                  BackendChoice::kDense),
          query::IsPossibleAnswer(inst.mu, inst.t, a.output,
                                  BackendChoice::kSparse))
          << "answer of size " << a.output.size();
      // Every prefix, including the empty one — and a perturbed
      // non-answer, which both backends must reject identically.
      for (size_t len = 0; len <= a.output.size(); ++len) {
        Str prefix(a.output.begin(), a.output.begin() + len);
        EXPECT_EQ(query::HasAnswerWithPrefix(inst.mu, inst.t, prefix,
                                             BackendChoice::kDense),
                  query::HasAnswerWithPrefix(inst.mu, inst.t, prefix,
                                             BackendChoice::kSparse))
            << "prefix of size " << len;
      }
      Str bogus = a.output;
      bogus.insert(bogus.end(), 0);  // one extra symbol; may not be an answer
      EXPECT_EQ(query::IsPossibleAnswer(inst.mu, inst.t, bogus,
                                        BackendChoice::kDense),
                query::IsPossibleAnswer(inst.mu, inst.t, bogus,
                                        BackendChoice::kSparse));
    }
  }
}

TEST(BackendConsistencyTest, DeterministicConfidenceBitwiseIdentical) {
  const uint64_t seed = testing::TestSeed(9104);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  for (int trial = 0; trial < 6; ++trial) {
    // SparseInstance transducers are deterministic by construction.
    Instance inst = SparseInstance(rng, /*n=*/5);
    std::vector<ranking::ScoredAnswer> answers =
        Drain(query::EnumeratorKind::kEmax, inst, BackendChoice::kDense,
              nullptr, /*guard=*/5);
    for (const ranking::ScoredAnswer& a : answers) {
      auto dense = query::ConfidenceDeterministic(inst.mu, inst.t, a.output,
                                                  BackendChoice::kDense);
      auto sparse = query::ConfidenceDeterministic(inst.mu, inst.t, a.output,
                                                   BackendChoice::kSparse);
      auto aut = query::ConfidenceDeterministic(inst.mu, inst.t, a.output,
                                                BackendChoice::kAuto);
      ASSERT_TRUE(dense.ok()) << dense.status();
      ASSERT_TRUE(sparse.ok()) << sparse.status();
      ASSERT_TRUE(aut.ok()) << aut.status();
      // Bitwise, not approximately: the sparse DP skips only exact zeros
      // of a nonnegative sum evaluated in the dense order.
      EXPECT_EQ(*dense, *sparse);
      EXPECT_EQ(*dense, *aut);
    }
  }
}

TEST(BackendConsistencyTest, FactoryDispatchesAndValidates) {
  const uint64_t seed = testing::TestSeed(9105);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  EXPECT_STREQ(query::EnumeratorKindName(query::EnumeratorKind::kEmax),
               "emax");
  EXPECT_STREQ(query::EnumeratorKindName(query::EnumeratorKind::kUnranked),
               "unranked");

  // Alphabet mismatch is a Status, not a crash: transducer over a 3-node
  // alphabet, model over 2 nodes.
  Instance inst = DenseInstance(rng);
  workload::RandomTransducerOptions opts;
  opts.num_states = 2;
  transducer::Transducer wrong =
      workload::RandomTransducer(workload::MakeSymbols(
                                     static_cast<int>(inst.mu.nodes().size()) +
                                         1,
                                     "n"),
                                 opts, rng);
  for (query::EnumeratorKind kind :
       {query::EnumeratorKind::kEmax, query::EnumeratorKind::kUnranked}) {
    auto it = query::MakeEnumerator(kind, inst.mu, wrong);
    EXPECT_FALSE(it.ok()) << query::EnumeratorKindName(kind);
  }
}

TEST(BackendConsistencyTest, FactoryBuildsSProjectorStreams) {
  const uint64_t seed = testing::TestSeed(9106);
  SCOPED_TRACE(testing::SeedTrace(seed));
  Rng rng(seed);
  Alphabet ab = workload::MakeSymbols(2, "n");
  auto p = projector::SProjector::FromRegex(ab, ". *", "n0 +", ". *");
  ASSERT_TRUE(p.ok()) << p.status();
  markov::MarkovSequence mu = workload::RandomMarkovSequence(2, 4, 2, rng);

  auto borrowed = query::MakeEnumerator(mu, *p);
  ASSERT_TRUE(borrowed.ok()) << borrowed.status();
  std::vector<ranking::ScoredAnswer> reference;
  while (auto a = (*borrowed)->Next()) reference.push_back(std::move(*a));
  EXPECT_FALSE(reference.empty());

  // Mismatched projector alphabet → Status.
  auto p3 = projector::SProjector::FromRegex(workload::MakeSymbols(3, "n"),
                                             ". *", "n0 +", ". *");
  ASSERT_TRUE(p3.ok()) << p3.status();
  auto bad = query::MakeEnumerator(mu, *p3);
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace tms
