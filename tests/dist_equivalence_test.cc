// The shard-equivalence contract (docs/DISTRIBUTED.md): a sharded batch's
// merged ranked stream is BYTE-IDENTICAL to the single-process
// BatchEvaluator reference at every shard count × thread count × kernel
// backend, plus the merge-order property fuzz for the bounded-lookahead
// k-way merge itself (tie clusters, equal-score runs, empty shards,
// order-violating sources).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "db/batch_evaluator.h"
#include "db/collection.h"
#include "dist/client.h"
#include "dist/merge_stream.h"
#include "dist/shard_plan.h"
#include "dist/sharded_batch.h"
#include "gtest/gtest.h"
#include "kernels/backend.h"
#include "serve/wire.h"
#include "test_util.h"
#include "transducer/transducer.h"
#include "workload/random_models.h"

namespace tms {
namespace {

using testing::SeedTrace;
using testing::TestSeed;

// One line per ranked row, the same serializer the server and CLI use —
// "byte-identical" means these bytes, not a structural comparison.
std::string SerializeRows(const Alphabet& output,
                          const std::vector<dist::RankedRow>& rows) {
  std::string out;
  for (const dist::RankedRow& row : rows) {
    serve::AppendBatchRowJson(row.key,
                              FormatStr(output, row.answer.output),
                              row.answer.emax, row.answer.confidence, &out);
    out += '\n';
  }
  return out;
}

// A collection with deliberate cross-shard tie clusters: every model is
// inserted twice under different keys, so equal (score, answer) pairs
// exist in different shards at every shard count > 1.
struct Fixture {
  Alphabet alphabet;
  db::SequenceCollection collection{Alphabet()};
  transducer::Transducer query{Alphabet(), Alphabet()};
};

void BuildFixture(uint64_t seed, int distinct_models, Fixture* fx) {
  Rng rng(seed);
  // RandomMarkovSequence interns its nodes under the "n" prefix; the
  // collection's alphabet must match or Insert rejects the sequence.
  fx->alphabet = workload::MakeSymbols(4, "n");
  fx->collection = db::SequenceCollection(fx->alphabet);
  for (int i = 0; i < distinct_models; ++i) {
    markov::MarkovSequence mu = workload::RandomMarkovSequence(
        4, static_cast<int>(rng.UniformInt(3, 6)), 3, rng);
    char key[32];
    std::snprintf(key, sizeof(key), "seq%02d", 2 * i);
    ASSERT_TRUE(fx->collection.Insert(key, mu).ok());
    std::snprintf(key, sizeof(key), "seq%02d", 2 * i + 1);
    ASSERT_TRUE(fx->collection.Insert(key, std::move(mu)).ok());
  }
  // A random transducer can have an empty language under an adversarial
  // TMS_TEST_SEED; grafting identity loops onto state 0 guarantees every
  // sequence a nonempty ranked stream while keeping the random structure.
  workload::RandomTransducerOptions opts;
  opts.num_states = 3;
  opts.max_emission = 1;
  // As many output symbols as input ones, so the identity loops below can
  // emit the input symbol id.
  opts.output_symbols = static_cast<int>(fx->alphabet.size());
  fx->query = workload::RandomTransducer(fx->alphabet, opts, rng);
  fx->query.SetAccepting(0);
  for (Symbol s = 0; s < static_cast<Symbol>(fx->alphabet.size()); ++s) {
    (void)fx->query.AddTransition(0, s, 0, Str{s});
  }
}

TEST(DistEquivalenceTest, ShardedStreamMatchesReferenceEverywhere) {
  const uint64_t seed = TestSeed(20260810);
  SCOPED_TRACE(SeedTrace(seed));
  Fixture fx;
  BuildFixture(seed, 3, &fx);  // 6 sequences; shards=8 leaves empty shards
  const int k = 4;

  db::BatchEvaluator::Options ref_options;
  auto ref_batch =
      db::BatchEvaluator::Create(&fx.collection, &fx.query, ref_options);
  ASSERT_TRUE(ref_batch.ok()) << ref_batch.status().ToString();
  const std::string reference = SerializeRows(
      fx.query.output_alphabet(),
      dist::RankedReferenceRows(ref_batch->EvaluateAll(k)));
  ASSERT_FALSE(reference.empty());

  for (int shards : {1, 2, 4, 8}) {
    for (int threads : {1, 2, 8}) {
      for (kernels::BackendChoice backend :
           {kernels::BackendChoice::kDense, kernels::BackendChoice::kSparse,
            kernels::BackendChoice::kAuto}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads) + " backend=" +
                     kernels::BackendChoiceName(backend));
        dist::ShardedBatchOptions options;
        options.shards = shards;
        options.batch.threads = threads;
        options.batch.backend = backend;
        auto sharded =
            dist::EvaluateSharded(fx.collection, fx.query, k, options);
        ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
        EXPECT_TRUE(sharded->complete());
        EXPECT_EQ(SerializeRows(fx.query.output_alphabet(), sharded->rows),
                  reference);
        ASSERT_EQ(sharded->coverage.size(), static_cast<size_t>(shards));
        int64_t covered = 0;
        for (const dist::ShardCoverage& c : sharded->coverage) {
          EXPECT_FALSE(c.failed);
          EXPECT_FALSE(c.truncated);
          covered += c.sequences;
        }
        EXPECT_EQ(covered, static_cast<int64_t>(fx.collection.size()));
      }
    }
  }
}

TEST(DistEquivalenceTest, ShardPlanIsContiguousBalancedAndComplete) {
  for (int n : {0, 1, 5, 6, 17}) {
    std::vector<std::string> keys;
    for (int i = 0; i < n; ++i) {
      keys.push_back("k");
      keys.back() += std::to_string(i);
    }
    for (int shards : {1, 2, 4, 8}) {
      std::vector<dist::ShardRange> plan = dist::PlanShards(keys, shards);
      ASSERT_EQ(plan.size(), static_cast<size_t>(shards));
      std::vector<std::string> flattened;
      size_t hi = 0, lo = keys.size();
      for (const dist::ShardRange& range : plan) {
        hi = std::max(hi, range.keys.size());
        lo = std::min(lo, range.keys.size());
        flattened.insert(flattened.end(), range.keys.begin(),
                         range.keys.end());
      }
      // Contiguous + complete: concatenating the ranges reproduces the
      // key list; balanced: sizes differ by at most one.
      EXPECT_EQ(flattened, keys) << "n=" << n << " shards=" << shards;
      EXPECT_LE(hi - lo, 1u) << "n=" << n << " shards=" << shards;
    }
  }
}

// ---------------------------------------------------------------------------
// Merge-order property fuzz over in-memory sources.

dist::MergeEntry Entry(std::string key, double score) {
  dist::MergeEntry e;
  e.key = std::move(key);
  e.score = score;
  e.answer.emax = score;
  return e;
}

// The expected merged order: concatenate the streams (source order) and
// stable-sort by (score desc, key asc). Keys are unique per source, so
// equal (score, key) entries come from one stream and stability encodes
// the per-source FIFO the merge must preserve.
std::vector<std::pair<std::string, double>> ExpectedOrder(
    const std::vector<std::vector<dist::MergeEntry>>& streams) {
  std::vector<std::pair<std::string, double>> all;
  for (const auto& stream : streams) {
    for (const dist::MergeEntry& e : stream) all.emplace_back(e.key, e.score);
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second != b.second) return a.second > b.second;
                     return a.first < b.first;
                   });
  return all;
}

std::vector<std::pair<std::string, double>> Drain(dist::MergeStream* merge) {
  std::vector<std::pair<std::string, double>> out;
  while (auto e = merge->Next()) out.emplace_back(e->key, e->score);
  return out;
}

std::vector<std::unique_ptr<dist::ShardSource>> MakeSources(
    const std::vector<std::vector<dist::MergeEntry>>& streams) {
  std::vector<std::unique_ptr<dist::ShardSource>> sources;
  for (size_t i = 0; i < streams.size(); ++i) {
    dist::ShardCoverage coverage;
    coverage.shard_id = static_cast<int>(i);
    sources.push_back(
        std::make_unique<dist::VectorShardSource>(streams[i], coverage));
  }
  return sources;
}

TEST(MergeStreamTest, PropertyFuzzPreservesGlobalRankOrder) {
  const uint64_t seed = TestSeed(20260811);
  SCOPED_TRACE(SeedTrace(seed));
  Rng rng(seed);
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const int num_sources = static_cast<int>(rng.UniformInt(1, 6));
    std::vector<std::vector<dist::MergeEntry>> streams(num_sources);
    for (int s = 0; s < num_sources; ++s) {
      // ~1 in 4 sources is empty; tie clusters come from the coarse score
      // grid (multiples of 1/8 in [0, 2]) shared by every source, and
      // equal-score runs from zero-decrements within a stream.
      if (rng.UniformInt(0, 3) == 0) continue;
      const int keys = static_cast<int>(rng.UniformInt(1, 3));
      double score = static_cast<double>(rng.UniformInt(8, 16)) / 8.0;
      const int entries = static_cast<int>(rng.UniformInt(1, 8));
      for (int e = 0; e < entries; ++e) {
        char key[32];
        std::snprintf(key, sizeof(key), "s%dk%d", s,
                      static_cast<int>(rng.UniformInt(0, keys - 1)));
        streams[s].push_back(Entry(key, score));
        score -= static_cast<double>(rng.UniformInt(0, 2)) / 8.0;
      }
      // A real shard stream is ranked (score desc, key asc); random key
      // picks can violate the key order inside an equal-score run, so
      // normalize. The stable sort keeps duplicate (score, key) entries
      // in arrival order — exactly the per-source FIFO contract.
      std::stable_sort(streams[s].begin(), streams[s].end(),
                       [](const dist::MergeEntry& a,
                          const dist::MergeEntry& b) {
                         if (a.score != b.score) return a.score > b.score;
                         return a.key < b.key;
                       });
    }
    dist::MergeStream merge(MakeSources(streams));
    EXPECT_EQ(Drain(&merge), ExpectedOrder(streams));
    for (const dist::ShardCoverage& c : merge.Coverage()) {
      EXPECT_FALSE(c.failed);
    }
  }
}

TEST(MergeStreamTest, CrossShardTieClusterBreaksByKeyThenFifo) {
  // Three shards, one fat tie at score 0.5 spanning all of them, plus a
  // same-key run inside shard 1 that must stay in arrival order.
  std::vector<std::vector<dist::MergeEntry>> streams = {
      {Entry("b", 0.5), Entry("b", 0.5), Entry("a", 0.25)},
      {Entry("a2", 0.5), Entry("a2", 0.25)},
      {Entry("c", 0.9), Entry("z", 0.5)},
  };
  dist::MergeStream merge(MakeSources(streams));
  const std::vector<std::pair<std::string, double>> expected = {
      {"c", 0.9},  {"a2", 0.5}, {"b", 0.5},   {"b", 0.5},
      {"z", 0.5},  {"a", 0.25}, {"a2", 0.25},
  };
  EXPECT_EQ(Drain(&merge), expected);
  EXPECT_EQ(merge.answers(), 7);
}

TEST(MergeStreamTest, EmptyAndAllEmptySourcesMergeCleanly) {
  std::vector<std::vector<dist::MergeEntry>> streams(3);
  dist::MergeStream empty_merge(MakeSources(streams));
  EXPECT_EQ(Drain(&empty_merge).size(), 0u);
  EXPECT_EQ(empty_merge.Coverage().size(), 3u);

  dist::MergeStream no_sources({});
  EXPECT_FALSE(no_sources.Next().has_value());
}

TEST(MergeStreamTest, OrderViolatingSourceIsClosedWithCleanPrefix) {
  // Shard 0 lies: its third entry's score goes UP. The merge must keep
  // its first two entries, close the stream, and not disturb shard 1.
  std::vector<std::vector<dist::MergeEntry>> streams = {
      {Entry("a", 0.9), Entry("a", 0.5), Entry("a", 0.8), Entry("a", 0.7)},
      {Entry("b", 0.6), Entry("b", 0.4)},
  };
  dist::MergeStream merge(MakeSources(streams));
  const std::vector<std::pair<std::string, double>> expected = {
      {"a", 0.9}, {"b", 0.6}, {"a", 0.5}, {"b", 0.4}};
  EXPECT_EQ(Drain(&merge), expected);
  std::vector<dist::ShardCoverage> coverage = merge.Coverage();
  ASSERT_EQ(coverage.size(), 2u);
  EXPECT_TRUE(coverage[0].failed);
  EXPECT_FALSE(coverage[0].status.ok());
  EXPECT_EQ(coverage[0].answers, 2);
  EXPECT_FALSE(coverage[1].failed);
  EXPECT_EQ(coverage[1].answers, 2);
}

TEST(MergeStreamTest, EqualScoreSameKeyViolationMustNotReorder) {
  // Ties are legal (equal scores), but a key going BACKWARD at equal
  // score would break per-sequence rank order — the merge closes there.
  std::vector<std::vector<dist::MergeEntry>> streams = {
      {Entry("m", 0.5), Entry("z", 0.5), Entry("m", 0.5)},
  };
  dist::MergeStream merge(MakeSources(streams));
  const std::vector<std::pair<std::string, double>> expected = {
      {"m", 0.5}, {"z", 0.5}};
  EXPECT_EQ(Drain(&merge), expected);
  EXPECT_TRUE(merge.Coverage()[0].failed);
}

TEST(WorkerListTest, ParsesHostPortPairs) {
  auto workers = dist::ParseWorkerList("127.0.0.1:80,example.com:8443");
  ASSERT_TRUE(workers.ok()) << workers.status().ToString();
  ASSERT_EQ(workers->size(), 2u);
  EXPECT_EQ((*workers)[0].host, "127.0.0.1");
  EXPECT_EQ((*workers)[0].port, 80);
  EXPECT_EQ((*workers)[1].host, "example.com");
  EXPECT_EQ((*workers)[1].port, 8443);
}

TEST(WorkerListTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(dist::ParseWorkerList("").ok());
  EXPECT_FALSE(dist::ParseWorkerList("no-port").ok());
  EXPECT_FALSE(dist::ParseWorkerList("host:").ok());
  EXPECT_FALSE(dist::ParseWorkerList("host:0").ok());
  EXPECT_FALSE(dist::ParseWorkerList("host:99999").ok());
  // Values that wrap a 32-bit int (to 80 and to INT_MIN) are still out of
  // range, not silently accepted.
  EXPECT_FALSE(dist::ParseWorkerList("h:4294967376").ok());
  EXPECT_FALSE(dist::ParseWorkerList("h:2147483648").ok());
  EXPECT_FALSE(dist::ParseWorkerList("host:12ab").ok());
  EXPECT_FALSE(dist::ParseWorkerList("a:1,,b:2").ok());
}

TEST(MergeStreamTest, CoverageJsonShapeIsStable) {
  dist::ShardCoverage ok;
  ok.shard_id = 0;
  ok.sequences = 2;
  ok.answers = 5;
  dist::ShardCoverage bad;
  bad.shard_id = 1;
  bad.failed = true;
  bad.status = Status::Internal("boom \"quoted\"");
  EXPECT_EQ(
      dist::CoverageJson({ok, bad}),
      "[{\"shard\":0,\"sequences\":2,\"failed_sequences\":0,\"answers\":5,"
      "\"complete\":true,\"truncated\":false,\"reason\":\"NONE\"},"
      "{\"shard\":1,\"sequences\":0,\"failed_sequences\":0,\"answers\":0,"
      "\"complete\":false,\"truncated\":false,\"reason\":\"NONE\","
      "\"error\":\"INTERNAL: boom \\\"quoted\\\"\"}]");
}

}  // namespace
}  // namespace tms
