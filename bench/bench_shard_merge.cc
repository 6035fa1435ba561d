// Sharded batch evaluation vs the single-process reference.
//
// The scatter/gather path (docs/DISTRIBUTED.md) runs one BatchEvaluator
// per shard and k-way-merges the per-shard ranked streams. This bench
// reports:
//
//   1. an equivalence check with a timing: EvaluateSharded at shards ∈
//      {1, 2, 4, 8} against the plain EvaluateAll + RankedReferenceRows
//      pipeline on the same collection, asserting the merged rows stay
//      byte-identical to the reference (serialized through the wire
//      formatter, exactly what the differential suite pins).
//      EvaluateSharded runs its shards one after another in a serial
//      loop (each on its own 4-thread pool), so the shards=N time is the
//      cost of N smaller batches in sequence plus the merge — it
//      measures no shard-level parallelism;
//   2. the raw MergeStream over in-memory sources — entries/second as
//      the source count grows, the heap cost isolated from evaluation.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "db/batch_evaluator.h"
#include "db/collection.h"
#include "dist/merge_stream.h"
#include "dist/sharded_batch.h"
#include "serve/wire.h"
#include "strings/str.h"
#include "transducer/transducer.h"
#include "workload/random_models.h"

namespace tms {
namespace {

struct Instance {
  Alphabet alphabet;
  db::SequenceCollection collection{Alphabet()};
  transducer::Transducer query{Alphabet(), Alphabet()};
};

// A collection heavy enough that per-shard evaluation dominates setup:
// `count` random inhomogeneous models over an 8-symbol alphabet, plus a
// random 3-state transducer with identity loops grafted onto state 0 so
// every sequence has a nonempty ranked stream.
Instance MakeInstance(int count, uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  inst.alphabet = workload::MakeSymbols(8, "n");
  inst.collection = db::SequenceCollection(inst.alphabet);
  for (int i = 0; i < count; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "seq%03d", i);
    Status st = inst.collection.Insert(
        key, workload::RandomMarkovSequence(8, 12, 4, rng));
    if (!st.ok()) std::abort();
  }
  workload::RandomTransducerOptions opts;
  opts.num_states = 3;
  opts.max_emission = 1;
  opts.output_symbols = static_cast<int>(inst.alphabet.size());
  inst.query = workload::RandomTransducer(inst.alphabet, opts, rng);
  inst.query.SetAccepting(0);
  for (Symbol s = 0; s < static_cast<Symbol>(inst.alphabet.size()); ++s) {
    (void)inst.query.AddTransition(0, s, 0, Str{s});
  }
  return inst;
}

std::string SerializeRows(const Alphabet& output,
                          const std::vector<dist::RankedRow>& rows) {
  std::string out;
  for (const dist::RankedRow& row : rows) {
    serve::AppendBatchRowJson(row.key, FormatStr(output, row.answer.output),
                              row.answer.emax, row.answer.confidence, &out);
    out += '\n';
  }
  return out;
}

void PrintShardTable() {
  bench::PrintHeader(
      "Sharded batch equivalence check with a timing (64 sequences, k=4)",
      "EvaluateSharded splits the collection, evaluates the shards one "
      "after another, and k-way-merges the ranked streams; the merged "
      "bytes must equal the reference at every shard count. The shards "
      "run serially, so the time ratio measures no shard-level "
      "parallelism.");
  const int k = 4;
  Instance inst = MakeInstance(64, 2026);

  db::BatchEvaluator::Options ref_options;
  ref_options.threads = 4;
  auto ref_batch =
      db::BatchEvaluator::Create(&inst.collection, &inst.query, ref_options);
  if (!ref_batch.ok()) std::abort();
  Stopwatch ref_watch;
  const std::vector<dist::RankedRow> reference =
      dist::RankedReferenceRows(ref_batch->EvaluateAll(k));
  const double reference_ms = ref_watch.ElapsedSeconds() * 1e3;
  const std::string reference_bytes =
      SerializeRows(inst.query.output_alphabet(), reference);
  std::printf("reference: EvaluateAll + rank sort, threads=4: %.2f ms, "
              "%zu rows\n\n",
              reference_ms, reference.size());
  bench::Report::Global().AddMetric("reference_ms", reference_ms);
  bench::Report::Global().AddMetric("rows",
                                    static_cast<double>(reference.size()));

  std::printf("%-8s %-14s %-14s %-6s\n", "shards", "sharded (ms)",
              "vs reference", "same?");
  for (int shards : {1, 2, 4, 8}) {
    dist::ShardedBatchOptions options;
    options.shards = shards;
    options.batch.threads = 4;
    Stopwatch watch;
    auto sharded = dist::EvaluateSharded(inst.collection, inst.query, k,
                                         options);
    const double sharded_ms = watch.ElapsedSeconds() * 1e3;
    if (!sharded.ok()) std::abort();
    const bool same =
        sharded->complete() &&
        SerializeRows(inst.query.output_alphabet(), sharded->rows) ==
            reference_bytes;
    const double ratio = reference_ms > 0 ? sharded_ms / reference_ms : 0;
    std::printf("%-8d %-14.2f %-14.2f %s\n", shards, sharded_ms, ratio,
                same ? "yes" : "NO");
    std::string prefix = "shards=" + std::to_string(shards) + ".";
    bench::Report::Global().AddMetric(prefix + "evaluate_ms", sharded_ms);
    bench::Report::Global().AddMetric(prefix + "time_ratio", ratio);
    bench::Report::Global().AddMetric(prefix + "identical", same ? 1.0 : 0.0);
  }
  std::printf("\n");
}

// The heap merge isolated: `sources` in-memory streams of `per_source`
// ranked entries each, drained to exhaustion.
std::vector<std::vector<dist::MergeEntry>> MakeStreams(int sources,
                                                       int per_source) {
  std::vector<std::vector<dist::MergeEntry>> streams(
      static_cast<size_t>(sources));
  for (int s = 0; s < sources; ++s) {
    double score = 1.0;
    for (int i = 0; i < per_source; ++i) {
      dist::MergeEntry e;
      char key[32];
      std::snprintf(key, sizeof(key), "s%02dk%05d", s, i);
      e.key = key;
      e.score = score;
      e.answer.emax = score;
      streams[static_cast<size_t>(s)].push_back(std::move(e));
      score *= 0.999;
    }
  }
  return streams;
}

void BM_MergeDrain(benchmark::State& state) {
  const int sources = static_cast<int>(state.range(0));
  const int per_source = 4096 / sources;  // constant total entries
  const auto streams = MakeStreams(sources, per_source);
  int64_t drained = 0;
  for (auto _ : state) {
    std::vector<std::unique_ptr<dist::ShardSource>> shard_sources;
    shard_sources.reserve(streams.size());
    for (size_t i = 0; i < streams.size(); ++i) {
      dist::ShardCoverage coverage;
      coverage.shard_id = static_cast<int>(i);
      shard_sources.push_back(
          std::make_unique<dist::VectorShardSource>(streams[i], coverage));
    }
    dist::MergeStream merge(std::move(shard_sources));
    while (auto e = merge.Next()) {
      benchmark::DoNotOptimize(e->score);
      ++drained;
    }
  }
  state.SetItemsProcessed(drained);
  state.counters["sources"] = static_cast<double>(sources);
}
BENCHMARK(BM_MergeDrain)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
}  // namespace tms

int main(int argc, char** argv) {
  tms::bench::Session session("shard_merge");
  tms::PrintShardTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
