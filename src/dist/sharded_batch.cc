#include "dist/sharded_batch.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "dist/shard_plan.h"
#include "exec/fault.h"
#include "obs/obs.h"

namespace tms::dist {

std::vector<RankedRow> RankedReferenceRows(
    const std::vector<db::BatchEvaluator::SequenceResult>& results) {
  std::vector<RankedRow> rows;
  for (const db::BatchEvaluator::SequenceResult& r : results) {
    for (const query::AnswerInfo& info : r.answers) {
      rows.push_back(RankedRow{r.key, info});
    }
  }
  // Stable: the input is key-major with per-sequence rank order inside,
  // so rows tying on (score, key) — necessarily the same sequence — keep
  // their rank order.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const RankedRow& a, const RankedRow& b) {
                     if (a.answer.emax != b.answer.emax) {
                       return a.answer.emax > b.answer.emax;
                     }
                     return a.key < b.key;
                   });
  return rows;
}

bool ShardedBatchResult::complete() const {
  for (const ShardCoverage& c : coverage) {
    if (c.failed || c.truncated) return false;
  }
  return true;
}

StatusOr<ShardedBatchResult> EvaluateSharded(
    const db::SequenceCollection& collection, const transducer::Transducer& t,
    int k, const ShardedBatchOptions& options) {
  TMS_OBS_COUNT("dist.batches", 1);
  const std::vector<ShardRange> plan =
      PlanShards(collection.Keys(), options.shards);
  std::vector<std::unique_ptr<ShardSource>> sources;
  sources.reserve(plan.size());
  for (const ShardRange& range : plan) {
    ShardCoverage coverage;
    coverage.shard_id = range.shard_id;
    if (TMS_FAULT_POINT("dist.pre_shard")) {
      // The whole shard is gone before it evaluated anything — the
      // merged batch carries on without it.
      coverage.failed = true;
      coverage.status = Status::Internal("injected fault at dist.pre_shard");
      sources.push_back(
          std::make_unique<VectorShardSource>(std::vector<MergeEntry>(),
                                              std::move(coverage)));
      continue;
    }
    auto shard = BuildShard(collection, range);
    if (!shard.ok()) return shard.status();
    auto batch = db::BatchEvaluator::Create(&*shard, &t, options.batch);
    if (!batch.ok()) return batch.status();
    std::vector<db::BatchEvaluator::SequenceResult> results =
        batch->EvaluateAll(k);
    coverage.sequences = static_cast<int64_t>(results.size());
    for (const db::BatchEvaluator::SequenceResult& r : results) {
      if (!r.status.ok()) ++coverage.failed_sequences;
      if (r.truncated) {
        coverage.truncated = true;
        if (coverage.reason == exec::StopReason::kNone) {
          coverage.reason = r.reason;
        }
      }
    }
    std::vector<MergeEntry> entries;
    for (RankedRow& row : RankedReferenceRows(results)) {
      MergeEntry entry;
      entry.key = std::move(row.key);
      entry.score = row.answer.emax;
      entry.answer = std::move(row.answer);
      entries.push_back(std::move(entry));
    }
    sources.push_back(std::make_unique<VectorShardSource>(
        std::move(entries), std::move(coverage)));
  }

  MergeStream merge(std::move(sources));
  ShardedBatchResult result;
  while (std::optional<MergeEntry> entry = merge.Next()) {
    result.rows.push_back(
        RankedRow{std::move(entry->key), std::move(entry->answer)});
  }
  result.coverage = merge.Coverage();
  return result;
}

}  // namespace tms::dist
