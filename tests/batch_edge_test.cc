// db::BatchEvaluator edge and error behavior: empty collections, the
// minimal (length-1) sequence, a sequence failing mid-batch via an
// injected fault, and shared RunContext limits across a batch. The
// EvaluateAll contract under test: one sequence's failure or truncation
// NEVER aborts the batch — every sequence comes back with its own Status.
// Part of `ctest -L robustness`.

#include "db/batch_evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/collection.h"
#include "exec/fault.h"
#include "exec/run_context.h"
#include "test_util.h"
#include "workload/random_models.h"

namespace tms {
namespace {

transducer::Transducer CopyQuery(const Alphabet& input, Rng& rng) {
  workload::RandomTransducerOptions opts;
  opts.num_states = 2;
  opts.max_emission = 1;
  opts.density = 1.2;
  return workload::RandomTransducer(input, opts, rng);
}

db::SequenceCollection SmallCollection(Rng& rng, int count) {
  markov::MarkovSequence seed = workload::RandomMarkovSequence(2, 3, 2, rng);
  db::SequenceCollection collection(seed.nodes());
  EXPECT_TRUE(collection.Insert("seq-0", seed).ok());
  for (int i = 1; i < count; ++i) {
    EXPECT_TRUE(collection
                    .Insert("seq-" + std::to_string(i),
                            workload::RandomMarkovSequence(2, 3, 2, rng))
                    .ok());
  }
  return collection;
}

class BatchEdgeTest : public ::testing::Test {
 protected:
  void TearDown() override { exec::FaultInjector::Global().Reset(); }
};

TEST_F(BatchEdgeTest, EmptyCollectionYieldsEmptyResults) {
  Rng rng(4501);
  Alphabet nodes = workload::MakeSymbols(2);
  db::SequenceCollection collection(nodes);
  transducer::Transducer t = CopyQuery(nodes, rng);
  auto batch = db::BatchEvaluator::Create(&collection, &t);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->EvaluateAll(3).empty());
  auto rows = collection.TopKPerSequence(t, 3);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(BatchEdgeTest, MinimalLengthOneSequenceEvaluates) {
  // The shortest legal Markov sequence: one position, no transitions
  // (length = transitions + 1). The batch layer must treat it like any
  // other sequence.
  Rng rng(4502);
  Alphabet nodes = workload::MakeSymbols(2);
  auto mu = markov::MarkovSequence::Create(nodes, {0.75, 0.25}, {});
  ASSERT_TRUE(mu.ok()) << mu.status();
  db::SequenceCollection collection(nodes);
  ASSERT_TRUE(collection.Insert("tiny", *mu).ok());
  transducer::Transducer t = CopyQuery(nodes, rng);
  auto batch = db::BatchEvaluator::Create(&collection, &t);
  ASSERT_TRUE(batch.ok());
  std::vector<db::BatchEvaluator::SequenceResult> results =
      batch->EvaluateAll(5);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].key, "tiny");
  EXPECT_TRUE(results[0].status.ok()) << results[0].status;
  EXPECT_FALSE(results[0].truncated);
  // Ground truth agrees with whatever came out.
  auto truth = testing::BruteForceAnswers(*mu, t);
  EXPECT_EQ(results[0].answers.size(), std::min<size_t>(5, truth.size()));
  for (const query::AnswerInfo& info : results[0].answers) {
    EXPECT_TRUE(truth.count(info.output));
  }
}

TEST_F(BatchEdgeTest, OneFailingSequenceDoesNotAbortTheBatch) {
  Rng rng(4503);
  db::SequenceCollection collection = SmallCollection(rng, 4);
  transducer::Transducer t = CopyQuery(collection.nodes(), rng);
  db::BatchEvaluator::Options options;
  options.threads = 1;  // deterministic hit order: key order
  auto batch = db::BatchEvaluator::Create(&collection, &t, options);
  ASSERT_TRUE(batch.ok());
  // Unfaulted reference run.
  std::vector<db::BatchEvaluator::SequenceResult> want = batch->EvaluateAll(3);
  ASSERT_EQ(want.size(), 4u);
  for (const auto& r : want) ASSERT_TRUE(r.status.ok());

  // Fail the 2nd sequence's batch gate; with threads=1 the hits arrive in
  // key order, so "seq-1" is the victim.
  exec::FaultInjector::Global().ScheduleFailure("batch.pre_sequence",
                                                /*nth_hit=*/2);
  std::vector<db::BatchEvaluator::SequenceResult> got = batch->EvaluateAll(3);
  exec::FaultInjector::Global().Reset();
  ASSERT_EQ(got.size(), 4u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key);
    if (got[i].key == "seq-1") {
      EXPECT_EQ(got[i].status.code(), StatusCode::kInternal);
      EXPECT_TRUE(got[i].answers.empty());
      continue;
    }
    // Every other sequence is untouched — same answers as the clean run.
    EXPECT_TRUE(got[i].status.ok()) << got[i].status;
    ASSERT_EQ(got[i].answers.size(), want[i].answers.size());
    for (size_t j = 0; j < got[i].answers.size(); ++j) {
      EXPECT_EQ(got[i].answers[j].output, want[i].answers[j].output);
      EXPECT_EQ(got[i].answers[j].emax, want[i].answers[j].emax);
    }
  }
}

TEST_F(BatchEdgeTest, FirstSequenceFailureLeavesTheRestIntact) {
  // The very first sequence failing is the adversarial spot for the
  // status-isolation contract: the merge must not assume index 0
  // succeeded, and the survivors must match a clean run's answers.
  Rng rng(4507);
  db::SequenceCollection collection = SmallCollection(rng, 4);
  transducer::Transducer t = CopyQuery(collection.nodes(), rng);
  db::BatchEvaluator::Options options;
  options.threads = 1;  // deterministic hit order: key order
  auto batch = db::BatchEvaluator::Create(&collection, &t, options);
  ASSERT_TRUE(batch.ok());

  // Clean run: the reference for the survivors.
  std::vector<db::BatchEvaluator::SequenceResult> want = batch->EvaluateAll(3);
  ASSERT_EQ(want.size(), 4u);
  for (const auto& r : want) ASSERT_TRUE(r.status.ok());

  // With threads=1 the first hit is the first key: "seq-0" is the victim.
  exec::FaultInjector::Global().ScheduleFailure("batch.pre_sequence",
                                                /*nth_hit=*/1);
  std::vector<db::BatchEvaluator::SequenceResult> got = batch->EvaluateAll(3);
  exec::FaultInjector::Global().Reset();

  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].key, "seq-0");
  EXPECT_EQ(got[0].status.code(), StatusCode::kInternal);
  EXPECT_TRUE(got[0].answers.empty());
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_EQ(got[i].key, want[i].key);
    EXPECT_TRUE(got[i].status.ok()) << got[i].status;
    ASSERT_EQ(got[i].answers.size(), want[i].answers.size());
    for (size_t j = 0; j < got[i].answers.size(); ++j) {
      EXPECT_EQ(got[i].answers[j].output, want[i].answers[j].output);
      EXPECT_EQ(got[i].answers[j].emax, want[i].answers[j].emax);
    }
  }
}

TEST_F(BatchEdgeTest, SharedBudgetTruncatesLaterSequencesNotTheBatch) {
  Rng rng(4504);
  db::SequenceCollection collection = SmallCollection(rng, 4);
  transducer::Transducer t = CopyQuery(collection.nodes(), rng);
  db::BatchEvaluator::Options options;
  options.threads = 1;
  exec::RunContext run;
  run.set_work_budget(3);  // far less than 4 sequences need
  options.run = &run;
  auto batch = db::BatchEvaluator::Create(&collection, &t, options);
  ASSERT_TRUE(batch.ok());
  std::vector<db::BatchEvaluator::SequenceResult> results =
      batch->EvaluateAll(3);
  ASSERT_EQ(results.size(), 4u);  // the batch always completes
  bool saw_budget_stop = false;
  for (const auto& r : results) {
    if (r.status.code() == StatusCode::kBudgetExhausted) {
      saw_budget_stop = true;
      EXPECT_TRUE(r.truncated);
      EXPECT_EQ(r.reason, exec::StopReason::kBudget);
    } else {
      EXPECT_TRUE(r.status.ok()) << r.status;
    }
  }
  EXPECT_TRUE(saw_budget_stop);
  EXPECT_LE(run.work_charged(), 3);
}

TEST_F(BatchEdgeTest, ParentAnswerCapAppliesPerSequence) {
  Rng rng(4505);
  db::SequenceCollection collection = SmallCollection(rng, 3);
  transducer::Transducer t = CopyQuery(collection.nodes(), rng);
  db::BatchEvaluator::Options options;
  options.threads = 2;
  exec::RunContext run;
  run.set_max_answers(1);
  options.run = &run;
  auto batch = db::BatchEvaluator::Create(&collection, &t, options);
  ASSERT_TRUE(batch.ok());
  std::vector<db::BatchEvaluator::SequenceResult> results =
      batch->EvaluateAll(/*k=*/5);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.status.ok()) << r.key << ": " << r.status;
    EXPECT_LE(r.answers.size(), 1u) << r.key;
  }
}

TEST_F(BatchEdgeTest, CancellationStopsEverySequenceCleanly) {
  Rng rng(4506);
  db::SequenceCollection collection = SmallCollection(rng, 4);
  transducer::Transducer t = CopyQuery(collection.nodes(), rng);
  db::BatchEvaluator::Options options;
  options.threads = 2;
  exec::RunContext run;
  run.RequestCancel();  // cancelled before the batch even starts
  options.run = &run;
  auto batch = db::BatchEvaluator::Create(&collection, &t, options);
  ASSERT_TRUE(batch.ok());
  std::vector<db::BatchEvaluator::SequenceResult> results =
      batch->EvaluateAll(3);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_EQ(r.status.code(), StatusCode::kCancelled) << r.key;
    EXPECT_TRUE(r.answers.empty()) << r.key;
  }
}

TEST_F(BatchEdgeTest, EvaluateAllMatchesTopKPerSequenceWhenUnbounded) {
  Rng rng(4507);
  db::SequenceCollection collection = SmallCollection(rng, 3);
  transducer::Transducer t = CopyQuery(collection.nodes(), rng);
  auto batch = db::BatchEvaluator::Create(&collection, &t);
  ASSERT_TRUE(batch.ok());
  auto rows = collection.TopKPerSequence(t, 3);
  ASSERT_TRUE(rows.ok());
  std::vector<db::BatchEvaluator::SequenceResult> results =
      batch->EvaluateAll(3);
  size_t row = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.status.ok());
    EXPECT_FALSE(r.truncated);
    for (const query::AnswerInfo& info : r.answers) {
      ASSERT_LT(row, rows->size());
      EXPECT_EQ((*rows)[row].key, r.key);
      EXPECT_EQ((*rows)[row].answer.output, info.output);
      EXPECT_EQ((*rows)[row].answer.emax, info.emax);
      ++row;
    }
  }
  EXPECT_EQ(row, rows->size());
}

}  // namespace
}  // namespace tms
