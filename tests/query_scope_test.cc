// Tests for request-scoped observability (obs/query_scope.h): per-query
// metric attribution layered over the global registry, trace-context
// propagation across exec::ThreadPool tasks, and span parentage under the
// query root — including the acceptance scenario of two concurrent
// queries on one shared pool with disjoint counters and byte-identical
// answer streams. `ctest -L obs` runs these; configure with
// -DTMS_SANITIZE=thread for the data-race version.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "db/batch_evaluator.h"
#include "db/collection.h"
#include "exec/thread_pool.h"
#include "obs/obs.h"
#include "projector/sprojector.h"
#include "query/answers.h"
#include "query/emax_enum.h"
#include "test_util.h"
#include "transducer/transducer.h"
#include "workload/random_models.h"

namespace tms {
namespace {

using obs::QueryScope;
using obs::TraceEvent;
using ranking::ScoredAnswer;
using transducer::Transducer;

class QueryScopeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::Registry::Global().Reset();
    obs::SetTracingEnabled(false);
    obs::Tracer::Global().Clear();
  }
  void TearDown() override {
    obs::SetTracingEnabled(false);
    obs::Tracer::Global().Clear();
  }
};

markov::MarkovSequence RandomMu(Rng& rng, int n = 6) {
  return workload::RandomMarkovSequence(3, n, 2, rng);
}

Transducer RandomT(const Alphabet& nodes, Rng& rng) {
  workload::RandomTransducerOptions opts;
  opts.num_states = 3;
  opts.max_emission = 2;
  opts.output_symbols = 2;
  opts.deterministic = false;
  return workload::RandomTransducer(nodes, opts, rng);
}

// The answer pipeline alone counts and times answers. Drained under its
// own scope, each mode's stream leaves exactly one delay histogram, the
// pipeline's, with one sample per answer; the two confidence modes time
// one confidence per answer; and no counter or histogram that would only
// repeat one of those counts, or a histogram's count, is recorded.
TEST_F(QueryScopeTest, EachAnswerModeRecordsOneDelayHistogram) {
#if !TMS_OBS_ACTIVE
  GTEST_SKIP() << "metrics are compiled out";
#endif
  Rng rng(4343);
  const markov::MarkovSequence mu = RandomMu(rng);
  const query::Query t = RandomT(mu.nodes(), rng);
  const markov::MarkovSequence mu2 =
      workload::RandomMarkovSequence(2, 4, 2, rng);
  auto p = projector::SProjector::FromRegex(workload::MakeSymbols(2, "n"),
                                            ". *", "n0 +", ". *");
  ASSERT_TRUE(p.ok()) << p.status();
  const query::Query sproj = *p;
  exec::ThreadPool pool(2);

  struct ModeCase {
    const char* label;
    const markov::MarkovSequence* mu;
    const query::Query* query;
    query::AnswerMode mode;
    const char* delay;       // the one *.delay_ns histogram
    const char* confidence;  // its confidence timing, or null
  };
  const ModeCase cases[] = {
      {"ranked transducer", &mu, &t, query::AnswerMode::kRanked,
       "query.topk.delay_ns", "query.topk.confidence_ns"},
      {"ranked s-projector", &mu2, &sproj, query::AnswerMode::kRanked,
       "query.topk.delay_ns", "query.topk.confidence_ns"},
      {"enum", &mu, &t, query::AnswerMode::kEnum, "query.enum.delay_ns",
       nullptr},
      {"two-step", &mu, &t, query::AnswerMode::kTwoStep,
       "query.twostep.delay_ns", "query.twostep.confidence_ns"},
  };
  const char* const kDeleted[] = {
      "automata.determinize.calls",   "automata.minimize.calls",
      "automata.product.calls",       "exec.pool.batches",
      "obs.query.count",              "optimize.passes",
      "projector.imax_enum.answers",  "projector.imax_enum.dag_builds",
      "projector.imax_enum.delay_ns", "query.emax_enum.answers",
      "query.emax_enum.delay_ns",     "query.topk.answers",
      "query.topk.confidence_calls",  "query.twostep.answers",
      "query.twostep.confidence_calls", "query.unranked_enum.answers",
      "query.unranked_enum.delay_ns", "ranking.lawler.answers",
      "ranking.lawler.delay_ns",      "ranking.lawler.pops",
      "serve.answers_streamed",       "transducer.compose.calls",
  };
  auto expect_no_deleted_name = [&](const obs::RegistrySnapshot& snap,
                                    const std::string& where) {
    for (const char* name : kDeleted) {
      EXPECT_EQ(snap.counters.count(name) + snap.gauges.count(name) +
                    snap.histograms.count(name),
                0u)
          << where << " records " << name;
    }
  };
  for (const ModeCase& c : cases) {
    SCOPED_TRACE(c.label);
    QueryScope scope(c.label);
    // A pool on the ranked transducer: its child solves and confidence
    // run on the workers, which adopt this scope.
    const exec::EngineOptions options{
        .pool = c.query == &t && c.mode == query::AnswerMode::kRanked
                    ? &pool
                    : nullptr};
    auto pipeline =
        query::AnswerPipeline::Create(*c.mu, *c.query, c.mode, options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status();
    auto answers = pipeline->Take(50);
    ASSERT_TRUE(answers.ok()) << answers.status();
    ASSERT_FALSE(answers->empty());
    const int64_t n = static_cast<int64_t>(answers->size());

    const obs::RegistrySnapshot snap = scope.Snapshot();
    std::vector<std::string> delays;
    for (const auto& [name, hist] : snap.histograms) {
      const std::string suffix = ".delay_ns";
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
        delays.push_back(name);
      }
    }
    EXPECT_EQ(delays, std::vector<std::string>{c.delay});
    ASSERT_EQ(snap.histograms.count(c.delay), 1u);
    EXPECT_EQ(snap.histograms.at(c.delay).count, n);
    if (c.confidence != nullptr) {
      ASSERT_EQ(snap.histograms.count(c.confidence), 1u);
      EXPECT_EQ(snap.histograms.at(c.confidence).count, n);
    }
    expect_no_deleted_name(snap, c.label);
  }
  // The process totals, the closed scopes' summary included.
  expect_no_deleted_name(obs::Registry::Global().Snapshot(), "global");
}

#if TMS_OBS_ACTIVE

std::vector<ScoredAnswer> DrainEmax(const markov::MarkovSequence& mu,
                                    const Transducer& t,
                                    exec::ThreadPool* pool, int limit = 50) {
  query::EmaxEnumerator it(mu, t, {.pool = pool});
  std::vector<ScoredAnswer> out;
  while (static_cast<int>(out.size()) < limit) {
    auto answer = it.Next();
    if (!answer.has_value()) break;
    out.push_back(std::move(*answer));
  }
  return out;
}

// Every span attributed to `qid` must parent under another span of the
// same query or directly under the query's root span; the root span
// itself ("obs.query", emitted at scope close) is the only one allowed a
// zero parent. Returns the number of spans checked.
int ExpectParentedUnderRoot(const std::vector<TraceEvent>& events,
                            uint64_t qid, uint64_t root) {
  std::set<uint64_t> ids{root};
  for (const TraceEvent& e : events) {
    if (e.query_id == qid) ids.insert(e.span_id);
  }
  int checked = 0;
  for (const TraceEvent& e : events) {
    if (e.query_id != qid) continue;
    ++checked;
    if (e.span_id == root) {
      EXPECT_EQ(e.parent_id, 0u) << "root span must be top-level";
      continue;
    }
    EXPECT_NE(e.span_id, 0u) << e.name;
    EXPECT_TRUE(ids.count(e.parent_id) != 0)
        << e.name << " span " << e.span_id << " parent " << e.parent_id
        << " escapes query " << qid;
  }
  return checked;
}

TEST_F(QueryScopeTest, RoutesMetricsToScopeAndGlobal) {
  QueryScope scope("unit");
  TMS_OBS_COUNT("scope.test.counter", 3);
  TMS_OBS_HISTOGRAM("scope.test.hist", 7);
  TMS_OBS_GAUGE_SET("scope.test.gauge", 1.5);
  obs::RegistrySnapshot local = scope.Snapshot();
  EXPECT_EQ(local.counters.at("scope.test.counter"), 3);
  EXPECT_EQ(local.histograms.at("scope.test.hist").count, 1);
  EXPECT_DOUBLE_EQ(local.gauges.at("scope.test.gauge"), 1.5);
  EXPECT_EQ(obs::Registry::Global().counter("scope.test.counter").value(), 3);
}

TEST_F(QueryScopeTest, ClosePublishesQuerySummary) {
  { QueryScope scope("summary"); }
  EXPECT_EQ(
      obs::Registry::Global().histogram("obs.query.duration_ns").count(), 1);
}

TEST_F(QueryScopeTest, NestedScopesAttributeToInnermost) {
  QueryScope outer("outer");
  TMS_OBS_COUNT("scope.nest", 1);
  {
    QueryScope inner("inner");
    EXPECT_NE(inner.query_id(), outer.query_id());
    EXPECT_EQ(QueryScope::Current(), &inner);
    TMS_OBS_COUNT("scope.nest", 10);
    EXPECT_EQ(inner.Snapshot().counters.at("scope.nest"), 10);
  }
  EXPECT_EQ(QueryScope::Current(), &outer);
  EXPECT_EQ(outer.Snapshot().counters.at("scope.nest"), 1);
  EXPECT_EQ(obs::Registry::Global().counter("scope.nest").value(), 11);
}

TEST_F(QueryScopeTest, AdoptionReattributesToCapturedScope) {
  QueryScope a("query-a");
  obs::TraceContext ctx_a = obs::CurrentTraceContext();
  QueryScope b("query-b");
  TMS_OBS_COUNT("scope.adopt", 1);  // innermost: b
  {
    obs::ScopeAdoption adopt(ctx_a);
    EXPECT_EQ(QueryScope::Current(), &a);
    TMS_OBS_COUNT("scope.adopt", 100);  // adopted: a
  }
  EXPECT_EQ(QueryScope::Current(), &b);
  EXPECT_EQ(a.Snapshot().counters.at("scope.adopt"), 100);
  EXPECT_EQ(b.Snapshot().counters.at("scope.adopt"), 1);
}

TEST_F(QueryScopeTest, InterleavedScopesOnTwoThreadsStayDisjoint) {
  // Two threads each run their own query; a spin barrier forces the
  // scopes to be alive and mutating at the same time. Neither scope may
  // see the other's increments.
  std::atomic<int> ready{0};
  int64_t got_a = 0, got_b = 0;
  auto run = [&ready](const char* name, int64_t n, int64_t* got) {
    QueryScope scope(name);
    ready.fetch_add(1);
    while (ready.load() < 2) {}
    for (int64_t i = 0; i < n; ++i) TMS_OBS_COUNT("scope.interleaved", 1);
    auto snapshot = scope.Snapshot();
    auto it = snapshot.counters.find("scope.interleaved");
    *got = it == snapshot.counters.end() ? 0 : it->second;
  };
  std::thread ta(run, "query-a", 1000, &got_a);
  std::thread tb(run, "query-b", 11, &got_b);
  ta.join();
  tb.join();
  EXPECT_EQ(got_a, 1000);
  EXPECT_EQ(got_b, 11);
  EXPECT_EQ(obs::Registry::Global().counter("scope.interleaved").value(),
            1011);
}

TEST_F(QueryScopeTest, LawlerChildSolveSpansNestUnderQueryRoot) {
  // The core tentpole claim: with parallel Lawler child solves, the
  // subspace_solve spans run on pool workers but still parent (possibly
  // transitively) under this query's root span — at every thread count.
  obs::SetTracingEnabled(true);
  Rng rng(4242);
  markov::MarkovSequence mu = RandomMu(rng);
  Transducer t = RandomT(mu.nodes(), rng);
  for (int threads : {1, 2, 8}) {
    obs::Tracer::Global().Clear();
    uint64_t qid = 0, root = 0;
    std::vector<ScoredAnswer> answers;
    {
      exec::ThreadPool pool(threads - 1);
      QueryScope scope("lawler-parentage");
      qid = scope.query_id();
      root = scope.root_span_id();
      answers = DrainEmax(mu, t, threads > 1 ? &pool : nullptr);
    }
    ASSERT_FALSE(answers.empty()) << "threads=" << threads;
    std::vector<TraceEvent> events = obs::Tracer::Global().Events();
    int checked = ExpectParentedUnderRoot(events, qid, root);
    EXPECT_GT(checked, 0) << "threads=" << threads;
    int solves = 0;
    for (const TraceEvent& e : events) {
      if (e.query_id == qid &&
          std::string_view(e.name) == "query.emax_enum.subspace_solve") {
        ++solves;
      }
    }
    EXPECT_GT(solves, 0) << "threads=" << threads;
  }
}

TEST_F(QueryScopeTest, ConcurrentBatchQueriesOnSharedPoolStayDisjoint) {
  // The acceptance scenario: two concurrent queries through
  // db::BatchEvaluator on ONE shared pool. Each must (a) reproduce the
  // sequential answer stream byte-for-byte, (b) report exactly its own
  // per-query counters, and (c) own a span tree parented under its own
  // root, never the other query's.
  obs::SetTracingEnabled(true);
  Rng rng(99);
  markov::MarkovSequence seed_a = RandomMu(rng, 5);
  db::SequenceCollection coll_a(seed_a.nodes());
  ASSERT_TRUE(coll_a.Insert("a-0", seed_a).ok());
  for (int i = 1; i < 4; ++i) {
    ASSERT_TRUE(coll_a.Insert("a-" + std::to_string(i),
                              workload::RandomMarkovSequence(3, 4 + i, 2, rng))
                    .ok());
  }
  Transducer t_a = RandomT(coll_a.nodes(), rng);
  markov::MarkovSequence seed_b = RandomMu(rng, 6);
  db::SequenceCollection coll_b(seed_b.nodes());
  ASSERT_TRUE(coll_b.Insert("b-0", seed_b).ok());
  ASSERT_TRUE(
      coll_b.Insert("b-1", workload::RandomMarkovSequence(3, 5, 2, rng)).ok());
  Transducer t_b = RandomT(coll_b.nodes(), rng);

  // Sequential baselines, outside any scope.
  auto BaselineRows = [](const db::SequenceCollection& coll,
                         const Transducer& t) {
    db::BatchEvaluator::Options options;  // threads=1, owned no-op pool
    auto batch = db::BatchEvaluator::Create(&coll, &t, options);
    EXPECT_TRUE(batch.ok());
    auto rows = testing::BatchRows(batch->EvaluateAll(3));
    EXPECT_TRUE(rows.ok());
    return std::move(*rows);
  };
  auto want_a = BaselineRows(coll_a, t_a);
  auto want_b = BaselineRows(coll_b, t_b);

  exec::ThreadPool shared(3);
  obs::Tracer::Global().Clear();
  struct QueryOutcome {
    uint64_t qid = 0;
    uint64_t root = 0;
    int64_t sequences = 0;
    std::vector<db::SequenceCollection::Row> rows;
  };
  std::atomic<int> ready{0};
  auto run = [&shared, &ready](const char* name,
                               const db::SequenceCollection* coll,
                               const Transducer* t, QueryOutcome* out) {
    QueryScope scope(name);
    out->qid = scope.query_id();
    out->root = scope.root_span_id();
    ready.fetch_add(1);
    while (ready.load() < 2) {}
    db::BatchEvaluator::Options options;
    options.pool = &shared;
    auto batch = db::BatchEvaluator::Create(coll, t, options);
    ASSERT_TRUE(batch.ok());
    auto rows = testing::BatchRows(batch->EvaluateAll(3));
    ASSERT_TRUE(rows.ok());
    out->rows = std::move(*rows);
    auto snapshot = scope.Snapshot();
    auto it = snapshot.counters.find("db.batch.sequences");
    out->sequences = it == snapshot.counters.end() ? 0 : it->second;
  };
  QueryOutcome out_a, out_b;
  std::thread qa(run, "batch-a", &coll_a, &t_a, &out_a);
  std::thread qb(run, "batch-b", &coll_b, &t_b, &out_b);
  qa.join();
  qb.join();

  // (a) byte-identical answer streams.
  auto ExpectSameRows = [](const std::vector<db::SequenceCollection::Row>& got,
                           const std::vector<db::SequenceCollection::Row>&
                               want) {
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].key, want[i].key);
      EXPECT_EQ(got[i].answer.output, want[i].answer.output);
      EXPECT_EQ(got[i].answer.emax, want[i].answer.emax);
      EXPECT_EQ(got[i].answer.confidence, want[i].answer.confidence);
    }
  };
  ExpectSameRows(out_a.rows, want_a);
  ExpectSameRows(out_b.rows, want_b);

  // (b) disjoint per-query counters: each scope saw exactly its own
  // sequences, even though both batches drained on the same workers.
  EXPECT_EQ(out_a.sequences, 4);
  EXPECT_EQ(out_b.sequences, 2);

  // (c) correctly parented span trees, one per query.
  ASSERT_NE(out_a.qid, out_b.qid);
  std::vector<TraceEvent> events = obs::Tracer::Global().Events();
  EXPECT_GT(ExpectParentedUnderRoot(events, out_a.qid, out_a.root), 0);
  EXPECT_GT(ExpectParentedUnderRoot(events, out_b.qid, out_b.root), 0);
}

#endif  // TMS_OBS_ACTIVE

// A TMS_OBS_* macro evaluates its value operand once, so the query scope
// and the global registry record the same sample even when the operand
// has side effects, like the Stopwatch::Lap() of
// query.emax_enum.compose_ns. A compiled-out macro evaluates nothing.
TEST(ObsMacroTest, ValueOperandIsEvaluatedOnce) {
  obs::SetEnabled(true);
  obs::Registry::Global().Reset();
  int evaluations = 0;
  auto sample = [&evaluations] { return ++evaluations * 1000; };
  obs::QueryScope scope("macro");
  TMS_OBS_HISTOGRAM("scope.once.hist", sample());
  TMS_OBS_COUNT("scope.once.counter", sample());
  TMS_OBS_GAUGE_SET("scope.once.gauge", sample());
#if TMS_OBS_ACTIVE
  EXPECT_EQ(evaluations, 3);
  obs::RegistrySnapshot local = scope.Snapshot();
  obs::RegistrySnapshot global = obs::Registry::Global().Snapshot();
  for (const obs::RegistrySnapshot* snap : {&local, &global}) {
    const obs::HistogramSnapshot& hist = snap->histograms.at("scope.once.hist");
    EXPECT_EQ(hist.count, 1);
    EXPECT_EQ(hist.sum, 1000);
    EXPECT_EQ(snap->counters.at("scope.once.counter"), 2000);
    EXPECT_DOUBLE_EQ(snap->gauges.at("scope.once.gauge"), 3000.0);
  }
#else
  (void)sample;
  EXPECT_EQ(evaluations, 0);
#endif
}

}  // namespace
}  // namespace tms
