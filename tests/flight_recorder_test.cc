// Tests for the truncation flight recorder (obs/flight_recorder.h): ring
// recording and wrap-around, concurrent record/snapshot safety, dump
// triggering from exec::RunContext hard stops (budget / deadline /
// cancel / fault — never an answer cap), per-query dump deduplication,
// and the sink modes. `ctest -L obs` runs these.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "exec/run_context.h"
#include "obs/obs.h"

#if TMS_OBS_ACTIVE

namespace tms {
namespace {

using obs::FlightRecorder;
using obs::TraceEvent;

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::Registry::Global().Reset();
    FlightRecorder::Global().Clear();
    FlightRecorder::Global().SetDumpSink(FlightRecorder::Sink::kMemory);
  }
  void TearDown() override {
    FlightRecorder::Global().Clear();
    FlightRecorder::Global().SetDumpSink(FlightRecorder::Sink::kMemory);
  }

  static TraceEvent Event(const char* name, uint64_t span, uint64_t parent,
                          uint64_t query) {
    TraceEvent e;
    e.name = name;
    e.span_id = span;
    e.parent_id = parent;
    e.query_id = query;
    e.start_ns = 1000;
    e.duration_ns = 10;
    return e;
  }
};

TEST_F(FlightRecorderTest, RecordsAndSnapshotsInOrder) {
  FlightRecorder& r = FlightRecorder::Global();
  r.Record(Event("flight.a", 1, 0, 7));
  r.Record(Event("flight.b", 2, 1, 7));
  std::vector<TraceEvent> spans = r.SnapshotSpans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "flight.a");
  EXPECT_STREQ(spans[1].name, "flight.b");
  EXPECT_EQ(spans[1].parent_id, 1u);
  EXPECT_EQ(spans[1].query_id, 7u);
  EXPECT_EQ(r.dropped(), 0);
}

TEST_F(FlightRecorderTest, RingWrapsAndReportsDropped) {
  FlightRecorder& r = FlightRecorder::Global();
  const size_t total = FlightRecorder::kCapacity + 10;
  for (size_t i = 0; i < total; ++i) {
    r.Record(Event("flight.wrap", i + 1, 0, 1));
  }
  std::vector<TraceEvent> spans = r.SnapshotSpans();
  EXPECT_LE(spans.size(), FlightRecorder::kCapacity);
  EXPECT_EQ(r.dropped(), 10);
  // The survivors are the most recent records.
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.back().span_id, total);
}

TEST_F(FlightRecorderTest, ConcurrentRecordAndSnapshotIsSafe) {
  // Hammer the ring from several writers while a reader snapshots; the
  // per-slot sequence stamp must make every returned event internally
  // consistent (a name is never null/torn). Run under
  // -DTMS_SANITIZE=thread for the memory-model proof.
  FlightRecorder& r = FlightRecorder::Global();
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&r, w] {
      for (int i = 0; i < 5000; ++i) {
        r.Record(Event("flight.stress", static_cast<uint64_t>(w) * 10000 + i,
                       0, static_cast<uint64_t>(w)));
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    for (const TraceEvent& e : r.SnapshotSpans()) {
      ASSERT_NE(e.name, nullptr);
      EXPECT_STREQ(e.name, "flight.stress");
    }
  }
  for (std::thread& t : writers) t.join();
}

TEST_F(FlightRecorderTest, DumpJsonCarriesSpansAndQueries) {
  FlightRecorder& r = FlightRecorder::Global();
  r.Record(Event("flight.dumped", 3, 1, 9));
  obs::QueryEndEvent end;
  end.query_id = 9;
  end.name = "topk";
  end.duration_ns = 1234;
  end.counters.emplace_back("ranking.lawler.solver_calls", 5);
  r.RecordQueryEnd(std::move(end));
  std::string doc = r.DumpJson("BUDGET_EXHAUSTED", 9, "detail-string");
  EXPECT_NE(doc.find("\"tms_flight_dump\""), std::string::npos);
  EXPECT_NE(doc.find("\"reason\":\"BUDGET_EXHAUSTED\""), std::string::npos);
  EXPECT_NE(doc.find("\"query_id\":9"), std::string::npos);
  EXPECT_NE(doc.find("\"detail\":\"detail-string\""), std::string::npos);
  EXPECT_NE(doc.find("flight.dumped"), std::string::npos);
  EXPECT_NE(doc.find("\"ranking.lawler.solver_calls\":5"), std::string::npos);
}

TEST_F(FlightRecorderTest, OnTruncationDumpsOncePerQuery) {
  FlightRecorder& r = FlightRecorder::Global();
  EXPECT_EQ(r.dump_count(), 0);
  r.OnTruncation("DEADLINE_EXCEEDED", 42, "");
  EXPECT_EQ(r.dump_count(), 1);
  EXPECT_NE(r.LastDump().find("DEADLINE_EXCEEDED"), std::string::npos);
  // Same query id again (a batch whose shared deadline latches every
  // child stream): deduplicated.
  r.OnTruncation("DEADLINE_EXCEEDED", 42, "");
  EXPECT_EQ(r.dump_count(), 1);
  // A different query dumps.
  r.OnTruncation("CANCELLED", 43, "");
  EXPECT_EQ(r.dump_count(), 2);
  // Query id 0 (no scope) is never deduplicated.
  r.OnTruncation("BUDGET_EXHAUSTED", 0, "");
  r.OnTruncation("BUDGET_EXHAUSTED", 0, "");
  EXPECT_EQ(r.dump_count(), 4);
}

TEST_F(FlightRecorderTest, SinkNoneSkipsDump) {
  FlightRecorder& r = FlightRecorder::Global();
  r.SetDumpSink(FlightRecorder::Sink::kNone);
  r.OnTruncation("CANCELLED", 7, "");
  EXPECT_EQ(r.dump_count(), 0);
  EXPECT_EQ(r.LastDump(), "");
}

TEST_F(FlightRecorderTest, SinkFileAppendsDump) {
  std::string path =
      ::testing::TempDir() + "/tms_flight_recorder_test_dump.json";
  std::remove(path.c_str());
  FlightRecorder& r = FlightRecorder::Global();
  r.SetDumpSink(FlightRecorder::Sink::kFile, path);
  r.OnTruncation("FAULT", 11, "exec.fault.test_point");
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096] = {0};
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  std::string doc(buf, n);
  EXPECT_NE(doc.find("\"reason\":\"FAULT\""), std::string::npos);
  EXPECT_NE(doc.find("exec.fault.test_point"), std::string::npos);
}

// ---------------------------------------------------------------------------
// exec::RunContext integration: which stop reasons dump.

TEST_F(FlightRecorderTest, BudgetExhaustionTriggersDump) {
  FlightRecorder& r = FlightRecorder::Global();
  exec::RunContext run;
  run.set_work_budget(1);
  EXPECT_TRUE(run.ChargeWork());   // spends the budget
  EXPECT_FALSE(run.ChargeWork());  // latches kBudget
  EXPECT_EQ(r.dump_count(), 1);
  EXPECT_NE(r.LastDump().find("BUDGET_EXHAUSTED"), std::string::npos);
}

TEST_F(FlightRecorderTest, CancellationTriggersDump) {
  FlightRecorder& r = FlightRecorder::Global();
  exec::RunContext run;
  run.RequestCancel();
  EXPECT_TRUE(run.StopRequested());  // latches kCancelled
  EXPECT_EQ(r.dump_count(), 1);
  EXPECT_NE(r.LastDump().find("CANCELLED"), std::string::npos);
}

TEST_F(FlightRecorderTest, AnswerCapDoesNotDump) {
  // An answer cap is a client-requested stop, not a failure — the
  // recorder must stay quiet.
  FlightRecorder& r = FlightRecorder::Global();
  exec::RunContext run;
  run.set_max_answers(1);
  EXPECT_TRUE(run.BeforeAnswer());
  run.CountAnswer();
  EXPECT_FALSE(run.BeforeAnswer());  // latches kAnswerCap
  EXPECT_EQ(run.stop_reason(), exec::StopReason::kAnswerCap);
  EXPECT_EQ(r.dump_count(), 0);
}

}  // namespace
}  // namespace tms

#endif  // TMS_OBS_ACTIVE
