// Straggler and fault drills for the sharded batch path (docs/DISTRIBUTED.md
// + docs/ROBUSTNESS.md): a shard that dies before evaluating
// (`dist.pre_shard`) or mid-stream (`dist.mid_stream`) contributes a clean
// prefix, the survivors' rows keep their exact global order, and the
// coverage vector reports precisely what was lost. Plus the coordinator's
// reading of a worker footer's counts, and the TMS_FAULT_INJECT spec
// parser (exec::FaultInjector::ArmFromSpec) that tools/dist_smoke.sh
// drives end to end.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "db/batch_evaluator.h"
#include "db/collection.h"
#include "dist/client.h"
#include "dist/merge_stream.h"
#include "dist/shard_plan.h"
#include "dist/sharded_batch.h"
#include "exec/fault.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "transducer/transducer.h"
#include "workload/random_models.h"

namespace tms {
namespace {

using testing::SeedTrace;
using testing::TestSeed;

class DistFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exec::FaultInjector::Global().Reset();
    Rng rng(TestSeed(20260812));
    // RandomMarkovSequence interns its nodes under the "n" prefix; the
    // collection's alphabet must match or Insert rejects the sequence.
    alphabet_ = workload::MakeSymbols(4, "n");
    collection_ = db::SequenceCollection(alphabet_);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(collection_
                      .Insert("seq" + std::to_string(i),
                              workload::RandomMarkovSequence(4, 4, 3, rng))
                      .ok());
    }
    // The identity transducer guarantees every sequence a full top-k
    // stream (one answer per world), so the nth mid-stream hit always has
    // an entry to kill — no seed can make the drill vacuous.
    query_ = transducer::Transducer(alphabet_, alphabet_, /*num_states=*/1);
    query_.SetInitial(0);
    query_.SetAccepting(0);
    for (Symbol s = 0; s < static_cast<Symbol>(alphabet_.size()); ++s) {
      ASSERT_TRUE(query_.AddTransition(0, s, 0, Str{s}).ok());
    }
  }

  void TearDown() override { exec::FaultInjector::Global().Reset(); }

  std::vector<dist::RankedRow> Reference(int k) {
    db::BatchEvaluator::Options options;
    auto batch = db::BatchEvaluator::Create(&collection_, &query_, options);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    return dist::RankedReferenceRows(batch->EvaluateAll(k));
  }

  static std::vector<std::pair<std::string, double>> Flatten(
      const std::vector<dist::RankedRow>& rows) {
    std::vector<std::pair<std::string, double>> out;
    for (const dist::RankedRow& r : rows) {
      out.emplace_back(r.key, r.answer.emax);
    }
    return out;
  }

  Alphabet alphabet_;
  db::SequenceCollection collection_{Alphabet()};
  transducer::Transducer query_{Alphabet(), Alphabet()};
};

TEST_F(DistFaultTest, PreShardFaultLosesExactlyThatShard) {
  const int k = 3;
  const std::vector<dist::RankedRow> reference = Reference(k);
  ASSERT_FALSE(reference.empty());
  const std::vector<dist::ShardRange> plan =
      dist::PlanShards(collection_.Keys(), 3);

  // The first shard to evaluate dies before producing anything.
  exec::FaultInjector::Global().ScheduleFailure("dist.pre_shard",
                                                /*nth_hit=*/1);
  dist::ShardedBatchOptions options;
  options.shards = 3;
  auto sharded = dist::EvaluateSharded(collection_, query_, k, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_FALSE(sharded->complete());

  ASSERT_EQ(sharded->coverage.size(), 3u);
  EXPECT_TRUE(sharded->coverage[0].failed);
  EXPECT_FALSE(sharded->coverage[0].status.ok());
  EXPECT_EQ(sharded->coverage[0].answers, 0);
  EXPECT_FALSE(sharded->coverage[1].failed);
  EXPECT_FALSE(sharded->coverage[2].failed);

  // Expected: the reference stream minus shard 0's keys, order untouched.
  std::vector<dist::RankedRow> expected;
  for (const dist::RankedRow& row : reference) {
    if (std::find(plan[0].keys.begin(), plan[0].keys.end(), row.key) ==
        plan[0].keys.end()) {
      expected.push_back(row);
    }
  }
  EXPECT_EQ(Flatten(sharded->rows), Flatten(expected));
}

TEST_F(DistFaultTest, MidStreamFaultKeepsPerShardCleanPrefixes) {
  const int k = 3;
  const std::vector<dist::RankedRow> reference = Reference(k);
  const std::vector<dist::ShardRange> plan =
      dist::PlanShards(collection_.Keys(), 2);

  // Per-shard reference streams: the reference restricted to each range.
  std::vector<std::vector<std::pair<std::string, double>>> per_shard(2);
  for (const dist::RankedRow& row : reference) {
    const bool in0 = std::find(plan[0].keys.begin(), plan[0].keys.end(),
                               row.key) != plan[0].keys.end();
    per_shard[in0 ? 0 : 1].emplace_back(row.key, row.answer.emax);
  }

  // Kill one stream a few entries in. Which stream dies depends on merge
  // pull order — the contract under test is the clean-prefix property,
  // not which victim the nth hit lands on.
  exec::FaultInjector::Global().ScheduleFailure("dist.mid_stream",
                                                /*nth_hit=*/4);
  dist::ShardedBatchOptions options;
  options.shards = 2;
  auto sharded = dist::EvaluateSharded(collection_, query_, k, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_FALSE(sharded->complete());

  int failed_shards = 0;
  int64_t merged = 0;
  for (size_t s = 0; s < sharded->coverage.size(); ++s) {
    const dist::ShardCoverage& c = sharded->coverage[s];
    merged += c.answers;
    // Each shard's merged rows are a prefix of its reference stream —
    // the full stream for survivors, a proper one for the victim.
    std::vector<std::pair<std::string, double>> got;
    for (const dist::RankedRow& row : sharded->rows) {
      const bool in_s = std::find(plan[s].keys.begin(), plan[s].keys.end(),
                                  row.key) != plan[s].keys.end();
      if (in_s) got.emplace_back(row.key, row.answer.emax);
    }
    ASSERT_LE(got.size(), per_shard[s].size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), per_shard[s].begin()))
        << "shard " << s << " rows are not a clean prefix";
    if (c.failed) {
      ++failed_shards;
      EXPECT_LT(got.size(), per_shard[s].size());
    } else {
      EXPECT_EQ(got.size(), per_shard[s].size());
    }
    EXPECT_EQ(static_cast<size_t>(c.answers), got.size());
  }
  EXPECT_EQ(failed_shards, 1);
  EXPECT_EQ(merged, static_cast<int64_t>(sharded->rows.size()));

  // The merged stream itself still obeys the global order.
  for (size_t i = 1; i < sharded->rows.size(); ++i) {
    const dist::RankedRow& a = sharded->rows[i - 1];
    const dist::RankedRow& b = sharded->rows[i];
    EXPECT_TRUE(a.answer.emax > b.answer.emax ||
                (a.answer.emax == b.answer.emax && a.key <= b.key))
        << "merged rows out of order at " << i;
  }
}

TEST_F(DistFaultTest, EveryHitFaultKillsEveryShardButNeverCrashes) {
  exec::FaultInjector::Global().ScheduleFailure("dist.pre_shard",
                                                /*nth_hit=*/0);
  dist::ShardedBatchOptions options;
  options.shards = 4;
  auto sharded = dist::EvaluateSharded(collection_, query_, 3, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_TRUE(sharded->rows.empty());
  for (const dist::ShardCoverage& c : sharded->coverage) {
    EXPECT_TRUE(c.failed);
    EXPECT_EQ(c.answers, 0);
  }
}

TEST_F(DistFaultTest, BornFailedRemoteSourceIsAnEmptyCleanPrefix) {
  auto source = std::make_unique<dist::RemoteShardSource>(
      7, Status::Internal("connect refused"));
  EXPECT_FALSE(source->Next().has_value());
  dist::ShardCoverage coverage = source->Coverage();
  EXPECT_EQ(coverage.shard_id, 7);
  EXPECT_TRUE(coverage.failed);
  EXPECT_FALSE(coverage.status.ok());
}

// ---------------------------------------------------------------------------
// Footer counts on the wire.

// A one-shot worker on loopback: accepts one connection, reads the request
// (head and Content-Length body), answers with `response` and closes.
class CannedWorker {
 public:
  explicit CannedWorker(std::string response)
      : response_(std::move(response)) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (fd_ < 0 ||
        ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd_, 1) != 0 ||
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      return;
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  CannedWorker(const CannedWorker&) = delete;
  CannedWorker& operator=(const CannedWorker&) = delete;

  ~CannedWorker() {
    // Wakes a Serve() still blocked in accept() (no client ever came).
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    if (fd_ >= 0) ::close(fd_);
  }

  int port() const { return port_; }

 private:
  void Serve() {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) return;
    std::string request;
    char buf[4096];
    size_t head_end = std::string::npos;
    size_t want = 0;
    while (head_end == std::string::npos || request.size() < want) {
      const ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
      if (n <= 0) break;
      request.append(buf, static_cast<size_t>(n));
      if (head_end == std::string::npos) {
        head_end = request.find("\r\n\r\n");
        if (head_end == std::string::npos) continue;
        const size_t cl = request.find("Content-Length: ");
        want = head_end + 4 +
               (cl == std::string::npos
                    ? 0
                    : std::strtoul(request.c_str() + cl + 16, nullptr, 10));
      }
    }
    size_t sent = 0;
    while (sent < response_.size()) {
      const ssize_t n = ::send(conn, response_.data() + sent,
                               response_.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::shutdown(conn, SHUT_WR);
    ::close(conn);
  }

  std::string response_;
  int fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

std::string Chunk(const std::string& data) {
  char size[16];
  std::snprintf(size, sizeof(size), "%zx\r\n", data.size());
  return size + data + "\r\n";
}

// Streams one row and a footer carrying `sequences` (verbatim JSON) from a
// canned /batch response through a RemoteShardSource; returns its coverage.
dist::ShardCoverage CoverageFromFooter(const std::string& sequences) {
  const std::string footer =
      "{\"done\":true,\"shard\":0,\"coverage\":{\"sequences\":" + sequences +
      ",\"failed_sequences\":0,\"truncated\":false,\"reason\":\"NONE\"}}\n";
  CannedWorker worker(
      "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
      "Transfer-Encoding: chunked\r\n\r\n" +
      Chunk("{\"key\":\"seq0\",\"answer\":\"n0\",\"emax\":0.5,"
            "\"confidence\":0.5}\n") +
      Chunk(footer) + "0\r\n\r\n");
  EXPECT_NE(worker.port(), 0);
  dist::WorkerAddress address{"127.0.0.1", worker.port()};
  dist::RemoteShardSource source(
      0, dist::HttpStream::Post(address, "/batch?k=1", "query",
                                dist::HttpStream::Options()));
  int rows = 0;
  while (source.Next().has_value()) ++rows;
  EXPECT_EQ(rows, 1);
  return source.Coverage();
}

TEST(RemoteShardSourceTest, FooterCountsAreExactIntegersOrMissing) {
  // 2^53 + 1 has no double; it must come back exactly.
  dist::ShardCoverage exact = CoverageFromFooter("9007199254740993");
  EXPECT_FALSE(exact.failed) << exact.status.ToString();
  EXPECT_EQ(exact.sequences, INT64_C(9007199254740993));
  EXPECT_EQ(exact.failed_sequences, 0);

  // An exponent and an int64_t overflow are no count: the field reads as
  // missing and the coverage keeps its default.
  for (const std::string bad : {"1e300", "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    dist::ShardCoverage coverage = CoverageFromFooter(bad);
    EXPECT_FALSE(coverage.failed) << coverage.status.ToString();
    EXPECT_EQ(coverage.sequences, 0);
  }
}

// ---------------------------------------------------------------------------
// The TMS_FAULT_INJECT spec parser.

class ArmFromSpecTest : public ::testing::Test {
 protected:
  void SetUp() override { exec::FaultInjector::Global().Reset(); }
  void TearDown() override { exec::FaultInjector::Global().Reset(); }
};

TEST_F(ArmFromSpecTest, FailClauseFiresAtTheNthHit) {
  ASSERT_TRUE(
      exec::FaultInjector::Global().ArmFromSpec("my.point:fail:2").ok());
  EXPECT_FALSE(TMS_FAULT_POINT("my.point"));
  EXPECT_TRUE(TMS_FAULT_POINT("my.point"));
  EXPECT_FALSE(TMS_FAULT_POINT("my.point"));
}

TEST_F(ArmFromSpecTest, MultipleClausesArmIndependently) {
  ASSERT_TRUE(exec::FaultInjector::Global()
                  .ArmFromSpec("a.point:fail:1;b.point:fail:1")
                  .ok());
  EXPECT_TRUE(TMS_FAULT_POINT("a.point"));
  EXPECT_TRUE(TMS_FAULT_POINT("b.point"));
}

TEST_F(ArmFromSpecTest, DelayClauseParsesAndDoesNotFail) {
  ASSERT_TRUE(
      exec::FaultInjector::Global().ArmFromSpec("d.point:delay1ms:1").ok());
  EXPECT_FALSE(TMS_FAULT_POINT("d.point"));
}

TEST_F(ArmFromSpecTest, MalformedSpecsAreRejected) {
  auto& injector = exec::FaultInjector::Global();
  EXPECT_FALSE(injector.ArmFromSpec("no-colons").ok());
  EXPECT_FALSE(injector.ArmFromSpec("point:fail").ok());
  EXPECT_FALSE(injector.ArmFromSpec("point:explode:1").ok());
  EXPECT_FALSE(injector.ArmFromSpec("point:fail:abc").ok());
  EXPECT_FALSE(injector.ArmFromSpec("point:delayxms:1").ok());
  // Empty specs and empty clauses are no-ops, not errors — a bare or
  // trailing ';' in TMS_FAULT_INJECT must not kill the process.
  EXPECT_TRUE(injector.ArmFromSpec("").ok());
  EXPECT_TRUE(injector.ArmFromSpec("ok.point:fail:1;;").ok());
}

}  // namespace
}  // namespace tms
