// Integration tests for the full HttpServer (serve/server.h): a real
// server on an ephemeral loopback port, driven by a raw-socket HTTP/1.1
// client. Covers the serving acceptance contract:
//
//   * the streamed answer lines of POST /query are byte-identical to the
//     one-shot evaluator path (same engine, same serializers) — including
//     under truncation, where the stream is an exact prefix;
//   * per-request limits (deadline_ms / max_answers / budget) map onto
//     the RunContext truncation contract and surface the right stop
//     reason in the footer;
//   * concurrent requests at 1/2/8 engine threads produce identical
//     bytes, each under its own QueryScope (distinct X-Query-Id);
//   * admission control refuses over-limit queries with 429, decided
//     before the body is read;
//   * shutdown drains: parked connections observe the stop flag, live
//     streams end with a CANCELLED footer, Shutdown() joins everything;
//   * precompiled queries (registry Precompile + ?precompiled=): the
//     registry stores the query file's parse unchanged, its stream is
//     byte-identical to the body-query stream (exact score ties
//     included), and the request plane 400s non-empty bodies / 404s
//     unknown names.
//
// Labeled `serve` (with `concurrency` where threads race); run just these
// with `ctest -L serve`.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine_options.h"
#include "exec/run_context.h"
#include "gtest/gtest.h"
#include "io/text_format.h"
#include "obs/metrics.h"
#include "query/confidence.h"
#include "query/engine_factory.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "strings/str.h"
#include "workload/running_example.h"

namespace tms::serve {
namespace {

// ------------------------------------------------------ raw HTTP client

// Connects to 127.0.0.1:port; returns the fd or -1.
int Connect(int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

std::string ReadToEof(int fd) {
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) out.append(buf, n);
  return out;
}

// One full round trip: send `raw`, read until the server closes.
std::string RoundTrip(int port, const std::string& raw) {
  int fd = Connect(port);
  if (fd < 0) return "";
  if (send(fd, raw.data(), raw.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(raw.size())) {
    close(fd);
    return "";
  }
  std::string response = ReadToEof(fd);
  close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return RoundTrip(port, "GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

std::string Post(int port, const std::string& path, const std::string& body) {
  return RoundTrip(port, "POST " + path + " HTTP/1.1\r\nHost: t\r\n" +
                             "Content-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" +
                             body);
}

// A parsed response: status code, headers (raw block), decoded body
// (de-chunked when Transfer-Encoding: chunked).
struct Response {
  int code = 0;
  std::string head;
  std::string body;
};

std::optional<Response> ParseResponse(const std::string& raw) {
  const size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) return std::nullopt;
  Response r;
  r.head = raw.substr(0, head_end + 2);
  if (raw.compare(0, 9, "HTTP/1.1 ") != 0) return std::nullopt;
  r.code = std::atoi(raw.c_str() + 9);
  std::string rest = raw.substr(head_end + 4);
  if (r.head.find("Transfer-Encoding: chunked") == std::string::npos) {
    r.body = std::move(rest);
    return r;
  }
  // De-chunk.
  size_t pos = 0;
  while (true) {
    const size_t line_end = rest.find("\r\n", pos);
    if (line_end == std::string::npos) return std::nullopt;
    const size_t size = std::strtoul(rest.c_str() + pos, nullptr, 16);
    pos = line_end + 2;
    if (size == 0) break;
    if (pos + size + 2 > rest.size()) return std::nullopt;
    r.body.append(rest, pos, size);
    pos += size + 2;  // chunk data + trailing CRLF
  }
  return r;
}

std::vector<std::string> Lines(const std::string& body) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < body.size()) {
    const size_t end = body.find('\n', pos);
    if (end == std::string::npos) {
      lines.push_back(body.substr(pos));
      break;
    }
    lines.push_back(body.substr(pos, end - pos));
    pos = end + 1;
  }
  return lines;
}

// The value of a response header, or "".
std::string HeaderValue(const std::string& head, const std::string& name) {
  const std::string needle = name + ": ";
  const size_t pos = head.find(needle);
  if (pos == std::string::npos) return "";
  const size_t end = head.find("\r\n", pos);
  return head.substr(pos + needle.size(), end - pos - needle.size());
}

// ---------------------------------------------------------- test fixture

class ServeTest : public ::testing::Test {
 protected:
  // Starts a server over the running example registered as "fig1".
  void StartServer(ServerOptions options) {
    ModelRegistry registry;
    ASSERT_TRUE(registry.Insert("fig1", workload::Figure1Sequence()).ok());
    server_ = std::make_unique<HttpServer>(std::move(registry),
                                           std::move(options));
    Status st = server_->Start();
    ASSERT_TRUE(st.ok()) << st;
    port_ = server_->port();
    ASSERT_GT(port_, 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  std::string QueryBody() {
    return io::FormatTransducer(workload::Figure2Transducer());
  }

  // An s-projector over the running example's alphabet.
  std::string SProjectorBody() {
    return "s-projector\n"
           "alphabet r1a r1b r2a r2b la lb\n"
           "prefix . *\n"
           "pattern ( la | lb ) [^ r2a r2b ] *\n"
           "suffix ( r2a | r2b ) . *\n"
           "end\n";
  }

  // The expected answer lines of a ranked stream, computed through the
  // same engine + serializer path the one-shot evaluator uses. Comparing
  // the HTTP body against this IS the byte-identity check: tms_cli's
  // results array is built from the same AppendAnswerJson calls.
  std::vector<std::string> ExpectedRankedLines(int k) {
    markov::MarkovSequence mu = workload::Figure1Sequence();
    transducer::Transducer t = workload::Figure2Transducer();
    auto stream =
        query::MakeEnumerator(query::EnumeratorKind::kEmax, mu, t);
    EXPECT_TRUE(stream.ok());
    std::vector<std::string> lines;
    for (int i = 0; i < k; ++i) {
      auto answer = (*stream)->Next();
      if (!answer.has_value()) break;
      auto conf = query::Confidence(mu, t, answer->output);
      EXPECT_TRUE(conf.ok());
      std::string line;
      AppendAnswerJson(FormatStr(t.output_alphabet(), answer->output),
                       "emax", answer->score, *conf, &line);
      lines.push_back(line);
    }
    return lines;
  }

  std::unique_ptr<HttpServer> server_;
  int port_ = 0;
};

// ----------------------------------------------------------- basic plane

TEST_F(ServeTest, HealthzModelsAndUnknownRoutes) {
  StartServer(ServerOptions{});
  auto health = ParseResponse(Get(port_, "/healthz"));
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->code, 200);
  EXPECT_EQ(health->body, "ok\n");

  auto models = ParseResponse(Get(port_, "/models"));
  ASSERT_TRUE(models.has_value());
  EXPECT_EQ(models->code, 200);
  EXPECT_EQ(models->body, "{\"models\":[\"fig1\"]}\n");

  auto missing = ParseResponse(Get(port_, "/nope"));
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->code, 404);

  auto wrong_method = ParseResponse(Post(port_, "/healthz", ""));
  ASSERT_TRUE(wrong_method.has_value());
  EXPECT_EQ(wrong_method->code, 405);

  auto no_model = ParseResponse(Post(port_, "/query/ghost", QueryBody()));
  ASSERT_TRUE(no_model.has_value());
  EXPECT_EQ(no_model->code, 404);
}

TEST_F(ServeTest, MetricsExposesPrometheusText) {
  StartServer(ServerOptions{});
  // Run one query first so engine counters exist.
  ASSERT_TRUE(
      ParseResponse(Post(port_, "/query/fig1?k=1", QueryBody())).has_value());
  auto metrics = ParseResponse(Get(port_, "/metrics"));
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->code, 200);
  EXPECT_NE(metrics->head.find("text/plain; version=0.0.4"),
            std::string::npos);
#if TMS_OBS_ACTIVE
  EXPECT_NE(metrics->body.find("# TYPE tms_serve_requests counter"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("tms_serve_queries"), std::string::npos);
#endif  // the exposition is empty when obs is compiled out
}

// -------------------------------------------------- streaming + identity

TEST_F(ServeTest, RankedStreamMatchesEvaluatorBytes) {
  StartServer(ServerOptions{});
  auto response = ParseResponse(Post(port_, "/query/fig1?k=3", QueryBody()));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->code, 200);
  EXPECT_NE(response->head.find("application/x-ndjson"), std::string::npos);

  std::vector<std::string> lines = Lines(response->body);
  std::vector<std::string> expected = ExpectedRankedLines(3);
  ASSERT_EQ(lines.size(), expected.size() + 1);  // answers + footer
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(lines[i], expected[i]) << "answer line " << i;
  }
  const std::string& footer = lines.back();
  EXPECT_NE(footer.find("\"done\":true"), std::string::npos);
  EXPECT_NE(footer.find("\"reason\":\"NONE\""), std::string::npos);
  EXPECT_NE(footer.find("\"truncated\":false"), std::string::npos);
}

TEST_F(ServeTest, EnumModeStreamsPlainAnswers) {
  StartServer(ServerOptions{});
  auto response = ParseResponse(
      Post(port_, "/query/fig1?mode=enum&k=5", QueryBody()));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->code, 200);
  std::vector<std::string> lines = Lines(response->body);
  ASSERT_GE(lines.size(), 2u);
  // Every answer line is one JSON string; the footer closes the stream.
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].front(), '"');
    EXPECT_EQ(lines[i].back(), '"');
  }
  EXPECT_NE(lines.back().find("\"done\":true"), std::string::npos);
}

TEST_F(ServeTest, SProjectorQueryStreamsImaxLines) {
  StartServer(ServerOptions{});
  auto response =
      ParseResponse(Post(port_, "/query/fig1?k=2", SProjectorBody()));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->code, 200);
  std::vector<std::string> lines = Lines(response->body);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"imax\":"), std::string::npos);
  EXPECT_NE(lines.back().find("\"done\":true"), std::string::npos);
}

// A served query runs the shared answer pipeline, so /metrics times the
// confidence of every streamed answer, of transducer and s-projector
// queries alike.
TEST_F(ServeTest, MetricsTimeConfidenceOfEveryStreamedAnswer) {
#if !TMS_OBS_ACTIVE
  GTEST_SKIP() << "metrics are compiled out";
#else
  obs::SetEnabled(true);
  StartServer(ServerOptions{});
  const std::string sample = "\ntms_query_topk_confidence_ns_count ";
  // The sample's value, or nullopt when /metrics does not export it.
  auto timed_confidences = [&]() -> std::optional<int64_t> {
    auto metrics = ParseResponse(Get(port_, "/metrics"));
    if (!metrics.has_value()) return std::nullopt;
    const size_t pos = metrics->body.find(sample);
    if (pos == std::string::npos) return std::nullopt;
    return std::strtoll(metrics->body.c_str() + pos + sample.size(), nullptr,
                        10);
  };
  // Earlier tests in this process may have recorded some already.
  const int64_t before = timed_confidences().value_or(0);

  int64_t answer_lines = 0;
  for (const std::string& body : {QueryBody(), SProjectorBody()}) {
    auto response = ParseResponse(Post(port_, "/query/fig1?k=3", body));
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->code, 200);
    std::vector<std::string> lines = Lines(response->body);
    ASSERT_GE(lines.size(), 2u);  // answers, then the footer
    answer_lines += static_cast<int64_t>(lines.size()) - 1;
  }
  const std::optional<int64_t> after = timed_confidences();
  ASSERT_TRUE(after.has_value()) << "/metrics has no" << sample;
  EXPECT_EQ(*after - before, answer_lines);
#endif
}

TEST_F(ServeTest, BadRequestsGet400) {
  StartServer(ServerOptions{});
  // Garbage numeric parameter.
  auto bad_k =
      ParseResponse(Post(port_, "/query/fig1?k=3x", QueryBody()));
  ASSERT_TRUE(bad_k.has_value());
  EXPECT_EQ(bad_k->code, 400);
  // Unknown parameter.
  auto unknown =
      ParseResponse(Post(port_, "/query/fig1?frobnicate=1", QueryBody()));
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->code, 400);
  // Body that is not a query.
  auto bad_body = ParseResponse(Post(port_, "/query/fig1", "not a query"));
  ASSERT_TRUE(bad_body.has_value());
  EXPECT_EQ(bad_body->code, 400);
  // A model file is a valid format but not a query.
  auto model_body = ParseResponse(Post(
      port_, "/query/fig1",
      io::FormatMarkovSequence(workload::Figure1Sequence())));
  ASSERT_TRUE(model_body.has_value());
  EXPECT_EQ(model_body->code, 400);
}

// ------------------------------------------------- truncation stop reasons

TEST_F(ServeTest, MaxAnswersTruncatesToExactPrefix) {
  StartServer(ServerOptions{});
  auto full = ParseResponse(Post(port_, "/query/fig1?k=3", QueryBody()));
  auto truncated = ParseResponse(
      Post(port_, "/query/fig1?k=3&max_answers=1", QueryBody()));
  ASSERT_TRUE(full.has_value());
  ASSERT_TRUE(truncated.has_value());
  EXPECT_EQ(truncated->code, 200);
  std::vector<std::string> full_lines = Lines(full->body);
  std::vector<std::string> short_lines = Lines(truncated->body);
  ASSERT_EQ(short_lines.size(), 2u);  // one answer + footer
  // The truncated stream is an exact byte prefix of the full stream.
  EXPECT_EQ(short_lines[0], full_lines[0]);
  EXPECT_NE(short_lines[1].find("\"reason\":\"ANSWER_CAP\""),
            std::string::npos);
  EXPECT_NE(short_lines[1].find("\"status\":\"OK\""), std::string::npos);
  EXPECT_NE(short_lines[1].find("\"truncated\":true"), std::string::npos);
}

TEST_F(ServeTest, ExpiredDeadlineReportsDeadlineStop) {
  StartServer(ServerOptions{});
  auto response = ParseResponse(
      Post(port_, "/query/fig1?deadline_ms=0", QueryBody()));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->code, 200);
  std::vector<std::string> lines = Lines(response->body);
  ASSERT_GE(lines.size(), 1u);
  EXPECT_NE(lines.back().find("\"reason\":\"DEADLINE\""),
            std::string::npos);
  EXPECT_NE(lines.back().find("\"status\":\"DEADLINE_EXCEEDED\""),
            std::string::npos);
}

TEST_F(ServeTest, ExhaustedBudgetReportsBudgetStop) {
  StartServer(ServerOptions{});
  auto response =
      ParseResponse(Post(port_, "/query/fig1?budget=1", QueryBody()));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->code, 200);
  std::vector<std::string> lines = Lines(response->body);
  ASSERT_GE(lines.size(), 1u);
  EXPECT_NE(lines.back().find("\"reason\":\"BUDGET\""), std::string::npos);
}

// ----------------------------------------------------------- concurrency

class ServeConcurrencyTest : public ServeTest,
                             public ::testing::WithParamInterface<int> {};

TEST_P(ServeConcurrencyTest, ConcurrentStreamsAreIdenticalAndScoped) {
  ServerOptions options;
  options.threads = GetParam();
  options.max_inflight = 16;
  StartServer(options);
  const std::string body = QueryBody();

  // Sequential baseline at this thread count.
  auto baseline = ParseResponse(Post(port_, "/query/fig1?k=3", body));
  ASSERT_TRUE(baseline.has_value());
  const std::vector<std::string> expected = Lines(baseline->body);
  ASSERT_EQ(expected.size(), ExpectedRankedLines(3).size() + 1);

  // 8 concurrent clients, same query.
  constexpr int kClients = 8;
  std::vector<std::future<std::string>> futures;
  futures.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    futures.push_back(std::async(std::launch::async, [&] {
      return Post(port_, "/query/fig1?k=3", body);
    }));
  }
  std::set<std::string> query_ids;
  for (auto& f : futures) {
    auto response = ParseResponse(f.get());
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->code, 200);
    // Byte-identical answer lines regardless of interleaving.
    std::vector<std::string> lines = Lines(response->body);
    ASSERT_EQ(lines.size(), expected.size());
    for (size_t i = 0; i + 1 < lines.size(); ++i) {
      EXPECT_EQ(lines[i], expected[i]);
    }
#if TMS_OBS_ACTIVE
    // Each request ran under its own QueryScope. (With obs compiled out
    // there are no scopes, so every id collapses to the same value.)
    const std::string id = HeaderValue(response->head, "X-Query-Id");
    ASSERT_FALSE(id.empty());
    query_ids.insert(id);
#endif
  }
#if TMS_OBS_ACTIVE
  EXPECT_EQ(query_ids.size(), static_cast<size_t>(kClients));
#endif
}

INSTANTIATE_TEST_SUITE_P(Threads, ServeConcurrencyTest,
                         ::testing::Values(1, 2, 8));

// ------------------------------------------------------------- admission

TEST_F(ServeTest, DrainModeRefusesEveryQuery) {
  ServerOptions options;
  options.max_inflight = 0;
  StartServer(options);
  auto response = ParseResponse(Post(port_, "/query/fig1", QueryBody()));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->code, 429);
  EXPECT_EQ(HeaderValue(response->head, "Retry-After"), "1");
  // Non-query endpoints stay available.
  auto health = ParseResponse(Get(port_, "/healthz"));
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->code, 200);
}

TEST_F(ServeTest, OverLimitQueryGets429WhileSlotIsHeld) {
  obs::SetEnabled(true);  // the in-flight gauge below must be collected
  ServerOptions options;
  options.max_inflight = 1;
  StartServer(options);
  const std::string body = QueryBody();

  // Client A sends the head and *part* of the body, then stalls. The gate
  // is entered after the head, so A deterministically holds the only
  // slot while B's query arrives.
  int holder = Connect(port_);
  ASSERT_GE(holder, 0);
  const std::string head =
      "POST /query/fig1 HTTP/1.1\r\nHost: t\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n";
  ASSERT_EQ(send(holder, head.data(), head.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(head.size()));
  ASSERT_EQ(send(holder, body.data(), 4, MSG_NOSIGNAL), 4);

  // Wait until A actually occupies the slot (ReadBody runs after the
  // gate), then send B once. A B sent earlier could take the slot itself
  // and leave A with the 429.
#if TMS_OBS_ACTIVE
  // The server's in-flight gauge says when A holds the slot.
  bool held = false;
  for (int attempt = 0; attempt < 500 && !held; ++attempt) {
    auto metrics = ParseResponse(Get(port_, "/metrics"));
    held = metrics.has_value() &&
           metrics->body.find("\ntms_serve_admission_inflight 1\n") !=
               std::string::npos;
    if (!held) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(held) << "A never reached the admission gate";
#else
  // Compiled-out instrumentation exports no gauge; give A's connection
  // thread time to pass the gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
#endif
  auto rejected = ParseResponse(Post(port_, "/query/fig1?k=1", body));
  ASSERT_TRUE(rejected.has_value());
  EXPECT_EQ(rejected->code, 429);

  // A completes its body and still gets its full stream: rejection of B
  // never disturbed the admitted query.
  ASSERT_EQ(send(holder, body.data() + 4, body.size() - 4, MSG_NOSIGNAL),
            static_cast<ssize_t>(body.size() - 4));
  auto completed = ParseResponse(ReadToEof(holder));
  close(holder);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(completed->code, 200);
  EXPECT_NE(completed->body.find("\"done\":true"), std::string::npos);

  // Slot released: the next query is admitted.
  auto next = ParseResponse(Post(port_, "/query/fig1?k=1", body));
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->code, 200);
}

// ---------------------------------------------------------------- drain

TEST_F(ServeTest, CancelTokenTruncatesStreamWithCancelledFooter) {
  StartServer(ServerOptions{});
  // Fire the server-wide drain token up front: the next query's
  // RunContext observes it at the first answer boundary, so the stream is
  // a well-formed empty prefix + CANCELLED footer.
  server_->cancel_token().Cancel();
  auto response = ParseResponse(Post(port_, "/query/fig1", QueryBody()));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->code, 200);
  std::vector<std::string> lines = Lines(response->body);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"reason\":\"CANCELLED\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"answers\":0"), std::string::npos);
}

TEST_F(ServeTest, ShutdownJoinsParkedConnections) {
  ServerOptions options;
  options.limits.poll_interval_ms = 5;
  StartServer(options);

  // Park two connections: one that never sends anything, one stalled
  // mid-body. Both sit in the reader's poll loop.
  int idle = Connect(port_);
  ASSERT_GE(idle, 0);
  int stalled = Connect(port_);
  ASSERT_GE(stalled, 0);
  const std::string partial =
      "POST /query/fig1 HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\nabc";
  ASSERT_EQ(send(stalled, partial.data(), partial.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(partial.size()));
  // Give the server a moment to accept and park both.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Shutdown must join the accept thread AND both parked connection
  // threads promptly — a hang here is the regression this guards.
  auto done = std::async(std::launch::async, [&] { server_->Shutdown(); });
  ASSERT_EQ(done.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);

  // Parked clients observe the close.
  EXPECT_EQ(ReadToEof(idle), "");
  close(idle);
  close(stalled);

  // The listener is gone.
  int after = Connect(port_);
  if (after >= 0) close(after);
  // (Connect may transiently succeed if the port is reused; the real
  // assertion is that Shutdown returned and joined above.)
}


// ------------------------------------------------------ precompiled plane

// Writes `text` to a fresh file under the gtest temp dir and returns its
// path.
std::string WriteTempFile(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::trunc);
  out << text;
  return path;
}

// A fair coin tossed twice: nodes s0 s1, every probability 1/2.
constexpr char kCoinModel[] =
    "markov-sequence\n"
    "nodes s0 s1\n"
    "length 2\n"
    "initial s0 1/2 s1 1/2\n"
    "transition 1 s0 -> s0 1/2 s1 1/2\n"
    "transition 1 s1 -> s0 1/2 s1 1/2\n"
    "end\n";

// A query over the coin whose state 2 is a copy of state 0. Its two
// answers, o0 and ε, tie at E_max 1/4, so the stream's order is the
// engine's tie-break on this very machine: a precompiled form that
// merged state 2 into state 0 would stream ε first.
constexpr char kCoinQuery[] =
    "transducer\n"
    "input s0 s1\n"
    "output o0 o1\n"
    "states 3\n"
    "initial 0\n"
    "accepting 0 1 2\n"
    "edge 0 s0 -> 2 :\n"
    "edge 0 s1 -> 1 : o0\n"
    "edge 0 s1 -> 2 :\n"
    "edge 1 s0 -> 1 :\n"
    "edge 1 s1 -> 0 :\n"
    "edge 2 s0 -> 2 :\n"
    "edge 2 s1 -> 1 : o0\n"
    "edge 2 s1 -> 2 :\n"
    "end\n";

class ServePrecompileTest : public ServeTest {
 protected:
  // A fig1-alphabet query file (the running example's transducer).
  std::string WriteQueryFile(const std::string& name) {
    return WriteTempFile(name,
                         io::FormatTransducer(workload::Figure2Transducer()));
  }

  ModelRegistry MakeRegistry() {
    ModelRegistry registry;
    EXPECT_TRUE(registry.Insert("fig1", workload::Figure1Sequence()).ok());
    return registry;
  }
};

TEST_F(ServePrecompileTest, RegistryPrecompilesQueryFiles) {
  const std::string query_path = WriteQueryFile("precompile_basic.tms");

  ModelRegistry registry = MakeRegistry();
  ASSERT_TRUE(registry.Precompile("fig1", "fig2", query_path).ok());
  const transducer::Transducer* stored =
      registry.FindPrecompiled("fig1", "fig2");
  ASSERT_NE(stored, nullptr);
  // The stored machine is the file's parse, unchanged.
  auto text = io::ReadFile(query_path);
  ASSERT_TRUE(text.ok()) << text.status();
  auto parsed = io::ParseTransducer(*text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(io::FormatTransducer(*stored), io::FormatTransducer(*parsed));

  // The error plane: unknown model, alphabet mismatch, duplicate name,
  // empty name.
  const std::string coin_path =
      WriteTempFile("precompile_coin_query.tms", kCoinQuery);
  EXPECT_FALSE(registry.Precompile("ghost", "q", query_path).ok());
  EXPECT_FALSE(registry.Precompile("fig1", "coin", coin_path).ok());
  EXPECT_FALSE(registry.Precompile("fig1", "fig2", query_path).ok());
  EXPECT_FALSE(registry.Precompile("fig1", "", query_path).ok());
  EXPECT_EQ(registry.PrecompiledNames(),
            (std::vector<std::string>{"fig1:fig2"}));
}

TEST_F(ServePrecompileTest, PrecompiledRequestStreamsIdenticalBytes) {
  const std::string query_path = WriteQueryFile("precompile_serve.tms");
  const std::string coin_path =
      WriteTempFile("precompile_serve_coin.tms", kCoinQuery);
  auto coin = io::ParseMarkovSequence(kCoinModel);
  ASSERT_TRUE(coin.ok()) << coin.status();

  ModelRegistry registry = MakeRegistry();
  ASSERT_TRUE(registry.Insert("coin", *std::move(coin)).ok());
  ASSERT_TRUE(registry.Precompile("fig1", "top", query_path).ok());
  ASSERT_TRUE(registry.Precompile("coin", "clone", coin_path).ok());
  server_ = std::make_unique<HttpServer>(std::move(registry), ServerOptions{});
  ASSERT_TRUE(server_->Start().ok());
  port_ = server_->port();

  // The stored stream is byte-identical to the same query sent by body:
  // a precompiled query is the body query, parsed ahead of time. The
  // coin query's two answers tie, so its stream pins the order too.
  const struct {
    std::string model, name, body;
  } cases[] = {{"fig1", "top", QueryBody()}, {"coin", "clone", kCoinQuery}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.model + ":" + c.name);
    auto by_body =
        ParseResponse(Post(port_, "/query/" + c.model + "?k=3", c.body));
    auto by_name = ParseResponse(Post(
        port_, "/query/" + c.model + "?k=3&precompiled=" + c.name, ""));
    ASSERT_TRUE(by_body.has_value());
    ASSERT_TRUE(by_name.has_value());
    EXPECT_EQ(by_body->code, 200);
    EXPECT_EQ(by_name->code, 200);
    EXPECT_GE(Lines(by_body->body).size(), 3u);  // two answers + footer
    EXPECT_EQ(by_name->body, by_body->body);
  }

  // Non-empty bodies are a 400 (the name IS the query)...
  auto with_body = ParseResponse(
      Post(port_, "/query/fig1?k=3&precompiled=top", QueryBody()));
  ASSERT_TRUE(with_body.has_value());
  EXPECT_EQ(with_body->code, 400);
  EXPECT_NE(with_body->body.find("empty body"), std::string::npos);

  // ...and unknown names are a 404.
  auto unknown =
      ParseResponse(Post(port_, "/query/fig1?k=3&precompiled=ghost", ""));
  ASSERT_TRUE(unknown.has_value());
  EXPECT_EQ(unknown->code, 404);

  // Every query is pruned, so `optimize` names no parameter: a 400 like
  // any unknown name.
  auto retired =
      ParseResponse(Post(port_, "/query/fig1?optimize=on", QueryBody()));
  ASSERT_TRUE(retired.has_value());
  EXPECT_EQ(retired->code, 400);
  EXPECT_NE(retired->body.find("unknown parameter 'optimize'"),
            std::string::npos)
      << retired->body;
}

}  // namespace
}  // namespace tms::serve
