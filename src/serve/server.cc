#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include "common/parse.h"
#include "db/batch_evaluator.h"
#include "db/collection.h"
#include "dist/sharded_batch.h"
#include "exec/fault.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "query/answers.h"
#include "serve/wire.h"
#include "strings/str.h"
#include "transducer/transducer.h"

namespace tms::serve {

namespace {

// One JSON error body per non-200 response, always newline-terminated so
// line-oriented clients never block on a partial line.
std::string JsonError(const std::string& message) {
  std::string body = "{\"error\":\"";
  obs::AppendJsonEscaped(message, &body);
  body += "\"}\n";
  return body;
}

void SendJsonError(int fd, int code, const std::string& message,
                   std::string_view extra_headers = {}) {
  // Runtime-named counter: the TMS_OBS_COUNT macro caches its metric in a
  // function-local static, so it is only correct for literal names.
  obs::Registry::Global()
      .counter("serve.http." + std::to_string(code))
      .Add(1);
  SendAll(fd, SimpleResponse(code, "application/json", JsonError(message),
                             extra_headers));
}

// Per-request execution parameters, parsed from the URL query string.
// Every numeric value goes through the checked parsers in common/parse.h
// — garbage is a 400, never a silently-zero limit.
struct QueryParams {
  int k = 0;  // 0 = default by mode (10 ranked, 100 enum)
  int64_t deadline_ms = -1;
  int64_t max_answers = -1;
  int64_t budget = -1;
  bool enum_mode = false;
  kernels::BackendChoice backend = kernels::BackendChoice::kAuto;
  std::string precompiled;  // registry-precompiled query name; "" = body
  int64_t shard = 0;        // shard label; only /batch reads it
};

// Returns a 400 message, or "" on success.
std::string ParseParams(const std::string& query,
                        kernels::BackendChoice default_backend,
                        QueryParams* out) {
  out->backend = default_backend;
  for (const auto& [name, value] : ParseQueryParams(query)) {
    if (name == "k") {
      if (!ParsePositiveInt(value, &out->k)) {
        return "k must be a positive integer, got '" + value + "'";
      }
    } else if (name == "deadline_ms") {
      if (!ParseNonNegInt64(value, &out->deadline_ms)) {
        return "deadline_ms must be a nonnegative integer, got '" + value +
               "'";
      }
    } else if (name == "max_answers") {
      if (!ParseNonNegInt64(value, &out->max_answers)) {
        return "max_answers must be a nonnegative integer, got '" + value +
               "'";
      }
    } else if (name == "budget") {
      if (!ParseNonNegInt64(value, &out->budget)) {
        return "budget must be a nonnegative integer, got '" + value + "'";
      }
    } else if (name == "backend") {
      auto choice = kernels::ParseBackendChoice(value);
      if (!choice.has_value()) {
        return "backend must be dense|sparse|auto, got '" + value + "'";
      }
      out->backend = *choice;
    } else if (name == "precompiled") {
      if (value.empty()) return "precompiled must name a query";
      out->precompiled = value;
    } else if (name == "shard") {
      if (!ParseNonNegInt64(value, &out->shard)) {
        return "shard must be a nonnegative integer, got '" + value + "'";
      }
    } else if (name == "mode") {
      if (value == "enum") {
        out->enum_mode = true;
      } else if (value != "ranked") {
        return "mode must be ranked|enum, got '" + value + "'";
      }
    } else {
      return "unknown parameter '" + name + "'";
    }
  }
  if (out->k == 0) out->k = out->enum_mode ? 100 : 10;
  return "";
}

}  // namespace

HttpServer::HttpServer(ModelRegistry registry, ServerOptions options)
    : registry_(std::move(registry)),
      options_(std::move(options)),
      gate_(options_.max_inflight) {}

HttpServer::~HttpServer() { Shutdown(); }

Status HttpServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad host address: " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::Internal(std::string("bind: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (listen(listen_fd_, 64) < 0) {
    Status st =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  if (options_.threads > 1) {
    pool_ = std::make_unique<exec::ThreadPool>(options_.threads - 1);
  }
  TMS_OBS_GAUGE_SET("serve.models", static_cast<double>(registry_.size()));
  started_ = true;
  accept_thread_ = std::thread(&HttpServer::AcceptLoop, this);
  return Status::Ok();
}

void HttpServer::AcceptLoop() {
  while (!stopping()) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = poll(&pfd, 1, options_.limits.poll_interval_ms);
    if (ready <= 0) continue;  // timeout slice or EINTR: re-check stopping
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (stopping()) {
      close(fd);
      break;
    }
    ReapFinished();
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (static_cast<int>(connections_.size()) >= options_.max_connections) {
      // Refused before a thread exists; the body is small enough that the
      // blocking send cannot stall the accept loop.
      SendJsonError(fd, 503, "too many open connections");
      close(fd);
      continue;
    }
    const uint64_t id = next_connection_id_++;
    connections_.emplace(id, std::thread([this, id, fd] {
                           HandleConnection(fd);
                           close(fd);
                           std::lock_guard<std::mutex> done(conn_mu_);
                           finished_.push_back(id);
                         }));
  }
}

void HttpServer::ReapFinished() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (uint64_t id : finished_) {
    auto it = connections_.find(id);
    if (it != connections_.end()) {
      it->second.join();
      connections_.erase(it);
    }
  }
  finished_.clear();
}

void HttpServer::Shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  if (!started_ || shut_down_) return;
  stopping_.store(true, std::memory_order_release);
  // Every in-flight RunContext carries this token: live streams stop at
  // their next answer boundary and report CANCELLED in the footer.
  drain_.Cancel();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  std::map<uint64_t, std::thread> remaining;
  {
    std::lock_guard<std::mutex> conns(conn_mu_);
    remaining.swap(connections_);
  }
  for (auto& [id, thread] : remaining) thread.join();
  {
    std::lock_guard<std::mutex> conns(conn_mu_);
    finished_.clear();
  }
  shut_down_ = true;
}

void HttpServer::HandleConnection(int fd) {
  RequestReader reader(fd, [this] { return stopping(); }, options_.limits);
  HttpRequest request;
  Status st = reader.ReadHead(&request);
  if (!st.ok()) {
    if (st.code() == StatusCode::kInvalidArgument) {
      SendJsonError(fd, 400, st.message());
    } else if (st.code() == StatusCode::kOutOfRange) {
      SendJsonError(fd, 431, st.message());
    }
    // Cancelled (server stopping), NotFound (client closed), Internal
    // (socket error): nothing useful to say on this socket.
    return;
  }
  TMS_OBS_COUNT("serve.requests", 1);

  if (request.path == "/healthz") {
    if (request.method != "GET") {
      SendJsonError(fd, 405, "healthz is GET-only");
      return;
    }
    TMS_OBS_COUNT("serve.http.200", 1);
    SendAll(fd, SimpleResponse(200, "text/plain", "ok\n"));
    return;
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") {
      SendJsonError(fd, 405, "metrics is GET-only");
      return;
    }
    TMS_OBS_COUNT("serve.http.200", 1);
    const std::string text =
        obs::PrometheusText(obs::Registry::Global().Snapshot());
    SendAll(fd, SimpleResponse(
                    200, "text/plain; version=0.0.4; charset=utf-8", text));
    return;
  }
  if (request.path == "/models") {
    if (request.method != "GET") {
      SendJsonError(fd, 405, "models is GET-only");
      return;
    }
    std::string body = "{\"models\":[";
    bool first = true;
    for (const std::string& name : registry_.Names()) {
      if (!first) body += ',';
      first = false;
      body += '"';
      obs::AppendJsonEscaped(name, &body);
      body += '"';
    }
    body += "]}\n";
    TMS_OBS_COUNT("serve.http.200", 1);
    SendAll(fd, SimpleResponse(200, "application/json", body));
    return;
  }
  constexpr std::string_view kQueryPrefix = "/query/";
  if (request.path.rfind(kQueryPrefix, 0) == 0) {
    if (request.method != "POST") {
      SendJsonError(fd, 405, "query is POST-only");
      return;
    }
    HandleQuery(fd, &reader, request,
                request.path.substr(kQueryPrefix.size()));
    return;
  }
  if (request.path == "/batch") {
    if (request.method != "POST") {
      SendJsonError(fd, 405, "batch is POST-only");
      return;
    }
    HandleBatch(fd, &reader, request);
    return;
  }
  SendJsonError(fd, 404, "no such endpoint: " + request.path);
}

void HttpServer::HandleQuery(int fd, RequestReader* reader,
                             const HttpRequest& request,
                             const std::string& model_name) {
  const markov::MarkovSequence* mu = registry_.Find(model_name);
  if (mu == nullptr) {
    SendJsonError(fd, 404, "unknown model '" + model_name + "'");
    return;
  }
  // Admission is decided on the request head, BEFORE buffering the body:
  // a client trickling a large body holds only its own gate slot, and an
  // overloaded server refuses with the cheapest possible work.
  GateGuard gate(&gate_);
  if (!gate.admitted()) {
    SendJsonError(fd, 429,
                  "query rejected: " + std::to_string(gate_.max_inflight()) +
                      " queries already in flight",
                  "Retry-After: 1\r\n");
    return;
  }

  HttpRequest req = request;
  Status st = reader->ReadBody(&req);
  if (!st.ok()) {
    if (st.code() == StatusCode::kInvalidArgument) {
      SendJsonError(fd, 400, st.message());
    } else if (st.code() == StatusCode::kOutOfRange) {
      SendJsonError(fd, 413, st.message());
    }
    return;
  }

  QueryParams params;
  std::string error = ParseParams(req.query, options_.backend, &params);
  if (!error.empty()) {
    SendJsonError(fd, 400, error);
    return;
  }
  // The query: a precompiled transducer from the registry, or the body.
  const transducer::Transducer* stored = nullptr;
  std::optional<query::Query> parsed;
  if (!params.precompiled.empty()) {
    // A precompiled query IS the request: the body stays empty and the
    // stored transducer, parsed from its file at registry load, runs
    // through the same engine path as a body query.
    if (!req.body.empty()) {
      SendJsonError(fd, 400,
                    "precompiled queries take an empty body; got " +
                        std::to_string(req.body.size()) + " bytes");
      return;
    }
    stored = registry_.FindPrecompiled(model_name, params.precompiled);
    if (stored == nullptr) {
      SendJsonError(fd, 404, "unknown precompiled query '" +
                                 params.precompiled + "' for model '" +
                                 model_name + "'");
      return;
    }
    TMS_OBS_COUNT("serve.precompiled_queries", 1);
  } else {
    auto query = query::ParseQuery(req.body);
    if (!query.ok()) {
      SendJsonError(fd, 400, query.status().ToString());
      return;
    }
    parsed = std::move(query).value();
  }

  // Request-scoped observability: every metric and span of this query —
  // including parallel engine work adopted onto shared-pool workers —
  // attributes to this scope, disjoint from concurrent requests.
  obs::QueryScope scope("serve.query");

  // The per-request execution contract: limits map onto the same
  // RunContext truncation contract the CLI flags use, and the server-wide
  // drain token makes SIGTERM stop this stream at its next answer
  // boundary.
  exec::RunContext run;
  run.set_cancel_token(drain_);
  if (params.deadline_ms >= 0) run.set_deadline_after_ms(params.deadline_ms);
  if (params.max_answers >= 0) run.set_max_answers(params.max_answers);
  if (params.budget >= 0) run.set_work_budget(params.budget);

  const exec::EngineOptions engine{
      .pool = pool_.get(), .run = &run, .backend = params.backend};
  const query::AnswerMode mode = params.enum_mode ? query::AnswerMode::kEnum
                                                  : query::AnswerMode::kRanked;
  // The same pipeline as tms_cli topk / enum, and the same serializer as
  // its --stats=json results: answer lines are byte-identical to one-shot
  // output by construction.
  auto pipeline =
      stored != nullptr
          ? query::AnswerPipeline::Create(*mu, *stored, mode, engine)
          : query::AnswerPipeline::Create(*mu, *parsed, mode, engine);
  if (!pipeline.ok()) {
    // Alphabet mismatch, invalid transducer, ...: the query never ran, so
    // this is still a clean HTTP error, not a mid-stream footer.
    SendJsonError(fd, 400, pipeline.status().ToString());
    return;
  }

  TMS_OBS_COUNT("serve.http.200", 1);
  TMS_OBS_COUNT("serve.queries", 1);
  std::string head = ChunkedResponseHead(
      200, "application/x-ndjson",
      "X-Query-Id: " + std::to_string(scope.query_id()) + "\r\n");
  if (!SendAll(fd, head)) return;
  ChunkedWriter writer(fd);
  bool client_alive = true;
  std::string stream_error;

  obs::DelayRecorder delay("serve.query");
  for (int i = 0; i < params.k && client_alive; ++i) {
    auto answer = pipeline->Next();
    if (!answer.ok()) {
      stream_error = answer.status().ToString();
      break;
    }
    if (!answer->has_value()) break;
    const query::AnswerInfo& info = **answer;
    const std::string text = FormatStr(pipeline->output_alphabet(),
                                       info.output);
    std::string line;
    if (params.enum_mode) {
      line += '"';
      obs::AppendJsonEscaped(text, &line);
      line += '"';
    } else {
      AppendAnswerJson(text, pipeline->score_key(), info.emax,
                       info.confidence, &line);
    }
    line += '\n';
    client_alive = writer.WriteChunk(line);
    if (client_alive) {
      TMS_OBS_COUNT("serve.answers_streamed", 1);
      delay.RecordAnswer();
    }
  }
  if (!client_alive) {
    TMS_OBS_COUNT("serve.client_disconnects", 1);
    return;
  }

  // The footer: a truncated stream is a clean prefix plus this structured
  // stop reason (same ExecJson the CLI emits), so clients distinguish
  // "done" from "deadline fired" without guessing.
  std::string footer = "{\"done\":true,";
  if (!stream_error.empty()) {
    footer += "\"error\":\"";
    obs::AppendJsonEscaped(stream_error, &footer);
    footer += "\",";
  }
  footer += "\"exec\":";
  footer += ExecJson(run.status(), run.stop_reason(), run.answers_emitted(),
                     run.work_charged());
  footer += "}\n";
  if (writer.WriteChunk(footer)) writer.Finish();
}

void HttpServer::HandleBatch(int fd, RequestReader* reader,
                             const HttpRequest& request) {
  // The worker half of the dist protocol (docs/DISTRIBUTED.md): this
  // server's registry IS its shard of the collection. Admission shares
  // the /query gate — a batch counts as one in-flight query.
  GateGuard gate(&gate_);
  if (!gate.admitted()) {
    SendJsonError(fd, 429,
                  "batch rejected: " + std::to_string(gate_.max_inflight()) +
                      " queries already in flight",
                  "Retry-After: 1\r\n");
    return;
  }

  HttpRequest req = request;
  Status st = reader->ReadBody(&req);
  if (!st.ok()) {
    if (st.code() == StatusCode::kInvalidArgument) {
      SendJsonError(fd, 400, st.message());
    } else if (st.code() == StatusCode::kOutOfRange) {
      SendJsonError(fd, 413, st.message());
    }
    return;
  }

  QueryParams params;
  std::string error = ParseParams(req.query, options_.backend, &params);
  if (!error.empty()) {
    SendJsonError(fd, 400, error);
    return;
  }
  if (params.enum_mode) {
    SendJsonError(fd, 400, "batch is ranked-only (mode=enum unsupported)");
    return;
  }
  if (!params.precompiled.empty()) {
    SendJsonError(fd, 400, "batch does not take precompiled queries");
    return;
  }
  auto query = query::ParseQuery(req.body);
  if (!query.ok()) {
    SendJsonError(fd, 400, query.status().ToString());
    return;
  }
  // The batch layer ranks by E_max, so an s-projector runs as its
  // equivalent transducer.
  const transducer::Transducer t =
      query::AsTransducer(std::move(query).value());

  obs::QueryScope scope("serve.batch");
  exec::RunContext run;
  run.set_cancel_token(drain_);
  if (params.deadline_ms >= 0) run.set_deadline_after_ms(params.deadline_ms);
  if (params.max_answers >= 0) run.set_max_answers(params.max_answers);
  if (params.budget >= 0) run.set_work_budget(params.budget);

  // Evaluate the shard, keeping only what the stream needs: the ranked
  // rows, already serialized, and the per-shard coverage. The collection
  // copy and the evaluator die with this
  // block, before the first row is written, so a slow reader never pins
  // them, and the write loop below allocates nothing.
  std::vector<std::string> lines;
  size_t sequences = 0;
  int64_t failed_sequences = 0;
  bool truncated = false;
  exec::StopReason reason = exec::StopReason::kNone;
  {
    // The shard: every registered model, keyed by model name. The batch
    // layer requires one common alphabet; a mixed registry is a 400, not
    // a crash.
    const std::vector<std::string> names = registry_.Names();
    db::SequenceCollection collection(
        names.empty() ? t.input_alphabet()
                      : registry_.Find(names.front())->nodes());
    for (const std::string& name : names) {
      Status inserted = collection.Insert(name, *registry_.Find(name));
      if (!inserted.ok()) {
        SendJsonError(fd, 400,
                      "model '" + name + "': " + inserted.ToString());
        return;
      }
    }

    db::BatchEvaluator::Options batch_options{
        .pool = pool_.get(), .run = &run, .backend = params.backend};
    auto batch = db::BatchEvaluator::Create(&collection, &t, batch_options);
    if (!batch.ok()) {
      SendJsonError(fd, 400, batch.status().ToString());
      return;
    }
    const std::vector<db::BatchEvaluator::SequenceResult> results =
        batch->EvaluateAll(params.k);

    // Per-shard coverage, the shard's own account for the merged footer.
    sequences = results.size();
    for (const db::BatchEvaluator::SequenceResult& r : results) {
      if (!r.status.ok()) ++failed_sequences;
      if (r.truncated && !truncated) {
        truncated = true;
        reason = r.reason;
      }
    }
    // The shared row serializer; the dist coordinator forwards these
    // bytes verbatim.
    for (const dist::RankedRow& row : dist::RankedReferenceRows(results)) {
      std::string line;
      AppendBatchRowJson(row.key,
                         FormatStr(t.output_alphabet(), row.answer.output),
                         row.answer.emax, row.answer.confidence, &line);
      line += '\n';
      lines.push_back(std::move(line));
    }
  }

  TMS_OBS_COUNT("serve.http.200", 1);
  TMS_OBS_COUNT("dist.worker.batches", 1);
  std::string head = ChunkedResponseHead(
      200, "application/x-ndjson",
      "X-Query-Id: " + std::to_string(scope.query_id()) + "\r\n");
  if (!SendAll(fd, head)) return;
  ChunkedWriter writer(fd);

  // Batch-then-stream: ranking is global over the shard, so the first
  // row can only be known once every sequence has evaluated.
  bool client_alive = true;
  for (const std::string& line : lines) {
    if (TMS_FAULT_POINT("dist.mid_stream")) {
      // An armed `exit` action never returns; a `fail` action simulates
      // the worker dying here — cut the stream without a footer, exactly
      // what the coordinator's straggler path expects.
      TMS_OBS_COUNT("dist.worker.stream_faults", 1);
      return;
    }
    client_alive = writer.WriteChunk(line);
    if (!client_alive) break;
    TMS_OBS_COUNT("dist.worker.rows_streamed", 1);
  }
  if (!client_alive) {
    TMS_OBS_COUNT("serve.client_disconnects", 1);
    return;
  }

  // Fold any shared limit that fired inside sequence children into the
  // parent run before reporting it.
  (void)run.StopRequested();
  std::string footer = "{\"done\":true,\"shard\":";
  footer += std::to_string(params.shard);
  footer += ",\"coverage\":{\"sequences\":";
  footer += std::to_string(sequences);
  footer += ",\"failed_sequences\":";
  footer += std::to_string(failed_sequences);
  footer += ",\"truncated\":";
  footer += truncated ? "true" : "false";
  footer += ",\"reason\":\"";
  footer += StopReasonName(reason);
  footer += "\"},\"exec\":";
  footer += ExecJson(run.status(), run.stop_reason(), run.answers_emitted(),
                     run.work_charged());
  footer += "}\n";
  if (writer.WriteChunk(footer)) writer.Finish();
}

}  // namespace tms::serve
