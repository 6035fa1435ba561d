// Long-lived HTTP server streaming ranked answers incrementally.
//
// The paper's headline result is polynomial-DELAY enumeration: answer i+1
// arrives a bounded time after answer i, independent of how many answers
// remain. That shape is tailor-made for server-streaming — a client
// should see answer 1 at answer-1 delay, not after the full top-k — and
// this server is the library→service line: it loads a ModelRegistry once,
// accepts concurrent requests, and writes each ranked answer as one
// NDJSON line of a chunked HTTP response the moment the enumerator emits
// it.
//
// Endpoints (docs/SERVING.md):
//   GET  /healthz           -> 200 "ok\n"
//   GET  /metrics           -> Prometheus text exposition of the global
//                              metrics registry (obs/export.h)
//   GET  /models            -> {"models":[...]} the registry's names
//   POST /query/<model>     -> body: a transducer or s-projector in the
//                              io/ text format; response: one NDJSON line
//                              per ranked answer, then a footer line
//                              {"done":true,"exec":{...}} carrying the
//                              structured stop reason.
//     parameters: k, mode=ranked|enum, deadline_ms, max_answers, budget,
//                 backend=dense|sparse|auto, precompiled=<name>
//                 (registry-precompiled query, body must be empty; see
//                 serve/registry.h); any other name is a 400
//   POST /batch             -> the worker half of the dist protocol
//                              (docs/DISTRIBUTED.md): evaluates the body
//                              query against EVERY registered model (this
//                              worker's shard) and streams the globally
//                              ranked rows — one key-tagged NDJSON line
//                              per answer (serve::AppendBatchRowJson),
//                              nonincreasing in emax — then a footer
//                              {"done":true,"shard":S,"coverage":{...},
//                              "exec":{...}}. Same parameters as /query
//                              (k and max_answers apply per sequence;
//                              deadline/budget bound the whole shard)
//                              plus shard=<id>, echoed in the footer.
//
// Execution model: every admitted query runs on its own connection thread
// under its own obs::QueryScope (request-scoped metrics, trace
// propagation) and its own exec::RunContext (per-request deadline /
// answer cap / budget mapped onto the existing truncation contract — a
// truncated response is a clean prefix plus the footer's stop reason).
// The engines' parallel work multiplexes over ONE shared exec::ThreadPool
// for the whole server. Admission control (serve/admission.h) bounds
// in-flight queries and refuses the rest with 429.
//
// Shutdown: Shutdown() (the tool calls it on SIGINT/SIGTERM) stops
// accepting, fires the server-wide CancelToken bound into every
// in-flight RunContext, and joins every connection thread — each live
// stream ends at its next answer boundary with a CANCELLED footer, so
// clients always see a well-formed (if short) response.

#ifndef TMS_SERVE_SERVER_H_
#define TMS_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "exec/run_context.h"
#include "exec/thread_pool.h"
#include "kernels/backend.h"
#include "serve/admission.h"
#include "serve/http.h"
#include "serve/registry.h"

namespace tms::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Total engine concurrency shared by ALL queries: the server's
  /// exec::ThreadPool gets threads-1 workers (the request thread is the
  /// extra lane, exec::ThreadPool semantics). 1 = fully sequential.
  int threads = 1;
  /// Admission gate: maximum concurrently executing queries; further
  /// /query requests get 429. <= 0 refuses every query (drain mode).
  int max_inflight = 8;
  /// Hard cap on simultaneously open connections; beyond it new
  /// connections are answered 503 without spawning a thread.
  int max_connections = 64;
  /// Kernel backend for every query unless overridden per request.
  kernels::BackendChoice backend = kernels::BackendChoice::kAuto;
  /// Request size limits / shutdown poll granularity.
  RequestReader::Limits limits;
};

/// See the file comment. Construct, Start(), and eventually Shutdown()
/// (the destructor calls it too). Thread-safe after Start: every public
/// accessor may be called from any thread.
class HttpServer {
 public:
  HttpServer(ModelRegistry registry, ServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and starts the accept thread. Fails if the address
  /// is unavailable.
  Status Start();

  /// The bound port (after a successful Start).
  int port() const { return port_; }

  /// Queries the admission gate currently admits (AdmissionGate::inflight).
  int inflight() const { return gate_.inflight(); }

  /// The token Shutdown fires; external code may bind it into its own
  /// contexts or cancel it to drain the server remotely.
  exec::CancelToken cancel_token() const { return drain_; }

  /// Graceful drain: stop accepting, cancel every in-flight stream, join
  /// all threads. Idempotent; safe from any thread except a connection
  /// thread.
  void Shutdown();

 private:
  void AcceptLoop();
  void HandleConnection(int fd);
  void HandleQuery(int fd, RequestReader* reader, const HttpRequest& request,
                   const std::string& model_name);
  void HandleBatch(int fd, RequestReader* reader, const HttpRequest& request);
  // Joins connection threads that have announced completion.
  void ReapFinished();
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

  ModelRegistry registry_;
  ServerOptions options_;
  AdmissionGate gate_;
  std::unique_ptr<exec::ThreadPool> pool_;  // null when threads <= 1
  exec::CancelToken drain_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::map<uint64_t, std::thread> connections_;
  std::vector<uint64_t> finished_;
  uint64_t next_connection_id_ = 0;

  // Serializes Shutdown() callers; shut_down_ makes it idempotent after
  // the joins complete.
  std::mutex shutdown_mu_;
  bool shut_down_ = false;
};

}  // namespace tms::serve

#endif  // TMS_SERVE_SERVER_H_
