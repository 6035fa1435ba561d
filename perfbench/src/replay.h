// In-process replay of the benchmark's requests, with per-layer spans.
//
// The replay repeats what tms_server does for a request, call for call,
// on the same model files and with the same thread count, so that it
// yields both the reference answer lines every served response is
// byte-checked against and a per-layer account of where the in-process
// time goes. Spans are recorded here, in the benchmark, around the
// public call each layer exposes (tracing inside the library is not
// assumed):
//
//   request                   one replayed request (root)
//     io.parse_query          io::ParseTransducer
//     query.make_enumerator   query::MakeEnumerator (includes optimize)
//     ranking.next            AnswerStream::Next
//     query.confidence        query::Confidence
//     db.evaluate_all         BatchEvaluator::Create + EvaluateAll
//     dist.rank               dist::RankedReferenceRows
//     serve.wire              serve::AppendAnswerJson / AppendBatchRowJson
//
// A layer's self time is its span's duration minus the time its child
// spans cover; the root's self time is the unattributed remainder.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/thread_pool.h"
#include "serve/registry.h"
#include "workloads.h"

namespace perfbench {

/// One recorded span. `parent` indexes the enclosing span (-1 = root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t request_id = 0;
};

/// Keeps spans in memory; written out once, at the end of a run. A
/// disabled tracer records nothing, so the untraced replay runs the same
/// code with only a branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_request_id(int64_t id) { request_id_ = id; }

  /// Opens a span under the innermost open one; returns its index, or
  /// -1 when disabled.
  int Begin(const char* name);
  void End(int index);

  /// Self time per span name, in milliseconds, summed over all spans.
  std::map<std::string, double> SelfMs() const;

  /// Writes the spans as a JSON array of
  /// {"name","start_ns","end_ns","parent","request"} objects.
  tms::Status WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  int64_t request_id_ = 0;
  int open_ = -1;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Replays requests of one workload against an in-process registry.
class Replayer {
 public:
  /// `registry` is non-owning and must outlive the replayer.
  Replayer(const Workload& workload, const tms::serve::ModelRegistry* registry);

  /// Handles `request` as tms_server would and returns its answer (or
  /// batch row) lines, each without the trailing newline.
  tms::StatusOr<std::vector<std::string>> Run(const Request& request,
                                              Tracer* tracer);

 private:
  tms::StatusOr<std::vector<std::string>> RunQuery(const Request& request,
                                                   Tracer* tracer);
  tms::StatusOr<std::vector<std::string>> RunBatch(const Request& request,
                                                   Tracer* tracer);

  const Workload& workload_;
  const tms::serve::ModelRegistry* registry_;
  std::unique_ptr<tms::exec::ThreadPool> pool_;  // null at one thread
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
