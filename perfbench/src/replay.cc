#include "replay.h"

#include <chrono>
#include <fstream>
#include <optional>
#include <utility>

#include "db/batch_evaluator.h"
#include "db/collection.h"
#include "dist/sharded_batch.h"
#include "exec/engine_options.h"
#include "exec/run_context.h"
#include "io/text_format.h"
#include "obs/query_scope.h"
#include "query/confidence.h"
#include "query/engine_factory.h"
#include "serve/wire.h"
#include "strings/str.h"

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int Tracer::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_;
  span.request_id = request_id_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::End(int index) {
  if (index < 0) return;
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  open_ = span.parent;
}

std::map<std::string, double> Tracer::SelfMs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    const int parent = spans_[i].parent;
    if (parent >= 0) {
      self[static_cast<size_t>(parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-6;
  }
  return out;
}

tms::Status Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request_id << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  out.close();
  if (!out) return tms::Status::Internal("cannot write " + path);
  return tms::Status::Ok();
}

Replayer::Replayer(const Workload& workload,
                   const tms::serve::ModelRegistry* registry)
    : workload_(workload), registry_(registry) {
  // tms_server semantics: --threads=N is a pool of N-1 workers plus the
  // request thread.
  if (workload.server_threads > 1) {
    pool_ = std::make_unique<tms::exec::ThreadPool>(workload.server_threads -
                                                    1);
  }
}

tms::StatusOr<std::vector<std::string>> Replayer::Run(const Request& request,
                                                      Tracer* tracer) {
  ScopedSpan root(tracer, "request");
  return workload_.batch ? RunBatch(request, tracer)
                         : RunQuery(request, tracer);
}

tms::StatusOr<std::vector<std::string>> Replayer::RunQuery(
    const Request& request, Tracer* tracer) {
  const tms::markov::MarkovSequence* mu = registry_->Find(request.model);
  if (mu == nullptr) {
    return tms::Status::NotFound("unknown model '" + request.model + "'");
  }
  std::optional<tms::transducer::Transducer> t;
  {
    ScopedSpan span(tracer, "io.parse_query");
    auto parsed = tms::io::ParseTransducer(request.body);
    if (!parsed.ok()) return parsed.status();
    t = std::move(parsed).value();
  }
  tms::obs::QueryScope scope("serve.query");
  tms::exec::RunContext run;
  tms::exec::EngineOptions engine;
  engine.pool = pool_.get();
  engine.run = &run;
  tms::StatusOr<std::unique_ptr<tms::ranking::AnswerStream>> stream =
      tms::Status::Internal("unreachable");
  {
    ScopedSpan span(tracer, "query.make_enumerator");
    stream = tms::query::MakeEnumerator(tms::query::EnumeratorKind::kEmax,
                                        *mu, *t, engine);
  }
  if (!stream.ok()) return stream.status();
  std::vector<std::string> lines;
  for (int i = 0; i < workload_.k; ++i) {
    std::optional<tms::ranking::ScoredAnswer> answer;
    {
      ScopedSpan span(tracer, "ranking.next");
      answer = (*stream)->Next();
    }
    if (!answer.has_value()) break;
    tms::StatusOr<double> conf = 0.0;
    {
      ScopedSpan span(tracer, "query.confidence");
      conf = tms::query::Confidence(*mu, *t, answer->output);
    }
    if (!conf.ok()) return conf.status();
    ScopedSpan span(tracer, "serve.wire");
    std::string line;
    tms::serve::AppendAnswerJson(
        tms::FormatStr(t->output_alphabet(), answer->output), "emax",
        answer->score, *conf, &line);
    lines.push_back(std::move(line));
  }
  return lines;
}

tms::StatusOr<std::vector<std::string>> Replayer::RunBatch(
    const Request& request, Tracer* tracer) {
  std::optional<tms::transducer::Transducer> t;
  {
    ScopedSpan span(tracer, "io.parse_query");
    auto parsed = tms::io::ParseTransducer(request.body);
    if (!parsed.ok()) return parsed.status();
    t = std::move(parsed).value();
  }
  const std::vector<std::string> names = registry_->Names();
  if (names.empty()) return tms::Status::InvalidArgument("empty registry");
  tms::db::SequenceCollection collection(registry_->Find(names[0])->nodes());
  for (const std::string& name : names) {
    TMS_RETURN_IF_ERROR(collection.Insert(name, *registry_->Find(name)));
  }
  tms::obs::QueryScope scope("serve.batch");
  tms::exec::RunContext run;
  tms::db::BatchEvaluator::Options options;
  options.pool = pool_.get();
  options.run = &run;
  std::vector<tms::db::BatchEvaluator::SequenceResult> results;
  {
    ScopedSpan span(tracer, "db.evaluate_all");
    auto batch = tms::db::BatchEvaluator::Create(&collection, &*t, options);
    if (!batch.ok()) return batch.status();
    results = batch->EvaluateAll(workload_.k);
  }
  for (const auto& r : results) {
    if (!r.status.ok()) return r.status;
  }
  std::vector<tms::dist::RankedRow> rows;
  {
    ScopedSpan span(tracer, "dist.rank");
    rows = tms::dist::RankedReferenceRows(results);
  }
  ScopedSpan span(tracer, "serve.wire");
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const tms::dist::RankedRow& row : rows) {
    std::string line;
    tms::serve::AppendBatchRowJson(
        row.key, tms::FormatStr(t->output_alphabet(), row.answer.output),
        row.answer.emax, row.answer.confidence, &line);
    lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace perfbench
