// tms_cli — command-line query runner over the text formats of io/.
//
//   tms_cli topk  <sequence-file> <query-file> [k]
//       Top-k answers by decreasing E_max, with confidences (transducer
//       queries), or by decreasing I_max with exact confidences
//       (s-projector queries).
//   tms_cli conf  <sequence-file> <query-file> <output-symbol>...
//       Confidence (and E_max) of one answer.
//   tms_cli enum  <sequence-file> <query-file> [limit]
//       Unranked enumeration (Theorem 4.1), up to `limit` answers.
//   tms_cli batch <query-file> <k> <sequence-file>...
//       One query across many sequences (db::BatchEvaluator): per-sequence
//       top-k answers by E_max, keyed by sequence file. With --threads=N
//       the sequences are evaluated concurrently; output is identical at
//       every thread count.
//   tms_cli dist <query-file> <k> --workers=host:port[,host:port...]
//       Scatter/gather across running tms_server workers: POSTs the query
//       to every worker's /batch endpoint (worker i = shard i), k-way
//       merges the ranked NDJSON streams, and prints the merged rows
//       verbatim followed by a {"done":true,"shards":[...]} coverage
//       footer. A dead or truncated worker degrades coverage, never the
//       ordering of the surviving rows.
//   tms_cli explain <sequence-file> <query-file> [k]
//       EXPLAIN ANALYZE for a top-k run: executes the query under a
//       per-query obs::QueryScope and prints the cost report (phase
//       breakdown, per-answer delay, kernel backend
//       traffic, composed-automaton sizes, budget/deadline consumption)
//       instead of the answers. With --stats=json the report is the
//       "explain" field of the JSON document.
//   tms_cli show  <file>
//       Parse a model/query file and print its canonical form.
//
// Execution flags (see docs/CONCURRENCY.md, docs/ROBUSTNESS.md):
//   --threads=N      total evaluation concurrency (default 1). `topk` solves
//                    Lawler child subspaces in parallel; `batch` spreads
//                    sequences across threads.
//   --deadline-ms=N  stop the run N milliseconds after it starts, at the
//                    next answer boundary.
//   --max-answers=N  stop after N emitted answers (per sequence in batch).
//   --budget=N       work-unit budget (subspace solves / oracle calls),
//                    shared across the whole command.
//   --backend=dense|sparse|auto
//                    kernel path of the DP layers (default auto: sparse
//                    when the transition matrices are sparse enough, see
//                    docs/SPARSE.md). Output is byte-identical across
//                    backends; only the running time changes.
// The answers printed under any of these limits are always an exact prefix
// of the unbounded output. A truncated run still exits 0: the stop reason
// goes to stderr (human mode) or the "exec" field (--stats=json).
//
// Observability flags (any command, see docs/OBSERVABILITY.md):
//   --stats        after the command, dump the metrics registry to stderr
//                  (Prometheus text exposition).
//   --stats=json   emit ONE machine-readable JSON document on stdout:
//                  {"command":..., "results":..., "metrics":...} — the
//                  human tables are suppressed so stdout is valid JSON.
//   --stats=prom   emit the Prometheus text exposition on stdout instead
//                  of the human tables.
//   --trace=FILE   collect trace spans and write Chrome-trace JSON to
//                  FILE (open in chrome://tracing or Perfetto).
//   --explain      append the per-query explain report to any command
//                  (stderr in human mode, "explain" field of --stats=json).
//   --flight-dump=off|stderr|FILE
//                  where a truncation flight-recorder dump goes (see
//                  docs/OBSERVABILITY.md). Default: stderr, unless the
//                  TMS_FLIGHT_DUMP environment variable already chose.
//
// Sequence files use the `markov-sequence` format; query files use
// `transducer` or `s-projector` (see src/io/text_format.h). Sample files
// live in examples/data/.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.h"
#include "db/batch_evaluator.h"
#include "db/collection.h"
#include "dist/client.h"
#include "dist/coordinator.h"
#include "exec/run_context.h"
#include "exec/thread_pool.h"
#include "io/text_format.h"
#include "kernels/backend.h"
#include "obs/explain.h"
#include "obs/obs.h"
#include "projector/imax_enum.h"
#include "projector/sprojector_confidence.h"
#include "query/answers.h"
#include "query/evaluator.h"
#include "serve/wire.h"

namespace {

using namespace tms;

enum class StatsMode { kNone, kText, kJson, kProm };

struct ObsOptions {
  StatsMode stats = StatsMode::kNone;
  std::string trace_path;
  bool explain = false;
  std::string flight_dump;  // "" = default, "off", "stderr", or a path
};

// --threads=N: total evaluation concurrency. The pool gets N-1 workers;
// the calling thread is the Nth lane (exec::ThreadPool semantics), so
// N <= 1 means no pool at all — the plain sequential engine.
struct ExecOptions {
  int threads = 1;
  // --workers=host:port,... for `dist`.
  std::string workers;
  // -1 = unbounded (flag absent).
  int64_t deadline_ms = -1;
  int64_t max_answers = -1;
  int64_t budget = -1;
  // --backend=dense|sparse|auto: kernel path of every DP underneath.
  // Output is byte-identical across backends (docs/SPARSE.md).
  kernels::BackendChoice backend = kernels::BackendChoice::kAuto;

  exec::ThreadPool* MakePool() {
    if (threads > 1 && pool_ == nullptr) {
      pool_ = std::make_unique<exec::ThreadPool>(threads - 1);
    }
    return pool_.get();
  }

  // The full engine-options bundle the enumeration engines consume.
  exec::EngineOptions MakeEngineOptions() {
    return {.pool = MakePool(), .run = MakeRun(), .backend = backend};
  }

  // The run context already created by MakeRun, or null — for the explain
  // report, which must not conjure a context the command never had.
  const exec::RunContext* PeekRun() const { return run_.get(); }

  // The run context, or null when no limit flag was given (engines treat
  // null as unbounded and skip every check).
  exec::RunContext* MakeRun() {
    if (run_ == nullptr &&
        (deadline_ms >= 0 || max_answers >= 0 || budget >= 0)) {
      run_ = std::make_unique<exec::RunContext>();
      if (deadline_ms >= 0) run_->set_deadline_after_ms(deadline_ms);
      if (max_answers >= 0) run_->set_max_answers(max_answers);
      if (budget >= 0) run_->set_work_budget(budget);
    }
    return run_.get();
  }

 private:
  std::unique_ptr<exec::ThreadPool> pool_;
  std::unique_ptr<exec::RunContext> run_;
};

// Machine-readable results accumulator for --stats=json: the command
// fills `results` with one JSON value (object or array).
struct CliOutput {
  bool json = false;
  std::string results;
  std::string exec_json;     // the "exec" field of --stats=json, or empty
  std::string explain_json;  // the "explain" field of --stats=json, or empty
};

// The wire spellings (StopReasonName / ExecJson / AppendAnswerJson) are
// shared with tms_server — serve/wire.h — so a streamed /query response
// stays byte-identical to the CLI's --stats=json results by construction.
using serve::AppendAnswerJson;
using serve::ExecJson;
using serve::StopReasonName;

// After a bounded command: stash the outcome for EmitStats and, in human
// mode, tell the user on stderr why the output is short.
void ReportRun(const exec::RunContext* run, CliOutput* out) {
  if (run == nullptr) return;
  out->exec_json = ExecJson(run->status(), run->stop_reason(),
                            run->answers_emitted(), run->work_charged());
  if (!out->json && run->truncated()) {
    std::fprintf(stderr, "truncated (%s) after %lld answer(s), %lld work\n",
                 StopReasonName(run->stop_reason()),
                 static_cast<long long>(run->answers_emitted()),
                 static_cast<long long>(run->work_charged()));
  }
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: tms_cli topk <sequence> <query> [k]\n"
               "       tms_cli conf <sequence> <query> <output-symbol>...\n"
               "       tms_cli enum <sequence> <query> [limit]\n"
               "       tms_cli batch <query> <k> <sequence>...\n"
               "       tms_cli dist <query> <k> "
               "--workers=host:port[,host:port...]\n"
               "       tms_cli explain <sequence> <query> [k]\n"
               "       tms_cli show <file>\n"
               "flags: --threads=N | --deadline-ms=N | --max-answers=N | "
               "--budget=N |\n"
               "       --backend=dense|sparse|auto |\n"
               "       --stats | --stats=json | --stats=prom | --trace=FILE |\n"
               "       --explain | --flight-dump=off|stderr|FILE\n");
  return 2;
}

StatusOr<markov::MarkovSequence> LoadSequence(const std::string& path) {
  auto text = io::ReadFile(path);
  if (!text.ok()) return text.status();
  return io::ParseMarkovSequence(*text);
}

StatusOr<query::Query> ReadQuery(const std::string& path) {
  auto text = io::ReadFile(path);
  if (!text.ok()) return text.status();
  return query::ParseQuery(*text);
}

// topk / explain (ranked) and enum: one answer pipeline, printed as a
// table or as the --stats=json results array.
int RunAnswers(const std::string& seq_path, const std::string& query_path,
               query::AnswerMode mode, int limit, ExecOptions* exec,
               CliOutput* out) {
  auto mu = LoadSequence(seq_path);
  if (!mu.ok()) return Fail(mu.status());
  auto query = ReadQuery(query_path);
  if (!query.ok()) return Fail(query.status());
  auto pipeline = query::AnswerPipeline::Create(*mu, *query, mode,
                                                exec->MakeEngineOptions());
  if (!pipeline.ok()) return Fail(pipeline.status());

  const bool ranked = mode == query::AnswerMode::kRanked;
  if (ranked && !out->json) {
    std::printf("%-30s %-14s %-14s\n", "answer",
                std::strcmp(pipeline->score_key(), "emax") == 0 ? "E_max"
                                                                : "I_max",
                "confidence");
  }
  out->results = "[";
  int count = 0;
  for (; count < limit; ++count) {
    auto answer = pipeline->Next();
    if (!answer.ok()) return Fail(answer.status());
    if (!answer->has_value()) break;
    const query::AnswerInfo& info = **answer;
    const std::string text = FormatStr(pipeline->output_alphabet(),
                                       info.output);
    if (out->json) {
      if (count > 0) out->results += ',';
      if (ranked) {
        AppendAnswerJson(text, pipeline->score_key(), info.emax,
                         info.confidence, &out->results);
      } else {
        out->results += '"';
        obs::AppendJsonEscaped(text, &out->results);
        out->results += '"';
      }
    } else if (ranked) {
      std::printf("%-30s %-14.6g %-14.6g\n", text.c_str(), info.emax,
                  info.confidence);
    } else {
      std::printf("%s\n", text.c_str());
    }
  }
  out->results += ']';
  if (!ranked && !out->json) std::fprintf(stderr, "%d answer(s)\n", count);
  ReportRun(exec->MakeRun(), out);
  return 0;
}

int RunConf(const std::string& seq_path, const std::string& query_path,
            const std::vector<std::string>& symbols, CliOutput* out) {
  auto mu = LoadSequence(seq_path);
  if (!mu.ok()) return Fail(mu.status());
  auto query = ReadQuery(query_path);
  if (!query.ok()) return Fail(query.status());
  const auto* t = std::get_if<transducer::Transducer>(&*query);
  const auto* p = std::get_if<projector::SProjector>(&*query);

  const Alphabet& delta = t != nullptr ? t->output_alphabet() : p->alphabet();
  Str o;
  for (const std::string& symbol : symbols) {
    auto sym = delta.Find(symbol);
    if (!sym.ok()) return Fail(sym.status());
    o.push_back(*sym);
  }

  double confidence = 0.0;
  const char* score_key = nullptr;
  double score = 0.0;
  if (t != nullptr) {
    auto eval = query::Evaluator::Create(&*mu, t);
    if (!eval.ok()) return Fail(eval.status());
    auto conf = eval->Confidence(o);
    if (!conf.ok()) return Fail(conf.status());
    auto emax = eval->Emax(o);
    confidence = *conf;
    score_key = "emax";
    score = emax.has_value() ? *emax : 0.0;
  } else {
    auto conf = projector::SProjectorConfidence(*mu, *p, o);
    if (!conf.ok()) return Fail(conf.status());
    auto computer = projector::IndexedConfidence::Create(&*mu, p);
    if (!computer.ok()) return Fail(computer.status());
    confidence = *conf;
    score_key = "imax";
    score = projector::ImaxOfAnswer(*computer, o);
  }
  if (out->json) {
    out->results = "{\"confidence\":";
    obs::AppendJsonNumber(confidence, &out->results);
    out->results += ",\"";
    out->results += score_key;
    out->results += "\":";
    obs::AppendJsonNumber(score, &out->results);
    out->results += '}';
  } else {
    std::printf("confidence %.10g\n", confidence);
    std::printf("%-10s %.10g\n",
                std::strcmp(score_key, "emax") == 0 ? "E_max" : "I_max",
                score);
  }
  return 0;
}

int RunBatch(const std::string& query_path,
             const std::vector<std::string>& seq_paths, int k,
             ExecOptions* exec, CliOutput* out) {
  auto query = ReadQuery(query_path);
  if (!query.ok()) return Fail(query.status());
  // BatchEvaluator ranks by E_max, so an s-projector query runs as its
  // equivalent transducer.
  const transducer::Transducer t = query::AsTransducer(std::move(*query));
  db::SequenceCollection collection(t.input_alphabet());
  for (const std::string& path : seq_paths) {
    auto mu = LoadSequence(path);
    if (!mu.ok()) return Fail(mu.status());
    Status st = collection.Insert(path, std::move(*mu));
    if (!st.ok()) return Fail(st);
  }

  db::BatchEvaluator::Options options{.threads = exec->threads,
                                      .run = exec->MakeRun(),
                                      .backend = exec->backend};
  auto batch = db::BatchEvaluator::Create(&collection, &t, options);
  if (!batch.ok()) return Fail(batch.status());
  const std::vector<db::BatchEvaluator::SequenceResult> results =
      batch->EvaluateAll(k);
  // Unbounded, the first failed sequence (in key order) fails the command.
  // Bounded, each sequence reports its own status and truncation.
  const bool bounded = options.run != nullptr;
  if (!bounded) {
    for (const db::BatchEvaluator::SequenceResult& r : results) {
      if (!r.status.ok()) return Fail(r.status);
    }
  }

  if (!out->json) {
    std::printf("%-30s %-30s %-14s %-14s\n", "sequence", "answer", "E_max",
                "confidence");
  }
  out->results = "[";
  bool first = true;
  for (const db::BatchEvaluator::SequenceResult& r : results) {
    if (out->json && bounded) {
      // One entry per sequence, carrying its own exec outcome.
      if (!first) out->results += ',';
      first = false;
      out->results += "{\"sequence\":\"";
      obs::AppendJsonEscaped(r.key, &out->results);
      out->results += "\",\"exec\":";
      out->results += ExecJson(r.status, r.reason,
                               static_cast<int64_t>(r.answers.size()), 0);
      out->results += ",\"answers\":[";
      bool first_answer = true;
      for (const query::AnswerInfo& info : r.answers) {
        if (!first_answer) out->results += ',';
        first_answer = false;
        AppendAnswerJson(FormatStr(t.output_alphabet(), info.output), "emax",
                         info.emax, info.confidence, &out->results);
      }
      out->results += "]}";
      continue;
    }
    for (const query::AnswerInfo& info : r.answers) {
      const std::string answer = FormatStr(t.output_alphabet(), info.output);
      if (!out->json) {
        std::printf("%-30s %-30s %-14.6g %-14.6g\n", r.key.c_str(),
                    answer.c_str(), info.emax, info.confidence);
        continue;
      }
      // One flat row per answer: the answer fields of AppendAnswerJson
      // minus its braces, after the sequence key.
      if (!first) out->results += ',';
      first = false;
      out->results += "{\"sequence\":\"";
      obs::AppendJsonEscaped(r.key, &out->results);
      out->results += "\",";
      std::string answer_json;
      AppendAnswerJson(answer, "emax", info.emax, info.confidence,
                       &answer_json);
      out->results += answer_json.substr(1);
    }
    if (out->json) continue;
    if (!r.status.ok()) {
      std::fprintf(stderr, "%s: %s\n", r.key.c_str(),
                   r.status.ToString().c_str());
    } else if (r.truncated) {
      std::fprintf(stderr, "%s: truncated after %zu answer(s)\n",
                   r.key.c_str(), r.answers.size());
    }
  }
  out->results += ']';
  if (!bounded) return 0;
  // Fold any shared limit (deadline / budget / cancel) into the parent
  // stream so the top-level exec report reflects it; per-sequence answer
  // caps stay per sequence.
  (void)options.run->StopRequested();
  ReportRun(options.run, out);
  return 0;
}

// Scatter/gather against running tms_server workers: worker i is shard i.
// Merged rows are the workers' verbatim NDJSON line bytes; the footer
// carries per-shard coverage. A dead worker degrades coverage, never the
// ordering of the surviving rows — and the command still exits 0 (the
// caller reads completeness from the footer, like any truncated run).
int RunDist(const std::string& query_path, int k, ExecOptions* exec,
            CliOutput* out) {
  if (exec->workers.empty()) {
    std::fprintf(stderr,
                 "error: dist requires --workers=host:port[,host:port...]\n");
    return 2;
  }
  auto workers = dist::ParseWorkerList(exec->workers);
  if (!workers.ok()) return Fail(workers.status());
  auto body = io::ReadFile(query_path);
  if (!body.ok()) return Fail(body.status());

  dist::CoordinatorOptions options;
  options.params = "k=" + std::to_string(k);
  if (exec->deadline_ms >= 0) {
    options.params += "&deadline_ms=" + std::to_string(exec->deadline_ms);
  }
  if (exec->max_answers >= 0) {
    options.params += "&max_answers=" + std::to_string(exec->max_answers);
  }
  if (exec->budget >= 0) {
    options.params += "&budget=" + std::to_string(exec->budget);
  }
  if (exec->backend != kernels::BackendChoice::kAuto) {
    options.params +=
        std::string("&backend=") + kernels::BackendChoiceName(exec->backend);
  }

  dist::DistOutcome outcome =
      dist::ScatterGather(*workers, *body, options,
                          [](const std::string& line) {
                            std::fwrite(line.data(), 1, line.size(), stdout);
                            std::fputc('\n', stdout);
                            return true;
                          });
  std::string footer = "{\"done\":true,\"shards\":";
  footer += dist::CoverageJson(outcome.coverage);
  footer += '}';
  std::printf("%s\n", footer.c_str());
  std::fflush(stdout);
  for (const dist::ShardCoverage& c : outcome.coverage) {
    if (c.failed) {
      std::fprintf(stderr, "shard %d failed: %s\n", c.shard_id,
                   c.status.ToString().c_str());
    } else if (c.truncated) {
      std::fprintf(stderr, "shard %d truncated (%s)\n", c.shard_id,
                   StopReasonName(c.reason));
    }
  }
  if (out->json) {
    // The merged rows already streamed to stdout; the JSON results field
    // only summarizes.
    out->results = "{\"answers\":" + std::to_string(outcome.answers) +
                   ",\"coverage\":" + dist::CoverageJson(outcome.coverage) +
                   '}';
  }
  return 0;
}

int RunShow(const std::string& path, CliOutput* out) {
  auto text = io::ReadFile(path);
  if (!text.ok()) return Fail(text.status());
  auto format = io::DetectFormat(*text);
  if (!format.ok()) return Fail(format.status());
  if (out->json) {
    out->results = "{\"format\":\"";
    obs::AppendJsonEscaped(*format, &out->results);
    out->results += "\"}";
  }
  if (*format == "markov-sequence") {
    auto mu = io::ParseMarkovSequence(*text);
    if (!mu.ok()) return Fail(mu.status());
    if (!out->json) std::fputs(io::FormatMarkovSequence(*mu).c_str(), stdout);
    return 0;
  }
  if (*format == "transducer") {
    auto t = io::ParseTransducer(*text);
    if (!t.ok()) return Fail(t.status());
    if (!out->json) std::fputs(io::FormatTransducer(*t).c_str(), stdout);
    return 0;
  }
  auto p = io::ParseSProjector(*text);
  if (!p.ok()) return Fail(p.status());
  if (!out->json) {
    std::printf("s-projector over %zu symbols: |Q_B|=%d |Q_A|=%d |Q_E|=%d\n",
                p->alphabet().size(), p->prefix().num_states(),
                p->pattern().num_states(), p->suffix().num_states());
  }
  return 0;
}

// Parses the value part of `--flag=N` as a nonnegative integer; false on
// empty, non-digit, or overflowing input (atoll would silently read "abc"
// as 0, turning a typo into a budget of zero).
bool ParseFlagValue(const std::string& arg, size_t prefix_len, int64_t* out) {
  return ParseNonNegInt64(std::string_view(arg).substr(prefix_len), out);
}

// A positional count argument (`k`, `limit`): strictly positive, int-sized.
// A garbage or nonpositive value is a usage error with its own message —
// atoi would have read it as 0 and silently produced zero answers.
bool ParseCountArg(const char* what, const std::string& arg, int* out) {
  if (ParsePositiveInt(arg, out)) return true;
  std::fprintf(stderr, "error: %s must be a positive integer, got '%s'\n",
               what, arg.c_str());
  return false;
}

// Strips the flags from args; returns false on a malformed or unknown
// flag.
bool ParseObsFlags(std::vector<std::string>* args, ObsOptions* opts,
                   ExecOptions* exec) {
  std::vector<std::string> rest;
  for (const std::string& arg : *args) {
    if (arg == "--stats") {
      opts->stats = StatsMode::kText;
    } else if (arg == "--stats=json") {
      opts->stats = StatsMode::kJson;
    } else if (arg == "--stats=prom") {
      opts->stats = StatsMode::kProm;
    } else if (arg.rfind("--trace=", 0) == 0) {
      opts->trace_path = arg.substr(std::strlen("--trace="));
      if (opts->trace_path.empty()) return false;
    } else if (arg == "--explain") {
      opts->explain = true;
    } else if (arg.rfind("--flight-dump=", 0) == 0) {
      opts->flight_dump = arg.substr(std::strlen("--flight-dump="));
      if (opts->flight_dump.empty()) return false;
    } else if (arg.rfind("--workers=", 0) == 0) {
      exec->workers = arg.substr(std::strlen("--workers="));
      if (exec->workers.empty()) return false;
    } else if (arg.rfind("--threads=", 0) == 0) {
      // Through the checked parser like every other numeric flag:
      // "--threads=abc" used to atoi to 0 and fall out as a bare usage
      // error; garbage, zero and negatives are rejected uniformly now.
      if (!ParsePositiveInt(
              std::string_view(arg).substr(std::strlen("--threads=")),
              &exec->threads)) {
        std::fprintf(stderr, "error: invalid --threads value in '%s'\n",
                     arg.c_str());
        return false;
      }
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (!ParseFlagValue(arg, std::strlen("--deadline-ms="),
                          &exec->deadline_ms)) {
        return false;
      }
    } else if (arg.rfind("--max-answers=", 0) == 0) {
      if (!ParseFlagValue(arg, std::strlen("--max-answers="),
                          &exec->max_answers)) {
        return false;
      }
    } else if (arg.rfind("--budget=", 0) == 0) {
      if (!ParseFlagValue(arg, std::strlen("--budget="), &exec->budget)) {
        return false;
      }
    } else if (arg.rfind("--backend=", 0) == 0) {
      auto choice =
          kernels::ParseBackendChoice(arg.substr(std::strlen("--backend=")));
      if (!choice.has_value()) return false;
      exec->backend = *choice;
    } else if (arg.rfind("--", 0) == 0) {
      // A misspelled or retired flag is an error, never a silently
      // ignored argument.
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return false;
    } else {
      rest.push_back(arg);
    }
  }
  *args = std::move(rest);
  return true;
}

void EmitStats(const std::string& command, const ObsOptions& opts,
               const CliOutput& out) {
  if (opts.stats == StatsMode::kNone && opts.trace_path.empty()) return;
  obs::RegistrySnapshot snapshot = obs::Registry::Global().Snapshot();
  switch (opts.stats) {
    case StatsMode::kNone:
      break;
    case StatsMode::kText:
      std::fputs(obs::PrometheusText(snapshot).c_str(), stderr);
      break;
    case StatsMode::kProm:
      std::fputs(obs::PrometheusText(snapshot).c_str(), stdout);
      break;
    case StatsMode::kJson: {
      std::string doc = "{\"command\":\"";
      obs::AppendJsonEscaped(command, &doc);
      doc += "\",\"results\":";
      doc += out.results.empty() ? "null" : out.results;
      if (!out.exec_json.empty()) {
        doc += ",\"exec\":";
        doc += out.exec_json;
      }
      if (!out.explain_json.empty()) {
        // ExplainJson returns {"explain":{...}}; splice the key-value
        // pair into this document rather than nesting it twice.
        doc += ',';
        doc += out.explain_json.substr(1, out.explain_json.size() - 2);
      }
      doc += ",\"metrics\":";
      doc += obs::RegistryJson(snapshot);
      doc += "}\n";
      std::fputs(doc.c_str(), stdout);
      break;
    }
  }
  if (!opts.trace_path.empty()) {
    std::string trace = obs::Tracer::Global().ChromeTraceJson();
    std::FILE* f = std::fopen(opts.trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   opts.trace_path.c_str());
    } else {
      std::fputs(trace.c_str(), f);
      std::fclose(f);
    }
  }
}

}  // namespace

// Configures where a truncation flight dump goes: the --flight-dump flag
// wins, then the TMS_FLIGHT_DUMP environment variable (already parsed by
// the recorder at startup), then the CLI default of stderr — a truncated
// CLI run should be post-mortem-debuggable out of the box.
void ConfigureFlightSink(const ObsOptions& opts) {
  using Sink = obs::FlightRecorder::Sink;
  if (!opts.flight_dump.empty()) {
    if (opts.flight_dump == "off") {
      obs::FlightRecorder::Global().SetDumpSink(Sink::kNone);
    } else if (opts.flight_dump == "stderr") {
      obs::FlightRecorder::Global().SetDumpSink(Sink::kStderr);
    } else {
      obs::FlightRecorder::Global().SetDumpSink(Sink::kFile,
                                                opts.flight_dump);
    }
  } else if (std::getenv("TMS_FLIGHT_DUMP") == nullptr) {
    obs::FlightRecorder::Global().SetDumpSink(Sink::kStderr);
  }
}

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  ObsOptions opts;
  ExecOptions exec;
  if (!ParseObsFlags(&args, &opts, &exec)) return Usage();
  if (opts.stats != StatsMode::kNone) obs::SetEnabled(true);
  if (!opts.trace_path.empty()) {
    obs::SetEnabled(true);
    obs::SetTracingEnabled(true);
  }
  ConfigureFlightSink(opts);

  if (args.size() < 2) return Usage();
  const std::string command = args[0];
  // `explain` is `topk` executed for its cost report: the answers are
  // computed (EXPLAIN ANALYZE semantics — real execution, real numbers)
  // but only the report is printed.
  const bool explain_command = command == "explain";
  const bool want_explain = explain_command || opts.explain;
  if (want_explain) obs::SetEnabled(true);

  CliOutput out;
  out.json = opts.stats == StatsMode::kJson;

  int code = 2;
  {
    // Every command runs as one query: its metrics accumulate in the
    // scope's registry (as well as the global one) and spans opened on
    // pool workers parent under this scope's root span.
    obs::QueryScope scope(command);
    const int64_t query_start_ns = obs::MonotonicNanos();
    // The explain command computes answers but never prints them; routing
    // them through the JSON accumulator (discarded unless --stats=json)
    // suppresses the human tables.
    const bool suppress_tables = explain_command && !out.json;
    if (suppress_tables) out.json = true;
    // The answer pipeline the command runs, whose delay histogram the
    // explain report reads; conf, dist and show run none.
    std::optional<query::AnswerMode> answer_mode;
    if (command == "show") {
      code = RunShow(args[1], &out);
    } else if (args.size() < 3) {
      return Usage();
    } else if (command == "topk" || explain_command) {
      int k = 10;
      if (args.size() >= 4 && !ParseCountArg("k", args[3], &k)) return Usage();
      answer_mode = query::AnswerMode::kRanked;
      code = RunAnswers(args[1], args[2], *answer_mode, k, &exec, &out);
    } else if (command == "batch") {
      int k = 0;
      if (!ParseCountArg("k", args[2], &k)) return Usage();
      if (args.size() < 4) return Usage();
      answer_mode = query::AnswerMode::kRanked;  // one per sequence
      code = RunBatch(args[1],
                      std::vector<std::string>(args.begin() + 3, args.end()),
                      k, &exec, &out);
    } else if (command == "dist") {
      int k = 0;
      if (!ParseCountArg("k", args[2], &k)) return Usage();
      code = RunDist(args[1], k, &exec, &out);
    } else if (command == "conf") {
      code = RunConf(args[1], args[2],
                     std::vector<std::string>(args.begin() + 3, args.end()),
                     &out);
    } else if (command == "enum") {
      int limit = 100;
      if (args.size() >= 4 && !ParseCountArg("limit", args[3], &limit)) {
        return Usage();
      }
      answer_mode = query::AnswerMode::kEnum;
      code = RunAnswers(args[1], args[2], *answer_mode, limit, &exec, &out);
    } else {
      return Usage();
    }
    if (suppress_tables) out.json = false;

    if (code == 0 && want_explain) {
      obs::ExplainInput input;
      input.query = command;
      input.query_id = scope.query_id();
      input.duration_ns = obs::MonotonicNanos() - query_start_ns;
      input.threads = exec.threads;
      input.backend = kernels::BackendChoiceName(exec.backend);
      input.stats = scope.Snapshot();
      if (answer_mode.has_value()) {
        input.delay_histogram = query::MetricPrefix(*answer_mode);
        input.delay_histogram += ".delay_ns";
      }
      if (const exec::RunContext* run = exec.PeekRun()) {
        input.stop_reason = StopReasonName(run->stop_reason());
        input.answers = run->answers_emitted();
        input.work_charged = run->work_charged();
      }
      input.budget = exec.budget;
      input.deadline_ms = static_cast<double>(exec.deadline_ms);
      if (out.json) {
        out.explain_json = obs::ExplainJson(input);
      } else {
        // The explain command's report IS the output (stdout); as a flag
        // on another command it is diagnostics (stderr).
        std::fputs(obs::ExplainText(input).c_str(),
                   explain_command ? stdout : stderr);
      }
    }
  }
  EmitStats(command, opts, out);
  return code;
}
