// The wire spellings shared by tms_cli and tms_server.
//
// A streamed /query response must be byte-identical (answer lines, in
// order) to what `tms_cli --stats=json` prints for the same model and
// query — the acceptance contract of the serving layer. The only way that
// stays true under refactors is if both binaries call the same
// serializers, so the answer-object and exec-outcome JSON builders (and
// the StopReason spelling they share) live here rather than in either
// tool.

#ifndef TMS_SERVE_WIRE_H_
#define TMS_SERVE_WIRE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "exec/run_context.h"

namespace tms::serve {

/// The stable wire spelling of a StopReason ("NONE", "ANSWER_CAP",
/// "BUDGET", "DEADLINE", "CANCELLED", "FAULT").
const char* StopReasonName(exec::StopReason reason);

/// Builds {"status":...,"reason":...,"truncated":...,"answers":N,"work":N}
/// for a bounded stream: the "exec" field of `tms_cli --stats=json` and
/// the `exec` member of a tms_server stream footer. An answer-cap stop is
/// status OK + reason ANSWER_CAP.
std::string ExecJson(const Status& status, exec::StopReason reason,
                     int64_t answers, int64_t work);

/// Appends {"answer":"...","<score_key>":s,"confidence":c} to *out — one
/// ranked answer, as one element of the CLI results array or one NDJSON
/// line of a server stream.
void AppendAnswerJson(const std::string& answer, const char* score_key,
                      double score, double confidence, std::string* out);

/// Appends {"key":"...","answer":"...","emax":s,"confidence":c} — one
/// globally ranked row of a sharded batch stream (docs/DISTRIBUTED.md).
/// Everything after the key reuses AppendAnswerJson's exact bytes, so a
/// batch row is a key-tagged answer line; the worker `/batch` endpoint
/// emits its rows through here (the scores stay strtod-round-trippable —
/// %.17g — which is what lets the dist coordinator re-rank worker lines
/// without reprinting them).
void AppendBatchRowJson(const std::string& key, const std::string& answer,
                        double emax, double confidence, std::string* out);

}  // namespace tms::serve

#endif  // TMS_SERVE_WIRE_H_
