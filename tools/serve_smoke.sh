#!/bin/sh
# End-to-end smoke test for tms_server (docs/SERVING.md), run by the
# `serve` stage of tools/ci_verify.sh and registered as the `serve_smoke`
# ctest:
#
#   1. start tms_server on an ephemeral port (--port-file) with the
#      sample hospital model and the sample query precompiled as
#      `tracker`, both copied to the temp dir (the server writes the
#      model's .tmsb snapshot beside it, never beside the sample data);
#   2. GET /healthz must answer "ok";
#   3. GET /metrics must parse as Prometheus text exposition;
#   4. POST /query/hospital must stream answer lines that are
#      byte-identical, in order, to the `results` array of
#      `tms_cli topk --stats=json` for the same model and query, and end
#      with a {"done":true,...} footer;
#   5. POST /query/hospital?precompiled=tracker with an empty body must
#      stream the same answer lines, in the same order;
#   6. SIGTERM must drain the server cleanly (exit 0).
#
#   tools/serve_smoke.sh <tms_server-binary> <tms_cli-binary> <data-dir>
set -eu

SERVER="$1"
CLI="$2"
DATA="$3"

WORK=$(mktemp -d)
SERVER_PID=""
trap 'status=$?; kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORK"; exit $status' EXIT INT TERM

cp "$DATA/hospital.tms" "$DATA/place_tracker.tms" "$WORK/"
MODEL="$WORK/hospital.tms"
QUERY="$WORK/place_tracker.tms"

"$SERVER" --port-file="$WORK/port" --precompile=hospital:tracker="$QUERY" \
  hospital="$MODEL" 2>"$WORK/server.log" &
SERVER_PID=$!

# Wait for the port file (the server writes it once listening).
tries=0
while [ ! -s "$WORK/port" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || { echo "server never started"; cat "$WORK/server.log" >&2; exit 1; }
  kill -0 "$SERVER_PID" 2>/dev/null || { echo "server died at startup"; cat "$WORK/server.log" >&2; exit 1; }
  sleep 0.1
done
PORT=$(cat "$WORK/port")
BASE="http://127.0.0.1:$PORT"
echo "==> [serve] tms_server up on port $PORT"

echo "==> [serve] GET /healthz"
[ "$(curl -sf "$BASE/healthz")" = "ok" ] || { echo "healthz mismatch" >&2; exit 1; }

echo "==> [serve] GET /metrics parses as Prometheus text"
curl -sf "$BASE/metrics" >"$WORK/metrics"
python3 - "$WORK/metrics" <<'EOF'
import re, sys
lines = open(sys.argv[1]).read().splitlines()
seen = 0
for line in lines:
    if not line or line.startswith("#"):
        if line.startswith("#"):
            assert re.match(r"^# TYPE \S+ (counter|gauge|histogram)$", line), line
        continue
    assert re.match(r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$", line), line
    seen += 1
if lines:
    assert seen > 0, "no samples"
    print(f"    {seen} samples, all well-formed")
else:
    # -DTMS_OBS=OFF builds expose an empty (but valid) exposition.
    print("    empty exposition (obs compiled out)")
EOF

echo "==> [serve] POST /query/hospital streams byte-identical answers"
"$CLI" topk "$MODEL" "$QUERY" 3 --stats=json >"$WORK/cli.json"
curl -sf --data-binary "@$QUERY" "$BASE/query/hospital?k=3" >"$WORK/stream"
python3 - "$WORK/cli.json" "$WORK/stream" <<'EOF'
import json, sys
cli_doc = open(sys.argv[1]).read()
lines = [l for l in open(sys.argv[2]).read().splitlines() if l]
assert len(lines) >= 2, f"expected answers + footer, got {lines}"
footer = json.loads(lines[-1])
assert footer.get("done") is True, footer
assert footer["exec"]["reason"] == "NONE", footer
answers = lines[:-1]
assert len(answers) == 3, f"expected 3 answers, got {len(answers)}"
# Byte-identity, in order: every streamed answer line must appear
# verbatim in the CLI's JSON document (its results array is built by the
# same serializer), at strictly increasing offsets.
pos = -1
for line in answers:
    found = cli_doc.find(line)
    assert found >= 0, f"not in CLI output: {line}"
    assert found > pos, f"out of order: {line}"
    pos = found
print(f"    {len(answers)} answer lines byte-identical and in order")
EOF

echo "==> [serve] POST /query/hospital?precompiled=tracker streams the same answers"
curl -sf --data-binary "" "$BASE/query/hospital?k=3&precompiled=tracker" >"$WORK/precompiled"
python3 - "$WORK/cli.json" "$WORK/stream" "$WORK/precompiled" <<'EOF'
import json, sys
cli_doc = open(sys.argv[1]).read()
body = [l for l in open(sys.argv[2]).read().splitlines() if l]
named = [l for l in open(sys.argv[3]).read().splitlines() if l]
assert len(named) >= 2, f"expected answers + footer, got {named}"
footer = json.loads(named[-1])
assert footer.get("done") is True, footer
assert footer["exec"]["reason"] == "NONE", footer
answers = named[:-1]
assert answers == body[:-1], f"precompiled {answers} != body {body[:-1]}"
pos = -1
for line in answers:
    found = cli_doc.find(line)
    assert found > pos, f"not in CLI output, or out of order: {line}"
    pos = found
print(f"    {len(answers)} answer lines equal to the body request's and the CLI's, in order")
EOF

echo "==> [serve] truncation footer carries the stop reason"
curl -sf --data-binary "@$QUERY" "$BASE/query/hospital?k=3&max_answers=1" >"$WORK/truncated"
python3 - "$WORK/truncated" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]).read().splitlines() if l]
assert len(lines) == 2, lines
footer = json.loads(lines[-1])
assert footer["exec"]["reason"] == "ANSWER_CAP", footer
assert footer["exec"]["truncated"] is True, footer
EOF

echo "==> [serve] SIGTERM drains cleanly"
kill -TERM "$SERVER_PID"
status=0
wait "$SERVER_PID" || status=$?
[ "$status" -eq 0 ] || { echo "server exit status $status" >&2; cat "$WORK/server.log" >&2; exit 1; }
grep -q "drained, exiting" "$WORK/server.log" || { echo "no drain message" >&2; cat "$WORK/server.log" >&2; exit 1; }
SERVER_PID=""

echo "==> [serve] smoke passed"
