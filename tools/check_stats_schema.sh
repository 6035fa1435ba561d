#!/bin/sh
# Golden-schema check for `tms_cli --stats=json` and `tms_cli explain`.
#
# Runs a fixed bounded top-k over the sample data and compares the SET OF
# JSON KEYS in the emitted document against tests/golden/
# stats_json_schema.golden; then runs `explain` with --stats=json and
# compares its key set against tests/golden/explain_json_schema.golden.
# Keys — "command", "results", "exec", "explain", every metric name, the
# histogram and report field names — are deterministic for a fixed
# command; metric VALUES (timings, histogram buckets) are not, so only
# the keys are golden. A failure means the machine-readable schema
# changed: downstream dashboards parse it, so either fix the regression
# or update the goldens deliberately:
#
#   TMS_UPDATE_GOLDEN=1 tools/check_stats_schema.sh \
#       <tms_cli> <data> <golden> <explain-golden>
#
# Both key sets are compared on every run; each divergent golden is
# reported and the script exits 1 only after both checks ran, so a change
# that moves the --stats=json schema still shows whether it moved the
# explain schema too.
#
# A MISSING golden file is a hard failure, never a skip: a schema check
# that silently passes because its baseline vanished is worse than no
# check at all.
#
# usage: check_stats_schema.sh <path-to-tms_cli> <data-dir> <golden-file>
#            <explain-golden-file>
set -eu

CLI="$1"
DATA="$2"
GOLDEN="$3"
EXPLAIN_GOLDEN="$4"

failed=""

json_keys() {
  grep -o '"[^"]*":' | LC_ALL=C sort -u
}

# check_keys <keys> <golden> <label>: records a missing or divergent
# golden in $failed and returns, so the next check still runs.
check_keys() {
  keys="$1"; golden="$2"; label="$3"
  if [ -n "${TMS_UPDATE_GOLDEN:-}" ]; then
    printf '%s\n' "$keys" > "$golden"
    echo "updated $golden"
  elif [ ! -f "$golden" ]; then
    echo "MISSING golden file: $golden (a missing golden is an error," \
         "not a skip)" >&2
    failed="$failed $golden"
  elif ! printf '%s\n' "$keys" | diff -u "$golden" -; then
    echo "$label key set diverged from $golden" >&2
    failed="$failed $golden"
  fi
}

# --max-answers makes the run bounded so the "exec" field and the
# exec.budget.* counters appear in the document.
STATS_OUT=$("$CLI" topk "$DATA/hospital.tms" "$DATA/place_tracker.tms" 3 \
            --max-answers=2 --stats=json)
check_keys "$(printf '%s' "$STATS_OUT" | json_keys)" "$GOLDEN" "stats=json"

# The explain report: bounded as well (--budget) so the exec section of
# the report carries a real stop reason and budget consumption. Only the
# "explain" object is schema-checked — the surrounding document is
# already covered above, and its metric key set varies with the engine
# instrumentation, not with the explain schema.
EXPLAIN_OUT=$("$CLI" explain "$DATA/hospital.tms" "$DATA/place_tracker.tms" 3 \
              --budget=100000 --stats=json)
EXPLAIN_OBJ=$(printf '%s' "$EXPLAIN_OUT" \
              | sed -n 's/.*"explain":{\(.*\)}},"metrics".*/\1/p')
if [ -z "$EXPLAIN_OBJ" ]; then
  echo "tms_cli explain --stats=json emitted no \"explain\" object" >&2
  failed="$failed $EXPLAIN_GOLDEN"
else
  check_keys "$(printf '%s' "$EXPLAIN_OBJ" | json_keys)" "$EXPLAIN_GOLDEN" \
             "explain"
fi

if [ -n "$failed" ]; then
  echo "stats schema diverged:$failed" >&2
  echo "regenerate deliberately with TMS_UPDATE_GOLDEN=1 $0 $CLI $DATA $GOLDEN $EXPLAIN_GOLDEN" >&2
  exit 1
fi
