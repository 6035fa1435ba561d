#!/bin/sh
# End-to-end golden regression corpus.
#
# Four workloads (hospital transducer, hospital s-projector, the paper's
# running example, bio motif) are replayed through the CLI; for each,
# BOTH the ranked answer stream (full stdout, byte-compared) and the
# --stats=json KEY SET are pinned against tests/golden/. Answer streams
# are deterministic because the max-plus kernel paths are bit-exact and
# ties break identically at any thread count; metric values are not
# deterministic, so only the JSON keys are golden (the
# check_stats_schema.sh convention).
#
# The checks run in order of what they protect: every answer stream
# first, then the thread × backend sweep, then every key set. Each
# divergent file is reported and the script exits 1 only after all of
# them ran, so a change that legitimately moves metric keys still shows
# that it kept every answer.
#
# A divergence means user-visible output changed: either fix the
# regression or regenerate deliberately. A moved key set (a metric added,
# renamed or dropped) is regenerated by
#
#   TMS_UPDATE_GOLDEN=1 tools/check_golden.sh <tms_cli> <repo-root>
#
# which first runs every answer-stream comparison and the thread × backend
# sweep. If any of them diverged it writes nothing and exits 1; otherwise
# it rewrites only the *_stats_keys.golden files that differ and prints
# each one. It never rewrites an answer stream: a deliberate change to one
# is regenerated by hand, by running its capture command below and
# reviewing the diff, e.g.
#
#   tms_cli topk examples/data/hospital.tms examples/data/place_tracker.tms 5 \
#       > tests/golden/hospital_topk.golden
#
# The generated data files under tests/golden/data/ are committed; rebuild
# them (new seeds/workload changes) with tools/make_golden_data, then
# regenerate the outputs.
#
# usage: check_golden.sh <path-to-tms_cli> <repo-root>
set -eu

CLI="$1"
ROOT="$2"
DATA="$ROOT/examples/data"
GDATA="$ROOT/tests/golden/data"
GOLD="$ROOT/tests/golden"

OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
CASES="hospital hospital_sproj running_example bio_motif"
failed=""

capture() { # name sequence query k
  out=$("$CLI" topk "$2" "$3" "$4")
  printf '%s\n' "$out" > "$OUT/$1_topk.golden"
  keys=$("$CLI" topk "$2" "$3" "$4" --stats=json \
         | grep -o '"[^"]*":' | LC_ALL=C sort -u)
  printf '%s\n' "$keys" > "$OUT/$1_stats_keys.golden"
}

# compare <file> <what>: diffs the fresh $OUT/<file> against the golden.
# A missing golden file is a failure, never a skip (same contract as
# tools/check_stats_schema.sh).
compare() {
  if [ ! -f "$GOLD/$1" ]; then
    echo "MISSING golden file: $GOLD/$1 (a missing golden is an error," \
         "not a skip)" >&2
    failed="$failed $1"
  elif ! diff -u "$GOLD/$1" "$OUT/$1"; then
    echo "golden $2 diverged: $1" >&2
    failed="$failed $1"
  fi
}

capture hospital "$DATA/hospital.tms" "$DATA/place_tracker.tms" 5
capture hospital_sproj "$DATA/hospital.tms" "$DATA/lab_visit.tms" 5
capture running_example "$GDATA/fig1.tms" "$GDATA/fig2_query.tms" 5
capture bio_motif "$GDATA/motif.tms" "$GDATA/motif_query.tms" 5

for name in $CASES; do
  compare "${name}_topk.golden" "answer stream"
done

# Neither the thread count nor the kernel backend may change the answer
# stream: the max-plus kernels are exact at any concurrency, and the
# sparse CSR path skips only ⊕-identity entries of the dense reduction
# order (kernels/sparse.h), so --backend=sparse and --backend=auto must
# reproduce the dense bytes at every thread count.
t1=$("$CLI" topk "$DATA/hospital.tms" "$DATA/place_tracker.tms" 10 \
     --threads=1)
for th in 1 2 8; do
  for be in dense sparse auto; do
    tn=$("$CLI" topk "$DATA/hospital.tms" "$DATA/place_tracker.tms" 10 \
         --threads=$th --backend=$be)
    if [ "$t1" != "$tn" ]; then
      echo "answer stream diverged at --threads=$th --backend=$be" >&2
      failed="$failed threads=$th/backend=$be"
    fi
  done
done

if [ -n "${TMS_UPDATE_GOLDEN:-}" ]; then
  if [ -n "$failed" ]; then
    echo "update refused, nothing written: answer streams diverged:$failed" >&2
    echo "regenerate a deliberately changed answer stream by hand (see" \
         "the header of $0)" >&2
    exit 1
  fi
  for name in $CASES; do
    file="${name}_stats_keys.golden"
    if ! cmp -s "$OUT/$file" "$GOLD/$file"; then
      cp "$OUT/$file" "$GOLD/$file"
      echo "updated $GOLD/$file"
    fi
  done
  exit 0
fi

for name in $CASES; do
  compare "${name}_stats_keys.golden" "stats key set"
done

if [ -n "$failed" ]; then
  echo "golden corpus diverged:$failed" >&2
  echo "a moved key set is regenerated with TMS_UPDATE_GOLDEN=1 $0 $CLI" \
       "$ROOT; an answer stream only by hand (see the header of $0)" >&2
  exit 1
fi
echo "golden corpus OK"
