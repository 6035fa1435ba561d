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
# A divergence means user-visible output changed: either fix the
# regression or regenerate deliberately:
#
#   TMS_UPDATE_GOLDEN=1 tools/check_golden.sh <tms_cli> <repo-root>
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

# A missing golden file is a hard failure, never a skip (same contract
# as tools/check_stats_schema.sh).
require_golden() {
  if [ ! -f "$1" ]; then
    echo "MISSING golden file: $1" >&2
    echo "a missing golden is an error, not a skip" >&2
    echo "generate it deliberately with TMS_UPDATE_GOLDEN=1 $0 $CLI $ROOT" >&2
    exit 1
  fi
}

check_case() { # name sequence query k
  name="$1"; seq="$2"; query="$3"; k="$4"
  out=$("$CLI" topk "$seq" "$query" "$k")
  keys=$("$CLI" topk "$seq" "$query" "$k" --stats=json \
         | grep -o '"[^"]*":' | LC_ALL=C sort -u)
  if [ -n "${TMS_UPDATE_GOLDEN:-}" ]; then
    printf '%s\n' "$out" > "$GOLD/${name}_topk.golden"
    printf '%s\n' "$keys" > "$GOLD/${name}_stats_keys.golden"
    echo "updated $name"
    return 0
  fi
  require_golden "$GOLD/${name}_topk.golden"
  require_golden "$GOLD/${name}_stats_keys.golden"
  if ! printf '%s\n' "$out" | diff -u "$GOLD/${name}_topk.golden" -; then
    echo "golden answer stream diverged: $name" >&2
    echo "regenerate deliberately with TMS_UPDATE_GOLDEN=1 $0 $CLI $ROOT" >&2
    exit 1
  fi
  if ! printf '%s\n' "$keys" | diff -u "$GOLD/${name}_stats_keys.golden" -; then
    echo "golden stats key set diverged: $name" >&2
    echo "regenerate deliberately with TMS_UPDATE_GOLDEN=1 $0 $CLI $ROOT" >&2
    exit 1
  fi
}

check_case hospital "$DATA/hospital.tms" "$DATA/place_tracker.tms" 5
check_case hospital_sproj "$DATA/hospital.tms" "$DATA/lab_visit.tms" 5
check_case running_example "$GDATA/fig1.tms" "$GDATA/fig2_query.tms" 5
check_case bio_motif "$GDATA/motif.tms" "$GDATA/motif_query.tms" 5

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
      exit 1
    fi
  done
done

[ -n "${TMS_UPDATE_GOLDEN:-}" ] || echo "golden corpus OK"
