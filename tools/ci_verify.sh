#!/bin/sh
# One-command CI verification (docs/ROBUSTNESS.md):
#
#   1. tier-1: default build, full test suite + explicit `ctest -L obs`
#              and `ctest -L optimize` passes (the per-query observability
#              and optimization-equivalence suites must be present, not
#              silently undiscovered)
#   2. asan:   ASan+UBSan build, `ctest -L robustness` + `-L concurrency`
#              + `-L serve` + `-L optimize` (the server's socket/thread
#              machinery and the optimization passes run under the
#              sanitizers too)
#   3. tsan:   TSan build,       `ctest -L robustness` + `-L concurrency`
#   4. off:    -DTMS_OBS=OFF -DTMS_FAULTS=OFF build (everything compiled
#              out), full test suite — proves the zero-overhead surface
#              builds and behaves
#   5. serve:  `ctest -L serve` in the default build — the serving unit +
#              integration suites plus the serve_smoke end-to-end script
#              (ephemeral-port tms_server: healthz, /metrics parse, one
#              streamed query byte-compared against tms_cli, the same
#              query --precompile'd and streamed by name, clean SIGTERM
#              drain)
#   6. dist:   `ctest -L dist` in the default build — the shard-equivalence
#              + fault suites plus the dist_smoke end-to-end script
#              (real workers on ephemeral ports, topology byte-identity,
#              an injected mid-stream crash, a dead worker)
#   7. release: -DCMAKE_BUILD_TYPE=Release build (build-release/), full
#              test suite — GCC's -O3 warnings are errors here too
#   8. repeat: `ctest --repeat until-fail:20` over the serve, dist,
#              robustness and concurrency labels in the default build, so
#              a flaky test fails CI instead of passing by luck
#   9. bench:  enumeration + kernel bench reports
#              (BENCH_enumeration_delay.json, BENCH_enumeration_emax.json,
#              BENCH_twostep_vs_ranked.json, BENCH_sparse_scaling.json,
#              BENCH_optimize.json, BENCH_shard_merge.json)
#              emitted to build/bench-json/ and checked non-empty, plus the
#              per-query explain sidecar
#              (BENCH_enumeration_delay_explain.json); set
#              TMS_UPDATE_BASELINES=1 to refresh bench/baselines/
#  10. perfbench: configures the serving benchmark (perfbench/, see
#              BENCHMARK.json) into build-perfbench/, builds tms_server and
#              tms_perfbench, and runs each workload for one second. A
#              library change that breaks the benchmark's build fails
#              here, and so does a /query or /batch line that differs from
#              perfbench's in-process replay: each run must end with
#              "correct":true and "failed":0
#
# Build trees are reused across runs (build/, build-asan/, build-tsan/,
# build-off/, build-release/, build-perfbench/ under the repo root), so
# incremental invocations are cheap. Pass a stage name (tier1 | asan |
# tsan | off | serve | dist | release | repeat | bench | perfbench) to
# run just that stage; default is all ten.
#
#   tools/ci_verify.sh            # everything
#   tools/ci_verify.sh tsan       # just the TSan stage
#   TMS_UPDATE_BASELINES=1 tools/ci_verify.sh bench   # refresh baselines
#
# Every randomized suite honors TMS_TEST_SEED, and a failing test prints
# its seed — export TMS_TEST_SEED to replay a CI failure locally.
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
STAGE="${1:-all}"
JOBS="${TMS_CI_JOBS:-$(nproc 2>/dev/null || echo 4)}"

run_stage() {
  # run_stage <name> <build-dir> <ctest-args...> -- <cmake-args...>
  name="$1"; dir="$2"; shift 2
  ctest_args=""
  while [ $# -gt 0 ] && [ "$1" != "--" ]; do
    ctest_args="$ctest_args $1"; shift
  done
  [ $# -gt 0 ] && shift  # drop the --
  echo "==> [$name] configure + build ($dir)"
  cmake -B "$dir" -S "$ROOT" "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  echo "==> [$name] ctest$ctest_args"
  # shellcheck disable=SC2086  # ctest_args is intentionally word-split
  (cd "$dir" && ctest --output-on-failure -j "$JOBS" $ctest_args)
}

case "$STAGE" in
  tier1|all)
    run_stage tier1 "$ROOT/build" --
    # The obs label must match a non-empty suite: a refactor that breaks
    # test discovery would otherwise pass tier-1 by running nothing.
    echo "==> [tier1] ctest -L obs (must be non-empty)"
    (cd "$ROOT/build" &&
     ctest --output-on-failure -j "$JOBS" -L obs --no-tests=error)
    # Likewise the optimize label: the differential equivalence harness is
    # the acceptance test of the optimization pass — it running zero tests
    # must fail, not pass.
    echo "==> [tier1] ctest -L optimize (must be non-empty)"
    (cd "$ROOT/build" &&
     ctest --output-on-failure -j "$JOBS" -L optimize --no-tests=error)
    # And the dist label: the shard-equivalence harness is the acceptance
    # test of the scatter/gather path.
    echo "==> [tier1] ctest -L dist (must be non-empty)"
    (cd "$ROOT/build" &&
     ctest --output-on-failure -j "$JOBS" -L dist --no-tests=error)
    ;;
esac
case "$STAGE" in
  asan|all)
    run_stage asan "$ROOT/build-asan" \
      -L "robustness|concurrency|serve|optimize|dist" -- \
      -DTMS_SANITIZE=address,undefined
    ;;
esac
case "$STAGE" in
  tsan|all)
    run_stage tsan "$ROOT/build-tsan" -L "robustness|concurrency" -- \
      -DTMS_SANITIZE=thread
    ;;
esac
case "$STAGE" in
  off|all)
    # Everything observability- and fault-related compiled out: the
    # TMS_OBS_* macros, QueryScope, the flight recorder, and the fault
    # points must vanish without breaking any engine, and the full suite
    # must still pass (the obs suites compile to empty TUs).
    run_stage off "$ROOT/build-off" -- \
      -DTMS_OBS=OFF -DTMS_FAULTS=OFF
    ;;
esac
case "$STAGE" in
  serve|all)
    # The serving layer end to end in the default build: unit +
    # integration suites and the serve_smoke script (the label must be
    # non-empty — a discovery regression must not pass silently).
    run_stage serve "$ROOT/build" -L serve --no-tests=error --
    ;;
esac
case "$STAGE" in
  dist|all)
    # The sharded batch path end to end in the default build: the
    # differential shard-equivalence + fault suites plus the dist_smoke
    # script (real workers, topology byte-identity, injected mid-stream
    # crash, dead worker).
    run_stage dist "$ROOT/build" -L dist --no-tests=error --
    ;;
esac
case "$STAGE" in
  release|all)
    run_stage release "$ROOT/build-release" -- -DCMAKE_BUILD_TYPE=Release
    ;;
esac
case "$STAGE" in
  repeat|all)
    run_stage repeat "$ROOT/build" -L "serve|dist|robustness|concurrency" \
      --no-tests=error --repeat until-fail:20 --
    ;;
esac
case "$STAGE" in
  bench|all)
    BENCHES="bench_enumeration_delay bench_enumeration_emax \
             bench_twostep_vs_ranked bench_sparse_scaling bench_optimize \
             bench_shard_merge"
    echo "==> [bench] configure + build ($ROOT/build)"
    cmake -B "$ROOT/build" -S "$ROOT" >/dev/null
    # shellcheck disable=SC2086
    cmake --build "$ROOT/build" -j "$JOBS" --target $BENCHES
    OUT="$ROOT/build/bench-json"
    mkdir -p "$OUT"
    for b in $BENCHES; do
      echo "==> [bench] $b"
      (cd "$ROOT/build" &&
       TMS_BENCH_JSON_DIR="$OUT" "./bench/$b" >/dev/null)
      json="$OUT/BENCH_${b#bench_}.json"
      [ -s "$json" ] || { echo "bench report missing: $json" >&2; exit 1; }
    done
    explain_json="$OUT/BENCH_enumeration_delay_explain.json"
    [ -s "$explain_json" ] ||
      { echo "bench explain sidecar missing: $explain_json" >&2; exit 1; }
    if [ -n "${TMS_UPDATE_BASELINES:-}" ]; then
      cp "$OUT"/BENCH_*.json "$ROOT/bench/baselines/"
      echo "==> [bench] baselines refreshed in bench/baselines/"
    fi
    ;;
esac
case "$STAGE" in
  perfbench|all)
    PB="$ROOT/build-perfbench"
    echo "==> [perfbench] configure + build ($PB)"
    cmake -B "$PB" -S "$ROOT/perfbench" >/dev/null
    cmake --build "$PB" -j "$JOBS" --target tms_server tms_perfbench
    WORK=$(mktemp -d)
    trap 'rm -rf "$WORK"' EXIT
    for w in rfid_topk batch_exact long_sparse; do
      echo "==> [perfbench] $w"
      "$PB/tms_perfbench" --workload="$w" --seed=1 --seconds=1 --trace=0 \
        --server="$PB/tms/tools/tms_server" --work-dir="$WORK/$w" \
        > "$WORK/$w.out"
      last=$(tail -n 1 "$WORK/$w.out")
      echo "$last"
      case "$last" in
        *'"correct":true'*) ;;
        *) echo "perfbench $w: a streamed line differs from the replay" >&2
           exit 1 ;;
      esac
      case "$last" in
        *'"failed":0,'*|*'"failed":0}'*) ;;
        *) echo "perfbench $w: requests failed" >&2; exit 1 ;;
      esac
    done
    ;;
esac
case "$STAGE" in
  tier1|asan|tsan|off|serve|dist|release|repeat|bench|perfbench|all) ;;
  *)
    stages="tier1|asan|tsan|off|serve|dist|release|repeat|bench|perfbench"
    echo "usage: $0 [$stages|all]" >&2
    exit 2
    ;;
esac

echo "==> ci_verify: all requested stages passed"
