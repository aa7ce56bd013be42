#!/bin/bash
# Correctness gate for the invariant-checking subsystem (src/check).
#
# 1. Builds the tree under -DDRS_SANITIZE=address, =thread and
#    =undefined and runs the `check`-labelled suites (plus the registry,
#    render, baselines, core and fuzz-smoke legs) under each sanitizer
#    with DRS_CHECK=1:
#    test_check plus fuzz_smoke, the seeded randomized lockstep
#    cross-check (fixed master seed 0x5eed -> deterministic configs,
#    every seed printed for --replay).
# 2. Kill-mid-sweep resume smoke, in every sanitizer build: a bench run
#    is crash-injected after two journal appends (DRS_CRASH_AFTER -> exit
#    70), resumed with --resume, and the merged report must be identical
#    to an uninterrupted run (wall-clock and resume bookkeeping aside).
# 3. Runs one bench twice in the regular build -- DRS_CHECK=0 vs
#    DRS_CHECK=1 -- and verifies both JSON reports validate against the
#    schema (drs_inspect validate) and are identical except for
#    wall-clock fields (drs_inspect same): invariant checking must be a
#    pure observer.
# 4. Profiler smoke: the same bench under DRS_SAMPLE + DRS_TRACE must
#    emit a Chrome trace that passes drs_inspect trace and a report that
#    drs_inspect profile can render; tests/check_compare.sh then runs
#    every drs_inspect compare case against the fixtures.
# 5. Fleet chaos leg (regular build + asan; NOT tsan -- fork() under
#    thread-sanitizer interceptors is unreliable): ctest -L fleet runs
#    the multi-process fleet suites plus tests/check_fleet_chaos.sh,
#    which SIGKILLs workers at random points, crash-injects the
#    coordinator, resumes, and requires the recovered report to be
#    bit-identical to a clean single-process run -- with the event log,
#    trace stitching and --progress ticker on, cross-checked against
#    summary.fleet.
# 6. Telemetry smoke (regular build): a fleet bench under DRS_LOG +
#    DRS_TRACE; the event log must analyze cleanly (drs_inspect events),
#    the trace shards must merge (drs_inspect merge) into a document that
#    passes drs_inspect trace, and logging must be a pure observer
#    (report identical to a telemetry-off run, wall-clock aside).
#
# Usage: run_checks.sh [--skip-sanitizers]

set -euo pipefail
cd "$(dirname "$0")"

JOBS=${DRS_JOBS:-$(nproc 2>/dev/null || echo 2)}
skip_san=0
[ "${1:-}" = "--skip-sanitizers" ] && skip_san=1

# Kill a sweep mid-run (crash injection after 2 journal appends), resume
# it from the journal, and require the merged report to match a clean
# uninterrupted run. $1 = build dir whose bench binary to use.
resume_smoke() {
  local bench="$1/bench/bench_fig2_aila_breakdown"
  local tmp
  tmp=$(mktemp -d)
  echo "-- kill-mid-sweep resume smoke ($bench)"
  local rc=0
  DRS_RAYS=2048 DRS_SCALE=0.05 DRS_SMX=2 DRS_CRASH_AFTER=2 \
      "$bench" --jobs 2 --journal "$tmp/journal.jsonl" \
      >"$tmp/crashed.log" 2>&1 || rc=$?
  if [ "$rc" -ne 70 ]; then
    echo "FAIL: expected crash-injected exit code 70, got $rc"
    cat "$tmp/crashed.log"
    rm -rf "$tmp"
    return 1
  fi
  DRS_RAYS=2048 DRS_SCALE=0.05 DRS_SMX=2 \
      "$bench" --jobs 2 --journal "$tmp/journal.jsonl" --resume \
      --json "$tmp/BENCH_resumed.json" >/dev/null
  DRS_RAYS=2048 DRS_SCALE=0.05 DRS_SMX=2 \
      "$bench" --jobs 2 --json "$tmp/BENCH_clean.json" >/dev/null
  "$1/tools/drs_inspect" validate "$tmp"/BENCH_*.json
  # Wall-clock and resume bookkeeping aside, the rest must match.
  "$1/tools/drs_inspect" same --ignore wall_seconds,sweep \
      "$tmp/BENCH_clean.json" "$tmp/BENCH_resumed.json"
  rm -rf "$tmp"
}

if [ "$skip_san" -eq 0 ]; then
  for san in address thread undefined; do
    dir="build-${san:0:1}san" # build-asan / build-tsan / build-usan
    echo; echo "######## sanitizer: $san ($dir) ########"; echo
    cmake -B "$dir" -S . -DDRS_SANITIZE="$san" >/dev/null
    cmake --build "$dir" -j"$JOBS"
    (cd "$dir" &&
     DRS_CHECK=1 ctest -L 'check|fuzz-smoke|fault|resume|registry|obs|render|baselines|core' \
         --output-on-failure -j"$JOBS")
    resume_smoke "$dir"
    # Fleet suites fork real worker processes: sound under asan, not
    # under tsan interceptors, and redundant under usan -- asan only.
    if [ "$san" = address ]; then
      (cd "$dir" && ctest -L fleet --output-on-failure -j"$JOBS")
    fi
  done
fi

echo; echo "######## regular build: registry fuzz smoke ########"; echo
# The fuzzer draws its architecture from the plugin registry, so this leg
# exercises the whole lineup (hardware + software reorderers) even when
# the sanitizer builds are skipped. More configs than the ctest smoke:
# the regular build is fast.
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS" --target fuzz_sim
build/tools/fuzz_sim --configs 75 --seed 0x5eed --jobs "$JOBS"

echo; echo "######## fleet: chaos recovery must be bit-identical ########"; echo
# ctest -L fleet covers the protocol/supervision suites AND the
# fleet_chaos harness (kill-mid-sweep -> --resume -> bit-identity with
# zero jobs lost or double-reported, verified by drs_journal --expect).
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
(cd build && ctest -L fleet --output-on-failure -j"$JOBS")

echo; echo "######## bench JSON: DRS_CHECK must be a pure observer ########"
echo
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS" --target bench_fig2_aila_breakdown drs_inspect
resume_smoke build
json_dir=$(mktemp -d)
trap 'rm -rf "$json_dir"' EXIT
export DRS_RAYS=${DRS_RAYS:-20000} DRS_SCALE=${DRS_SCALE:-0.1} \
       DRS_SMX=${DRS_SMX:-2}
DRS_CHECK=0 build/bench/bench_fig2_aila_breakdown --jobs 2 \
    --json "$json_dir/BENCH_unchecked.json"
DRS_CHECK=1 build/bench/bench_fig2_aila_breakdown --jobs 2 \
    --json "$json_dir/BENCH_checked.json"
build/tools/drs_inspect validate "$json_dir"/BENCH_*.json
build/tools/drs_inspect same --ignore wall_seconds \
    "$json_dir/BENCH_unchecked.json" "$json_dir/BENCH_checked.json"

echo; echo "######## telemetry: event log + stitched fleet trace smoke ########"
echo
telemetry_dir=$(mktemp -d)
DRS_LOG="$telemetry_dir/events.jsonl" DRS_LOG_LEVEL=debug DRS_LOG_RATE=0 \
    DRS_TRACE="$telemetry_dir/trace" \
    build/bench/bench_fig2_aila_breakdown --jobs 2 --fleet 2 --progress \
    --json "$telemetry_dir/BENCH_logged.json" >/dev/null 2>&1
build/tools/drs_inspect events "$telemetry_dir/events.jsonl" >/dev/null
dispatches=$(build/tools/drs_inspect events --count fleet.dispatch \
    "$telemetry_dir/events.jsonl")
if [ "$dispatches" -lt 1 ]; then
  echo "FAIL: fleet run logged no fleet.dispatch events"
  exit 1
fi
build/tools/drs_inspect merge -o "$telemetry_dir/merged.json" \
    "$telemetry_dir"/trace.w*.j* "$telemetry_dir/trace.coord"
build/tools/drs_inspect trace "$telemetry_dir/merged.json"
build/bench/bench_fig2_aila_breakdown --jobs 2 --fleet 2 \
    --json "$telemetry_dir/BENCH_quiet.json" >/dev/null
build/tools/drs_inspect validate "$telemetry_dir"/BENCH_*.json
# Resource usage and timing are wall-clock facts, and --progress /
# DRS_TRACE are recorded in the options; the rest must match.
build/tools/drs_inspect same --ignore wall_seconds,fleet,options \
    "$telemetry_dir/BENCH_quiet.json" "$telemetry_dir/BENCH_logged.json"
rm -rf "$telemetry_dir"

echo; echo "######## profiler: trace + attribution + comparator smoke ########"
echo
mkdir -p "$json_dir/profiled"
DRS_SAMPLE=500 DRS_TRACE="$json_dir/trace.json" \
    build/bench/bench_fig2_aila_breakdown --jobs 1 \
    --json "$json_dir/profiled/BENCH_fig2_aila_breakdown.json"
build/tools/drs_inspect trace "$json_dir/trace.json"
build/tools/drs_inspect validate \
    "$json_dir/profiled/BENCH_fig2_aila_breakdown.json"
build/tools/drs_inspect profile \
    "$json_dir/profiled/BENCH_fig2_aila_breakdown.json" >/dev/null
echo "ok   drs_inspect profile renders the sampled report"
bash tests/check_compare.sh build/tools/drs_inspect tests/fixtures

echo; echo "run_checks.sh: all checks passed"
