#!/usr/bin/env bash
# drs_inspect compare regression check, pinned against tests/fixtures:
#
#  1. Comparing a report directory against itself must pass (exit 0) —
#     the comparator has no false positives on identical data.
#  2. Each other case must be rejected (exit 1) for its own reason, so
#     every comparator rule is exercised on its own: a perturbed report
#     (simd_efficiency -25%, cycles +30%), a degraded report, a scale
#     mismatch, a missing row, a report missing from the current side
#     and a current report with no baseline.
#  3. A negative --tolerance is a usage error (exit 2).
#
# Usage: check_compare.sh <drs_inspect> <fixtures-dir>
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <drs_inspect> <fixtures-dir>" >&2
    exit 2
fi

inspect=$1
fixtures=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Fresh base/ and cur/ directories, each holding the profile fixture
# (the one non-degraded, schema-current report among the fixtures).
setup() {
    rm -rf "$tmp/base" "$tmp/cur"
    mkdir "$tmp/base" "$tmp/cur"
    cp "$fixtures/BENCH_profile_fixture.json" "$tmp/base/"
    cp "$fixtures/BENCH_profile_fixture.json" "$tmp/cur/"
}

# expect STATUS TEXT [ARGS...]: compare base/ with cur/ and require that
# exit status and TEXT in the output.
expect() {
    local want=$1 text=$2 out status=0
    shift 2
    out=$("$inspect" compare "$tmp/base" "$tmp/cur" "$@" 2>&1) || status=$?
    if [ "$status" -ne "$want" ] || ! grep -qF -- "$text" <<<"$out"; then
        echo "FAIL: expected exit $want and '$text', got exit $status:" >&2
        echo "$out" >&2
        exit 1
    fi
    echo "ok   exit $want: $text"
}

setup
expect 0 "compare: OK — 3 rows across 1 reports"

setup
cp "$fixtures/compare/perturbed.json" "$tmp/cur/BENCH_profile_fixture.json"
expect 1 "simd_efficiency = 0.5325 is below the tolerated"
expect 1 "cycles = 13000 is above the tolerated"

setup
cp "$fixtures/BENCH_degraded_fixture.json" "$tmp/cur/BENCH_profile_fixture.json"
expect 1 "current report is degraded"

setup
cp "$fixtures/compare/rescaled.json" "$tmp/cur/BENCH_profile_fixture.json"
expect 1 "experiment scales differ"

setup
cp "$fixtures/compare/missing_row.json" "$tmp/cur/BENCH_profile_fixture.json"
expect 1 "row conference/drs/4 buffers/B2 missing from current report"

setup
cp "$fixtures/BENCH_profile_fixture.json" "$tmp/base/BENCH_extra.json"
expect 1 "BENCH_extra.json: present in baseline but missing"

setup
cp "$fixtures/BENCH_profile_fixture.json" "$tmp/cur/BENCH_extra.json"
expect 1 "BENCH_extra.json: present in $tmp/cur but has no baseline"

setup
expect 2 "usage: drs_inspect compare" --tolerance -0.1
