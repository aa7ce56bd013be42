#!/bin/bash
# Reorder-survey smoke: run bench_reorder_survey at BENCH_baseline scale
# and require (1) a schema-valid JSON report (2) equal to the committed
# baseline report once wall-clock and run provenance are dropped. The
# match pins the full registry lineup on every scene, the reorder
# counters of the software reorderers, every speedup and every geomean.
# The baseline was recorded with --jobs 4; results do not depend on the
# job count. Knobs that change the report's content are cleared.
#
# Usage: check_reorder_survey.sh BENCH_BINARY DRS_INSPECT BASELINE_REPORT
set -euo pipefail

bench=$1
inspect=$2
baseline=$3

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

env -u DRS_WIDTH -u DRS_HEIGHT -u DRS_SPP -u DRS_FAULT_SEED -u DRS_SAMPLE \
    -u DRS_TRACE -u DRS_FLEET DRS_RAYS=2048 DRS_SCALE=0.05 DRS_SMX=2 \
    "$bench" --jobs 2 --json "$tmp/BENCH_reorder_survey.json" \
    > "$tmp/survey.log"

"$inspect" validate "$tmp/BENCH_reorder_survey.json"
"$inspect" same --ignore wall_seconds,options,summary.sweep \
    "$baseline" "$tmp/BENCH_reorder_survey.json"

echo "check_reorder_survey.sh: all checks passed"
