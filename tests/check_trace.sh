#!/usr/bin/env bash
# drs_inspect trace rule check, pinned against tests/fixtures/trace:
#
#  1. The well-formed trace (ok.json) must pass, and trace --count must
#     find its one worker_death instant.
#  2. Every other fixture is ok.json with one rule broken, and must be
#     rejected (exit 1) naming that rule: an unknown ph, a span track
#     without thread_name, a pid without process_name, a counter track
#     whose ts goes backwards, and an issue_slots timeline sample
#     without its work sample.
#
# Usage: check_trace.sh <drs_inspect> <trace-fixtures-dir>
set -euo pipefail

if [ "$#" -ne 2 ]; then
    echo "usage: $0 <drs_inspect> <trace-fixtures-dir>" >&2
    exit 2
fi

inspect=$1
fixtures=$2

"$inspect" trace "$fixtures/ok.json"
deaths=$("$inspect" trace --count worker_death "$fixtures/ok.json")
if [ "$deaths" != 1 ]; then
    echo "FAIL: trace --count worker_death gave '$deaths', expected 1" >&2
    exit 1
fi
echo "ok   trace --count finds the worker_death instant"

reject() {
    local fixture=$1 text=$2 out status=0
    out=$("$inspect" trace "$fixtures/$fixture") || status=$?
    if [ "$status" -ne 1 ] || ! grep -qF -- "$text" <<<"$out"; then
        echo "FAIL: $fixture: expected exit 1 and '$text', got exit" \
             "$status: $out" >&2
        exit 1
    fi
    echo "ok   $fixture rejected: $text"
}

reject unknown_ph.json "unknown ph \"B\""
reject no_thread_name.json "span track pid=0 tid=3 has no thread_name"
reject no_process_name.json "pid 0 has no process_name"
reject counter_backwards.json "not in non-decreasing ts order"
reject timeline_unpaired.json "samples are not paired (2 vs 1 windows)"
