#!/usr/bin/env bash
# Benchmark regression gate: `scripts/bench_check.sh`, all offline.
#
#   1. stdout of the default set, `experiments --jobs 1`, is
#      experiments_output.txt byte for byte: the 19 tables, then the M1,
#      F1, per-op fault, audit and F2 blocks, so every simulated number is
#      pinned exactly (timing never touches stdout); the same run at
#      --jobs 4 prints the same bytes (runner determinism contract);
#   2. the m02 sharded drive prints the same bytes at --shards 1 and 4;
#   3. two host-time numbers stay within 1.25x of a baseline: the default
#      set's total_wall_seconds against BENCH_experiments.json, and the m02
#      drive's serial ns per event against a constant below.
#
# A run that exits non-zero (the audit or m02 saw digest streams diverge,
# or a panic) fails the gate with its status and the tail of its stderr.

set -euo pipefail
cd "$(dirname "$0")/.."

factor=1.25
bin="$PWD/target/release/experiments"

echo "==> cargo build --release -p sprite-bench"
cargo build --release -p sprite-bench

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# run NAME ARGS...: runs experiments in $tmp/NAME (stdout in out.txt, stderr
# in err.txt). The timeout turns a deadlock, say at an m02 window barrier,
# into a failure instead of a stalled gate.
run() {
    local name="$1" status=0
    shift
    echo "==> experiments $*"
    mkdir "$tmp/$name"
    (cd "$tmp/$name" && timeout 600 "$bin" "$@" > out.txt 2> err.txt) || status=$?
    if [[ "$status" != 0 ]]; then
        echo "FAIL: experiments $* exited with status $status" >&2
        [[ "$status" != 124 ]] || echo "    (still running after 600 s: deadlocked at a window barrier?)" >&2
        tail -n 20 "$tmp/$name/err.txt" >&2
        exit 1
    fi
}

# same EXPECTED ACTUAL WHAT: fails with a diff unless the files are equal.
same() {
    if ! cmp -s "$1" "$2"; then
        echo "FAIL: $3" >&2
        diff "$1" "$2" | head -40 >&2 || true
        exit 1
    fi
}

# within NAME FRESH BASELINE: fails unless FRESH <= factor x BASELINE.
within() {
    if [[ -z "$2" || -z "$3" ]]; then
        echo "FAIL: could not parse $1 (fresh='$2' baseline='$3')" >&2
        exit 1
    fi
    awk -v n="$1" -v f="$2" -v b="$3" -v k="$factor" 'BEGIN {
        printf "    %s: fresh %s, baseline %s, limit %.3f (factor %s)\n", n, f, b, b * k, k
        exit !(f <= b * k)
    }' || {
        echo "FAIL: $1 $2 regressed past ${factor}x baseline $3" >&2
        exit 1
    }
}

# json_number KEY FILE: the first number recorded under "KEY" in FILE.
json_number() {
    sed -n "s/.*\"$1\": \([0-9.]*\).*/\1/p" "$2" | head -1
}

regen="cargo run -p sprite-bench --release --bin experiments -- --jobs 1 > experiments_output.txt"
run gate --jobs 1 --json
same experiments_output.txt "$tmp/gate/out.txt" \
    "default-set stdout diverged from experiments_output.txt; if the change is deliberate, regenerate it with \`$regen\` and explain every moved line"
run gate4 --jobs 4
same experiments_output.txt "$tmp/gate4/out.txt" "--jobs 4 stdout diverged from the --jobs 1 golden"

# The m02 drive compares its serial and sharded digest streams in-process
# and exits 1 on divergence; its stdout prints only partition-invariant
# facts, so the bytes must also match across --shards values.
run m1 m02=2000:3 --shards 1
run m4 m02=2000:3 --shards 4 --json
same "$tmp/m1/out.txt" "$tmp/m4/out.txt" "m02 stdout diverged between --shards 1 and --shards 4"
if ! grep -q 'sharded stream identical  *yes' "$tmp/m4/out.txt"; then
    echo "FAIL: m02 table does not report an identical sharded stream" >&2
    exit 1
fi

echo "==> host time vs baselines"
# The engine's host cost per event in the serial (1 shard, 1 worker) pass
# of the m02=2000:3 drive above. The baseline is the slowest of 12 runs of
# this same drive (`m02=2000:3 --shards 4 --json`, unpinned) on a 2-vCPU
# VM, which read 88.8-110.5 ns per event, median 100.0. Runs of one
# build spread ~25%, so with the factor a per-event slowdown of about 1.5x
# fails the gate and a smaller one can pass. The full 5000-host month in
# BENCH_experiments.json runs ~40% more ns per event (a larger working
# set), so it is recorded there but not compared with this run.
within "m02 serial ns/event" "$(json_number serial_ns_per_event "$tmp/m4/BENCH_experiments.json")" 110.5
within "default set total_wall_seconds" "$(json_number total_wall_seconds "$tmp/gate/BENCH_experiments.json")" \
    "$(json_number total_wall_seconds BENCH_experiments.json)"

echo "==> bench check OK"
