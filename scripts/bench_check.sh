#!/usr/bin/env bash
# Benchmark regression gate.
#
#   scripts/bench_check.sh            # build, run, compare vs checked-in baseline
#   BENCH_CHECK_FACTOR=1.5 scripts/bench_check.sh   # custom regression factor
#
# Three checks, all offline:
#
#   1. stdout of a serial run is byte-identical to experiments_output.txt
#      (the determinism/correctness gate — timing never touches stdout);
#   2. a parallel run produces the same bytes (runner determinism contract);
#   3. total_wall_seconds of the fresh serial run has not regressed more
#      than BENCH_CHECK_FACTOR (default 1.25, i.e. +25%) over the
#      checked-in BENCH_experiments.json baseline.
#
# The fresh run includes the --macro data-plane macrobench, whose stale
# handle count must be zero.

set -euo pipefail
cd "$(dirname "$0")/.."

factor="${BENCH_CHECK_FACTOR:-1.25}"
bin=target/release/experiments

echo "==> cargo build --release -p sprite-bench"
cargo build --release -p sprite-bench

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "==> serial run (--jobs 1 --macro --json)"
(cd "$tmp" && "$OLDPWD/$bin" --jobs 1 --macro --json > serial.txt 2> serial.err)

echo "==> stdout vs experiments_output.txt"
# The macro table is appended after the golden suite output; the golden
# prefix must match byte-for-byte.
head -n "$(wc -l < experiments_output.txt)" "$tmp/serial.txt" > "$tmp/serial_prefix.txt"
if ! cmp -s experiments_output.txt "$tmp/serial_prefix.txt"; then
    echo "FAIL: serial stdout diverged from checked-in experiments_output.txt" >&2
    diff experiments_output.txt "$tmp/serial_prefix.txt" | head -40 >&2 || true
    exit 1
fi

echo "==> parallel run (--jobs 4) matches serial bytes"
(cd "$tmp" && "$OLDPWD/$bin" --jobs 4 > parallel.txt 2> /dev/null)
if ! cmp -s experiments_output.txt "$tmp/parallel.txt"; then
    echo "FAIL: --jobs 4 stdout diverged from serial output" >&2
    exit 1
fi

echo "==> fault sweep (--faults 42:0.1) is --jobs invariant"
# The fault schedule is a pure function of its seed, so the sweep's stdout
# and its fault_table JSON must not depend on the worker count.
mkdir -p "$tmp/f1" "$tmp/f4"
(cd "$tmp/f1" && "$OLDPWD/$bin" e01 --faults 42:0.1 --jobs 1 --json > ../faults1.txt 2> /dev/null)
(cd "$tmp/f4" && "$OLDPWD/$bin" e01 --faults 42:0.1 --jobs 4 --json > ../faults4.txt 2> /dev/null)
if ! cmp -s "$tmp/faults1.txt" "$tmp/faults4.txt"; then
    echo "FAIL: fault sweep stdout diverged between --jobs 1 and --jobs 4" >&2
    diff "$tmp/faults1.txt" "$tmp/faults4.txt" | head -40 >&2 || true
    exit 1
fi
if ! grep -q '^## F1: migration outcomes under injected faults' "$tmp/faults1.txt"; then
    echo "FAIL: --faults run printed no F1 table" >&2
    exit 1
fi
# The faults block minus wall-clock timing (the only nondeterministic field).
# A block followed by others closes with "}," instead of "}"; drop the comma.
faults_block() {
    sed -n '/"faults": {/,/^  }/p' "$1" | grep -v '"wall_seconds"' | sed '$ s/^  },$/  }/'
}
for j in f1 f4; do
    faults_block "$tmp/$j/BENCH_experiments.json" > "$tmp/$j.faults.json"
done
if ! grep -q '"fault_table"' "$tmp/f1.faults.json"; then
    echo "FAIL: --faults --json emitted no fault_table block" >&2
    exit 1
fi
if ! cmp -s "$tmp/f1.faults.json" "$tmp/f4.faults.json"; then
    echo "FAIL: fault_table JSON diverged between --jobs 1 and --jobs 4" >&2
    diff "$tmp/f1.faults.json" "$tmp/f4.faults.json" | head -40 >&2 || true
    exit 1
fi
# The same block as recorded in the checked-in baseline: a change that moves
# F1 must re-record BENCH_experiments.json (full flag set) and say why.
faults_block BENCH_experiments.json > "$tmp/baseline.faults.json"
if ! cmp -s "$tmp/baseline.faults.json" "$tmp/f1.faults.json"; then
    echo "FAIL: fault_table JSON diverged from the BENCH_experiments.json baseline" >&2
    diff "$tmp/baseline.faults.json" "$tmp/f1.faults.json" | head -40 >&2 || true
    exit 1
fi

echo "==> zero-rate fault run keeps the golden stdout byte-stable"
# At rate 0 the fault layer must be timing-invisible: the suite portion of
# the output is the same bytes as a run with no --faults flag at all.
(cd "$tmp" && "$OLDPWD/$bin" --jobs 4 --faults 42:0 > faults0.txt 2> /dev/null)
head -n "$(wc -l < experiments_output.txt)" "$tmp/faults0.txt" > "$tmp/faults0_prefix.txt"
if ! cmp -s experiments_output.txt "$tmp/faults0_prefix.txt"; then
    echo "FAIL: --faults 42:0 perturbed the golden suite output" >&2
    diff experiments_output.txt "$tmp/faults0_prefix.txt" | head -40 >&2 || true
    exit 1
fi

echo "==> determinism audit (--audit) digest streams match across --jobs"
# The audit replays E11 replications with state-digest checkpoints armed
# and prints every stream (first/last digest per replication). The block
# is a pure function of the seeded replications, so its bytes — including
# every digest — must be identical for any worker count. A mismatch also
# makes the binary itself exit 1 with a bisected divergence window.
mkdir -p "$tmp/a1" "$tmp/a4"
(cd "$tmp/a1" && "$OLDPWD/$bin" e01 --audit --jobs 1 > ../audit1.txt 2> /dev/null)
(cd "$tmp/a4" && "$OLDPWD/$bin" e01 --audit --jobs 4 > ../audit4.txt 2> /dev/null)
if ! cmp -s "$tmp/audit1.txt" "$tmp/audit4.txt"; then
    echo "FAIL: --audit digest streams diverged between --jobs 1 and --jobs 4" >&2
    diff "$tmp/audit1.txt" "$tmp/audit4.txt" | head -40 >&2 || true
    exit 1
fi
if ! grep -q '^Determinism audit' "$tmp/audit1.txt"; then
    echo "FAIL: --audit run printed no audit block" >&2
    exit 1
fi
if ! grep -q 'verdict: all .* replication digest streams identical' "$tmp/audit1.txt"; then
    echo "FAIL: audit verdict reports a divergence" >&2
    grep 'verdict' "$tmp/audit1.txt" >&2 || true
    exit 1
fi

echo "==> m02 sharded digest stream identical across --shards 1 and 4"
# The partitioned-parallel macrobench drives the cluster workload serial
# and sharded and compares digest streams in-process (the binary exits 1
# on divergence). On top of that, the stdout block prints only partition-
# invariant facts, so the bytes must match across --shards values — the
# same contract the golden tables have for --jobs.
# Each drive takes about a second; the timeout turns a window-barrier
# deadlock into a failure instead of a stalled gate.
mkdir -p "$tmp/m1" "$tmp/m4"
for shards in 1 4; do
    m02_status=0
    (cd "$tmp/m$shards" && timeout 600 "$OLDPWD/$bin" e01 --m02=2000:3 --shards "$shards" --json \
        > "../m02_$shards.txt" 2> /dev/null) || m02_status=$?
    if [[ "$m02_status" == 124 ]]; then
        echo "FAIL: m02 --shards $shards still running after 600 s (deadlocked at a window barrier?)" >&2
        exit 1
    elif [[ "$m02_status" != 0 ]]; then
        echo "FAIL: m02 --shards $shards exited with status $m02_status" >&2
        exit 1
    fi
done
if ! cmp -s "$tmp/m02_1.txt" "$tmp/m02_4.txt"; then
    echo "FAIL: m02 stdout diverged between --shards 1 and --shards 4" >&2
    diff "$tmp/m02_1.txt" "$tmp/m02_4.txt" | head -40 >&2 || true
    exit 1
fi
if ! grep -q '"digest_match": true' "$tmp/m4/BENCH_experiments.json"; then
    echo "FAIL: m02 sharded digest stream diverged from serial" >&2
    exit 1
fi
if ! grep -q 'sharded stream identical  *yes' "$tmp/m02_4.txt"; then
    echo "FAIL: m02 table does not report an identical sharded stream" >&2
    exit 1
fi

echo "==> m02 serial ns per event vs the same drive's recorded baseline"
# The engine's host cost per event in the serial (1 shard, 1 worker) pass
# of the --m02=2000:3 drive above. The baseline is the slowest of 12 runs
# of this same drive (`e01 --m02=2000:3 --shards 4 --json`, unpinned) on a
# 2-vCPU VM, which read 88.8-110.5 ns per event, median 100.0. Runs of one
# build spread ~25%, so with the factor a per-event slowdown of about 1.5x
# fails the gate and a smaller one can pass. The full 5000-host month in
# BENCH_experiments.json runs ~40% more ns per event (a larger working
# set), so it is recorded there but not compared with this run. The
# sharded/serial wall ratio is not gated: on one worker it measures no
# parallelism, only overhead.
m02_base=110.5
m02_fresh="$(sed -n 's/.*"serial_ns_per_event": \([0-9.]*\).*/\1/p' "$tmp/m4/BENCH_experiments.json" | head -1)"
if [[ -z "$m02_fresh" ]]; then
    echo "FAIL: could not parse m02 serial_ns_per_event from the fresh run" >&2
    exit 1
fi
awk -v b="$m02_base" -v f="$m02_fresh" -v k="$factor" 'BEGIN {
    limit = b * k
    printf "    serial %.1f ns/event, baseline %.1f ns/event, limit %.1f (factor %s)\n", f, b, limit, k
    exit !(f <= limit)
}' || {
    echo "FAIL: m02 serial_ns_per_event $m02_fresh regressed past ${factor}x baseline $m02_base" >&2
    exit 1
}

echo "==> wall-time regression vs BENCH_experiments.json baseline"
baseline="$(sed -n 's/.*"total_wall_seconds": \([0-9.]*\).*/\1/p' BENCH_experiments.json | head -1)"
fresh="$(sed -n 's/.*"total_wall_seconds": \([0-9.]*\).*/\1/p' "$tmp/BENCH_experiments.json" | head -1)"
stale="$(sed -n 's/.*"stale_handle_lookups": \([0-9]*\).*/\1/p' "$tmp/BENCH_experiments.json" | head -1)"
if [[ -z "$baseline" || -z "$fresh" ]]; then
    echo "FAIL: could not parse total_wall_seconds (baseline='$baseline' fresh='$fresh')" >&2
    exit 1
fi
if [[ "${stale:-0}" != "0" ]]; then
    echo "FAIL: macrobench saw $stale stale slab-handle lookups (expected 0)" >&2
    exit 1
fi
awk -v b="$baseline" -v f="$fresh" -v k="$factor" 'BEGIN {
    limit = b * k
    printf "    baseline %.3fs, fresh %.3fs, limit %.3fs (factor %s)\n", b, f, limit, k
    exit !(f <= limit)
}' || {
    echo "FAIL: total_wall_seconds $fresh regressed past ${factor}x baseline $baseline" >&2
    exit 1
}

echo "==> hostsel selection regression vs BENCH_experiments.json baseline"
# The decentralized selection path (gossip month + sharded batch) replaced
# the central server's 615 ms query queue. Both numbers are simulated and
# fully deterministic, so the slack factor only absorbs deliberate small
# workload tweaks — a return to round-trip selection blows straight past it.
hs_factor="${BENCH_HOSTSEL_FACTOR:-1.25}"
hs_base_ms="$(sed -n 's/.*"hostsel_select_mean_ms": \([0-9.]*\).*/\1/p' BENCH_experiments.json | head -1)"
hs_fresh_ms="$(sed -n 's/.*"hostsel_select_mean_ms": \([0-9.]*\).*/\1/p' "$tmp/BENCH_experiments.json" | head -1)"
hs_base_bytes="$(sed -n 's/.*"hostsel_bytes": \([0-9]*\).*/\1/p' BENCH_experiments.json | head -1)"
hs_fresh_bytes="$(sed -n 's/.*"hostsel_bytes": \([0-9]*\).*/\1/p' "$tmp/BENCH_experiments.json" | head -1)"
if [[ -z "$hs_base_ms" || -z "$hs_fresh_ms" || -z "$hs_base_bytes" || -z "$hs_fresh_bytes" ]]; then
    echo "FAIL: could not parse hostsel metrics (base ms='$hs_base_ms' fresh ms='$hs_fresh_ms' base bytes='$hs_base_bytes' fresh bytes='$hs_fresh_bytes')" >&2
    exit 1
fi
awk -v b="$hs_base_ms" -v f="$hs_fresh_ms" -v k="$hs_factor" 'BEGIN {
    limit = b * k
    printf "    select latency: baseline %.3fms, fresh %.3fms, limit %.3fms (factor %s)\n", b, f, limit, k
    exit !(f <= limit)
}' || {
    echo "FAIL: hostsel_select_mean_ms $hs_fresh_ms regressed past ${hs_factor}x baseline $hs_base_ms" >&2
    exit 1
}
awk -v b="$hs_base_bytes" -v f="$hs_fresh_bytes" -v k="$hs_factor" 'BEGIN {
    limit = b * k
    printf "    wire bytes: baseline %d, fresh %d, limit %.0f (factor %s)\n", b, f, limit, k
    exit !(f <= limit)
}' || {
    echo "FAIL: hostsel_bytes $hs_fresh_bytes regressed past ${hs_factor}x baseline $hs_base_bytes" >&2
    exit 1
}

echo "==> sharded-FS load regression vs BENCH_experiments.json baseline"
# The striped file service spreads the macro workload's server load across
# its daemons; the worst daemon's busy time is the number that regresses
# if the striping (or the replica serving that rides on it) breaks. Both
# runs are simulated and deterministic, so the slack factor only absorbs
# deliberate workload tweaks.
fs_factor="${BENCH_FS_FACTOR:-1.25}"
fs_base="$(sed -n 's/.*"fs_server_busy_max_seconds": \([0-9.]*\).*/\1/p' BENCH_experiments.json | head -1)"
fs_fresh="$(sed -n 's/.*"fs_server_busy_max_seconds": \([0-9.]*\).*/\1/p' "$tmp/BENCH_experiments.json" | head -1)"
if [[ -z "$fs_base" || -z "$fs_fresh" ]]; then
    echo "FAIL: could not parse fs_server_busy_max_seconds (base='$fs_base' fresh='$fs_fresh')" >&2
    exit 1
fi
awk -v b="$fs_base" -v f="$fs_fresh" -v k="$fs_factor" 'BEGIN {
    limit = b * k
    printf "    worst server busy: baseline %.3fs, fresh %.3fs, limit %.3fs (factor %s)\n", b, f, limit, k
    exit !(f <= limit)
}' || {
    echo "FAIL: fs_server_busy_max_seconds $fs_fresh regressed past ${fs_factor}x baseline $fs_base" >&2
    exit 1
}

echo "==> e05 saturation crossover: striping must keep the bend pushed right"
# The crossover is the host count where marginal speedup collapses; the
# sharded series must bend later than the single-server series, and must
# not retreat left of the recorded baseline beyond the slack factor.
x1_fresh="$(sed -n 's/.*"fs_shards": 1, "crossover_hosts": \([0-9]*\).*/\1/p' "$tmp/BENCH_experiments.json" | head -1)"
x2_fresh="$(sed -n 's/.*"fs_shards": 2, "crossover_hosts": \([0-9]*\).*/\1/p' "$tmp/BENCH_experiments.json" | head -1)"
x2_base="$(sed -n 's/.*"fs_shards": 2, "crossover_hosts": \([0-9]*\).*/\1/p' BENCH_experiments.json | head -1)"
if [[ -z "$x1_fresh" || -z "$x2_fresh" || -z "$x2_base" ]]; then
    echo "FAIL: could not parse e05 crossovers (fresh 1-shard='$x1_fresh' 2-shard='$x2_fresh' baseline 2-shard='$x2_base')" >&2
    exit 1
fi
awk -v x1="$x1_fresh" -v x2="$x2_fresh" -v b="$x2_base" -v k="$fs_factor" 'BEGIN {
    floor = b / k
    printf "    crossover: 1 shard at %d hosts, 2 shards at %d hosts (baseline %d, floor %.1f)\n", x1, x2, b, floor
    exit !(x2 > x1 && x2 >= floor)
}' || {
    echo "FAIL: e05 crossover regressed (1 shard $x1_fresh, 2 shards $x2_fresh, baseline $x2_base, factor $fs_factor)" >&2
    exit 1
}

echo "==> f02 checkpoint-vs-migration crossover vs BENCH_experiments.json baseline"
# Per image size, the MTBF where live migration first beats periodic
# checkpointing. It moves if either mechanism's cost model drifts — a
# cheaper checkpoint path pushes it right, a cheaper migration pulls it
# left — so the gate bounds it in both directions around the recorded
# baseline. The default grid always has a crossover (a unit test pins
# that), so an empty parse is itself a failure.
ckpt_factor="${BENCH_CKPT_FACTOR:-1.25}"
for mb in 0.25 1.00 4.00; do
    cx_base="$(sed -n "s/.*\"image_mb\": $mb, \"migration_wins_at_mtbf_secs\": \([0-9]*\).*/\1/p" BENCH_experiments.json | head -1)"
    cx_fresh="$(sed -n "s/.*\"image_mb\": $mb, \"migration_wins_at_mtbf_secs\": \([0-9]*\).*/\1/p" "$tmp/BENCH_experiments.json" | head -1)"
    if [[ -z "$cx_base" || -z "$cx_fresh" ]]; then
        echo "FAIL: could not parse f02 crossover for ${mb}MB (base='$cx_base' fresh='$cx_fresh')" >&2
        exit 1
    fi
    awk -v b="$cx_base" -v f="$cx_fresh" -v k="$ckpt_factor" -v mb="$mb" 'BEGIN {
        printf "    %sMB image: migration wins at mtbf %ds (baseline %ds, band %.1f..%.1f)\n", mb, f, b, b / k, b * k
        exit !(f >= b / k && f <= b * k)
    }' || {
        echo "FAIL: f02 crossover for ${mb}MB drifted (fresh $cx_fresh vs baseline $cx_base, factor $ckpt_factor)" >&2
        exit 1
    }
done

echo "==> bench check OK"
