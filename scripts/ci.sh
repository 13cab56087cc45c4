#!/usr/bin/env bash
# Offline CI gate for the Sprite migration reproduction.
#
#   scripts/ci.sh          # full gate: build, tests, clippy, rustdoc, smokes, examples, heavy model suites, fmt, perfbench runs, core_ops, engine_throughput, bench
#   scripts/ci.sh --quick  # build, tests (perfbench's too), clippy, rustdoc, the experiment smokes and the examples
#
# Everything runs offline: the workspace has zero external dependencies, so
# no network access (and no pre-populated registry cache) is required.

set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
if [[ "${1:-}" == "--quick" ]]; then
    quick=1
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release -p sprite-bench"
# The root build does not build member binaries; the smokes below need
# target/release/experiments, even on a clean checkout.
cargo build --release -p sprite-bench

echo "==> cargo test -q --workspace"
# Includes the root package's integration suites, the deterministic chaos
# suite (tests/fault_properties.rs: 50 fault seeds x 3 drop rates,
# replayed) among them, so both modes run it.
cargo test -q --workspace

echo "==> cargo test -q --offline --manifest-path perfbench/Cargo.toml"
# The benchmark's own tests (about 10 s), in both modes: migrate_evict
# checks every heap byte after each move, so a page-sharing bug that
# corrupts a migrated heap fails the quick gate too.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
# The determinism rules live in the compiler and clippy (see DESIGN.md,
# "Static analysis"): the clippy.toml files ban std's randomized hashers,
# the wall clock in simulation crates and `for_each`; the workspace [lints]
# table forbids unsafe code and warns on `for` over hash tables and on
# #[allow] (suppressions are #[expect], which fail once stale). Unwrapping
# a transport send does not compile at all. Both modes run this step.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps --offline"
# Rustdoc warnings are errors in both modes (about 3 s warm): a public doc
# whose intra-doc link names a private or removed item fails here. Docs of
# private modules are not checked.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> m02 smoke (200 hosts, 1 simulated day, 2 shards)"
# The partitioned-parallel engine compares its sharded digest stream
# against the serial reference in-process and exits 1 on divergence; one
# small run keeps the determinism contract in even the quick gate. The
# run takes about a second; the timeout turns a window-barrier deadlock
# into a failure instead of a stalled gate.
m02_status=0
timeout 600 target/release/experiments m02=200:1 --shards 2 > /dev/null || m02_status=$?
if [[ "$m02_status" == 124 ]]; then
    echo "FAIL: m02 smoke still running after 600 s (deadlocked at a window barrier?)" >&2
    exit 1
elif [[ "$m02_status" != 0 ]]; then
    echo "FAIL: m02 smoke exited with status $m02_status" >&2
    exit 1
fi

echo "==> e10-sweep smoke (200 hosts, central vs sharded vs gossip)"
# The decentralization sweep runs each cell as a runner unit; its table
# must be byte-identical for any --jobs value (gossip fanout is seeded).
# It is opt-in, so this is quick mode's one run of its id through the
# binary.
sweep_tmp="$(mktemp -d)"
trap 'rm -rf "$sweep_tmp"' EXIT
target/release/experiments e10-sweep=200 --jobs 1 > "$sweep_tmp/sweep1.txt"
target/release/experiments e10-sweep=200 --jobs 4 > "$sweep_tmp/sweep4.txt"
if ! cmp -s "$sweep_tmp/sweep1.txt" "$sweep_tmp/sweep4.txt"; then
    echo "FAIL: e10 sweep stdout diverged between --jobs 1 and --jobs 4" >&2
    diff "$sweep_tmp/sweep1.txt" "$sweep_tmp/sweep4.txt" | head -40 >&2 || true
    exit 1
fi
if ! grep -q '^## E10 sweep: decentralized host selection' "$sweep_tmp/sweep1.txt"; then
    echo "FAIL: e10-sweep run printed no sweep table" >&2
    exit 1
fi

echo "==> examples (build and run each)"
# `cargo test` only builds the six examples. They drive migrate,
# exec_migrate (through pmake and the month drive) and evict_all end to
# end and `?`/`expect` every step, so running them (about 0.1 s together)
# fails the gate when any step errors.
cargo build --release --examples
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    if ! "target/release/examples/$name" > /dev/null; then
        echo "FAIL: example $name exited non-zero" >&2
        exit 1
    fi
done

if [[ "$quick" == 1 ]]; then
    echo "==> quick gate OK (skipped heavy model suites, fmt, perfbench runs, core_ops, engine_throughput, bench_check)"
    exit 0
fi

echo "==> model suites at full size (heavy-tests)"
# Every suite that reads the heavy-tests feature, at its heavy size: the
# differential models of the client block cache, the server block table,
# the address space and the load cache, the engine properties, and the
# cross-crate properties (FS against a flat model, migrations, the
# central server), about 25 s in release with their build.
cargo test -q --release -p sprite -p sprite-sim -p sprite-fs -p sprite-vm -p sprite-hostsel \
    --features sprite/heavy-tests,sprite-sim/heavy-tests,sprite-fs/heavy-tests \
    --features sprite-vm/heavy-tests,sprite-hostsel/heavy-tests \
    --test properties --test engine_properties --test cache_model \
    --test server_file_model --test space_model --test load_cache_model

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> a 1 s run of each benchmark workload"
# The benchmark exits 1 on a failed correctness check (for example engine
# events != calendar pops), so this checks engine and layer changes against
# the benchmark's workloads without editing perfbench/. Each run's digest
# covers a fixed leading sample of simulated work, so even a 1 s run must
# print the pinned value at the workload's default seed. A change that
# alters simulated behaviour re-pins these and says why in CHANGES.md.
# The per-op RPC and fault tables fold only the rows that saw traffic, each
# led by its op's label, so adding or retiring an op that no run uses moves
# none of these. Switching to that fold (and dropping the always-zero
# `delays` fault counter) re-pinned all four once, with no change in
# simulated behaviour; `cell_month` moved too because it folds an empty
# table. Laying checkpoint images out in whole blocks (an index block, one
# block per page, the trailer block) halved the image RPCs of
# `migrate_evict`'s checkpoint moves and re-pinned it alone: the other
# three workloads never checkpoint. Creating a segment's swap file at its
# first page-out and unlinking it when the space is freed, instead of
# creating two files at every spawn, fork and exec, re-pinned the three
# workloads that run a `Cluster` (month_in_life d00d11719a7aa120,
# pmake_build d9b70ed44bfc63c0, migrate_evict be5df8739b6d1173);
# `cell_month` runs `HostCell`s, which have no address spaces.
# Page-out and checkpoint image RPCs carrying runs of up to 4 consecutive
# blocks re-pinned `migrate_evict` alone (f7ab7baa1c021cad before): the
# other three workloads never page out or checkpoint.
# Arrival-order CPUs (host, file-server and migd CPUs on the wire's
# gap-filling calendar) and the file servers' exact queue wait re-pinned
# `migrate_evict` (6c3639ca5cc18406 before) and, with `prepare_sources`
# writing each input once, `pmake_build` (3a69a566c5619bbc before); the
# schedules of `month_in_life` and `cell_month` did not move.
declare -A pinned_digest=(
    [cell_month]=6fb99dc88353669a
    [month_in_life]=dbaa7b7dcf0e31f5
    [pmake_build]=8909e9728781acb2
    [migrate_evict]=7926991adca7a0e3
)
for w in cell_month month_in_life pmake_build migrate_evict; do
    output="$(cargo run --release -q --offline --manifest-path perfbench/Cargo.toml --bin benchmark -- \
        --workload "$w" --seconds 1)"
    # The digest field of the first (detailed) JSON line.
    digest="$(head -n 1 <<< "$output" | sed -n 's/.*"digest": "\([0-9a-f]*\)".*/\1/p')"
    if [[ "$digest" != "${pinned_digest[$w]}" ]]; then
        echo "FAIL: benchmark $w digest ${digest:-<missing>} != pinned ${pinned_digest[$w]}" >&2
        exit 1
    fi
done

echo "==> cargo bench -p sprite-bench --bench core_ops"
# Std-only microbenches of the core operations (about a second). The
# gossip-ranking one selects from a warm 10 000-entry load cache and
# asserts the path probes no DetHashMap (take_hash_probes() == 0) and
# grows no scratch (ranker_grows() == 0); a failed assert exits non-zero.
cargo bench -q -p sprite-bench --bench core_ops

echo "==> cargo bench -p sprite-bench --bench engine_throughput"
# The serial engine's calendar against a re-boxing binary heap on 50
# periodic daemons (about a second). It asserts both executed the same
# events, that the calendar boxed one handler per daemon and re-armed it
# for every later tick; its timing ratio is printed, not gated.
cargo bench -q -p sprite-bench --bench engine_throughput

echo "==> scripts/bench_check.sh"
scripts/bench_check.sh

echo "==> CI gate OK"
