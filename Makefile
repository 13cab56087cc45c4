# Convenience targets; scripts/ci.sh is the canonical offline CI gate.

.PHONY: ci ci-quick test bench bench-check experiments fmt clippy

ci:
	scripts/ci.sh

ci-quick:
	scripts/ci.sh --quick

test:
	cargo test --workspace

bench:
	cargo bench -p sprite-bench

bench-check:
	scripts/bench_check.sh

experiments:
	cargo run -p sprite-bench --release --bin experiments

fmt:
	cargo fmt

clippy:
	cargo clippy --workspace --all-targets -- -D warnings
