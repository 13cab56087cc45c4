//! Golden assertion: the suite's stdout, rendered by the writer
//! `experiments` prints through, is byte for byte the start of
//! `experiments_output.txt`. The blocks after it (M1, F1, the fault table,
//! the audit and F2) are compared by `scripts/bench_check.sh`.

use sprite_bench::runner;

#[test]
fn suite_stdout_is_byte_identical_to_golden() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments_output.txt");
    let golden = std::fs::read_to_string(golden_path).expect("read experiments_output.txt");
    let suite = runner::render_suite(&runner::run_suite(sprite_bench::experiments::suite(), 2));
    let first_diff = suite
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (rendered, pinned))| rendered != pinned)
        .map(|(i, lines)| (i + 1, lines));
    assert!(
        golden.starts_with(&suite),
        "reproduction tables drifted from experiments_output.txt \
         (first differing line, rendered, golden: {first_diff:?});\n\
         if the change is deliberate, regenerate the golden file with\n\
         `cargo run -p sprite-bench --release --bin experiments -- \
         --jobs 1 --macro --faults 42:0.1 --audit --f02 > experiments_output.txt`"
    );
}
