//! Golden assertion: the default set's stdout, rendered by the writer
//! `experiments` prints through, is byte for byte `experiments_output.txt`.

use sprite_bench::runner;

#[test]
fn suite_stdout_is_byte_identical_to_golden() {
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments_output.txt");
    let golden = std::fs::read_to_string(golden_path).expect("read experiments_output.txt");
    let stdout = runner::render_suite(&runner::run_suite(sprite_bench::experiments::suite(), 2));
    let first_diff = stdout
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (rendered, pinned))| rendered != pinned)
        .map(|(i, lines)| (i + 1, lines));
    assert!(
        stdout == golden,
        "reproduction tables drifted from experiments_output.txt \
         (first differing line, rendered, golden: {first_diff:?}; \
         {} lines rendered, {} pinned);\n\
         if the change is deliberate, regenerate the golden file with\n\
         `cargo run -p sprite-bench --release --bin experiments -- --jobs 1 > experiments_output.txt`",
        stdout.lines().count(),
        golden.lines().count()
    );
}
