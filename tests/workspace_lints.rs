//! Every package in the workspace opts into the root manifest's
//! `[workspace.lints]`. Cargo applies that table only to packages whose own
//! manifest says `[lints] workspace = true`, so a member without it would
//! silently skip `unsafe_code = "forbid"`, `iter_over_hash_type` and
//! `allow_attributes`.

use std::fs;
use std::path::{Path, PathBuf};

/// The trimmed lines of TOML table `[name]` in `manifest`, up to the next
/// table header.
fn table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != header)
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .collect()
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The root manifest and every `crates/*/Cargo.toml` (the workspace's
/// `members` glob).
fn manifests() -> Vec<PathBuf> {
    let mut out = vec![root().join("Cargo.toml")];
    for entry in fs::read_dir(root().join("crates")).expect("read crates/") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.is_file() {
            out.push(manifest);
        }
    }
    out.sort();
    out
}

#[test]
fn every_member_inherits_the_workspace_lints() {
    let manifests = manifests();
    assert!(
        manifests.len() > 1,
        "found no member manifests under crates/"
    );
    for manifest in manifests {
        let text = fs::read_to_string(&manifest).expect("read manifest");
        assert!(
            table(&text, "lints").contains(&"workspace = true"),
            "{} lacks `[lints] workspace = true`",
            manifest.display()
        );
    }
}

#[test]
fn the_workspace_lints_forbid_unsafe_code() {
    let text = fs::read_to_string(root().join("Cargo.toml")).expect("read root manifest");
    assert!(
        table(&text, "workspace.lints.rust").contains(&r#"unsafe_code = "forbid""#),
        "the root manifest's [workspace.lints.rust] must forbid unsafe_code"
    );
}
