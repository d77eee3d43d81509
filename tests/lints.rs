//! Workspace hygiene the compiler cannot see for itself: every library
//! root asks rustc to report dependencies it never uses and `pub` items
//! no other crate can reach, so CI's `clippy -D warnings` fails on either.

use std::path::{Path, PathBuf};

/// The root package's library and every library under `crates/`.
fn library_roots() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots = vec![root.join("src/lib.rs")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let lib = entry.expect("crates/ entry").path().join("src/lib.rs");
        if lib.exists() {
            roots.push(lib);
        }
    }
    assert!(roots.len() > 1, "no library crates under crates/");
    roots
}

fn every_root_carries(lint: &str) {
    for lib in library_roots() {
        let source = std::fs::read_to_string(&lib).expect("library root is readable");
        assert!(
            source.lines().any(|l| l.trim() == lint),
            "{} lacks {lint}",
            lib.display()
        );
    }
}

#[test]
fn every_library_root_warns_on_unused_dependencies() {
    every_root_carries("#![cfg_attr(not(test), warn(unused_crate_dependencies))]");
}

#[test]
fn every_library_root_warns_on_unreachable_pub() {
    every_root_carries("#![warn(unreachable_pub)]");
}
