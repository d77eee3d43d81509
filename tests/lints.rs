//! Workspace hygiene the compiler cannot see for itself: every library
//! root asks rustc to report dependencies it never uses, so CI's
//! `clippy -D warnings` fails on one.

use std::path::Path;

const LINT: &str = "#![cfg_attr(not(test), warn(unused_crate_dependencies))]";

#[test]
fn every_library_root_warns_on_unused_dependencies() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots = vec![root.join("src/lib.rs")];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let lib = entry.expect("crates/ entry").path().join("src/lib.rs");
        if lib.exists() {
            roots.push(lib);
        }
    }
    assert!(roots.len() > 1, "no library crates under crates/");
    for lib in roots {
        let source = std::fs::read_to_string(&lib).expect("library root is readable");
        assert!(
            source.lines().any(|l| l.trim() == LINT),
            "{} lacks {LINT}",
            lib.display()
        );
    }
}
