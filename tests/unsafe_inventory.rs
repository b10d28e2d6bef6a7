//! The workspace's `unsafe` inventory, pinned.
//!
//! Two modules may hold `unsafe` code: `poll.rs` in `minsync-transport` (the
//! `poll(2)` call std does not expose) and `hash.rs` in `minsync-auth` (the
//! SHA-NI kernel, reached only after runtime feature detection). Each says
//! so with an `allow(unsafe_code)` attribute under a crate-level
//! `deny(unsafe_code)`; every other crate root forbids `unsafe` outright. A
//! third island, or a crate root that loosens its `forbid`, fails here until
//! this list is edited — in review, on purpose.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The files allowed to hold `unsafe` code, relative to the workspace root.
const ISLANDS: [&str; 2] = ["crates/auth/src/hash.rs", "crates/transport/src/poll.rs"];

/// Crate roots that `deny` rather than `forbid`, so that their island's
/// `allow` takes effect.
const DENY_ROOTS: [&str; 2] = ["crates/auth/src/lib.rs", "crates/transport/src/lib.rs"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The workspace's own source directories: `src/` and each `crates/*/src/`.
fn source_dirs() -> Vec<PathBuf> {
    let mut dirs = vec![root().join("src")];
    for entry in fs::read_dir(root().join("crates")).expect("crates/ exists") {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            dirs.push(src);
        }
    }
    dirs
}

fn relative(path: &Path) -> String {
    path.strip_prefix(root())
        .expect("under the workspace root")
        .to_string_lossy()
        .replace('\\', "/")
}

/// The lint attributes naming `unsafe_code` in `source`, whitespace removed
/// (comments and docs that mention the lint are not attributes).
fn unsafe_code_attributes(source: &str) -> Vec<String> {
    source
        .lines()
        .map(|line| line.split_whitespace().collect::<String>())
        .filter(|line| line.starts_with('#') && line.contains("unsafe_code"))
        .collect()
}

/// Is `path` a crate root: a `lib.rs`/`main.rs` directly under `src/`, or
/// a binary in `src/bin/`?
fn is_crate_root(path: &Path) -> bool {
    let parent = path.parent().and_then(Path::file_name);
    let name = path.file_name().and_then(|n| n.to_str());
    (parent.is_some_and(|p| p == "src") && matches!(name, Some("lib.rs" | "main.rs")))
        || parent.is_some_and(|p| p == "bin")
}

#[test]
fn unsafe_code_is_allowed_in_exactly_the_two_islands() {
    let mut files = Vec::new();
    for dir in source_dirs() {
        rust_files(&dir, &mut files);
    }
    let allowing: BTreeSet<String> = files
        .iter()
        .filter(|path| {
            let source = fs::read_to_string(path).expect("readable source");
            unsafe_code_attributes(&source)
                .iter()
                .any(|attr| !attr.contains("forbid(") && !attr.contains("deny("))
        })
        .map(|path| relative(path))
        .collect();
    let expected: BTreeSet<String> = ISLANDS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        allowing, expected,
        "files loosening the unsafe_code lint; a new island needs a reviewed edit to ISLANDS"
    );
}

#[test]
fn every_other_crate_root_forbids_unsafe_code() {
    let mut roots = Vec::new();
    for dir in source_dirs() {
        rust_files(&dir, &mut roots);
    }
    roots.retain(|path| is_crate_root(path));
    assert!(roots.len() >= 15, "found only {} crate roots", roots.len());
    for path in roots {
        let name = relative(&path);
        let attrs = unsafe_code_attributes(&fs::read_to_string(&path).expect("readable source"));
        let wanted = if DENY_ROOTS.contains(&name.as_str()) {
            "#![deny(unsafe_code)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        assert!(
            attrs.iter().any(|attr| attr == wanted),
            "{name} must say {wanted}, found {attrs:?}"
        );
    }
}
