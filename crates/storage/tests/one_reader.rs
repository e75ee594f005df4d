//! One reader for bytes on disk, enforced.
//!
//! Every durable format — the pager meta page, catalog chunks, WAL
//! segments, the checkpoint journal — and every node and record decoder
//! reads its fields through `storage::codec`, whose every read is checked
//! against the bytes left.  This test reads the production part of every
//! workspace crate's sources and fails if any of them decodes an integer
//! by hand (`from_le_bytes`) anywhere but the codec itself, the CRC's
//! inner loop and the slotted page's hot-path header and slot reads.
//!
//! The same scan holds the one metrics surface: a `delta_since` is written
//! only in `storage::metrics`, and no counter can be reset.

use std::path::{Path, PathBuf};

/// Files allowed to call `from_le_bytes`, relative to `crates/`.
const ALLOWED: [&str; 3] = [
    "storage/src/codec.rs",
    "storage/src/crc.rs",
    "storage/src/page.rs",
];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The lines of `source`'s production part that contain `needle`:
/// everything before the first `#[cfg(test)]`, comment lines skipped.
fn production_hits(source: &str, needle: &str) -> Vec<usize> {
    source
        .lines()
        .map(str::trim)
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .enumerate()
        .filter(|(_, line)| !line.starts_with("//") && line.contains(needle))
        .map(|(i, _)| i + 1)
        .collect()
}

/// `crates/<file>:<line>` of every production line of the workspace's
/// sources that contains `needle`, outside the `allowed` files (relative
/// to `crates/`).
fn violations(needle: &str, allowed: &[&str]) -> Vec<String> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap();
    let mut files = Vec::new();
    for entry in std::fs::read_dir(crates).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "the scan found the workspace's sources");
    let mut violations = Vec::new();
    for path in files {
        let relative = path.strip_prefix(crates).unwrap().to_str().unwrap();
        let relative = relative.replace('\\', "/");
        if allowed.contains(&relative.as_str()) {
            continue;
        }
        let source = std::fs::read_to_string(&path).unwrap();
        for line in production_hits(&source, needle) {
            violations.push(format!("crates/{relative}:{line}"));
        }
    }
    violations
}

#[test]
fn only_the_codec_decodes_integers_by_hand() {
    let violations = violations("from_le_bytes", &ALLOWED);
    assert!(
        violations.is_empty(),
        "decode through `storage::codec` (`Codec::decode`, `take_header`), \
         not `from_le_bytes`:\n  {}",
        violations.join("\n  ")
    );
}

#[test]
fn only_the_metrics_module_writes_a_delta_rule() {
    let mut found = violations("fn delta_since", &["storage/src/metrics.rs"]);
    for name in ["reset_stats", "stats_into"] {
        found.extend(violations(&format!("fn {name}"), &[]));
    }
    assert!(
        found.is_empty(),
        "declare counters through `storage::metrics` (`metric_view!`, \
         `Metrics::delta_since`) and meter a window with a delta, not a \
         reset:\n  {}",
        found.join("\n  ")
    );
}

#[test]
fn the_scanner_skips_comments_and_tests() {
    let source = "\
//! `u32::from_le_bytes` in a doc comment is not a read.
fn f(b: [u8; 4]) -> u32 { u32::from_le_bytes(b) }
#[cfg(test)]
mod tests { fn g(b: [u8; 2]) -> u16 { u16::from_le_bytes(b) } }
";
    assert_eq!(production_hits(source, "from_le_bytes"), [2]);
}
