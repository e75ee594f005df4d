//! One reader for bytes on disk, enforced.
//!
//! Every durable format — the pager meta page, catalog chunks, WAL
//! segments, the checkpoint journal — and every node and record decoder
//! reads its fields through `storage::codec`, whose every read is checked
//! against the bytes left.  This test reads the production part of every
//! workspace crate's sources and fails if any of them decodes an integer
//! by hand (`from_le_bytes`) anywhere but the codec itself, the CRC's
//! inner loop and the slotted page's hot-path header and slot reads.

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

/// The lines of `source`'s production part that call `from_le_bytes`:
/// everything before the first `#[cfg(test)]`, comment lines skipped.
fn hand_decodes(source: &str) -> Vec<usize> {
    source
        .lines()
        .map(str::trim)
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .enumerate()
        .filter(|(_, line)| !line.starts_with("//") && line.contains("from_le_bytes"))
        .map(|(i, _)| i + 1)
        .collect()
}

#[test]
fn only_the_codec_decodes_integers_by_hand() {
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
        if ALLOWED.contains(&relative.as_str()) {
            continue;
        }
        let source = std::fs::read_to_string(&path).unwrap();
        for line in hand_decodes(&source) {
            violations.push(format!("crates/{relative}:{line}"));
        }
    }
    assert!(
        violations.is_empty(),
        "decode through `storage::codec` (`Codec::decode`, `take_header`), \
         not `from_le_bytes`:\n  {}",
        violations.join("\n  ")
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
    assert_eq!(hand_decodes(source), [2]);
}
