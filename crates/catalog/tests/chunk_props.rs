//! Property tests for the chunked catalog codec (SPGC v3).
//!
//! Mirrors `wal/tests/record_props.rs`: a deterministic generator produces
//! random chunks of every [`CatalogChunk`] variant and the tests assert the
//! invariants the incremental checkpointer and crash recovery lean on:
//!
//! * encode → decode is the identity, and re-encoding the decoded chunk
//!   reproduces the original bytes bit-exactly (canonical encoding),
//! * every strict prefix of an encoded chunk is rejected (a torn segment
//!   write can never decode as a shorter valid chunk),
//! * trailing garbage is rejected (full-consumption decoding),
//! * foreign version bytes and unknown chunk tags are rejected — a v2
//!   catalog or a page from another subsystem fails open with `Corrupt`
//!   instead of being misread.

use spgist_catalog::durable::{
    decode_chunk, encode_chunk, CatalogChunk, PersistedIndex, TableMetaChunk, CATALOG_VERSION,
};
use spgist_core::{NodeShrink, PathShrink, SpGistConfig};
use spgist_datagen::rng::DetRng;
use spgist_indexes::Rect;
use spgist_storage::RecordId;

fn random_name(rng: &mut DetRng) -> String {
    match rng.gen_range(0u32..4) {
        0 => String::new(),
        1 => "таблица-δ".to_string(),
        _ => {
            let len = rng.gen_range(1u32..24) as usize;
            (0..len)
                .map(|_| (b'a' + rng.gen_range(0u32..26) as u8) as char)
                .collect()
        }
    }
}

fn random_config(rng: &mut DetRng) -> SpGistConfig {
    SpGistConfig {
        partitions: rng.gen_range(2u32..64),
        bucket_size: rng.gen_range(1u32..128) as usize,
        resolution: rng.gen_range(1u32..512),
        path_shrink: match rng.gen_range(0u32..3) {
            0 => PathShrink::NeverShrink,
            1 => PathShrink::LeafShrink,
            _ => PathShrink::TreeShrink,
        },
        node_shrink: if rng.gen_range(0u32..2) == 0 {
            NodeShrink::KeepEmpty
        } else {
            NodeShrink::OmitEmpty
        },
        split_once: rng.gen_range(0u32..2) == 0,
    }
}

fn random_index(rng: &mut DetRng) -> PersistedIndex {
    let pages = (0..rng.gen_range(0u32..8))
        .map(|_| rng.next_u64() as u32)
        .collect();
    PersistedIndex {
        name: random_name(rng),
        kind: rng.gen_range(0u32..5) as u8,
        config: random_config(rng),
        world: Rect::new(-1.5, -2.5, 100.25, 200.125),
        meta_page: rng.next_u64() as u32,
        pages,
    }
}

fn random_rows(rng: &mut DetRng) -> Vec<Option<RecordId>> {
    let len = rng.gen_range(0u32..64) as usize;
    (0..len)
        .map(|_| {
            if rng.gen_range(0u32..5) == 0 {
                None
            } else {
                Some(RecordId::new(
                    rng.gen_range(0u32..1 << 20),
                    rng.gen_range(0u32..256) as u16,
                ))
            }
        })
        .collect()
}

/// One random chunk; `variant` cycles so every test covers all four kinds.
fn random_chunk(rng: &mut DetRng, variant: u64) -> CatalogChunk {
    match variant % 4 {
        0 => CatalogChunk::Root {
            checkpoint_lsn: rng.next_u64(),
            tables: (0..rng.gen_range(0u32..6))
                .map(|_| (random_name(rng), rng.next_u64() as u32))
                .collect(),
        },
        1 => CatalogChunk::TableMeta(TableMetaChunk {
            name: random_name(rng),
            key_type: rng.gen_range(0u32..3) as u8,
            heap_records: rng.next_u64(),
            live_rows: rng.next_u64(),
            distinct: rng.next_u64(),
            rows_len: rng.next_u64(),
            row_chunks: (0..rng.gen_range(0u32..10))
                .map(|_| rng.next_u64() as u32)
                .collect(),
            heap_len: rng.next_u64(),
            heap_chunks: (0..rng.gen_range(0u32..10))
                .map(|_| rng.next_u64() as u32)
                .collect(),
            indexes: (0..rng.gen_range(0u32..4))
                .map(|_| random_index(rng))
                .collect(),
        }),
        2 => CatalogChunk::Rows(random_rows(rng)),
        _ => CatalogChunk::Heap(
            (0..rng.gen_range(0u32..48))
                .map(|_| rng.next_u64() as u32)
                .collect(),
        ),
    }
}

#[test]
fn every_chunk_variant_round_trips_bit_exactly() {
    for seed in [1u64, 0xDEAD_BEEF, 0x5350_4743] {
        let mut rng = DetRng::seed_from_u64(seed);
        for i in 0..500u64 {
            let chunk = random_chunk(&mut rng, i);
            let bytes = encode_chunk(&chunk);
            let decoded = decode_chunk(&bytes).expect("encoded chunk must decode");
            assert_eq!(
                decoded, chunk,
                "round-trip mismatch (seed {seed}, iter {i})"
            );
            let reencoded = encode_chunk(&decoded);
            assert_eq!(
                reencoded, bytes,
                "re-encoding is not canonical (seed {seed}, iter {i})"
            );
        }
    }
}

#[test]
fn every_strict_prefix_of_every_chunk_is_rejected() {
    let mut rng = DetRng::seed_from_u64(42);
    for i in 0..120u64 {
        let chunk = random_chunk(&mut rng, i);
        let bytes = encode_chunk(&chunk);
        for cut in 0..bytes.len() {
            assert!(
                decode_chunk(&bytes[..cut]).is_err(),
                "prefix of length {cut}/{} decoded (iter {i})",
                bytes.len()
            );
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut rng = DetRng::seed_from_u64(7);
    for i in 0..100u64 {
        let chunk = random_chunk(&mut rng, i);
        let mut bytes = encode_chunk(&chunk);
        bytes.push(rng.gen_range(0u32..256) as u8);
        assert!(
            decode_chunk(&bytes).is_err(),
            "chunk with trailing byte decoded (iter {i})"
        );
    }
}

#[test]
fn foreign_versions_are_rejected() {
    let mut rng = DetRng::seed_from_u64(99);
    for i in 0..4u64 {
        let bytes = encode_chunk(&random_chunk(&mut rng, i));
        for version in 0..=u8::MAX {
            if version == CATALOG_VERSION {
                continue;
            }
            let mut tampered = bytes.clone();
            tampered[4] = version;
            let err = decode_chunk(&tampered).expect_err("foreign version decoded");
            if version == 2 {
                // The v2 → v3 break is a hard no-migration boundary; the
                // error must say so.
                assert!(
                    err.to_string().contains("unsupported catalog version 2"),
                    "v2 error unhelpful: {err}"
                );
            }
        }
    }
}

#[test]
fn unknown_chunk_tags_are_rejected() {
    let mut rng = DetRng::seed_from_u64(1234);
    for i in 0..4u64 {
        let bytes = encode_chunk(&random_chunk(&mut rng, i));
        for tag in (0u8..=u8::MAX).filter(|t| !(1..=4).contains(t)) {
            let mut tampered = bytes.clone();
            tampered[5] = tag;
            assert!(
                decode_chunk(&tampered).is_err(),
                "unknown tag {tag} decoded (variant {i})"
            );
        }
    }
}
