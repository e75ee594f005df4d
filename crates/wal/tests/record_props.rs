//! Property tests for the WAL record codec (ISSUE 9 satellite).
//!
//! Two properties, over DetRng-seeded random payloads covering **every**
//! [`WalRecord`] variant:
//!
//! * **round-trip**: `decode(encode(r)) == r`, bit-exact, for arbitrary
//!   table names (including empty and non-ASCII), datum blobs (including
//!   empty), row ids, and transaction ids up to `u64::MAX`;
//! * **reject-on-truncation**: every *strict* prefix of an encoding fails
//!   to decode — a record can never be mistaken for a shorter one, which
//!   is what lets replay treat a torn tail as "not durable" instead of
//!   silently resurrecting half a statement.
//!
//! (Trailing garbage is also rejected: `from_bytes` demands full
//! consumption.  The log's framing adds a CRC on top; these properties
//! hold even without it.)
//!
//! And one property of the log around them: a group-committed batch of
//! many frames of every variant, written by the flusher in one vectored
//! write, is on disk as exactly those frames and one seal, and reads back
//! whole.

use spgist_datagen::rng::DetRng;
use spgist_storage::Codec;
use spgist_wal::{Frame, TxnId, Wal, WalConfig, WalRecord};

fn random_name(rng: &mut DetRng) -> String {
    match rng.gen_range(0u32..8) {
        0 => String::new(),
        1 => "naïve-ünïcode-表".to_string(),
        _ => {
            let len = rng.gen_range(1usize..24);
            (0..len)
                .map(|_| char::from(b'a' + rng.gen_range(0u32..26) as u8))
                .collect()
        }
    }
}

fn random_blob(rng: &mut DetRng) -> Vec<u8> {
    let len = rng.gen_range(0usize..64);
    (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect()
}

fn random_txn(rng: &mut DetRng) -> TxnId {
    match rng.gen_range(0u32..4) {
        0 => 0, // AUTOCOMMIT
        1 => u64::MAX,
        _ => rng.next_u64(),
    }
}

/// One random record of the variant picked by `variant` — the caller
/// cycles `variant` so every shape is hit regardless of seed.
fn random_record(rng: &mut DetRng, variant: u32) -> WalRecord {
    match variant % 10 {
        0 => WalRecord::Insert {
            table: random_name(rng),
            row: rng.next_u64(),
            datum: random_blob(rng),
            txn: random_txn(rng),
        },
        1 => WalRecord::InsertMany {
            table: random_name(rng),
            first_row: rng.next_u64(),
            datums: (0..rng.gen_range(0usize..6))
                .map(|_| random_blob(rng))
                .collect(),
            txn: random_txn(rng),
        },
        2 => WalRecord::Delete {
            table: random_name(rng),
            row: rng.next_u64(),
            txn: random_txn(rng),
        },
        3 => WalRecord::CreateTable {
            table: random_name(rng),
            key_type: rng.gen_range(0u32..256) as u8,
        },
        4 => WalRecord::DropTable {
            table: random_name(rng),
        },
        5 => WalRecord::CreateIndex {
            table: random_name(rng),
            index: random_name(rng),
            spec: random_blob(rng),
        },
        6 => WalRecord::DropIndex {
            table: random_name(rng),
            index: random_name(rng),
        },
        7 => WalRecord::BeginTxn {
            txn: random_txn(rng),
        },
        8 => WalRecord::CommitTxn {
            txn: random_txn(rng),
        },
        _ => WalRecord::AbortTxn {
            txn: random_txn(rng),
        },
    }
}

#[test]
fn every_variant_round_trips_bit_exactly() {
    for seed in [0xC0DEC_u64, 0xF00D_FACE, 42] {
        let mut rng = DetRng::seed_from_u64(seed);
        for i in 0..500 {
            let record = random_record(&mut rng, i);
            let bytes = record.to_bytes();
            let back = WalRecord::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("seed {seed} #{i}: decode failed: {e}\n{record:?}"));
            assert_eq!(back, record, "seed {seed} #{i}: round-trip mismatch");
            assert_eq!(
                back.to_bytes(),
                bytes,
                "seed {seed} #{i}: re-encoding is not canonical"
            );
        }
    }
}

#[test]
fn every_strict_prefix_of_every_variant_is_rejected() {
    let mut rng = DetRng::seed_from_u64(0x77C4_7E57);
    for i in 0..200 {
        let record = random_record(&mut rng, i);
        let bytes = record.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                WalRecord::from_bytes(&bytes[..cut]).is_err(),
                "#{i}: prefix of {cut}/{} bytes decoded as a record\n{record:?}",
                bytes.len()
            );
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut rng = DetRng::seed_from_u64(0xBAD_7A11);
    for i in 0..100 {
        let record = random_record(&mut rng, i);
        let mut bytes = record.to_bytes();
        bytes.push(rng.gen_range(0u32..256) as u8);
        assert!(
            WalRecord::from_bytes(&bytes).is_err(),
            "#{i}: a record with trailing bytes decoded cleanly\n{record:?}"
        );
    }
}

#[test]
fn unknown_tags_are_rejected() {
    for tag in 10u8..=255 {
        assert!(
            WalRecord::from_bytes(&[tag]).is_err(),
            "tag {tag} decoded as a record"
        );
    }
}

#[test]
fn a_multi_frame_batch_reads_back_whole() {
    let dir = std::env::temp_dir().join(format!("spgist-wal-batch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let prefix = dir.join("db.wal");
    let mut rng = DetRng::seed_from_u64(0x0BA7_C4ED);
    let mut records: Vec<WalRecord> = (0..40).map(|i| random_record(&mut rng, i)).collect();
    records.push(WalRecord::InsertMany {
        table: "words".into(),
        first_row: 7,
        datums: (0..3_000).map(|_| random_blob(&mut rng)).collect(),
        txn: 0,
    });
    {
        let wal = Wal::create(&prefix, WalConfig::default()).unwrap();
        // Nobody waits until every record is queued: one batch, one sync.
        let last = records.iter().map(|r| wal.submit(r).unwrap()).last();
        wal.wait_durable(last.unwrap()).unwrap();
        assert_eq!(wal.sync_count(), 1);
    }
    // Header, the frames where the writers built them, then the seal.
    let segment = std::fs::read(dir.join("db.wal.000001")).unwrap();
    let frames: Vec<u8> = records
        .iter()
        .flat_map(|r| Frame::of(r).bytes().to_vec())
        .collect();
    assert_eq!(segment.len(), 16 + frames.len() + 20);
    assert!(segment[16..16 + frames.len()] == frames[..]);

    let (wal, back) = Wal::open(&prefix, WalConfig::default(), 0).unwrap();
    drop(wal);
    let expected: Vec<(u64, WalRecord)> = (0..).zip(records).collect();
    assert!(back == expected, "the batch read back differs");
    std::fs::remove_dir_all(&dir).unwrap();
}
