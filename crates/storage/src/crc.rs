//! CRC-32 (IEEE 802.3, the polynomial used by zlib, PNG and PostgreSQL's
//! pre-9.5 WAL) for on-disk integrity checks.
//!
//! The build environment is offline, so the checksum is implemented here
//! rather than pulled from crates.io: a table-driven reflected CRC with
//! polynomial `0xEDB88320`, eight bytes per step (slicing-by-8).  Speed
//! matters more than the callers suggest: a checkpoint checksums its whole
//! pre-image journal body, 20 MB on the `ingest` benchmark, and at one byte
//! per step that was 52 ms of a 128 ms checkpoint — the `fsync` that follows
//! is *not* what dominates on a machine whose page cache absorbs it.

/// Reflected CRC-32 lookup tables for polynomial `0xEDB88320`, built at
/// compile time: `TABLES[0]` is the classic byte-at-a-time table and
/// `TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (initial value all-ones, final xor all-ones — the
/// standard "CRC-32" everyone means by the name).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(u32::MAX, bytes)
}

/// Runs the CRC-32 register `crc` (before the final xor) over `bytes`: a
/// checksum over data written piece by piece starts at `u32::MAX`, and its
/// value is the final register inverted.
pub fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let low = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = TABLES[7][(low & 0xFF) as usize]
            ^ TABLES[6][((low >> 8) & 0xFF) as usize]
            ^ TABLES[5][((low >> 16) & 0xFF) as usize]
            ^ TABLES[4][(low >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `crc32` replaced, kept as the reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &byte in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length() {
        // Every length 0..=4099 (all eight alignments of the tail, several
        // pages of body) at a moving offset into one seeded xorshift stream,
        // so the eight-byte steps start at every alignment too.
        let mut state = 0xC2C3_2016_u64;
        let data: Vec<u8> = (0..2 * 4100)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        for len in 0..=4099 {
            let bytes = &data[len % 4001..][..len];
            assert_eq!(crc32(bytes), crc32_bytewise(bytes), "length {len}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"wal record payload".to_vec();
        let crc = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), crc, "flip at byte {byte} bit {bit}");
            }
        }
    }
}
