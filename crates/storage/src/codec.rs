//! A small length-prefixed binary codec: the workspace's one bounded
//! reader.
//!
//! All access methods in the workspace serialize their node and record
//! payloads with this codec before storing them in slotted pages.  It is a
//! deliberately simple format — enough to make the trees genuinely
//! disk-resident without pulling in a serialization framework: numbers are
//! fixed-width little-endian, and every length (of a string, of a vector)
//! is an unsigned LEB128 varint ([`put_varint`] / [`take_varint`]), so a
//! short string pays one byte for its length, not four.
//!
//! Every durable format reads through it too — the pager meta page
//! (`SPGP`), catalog chunks (`SPGC`), WAL segments (`SPGW`) and the
//! checkpoint journal (`SPGJ`) — and each checks its magic and version with
//! [`take_header`].  Every read is checked against the bytes left, so a
//! damaged length or count is a [`StorageError::Decode`], never a panic or
//! an allocation it claims.

use crate::error::{StorageError, StorageResult};

/// Types that can be written to and read from a byte buffer.
pub trait Codec: Sized {
    /// Appends the encoded representation to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes a value from the front of `buf`, advancing it past the
    /// consumed bytes.
    fn decode(buf: &mut &[u8]) -> StorageResult<Self>;

    /// Decodes a value from the front of `buf` into `self`, advancing `buf`
    /// and checking exactly as [`Codec::decode`] does; on an error `self` is
    /// left as it was.  A reader decoding many values of one type keeps one
    /// and decodes into it: types owning an allocation override this to
    /// reuse it.
    fn decode_into(&mut self, buf: &mut &[u8]) -> StorageResult<()> {
        Self::decode(buf).map(|value| *self = value)
    }

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes from a complete buffer, requiring all bytes to be consumed.
    fn from_bytes(mut buf: &[u8]) -> StorageResult<Self> {
        let value = Self::decode(&mut buf)?;
        if !buf.is_empty() {
            return Err(StorageError::Decode(format!(
                "{} trailing bytes after decode",
                buf.len()
            )));
        }
        Ok(value)
    }
}

/// The next `n` bytes of `buf`, borrowed, advancing it past them.
#[inline]
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> StorageResult<&'a [u8]> {
    if buf.len() < n {
        return Err(StorageError::Decode(format!(
            "need {n} bytes, only {} remain",
            buf.len()
        )));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Reads a durable format's header — a `u32` magic, then its version —
/// from the front of `buf`, advancing it past them.  `Ok(false)` when `buf`
/// holds no header of this format (another magic, or too few bytes): each
/// caller decides what a foreign file means.  A version other than
/// `version` is [`StorageError::Corrupt`] naming `format`, the version
/// found and the version this build reads: formats are never migrated.
pub fn take_header<V>(buf: &mut &[u8], format: &str, magic: u32, version: V) -> StorageResult<bool>
where
    V: Codec + PartialEq + std::fmt::Display,
{
    let mut rest = *buf;
    let Ok((found_magic, found)) = <(u32, V)>::decode(&mut rest) else {
        return Ok(false);
    };
    if found_magic != magic {
        return Ok(false);
    }
    if found != version {
        return Err(StorageError::Corrupt(format!(
            "unsupported {format} version {found} (this build reads version {version}; \
             no migration)"
        )));
    }
    *buf = rest;
    Ok(true)
}

/// Appends `value` as an unsigned LEB128 varint: seven bits a byte, least
/// significant first, the high bit set on every byte but the last.  Values
/// below 128 take one byte; `u64::MAX` takes ten.
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Reads an unsigned LEB128 varint from the front of `buf`, advancing it.
/// Only the shortest encoding of a `u64` is accepted: a truncated one, an
/// overlong one (a last byte of zero after the first, `[0x80, 0x00]`) and
/// one past ten bytes or 64 bits are [`StorageError::Decode`].
#[inline]
pub fn take_varint(buf: &mut &[u8]) -> StorageResult<u64> {
    // One byte: every length, count and row id below 128.
    if let [byte @ 0..=0x7F, rest @ ..] = *buf {
        *buf = rest;
        return Ok(u64::from(*byte));
    }
    let mut value = 0;
    for (i, &byte) in buf.iter().enumerate().take(10) {
        value |= u64::from(byte & 0x7F) << (7 * i);
        if byte < 0x80 {
            // The first byte had the high bit set, so a zero here is
            // overlong; the tenth byte carries bit 63 alone.
            if byte == 0 || (i == 9 && byte > 1) {
                break;
            }
            *buf = &buf[i + 1..];
            return Ok(value);
        }
    }
    Err(StorageError::Decode("bad varint".into()))
}

/// Reads a varint length or count, which must fit a `u32`.
#[inline]
pub fn take_len(buf: &mut &[u8]) -> StorageResult<usize> {
    let len = take_varint(buf)?;
    let err = || StorageError::Decode(format!("length {len} > u32::MAX"));
    u32::try_from(len)
        .map(|len| len as usize)
        .map_err(|_| err())
}

/// A byte string behind its varint length, borrowed from the front of
/// `buf`.
#[inline]
pub fn take_bytes<'a>(buf: &mut &'a [u8]) -> StorageResult<&'a [u8]> {
    let len = take_len(buf)?;
    take(buf, len)
}

/// Fixed-width little-endian numbers.
macro_rules! impl_codec_for_int {
    ($($t:ty),*) => {
        $(
            impl Codec for $t {
                fn encode(&self, out: &mut Vec<u8>) {
                    out.extend_from_slice(&self.to_le_bytes());
                }
                #[inline]
                fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
                    let bytes = take(buf, std::mem::size_of::<$t>())?;
                    Ok(<$t>::from_le_bytes(bytes.try_into().expect("length checked")))
                }
            }
        )*
    };
}

impl_codec_for_int!(u8, u16, u32, u64, i32, i64, f64);

impl Codec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        Ok(take(buf, 1)?[0] != 0)
    }
}

impl Codec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        take_str(buf).map(str::to_owned)
    }
    #[inline]
    fn decode_into(&mut self, buf: &mut &[u8]) -> StorageResult<()> {
        let text = take_str(buf)?;
        self.clear();
        self.push_str(text);
        Ok(())
    }
}

/// A length-prefixed, UTF-8-validated string borrowed from the front of
/// `buf`.
#[inline]
fn take_str<'a>(buf: &mut &'a [u8]) -> StorageResult<&'a str> {
    std::str::from_utf8(take_bytes(buf)?)
        .map_err(|e| StorageError::Decode(format!("invalid utf-8 string: {e}")))
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        let mut value = None;
        value.decode_into(buf).map(|()| value)
    }
    fn decode_into(&mut self, buf: &mut &[u8]) -> StorageResult<()> {
        match (take(buf, 1)?[0], self.as_mut()) {
            (0, _) => *self = None,
            (1, Some(value)) => value.decode_into(buf)?,
            (1, None) => *self = Some(T::decode(buf)?),
            (tag, _) => return Err(StorageError::Decode(format!("invalid Option tag {tag}"))),
        }
        Ok(())
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        let len = take_len(buf)?;
        // A stored length is a claim, not a fact: reserve no more memory
        // than bytes remain, so a lying length runs dry with a `Decode`
        // error before it costs an allocation.
        let mut items = Vec::with_capacity(len.min(buf.len() / std::mem::size_of::<T>().max(1)));
        for _ in 0..len {
            items.push(T::decode(buf)?);
        }
        Ok(items)
    }
}

impl Codec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> StorageResult<Self> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        let decoded = T::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, value);
    }

    #[test]
    fn integer_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(65_535u16);
        roundtrip(123_456_789u32);
        roundtrip(u64::MAX);
        roundtrip(-42i32);
        roundtrip(i64::MIN);
    }

    #[test]
    fn float_bool_string_roundtrips() {
        roundtrip(3.25f64);
        roundtrip(-0.0f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(String::from("space-partitioning"));
        roundtrip(String::new());
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(Some(17u32));
        roundtrip(Option::<u32>::None);
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<String>::new());
        roundtrip((String::from("k"), 9u64));
        roundtrip(vec![(String::from("a"), 1u64), (String::from("b"), 2u64)]);
        roundtrip(vec![0u8, 1, 2, 255]);
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = 123_456u32.to_bytes();
        assert!(u64::from_bytes(&bytes).is_err());
        // One length byte and five bytes of text: every cut is an error.
        let string_bytes = String::from("hello").to_bytes();
        assert_eq!(string_bytes.len(), 6);
        for cut in 0..string_bytes.len() {
            assert!(matches!(
                String::from_bytes(&string_bytes[..cut]),
                Err(StorageError::Decode(_))
            ));
        }
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = 1u32.to_bytes();
        bytes.push(0);
        assert!(u32::from_bytes(&bytes).is_err());
    }

    #[test]
    fn invalid_option_tag_is_an_error() {
        assert!(Option::<u32>::from_bytes(&[7]).is_err());
    }

    #[test]
    fn decode_into_matches_decode_and_reuses_the_slot() {
        let mut slot = String::with_capacity(64);
        let before = slot.as_ptr();
        let mut buf = String::from("trie").to_bytes();
        buf.extend(String::from("suffix").to_bytes());
        let mut cursor = buf.as_slice();
        slot.decode_into(&mut cursor).unwrap();
        assert_eq!(slot, "trie");
        slot.decode_into(&mut cursor).unwrap();
        assert_eq!(slot, "suffix");
        assert!(cursor.is_empty());
        assert_eq!(slot.as_ptr(), before, "the allocation is reused");

        let mut option = Some(String::from("kept"));
        option
            .decode_into(&mut &Some(String::from("x")).to_bytes()[..])
            .unwrap();
        assert_eq!(option.as_deref(), Some("x"));
        option.decode_into(&mut &[0u8][..]).unwrap();
        assert_eq!(option, None);
        option
            .decode_into(&mut &Some(String::from("y")).to_bytes()[..])
            .unwrap();
        assert_eq!(option.as_deref(), Some("y"));

        // A failed decode leaves the slot untouched and reports `Decode`.
        let mut bad = vec![2];
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            slot.decode_into(&mut bad.as_slice()),
            Err(StorageError::Decode(_))
        ));
        assert_eq!(slot, "suffix");
        assert!(option.decode_into(&mut &[7u8][..]).is_err());
        assert_eq!(option.as_deref(), Some("y"));
    }

    #[test]
    fn lying_vec_length_is_a_decode_error_bounded_by_the_bytes_left() {
        // Four billion 32-byte items claimed, one present: the reservation
        // follows the bytes left, and the loop runs dry with `Decode`.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, u64::from(u32::MAX));
        (String::from("a"), 1u64).encode(&mut bytes);
        assert!(matches!(
            Vec::<(String, u64)>::from_bytes(&bytes),
            Err(StorageError::Decode(_))
        ));
        assert!(matches!(
            Vec::<u64>::from_bytes(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
            Err(StorageError::Decode(_))
        ));
    }

    #[test]
    fn lengths_past_u32_are_decode_errors_before_any_allocation() {
        // A length of 2^32 (and of u64::MAX) is refused as a length, not
        // reserved and not looped over: the bytes behind it are never read.
        for claim in [1u64 << 32, u64::MAX] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, claim);
            bytes.extend_from_slice(&[b'a'; 16]);
            for result in [
                String::from_bytes(&bytes).map(drop),
                Vec::<u8>::from_bytes(&bytes).map(drop),
                Vec::<String>::from_bytes(&bytes).map(drop),
                take_len(&mut bytes.as_slice()).map(drop),
            ] {
                match result {
                    Err(StorageError::Decode(msg)) => assert!(msg.contains("u32::MAX"), "{msg}"),
                    other => panic!("length {claim}: {other:?}"),
                }
            }
        }
    }

    /// Every boundary of the encoding, and a spread of values between.
    fn varint_samples() -> Vec<u64> {
        let mut samples = vec![0, 1, 0x7F, 0x80, 0xFF, 0x100, u64::MAX - 1, u64::MAX];
        for bits in (7..64).step_by(7) {
            samples.extend([(1u64 << bits) - 1, 1u64 << bits, (1u64 << bits) + 1]);
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Every width, not just the ten-byte values a uniform draw gives.
            samples.push(state >> (state % 64));
        }
        samples
    }

    #[test]
    fn every_u64_roundtrips_as_a_varint_of_its_width() {
        for value in varint_samples() {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, value);
            let width = (64 - value.leading_zeros()).max(1).div_ceil(7) as usize;
            assert_eq!(bytes.len(), width, "{value:#x}");
            let mut buf = bytes.as_slice();
            assert_eq!(take_varint(&mut buf).unwrap(), value);
            assert!(buf.is_empty());
            // Truncated anywhere, it is an error and consumes nothing.
            for cut in 0..bytes.len() {
                let mut short = &bytes[..cut];
                assert!(matches!(
                    take_varint(&mut short),
                    Err(StorageError::Decode(_))
                ));
                assert_eq!(short.len(), cut);
            }
        }
    }

    #[test]
    fn overlong_and_oversized_varints_are_decode_errors() {
        let hostile: [&[u8]; 6] = [
            // 0 and 127 spelled in two bytes.
            &[0x80, 0x00],
            &[0xFF, 0x00],
            // 2^63 spelled in eleven bytes.
            &[
                0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x81, 0x00,
            ],
            // Ten bytes whose last carries more than bit 63.
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
            // Ten bytes ending in zero: overlong.
            &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00],
            // Eleven continuation bytes.
            &[0xFF; 11],
        ];
        for bytes in hostile {
            let mut buf = bytes;
            assert!(
                matches!(take_varint(&mut buf), Err(StorageError::Decode(_))),
                "{bytes:02x?}"
            );
        }
        // The largest ten-byte encoding is u64::MAX itself.
        let max = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01];
        assert_eq!(take_varint(&mut &max[..]).unwrap(), u64::MAX);
    }

    #[test]
    fn a_header_is_this_format_another_or_an_unsupported_version() {
        const MAGIC: u32 = 0x5350_4758;
        let header = |magic: u32, version: u8| [magic.to_bytes(), version.to_bytes()].concat();
        let read = |bytes: &[u8]| {
            let mut buf = bytes;
            take_header(&mut buf, "test format", MAGIC, 3u8).map(|ok| (ok, buf.len()))
        };
        let mut good = header(MAGIC, 3);
        good.push(0xAA);
        assert_eq!(read(&good).unwrap(), (true, 1), "advanced past the header");
        // Another magic, or too short to hold one: not this format, and
        // nothing consumed.
        assert_eq!(read(&header(MAGIC + 1, 3)).unwrap(), (false, 5));
        assert_eq!(read(&good[..4]).unwrap(), (false, 4));
        match read(&header(MAGIC, 2)) {
            Err(StorageError::Corrupt(msg)) => assert_eq!(
                msg,
                "unsupported test format version 2 (this build reads version 3; no migration)"
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let bytes = [2, 0xff, 0xfe];
        assert!(matches!(
            String::from_bytes(&bytes),
            Err(StorageError::Decode(_))
        ));
    }
}
