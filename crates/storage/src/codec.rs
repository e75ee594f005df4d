//! A small length-prefixed binary codec.
//!
//! All access methods in the workspace serialize their node and record
//! payloads with this codec before storing them in slotted pages.  It is a
//! deliberately simple little-endian, length-prefixed format — enough to make
//! the trees genuinely disk-resident without pulling in a serialization
//! framework.

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

#[inline]
fn take<'a>(buf: &mut &'a [u8], n: usize) -> StorageResult<&'a [u8]> {
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
        (self.len() as u32).encode(out);
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
    let len = u32::decode(buf)? as usize;
    std::str::from_utf8(take(buf, len)?)
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
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(buf: &mut &[u8]) -> StorageResult<Self> {
        let len = u32::decode(buf)? as usize;
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
        let mut string_bytes = String::from("hello").to_bytes();
        string_bytes.truncate(6);
        assert!(String::from_bytes(&string_bytes).is_err());
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
        let mut bad = Vec::new();
        2u32.encode(&mut bad);
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
        let mut bytes = vec![0xFF; 4];
        (String::from("a"), 1u64).encode(&mut bytes);
        assert!(matches!(
            Vec::<(String, u64)>::from_bytes(&bytes),
            Err(StorageError::Decode(_))
        ));
        assert!(matches!(
            Vec::<u64>::from_bytes(&[0xFF, 0xFF, 0xFF, 0xFF]),
            Err(StorageError::Decode(_))
        ));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut bytes = Vec::new();
        2u32.encode(&mut bytes);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(String::from_bytes(&bytes).is_err());
    }
}
