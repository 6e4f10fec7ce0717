//! Byte-level serialization for the disk layer.
//!
//! Everything that reaches a page — WAL records, snapshot images, the
//! manifest — goes through this module's little-endian writer/reader
//! pair. The build environment vendors no serde, and a hand-rolled codec
//! is an advantage here anyway: the byte layout is part of the recovery
//! contract (a torn tail must fail the checksum, not deserialize into
//! garbage), so it is spelled out explicitly and covered by round-trip
//! tests.
//!
//! Decoding is total: every getter returns a typed [`CodecError`] instead
//! of panicking, because recovery reads bytes that a crash may have torn
//! arbitrarily.

use dbpc_datamodel::value::Value;
use std::fmt;

/// A decode failure: what was being read and why it could not be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// What the reader was trying to decode.
    pub context: &'static str,
    pub detail: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode {}: {}", self.context, self.detail)
    }
}

impl std::error::Error for CodecError {}

pub type CodecResult<T> = Result<T, CodecError>;

fn fail(context: &'static str, detail: impl Into<String>) -> CodecError {
    CodecError {
        context,
        detail: detail.into(),
    }
}

/// FNV-1a-style 64-bit digest — the record checksum — folded over
/// little-endian 8-byte lanes (byte-wise for the tail), which cuts the
/// serial multiply chain 8x versus byte-at-a-time FNV on the WAL commit
/// path. Not cryptographic; it only needs to make a torn or short write
/// overwhelmingly likely to fail verification. Every step is a bijection
/// of the running state, so any single-bit flip (and any zeroed suffix a
/// torn page leaves behind) changes the digest.
pub fn fnv64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lanes = bytes.chunks_exact(8);
    for lane in &mut lanes {
        let mut w = [0u8; 8];
        w.copy_from_slice(lane);
        h ^= u64::from_le_bytes(w);
        h = h.wrapping_mul(PRIME);
    }
    for &b in lanes.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Preallocation for `n` decoded items, capped by the bytes left in `r`:
/// every item takes at least one byte, so a corrupt count cannot reserve
/// more memory than the input could fill.
pub(crate) fn capacity(n: u32, r: &ByteReader) -> usize {
    (n as usize).min(r.remaining())
}

/// Little-endian append-only writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Resume writing at the end of an existing buffer, reusing its
    /// allocation; pair with [`ByteWriter::into_bytes`] to hand the
    /// buffer back. This keeps hot append paths allocation-free.
    pub fn over(buf: Vec<u8>) -> ByteWriter {
        ByteWriter { buf }
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Tagged [`Value`]: 0 = Null, 1 = Int, 2 = Float (IEEE bits), 3 = Str.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Int(i) => {
                self.put_u8(1);
                self.put_i64(*i);
            }
            Value::Float(f) => {
                self.put_u8(2);
                self.put_f64(*f);
            }
            Value::Str(s) => {
                self.put_u8(3);
                self.put_str(s);
            }
        }
    }
}

/// Little-endian cursor reader over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(fail(
                context,
                format!("need {n} bytes, have {}", self.remaining()),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self, context: &'static str) -> CodecResult<u8> {
        Ok(self.take(1, context)?[0])
    }

    pub fn get_u32(&mut self, context: &'static str) -> CodecResult<u32> {
        let s = self.take(4, context)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    pub fn get_u64(&mut self, context: &'static str) -> CodecResult<u64> {
        let s = self.take(8, context)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    pub fn get_i64(&mut self, context: &'static str) -> CodecResult<i64> {
        let s = self.take(8, context)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(i64::from_le_bytes(b))
    }

    pub fn get_f64(&mut self, context: &'static str) -> CodecResult<f64> {
        Ok(f64::from_bits(self.get_u64(context)?))
    }

    pub fn get_bytes(&mut self, context: &'static str) -> CodecResult<&'a [u8]> {
        let n = self.get_u32(context)? as usize;
        self.take(n, context)
    }

    pub fn get_str(&mut self, context: &'static str) -> CodecResult<String> {
        let raw = self.get_bytes(context)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|e| fail(context, format!("invalid utf-8: {e}")))
    }

    pub fn get_value(&mut self, context: &'static str) -> CodecResult<Value> {
        match self.get_u8(context)? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.get_i64(context)?)),
            2 => Ok(Value::Float(self.get_f64(context)?)),
            3 => Ok(Value::Str(self.get_str(context)?)),
            t => Err(fail(context, format!("unknown value tag {t}"))),
        }
    }

    /// Step over one tagged [`Value`] without building it: the tag is
    /// checked and the bytes it announces must be there.
    pub fn skip_value(&mut self, context: &'static str) -> CodecResult<()> {
        match self.get_u8(context)? {
            0 => Ok(()),
            1 | 2 => self.take(8, context).map(drop),
            3 => self.get_bytes(context).map(drop),
            t => Err(fail(context, format!("unknown value tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_f64(-0.5);
        w.put_str("owner-coupled");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8("t").unwrap(), 7);
        assert_eq!(r.get_u32("t").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("t").unwrap(), u64::MAX - 3);
        assert_eq!(r.get_i64("t").unwrap(), -42);
        assert_eq!(r.get_f64("t").unwrap(), -0.5);
        assert_eq!(r.get_str("t").unwrap(), "owner-coupled");
        assert_eq!(r.get_bytes("t").unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn values_round_trip() {
        let vals = [
            Value::Null,
            Value::Int(i64::MIN),
            Value::Float(3.25),
            Value::str("DETROIT"),
        ];
        let mut w = ByteWriter::new();
        for v in &vals {
            w.put_value(v);
        }
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        for v in &vals {
            assert_eq!(&r.get_value("t").unwrap(), v);
        }
    }

    #[test]
    fn truncated_input_fails_typed_not_panics() {
        let mut w = ByteWriter::new();
        w.put_str("hello");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..bytes.len() - 2]);
        let err = r.get_str("greeting").unwrap_err();
        assert_eq!(err.context, "greeting");
    }

    #[test]
    fn bad_value_tag_is_an_error() {
        let mut r = ByteReader::new(&[9]);
        assert!(r.get_value("v").is_err());
        let mut r = ByteReader::new(&[9]);
        assert!(r.skip_value("v").is_err());
    }

    #[test]
    fn skip_value_steps_over_exactly_one_value() {
        let vals = [
            Value::Null,
            Value::Int(-7),
            Value::Float(0.5),
            Value::str("DETROIT"),
        ];
        let mut w = ByteWriter::new();
        for v in &vals {
            w.put_value(v);
        }
        let bytes = w.into_bytes();
        for (i, v) in vals.iter().enumerate() {
            let mut r = ByteReader::new(&bytes);
            for _ in 0..i {
                r.skip_value("t").unwrap();
            }
            assert_eq!(&r.get_value("t").unwrap(), v);
        }
        // A string whose length runs past the input is not skipped.
        let mut r = ByteReader::new(&bytes[..bytes.len() - 1]);
        for _ in 0..3 {
            r.skip_value("t").unwrap();
        }
        assert!(r.skip_value("t").is_err());
    }

    #[test]
    fn fnv_differs_on_single_bit_flip() {
        let a = fnv64(b"write-ahead");
        let mut flipped = b"write-ahead".to_vec();
        flipped[3] ^= 1;
        assert_ne!(a, fnv64(&flipped));
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
