//! Little-endian binary primitives: the byte-level vocabulary every
//! durable structure in the workspace is written in.
//!
//! [`ByteWriter`] appends fixed-width little-endian scalars and
//! length-prefixed sequences to a growable buffer; [`ByteReader`] is its
//! bounds-checked inverse. Readers never panic on damaged input: every
//! read is `get`-based and out-of-bounds surfaces as
//! [`StoreError::Truncated`], and sequence lengths are validated against
//! the bytes actually remaining before anything is allocated, so a
//! corrupted length field cannot trigger a huge allocation.

use crate::error::StoreError;

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern — the round trip is
    /// bit-exact, including `-0.0` and every NaN payload.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed `f64` sequence.
    pub fn put_f64s(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Appends a length-prefixed `u64` sequence.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Appends a length-prefixed `usize` sequence (as `u64`s).
    pub fn put_usizes(&mut self, vs: &[usize]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v as u64);
        }
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
///
/// Carries the name of the structure being decoded so every error says
/// *what* was truncated, not just where.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'a str,
}

impl<'a> ByteReader<'a> {
    /// Starts decoding `buf`; `section` names the structure for errors.
    pub fn new(buf: &'a [u8], section: &'a str) -> Self {
        Self {
            buf,
            pos: 0,
            section,
        }
    }

    /// Current read offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated(&self) -> StoreError {
        StoreError::Truncated {
            section: self.section.to_string(),
            offset: self.pos,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated())?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| self.truncated())?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, StoreError> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `u64` and converts it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, StoreError> {
        usize::try_from(self.get_u64()?)
            .map_err(|_| StoreError::corrupt(self.section, "length exceeds usize"))
    }

    /// Reads a sequence length that claims `elem_size`-byte elements,
    /// validating it against the bytes actually remaining.
    pub fn get_len(&mut self, elem_size: usize) -> Result<usize, StoreError> {
        let n = self.get_usize()?;
        let need = n.checked_mul(elem_size.max(1));
        match need {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(StoreError::corrupt(
                self.section,
                format!(
                    "sequence length {n} exceeds remaining {} bytes",
                    self.remaining()
                ),
            )),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let n = self.get_len(1)?;
        self.take(n)
    }

    /// Reads `n` raw bytes, for a caller that knows the length from
    /// elsewhere in the stream. Bulk column decoders use this to lift one
    /// bounds check out of per-element loops.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        self.take(n)
    }

    /// Decodes a raw byte run as little-endian `u64`s. `raw` must have
    /// been cut by [`ByteReader::get_raw`] with a validated length, so
    /// its size is a multiple of 8.
    fn decode_u64s(raw: &[u8]) -> Vec<u64> {
        raw.chunks_exact(8)
            .map(|c| {
                let mut a = [0u8; 8];
                a.copy_from_slice(c);
                u64::from_le_bytes(a)
            })
            .collect()
    }

    /// Reads a length-prefixed `f64` sequence (bulk: one bounds check,
    /// then a straight-line conversion loop — this is the snapshot
    /// restore hot path for point and key columns).
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, StoreError> {
        let n = self.get_len(8)?;
        let raw = self.take(n * 8)?;
        Ok(Self::decode_u64s(raw)
            .into_iter()
            .map(f64::from_bits)
            .collect())
    }

    /// Reads a length-prefixed `u64` sequence (bulk, like
    /// [`ByteReader::get_f64s`]).
    pub fn get_u64s(&mut self) -> Result<Vec<u64>, StoreError> {
        let n = self.get_len(8)?;
        let raw = self.take(n * 8)?;
        Ok(Self::decode_u64s(raw))
    }

    /// Reads a length-prefixed `usize` sequence (bulk decode; each value
    /// still individually range-checked for 32-bit targets).
    pub fn get_usizes(&mut self) -> Result<Vec<usize>, StoreError> {
        let n = self.get_len(8)?;
        let raw = self.take(n * 8)?;
        Self::decode_u64s(raw)
            .into_iter()
            .map(|v| {
                usize::try_from(v)
                    .map_err(|_| StoreError::corrupt(self.section, "length exceeds usize"))
            })
            .collect()
    }

    /// Asserts the input was fully consumed — trailing garbage means the
    /// payload does not match the structure that claims to own it.
    pub fn expect_end(&self) -> Result<(), StoreError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StoreError::corrupt(
                self.section,
                format!("{} trailing bytes", self.remaining()),
            ))
        }
    }
}

/// Pluggable encoder/decoder for a built index's internal state.
///
/// A snapshot carries the live point set once. A codec is the fast path:
/// [`IndexCodec::encode`] captures the built structure (points, trained
/// models, sorted columns, error bounds) so [`IndexCodec::decode`] can
/// reconstruct it without re-training. `encode` returning `None` means
/// "no fast path for this index" — the snapshot then stores the bare
/// points, which is enough to recover any index by deterministic rebuild.
pub trait IndexCodec<I>: Send + Sync {
    /// Encodes the built state of `index`, or `None` when this codec has
    /// no fast path for it.
    fn encode(&self, index: &I) -> Option<Vec<u8>>;

    /// Decodes a previously encoded state.
    fn decode(&self, bytes: &[u8]) -> Result<I, StoreError>;
}

/// The no-fast-path codec: snapshots carry points only and recovery
/// rebuilds the index deterministically.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCodec;

impl<I> IndexCodec<I> for NoCodec {
    fn encode(&self, _index: &I) -> Option<Vec<u8>> {
        None
    }

    fn decode(&self, _bytes: &[u8]) -> Result<I, StoreError> {
        Err(StoreError::Unsupported {
            what: "decoding an encoded index state with NoCodec".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_bit_exactly() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_f64s(&[1.5, f64::INFINITY]);
        w.put_u64s(&[3, 2, 1]);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes, "test");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_f64s().unwrap(), vec![1.5, f64::INFINITY]);
        assert_eq!(r.get_u64s().unwrap(), vec![3, 2, 1]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_a_clean_error_at_every_prefix() {
        let mut w = ByteWriter::new();
        w.put_u64(3);
        w.put_bytes(b"abc");
        w.put_f64s(&[1.0, 2.0]);
        let bytes = w.into_vec();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut], "prefix");
            let res: Result<(), StoreError> = (|| {
                r.get_u64()?;
                r.get_bytes()?;
                r.get_f64s()?;
                Ok(())
            })();
            assert!(res.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocating() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // claims ~2^64 elements
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes, "bomb");
        match r.get_f64s() {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
