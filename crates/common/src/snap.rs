//! Binary snapshot primitives for deterministic checkpoint/restore.
//!
//! Every stateful component serializes itself through [`SnapWriter`] /
//! [`SnapReader`]: a tiny, dependency-free little-endian binary codec.
//! There is deliberately no reflection and no derive — the offline build
//! carries only inert serde stubs, and a hand-rolled codec keeps the
//! on-disk layout explicit, stable, and auditable (DESIGN.md §13).
//!
//! Conventions shared by every `snap`/`restore` pair in the workspace:
//!
//! - integers are little-endian fixed width; `usize` travels as `u64`;
//! - `f64` travels as its IEEE-754 bit pattern ([`f64::to_bits`]) so
//!   restore is bit-exact, never a decimal round-trip;
//! - sequences are length-prefixed (`u64`) and written in a deterministic
//!   order — hash maps/sets serialize their entries sorted by key so two
//!   snapshots of identical state are byte-identical across processes;
//! - `Option<T>` is a `bool` presence flag followed by the payload;
//! - composite sections open with a [`SnapWriter::tag`] that the reader
//!   checks, so a truncated or shifted stream fails loudly at the first
//!   misaligned section instead of silently misparsing.
//!
//! Corruption is never a panic: every reader method returns a
//! [`SnapError`] naming the byte offset and what was being decoded, which
//! `System::try_restore` wraps into `SimError::BadCheckpoint`.

use std::fmt;

/// Why a snapshot stream could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError(pub String);

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit content hash — the config/kernel fingerprint function.
/// Not cryptographic; it guards against mismatched inputs, not
/// adversaries. Byte-at-a-time, so it is meant for short inputs; bulk
/// payloads use [`checksum64`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Word-wise 64-bit payload checksum — the checkpoint payload checksum.
///
/// Four independent lanes each absorb every fourth little-endian `u64`
/// word as `lane = ((lane ^ word) * odd).rotate_left(29)`; the lanes, the
/// remaining whole words, the zero-padded byte tail and the length are then
/// folded into one value with the same step. Every step is a bijection of
/// the running state for a fixed input word and of the word for a fixed
/// state, so any change confined to a single word (in particular any
/// single-bit flip) always changes the result; the folded length tells
/// inputs apart that differ only by trailing zero bytes. Like [`fnv1a`] it
/// guards against bit rot and truncation, not adversaries — but it runs a
/// word per step on independent dependency chains instead of a byte per
/// step on one.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const ODD: [u64; 4] = [
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
        0xd6e8_feb8_6659_fd93,
    ];
    fn step(state: u64, word: u64, odd: u64) -> u64 {
        (state ^ word).wrapping_mul(odd).rotate_left(29)
    }
    fn word(b: &[u8]) -> u64 {
        u64::from_le_bytes(b.try_into().expect("8-byte chunk"))
    }
    let mut lanes = [1u64, 2, 3, 4];
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = step(*lane, word(&b[8 * i..8 * i + 8]), ODD[i]);
        }
    }
    let mut h = step(0, bytes.len() as u64, ODD[0]);
    for lane in lanes {
        h = step(h, lane, ODD[1]);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        h = step(h, word(w), ODD[2]);
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = step(h, u64::from_le_bytes(tail), ODD[3]);
    // Final avalanche (xorshift-multiply, itself a bijection) so nearby
    // inputs do not leave nearby sums.
    h ^= h >> 32;
    h = h.wrapping_mul(ODD[0]);
    h ^ (h >> 29)
}

/// Append-only little-endian encoder.
#[derive(Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A run of `u64`s, byte-identical to one [`SnapWriter::u64`] call per
    /// element (no length prefix — pair it with [`SnapWriter::len`] when
    /// the count is not fixed by the reader's shape).
    pub fn u64s(&mut self, vs: &[u64]) {
        self.buf.reserve(vs.len() * 8);
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Bit-exact float transport.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Sequence length prefix; follow with exactly that many elements.
    pub fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Section marker — readers verify it with [`SnapReader::tag`].
    pub fn tag(&mut self, t: u16) {
        self.u16(t);
    }

    pub fn position(&self) -> usize {
        self.buf.len()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a snapshot byte stream; every decode is bounds-checked.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError(format!(
                "truncated stream at byte {}: need {} bytes for {}, {} left",
                self.pos,
                n,
                what,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn u16(&mut self) -> Result<u16, SnapError> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Fill `out` from a run written by [`SnapWriter::u64s`] (or by one
    /// `u64` call per element). A stream too short for the whole run fails
    /// before anything is decoded.
    pub fn u64s(&mut self, out: &mut [u64]) -> Result<(), SnapError> {
        let b = self.take(out.len() * 8, "u64 run")?;
        for (v, c) in out.iter_mut().zip(b.chunks_exact(8)) {
            *v = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        }
        Ok(())
    }

    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| {
            SnapError(format!(
                "value {v} at byte {} does not fit in usize",
                self.pos - 8
            ))
        })
    }

    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(SnapError(format!(
                "invalid bool byte {v:#x} at byte {}",
                self.pos - 1
            ))),
        }
    }

    pub fn str(&mut self) -> Result<String, SnapError> {
        let at = self.pos;
        let n = self.usize()?;
        let b = self.take(n, "string payload")?;
        String::from_utf8(b.to_vec())
            .map_err(|_| SnapError(format!("invalid UTF-8 string at byte {at}")))
    }

    /// Sequence length prefix. Rejects lengths that cannot possibly fit in
    /// the remaining bytes (each element occupies at least one byte), so a
    /// corrupted prefix fails here rather than in a giant allocation.
    // Not a container length — `is_empty` has no meaning for a decoder.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&mut self) -> Result<usize, SnapError> {
        let at = self.pos;
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError(format!(
                "sequence length {n} at byte {at} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Consume and verify a section marker written by [`SnapWriter::tag`].
    pub fn tag(&mut self, expected: u16, what: &str) -> Result<(), SnapError> {
        let at = self.pos;
        let got = self.u16()?;
        if got != expected {
            return Err(SnapError(format!(
                "bad section tag at byte {at}: expected {expected:#06x} ({what}), got {got:#06x}"
            )));
        }
        Ok(())
    }

    /// Assert the stream was consumed exactly.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError(format!(
                "{} trailing bytes after byte {}",
                self.remaining(),
                self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.usize(12345);
        w.f64(-0.1);
        w.bool(true);
        w.bool(false);
        w.str("héllo");
        w.tag(0x42);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        r.tag(0x42, "test").unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = SnapWriter::new();
        w.u64(99);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        let e = r.u64().unwrap_err();
        assert!(e.0.contains("truncated"), "{e}");
    }

    #[test]
    fn bad_bool_and_bad_tag_are_named() {
        let mut w = SnapWriter::new();
        w.u8(9);
        w.tag(0x1111);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.bool().unwrap_err().0.contains("invalid bool"));
        let e = r.tag(0x2222, "sms").unwrap_err();
        assert!(e.0.contains("sms") && e.0.contains("0x2222"), "{e}");
    }

    #[test]
    fn oversized_sequence_length_rejected() {
        let mut w = SnapWriter::new();
        w.len(1 << 40);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(r.len().unwrap_err().0.contains("exceeds"));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().unwrap_err().0.contains("trailing"));
    }

    #[test]
    fn u64_runs_match_per_element_writes() {
        let vs = [0, 1, u64::MAX, 0x0123_4567_89ab_cdef, 42];
        let mut bulk = SnapWriter::new();
        bulk.u64s(&vs);
        let mut each = SnapWriter::new();
        for v in vs {
            each.u64(v);
        }
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, each.into_bytes());
        let mut out = [0u64; 5];
        let mut r = SnapReader::new(&bytes);
        r.u64s(&mut out).unwrap();
        r.finish().unwrap();
        assert_eq!(out, vs);
    }

    #[test]
    fn truncated_u64_run_names_the_offset() {
        let mut w = SnapWriter::new();
        w.u8(0);
        w.u64s(&[7; 4]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..bytes.len() - 3]);
        r.u8().unwrap();
        let mut out = [0u64; 4];
        let e = r.u64s(&mut out).unwrap_err();
        assert!(e.0.contains("truncated") && e.0.contains("byte 1"), "{e}");
        assert_eq!(out, [0; 4], "nothing decoded from a short run");
    }

    #[test]
    fn checksum_catches_every_single_bit_flip() {
        // 32-byte blocks, then two whole tail words, then a 5-byte tail.
        let buf: Vec<u8> = (0..85u32).map(|i| (i * 37 + 11) as u8).collect();
        assert_ne!(buf.len() % 32, 0);
        let good = checksum64(&buf);
        let mut v = buf.clone();
        for byte in 0..v.len() {
            for bit in 0..8 {
                v[byte] ^= 1 << bit;
                assert_ne!(checksum64(&v), good, "flip of bit {bit} in byte {byte}");
                v[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn checksum_folds_in_the_length() {
        assert_ne!(checksum64(b"x"), checksum64(b"x\0"));
        assert_ne!(checksum64(b""), checksum64(&[0u8; 8]));
        assert_ne!(checksum64(&[0u8; 32]), checksum64(&[0u8; 64]));
        assert_eq!(checksum64(b"stable"), checksum64(b"stable"));
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
