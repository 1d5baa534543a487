//! Binary snapshot codec for deterministic checkpoint/restore.
//!
//! Each checkpointed type lists its state once, and a macro generates both
//! directions from that list: [`snap_value!`] implements [`Snap`] for plain
//! values that decode on their own (packets, ids, statistics blocks), and
//! [`snap_state!`] implements [`SnapState`] for components, which restore
//! *in place* into a freshly constructed machine so that fields derived
//! from the config or the kernel keep their constructed values. Both
//! destructure `Self` without a rest pattern: a field added to a type does
//! not compile until it is listed, as state or under `derived:`. The few
//! impls that need context beyond a field list (an SM's warp slots are
//! built from the kernel, a credit balance must fit its pool) are written
//! by hand and destructure `Self` the same way. serde is not used: the
//! vendored shim goes through a `Value` tree, and a derive cannot restore
//! into a machine that is already constructed.
//!
//! The layout every codec shares:
//!
//! - integers are little-endian fixed width; `usize` travels as `u64`;
//! - `f64` travels as its IEEE-754 bit pattern, so restore is bit-exact;
//! - sequences are length-prefixed (`u64`), including those whose shape is
//!   fixed at construction, which restore checks against the constructed
//!   length; maps, sets and heaps are written sorted, so equal states give
//!   equal bytes across processes;
//! - `Option<T>` is a `bool` flag, followed by the payload only if present;
//! - an enum writes the `u8` discriminant its field list names;
//! - the system's sections open with a [`SnapWriter::tag`] that the reader
//!   checks, so a shifted stream fails at the first misaligned section.
//!
//! Corruption is never a panic: every decode returns a [`SnapError`]
//! naming the byte offset or the field and what was expected, which
//! `System::try_restore` wraps into `SimError::BadCheckpoint`.

use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};

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

/// A plain value that decodes on its own: [`Snap::decode`] builds it from
/// the stream alone. Implemented here for the primitives and containers,
/// and by [`snap_value!`] for the workspace's value types.
pub trait Snap: Sized {
    fn encode(&self, w: &mut SnapWriter);

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;

    /// Decode over `self`. Containers override it to refill their own
    /// allocation, so a restored machine keeps the capacity its
    /// constructor reserved.
    fn decode_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        *self = Self::decode(r)?;
        Ok(())
    }
}

/// A component restored in place into a freshly constructed value, whose
/// config- and kernel-derived fields survive the restore. Generated by
/// [`snap_state!`]; every [`Snap`] value is one too.
pub trait SnapState {
    fn snap(&self, w: &mut SnapWriter);

    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

impl<T: Snap> SnapState for T {
    #[inline]
    fn snap(&self, w: &mut SnapWriter) {
        self.encode(w)
    }

    #[inline]
    fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.decode_into(r)
    }
}

macro_rules! snap_primitive {
    ($($t:ty => $m:ident),* $(,)?) => {$(
        impl Snap for $t {
            #[inline]
            fn encode(&self, w: &mut SnapWriter) {
                w.$m(*self)
            }

            #[inline]
            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                r.$m()
            }
        }
    )*};
}

snap_primitive!(u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize, bool => bool, f64 => f64);

impl Snap for String {
    fn encode(&self, w: &mut SnapWriter) {
        w.str(self)
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.str()
    }
}

/// Lane values: one bulk run, no length (the type fixes it).
impl<const N: usize> Snap for [u64; N] {
    #[inline]
    fn encode(&self, w: &mut SnapWriter) {
        w.u64s(self)
    }

    #[inline]
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut a = [0; N];
        r.u64s(&mut a)?;
        Ok(a)
    }
}

impl<T: Snap> Snap for Option<T> {
    fn encode(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.encode(w);
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(if r.bool()? { Some(T::decode(r)?) } else { None })
    }
}

macro_rules! snap_tuple {
    ($(($($t:ident $i:tt),+)),*) => {$(
        impl<$($t: Snap),+> Snap for ($($t,)+) {
            fn encode(&self, w: &mut SnapWriter) {
                $(self.$i.encode(w);)+
            }

            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(($($t::decode(r)?,)+))
            }
        }
    )*};
}

snap_tuple!((A 0, B 1), (A 0, B 1, C 2));

/// Length prefix, then every element in order (`items` must report its
/// exact length, as the std iterators do).
fn encode_seq<'a, T: Snap + 'a>(w: &mut SnapWriter, items: impl ExactSizeIterator<Item = &'a T>) {
    w.len(items.len());
    for v in items {
        v.encode(w);
    }
}

/// `Vec` and `VecDeque`: decoding refills the container's own allocation.
macro_rules! snap_seq {
    ($($c:ident::$push:ident),*) => {$(
        impl<T: Snap> Snap for $c<T> {
            fn encode(&self, w: &mut SnapWriter) {
                encode_seq(w, self.iter())
            }

            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let mut v = $c::new();
                v.decode_into(r)?;
                Ok(v)
            }

            fn decode_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
                self.clear();
                let n = r.len()?;
                self.reserve(n);
                for _ in 0..n {
                    self.$push(T::decode(r)?);
                }
                Ok(())
            }
        }
    )*};
}

snap_seq!(Vec::push, VecDeque::push_back);

/// Entries sorted by key.
impl<K, V, S> Snap for HashMap<K, V, S>
where
    K: Snap + Ord + Hash,
    V: Snap,
    S: BuildHasher + Default,
{
    fn encode(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.len(entries.len());
        for (k, v) in entries {
            k.encode(w);
            v.encode(w);
        }
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut m = HashMap::default();
        m.decode_into(r)?;
        Ok(m)
    }

    fn decode_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        let n = r.len()?;
        self.reserve(n);
        for _ in 0..n {
            let k = K::decode(r)?;
            self.insert(k, V::decode(r)?);
        }
        Ok(())
    }
}

/// Elements sorted.
impl<T, S> Snap for HashSet<T, S>
where
    T: Snap + Ord + Hash,
    S: BuildHasher + Default,
{
    fn encode(&self, w: &mut SnapWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        encode_seq(w, items.into_iter())
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let mut s = HashSet::default();
        s.decode_into(r)?;
        Ok(s)
    }

    fn decode_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.clear();
        let n = r.len()?;
        self.reserve(n);
        for _ in 0..n {
            self.insert(T::decode(r)?);
        }
        Ok(())
    }
}

/// Elements sorted ascending by `Ord` (the heap's internal order is not
/// deterministic across builds).
impl<T: Snap + Ord> Snap for BinaryHeap<T> {
    fn encode(&self, w: &mut SnapWriter) {
        let mut items: Vec<&T> = self.iter().collect();
        items.sort_unstable();
        encode_seq(w, items.into_iter())
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(BinaryHeap::from(Vec::decode(r)?))
    }

    fn decode_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let mut items = std::mem::take(self).into_vec();
        items.decode_into(r)?;
        *self = BinaryHeap::from(items);
        Ok(())
    }
}

/// Read the length of a sequence whose shape was fixed at construction
/// and require it to be `want`. `what` names the field (`Type.field`).
pub fn expect_count(r: &mut SnapReader<'_>, what: &str, want: usize) -> Result<(), SnapError> {
    let at = r.position();
    let got = r.usize()?;
    if got != want {
        return Err(SnapError(format!(
            "{what} at byte {at}: built with {want}, checkpoint has {got}"
        )));
    }
    Ok(())
}

/// `[each]`: a fixed-length sequence of components, restored in place.
pub fn snap_each<T: SnapState>(items: &[T], w: &mut SnapWriter) {
    w.len(items.len());
    for v in items {
        v.snap(w);
    }
}

/// Restore counterpart of [`snap_each`].
pub fn restore_each<T: SnapState>(
    items: &mut [T],
    r: &mut SnapReader<'_>,
    what: &str,
) -> Result<(), SnapError> {
    expect_count(r, what, items.len())?;
    for v in items {
        v.restore(r)?;
    }
    Ok(())
}

/// `[grid]`: rows of fixed-length sequences (cache sets × ways, the
/// memory network's node × dimension links).
pub fn snap_grid<T: SnapState>(rows: &[Vec<T>], w: &mut SnapWriter) {
    w.len(rows.len());
    for row in rows {
        snap_each(row, w);
    }
}

/// Restore counterpart of [`snap_grid`]; every row's length is checked.
pub fn restore_grid<T: SnapState>(
    rows: &mut [Vec<T>],
    r: &mut SnapReader<'_>,
    what: &str,
) -> Result<(), SnapError> {
    expect_count(r, what, rows.len())?;
    for row in rows {
        restore_each(row, r, what)?;
    }
    Ok(())
}

/// Storage moved as one bulk run of `u64` words: a register file
/// (`Vec<[u64; WARP_WIDTH]>`), a scoreboard or histogram buckets
/// (`Vec<u64>`). `run` is the element count and the words.
pub trait Words {
    fn run(&self) -> (usize, &[u64]);
    fn run_mut(&mut self) -> (usize, &mut [u64]);
}

impl Words for Vec<u64> {
    fn run(&self) -> (usize, &[u64]) {
        (self.len(), self)
    }

    fn run_mut(&mut self) -> (usize, &mut [u64]) {
        (self.len(), self)
    }
}

impl<const N: usize> Words for Vec<[u64; N]> {
    fn run(&self) -> (usize, &[u64]) {
        (self.len(), self.as_flattened())
    }

    fn run_mut(&mut self) -> (usize, &mut [u64]) {
        (self.len(), self.as_flattened_mut())
    }
}

/// `[words]`: the element count, then every word in one run.
pub fn snap_words<T: Words>(v: &T, w: &mut SnapWriter) {
    let (n, words) = v.run();
    w.len(n);
    w.u64s(words);
}

/// Restore counterpart of [`snap_words`]: one count check and one bounds
/// check for the whole run.
pub fn restore_words<T: Words>(
    v: &mut T,
    r: &mut SnapReader<'_>,
    what: &str,
) -> Result<(), SnapError> {
    let (n, words) = v.run_mut();
    expect_count(r, what, n)?;
    r.u64s(words)
}

/// Implement [`Snap`] for a value type from its field list.
///
/// Three forms:
///
/// - `snap_value!(Type { a, b })`: the fields in the listed order (the type
///   may be generic: `Type<T: Bound> { .. }`);
/// - `snap_value!(Newtype(u64))`: the single wrapped value;
/// - `snap_value!(enum Kind { 0 => A { x, y }, 1 => B(i), 2 => C })`: the
///   listed `u8` discriminant, then the variant's fields. An unknown
///   discriminant is a decode error naming the type.
///
/// The generated code destructures without `..` and builds `Self` with a
/// struct expression, so an unlisted field or variant does not compile.
#[macro_export]
macro_rules! snap_value {
    (enum $name:ident {
        $($d:literal => $var:ident $({ $($f:ident),* $(,)? })? $(( $($t:ident),* $(,)? ))?),+ $(,)?
    }) => {
        impl $crate::snap::Snap for $name {
            fn encode(&self, w: &mut $crate::snap::SnapWriter) {
                match self {
                    $(Self::$var $({ $($f),* })? $(( $($t),* ))? => {
                        w.u8($d);
                        $($( $crate::snap::Snap::encode($f, w); )*)?
                        $($( $crate::snap::Snap::encode($t, w); )*)?
                    })+
                }
            }

            fn decode(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok(match r.u8()? {
                    $($d => Self::$var
                        $({ $($f: $crate::snap::Snap::decode(r)?),* })?
                        $(( $({
                            let $t = $crate::snap::Snap::decode(r)?;
                            $t
                        }),* ))?,)+
                    d => {
                        return Err($crate::snap::SnapError(format!(
                            concat!("unknown ", stringify!($name), " discriminant {}"),
                            d
                        )))
                    }
                })
            }
        }
    };
    ($name:ident ($inner:ty)) => {
        impl $crate::snap::Snap for $name {
            #[inline]
            fn encode(&self, w: &mut $crate::snap::SnapWriter) {
                let Self(v) = self;
                $crate::snap::Snap::encode(v, w)
            }

            #[inline]
            fn decode(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok(Self(<$inner as $crate::snap::Snap>::decode(r)?))
            }
        }
    };
    ($name:ident $(<$($g:ident: $b:path),+>)? { $($f:ident),+ $(,)? }) => {
        impl$(<$($g: $b),+>)? $crate::snap::Snap for $name$(<$($g),+>)? {
            fn encode(&self, w: &mut $crate::snap::SnapWriter) {
                let Self { $($f),+ } = self;
                $( $crate::snap::Snap::encode($f, w); )+
            }

            fn decode(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok(Self { $($f: $crate::snap::Snap::decode(r)?),+ })
            }
        }
    };
}

/// Implement [`SnapState`] for a component from its field list:
///
/// ```text
/// snap_state!(Type { a, b [each], c [grid], d [words]; derived: x, y; after: hook })
/// ```
///
/// - State fields are written in the listed order and restored in place,
///   each through its own [`SnapState`] impl.
/// - `[each]`, `[grid]` and `[words]` mark sequences whose shape is fixed
///   at construction (SM warp slots, vault banks, cache sets × ways, a
///   register file). Restore checks their lengths against the constructed
///   value and names `Type.field` and both counts on a mismatch; `[words]`
///   moves the whole run in one bounds check.
/// - `derived:` lists the fields that come from construction (config,
///   kernel, caches rebuilt from state) and are never written.
/// - `after:` names a `&mut self` method run once the fields are restored,
///   to rebuild what `derived` fields cache.
/// - The type may be generic: `Cache<W: Snap> { .. }`.
///
/// The generated code destructures `Self` without `..`, so a field that is
/// listed neither as state nor as derived does not compile:
///
/// ```
/// use ndp_common::snap::{SnapReader, SnapState, SnapWriter};
///
/// struct Port {
///     queue: Vec<u32>,
///     credits: [u64; 2],
///     capacity: usize,
/// }
/// ndp_common::snap_state!(Port { queue, credits; derived: capacity });
///
/// let live = Port { queue: vec![7, 9], credits: [1, 2], capacity: 4 };
/// let mut w = SnapWriter::new();
/// live.snap(&mut w);
/// let bytes = w.into_bytes();
///
/// let mut fresh = Port { queue: Vec::new(), credits: [0; 2], capacity: 4 };
/// fresh.restore(&mut SnapReader::new(&bytes)).unwrap();
/// assert_eq!((fresh.queue, fresh.credits), (vec![7, 9], [1, 2]));
/// ```
///
/// The same type with `capacity` left out of the list is a compile error:
///
/// ```compile_fail,E0027
/// struct Port {
///     queue: Vec<u32>,
///     credits: [u64; 2],
///     capacity: usize,
/// }
/// ndp_common::snap_state!(Port { queue, credits });
/// ```
#[macro_export]
macro_rules! snap_state {
    ($name:ident $(<$($g:ident: $b:path),+>)? {
        $($f:ident $([$mode:ident])?),+ $(,)?
        $(; derived: $($d:ident),+ $(,)?)?
        $(; after: $hook:ident)?
    }) => {
        impl$(<$($g: $b),+>)? $crate::snap::SnapState for $name$(<$($g),+>)? {
            fn snap(&self, w: &mut $crate::snap::SnapWriter) {
                let Self { $($f,)+ $($($d: _,)+)? } = self;
                $( $crate::__snap_field!(snap w, $f $(, $mode)?); )+
            }

            fn restore(
                &mut self,
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<(), $crate::snap::SnapError> {
                let Self { $($f,)+ $($($d: _,)+)? } = &mut *self;
                $( $crate::__snap_field!(
                    restore r, $f, concat!(stringify!($name), ".", stringify!($f)) $(, $mode)?
                ); )+
                $( self.$hook(); )?
                Ok(())
            }
        }
    };
}

/// One field of [`snap_state!`], by shape.
#[doc(hidden)]
#[macro_export]
macro_rules! __snap_field {
    (snap $w:ident, $f:ident) => {
        $crate::snap::SnapState::snap($f, $w)
    };
    (snap $w:ident, $f:ident, each) => {
        $crate::snap::snap_each($f, $w)
    };
    (snap $w:ident, $f:ident, grid) => {
        $crate::snap::snap_grid($f, $w)
    };
    (snap $w:ident, $f:ident, words) => {
        $crate::snap::snap_words($f, $w)
    };
    (restore $r:ident, $f:ident, $what:expr) => {
        $crate::snap::SnapState::restore($f, $r)?
    };
    (restore $r:ident, $f:ident, $what:expr, each) => {
        $crate::snap::restore_each($f, $r, $what)?
    };
    (restore $r:ident, $f:ident, $what:expr, grid) => {
        $crate::snap::restore_grid($f, $r, $what)?
    };
    (restore $r:ident, $f:ident, $what:expr, words) => {
        $crate::snap::restore_words($f, $r, $what)?
    };
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

    /// A component with one field of every fixed shape.
    #[derive(Debug, PartialEq)]
    struct Shaped {
        slots: Vec<Option<u16>>,
        sets: Vec<Vec<(u64, bool)>>,
        regs: Vec<[u64; 4]>,
        stamp: u64,
        restored: bool,
    }

    impl Shaped {
        fn new(slots: usize, sets: usize, ways: usize, regs: usize) -> Shaped {
            Shaped {
                slots: vec![None; slots],
                sets: vec![vec![(0, false); ways]; sets],
                regs: vec![[0; 4]; regs],
                stamp: 0,
                restored: false,
            }
        }

        fn mark_restored(&mut self) {
            self.restored = true;
        }
    }

    crate::snap_state!(Shaped {
        slots [each],
        sets [grid],
        regs [words],
        stamp;
        derived: restored;
        after: mark_restored
    });

    #[test]
    fn fixed_shapes_round_trip_and_reject_other_counts() {
        let mut live = Shaped::new(3, 2, 2, 2);
        live.slots[1] = Some(7);
        live.sets[1][0] = (0xabc, true);
        live.regs[1] = [1, 2, 3, 4];
        live.stamp = 99;
        let mut w = SnapWriter::new();
        live.snap(&mut w);
        let bytes = w.into_bytes();
        let mut back = Shaped::new(3, 2, 2, 2);
        let mut r = SnapReader::new(&bytes);
        back.restore(&mut r).unwrap();
        r.finish().unwrap();
        assert!(back.restored, "after-hook ran");
        back.restored = false;
        assert_eq!(back, live);

        for (mut fresh, field, want, got) in [
            (Shaped::new(4, 2, 2, 2), "Shaped.slots", 4, 3),
            (Shaped::new(3, 5, 2, 2), "Shaped.sets", 5, 2),
            (Shaped::new(3, 2, 1, 2), "Shaped.sets", 1, 2),
            (Shaped::new(3, 2, 2, 6), "Shaped.regs", 6, 2),
        ] {
            let e = fresh.restore(&mut SnapReader::new(&bytes)).unwrap_err();
            let counts = format!("built with {want}, checkpoint has {got}");
            assert!(e.0.contains(field) && e.0.contains(&counts), "{e}");
            assert!(!fresh.restored, "no after-hook on a failed restore");
        }
    }

    fn bytes_of(v: &impl Snap) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.encode(&mut w);
        w.into_bytes()
    }

    /// Equal states give equal bytes: maps, sets and heaps are written
    /// sorted, and an absent `Option` is only its flag.
    #[test]
    fn encodings_are_canonical() {
        let keys = [9u64, 3, 7, 1, 5];
        let sorted = vec![1u64, 3, 5, 7, 9];
        let set: HashSet<u64> = keys.into_iter().collect();
        let heap: BinaryHeap<u64> = keys.into_iter().collect();
        let map: HashMap<u64, bool> = keys.into_iter().map(|k| (k, k > 4)).collect();
        let pairs: Vec<(u64, bool)> = sorted.iter().map(|&k| (k, k > 4)).collect();
        assert_eq!(bytes_of(&set), bytes_of(&sorted));
        assert_eq!(bytes_of(&heap), bytes_of(&sorted));
        assert_eq!(bytes_of(&map), bytes_of(&pairs));
        let back = BinaryHeap::<u64>::decode(&mut SnapReader::new(&bytes_of(&heap))).unwrap();
        assert_eq!(back.into_sorted_vec(), sorted);
        assert_eq!(bytes_of(&(None::<u64>, Some(5u16))), [0, 1, 5, 0]);
    }

    #[test]
    fn containers_decode_into_their_own_allocation() {
        let mut v: VecDeque<u32> = VecDeque::with_capacity(64);
        v.push_back(9);
        v.restore(&mut SnapReader::new(&bytes_of(&vec![1u32, 2, 3])))
            .unwrap();
        assert_eq!(v, [1, 2, 3]);
        assert!(v.capacity() >= 64, "constructed capacity kept");
    }

    #[test]
    fn enum_discriminants_are_the_listed_ones() {
        #[derive(Debug, PartialEq)]
        enum Phase {
            Idle,
            Busy(u64),
        }
        crate::snap_value!(enum Phase { 3 => Idle, 8 => Busy(until) });
        assert_eq!(bytes_of(&Phase::Idle), [3]);
        let busy = bytes_of(&Phase::Busy(2));
        assert_eq!(
            Phase::decode(&mut SnapReader::new(&busy)).unwrap(),
            Phase::Busy(2)
        );
        let e = Phase::decode(&mut SnapReader::new(&[7])).unwrap_err();
        assert!(e.0.contains("unknown Phase discriminant 7"), "{e}");
    }
}
