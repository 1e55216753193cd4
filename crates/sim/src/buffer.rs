//! Typed linear buffers shared by the host and device models.
//!
//! Functional state is held as `f64` or `i64` vectors regardless of the
//! declared element type; the element type only affects the *traffic model*
//! (bytes moved per access/transfer). This keeps numerics simple and exact
//! while letting `float` benchmarks enjoy half the memory traffic of
//! `double` ones, as on real hardware.

use serde::{Deserialize, Serialize};

/// Element type of an array. Determines bytes-per-element for the traffic
/// model; values are computed in f64/i64 regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElemType {
    /// 32-bit float (4-byte traffic).
    F32,
    /// 64-bit float (8-byte traffic).
    F64,
    /// 32-bit integer (4-byte traffic).
    I32,
    /// 64-bit integer (8-byte traffic).
    I64,
}

impl ElemType {
    /// Bytes occupied by one element in memory.
    #[inline]
    pub fn size_bytes(self) -> u32 {
        match self {
            ElemType::F32 | ElemType::I32 => 4,
            ElemType::F64 | ElemType::I64 => 8,
        }
    }

    /// Whether the element is a floating-point type.
    #[inline]
    pub fn is_float(self) -> bool {
        matches!(self, ElemType::F32 | ElemType::F64)
    }
}

/// Storage payload: floats or integers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// Floating-point storage.
    F(Vec<f64>),
    /// Integer storage.
    I(Vec<i64>),
}

impl Payload {
    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Payload::F(v) => v.len(),
            Payload::I(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A linear buffer with a declared element type.
///
/// Multi-dimensional arrays are stored flattened row-major; the IR layer is
/// responsible for index linearisation (and for modelling layout changes such
/// as transposition, which alter the addresses the timing model sees).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Buffer {
    /// Declared element type (drives bytes-per-element in the traffic model).
    pub elem: ElemType,
    /// Functional contents.
    pub data: Payload,
}

impl Buffer {
    /// A zero-filled buffer of `len` elements.
    pub fn zeroed(elem: ElemType, len: usize) -> Self {
        let data = if elem.is_float() { Payload::F(vec![0.0; len]) } else { Payload::I(vec![0; len]) };
        Buffer { elem, data }
    }

    /// Build from f64 values (elem must be a float type).
    pub fn from_f64(elem: ElemType, v: Vec<f64>) -> Self {
        assert!(elem.is_float(), "from_f64 requires a float element type");
        Buffer { elem, data: Payload::F(v) }
    }

    /// Build from i64 values (elem must be an integer type).
    pub fn from_i64(elem: ElemType, v: Vec<i64>) -> Self {
        assert!(!elem.is_float(), "from_i64 requires an integer element type");
        Buffer { elem, data: Payload::I(v) }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total size in bytes (for the transfer model).
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        self.len() as u64 * self.elem.size_bytes() as u64
    }

    /// Describe a PCIe transfer of this buffer as a
    /// [`TraceEvent::Transfer`] (the caller supplies the link time, which
    /// depends on the machine's link model).
    ///
    /// [`TraceEvent::Transfer`]: crate::trace::TraceEvent::Transfer
    pub fn transfer_event(&self, array: &str, dir: crate::stats::Dir, secs: f64) -> crate::trace::TraceEvent {
        crate::trace::TraceEvent::Transfer { array: array.to_string(), dir, bytes: self.size_bytes(), secs }
    }

    /// Read element `i` as f64 (integers are converted).
    #[inline]
    pub fn get_f(&self, i: usize) -> f64 {
        match &self.data {
            Payload::F(v) => v[i],
            Payload::I(v) => v[i] as f64,
        }
    }

    /// Read element `i` as i64 (floats are truncated).
    #[inline]
    pub fn get_i(&self, i: usize) -> i64 {
        match &self.data {
            Payload::F(v) => v[i] as i64,
            Payload::I(v) => v[i],
        }
    }

    /// Write element `i` from an f64 value.
    #[inline]
    pub fn set_f(&mut self, i: usize, x: f64) {
        match &mut self.data {
            Payload::F(v) => v[i] = x,
            Payload::I(v) => v[i] = x as i64,
        }
    }

    /// Write element `i` from an i64 value.
    #[inline]
    pub fn set_i(&mut self, i: usize, x: i64) {
        match &mut self.data {
            Payload::F(v) => v[i] = x as f64,
            Payload::I(v) => v[i] = x,
        }
    }

    /// Copy the contents of `src` into this buffer in place, reusing the
    /// existing allocation. Both buffers must have the same element type and
    /// length (use `clone()` when shapes may differ).
    pub fn copy_from(&mut self, src: &Buffer) {
        assert_eq!(self.elem, src.elem, "copy_from: element type mismatch");
        match (&mut self.data, &src.data) {
            (Payload::F(d), Payload::F(s)) => {
                assert_eq!(d.len(), s.len(), "copy_from: length mismatch");
                d.copy_from_slice(s);
            }
            (Payload::I(d), Payload::I(s)) => {
                assert_eq!(d.len(), s.len(), "copy_from: length mismatch");
                d.copy_from_slice(s);
            }
            _ => panic!("copy_from: payload kind mismatch"),
        }
    }

    /// Byte address of element `i` within this buffer (base 0).
    #[inline]
    pub fn elem_addr(&self, i: usize) -> u64 {
        i as u64 * self.elem.size_bytes() as u64
    }

    /// View as f64 slice (float buffers only).
    pub fn as_f64(&self) -> &[f64] {
        match &self.data {
            Payload::F(v) => v,
            Payload::I(_) => panic!("buffer holds integers"),
        }
    }

    /// View as i64 slice (integer buffers only).
    pub fn as_i64(&self) -> &[i64] {
        match &self.data {
            Payload::I(v) => v,
            Payload::F(_) => panic!("buffer holds floats"),
        }
    }

    /// Raw bit pattern of element `i` as [`Buffer::content_digest`] sees
    /// it: an `f64`'s IEEE bits or an `i64`'s two's complement.
    #[inline]
    pub fn bits(&self, i: usize) -> u64 {
        match &self.data {
            Payload::F(v) => v[i].to_bits(),
            Payload::I(v) => v[i] as u64,
        }
    }

    /// 128-bit content digest of this buffer: its element type, length, and
    /// every element's raw bit pattern. Used as the content-addressing key
    /// component for launch memoization; collisions would silently replay a
    /// wrong launch, hence two 64-bit lanes rather than one.
    ///
    /// The digest is order-independent: per lane, a header term over (element
    /// type, length) plus the wrapping sum of one keyed, non-linear term per
    /// (index, bits) pair. A write to one element therefore changes the
    /// digest by swapping that element's old term for its new one
    /// ([`digest_update`]), so a caller that knows which elements changed can
    /// keep a digest current without re-hashing the buffer.
    pub fn content_digest(&self) -> u128 {
        let mut d = ContentSum::header(self.elem, self.len());
        match &self.data {
            Payload::F(v) => {
                for (i, x) in v.iter().enumerate() {
                    d.add(i, x.to_bits());
                }
            }
            Payload::I(v) => {
                for (i, x) in v.iter().enumerate() {
                    d.add(i, *x as u64);
                }
            }
        }
        d.finish()
    }

    /// Maximum absolute difference against another float buffer.
    pub fn max_abs_diff(&self, other: &Buffer) -> f64 {
        match (&self.data, &other.data) {
            (Payload::F(a), Payload::F(b)) => {
                assert_eq!(a.len(), b.len(), "length mismatch");
                a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
            }
            (Payload::I(a), Payload::I(b)) => {
                assert_eq!(a.len(), b.len(), "length mismatch");
                a.iter().zip(b).map(|(x, y)| (x - y).abs() as f64).fold(0.0, f64::max)
            }
            _ => panic!("payload kind mismatch"),
        }
    }
}

#[inline]
fn elem_tag(elem: ElemType) -> u64 {
    match elem {
        ElemType::F32 => 1,
        ElemType::F64 => 2,
        ElemType::I32 => 3,
        ElemType::I64 => 4,
    }
}

/// Digest of the all-zero buffer of a given shape, without materializing it:
/// exactly [`Buffer::content_digest`] of [`Buffer::zeroed`]. Lets
/// `DeviceState::alloc` recognize a device buffer that already holds zeros
/// and skip the clear.
pub fn zero_digest(elem: ElemType, len: usize) -> u128 {
    let mut d = ContentSum::header(elem, len);
    for i in 0..len {
        // Both payloads store zero as the all-zero bit pattern.
        d.add(i, 0);
    }
    d.finish()
}

/// Update a [`Buffer::content_digest`] for one element write: `digest` is the
/// buffer's digest before element `index` changed from `old` to `new` raw
/// bits ([`Buffer::bits`]), and the result is its digest after. Updates to
/// distinct elements commute, so a launch's changed elements can be applied
/// in any order.
pub fn digest_update(digest: u128, index: usize, old: u64, new: u64) -> u128 {
    let mut d = ContentSum { lo: digest as u64, hi: (digest >> 64) as u64 };
    let (ol, oh) = element_term(index, old);
    d.lo = d.lo.wrapping_sub(ol);
    d.hi = d.hi.wrapping_sub(oh);
    d.add(index, new);
    d.finish()
}

/// Per-lane running sums behind [`Buffer::content_digest`].
struct ContentSum {
    lo: u64,
    hi: u64,
}

impl ContentSum {
    /// The header term: the element-type tag and the length, folded.
    fn header(elem: ElemType, len: usize) -> Self {
        let mut h = Digest128::new();
        h.push(elem_tag(elem));
        h.push(len as u64);
        ContentSum { lo: h.lo, hi: h.hi }
    }

    #[inline(always)]
    fn add(&mut self, index: usize, bits: u64) {
        let (l, h) = element_term(index, bits);
        self.lo = self.lo.wrapping_add(l);
        self.hi = self.hi.wrapping_add(h);
    }

    #[inline]
    fn finish(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }
}

/// The two lanes' terms for element `index` holding `bits`. Each lane
/// folds (low half xor high half) one 64x64->128 product of two words that
/// each mix the bits with their own index key: the product makes the term
/// non-linear in the bits (a linear term would let edits whose deltas
/// cancel collide), the keys make it depend on the position (so permuting
/// elements changes the sum), rotating the bits in the second word carries
/// a change in any bit into both halves of the product, and the fold keeps
/// the low lane bits from depending on the low input bits alone. The two
/// lanes use independent keys, so a collision in one says nothing about the
/// other.
#[inline(always)]
fn element_term(index: usize, bits: u64) -> (u64, u64) {
    #[inline(always)]
    fn lane(i: u64, bits: u64, keys: [u64; 4]) -> u64 {
        let a = bits ^ i.wrapping_mul(keys[0]).wrapping_add(keys[1]);
        let b = bits.rotate_left(32) ^ i.wrapping_mul(keys[2]).wrapping_add(keys[3]);
        let p = a as u128 * b as u128;
        p as u64 ^ (p >> 64) as u64
    }
    let i = index as u64;
    (
        lane(i, bits, [0x9e37_79b9_7f4a_7c15, 0x243f_6a88_85a3_08d3, 0xc2b2_ae3d_27d4_eb4f, 0x1319_8a2e_0370_7344]),
        lane(i, bits, [0xd6e8_feb8_6659_fd93, 0xa409_3822_299f_31d0, 0x94d0_49bb_1331_11eb, 0x082e_fa98_ec4e_6c89]),
    )
}

/// Two-lane multiply-xor fold producing a 128-bit digest. Same per-lane
/// recurrence as the coalescing layer's `FoldHasher`, run twice with
/// distinct odd multipliers so the lanes decorrelate.
#[derive(Debug, Clone, Copy)]
pub struct Digest128 {
    lo: u64,
    hi: u64,
}

impl Digest128 {
    const MUL_LO: u64 = 0x9e37_79b9_7f4a_7c15;
    const MUL_HI: u64 = 0xc2b2_ae3d_27d4_eb4f;

    /// Fresh digest state.
    #[inline]
    pub fn new() -> Self {
        Digest128 { lo: 0x243f_6a88_85a3_08d3, hi: 0x1319_8a2e_0370_7344 }
    }

    /// Fold one 64-bit word into both lanes.
    #[inline]
    pub fn push(&mut self, w: u64) {
        self.lo = (self.lo ^ w).wrapping_mul(Self::MUL_LO).rotate_left(29);
        self.hi = (self.hi ^ w).wrapping_mul(Self::MUL_HI).rotate_left(31);
    }

    /// Fold a byte string: its length, then each 8-byte chunk as a
    /// little-endian word, the last one zero-padded.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.push(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.push(u64::from_le_bytes(w));
        }
    }

    /// Final 128-bit value.
    #[inline]
    pub fn finish(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }
}

impl Default for Digest128 {
    fn default() -> Self {
        Self::new()
    }
}

/// Monotonic generation tag for one device buffer, with a lazily computed
/// content digest memoized per generation. Every mutation of the buffer
/// bumps the generation; a digest request re-hashes only when the memo is
/// stale, so steady-state cache probes over unchanged buffers hash nothing.
/// A writer that knows the new digest primes the memo instead: a replayed
/// launch installs the digest stored with its effect, and a captured launch
/// carries the pre-launch digest forward with [`digest_update`] over the
/// elements it changed.
#[derive(Debug, Clone, Default)]
pub struct BufGen {
    gen: u64,
    memo: Option<(u64, u128)>,
}

impl BufGen {
    /// Fresh tag at generation 0 with no memoized digest.
    pub fn new() -> Self {
        BufGen::default()
    }

    /// Current generation.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.gen
    }

    /// Record a mutation: advance the generation, invalidating the memo.
    #[inline]
    pub fn bump(&mut self) {
        self.gen += 1;
        self.memo = None;
    }

    /// Content digest of `buf` at the current generation, re-hashing only
    /// when no digest is memoized for this generation. Returns the digest
    /// and whether a hash was actually computed (for cost accounting).
    pub fn digest(&mut self, buf: &Buffer) -> (u128, bool) {
        if let Some((g, d)) = self.memo {
            if g == self.gen {
                return (d, false);
            }
        }
        let d = buf.content_digest();
        self.memo = Some((self.gen, d));
        (d, true)
    }

    /// Install a known digest for the current generation (e.g. after a
    /// cache replay wrote contents whose digest was stored with the entry),
    /// so the next probe doesn't re-hash.
    #[inline]
    pub fn prime(&mut self, digest: u128) {
        self.memo = Some((self.gen, digest));
    }

    /// The memoized digest for the current generation, if any (no hashing).
    #[inline]
    pub fn memoized(&self) -> Option<u128> {
        match self.memo {
            Some((g, d)) if g == self.gen => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_sizes() {
        assert_eq!(ElemType::F32.size_bytes(), 4);
        assert_eq!(ElemType::F64.size_bytes(), 8);
        assert_eq!(ElemType::I32.size_bytes(), 4);
        assert_eq!(ElemType::I64.size_bytes(), 8);
    }

    #[test]
    fn zeroed_and_roundtrip() {
        let mut b = Buffer::zeroed(ElemType::F32, 8);
        assert_eq!(b.len(), 8);
        assert_eq!(b.size_bytes(), 32);
        b.set_f(3, 2.5);
        assert_eq!(b.get_f(3), 2.5);
        assert_eq!(b.get_i(3), 2);
    }

    #[test]
    fn integer_buffer_conversions() {
        let mut b = Buffer::zeroed(ElemType::I32, 4);
        b.set_f(0, 7.9);
        assert_eq!(b.get_i(0), 7);
        b.set_i(1, -3);
        assert_eq!(b.get_f(1), -3.0);
    }

    #[test]
    fn addresses_scale_with_elem_size() {
        let b4 = Buffer::zeroed(ElemType::F32, 4);
        let b8 = Buffer::zeroed(ElemType::F64, 4);
        assert_eq!(b4.elem_addr(3), 12);
        assert_eq!(b8.elem_addr(3), 24);
    }

    #[test]
    fn max_abs_diff_float() {
        let a = Buffer::from_f64(ElemType::F64, vec![1.0, 2.0, 3.0]);
        let b = Buffer::from_f64(ElemType::F64, vec![1.0, 2.5, 3.0]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn from_f64_rejects_int_type() {
        let _ = Buffer::from_f64(ElemType::I32, vec![1.0]);
    }

    /// `push_bytes` folds exactly the words the hand-written loops it
    /// replaced folded, so fingerprints, config digests and store addresses
    /// keep their bits.
    #[test]
    fn push_bytes_matches_the_word_loop() {
        let bytes: Vec<u8> = (0u8..17).map(|b| b.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=17 {
            let s = &bytes[..len];
            let mut want = Digest128::new();
            want.push(s.len() as u64);
            for chunk in s.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                want.push(u64::from_le_bytes(w));
            }
            let mut got = Digest128::new();
            got.push_bytes(s);
            assert_eq!(got.finish(), want.finish(), "length {len}");
        }
    }

    #[test]
    fn content_digest_separates_type_len_and_values() {
        let a = Buffer::from_f64(ElemType::F64, vec![1.0, 2.0]);
        let b = Buffer::from_f64(ElemType::F64, vec![1.0, 2.0]);
        assert_eq!(a.content_digest(), b.content_digest());
        let c = Buffer::from_f64(ElemType::F64, vec![1.0, 2.5]);
        assert_ne!(a.content_digest(), c.content_digest());
        let d = Buffer::from_f64(ElemType::F32, vec![1.0, 2.0]);
        assert_ne!(a.content_digest(), d.content_digest());
        let e = Buffer::from_f64(ElemType::F64, vec![1.0, 2.0, 0.0]);
        assert_ne!(a.content_digest(), e.content_digest());
    }

    #[test]
    fn zero_digest_matches_zeroed_buffer() {
        for (elem, len) in [(ElemType::F64, 7), (ElemType::F32, 0), (ElemType::I32, 3), (ElemType::I64, 16)] {
            assert_eq!(zero_digest(elem, len), Buffer::zeroed(elem, len).content_digest());
        }
    }

    #[test]
    fn bufgen_memoizes_per_generation() {
        let mut b = Buffer::from_f64(ElemType::F64, vec![3.0, 4.0]);
        let mut g = BufGen::new();
        let (d0, hashed0) = g.digest(&b);
        assert!(hashed0, "first probe must hash");
        let (d1, hashed1) = g.digest(&b);
        assert!(!hashed1, "second probe at same generation must be memoized");
        assert_eq!(d0, d1);
        b.set_f(0, 9.0);
        g.bump();
        assert_eq!(g.memoized(), None);
        let (d2, hashed2) = g.digest(&b);
        assert!(hashed2, "post-bump probe must re-hash");
        assert_ne!(d0, d2);
        g.bump();
        g.prime(0xdead_beef);
        let (d3, hashed3) = g.digest(&b);
        assert!(!hashed3, "primed digest must be served without hashing");
        assert_eq!(d3, 0xdead_beef);
    }
}
