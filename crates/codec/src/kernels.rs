//! Word-wide data-plane kernels: the XOR and GF(256) inner loops every
//! byte of every stripe passes through.
//!
//! The paper's case for Tornado Codes is that the data path is "a sequence
//! of XOR operations" — cheap enough that coding throughput tracks the
//! hardware, not the arithmetic. This module makes that true in practice:
//!
//! * [`xor_into`] — `dst ^= src` processed a `u64` word at a time, with an
//!   aligned head/body/tail split so the body runs over whole words that
//!   the compiler auto-vectorises. Word loads need no `unsafe`: they go
//!   through `u64::from_ne_bytes` on 8-byte chunks, which compiles to
//!   single (possibly unaligned) loads on every target this workspace
//!   cares about.
//! * [`MulTable`] / [`mul_acc`] — `dst ^= c · src` over GF(2⁸). The word
//!   body is a bit-decomposition SWAR multiply: eight field elements ride
//!   in one `u64`, and `c·b = ⊕ᵢ bitᵢ(b)·(c·xⁱ)` turns the field multiply
//!   into eight independent shift/mask/multiply/XOR terms over precomputed
//!   basis products — no table loads and no serial doubling chain in the
//!   loop, so the terms pipeline across execution units. Odd tail bytes
//!   and single-byte multiplies go through two 16-entry nibble tables per
//!   coefficient (`c·b = lo[b & 0xF] ⊕ hi[b >> 4]`), where the
//!   log/antilog path would chase two dependent loads through 768 bytes
//!   of tables per byte.
//! * [`checksum`] / [`append_checksummed`] — the 8-lane FNV block digest,
//!   and the same digest computed while a block is copied, so a read
//!   streams a stored byte from memory once. Both ask for cache lines
//!   ahead of themselves through `prefetch_read`, the crate's single
//!   `unsafe` (one instruction; the crate is `deny(unsafe_code)` with that
//!   one `allow`): cold block buffers stream at about half of memory speed
//!   without the hint. Both also take an [`Ahead`] — where the block the
//!   caller will stream *next* lies — and request its lines into L2 while
//!   this one is hashed, so a stream of separate block buffers never starts
//!   a block cold. [`Ahead::NONE`] asks for nothing beyond the block.
//! * [`checksum4`] — the same digest of four blocks in one pass, their
//!   groups interleaved: one block's digest waits on its own lanes'
//!   multiply chains, four keep the multiplier busy. The scrub's in-place
//!   verify tier hashes a stripe's blocks four at a time with it.
//! * [`xor_checksummed`] — the encoder's check-block kernel: the XOR of a
//!   check's neighbours built strip by strip in a buffer nobody zeroed, and
//!   the same digest taken of each strip as it lands, so encoding writes a
//!   check block once and a PUT never streams its stripe a second time.
//!
//! Every kernel above has one body. The byte-serial loops these replaced
//! are test code (`tests/oracle/mod.rs`): the parity suites assert
//! `word == scalar::…` on the same input.
//!
//! Volume counters: every call bumps the process-wide
//! `kernel.bytes_xored` / `kernel.bytes_muled` totals (sharded relaxed
//! atomics, one `add` per *call*, not per byte) — surfaced by the server's
//! METRICS op so load snapshots show data-plane volume.

use crate::gf256::Gf256;

/// Kernel word width in bytes.
const WORD: usize = 8;

tornado_obs::metric_set! {
    /// Process-wide data-plane volume counters (see [`metrics`]).
    pub struct KernelMetrics {
        /// Bytes XORed by `xor_into` and `xor_checksummed`.
        bytes_xored: Counter = "kernel.bytes_xored", "bytes";
        /// Bytes multiplied-and-accumulated in GF(256) by `mul_acc` with a
        /// non-trivial coefficient: the Reed-Solomon comparator's kernel,
        /// which the XOR-only Tornado data path never runs.
        bytes_muled: Counter = "kernel.bytes_muled", "bytes";
        /// Bytes hashed by `checksum`: block verification on PUT, GET and
        /// the scrub verify tier.
        bytes_hashed: Counter = "kernel.bytes_hashed", "bytes";
    }
}

static METRICS: KernelMetrics = KernelMetrics::new();

/// The process-wide kernel volume counters.
pub fn metrics() -> &'static KernelMetrics {
    &METRICS
}

/// XORs `src` into `dst` a word at a time.
///
/// # Panics
/// Panics if the lengths differ.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_into requires equal lengths");
    METRICS.bytes_xored.add(dst.len() as u64);
    xor_into_words(dst, src);
}

/// The word-wide XOR body, uncounted: scalar head up to `dst`'s word
/// boundary, a `u64` body the compiler is free to widen further, scalar
/// tail.
fn xor_into_words(dst: &mut [u8], src: &[u8]) {
    let head = dst.as_ptr().align_offset(WORD).min(dst.len());
    let (dst_head, dst_rest) = dst.split_at_mut(head);
    let (src_head, src_rest) = src.split_at(head);
    for (d, s) in dst_head.iter_mut().zip(src_head) {
        *d ^= s;
    }
    // Body: dst chunks are word-aligned; src may not be, but
    // `from_ne_bytes` on a byte chunk is a plain (unaligned-capable) load.
    let mut src_words = src_rest.chunks_exact(WORD);
    for (d, s) in dst_rest.chunks_exact_mut(WORD).zip(&mut src_words) {
        let w = u64::from_ne_bytes(d[..WORD].try_into().expect("word chunk"))
            ^ u64::from_ne_bytes(s.try_into().expect("word chunk"));
        d.copy_from_slice(&w.to_ne_bytes());
    }
    let tail_start = dst_rest.len() - dst_rest.len() % WORD;
    for (d, s) in dst_rest[tail_start..]
        .iter_mut()
        .zip(&src_rest[tail_start..])
    {
        *d ^= s;
    }
}

/// FNV-1a offset basis (per-lane states are this perturbed by lane index).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The lanes' multiplier: 2⁴⁴ + 0x1b3. It is *not* FNV-64's prime
/// (`0x100_0000_01b3`, 2⁴⁰ + 0x1b3), only written like it; it is odd, and
/// so invertible mod 2⁶⁴, which is all the lane argument needs (a change
/// to a word changes its lane's state). The value is pinned: sidecars and
/// segment records on disk hold digests made with it, and
/// `checksum_of_a_fixed_buffer_is_pinned` holds one (the copies in
/// `Graph::fingerprint` and the test oracle are pinned likewise).
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// 8-lane word-striped FNV-1a block checksum.
///
/// Classic FNV-1a is a single multiply chain — every byte's
/// `(h ^ b) · p` step depends on the previous one, so it runs at the
/// multiplier's *latency* (~1 byte per 3 cycles) no matter how wide the
/// machine is. This checksum instead consumes the input as little-endian
/// `u64` words (the final partial word zero-padded), word `t` feeding
/// lane `t mod 8` of eight independent FNV-1a chains, then folds the
/// lanes (and the byte length, which disambiguates the zero padding)
/// through one more FNV chain. Each lane sees a multiply only every
/// eighth word, so the chains pipeline at the multiplier's *throughput* —
/// one multiply per eight bytes instead of one per byte — and the word
/// path digests a block near memory speed while remaining a pure
/// function of the bytes.
///
/// Whole groups are absorbed with the line `PREFETCH_AHEAD` bytes on
/// requested as each goes in (never past the end of `data`), and the line
/// of `next` at the same offset requested into L2, then the partial group.
/// `next` never changes the digest or the count: the byte-serial
/// `scalar::checksum` oracle of the parity suites computes the *same*
/// function.
pub fn checksum(data: &[u8], next: Ahead) -> u64 {
    METRICS.bytes_hashed.add(data.len() as u64);
    let mut lanes = lane_init();
    let (groups, rest) = data.split_at(data.len() - data.len() % GROUP);
    let ahead = data.get(PREFETCH_AHEAD..).unwrap_or(&[]);
    absorb_groups(&mut lanes, groups, ahead, next);
    finish_lanes(lanes, rest, data.len())
}

/// [`checksum`] of four blocks in one pass: element `k` of the result is
/// `checksum(blocks[k], _)`, bit for bit.
///
/// One block's digest is bound by its lanes' multiply chains, not by
/// memory: the eight lane steps of a group widen into two 4-wide vector
/// multiplies, each emulated from three 32-bit ones, and the next group's
/// steps wait on them — about ten cycles a line however fast the line
/// arrives. Here the blocks' lanes advance a group each per step,
/// interleaved over the blocks' common whole-group prefix: eight
/// independent chains and four memory streams, each stream requesting its
/// own line `PREFETCH_AHEAD` on, while `next`'s line at the step's offset is
/// requested into L2 as [`checksum`] does. Each block's remainder then
/// finishes alone, as in [`checksum`]. `kernel.bytes_hashed` advances once,
/// by the blocks' summed lengths.
pub fn checksum4(blocks: [&[u8]; 4], next: Ahead) -> [u64; 4] {
    METRICS
        .bytes_hashed
        .add(blocks.iter().map(|b| b.len() as u64).sum());
    let shortest = blocks.iter().map(|b| b.len()).min().unwrap_or(0);
    let common = shortest - shortest % GROUP;
    let aheads = blocks.map(|b| b.get(PREFETCH_AHEAD..).unwrap_or(&[]));
    let mut lanes = [lane_init(); 4];
    let [a, b, c, d] = blocks.map(|b| b[..common].chunks_exact(GROUP));
    for (i, (((ga, gb), gc), gd)) in a.zip(b).zip(c).zip(d).enumerate() {
        for ahead in aheads {
            if let Some(line) = ahead.get(i * GROUP) {
                prefetch_read(line, Locality::L1);
            }
        }
        if let Some(line) = next.at(i * GROUP) {
            prefetch_read(line, Locality::L2);
        }
        for (l, g) in lanes.iter_mut().zip([ga, gb, gc, gd]) {
            absorb_group(l, g);
        }
    }
    // The rest of `next` goes with the longest block's remainder.
    let longest = (0..4).max_by_key(|&k| blocks[k].len()).unwrap_or(0);
    std::array::from_fn(|k| {
        let rest = &blocks[k][common..];
        let (groups, tail) = rest.split_at(rest.len() - rest.len() % GROUP);
        let ahead = aheads[k].get(common..).unwrap_or(&[]);
        let next = if k == longest {
            next.skip(common)
        } else {
            Ahead::NONE
        };
        absorb_groups(&mut lanes[k], groups, ahead, next);
        finish_lanes(lanes[k], tail, blocks[k].len())
    })
}

/// Where the block a caller streams next lies: an address and a length
/// taken from a slice, for the group loop to request into L2 while the
/// current block is hashed.
///
/// Nothing ever reads through it, and a prefetch cannot fault, so it
/// carries no lifetime and may outlive the buffer it was taken from: the
/// store takes it under a device lock and uses it after the lock is
/// released. A block freed or moved since costs the bandwidth of a wasted
/// request and nothing else.
#[derive(Clone, Copy, Debug)]
pub struct Ahead {
    start: *const u8,
    len: usize,
}

impl Ahead {
    /// No next block: nothing is requested beyond the block being hashed.
    pub const NONE: Ahead = Ahead {
        start: std::ptr::null(),
        len: 0,
    };

    /// The hint for `next`, the block to be streamed after this one.
    pub fn of(next: &[u8]) -> Self {
        Self {
            start: next.as_ptr(),
            len: next.len(),
        }
    }

    /// Whether there is nothing to request.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The same block from byte `offset` on (empty past its end).
    fn skip(self, offset: usize) -> Self {
        Self {
            start: self.start.wrapping_add(offset),
            len: self.len.saturating_sub(offset),
        }
    }

    /// The address of the byte at `offset`, if the block reaches it.
    #[inline(always)]
    fn at(self, offset: usize) -> Option<*const u8> {
        (offset < self.len).then(|| self.start.wrapping_add(offset))
    }
}

/// Per-lane initial states: the FNV offset basis perturbed by the lane
/// index, so a word moved between lanes changes the digest.
fn lane_init() -> [u64; 8] {
    let mut lanes = [0u64; 8];
    for (j, l) in lanes.iter_mut().enumerate() {
        *l = FNV_OFFSET ^ (j as u64).wrapping_mul(FNV_PRIME);
    }
    lanes
}

/// One lane step: absorb word `w` into lane `l`. XOR then multiply, like
/// FNV-1a; both operations are injective in `w`, so any change to a word
/// changes its lane's final state.
#[inline(always)]
fn lane_step(l: u64, w: u64) -> u64 {
    (l ^ w).wrapping_mul(FNV_PRIME)
}

/// Folds the eight lane states and the input length into one digest via a
/// final FNV-1a chain (O(1), so it adds nothing to the per-byte cost). The
/// `h ^= h >> 32` mix after each step is an invertible xorshift, so a
/// change in any single lane always survives into the digest.
fn fold_lanes(lanes: [u64; 8], len: usize) -> u64 {
    let mut h = FNV_OFFSET ^ len as u64;
    for l in lanes {
        h = (h ^ l).wrapping_mul(FNV_PRIME);
        h ^= h >> 32;
    }
    h
}

/// Zero-padded little-endian word from a partial (1–7 byte) tail.
fn tail_word(tail: &[u8]) -> u64 {
    let mut w = 0u64;
    for (i, &b) in tail.iter().enumerate() {
        w |= (b as u64) << (i * 8);
    }
    w
}

/// Bytes in one checksum group: one word for each of the eight lanes, and
/// one cache line.
const GROUP: usize = 8 * WORD;

/// How far ahead of itself [`checksum`]'s group loop requests a cache
/// line. Block buffers are separate allocations of ~20 KB, too short for
/// the hardware prefetcher to get ahead on, and the loop's 24 µops per
/// line fill the reorder window before the next line's load is reached —
/// so without a hint each miss is taken in turn. Longer than the blocks of
/// a 64 KiB object (1.4 KB): those issue no prefetch at all.
const PREFETCH_AHEAD: usize = 4096;

/// Strip size of [`append_checksummed`]: small enough that a strip is
/// still in L1 when it is hashed, a whole number of groups so lane state
/// carries from strip to strip.
const STRIP: usize = 4096;

/// Which caches [`prefetch_read`] asks a line into.
#[derive(Clone, Copy)]
enum Locality {
    /// Every level (`PREFETCHT0`): this block's own lines, wanted within a
    /// few hundred nanoseconds.
    L1,
    /// L2 and out (`PREFETCHT2`): the next block's, wanted after this one —
    /// in L1 they would evict the lines being hashed.
    L2,
}

/// Asks for the cache line holding `*p` to be brought in for reading — a
/// hint, never an access: no address can make it fault, so it takes any
/// pointer. The crate's one `unsafe`; nothing on targets without the
/// instruction.
#[allow(unsafe_code)]
#[inline(always)]
fn prefetch_read(p: *const u8, locality: Locality) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 and PREFETCHT2 read and write no architectural
    // state and raise no exception for any address, mapped or not.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0, _MM_HINT_T2};
        match locality {
            Locality::L1 => _mm_prefetch::<_MM_HINT_T0>(p.cast()),
            Locality::L2 => _mm_prefetch::<_MM_HINT_T2>(p.cast()),
        }
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (p, locality);
}

/// Absorbs one 64-byte group into all eight lanes with statically-indexed
/// independent multiplies.
#[inline(always)]
fn absorb_group(lanes: &mut [u64; 8], g: &[u8]) {
    for (j, l) in lanes.iter_mut().enumerate() {
        let w = u64::from_le_bytes(g[j * WORD..(j + 1) * WORD].try_into().unwrap());
        *l = lane_step(*l, w);
    }
}

/// Absorbs `groups` (a whole number of 64-byte groups) into all eight
/// lanes, requesting per group absorbed one line of `ahead` — the bytes of
/// this block wanted next, possibly none — and, into L2, the line of
/// `next` at the group's own offset.
#[inline(always)]
fn absorb_groups(lanes: &mut [u64; 8], groups: &[u8], ahead: &[u8], next: Ahead) {
    debug_assert_eq!(groups.len() % GROUP, 0);
    for (i, g) in groups.chunks_exact(GROUP).enumerate() {
        if let Some(line) = ahead.get(i * GROUP) {
            prefetch_read(line, Locality::L1);
        }
        if let Some(line) = next.at(i * GROUP) {
            prefetch_read(line, Locality::L2);
        }
        absorb_group(lanes, g);
    }
}

/// Absorbs the last, partial group — leftover whole words continue
/// round-robin, a partial tail becomes one zero-padded word — and folds
/// the lanes into the digest of a `len`-byte input.
fn finish_lanes(mut lanes: [u64; 8], rest: &[u8], len: usize) -> u64 {
    debug_assert!(rest.len() < GROUP);
    let mut words = rest.chunks_exact(WORD);
    let mut j = 0usize;
    for chunk in &mut words {
        lanes[j] = lane_step(lanes[j], u64::from_le_bytes(chunk.try_into().unwrap()));
        j += 1;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        lanes[j] = lane_step(lanes[j], tail_word(tail));
    }
    fold_lanes(lanes, len)
}

/// Appends `src` to `out` and returns [`checksum`]`(src, next)`, streaming
/// `src` from memory once: it is copied a 4 KiB strip at a time and each
/// strip is hashed where it landed, still in L1, while the lines of the
/// next strip are requested from `src` and those of `next` at the same
/// offsets into L2. The bytes count once in `kernel.bytes_hashed`.
pub fn append_checksummed(out: &mut Vec<u8>, src: &[u8], next: Ahead) -> u64 {
    METRICS.bytes_hashed.add(src.len() as u64);
    out.reserve(src.len());
    let mut lanes = lane_init();
    let mut rest = src;
    while rest.len() >= STRIP {
        let (strip, following) = rest.split_at(STRIP);
        let at = out.len();
        out.extend_from_slice(strip);
        let offset = src.len() - rest.len();
        absorb_groups(&mut lanes, &out[at..], following, next.skip(offset));
        rest = following;
    }
    let at = out.len();
    out.extend_from_slice(rest);
    let (groups, tail) = out[at..].split_at(rest.len() - rest.len() % GROUP);
    absorb_groups(&mut lanes, groups, &[], next.skip(src.len() - rest.len()));
    finish_lanes(lanes, tail, src.len())
}

/// Appends `s₀ ⊕ s₁ ⊕ … ⊕ s_d` — `len` bytes, every source exactly that
/// long — to `out` and returns its [`checksum`]: the encoder's check-block
/// kernel. The block is built a 4 KiB strip at a time — the first source
/// copied, the others folded in a word at a time — and each strip is hashed
/// where it landed, still in L1; nothing is zero-filled first. The same
/// bytes, digest and counts as [`xor_into`] from zero then [`checksum`]:
/// `kernel.bytes_xored` advances by `len` per source, `kernel.bytes_hashed`
/// by `len`.
///
/// # Panics
/// Panics if a source is not `len` bytes long.
pub fn xor_checksummed<'a, I>(out: &mut Vec<u8>, len: usize, sources: I) -> u64
where
    I: Iterator<Item = &'a [u8]> + Clone,
{
    let mut xored = 0;
    for src in sources.clone() {
        assert_eq!(src.len(), len, "xor_checksummed requires equal lengths");
        xored += len as u64;
    }
    METRICS.bytes_xored.add(xored);
    METRICS.bytes_hashed.add(len as u64);
    out.reserve(len);
    // Appends bytes `from..to` of the block and says where they start.
    let fold = |out: &mut Vec<u8>, from: usize, to: usize| {
        let at = out.len();
        let mut rest = sources.clone();
        match rest.next() {
            Some(first) => out.extend_from_slice(&first[from..to]),
            None => out.resize(at + to - from, 0),
        }
        for src in rest {
            xor_into_words(&mut out[at..], &src[from..to]);
        }
        at
    };
    let mut lanes = lane_init();
    let whole = len - len % STRIP;
    for from in (0..whole).step_by(STRIP) {
        let at = fold(out, from, from + STRIP);
        absorb_groups(&mut lanes, &out[at..], &[], Ahead::NONE);
    }
    let at = fold(out, whole, len);
    let (groups, tail) = out[at..].split_at((len - whole) - (len - whole) % GROUP);
    absorb_groups(&mut lanes, groups, &[], Ahead::NONE);
    finish_lanes(lanes, tail, len)
}

/// Per-coefficient nibble multiplication tables: `c·b` for any byte `b` is
/// `lo[b & 0xF] ⊕ hi[b >> 4]`, by distributivity of the field multiply
/// over the XOR decomposition `b = (b & 0xF) ⊕ (b & 0xF0)`.
#[derive(Clone, Copy, Debug)]
pub struct MulTable {
    /// `lo[n] = c · n` for the low nibble.
    lo: [u8; 16],
    /// `hi[n] = c · (n << 4)` for the high nibble.
    hi: [u8; 16],
    /// `bits[i] = c · xⁱ` (the product of `c` with each basis element)
    /// broadcast to every byte lane, for the SWAR body:
    /// `c·b = ⊕ᵢ bitᵢ(b) · (c·xⁱ)`.
    bits: [u64; 8],
}

impl MulTable {
    /// Builds the table set for coefficient `c` (40 field multiplies;
    /// amortised over the block the tables are applied to).
    pub fn new(field: &Gf256, c: u8) -> Self {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for n in 0..16u8 {
            lo[n as usize] = field.mul(c, n);
            hi[n as usize] = field.mul(c, n << 4);
        }
        let mut bits = [0u64; 8];
        for (i, b) in bits.iter_mut().enumerate() {
            *b = field.mul(c, 1 << i) as u64 * LANE_LSB;
        }
        Self { lo, hi, bits }
    }

    /// Multiplies one byte through the tables.
    #[inline]
    pub fn mul(&self, b: u8) -> u8 {
        self.lo[(b & 0x0F) as usize] ^ self.hi[(b >> 4) as usize]
    }

    /// `dst ^= c · src`: eight field elements per `u64`, multiplied by
    /// `c` with the bit-decomposition SWAR in `mul8`, XORed into
    /// `dst` with a single store per word. Tail bytes go through the
    /// nibble tables.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub(crate) fn mul_acc(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "mul_acc requires equal lengths");
        METRICS.bytes_muled.add(dst.len() as u64);
        let mut src_words = src.chunks_exact(WORD);
        for (d, s) in dst.chunks_exact_mut(WORD).zip(&mut src_words) {
            let sw = u64::from_ne_bytes(s.try_into().expect("word chunk"));
            let w = u64::from_ne_bytes(d[..WORD].try_into().expect("word chunk")) ^ self.mul8(sw);
            d.copy_from_slice(&w.to_ne_bytes());
        }
        let tail_start = dst.len() - dst.len() % WORD;
        for (d, &s) in dst[tail_start..].iter_mut().zip(&src[tail_start..]) {
            *d ^= self.mul(s);
        }
    }

    /// Multiplies all eight GF(2⁸) lanes of `w` by the coefficient via bit
    /// decomposition: `c·b = ⊕ᵢ bitᵢ(b)·(c·xⁱ)` by distributivity. Each
    /// term isolates bit `i` of every lane (a 0-or-1 byte per lane),
    /// stretches it to a 0x00/0xFF lane mask with `(m << 8) - m` (which is
    /// exactly `m · 255` — each lane's product stays inside the lane, and
    /// the subtraction's only borrow beyond lane 7 falls off the top of
    /// the word), and ANDs the mask with the pre-broadcast basis product
    /// `c·xⁱ`. Eight independent shift/and/sub/and/XOR terms — no loads,
    /// no serial chain, no integer multiply — every op has a packed SIMD
    /// equivalent, so the unrolled word loop auto-vectorises.
    #[inline]
    fn mul8(&self, w: u64) -> u64 {
        let mut acc = 0u64;
        for (i, &k) in self.bits.iter().enumerate() {
            let bits = (w >> i) & LANE_LSB;
            let mask = (bits << 8).wrapping_sub(bits);
            acc ^= mask & k;
        }
        acc
    }
}

/// The low bit of each byte lane, for the SWAR bit extraction.
const LANE_LSB: u64 = 0x0101_0101_0101_0101;

/// `dst ^= c · src` with the trivial coefficients peeled off before table
/// dispatch: `c == 0` is a no-op, `c == 1` is a plain [`xor_into`], and
/// everything else builds a [`MulTable`] and runs the nibble kernel.
///
/// # Panics
/// Panics if the lengths differ.
pub fn mul_acc(field: &Gf256, dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "mul_acc requires equal lengths");
    match c {
        0 => {}
        1 => xor_into(dst, src),
        _ => MulTable::new(field, c).mul_acc(dst, src),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
            .collect()
    }

    #[test]
    fn mul_table_agrees_with_field_multiply() {
        let f = Gf256::new();
        for c in 0..=255u8 {
            let t = MulTable::new(&f, c);
            for b in 0..=255u8 {
                assert_eq!(t.mul(b), f.mul(c, b), "{c} * {b}");
            }
        }
    }

    #[test]
    fn mul_acc_peels_trivial_coefficients() {
        let f = Gf256::new();
        let src = pattern(40, 1);
        let mut dst = pattern(40, 2);
        let before = dst.clone();
        mul_acc(&f, &mut dst, &src, 0);
        assert_eq!(dst, before, "c = 0 is a no-op");
        mul_acc(&f, &mut dst, &src, 1);
        let expect: Vec<u8> = before.iter().zip(&src).map(|(d, s)| d ^ s).collect();
        assert_eq!(dst, expect, "c = 1 is plain XOR");
    }

    #[test]
    fn volume_counters_advance() {
        let before_xor = metrics().bytes_xored.get();
        let before_mul = metrics().bytes_muled.get();
        let before_hash = metrics().bytes_hashed.get();
        let f = Gf256::new();
        let src = pattern(64, 1);
        let mut dst = pattern(64, 2);
        xor_into(&mut dst, &src);
        mul_acc(&f, &mut dst, &src, 9);
        checksum(&dst, Ahead::NONE);
        assert!(metrics().bytes_xored.get() >= before_xor + 64);
        assert!(metrics().bytes_muled.get() >= before_mul + 64);
        assert!(metrics().bytes_hashed.get() >= before_hash + 64);
    }

    #[test]
    fn checksum_detects_single_byte_changes_and_length() {
        let data = pattern(257, 23);
        let base = checksum(&data, Ahead::NONE);
        for i in [0usize, 1, 7, 8, 128, 255, 256] {
            let mut t = data.clone();
            t[i] ^= 0x40;
            assert_ne!(
                checksum(&t, Ahead::NONE),
                base,
                "flip at {i} must change the digest"
            );
        }
        assert_ne!(
            checksum(&data[..256], Ahead::NONE),
            base,
            "length is part of the digest"
        );
        assert_ne!(
            checksum(&[], Ahead::NONE),
            checksum(&[0], Ahead::NONE),
            "a single zero byte is visible"
        );
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn unequal_lengths_panic() {
        xor_into(&mut [0u8; 3], &[0u8; 4]);
    }
}
