//! Systematic Reed–Solomon page sharding for k-of-n multi-backup
//! replication (the `placement` extension).
//!
//! Each 4 KiB page is striped into `k` data fragments of
//! `ceil(PAGE_SIZE / k)` bytes plus `n - k` parity fragments computed over
//! GF(2⁸), so replica `i` stores exactly fragment `i` of every page:
//!
//! * any `k` of the `n` fragments reconstruct the page byte-identically
//!   (the generator matrix is a Vandermonde matrix brought to systematic
//!   form, so every `k × k` row submatrix is invertible),
//! * per-replica storage is `ceil(PAGE_SIZE / k)` bytes per page — total
//!   memory overhead `n/k`× instead of mirroring's `n`×,
//! * `k = 1` degenerates to whole-page mirroring (`n = 2` is exactly the
//!   paper's primary + warm backup pair),
//! * because striping is *within* a page, each replica's incremental
//!   per-epoch merge stays sound: committing fragment `i` of a re-dirtied
//!   page supersedes the old fragment `i`, and parity fragments are always
//!   current (they are recomputed from the page contents at encode time,
//!   never patched incrementally).
//!
//! The field arithmetic runs through one kernel, `gf_mul_acc`
//! (`dst ^= c · src`, 32 bytes per step where the CPU has `pshufb`), and a
//! fragment is written exactly once, into the heap buffer the replica's store
//! will keep ([`ShardCodec::encode_fragment`]): nothing is staged in codec
//! scratch and copied out. That buffer is, in steady state, one a commit
//! displaced from a store an epoch earlier ([`recycle_fragment`]). Decoding
//! inverts the survivors' generator rows once per survivor set, not once per
//! page.

use nilicon_sim::mem::Recycler;
use nilicon_sim::{SimError, SimResult, PAGE_SIZE};
use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

/// One replica's fragment of one page: [`ShardCodec::frag_len`] bytes in a
/// refcounted heap buffer of exactly that size — what a replica's store
/// holds per page, and what a repair reads from it without copying.
pub type FragBuf = Rc<[u8]>;

thread_local! {
    static SPARE_FRAGS: RefCell<Recycler<[u8]>> = const { RefCell::new(Recycler::new()) };
}

/// Hand a fragment a commit displaced from a replica's store to the next
/// [`ShardCodec::encode_fragment`]. The rules are the page recycler's
/// (`nilicon_sim::mem::Recycler`), a round being one epoch's fan-out.
pub fn recycle_fragment(buf: FragBuf) {
    SPARE_FRAGS.with(|r| r.borrow_mut().give(buf));
}

/// An epoch's fan-out ended, or a failover is about to decode the whole
/// image: free the spare fragments.
pub fn end_fragment_round() {
    SPARE_FRAGS.with(|r| r.borrow_mut().end_round());
}

/// Spare fragments this thread's recycler holds.
pub fn spare_fragments() -> usize {
    SPARE_FRAGS.with(|r| r.borrow().len())
}

/// Shift-and-reduce product in GF(2⁸) over the 0x11D primitive polynomial.
/// Builds [`NIBBLES`] at compile time; the kernels are tested against it.
const fn gf_mul_bitwise(mut a: u8, mut b: u8) -> u8 {
    let mut r = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            r ^= a;
        }
        let carry = a & 0x80;
        a <<= 1;
        if carry != 0 {
            a ^= 0x1D;
        }
        b >>= 1;
    }
    r
}

/// Split-nibble product tables: `NIBBLES[c][x] = c·x` and
/// `NIBBLES[c][16 + x] = c·(x << 4)` for `x < 16`, so
/// `c·b = NIBBLES[c][b & 15] ^ NIBBLES[c][16 + (b >> 4)]` — two 16-entry
/// lookups, which is exactly what one `pshufb` per half does for a whole
/// vector of `b`s.
static NIBBLES: [[u8; 32]; 256] = {
    let mut t = [[0u8; 32]; 256];
    let mut c = 0;
    while c < 256 {
        let mut x = 0;
        while x < 16 {
            t[c][x] = gf_mul_bitwise(c as u8, x as u8);
            t[c][16 + x] = gf_mul_bitwise(c as u8, (x << 4) as u8);
            x += 1;
        }
        c += 1;
    }
    t
};

#[inline]
fn gf_mul(a: u8, b: u8) -> u8 {
    let t = &NIBBLES[a as usize];
    t[(b & 15) as usize] ^ t[16 + (b >> 4) as usize]
}

/// `base^pow` in GF(2⁸).
fn gf_pow(base: u8, pow: u32) -> u8 {
    let mut r = 1u8;
    for _ in 0..pow {
        r = gf_mul(r, base);
    }
    r
}

/// Multiplicative inverse: the nonzero elements form a group of order 255,
/// so `a⁻¹ = a²⁵⁴`. Only matrix setup and inversion call this.
fn gf_inv(a: u8) -> u8 {
    debug_assert_ne!(a, 0, "zero has no inverse");
    gf_pow(a, 254)
}

/// `dst[i] ^= c · src[i]` over GF(2⁸) — the one inner loop of encode and
/// decode. Dispatches to the widest `pshufb` the CPU has
/// (`is_x86_feature_detected!` caches its CPUID probe); the portable loop
/// reads the same tables a byte at a time.
#[inline]
fn gf_mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "gf_mul_acc operands differ in length");
    if c == 0 {
        return;
    }
    let table = &NIBBLES[c as usize];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 support was just verified at runtime.
            return unsafe { gf_mul_acc_avx2(dst, src, table) };
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            // SAFETY: ssse3 support was just verified at runtime.
            return unsafe { gf_mul_acc_ssse3(dst, src, table) };
        }
    }
    gf_mul_acc_portable(dst, src, table)
}

/// Portable kernel, and the tail of the vector ones.
fn gf_mul_acc_portable(dst: &mut [u8], src: &[u8], table: &[u8; 32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= table[(s & 15) as usize] ^ table[16 + (s >> 4) as usize];
    }
}

/// AVX2 kernel: both 16-entry tables broadcast to the two 128-bit lanes,
/// one `vpshufb` per nibble half, 32 products per step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gf_mul_acc_avx2(dst: &mut [u8], src: &[u8], table: &[u8; 32]) {
    use std::arch::x86_64::*;
    // SAFETY: `table` is 32 bytes, so both 16-byte unaligned loads are in
    // bounds.
    let (lo, hi) = unsafe {
        (
            _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr() as *const _)),
            _mm256_broadcastsi128_si256(_mm_loadu_si128(table.as_ptr().add(16) as *const _)),
        )
    };
    let mask = _mm256_set1_epi8(0x0f);
    let mut d_chunks = dst.chunks_exact_mut(32);
    let mut s_chunks = src.chunks_exact(32);
    for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
        // SAFETY: `chunks_exact(32)` yields exactly 32 bytes on both sides;
        // the loads and the store are the explicitly unaligned forms.
        unsafe {
            let x = _mm256_loadu_si256(s.as_ptr() as *const _);
            let l = _mm256_shuffle_epi8(lo, _mm256_and_si256(x, mask));
            let h = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(x, 4), mask));
            let acc = _mm256_loadu_si256(d.as_ptr() as *const _);
            let sum = _mm256_xor_si256(acc, _mm256_xor_si256(l, h));
            _mm256_storeu_si256(d.as_mut_ptr() as *mut _, sum);
        }
    }
    gf_mul_acc_portable(d_chunks.into_remainder(), s_chunks.remainder(), table);
}

/// SSSE3 kernel: the same two-`pshufb` product, 16 bytes per step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn gf_mul_acc_ssse3(dst: &mut [u8], src: &[u8], table: &[u8; 32]) {
    use std::arch::x86_64::*;
    // SAFETY: `table` is 32 bytes, so both 16-byte unaligned loads are in
    // bounds.
    let (lo, hi) = unsafe {
        (
            _mm_loadu_si128(table.as_ptr() as *const _),
            _mm_loadu_si128(table.as_ptr().add(16) as *const _),
        )
    };
    let mask = _mm_set1_epi8(0x0f);
    let mut d_chunks = dst.chunks_exact_mut(16);
    let mut s_chunks = src.chunks_exact(16);
    for (d, s) in (&mut d_chunks).zip(&mut s_chunks) {
        // SAFETY: `chunks_exact(16)` yields exactly 16 bytes on both sides;
        // the loads and the store are the explicitly unaligned forms.
        unsafe {
            let x = _mm_loadu_si128(s.as_ptr() as *const _);
            let l = _mm_shuffle_epi8(lo, _mm_and_si128(x, mask));
            let h = _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(x, 4), mask));
            let acc = _mm_loadu_si128(d.as_ptr() as *const _);
            _mm_storeu_si128(
                d.as_mut_ptr() as *mut _,
                _mm_xor_si128(acc, _mm_xor_si128(l, h)),
            );
        }
    }
    gf_mul_acc_portable(d_chunks.into_remainder(), s_chunks.remainder(), table);
}

/// Invert a `k × k` matrix over GF(2⁸) by Gauss–Jordan elimination.
/// Errors if the matrix is singular (cannot happen for the row subsets of a
/// systematic Vandermonde generator, but decode inputs are validated anyway).
fn gf_invert(m: &[Vec<u8>]) -> SimResult<Vec<Vec<u8>>> {
    let k = m.len();
    let mut a: Vec<Vec<u8>> = m.to_vec();
    let mut inv: Vec<Vec<u8>> = (0..k)
        .map(|i| (0..k).map(|j| u8::from(i == j)).collect())
        .collect();
    for col in 0..k {
        // Pivot: any row at/below `col` with a nonzero entry.
        let pivot = (col..k)
            .find(|&r| a[r][col] != 0)
            .ok_or_else(|| SimError::Invalid("singular shard matrix".into()))?;
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let p = gf_inv(a[col][col]);
        for j in 0..k {
            a[col][j] = gf_mul(a[col][j], p);
            inv[col][j] = gf_mul(inv[col][j], p);
        }
        for row in 0..k {
            if row == col || a[row][col] == 0 {
                continue;
            }
            let f = a[row][col];
            for j in 0..k {
                let ac = gf_mul(f, a[col][j]);
                a[row][j] ^= ac;
                let ic = gf_mul(f, inv[col][j]);
                inv[row][j] ^= ic;
            }
        }
    }
    Ok(inv)
}

/// How to rebuild the `k` data stripes from one survivor set: built once
/// per set by [`ShardCodec::decode`] and reused for every page read from it.
struct DecodePlan {
    /// Fragment indices, in the order the caller passes the fragments.
    idx: Vec<usize>,
    /// Inverse of the survivors' generator rows: stripe `j` is
    /// `Σ inv[j][i] · fragment i`. Empty when every survivor is systematic —
    /// the fragments are the stripes.
    inv: Vec<Vec<u8>>,
}

/// A systematic Reed–Solomon page codec for one `(k, n)` placement.
pub struct ShardCodec {
    k: usize,
    n: usize,
    frag_len: usize,
    /// The systematic `n × k` generator matrix: rows `0..k` are the
    /// identity, rows `k..n` are the parity coefficients. Every `k × k`
    /// row submatrix is invertible.
    gen: Vec<Vec<u8>>,
    /// What [`ShardCodec::encode`] returns a borrow of. The replication
    /// path does not pass through it (see [`ShardCodec::encode_fragment`]).
    all: Vec<Vec<u8>>,
    /// Plan of the survivor set decoded last.
    plan: Option<DecodePlan>,
}

impl std::fmt::Debug for ShardCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardCodec")
            .field("k", &self.k)
            .field("n", &self.n)
            .field("frag_len", &self.frag_len)
            .finish()
    }
}

impl ShardCodec {
    /// Build the codec for quorum `k` of `n` replicas.
    /// Requires `1 ≤ k ≤ n ≤ 128`.
    pub fn new(k: u32, n: u32) -> SimResult<Self> {
        if k == 0 || k > n || n > 128 {
            return Err(SimError::Invalid(format!(
                "invalid placement (k={k}, n={n}): need 1 <= k <= n <= 128"
            )));
        }
        let (k, n) = (k as usize, n as usize);
        let frag_len = PAGE_SIZE.div_ceil(k);
        // Vandermonde rows over distinct nonzero points x_i = 2^i, brought
        // to systematic form: G = V · (V_top)⁻¹. Row-subset invertibility
        // is inherited from the Vandermonde property.
        let vand: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let x = gf_pow(2, i as u32);
                (0..k).map(|j| gf_pow(x, j as u32)).collect()
            })
            .collect();
        let top_inv = gf_invert(&vand[..k])?;
        let gen: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                (0..k)
                    .map(|j| {
                        let mut acc = 0u8;
                        for (c, row) in top_inv.iter().enumerate() {
                            acc ^= gf_mul(vand[i][c], row[j]);
                        }
                        acc
                    })
                    .collect()
            })
            .collect();
        debug_assert!((0..k).all(|i| (0..k).all(|j| gen[i][j] == u8::from(i == j))));
        Ok(ShardCodec {
            k,
            n,
            frag_len,
            gen,
            all: vec![vec![0u8; frag_len]; n],
            plan: None,
        })
    }

    /// Quorum size (fragments needed to reconstruct a page).
    pub fn k(&self) -> u32 {
        self.k as u32
    }

    /// Replica count (fragments produced per page).
    pub fn n(&self) -> u32 {
        self.n as u32
    }

    /// Bytes stored per replica per page: `ceil(PAGE_SIZE / k)`.
    pub fn frag_len(&self) -> usize {
        self.frag_len
    }

    /// Storage overhead factor relative to the unreplicated page:
    /// `n · frag_len / PAGE_SIZE` (≈ `n/k`; exactly `n` when `k = 1`).
    pub fn overhead(&self) -> f64 {
        (self.n * self.frag_len) as f64 / PAGE_SIZE as f64
    }

    /// Page bytes data stripe `j` covers. The last stripes are short (or
    /// empty, for large `k`) when `frag_len` does not divide the page; a
    /// fragment carries them zero-padded.
    fn stripe(&self, j: usize) -> Range<usize> {
        (j * self.frag_len).min(PAGE_SIZE)..((j + 1) * self.frag_len).min(PAGE_SIZE)
    }

    /// Write fragment `idx` of `page` into `dst` (`frag_len` bytes): the
    /// raw stripe for `idx < k`, the generator row applied to the stripes —
    /// read where they lie in the page — for parity.
    fn fill_fragment(&self, page: &[u8; PAGE_SIZE], idx: usize, dst: &mut [u8]) {
        debug_assert_eq!(dst.len(), self.frag_len);
        if idx < self.k {
            let stripe = &page[self.stripe(idx)];
            dst[..stripe.len()].copy_from_slice(stripe);
            dst[stripe.len()..].fill(0);
        } else {
            dst.fill(0);
            for (j, &c) in self.gen[idx].iter().enumerate() {
                let stripe = &page[self.stripe(j)];
                gf_mul_acc(&mut dst[..stripe.len()], stripe, c);
            }
        }
    }

    /// Fragment `idx` of `page`, alone, in the buffer it will be stored in:
    /// a recycled one when the thread has a spare of this codec's length
    /// that nobody else holds. A repair, which needs one fragment per page,
    /// computes no other.
    ///
    /// # Panics
    /// If `idx` is not a replica index (`idx >= n`).
    pub fn encode_fragment(&self, page: &[u8; PAGE_SIZE], idx: usize) -> FragBuf {
        assert!(
            idx < self.n,
            "fragment index {idx} out of range (n={})",
            self.n
        );
        if let Some(mut frag) = SPARE_FRAGS.with(|r| r.borrow_mut().take()) {
            if let Some(dst) = Rc::get_mut(&mut frag).filter(|d| d.len() == self.frag_len) {
                self.fill_fragment(page, idx, dst);
                return frag;
            }
        }
        let mut frag: FragBuf = std::iter::repeat_n(0u8, self.frag_len).collect();
        let dst = Rc::get_mut(&mut frag).expect("a fresh buffer has one owner");
        self.fill_fragment(page, idx, dst);
        frag
    }

    /// Encode one page into all `n` fragments (the returned slice lives in
    /// the codec — consume it before the next encode). Fragment `i < k` is
    /// the raw byte stripe `i` (systematic); fragments `k..n` are parity.
    /// `encode(page)[i]` and [`ShardCodec::encode_fragment`]`(page, i)` hold
    /// the same bytes.
    pub fn encode(&mut self, page: &[u8; PAGE_SIZE]) -> &[Vec<u8>] {
        let mut all = std::mem::take(&mut self.all);
        for (idx, frag) in all.iter_mut().enumerate() {
            self.fill_fragment(page, idx, frag);
        }
        self.all = all;
        &self.all
    }

    /// Validate a survivor set and invert its generator rows.
    fn plan_for(&self, idx: Vec<usize>) -> SimResult<DecodePlan> {
        if idx.len() != self.k {
            return Err(SimError::Invalid(format!(
                "decode needs exactly k={} fragments, got {}",
                self.k,
                idx.len()
            )));
        }
        let mut seen = [false; 128];
        for &i in &idx {
            if i >= self.n {
                return Err(SimError::Invalid(format!(
                    "fragment index {i} out of range (n={})",
                    self.n
                )));
            }
            if std::mem::replace(&mut seen[i], true) {
                return Err(SimError::Invalid(format!("duplicate fragment index {i}")));
            }
        }
        let inv = if idx.iter().all(|&i| i < self.k) {
            Vec::new()
        } else {
            let rows: Vec<Vec<u8>> = idx.iter().map(|&i| self.gen[i].clone()).collect();
            gf_invert(&rows)?
        };
        Ok(DecodePlan { idx, inv })
    }

    /// Reconstruct a page from any `k` distinct `(replica index, fragment)`
    /// pairs. Fragment lengths must equal [`ShardCodec::frag_len`]. The
    /// survivor set's matrix inverse is computed on the first call and
    /// reused while later calls name the same indices in the same order.
    pub fn decode<F: AsRef<[u8]>>(
        &mut self,
        frags: &[(usize, F)],
        out: &mut [u8; PAGE_SIZE],
    ) -> SimResult<()> {
        if let Some((_, bad)) = frags.iter().find(|(_, f)| f.as_ref().len() != self.frag_len) {
            return Err(SimError::Invalid(format!(
                "fragment length {} != frag_len {}",
                bad.as_ref().len(),
                self.frag_len
            )));
        }
        let planned = self
            .plan
            .as_ref()
            .is_some_and(|p| p.idx.iter().eq(frags.iter().map(|(i, _)| i)));
        if !planned {
            self.plan = Some(self.plan_for(frags.iter().map(|(i, _)| *i).collect())?);
        }
        let plan = self.plan.as_ref().expect("planned above");
        if plan.inv.is_empty() {
            // All-systematic fast path: the fragments are the stripes.
            for (idx, frag) in frags {
                let stripe = self.stripe(*idx);
                let len = stripe.len();
                out[stripe].copy_from_slice(&frag.as_ref()[..len]);
            }
        } else {
            for (j, row) in plan.inv.iter().enumerate() {
                let stripe = &mut out[self.stripe(j)];
                stripe.fill(0);
                for (&c, (_, frag)) in row.iter().zip(frags) {
                    gf_mul_acc(stripe, &frag.as_ref()[..stripe.len()], c);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(seed: u8) -> Box<[u8; PAGE_SIZE]> {
        let mut p = Box::new([0u8; PAGE_SIZE]);
        let mut x = seed as u32 | 1;
        for (i, b) in p.iter_mut().enumerate() {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            *b = (x >> 16) as u8 ^ (i as u8);
        }
        p
    }

    /// Every k-subset of n fragment indices.
    fn subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut idx: Vec<usize> = (0..k).collect();
        loop {
            out.push(idx.clone());
            // Next combination.
            let mut i = k;
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                if idx[i] != i + n - k {
                    break;
                }
                if i == 0 {
                    return out;
                }
            }
            idx[i] += 1;
            for j in i + 1..k {
                idx[j] = idx[j - 1] + 1;
            }
        }
    }

    #[test]
    fn gf_field_sanity() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a={a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // Commutativity + distributivity spot checks.
        assert_eq!(gf_mul(7, 9), gf_mul(9, 7));
        assert_eq!(gf_mul(3, 5 ^ 6), gf_mul(3, 5) ^ gf_mul(3, 6));
        // The table product is the shift-and-reduce product, everywhere.
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(gf_mul(a, b), gf_mul_bitwise(a, b), "{a}·{b}");
            }
        }
    }

    /// `len` deterministic bytes.
    fn noise(seed: u32, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 16) as u8
            })
            .collect()
    }

    /// The dispatched kernel, the portable kernel and a byte-by-byte
    /// reference agree for every coefficient, at lengths on both sides of
    /// the 16- and 32-byte vector steps and at unaligned offsets. The
    /// portable kernel is called directly, so a runner whose CPU takes the
    /// AVX2 path still covers it.
    #[test]
    fn kernels_agree_with_the_bytewise_reference() {
        const LENS: [usize; 11] = [0, 1, 15, 16, 17, 31, 32, 33, 1366, 2048, 4096];
        let src_buf = noise(91, PAGE_SIZE + 3);
        let dst_buf = noise(17, PAGE_SIZE + 3);
        for c in 0..=255u8 {
            for len in LENS {
                for s_off in 0..=3 {
                    let src = &src_buf[s_off..s_off + len];
                    for d_off in 0..=3 {
                        let span = d_off..d_off + len;
                        let mut want = dst_buf.clone();
                        for (d, &s) in want[span.clone()].iter_mut().zip(src) {
                            *d ^= gf_mul_bitwise(c, s);
                        }
                        // Whole buffers are compared, so a write outside the
                        // slice fails too.
                        let mut got = dst_buf.clone();
                        gf_mul_acc(&mut got[span.clone()], src, c);
                        assert!(got == want, "dispatched c={c} len={len} +{s_off}/+{d_off}");
                        let mut got = dst_buf.clone();
                        gf_mul_acc_portable(&mut got[span], src, &NIBBLES[c as usize]);
                        assert!(got == want, "portable c={c} len={len} +{s_off}/+{d_off}");
                    }
                }
            }
        }
    }

    /// Where AVX2 exists the SSSE3 kernel is never the dispatched one, so
    /// it is compared against the portable kernel by name.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn ssse3_kernel_matches_portable() {
        if !std::arch::is_x86_feature_detected!("ssse3") {
            return;
        }
        let src = noise(5, PAGE_SIZE + 1);
        for c in [1u8, 2, 0x1D, 0x80, 0xFF] {
            for len in [0usize, 15, 16, 17, 1366, 4096] {
                let table = &NIBBLES[c as usize];
                let mut got = noise(6, PAGE_SIZE + 1);
                let mut want = got.clone();
                // SAFETY: ssse3 support was just verified at runtime.
                unsafe { gf_mul_acc_ssse3(&mut got[1..1 + len], &src[..len], table) };
                gf_mul_acc_portable(&mut want[1..1 + len], &src[..len], table);
                assert!(got == want, "c={c} len={len}");
            }
        }
    }

    #[test]
    fn encode_fragment_matches_encode_for_every_index() {
        for (k, n) in [(1u32, 1u32), (1, 2), (2, 3), (3, 5), (4, 6), (127, 128)] {
            let mut c = ShardCodec::new(k, n).unwrap();
            for seed in [0u8, 77] {
                let p = page(seed);
                let all: Vec<Vec<u8>> = c.encode(&p).to_vec();
                for (i, whole) in all.iter().enumerate() {
                    let one = c.encode_fragment(&p, i);
                    assert_eq!(one.len(), c.frag_len());
                    assert_eq!(&one[..], &whole[..], "(k={k},n={n}) fragment {i}");
                }
            }
        }
    }

    #[test]
    fn recycled_fragments_hold_exactly_what_fresh_ones_would() {
        // Every index of three codecs written into spares that held another
        // page's fragments: stale bytes must not survive in the zero padding
        // of a short stripe or under a parity row.
        for (k, n) in [(2u32, 3u32), (3, 5), (127, 128)] {
            end_fragment_round();
            let mut c = ShardCodec::new(k, n).unwrap();
            let (old, new) = (page(9), page(200));
            let stale: Vec<FragBuf> = (0..n as usize)
                .map(|i| c.encode_fragment(&old, i))
                .collect();
            end_fragment_round();
            let addrs: Vec<*const u8> = stale.iter().map(|f| f.as_ptr()).collect();
            stale.into_iter().for_each(recycle_fragment);
            assert_eq!(spare_fragments(), n as usize);
            let want: Vec<Vec<u8>> = c.encode(&new).to_vec();
            for (i, whole) in want.iter().enumerate() {
                let frag = c.encode_fragment(&new, i);
                assert!(addrs.contains(&frag.as_ptr()), "(k={k},n={n}) {i}: a spare");
                assert_eq!(&frag[..], &whole[..], "(k={k},n={n}) fragment {i}");
            }
            assert_eq!(spare_fragments(), 0);
        }
        end_fragment_round();
    }

    #[test]
    fn a_spare_of_another_length_or_with_another_holder_is_left_alone() {
        end_fragment_round();
        let c23 = ShardCodec::new(2, 3).unwrap();
        let c35 = ShardCodec::new(3, 5).unwrap();
        let p = page(5);
        let held = c23.encode_fragment(&p, 2);
        let other_len = c35.encode_fragment(&p, 4);
        end_fragment_round();
        let before = held.to_vec();
        recycle_fragment(other_len);
        recycle_fragment(held.clone());
        let q = page(6);
        for i in 0..3 {
            let frag = c23.encode_fragment(&q, i);
            assert_eq!(frag.len(), c23.frag_len());
            assert!(!Rc::ptr_eq(&frag, &held));
        }
        assert_eq!(
            &held[..],
            &before[..],
            "the other holder's bytes are untouched"
        );
        end_fragment_round();
    }

    /// FNV-1a over every fragment of a fixed page, recorded from the
    /// log/exp-table codec this kernel replaced: the bytes a replica stores
    /// did not change with the arithmetic.
    #[test]
    fn fragments_are_the_bytes_the_table_codec_produced() {
        let mut p = [0u8; PAGE_SIZE];
        let mut x = 0xC0FFEEu32;
        for b in p.iter_mut() {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            *b = (x >> 16) as u8;
        }
        for (k, n, want) in [
            (2u32, 3u32, 0xdc24e7c18f366052u64),
            (3, 5, 0x32a9ce9e0b53c3c4),
            (4, 6, 0x7eea0cdd6544a094),
        ] {
            let mut c = ShardCodec::new(k, n).unwrap();
            let mut h = 0xcbf29ce484222325u64;
            for &b in c.encode(&p).iter().flatten() {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
            assert_eq!(h, want, "(k={k},n={n})");
        }
    }

    #[test]
    fn large_k_round_trips() {
        // frag_len 33 × 127 stripes overshoots the page: the last stripes
        // are empty and must neither panic nor lose bytes.
        let mut c = ShardCodec::new(127, 128).unwrap();
        let p = page(3);
        let frags: Vec<Vec<u8>> = c.encode(&p).to_vec();
        let picked: Vec<(usize, &[u8])> = (1..128).map(|i| (i, frags[i].as_slice())).collect();
        let mut out = Box::new([0u8; PAGE_SIZE]);
        c.decode(&picked, &mut out).unwrap();
        assert_eq!(&*out, &*p);
    }

    #[test]
    fn frag_len_and_overhead() {
        let c12 = ShardCodec::new(1, 2).unwrap();
        assert_eq!(c12.frag_len(), PAGE_SIZE);
        assert_eq!(c12.overhead(), 2.0, "k=1,n=2 is exactly mirroring");
        let c23 = ShardCodec::new(2, 3).unwrap();
        assert_eq!(c23.frag_len(), PAGE_SIZE / 2);
        assert_eq!(c23.overhead(), 1.5);
        let c35 = ShardCodec::new(3, 5).unwrap();
        assert_eq!(c35.frag_len(), PAGE_SIZE.div_ceil(3));
        assert!(c35.overhead() < 2.0, "coded (3,5) beats mirroring");
    }

    #[test]
    fn rejects_invalid_placements() {
        assert!(ShardCodec::new(0, 2).is_err());
        assert!(ShardCodec::new(3, 2).is_err());
        assert!(ShardCodec::new(4, 200).is_err());
        assert!(ShardCodec::new(1, 1).is_ok(), "degenerate single replica");
    }

    #[test]
    fn any_k_subset_reconstructs_byte_identically() {
        for (k, n) in [(1u32, 2u32), (2, 3), (3, 5), (1, 1), (4, 6)] {
            let mut c = ShardCodec::new(k, n).unwrap();
            let pages: Vec<_> = [0u8, 1, 77, 255].into_iter().map(page).collect();
            let coded: Vec<Vec<Vec<u8>>> = pages.iter().map(|p| c.encode(p).to_vec()).collect();
            assert!(coded.iter().all(|f| f.len() == n as usize));
            for subset in subsets(n as usize, k as usize) {
                // The first page plans the subset, the rest reuse the plan.
                for (p, frags) in pages.iter().zip(&coded) {
                    let picked: Vec<(usize, &[u8])> =
                        subset.iter().map(|&i| (i, frags[i].as_slice())).collect();
                    let mut out = Box::new([0u8; PAGE_SIZE]);
                    c.decode(&picked, &mut out).unwrap();
                    assert_eq!(&*out, &**p, "(k={k},n={n}) subset {subset:?}");
                }
            }
        }
    }

    #[test]
    fn zero_page_encodes_to_zero_parity() {
        let mut c = ShardCodec::new(2, 4).unwrap();
        let frags = c.encode(&[0u8; PAGE_SIZE]);
        for f in frags {
            assert!(f.iter().all(|&b| b == 0));
        }
    }

    #[test]
    fn k1_fragments_are_full_page_copies() {
        let mut c = ShardCodec::new(1, 3).unwrap();
        let p = page(42);
        let frags = c.encode(&p);
        for f in frags {
            assert_eq!(f.as_slice(), &p[..], "k=1: every replica holds the page");
        }
    }

    #[test]
    fn decode_input_validation() {
        let mut c = ShardCodec::new(2, 3).unwrap();
        let p = page(9);
        let frags: Vec<Vec<u8>> = c.encode(&p).to_vec();
        let mut out = Box::new([0u8; PAGE_SIZE]);
        // Too few fragments.
        assert!(c.decode(&[(0, frags[0].as_slice())], &mut out).is_err());
        // Duplicate index.
        assert!(c
            .decode(&[(1, frags[1].as_slice()), (1, frags[1].as_slice())], &mut out)
            .is_err());
        // Out-of-range index.
        assert!(c
            .decode(&[(0, frags[0].as_slice()), (3, frags[1].as_slice())], &mut out)
            .is_err());
        // Wrong length.
        assert!(c
            .decode(&[(0, &frags[0][1..]), (1, frags[1].as_slice())], &mut out)
            .is_err());
    }

    #[test]
    fn encode_is_deterministic_across_codecs() {
        let mut a = ShardCodec::new(3, 5).unwrap();
        let mut b = ShardCodec::new(3, 5).unwrap();
        let p = page(13);
        assert_eq!(a.encode(&p).to_vec(), b.encode(&p).to_vec());
    }

    #[test]
    fn repair_reencode_matches_original_fragment() {
        // Losing replica 1 and regenerating its fragment from k peers must
        // produce the exact original fragment — the coded-repair invariant.
        let mut c = ShardCodec::new(2, 3).unwrap();
        let p = page(200);
        let frags: Vec<Vec<u8>> = c.encode(&p).to_vec();
        // Reconstruct the page from replicas {0, 2}, then re-encode.
        let mut out = Box::new([0u8; PAGE_SIZE]);
        c.decode(&[(0, frags[0].as_slice()), (2, frags[2].as_slice())], &mut out)
            .unwrap();
        let again = c.encode(&out);
        assert_eq!(again[1], frags[1], "regenerated shard is byte-identical");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Whatever is handed to `decode` — the wrong number of fragments,
        /// truncated or over-long ones, duplicate or out-of-range indices —
        /// the answer is the page or a `SimError`, never a panic, and a
        /// rejected call leaves the codec able to decode the next good one.
        #[test]
        fn malformed_decode_input_is_an_error_not_a_panic(
            placement in 0usize..4,
            picks in proptest::collection::vec((0usize..10, 0usize..8), 0..7),
        ) {
            let (k, n) = [(1u32, 2u32), (2, 3), (3, 5), (4, 6)][placement];
            let mut c = ShardCodec::new(k, n).unwrap();
            let p = page(placement as u8);
            let frags: Vec<Vec<u8>> = c.encode(&p).to_vec();
            let frag_len = c.frag_len();
            // Index 9 stands for one past the codec's 128-replica limit;
            // length class 3 truncates, 4 over-runs, the rest are exact.
            let picks: Vec<(usize, usize)> = picks
                .into_iter()
                .map(|(idx, len_class)| (if idx == 9 { 200 } else { idx }, len_class))
                .collect();
            let bufs: Vec<(usize, Vec<u8>)> = picks
                .iter()
                .map(|&(idx, len_class)| {
                    let mut f = frags.get(idx).cloned().unwrap_or_else(|| vec![0; frag_len]);
                    match len_class {
                        3 => f.truncate(frag_len - 1),
                        4 => f.push(0),
                        _ => {}
                    }
                    (idx, f)
                })
                .collect();
            let input: Vec<(usize, &[u8])> = bufs.iter().map(|(i, f)| (*i, &f[..])).collect();
            let mut distinct: Vec<usize> = picks.iter().map(|p| p.0).collect();
            distinct.sort_unstable();
            distinct.dedup();
            let well_formed = picks.len() == k as usize
                && distinct.len() == picks.len()
                && picks
                    .iter()
                    .all(|&(idx, len_class)| idx < n as usize && !matches!(len_class, 3 | 4));
            let mut out = Box::new([0u8; PAGE_SIZE]);
            match c.decode(&input, &mut out) {
                Ok(()) => {
                    proptest::prop_assert!(well_formed, "accepted {picks:?}");
                    proptest::prop_assert!(*out == *p);
                }
                Err(e) => {
                    proptest::prop_assert!(!well_formed, "rejected {picks:?}: {e}");
                    proptest::prop_assert!(matches!(e, SimError::Invalid(_)));
                }
            }
            let good: Vec<(usize, &[u8])> =
                ((n - k) as usize..n as usize).map(|i| (i, &frags[i][..])).collect();
            c.decode(&good, &mut out).unwrap();
            proptest::prop_assert!(*out == *p);
        }
    }
}
