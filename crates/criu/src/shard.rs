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
//! The generator's parity block is scaled so that its first row and first
//! column are all ones: the first parity fragment is the XOR of the stripes
//! (`s0 ⊕ s1` at `(2,3)`), and every parity fragment starts as a copy of
//! stripe 0. The field arithmetic runs through one kernel, `gf_mul_into`
//! (`dst = c · src` or `dst ^= c · src`, 32 bytes per step where the CPU has
//! `pshufb`; a copy or a plain XOR where `c = 1`), and a fragment is written
//! exactly once, into the heap buffer the replica's store will keep
//! ([`ShardCodec::encode_fragment`], [`ShardCodec::regenerate_fragment`]):
//! nothing is staged in codec scratch and copied out. That buffer is, in
//! steady state, one a commit displaced from a store an epoch earlier
//! ([`recycle_fragment`]). Decoding inverts the survivors' generator rows once
//! per survivor set, not once per page.

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

/// `dst[i] = c · src[i]`, or with `ACC` `dst[i] ^= c · src[i]`, over GF(2⁸)
/// — the one inner loop of encode, decode and regeneration. A product by 1
/// is a copy or a plain XOR ([`xor_into`]); any other dispatches to the
/// widest `pshufb` the CPU has (`is_x86_feature_detected!` caches its CPUID
/// probe), and the portable loop reads the same tables a byte at a time.
#[inline]
fn gf_mul_into<const ACC: bool>(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "gf_mul_into operands differ");
    match (c, ACC) {
        (0, true) => return,
        (0, false) => return dst.fill(0),
        (1, true) => return xor_into(dst, src),
        (1, false) => return dst.copy_from_slice(src),
        _ => {}
    }
    let table = &NIBBLES[c as usize];
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 support was just verified at runtime.
            return unsafe { gf_mul_into_avx2::<ACC>(dst, src, table) };
        }
        if std::arch::is_x86_feature_detected!("ssse3") {
            // SAFETY: ssse3 support was just verified at runtime.
            return unsafe { gf_mul_into_ssse3::<ACC>(dst, src, table) };
        }
    }
    gf_mul_into_portable::<ACC>(dst, src, table)
}

/// `dst = Σ c · src` over the `(c, src)` terms, a `src` shorter than `dst`
/// counting as zero-padded: the first term with a nonzero coefficient is
/// written (a copy when it is 1), the rest are accumulated, and nothing is
/// zero-filled first.
fn combine<'a>(dst: &mut [u8], terms: impl IntoIterator<Item = (u8, &'a [u8])>) {
    let mut first = true;
    for (c, src) in terms.into_iter().filter(|&(c, _)| c != 0) {
        let (head, tail) = dst.split_at_mut(src.len());
        if std::mem::take(&mut first) {
            gf_mul_into::<false>(head, src, c);
            tail.fill(0);
        } else {
            gf_mul_into::<true>(head, src, c);
        }
    }
    if first {
        dst.fill(0);
    }
}

/// `dst ^= src`: the product by 1 needs no table. The compiler vectorizes
/// this loop for the baseline target.
#[inline]
fn xor_into(dst: &mut [u8], src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Portable kernel, and the tail of the vector ones.
fn gf_mul_into_portable<const ACC: bool>(dst: &mut [u8], src: &[u8], table: &[u8; 32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        let p = table[(s & 15) as usize] ^ table[16 + (s >> 4) as usize];
        *d = if ACC { *d ^ p } else { p };
    }
}

/// AVX2 kernel: both 16-entry tables broadcast to the two 128-bit lanes,
/// one `vpshufb` per nibble half, 32 products per step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gf_mul_into_avx2<const ACC: bool>(dst: &mut [u8], src: &[u8], table: &[u8; 32]) {
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
            let mut p = _mm256_xor_si256(l, h);
            if ACC {
                p = _mm256_xor_si256(p, _mm256_loadu_si256(d.as_ptr() as *const _));
            }
            _mm256_storeu_si256(d.as_mut_ptr() as *mut _, p);
        }
    }
    gf_mul_into_portable::<ACC>(d_chunks.into_remainder(), s_chunks.remainder(), table);
}

/// SSSE3 kernel: the same two-`pshufb` product, 16 bytes per step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn gf_mul_into_ssse3<const ACC: bool>(dst: &mut [u8], src: &[u8], table: &[u8; 32]) {
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
            let mut p = _mm_xor_si128(l, h);
            if ACC {
                p = _mm_xor_si128(p, _mm_loadu_si128(d.as_ptr() as *const _));
            }
            _mm_storeu_si128(d.as_mut_ptr() as *mut _, p);
        }
    }
    gf_mul_into_portable::<ACC>(d_chunks.into_remainder(), s_chunks.remainder(), table);
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
    /// identity, rows `k..n` are the parity coefficients, whose first row
    /// and first column are all ones. Every `k × k` row submatrix is
    /// invertible.
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
    /// The placement shape a codec exists for: `1 ≤ k ≤ n ≤ 128`. The one
    /// copy of the rule — [`ShardCodec::new`] and the engines' config
    /// validation both call it.
    pub fn check(k: u32, n: u32) -> SimResult<()> {
        if k == 0 || k > n || n > 128 {
            return Err(SimError::Invalid(format!(
                "invalid placement (k={k}, n={n}): need 1 <= k <= n <= 128"
            )));
        }
        Ok(())
    }

    /// Build the codec for quorum `k` of `n` replicas ([`ShardCodec::check`]).
    pub fn new(k: u32, n: u32) -> SimResult<Self> {
        Self::check(k, n)?;
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
        let mut gen: Vec<Vec<u8>> = (0..n)
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
        // Scale the parity block P to D1·P·D2 with nonzero diagonals: D2
        // makes the first parity row ones, D1 the first column. A k × k
        // row submatrix's determinant only gains nonzero factors, so the
        // code stays MDS (every entry of P is a 1 × 1 minor, hence nonzero).
        if n > k {
            let cols: Vec<u8> = gen[k].iter().map(|&c| gf_inv(c)).collect();
            for row in &mut gen[k..] {
                let r = gf_inv(gf_mul(row[0], cols[0]));
                for (c, &d) in row.iter_mut().zip(&cols) {
                    *c = gf_mul(gf_mul(*c, d), r);
                }
            }
        }
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
    /// generator row applied to the stripes, read where they lie in the
    /// page — the raw stripe for `idx < k`.
    fn fill_fragment(&self, page: &[u8; PAGE_SIZE], idx: usize, dst: &mut [u8]) {
        debug_assert_eq!(dst.len(), self.frag_len);
        let stripes = (0..self.k).map(|j| &page[self.stripe(j)]);
        combine(dst, self.gen[idx].iter().copied().zip(stripes));
    }

    /// A `frag_len`-byte buffer written by `fill`: a recycled one when the
    /// thread has a spare of this codec's length that nobody else holds.
    fn fragment_with(&self, fill: impl FnOnce(&mut [u8])) -> FragBuf {
        if let Some(mut frag) = SPARE_FRAGS.with(|r| r.borrow_mut().take()) {
            if let Some(dst) = Rc::get_mut(&mut frag).filter(|d| d.len() == self.frag_len) {
                fill(dst);
                return frag;
            }
        }
        let mut frag: FragBuf = std::iter::repeat_n(0u8, self.frag_len).collect();
        fill(Rc::get_mut(&mut frag).expect("a fresh buffer has one owner"));
        frag
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
        self.fragment_with(|dst| self.fill_fragment(page, idx, dst))
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

    /// Make `plan` the one for the survivor set `frags` names, built if it
    /// is not the last one used: fragment lengths and indices are checked
    /// here.
    fn ensure_plan<F: AsRef<[u8]>>(&mut self, frags: &[(usize, F)]) -> SimResult<()> {
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
        Ok(())
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
        self.ensure_plan(frags)?;
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
                let len = stripe.len();
                let terms = frags.iter().map(|(_, f)| &f.as_ref()[..len]);
                combine(stripe, row.iter().copied().zip(terms));
            }
        }
        Ok(())
    }

    /// Fragment `target` of the page that `k` distinct `(replica index,
    /// fragment)` pairs encode, without the page: row `gen[target] · inv`
    /// of the survivors' decode plan applied to the fragments, written into
    /// a buffer as [`ShardCodec::encode_fragment`] picks one. At `(2,3)`,
    /// fragment 0 from fragments 1 and 2 is `f1 ⊕ f2`. Holds the bytes
    /// `encode_fragment(decode(frags), target)` would; the row costs `k²`
    /// table products a call, against a fragment's worth of XOR.
    pub fn regenerate_fragment<F: AsRef<[u8]>>(
        &mut self,
        frags: &[(usize, F)],
        target: usize,
    ) -> SimResult<FragBuf> {
        if target >= self.n {
            return Err(SimError::Invalid(format!(
                "fragment index {target} out of range (n={})",
                self.n
            )));
        }
        self.ensure_plan(frags)?;
        let plan = self.plan.as_ref().expect("planned above");
        // Stripe j is Σ inv[j][i] · fragment i (fragment i is stripe idx[i]
        // when the plan is the identity), so fragment `target` is
        // Σ row[i] · fragment i. k ≤ 128 ([`ShardCodec::check`]).
        let gen = &self.gen[target];
        let mut row = [0u8; 128];
        for (i, r) in row[..self.k].iter_mut().enumerate() {
            *r = match plan.inv.is_empty() {
                true => gen[plan.idx[i]],
                false => (0..self.k).fold(0, |acc, j| acc ^ gf_mul(gen[j], plan.inv[j][i])),
            };
        }
        let terms = row.iter().copied().zip(frags.iter().map(|(_, f)| f.as_ref()));
        Ok(self.fragment_with(|dst| combine(dst, terms)))
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
    /// reference agree for every coefficient, accumulating or not, at
    /// lengths on both sides of the 16- and 32-byte vector steps and at
    /// unaligned offsets. The portable kernel is called directly, so a
    /// runner whose CPU takes the AVX2 path still covers it.
    #[test]
    fn kernels_agree_with_the_bytewise_reference() {
        fn check<const ACC: bool>(src_buf: &[u8], dst_buf: &[u8]) {
            const LENS: [usize; 11] = [0, 1, 15, 16, 17, 31, 32, 33, 1366, 2048, 4096];
            for c in 0..=255u8 {
                for len in LENS {
                    for s_off in 0..=3 {
                        let src = &src_buf[s_off..s_off + len];
                        for d_off in 0..=3 {
                            let span = d_off..d_off + len;
                            let mut want = dst_buf.to_vec();
                            for (d, &s) in want[span.clone()].iter_mut().zip(src) {
                                *d = gf_mul_bitwise(c, s) ^ if ACC { *d } else { 0 };
                            }
                            let at = format!("ACC={ACC} c={c} len={len} +{s_off}/+{d_off}");
                            // Whole buffers are compared, so a write outside
                            // the slice fails too.
                            let mut got = dst_buf.to_vec();
                            gf_mul_into::<ACC>(&mut got[span.clone()], src, c);
                            assert!(got == want, "dispatched {at}");
                            let mut got = dst_buf.to_vec();
                            let table = &NIBBLES[c as usize];
                            gf_mul_into_portable::<ACC>(&mut got[span.clone()], src, table);
                            assert!(got == want, "portable {at}");
                        }
                    }
                }
            }
        }
        let src_buf = noise(91, PAGE_SIZE + 3);
        let dst_buf = noise(17, PAGE_SIZE + 3);
        check::<true>(&src_buf, &dst_buf);
        check::<false>(&src_buf, &dst_buf);
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
                let (d, s) = (1..1 + len, &src[..len]);
                let mut got = noise(6, PAGE_SIZE + 1);
                let mut want = got.clone();
                // SAFETY: ssse3 support was just verified at runtime.
                unsafe { gf_mul_into_ssse3::<true>(&mut got[d.clone()], s, table) };
                gf_mul_into_portable::<true>(&mut want[d.clone()], s, table);
                assert!(got == want, "accumulating c={c} len={len}");
                // SAFETY: as above.
                unsafe { gf_mul_into_ssse3::<false>(&mut got[d.clone()], s, table) };
                gf_mul_into_portable::<false>(&mut want[d], s, table);
                assert!(got == want, "writing c={c} len={len}");
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

    /// The normalised generator, built here from its definition with the
    /// shift-and-reduce product only: the systematic Vandermonde code over
    /// `x_i = 2^i` is Lagrange interpolation through the top `k` points,
    /// `P[r][j] = Π_{m≠j} (x_r ⊕ x_m) / (x_j ⊕ x_m)`, and the scaling makes
    /// `P'[r][j] = P[r][j] · P[k][0] / (P[k][j] · P[r][0])`.
    fn bitwise_generator(k: usize, n: usize) -> Vec<Vec<u8>> {
        let pow = |b: u8, e: usize| (0..e).fold(1u8, |a, _| gf_mul_bitwise(a, b));
        let inv = |a: u8| pow(a, 254);
        let x = |i: usize| pow(2, i);
        let lagrange = |r: usize, j: usize| {
            (0..k).filter(|&m| m != j).fold(1u8, |a, m| {
                let t = gf_mul_bitwise(x(r) ^ x(m), inv(x(j) ^ x(m)));
                gf_mul_bitwise(a, t)
            })
        };
        (0..n)
            .map(|r| {
                (0..k)
                    .map(|j| match r < k {
                        true => u8::from(r == j),
                        false => {
                            let num = gf_mul_bitwise(lagrange(r, j), lagrange(k, 0));
                            gf_mul_bitwise(num, inv(gf_mul_bitwise(lagrange(k, j), lagrange(r, 0))))
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// FNV-1a over every fragment of a fixed page: the data fragments are
    /// the bytes the log/exp-table codec stored, the parity fragments the
    /// normalised generator's. The pinned values come from a bytewise
    /// encoder over [`bitwise_generator`], which shares no arithmetic with
    /// the kernels.
    #[test]
    fn fragments_are_the_bytes_the_table_codec_produced() {
        let mut p = [0u8; PAGE_SIZE];
        let mut x = 0xC0FFEEu32;
        for b in p.iter_mut() {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            *b = (x >> 16) as u8;
        }
        let fnv = |bytes: &mut dyn Iterator<Item = u8>| {
            bytes.fold(0xcbf29ce484222325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100000001b3)
            })
        };
        for (k, n, want) in [
            (2usize, 3usize, 0x74e92eef8c38d5c9u64),
            (3, 5, 0xd7def039aa1950ce),
            (4, 6, 0x1cdc99e0bb7116c7),
        ] {
            let gen = bitwise_generator(k, n);
            let frag_len = PAGE_SIZE.div_ceil(k);
            let stripe = |j: usize, b: usize| p.get(j * frag_len + b).filter(|_| b < frag_len);
            let bytewise = (0..n).flat_map(|i| (0..frag_len).map(move |b| (i, b)));
            let mut bytewise = bytewise.map(|(i, b)| {
                (0..k).fold(0u8, |acc, j| {
                    acc ^ gf_mul_bitwise(gen[i][j], *stripe(j, b).unwrap_or(&0))
                })
            });
            assert_eq!(fnv(&mut bytewise), want, "bytewise (k={k},n={n})");
            let mut c = ShardCodec::new(k as u32, n as u32).unwrap();
            let mut coded = c.encode(&p).iter().flatten().copied();
            assert_eq!(fnv(&mut coded), want, "(k={k},n={n})");
        }
    }

    /// For every `1 ≤ k ≤ n ≤ 12` the generator is the normalised one: its
    /// first parity row and column are ones, and every `k × k` row
    /// submatrix inverts (the code is MDS).
    #[test]
    fn normalised_generator_keeps_every_row_subset_invertible() {
        for n in 1..=12usize {
            for k in 1..=n {
                let c = ShardCodec::new(k as u32, n as u32).unwrap();
                assert_eq!(c.gen, bitwise_generator(k, n), "(k={k},n={n})");
                if n > k {
                    assert!(c.gen[k].iter().all(|&g| g == 1), "(k={k},n={n}) row");
                    assert!(c.gen[k..].iter().all(|r| r[0] == 1), "(k={k},n={n}) column");
                }
                for subset in subsets(n, k) {
                    let rows: Vec<Vec<u8>> = subset.iter().map(|&i| c.gen[i].clone()).collect();
                    assert!(gf_invert(&rows).is_ok(), "(k={k},n={n}) {subset:?}");
                }
            }
        }
    }

    #[test]
    fn regenerated_fragment_is_the_reencoded_decode() {
        for (k, n) in [(2u32, 3u32), (2, 4), (3, 5), (4, 6)] {
            let mut c = ShardCodec::new(k, n).unwrap();
            for seed in [0u8, 77] {
                let p = page(seed);
                let frags: Vec<Vec<u8>> = c.encode(&p).to_vec();
                for subset in subsets(n as usize, k as usize) {
                    let picked: Vec<(usize, &[u8])> =
                        subset.iter().map(|&i| (i, frags[i].as_slice())).collect();
                    let mut page = Box::new([0u8; PAGE_SIZE]);
                    c.decode(&picked, &mut page).unwrap();
                    for target in 0..n as usize {
                        let want = c.encode_fragment(&page, target);
                        let got = c.regenerate_fragment(&picked, target).unwrap();
                        assert_eq!(&got[..], &want[..], "(k={k},n={n}) {subset:?} -> {target}");
                    }
                }
            }
            let zeros = |i| (i, vec![0u8; c.frag_len()]);
            let picked: Vec<(usize, Vec<u8>)> = (0..k as usize).map(zeros).collect();
            let out_of_range = c.regenerate_fragment(&picked, n as usize);
            assert!(out_of_range.is_err(), "target out of range");
            let too_few = c.regenerate_fragment(&picked[1..], 0);
            assert!(too_few.is_err(), "too few fragments");
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
