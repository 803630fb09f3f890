//! Page-delta encoding for the epoch state transfer.
//!
//! NiLiCon's per-epoch wire volume is dominated by dirty pages, and every
//! dirty page ships its full 4 KiB body even when only a few cache lines
//! changed (§V, Table I). HyCoR (Zhou & Tamir, arXiv:2101.09584) attacks
//! exactly this: shrink what must cross the replication link per epoch. The
//! base a delta is taken against is the backup's committed image — the page
//! store the backup agent keeps anyway (§III–IV); the primary holds no copy
//! of it. The backup applies epochs strictly in order, so while epoch `e` is
//! encoded the store holds exactly what `e`'s deltas will be applied to.
//!
//! * [`encode_against`] classifies one dirty page against the store's copy
//!   as a **zero page** (elided — a one-word marker), an **XOR delta**
//!   (sparse word-level diff, run-length encoded), or a **full page** (no
//!   committed copy, or churn so dense the delta would not pay). It is pure:
//!   it reads the base and updates nothing but the epoch's [`DeltaStats`].
//! * [`PageEncoding::apply`] and `PageStore::apply_delta` are the
//!   backup-side inverse, which rebuild the exact page bytes from the base —
//!   the committed image is byte-identical to the full-page path, one buffer
//!   per committed page version.
//! * [`ShadowStore`] is a receiver model: encode, then apply, over a map of
//!   its own, for benchmarks and tests that need both ends without an agent.
//!
//! The encoder touches bytes in proportion to what changed. It reads the
//! dirty page through a borrow (the COW drain lends the live frame together
//! with the set of 64-byte lines the guest wrote), computes the per-word diff
//! bitmap once with a vector kernel over those lines only, and derives the
//! exact encoded size from the bitmap alone. Only then does it build
//! anything: a sparse page gets its runs (two exact allocations); a page
//! that ships whole asks the caller for a [`PageBuf`] (refcounted, immutable
//! while shared) that the wire encoding and the backup store then share
//! without further copies. The backup side mirrors this:
//! [`DeltaPage::xor_into`] patches the resident page where it lies.
//!
//! Per-epoch classification and byte accounting accumulate in [`DeltaStats`]
//! (the `DeltaEncode` trace span and `trace-report`'s encoded-vs-raw column).

use crate::pagestore::PageKey;
use nilicon_sim::ids::IdMap;
use nilicon_sim::mem::{ALL_LINES, LINE_BYTES};
use nilicon_sim::{zero_page, PageBuf, PAGE_SIZE};
use std::rc::Rc;

/// 64-bit words per page (the XOR diff granularity).
pub const WORDS_PER_PAGE: usize = PAGE_SIZE / 8;

/// 64-word chunks per page: one `u64` of the diff bitmap each.
const BITMAP_CHUNKS: usize = WORDS_PER_PAGE / 64;

/// Wire-size model: every encoded page carries one 8-byte header word
/// (class tag + vpn-relative addressing).
const HEADER_BYTES: u64 = 8;
/// Wire-size model: each run costs one offset/length word plus its payload.
const RUN_HEADER_BYTES: u64 = 8;

/// Modeled wire bytes of a delta of `runs` runs over `words` changed words.
/// The one formula both the classifier (which knows only the counts) and
/// [`PageEncoding::encoded_bytes`] (which has the built page) use.
fn delta_wire_bytes(runs: usize, words: usize) -> u64 {
    HEADER_BYTES + RUN_HEADER_BYTES * runs as u64 + 8 * words as u64
}

/// One run of consecutive changed 64-bit words within a page.
///
/// A run is a descriptor only — its XOR payload lives in the owning
/// [`DeltaPage`]'s flat `xor_words` vector. Per-run payload storage would
/// cost one heap allocation per run, which dominates encode time for the
/// common case of scattered single-word edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaRun {
    /// Word offset of the run within the page (`0..WORDS_PER_PAGE`).
    pub word_off: u16,
    /// Number of consecutive changed words in the run.
    pub len: u16,
}

/// Sparse XOR diff of one page: run descriptors over a single flat payload
/// (two allocations total, regardless of how scattered the edits are).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaPage {
    /// Maximal runs of consecutive changed words, ascending by `word_off`.
    pub runs: Vec<DeltaRun>,
    /// Concatenated XOR payloads of all runs, in run order (applying the
    /// delta XORs these back into the base page).
    pub xor_words: Vec<u64>,
}

impl DeltaPage {
    /// Total changed words across all runs.
    pub fn words(&self) -> usize {
        self.xor_words.len()
    }

    /// Iterate `(word_off, xor_words)` per run.
    pub fn iter_runs(&self) -> impl Iterator<Item = (u16, &[u64])> {
        let mut cursor = 0usize;
        self.runs.iter().map(move |r| {
            let words = &self.xor_words[cursor..cursor + r.len as usize];
            cursor += r.len as usize;
            (r.word_off, words)
        })
    }

    /// XOR the runs into `page`, turning the contents the delta was taken
    /// against into the contents it encodes. Touches only the changed words.
    pub fn xor_into(&self, page: &mut [u8; PAGE_SIZE]) {
        for (word_off, words) in self.iter_runs() {
            let start = word_off as usize * 8;
            let dst = &mut page[start..start + words.len() * 8];
            for (bytes, xw) in dst.chunks_exact_mut(8).zip(words) {
                let w = u64::from_le_bytes((&*bytes).try_into().expect("8-byte chunk")) ^ xw;
                bytes.copy_from_slice(&w.to_le_bytes());
            }
        }
    }
}

/// How one dirty page crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageEncoding {
    /// The page is entirely zero: send a one-word marker, no body.
    Zero,
    /// Sparse change: run-length-encoded XOR against the previous epoch's
    /// contents of the same page.
    Delta(DeltaPage),
    /// Full 4 KiB body (first touch of the page, or dense churn where the
    /// delta encoding would not be smaller). Shares the captured buffer —
    /// encoding a full page allocates nothing.
    Full(PageBuf),
}

impl PageEncoding {
    /// Classification name (stats and reports).
    pub fn class(&self) -> &'static str {
        match self {
            PageEncoding::Zero => "zero",
            PageEncoding::Delta(_) => "delta",
            PageEncoding::Full(_) => "full",
        }
    }

    /// Modeled wire bytes of this encoding (what `transfer_cost` charges).
    pub fn encoded_bytes(&self) -> u64 {
        match self {
            PageEncoding::Zero => HEADER_BYTES,
            PageEncoding::Delta(dp) => delta_wire_bytes(dp.runs.len(), dp.xor_words.len()),
            PageEncoding::Full(_) => HEADER_BYTES + PAGE_SIZE as u64,
        }
    }

    /// Reconstruct the exact page bytes this encoding represents, given the
    /// receiver's current copy of the page (`None` if the page was never seen
    /// — only `Zero` and `Full` are self-contained; a `Delta` without a base
    /// is image corruption, which `BackupAgent::commit` rejects before it
    /// gets here; this function stays total by patching an all-zero base).
    pub fn apply(&self, base: Option<&[u8; PAGE_SIZE]>) -> PageBuf {
        match self {
            PageEncoding::Zero => zero_page(),
            PageEncoding::Full(data) => data.clone(),
            PageEncoding::Delta(dp) => {
                let mut page = match base {
                    Some(b) => Rc::new(*b),
                    None => zero_page(),
                };
                // The shared zero page is cloned here, never written.
                dp.xor_into(Rc::make_mut(&mut page));
                page
            }
        }
    }
}

/// Per-epoch delta-pipeline accounting (feeds the `DeltaEncode` trace span).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Pages elided as all-zero.
    pub zero_pages: u64,
    /// Pages shipped as sparse XOR deltas.
    pub delta_pages: u64,
    /// Pages shipped in full (first touch / dense churn).
    pub full_pages: u64,
    /// Raw bytes the full-page path would have shipped (`pages × 4 KiB`).
    pub raw_bytes: u64,
    /// Bytes actually put on the wire after encoding.
    pub encoded_bytes: u64,
}

impl DeltaStats {
    /// Total pages classified this epoch.
    pub fn pages(&self) -> u64 {
        self.zero_pages + self.delta_pages + self.full_pages
    }

    /// Accumulate another epoch's stats (run totals in reports).
    pub fn merge(&mut self, other: &DeltaStats) {
        self.zero_pages += other.zero_pages;
        self.delta_pages += other.delta_pages;
        self.full_pages += other.full_pages;
        self.raw_bytes += other.raw_bytes;
        self.encoded_bytes += other.encoded_bytes;
    }
}

/// Classify and encode one dirty page against `base`, the receiver's copy of
/// it (`None`: the receiver holds no copy, so a non-zero page ships whole),
/// and account it in `stats`. Nothing else is updated: whoever holds `base`
/// rebuilds the page from the encoding ([`PageEncoding::apply`],
/// `PageStore::apply_delta`).
///
/// `data` is read where it lies — a captured buffer, or a live frame the COW
/// drain lends. `full` hands over the buffer a page that ships whole keeps,
/// and is called at most once, only then.
///
/// `lines` is the page's written-line set: bit `l` clear promises that bytes
/// `64 l .. 64 l + 64` of `data` equal `base`'s, and the diff reads only the
/// lines whose bit is set — as does the zero test, unless every one of them
/// is zero. It may over-approximate ([`ALL_LINES`] is always right); a debug
/// build recomputes the diff over every line and asserts that the two agree.
pub fn encode_against(
    base: Option<&[u8; PAGE_SIZE]>,
    data: &[u8; PAGE_SIZE],
    lines: u64,
    full: impl FnOnce() -> PageBuf,
    stats: &mut DeltaStats,
) -> PageEncoding {
    let enc = if is_zero_page(data, lines) {
        PageEncoding::Zero
    } else if let Some(base) = base {
        let bm = diff_word_bitmap(base, data, lines);
        debug_assert_eq!(
            bm,
            diff_word_bitmap(base, data, ALL_LINES),
            "a line outside {lines:#x} differs from the base"
        );
        let (words, runs) = diff_shape(&bm);
        if delta_wire_bytes(runs, words) < PAGE_SIZE as u64 {
            PageEncoding::Delta(build_runs(&bm, words, runs, base, data))
        } else {
            // Dense churn: the diff would not beat the raw page.
            PageEncoding::Full(full())
        }
    } else {
        PageEncoding::Full(full())
    };
    match enc {
        PageEncoding::Zero => stats.zero_pages += 1,
        PageEncoding::Delta(_) => stats.delta_pages += 1,
        PageEncoding::Full(_) => stats.full_pages += 1,
    }
    stats.raw_bytes += PAGE_SIZE as u64;
    stats.encoded_bytes += enc.encoded_bytes();
    enc
}

/// A model of the receiver's page store, keyed like it: each page is
/// encoded against the copy the model holds and then rebuilt from its
/// encoding, as the backup rebuilds it at commit — so the model always holds
/// what the backup would have committed from the same pages. Benchmarks and
/// tests use it as a self-contained sender/receiver pair; the engine encodes
/// against the backup's store itself.
#[derive(Debug, Default)]
pub struct ShadowStore {
    pages: IdMap<PageKey, PageBuf>,
}

impl ShadowStore {
    /// Empty model (before the initial sync).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pages currently held.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True before any page was encoded.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The model's copy of `key`: what the backup would hold for it.
    pub fn get(&self, key: PageKey) -> Option<&PageBuf> {
        self.pages.get(&key)
    }

    /// Drop the pages of `pid` in `vpns`, as the backup's commit prunes a
    /// range the container unmapped ([`crate::image::unmapped_since`]): a
    /// page mapped there later has no base and ships whole.
    pub fn remove_range(&mut self, pid: nilicon_sim::ids::Pid, vpns: std::ops::Range<u64>) {
        self.pages
            .retain(|key, _| key.pid != pid || !vpns.contains(&key.vpn));
    }

    /// [`encode_against`] the model's copy of `key`, every line compared (a
    /// captured buffer does not say where it was written), then apply the
    /// encoding to that copy. A page that ships whole shares `data`'s
    /// buffer; a delta patches the copy in place unless another holder
    /// shares it, in which case the model takes `data`'s buffer instead —
    /// the contents the patch would produce.
    pub fn encode(&mut self, key: PageKey, data: &PageBuf, stats: &mut DeltaStats) -> PageEncoding {
        let Some(page) = self.pages.get_mut(&key) else {
            let enc = encode_against(None, data, ALL_LINES, || data.clone(), stats);
            self.pages.insert(key, enc.apply(None));
            return enc;
        };
        let enc = encode_against(Some(page), data, ALL_LINES, || data.clone(), stats);
        match &enc {
            PageEncoding::Delta(dp) => match Rc::get_mut(page) {
                Some(own) => dp.xor_into(own),
                None => *page = data.clone(),
            },
            _ => *page = enc.apply(None),
        }
        enc
    }
}

/// All-zero check, one 64-byte block compare at a time (vectorized memcmp).
/// The lines of `lines` — where the page was written — are read first: a
/// page the guest wrote a non-zero byte into is settled there and never read
/// outside them. Only when they are all zero (or `lines` is [`ALL_LINES`],
/// which says nothing) is the whole page scanned; an unwritten line can hold
/// anything, so it is never taken for zero unread.
fn is_zero_page(data: &[u8; PAGE_SIZE], lines: u64) -> bool {
    const ZERO_BLOCK: [u8; LINE_BYTES] = [0u8; LINE_BYTES];
    let mut left = if lines == ALL_LINES { 0 } else { lines };
    while left != 0 {
        let off = left.trailing_zeros() as usize * LINE_BYTES;
        left &= left - 1;
        if data[off..off + LINE_BYTES] != ZERO_BLOCK {
            return false;
        }
    }
    data.chunks_exact(LINE_BYTES).all(|b| b == ZERO_BLOCK)
}

/// Per-word diff bitmap of a page over the lines of `lines`: bit `w` of
/// `result[w / 64]` is set iff 64-bit word `w` lies in one of those lines and
/// differs between `old` and `new`; the other lines are not read. Dispatches
/// to the widest vector kernel the CPU supports; `is_x86_feature_detected!`
/// caches its CPUID probe, so the per-call dispatch cost is a predicted
/// branch.
#[inline]
fn diff_word_bitmap(
    old: &[u8; PAGE_SIZE],
    new: &[u8; PAGE_SIZE],
    lines: u64,
) -> [u64; BITMAP_CHUNKS] {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f support was just verified at runtime.
            return unsafe { diff_word_bitmap_avx512(old, new, lines) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 support was just verified at runtime.
            return unsafe { diff_word_bitmap_avx2(old, new, lines) };
        }
    }
    diff_word_bitmap_scalar(old, new, lines)
}

/// Assemble the bitmap from `block(l)`, the eight inequality bits of the
/// words of line `l`, over the lines of `lines`: eight lines of 64 bytes are
/// the 64 words one bitmap entry covers. Every line — the eager paths — is
/// the fixed walk the kernels always ran; a sparse set walks its set bits.
#[inline(always)]
fn bitmap_of(lines: u64, block: impl Fn(usize) -> u64) -> [u64; BITMAP_CHUNKS] {
    let mut bm = [0u64; BITMAP_CHUNKS];
    if lines == ALL_LINES {
        for (chunk, out) in bm.iter_mut().enumerate() {
            for b in 0..8 {
                *out |= block(chunk * 8 + b) << (b * 8);
            }
        }
    } else {
        let mut left = lines;
        while left != 0 {
            let line = left.trailing_zeros() as usize;
            left &= left - 1;
            bm[line / 8] |= block(line) << (line % 8 * 8);
        }
    }
    bm
}

/// AVX-512 word diff: `vpcmpq` yields one inequality bit per 64-bit lane
/// directly in a mask register — two memory operations plus one compare per
/// 64-byte block, and the per-word bitmap falls out for free (no second
/// pass over changed blocks is ever needed).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn diff_word_bitmap_avx512(
    old: &[u8; PAGE_SIZE],
    new: &[u8; PAGE_SIZE],
    lines: u64,
) -> [u64; BITMAP_CHUNKS] {
    use std::arch::x86_64::*;
    bitmap_of(lines, |line| {
        let off = line * LINE_BYTES;
        // SAFETY: `line < 64`, so `off + 64 <= PAGE_SIZE`; unaligned loads
        // are explicit.
        let o = unsafe { _mm512_loadu_si512(old.as_ptr().add(off) as *const _) };
        let n = unsafe { _mm512_loadu_si512(new.as_ptr().add(off) as *const _) };
        _mm512_cmpneq_epi64_mask(o, n) as u64
    })
}

/// AVX2 word diff: `vpcmpeqq` per 32-byte half, sign bits extracted with
/// `vmovmskpd` (one bit per 64-bit lane), then inverted into inequality.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn diff_word_bitmap_avx2(
    old: &[u8; PAGE_SIZE],
    new: &[u8; PAGE_SIZE],
    lines: u64,
) -> [u64; BITMAP_CHUNKS] {
    use std::arch::x86_64::*;
    bitmap_of(lines, |line| {
        let off = line * LINE_BYTES;
        // SAFETY: `line < 64`, so `off + 64 <= PAGE_SIZE`; unaligned loads
        // are explicit.
        let eq = unsafe {
            let o0 = _mm256_loadu_si256(old.as_ptr().add(off) as *const _);
            let o1 = _mm256_loadu_si256(old.as_ptr().add(off + 32) as *const _);
            let n0 = _mm256_loadu_si256(new.as_ptr().add(off) as *const _);
            let n1 = _mm256_loadu_si256(new.as_ptr().add(off + 32) as *const _);
            let e0 = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(o0, n0)));
            let e1 = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(o1, n1)));
            (e0 as u64 & 0xf) | ((e1 as u64 & 0xf) << 4)
        };
        !eq & 0xff
    })
}

/// Portable word diff (and the reference the vector kernels are tested
/// against): one branch-free XOR pass per line, one bitmap bit per word.
fn diff_word_bitmap_scalar(
    old: &[u8; PAGE_SIZE],
    new: &[u8; PAGE_SIZE],
    lines: u64,
) -> [u64; BITMAP_CHUNKS] {
    bitmap_of(lines, |line| {
        let mut acc = 0u64;
        for w in 0..8 {
            let off = line * LINE_BYTES + w * 8;
            let ow = u64::from_le_bytes(old[off..off + 8].try_into().unwrap());
            let nw = u64::from_le_bytes(new[off..off + 8].try_into().unwrap());
            acc |= u64::from(ow != nw) << w;
        }
        acc
    })
}

/// `(changed words, maximal runs)` of the diff a bitmap describes, without
/// building it: words are set bits, and a run starts at every set bit whose
/// predecessor — bit 63 of the previous chunk for bit 0 — is clear.
fn diff_shape(bm: &[u64; BITMAP_CHUNKS]) -> (usize, usize) {
    let (mut words, mut runs, mut carry) = (0u32, 0u32, 0u64);
    for &bits in bm {
        words += bits.count_ones();
        runs += (bits & !((bits << 1) | carry)).count_ones();
        carry = bits >> 63;
    }
    (words as usize, runs as usize)
}

/// Build the word-level XOR diff `bm` describes — maximal runs of changed
/// words over a flat payload — reading only the changed words of `old` and
/// `new`. `words` and `runs` are the bitmap's [`diff_shape`]: both vectors
/// are allocated once, at their final size.
fn build_runs(
    bm: &[u64; BITMAP_CHUNKS],
    words: usize,
    runs: usize,
    old: &[u8; PAGE_SIZE],
    new: &[u8; PAGE_SIZE],
) -> DeltaPage {
    let word = |page: &[u8; PAGE_SIZE], w: usize| {
        u64::from_le_bytes(page[w * 8..w * 8 + 8].try_into().expect("8-byte word"))
    };
    let mut dp = DeltaPage::default();
    dp.runs.reserve_exact(runs);
    dp.xor_words.reserve_exact(words);
    for (chunk, &chunk_bits) in bm.iter().enumerate() {
        let mut bits = chunk_bits;
        while bits != 0 {
            let start = bits.trailing_zeros();
            let len = (bits >> start).trailing_ones() as usize;
            // Adding the run's lowest bit carries through the run and clears
            // it; the carry-out bit is masked off by the `&`.
            bits &= bits.wrapping_add(1 << start);
            let first = chunk * 64 + start as usize;
            match dp.runs.last_mut() {
                // A run reaching the end of the previous chunk continues.
                Some(r) if r.word_off as usize + r.len as usize == first => r.len += len as u16,
                _ => dp.runs.push(DeltaRun {
                    word_off: first as u16,
                    len: len as u16,
                }),
            }
            dp.xor_words
                .extend((first..first + len).map(|w| word(old, w) ^ word(new, w)));
        }
    }
    debug_assert_eq!((dp.xor_words.len(), dp.runs.len()), (words, runs));
    dp
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_sim::ids::Pid;
    use proptest::prelude::*;

    fn key(vpn: u64) -> PageKey {
        PageKey { pid: Pid(1), vpn }
    }

    fn page_with(edits: &[(usize, u8)]) -> PageBuf {
        let mut p = [0u8; PAGE_SIZE];
        for &(i, v) in edits {
            p[i] = v;
        }
        Rc::new(p)
    }

    fn diff_pages(old: &[u8; PAGE_SIZE], new: &[u8; PAGE_SIZE]) -> DeltaPage {
        let bm = diff_word_bitmap(old, new, ALL_LINES);
        let (words, runs) = diff_shape(&bm);
        build_runs(&bm, words, runs, old, new)
    }

    #[test]
    fn zero_page_elides_to_one_word() {
        let mut s = ShadowStore::new();
        let mut st = DeltaStats::default();
        let enc = s.encode(key(1), &zero_page(), &mut st);
        assert_eq!(enc, PageEncoding::Zero);
        assert_eq!(enc.encoded_bytes(), 8);
        assert_eq!(st.zero_pages, 1);
        assert_eq!(*enc.apply(None), [0u8; PAGE_SIZE]);
    }

    #[test]
    fn first_touch_ships_full_page() {
        let mut s = ShadowStore::new();
        let mut st = DeltaStats::default();
        let p = page_with(&[(0, 7)]);
        let enc = s.encode(key(1), &p, &mut st);
        assert!(matches!(enc, PageEncoding::Full(_)));
        assert_eq!(enc.encoded_bytes(), 8 + PAGE_SIZE as u64);
        assert_eq!(enc.apply(None), p);
    }

    #[test]
    fn full_encoding_shares_the_input_buffer() {
        let mut s = ShadowStore::new();
        let mut st = DeltaStats::default();
        let p = page_with(&[(0, 7)]);
        let enc = s.encode(key(1), &p, &mut st);
        match &enc {
            PageEncoding::Full(buf) => {
                assert!(Rc::ptr_eq(buf, &p), "zero-copy: same allocation");
            }
            other => panic!("expected Full, got {other:?}"),
        }
        // The encoding still holds the model's buffer, so a sparse rewrite
        // cannot patch it: the model takes the captured buffer, which holds
        // what the patch would produce, instead of copying.
        let p2 = page_with(&[(0, 7), (8, 1)]);
        assert!(matches!(
            s.encode(key(1), &p2, &mut st),
            PageEncoding::Delta(_)
        ));
        assert_eq!(
            Rc::strong_count(&p2),
            2,
            "the model holds the captured buffer"
        );
    }

    /// A lent page is read in place: its buffer is taken only when it ships
    /// whole, and the base it is diffed against is never written.
    #[test]
    fn lent_page_is_copied_only_when_its_whole_contents_must_be_kept() {
        let mut st = DeltaStats::default();
        let mut takes = 0;
        let mut frame = [0u8; PAGE_SIZE];
        frame[0] = 1;
        // No committed copy: the page ships whole, in the lent buffer.
        let lent = Rc::new(frame);
        let first = encode_against(None, &lent, ALL_LINES, || lent.clone(), &mut st);
        let PageEncoding::Full(base) = first else {
            panic!("a page with no base ships full")
        };
        assert!(Rc::ptr_eq(&base, &lent));
        // Sparse epochs against that base take no buffer and write nothing.
        for i in 1..10usize {
            frame[8 * i] = i as u8;
            let mut take = || {
                takes += 1;
                Rc::new(frame)
            };
            let enc = encode_against(Some(&base), &frame, 0b11, &mut take, &mut st);
            assert_eq!(enc.encoded_bytes(), 8 + 8 + 8 * i as u64, "one run of {i} words");
            assert_eq!(enc.apply(Some(&base)), Rc::new(frame));
        }
        assert_eq!(takes, 0, "no sparse epoch keeps the lent buffer");
        assert_eq!(*base, {
            let mut b = [0u8; PAGE_SIZE];
            b[0] = 1;
            b
        });
        // Dense churn takes it exactly once.
        frame = [0x5A; PAGE_SIZE];
        let mut take = || {
            takes += 1;
            Rc::new(frame)
        };
        let enc = encode_against(Some(&base), &frame, ALL_LINES, &mut take, &mut st);
        assert!(matches!(enc, PageEncoding::Full(_)));
        assert_eq!(takes, 1);
        let same = encode_against(Some(&frame), &frame, 0, || unreachable!(), &mut st);
        assert_eq!(same, PageEncoding::Delta(DeltaPage::default()));
        assert_eq!((st.full_pages, st.delta_pages, st.zero_pages), (2, 10, 0));
    }

    #[test]
    fn sparse_rewrite_becomes_small_delta() {
        let mut s = ShadowStore::new();
        let mut st = DeltaStats::default();
        let v1 = page_with(&[(16, 1), (17, 2)]);
        s.encode(key(1), &v1, &mut st);
        // Touch one word: delta is header + one run (one word).
        let v2 = page_with(&[(16, 1), (17, 99)]);
        let enc = s.encode(key(1), &v2, &mut st);
        assert!(matches!(enc, PageEncoding::Delta(_)));
        assert_eq!(enc.encoded_bytes(), 8 + 8 + 8);
        assert_eq!(enc.apply(Some(&v1)), v2, "delta reconstructs exactly");
        assert_eq!(st.delta_pages, 1);
        assert_eq!(st.raw_bytes, 2 * PAGE_SIZE as u64);
        assert!(st.encoded_bytes < st.raw_bytes);
    }

    #[test]
    fn adjacent_changed_words_coalesce_into_one_run() {
        let old = page_with(&[]);
        let new = page_with(&[(8, 1), (16, 2), (24, 3)]); // words 1,2,3
        let dp = diff_pages(&old, &new);
        assert_eq!(dp.runs.len(), 1);
        assert_eq!(dp.runs[0].word_off, 1);
        assert_eq!(dp.runs[0].len, 3);
        assert_eq!(dp.words(), 3);
    }

    #[test]
    fn run_straddling_a_block_boundary_stays_one_run() {
        // Words 6..10 span the first/second 64-byte blocks; the block-skip
        // scan must still produce one maximal run, like the plain word scan.
        let old = page_with(&[]);
        let new = page_with(&[(48, 1), (56, 2), (64, 3), (72, 4)]); // words 6..=9
        let dp = diff_pages(&old, &new);
        assert_eq!(dp.runs.len(), 1);
        assert_eq!(dp.runs[0].word_off, 6);
        assert_eq!(dp.runs[0].len, 4);
    }

    #[test]
    fn run_straddling_a_bitmap_chunk_stays_one_run() {
        // Words 62..=65 span the first two 64-word bitmap chunks, and word
        // 127/128 the next boundary: counted and built as one run each.
        let old = page_with(&[]);
        let new = page_with(&[
            (62 * 8, 1),
            (63 * 8, 2),
            (64 * 8, 3),
            (65 * 8, 4),
            (127 * 8, 5),
            (128 * 8, 6),
        ]);
        let bm = diff_word_bitmap(&old, &new, ALL_LINES);
        assert_eq!(diff_shape(&bm), (6, 2));
        let dp = diff_pages(&old, &new);
        let runs: Vec<(u16, u16)> = dp.runs.iter().map(|r| (r.word_off, r.len)).collect();
        assert_eq!(runs, vec![(62, 4), (127, 2)]);
        assert_eq!(dp.xor_words, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn flat_runs_iterate_with_correct_payload_slices() {
        // Two separated runs: words 0..2 and word 100.
        let old = page_with(&[]);
        let new = page_with(&[(0, 1), (8, 2), (800, 3)]);
        let dp = diff_pages(&old, &new);
        let collected: Vec<(u16, Vec<u64>)> =
            dp.iter_runs().map(|(off, ws)| (off, ws.to_vec())).collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].0, 0);
        assert_eq!(collected[0].1, vec![1, 2]);
        assert_eq!(collected[1].0, 100);
        assert_eq!(collected[1].1, vec![3]);
    }

    #[test]
    fn vector_block_diff_matches_scalar_reference() {
        // Adversarial placements: block edges, word edges, dense stretches.
        let mut old = [0u8; PAGE_SIZE];
        let mut new = [0u8; PAGE_SIZE];
        for i in 0..PAGE_SIZE {
            old[i] = (i * 7 + 3) as u8;
            new[i] = old[i];
        }
        for &i in &[0usize, 63, 64, 127, 511, 512, 2048, 4095] {
            new[i] ^= 0x80;
        }
        for b in new.iter_mut().skip(1024).take(256) {
            *b = b.wrapping_add(1); // a dense 4-block stretch
        }
        assert_eq!(
            diff_word_bitmap(&old, &new, ALL_LINES),
            diff_word_bitmap_scalar(&old, &new, ALL_LINES),
            "dispatched kernel must agree with the scalar reference"
        );
        // And the zero-diff case.
        assert_eq!(
            diff_word_bitmap(&old, &old, ALL_LINES),
            [0u64; BITMAP_CHUNKS]
        );
    }

    #[test]
    fn dense_churn_falls_back_to_full() {
        let mut s = ShadowStore::new();
        let mut st = DeltaStats::default();
        let v1 = page_with(&[(0, 1)]);
        s.encode(key(1), &v1, &mut st);
        // Rewrite every word: the delta would exceed a raw page.
        let mut raw = [0u8; PAGE_SIZE];
        for (i, b) in raw.iter_mut().enumerate() {
            *b = (i % 251) as u8 + 1;
        }
        let v2 = Rc::new(raw);
        let enc = s.encode(key(1), &v2, &mut st);
        assert!(matches!(enc, PageEncoding::Full(_)), "dense diff not taken");
        assert_eq!(enc.apply(Some(&v1)), v2);
    }

    #[test]
    fn page_returning_to_zero_is_elided_and_shadowed_as_zero() {
        // Captured (every line compared) and lent with the one line that was
        // written: byte 100 lies in line 1.
        for lines in [ALL_LINES, 1 << 1] {
            let mut st = DeltaStats::default();
            let v1 = page_with(&[(100, 5)]);
            let enc = encode_against(Some(&v1), &zero_page(), lines, || unreachable!(), &mut st);
            assert_eq!(enc, PageEncoding::Zero);
            // The receiver now holds the zero page, and a later sparse write
            // deltas against it, not against v1.
            let base = enc.apply(Some(&v1));
            assert_eq!(*base, [0u8; PAGE_SIZE]);
            let v3 = page_with(&[(100, 9)]);
            let enc3 = encode_against(Some(&base), &v3, lines, || v3.clone(), &mut st);
            assert!(matches!(enc3, PageEncoding::Delta(_)), "{enc3:?}");
            assert_eq!(enc3.apply(Some(&base)), v3);
        }
        // The model does the same with every line.
        let mut s = ShadowStore::new();
        let mut st = DeltaStats::default();
        s.encode(key(1), &page_with(&[(100, 5)]), &mut st);
        assert_eq!(s.encode(key(1), &zero_page(), &mut st), PageEncoding::Zero);
        let v3 = page_with(&[(100, 9)]);
        let enc3 = s.encode(key(1), &v3, &mut st);
        assert_eq!(enc3.apply(Some(&[0u8; PAGE_SIZE])), v3);
    }

    /// The written lines settle a page that is not zero; they never settle
    /// one that is: the guest zeroed line 0, line 1 still holds what the
    /// base holds, and the page is a delta, not `Zero`.
    #[test]
    fn zero_written_lines_do_not_make_a_zero_page() {
        let mut st = DeltaStats::default();
        let v1 = page_with(&[(8, 3), (100, 5)]);
        let v2 = page_with(&[(100, 5)]);
        assert!(is_zero_page(&zero_page(), 1) && !is_zero_page(&v2, 1) && !is_zero_page(&v2, 1 << 1));
        let enc = encode_against(Some(&v1), &v2, 1, || v2.clone(), &mut st);
        assert!(matches!(enc, PageEncoding::Delta(_)), "{enc:?}");
        assert_eq!(enc.apply(Some(&v1)), v2);
        assert_eq!(st.zero_pages, 0);
    }

    /// Runs of words to flip, as `(first word, length)`: the input families
    /// the bitmap arithmetic could get wrong.
    fn flipped_runs() -> impl Strategy<Value = Vec<(usize, usize)>> {
        prop_oneof![
            // Scattered short runs anywhere on the page.
            proptest::collection::vec((0..WORDS_PER_PAGE, 1..6usize), 0..48),
            // Runs starting just below a 64-word bitmap chunk edge.
            proptest::collection::vec(
                (1..8usize, 1..4usize, 1..70usize).prop_map(|(c, back, len)| (c * 64 - back, len)),
                1..6
            ),
            // One or two long runs around the Delta/Full threshold
            // (`runs + words == 511` is the first size that ships Full).
            (0..4usize, 500..513usize).prop_map(|(at, len)| vec![(at, len)]),
            (200..260usize, 245..256usize).prop_map(|(a, b)| vec![(0, a), (a + 1, b)]),
            Just(vec![]),
            Just(vec![(0, WORDS_PER_PAGE)]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bitmap_classification_matches_the_scalar_word_scan(
            runs in flipped_runs(),
            seed in any::<u64>(),
            zero_base in any::<bool>(),
        ) {
            let mut old = [0u8; PAGE_SIZE];
            if !zero_base {
                let mut x = seed | 1;
                for b in old.iter_mut() {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    *b = (x >> 56) as u8;
                }
            }
            let mut new = old;
            for &(first, len) in &runs {
                for w in first..(first + len).min(WORDS_PER_PAGE) {
                    new[w * 8 + (seed as usize + w) % 8] ^= 0x5A;
                }
            }

            // Scalar reference: one word at a time, no bitmap.
            let changed: Vec<bool> = (0..WORDS_PER_PAGE)
                .map(|w| old[w * 8..w * 8 + 8] != new[w * 8..w * 8 + 8])
                .collect();
            let ref_words = changed.iter().filter(|&&c| c).count();
            let ref_runs = (0..WORDS_PER_PAGE)
                .filter(|&w| changed[w] && (w == 0 || !changed[w - 1]))
                .count();
            let ref_bytes = 8 + 8 * (ref_runs + ref_words) as u64;
            let ref_class = if new.iter().all(|&b| b == 0) {
                "zero"
            } else if ref_bytes < PAGE_SIZE as u64 {
                "delta"
            } else {
                "full"
            };

            let bm = diff_word_bitmap(&old, &new, ALL_LINES);
            prop_assert_eq!(bm, diff_word_bitmap_scalar(&old, &new, ALL_LINES));
            prop_assert_eq!(diff_shape(&bm), (ref_words, ref_runs));
            let built = PageEncoding::Delta(diff_pages(&old, &new));
            prop_assert_eq!(built.encoded_bytes(), ref_bytes, "size from counts == size as built");

            let mut model = ShadowStore::new();
            let mut st = DeltaStats::default();
            let old_bytes = old;
            let (old, new) = (Rc::new(old), Rc::new(new));
            model.encode(key(1), &old, &mut st);
            let before = st;
            let enc = model.encode(key(1), &new, &mut st);
            prop_assert_eq!(enc.class(), ref_class);
            if ref_class == "delta" {
                prop_assert_eq!(enc.encoded_bytes(), ref_bytes);
                prop_assert_eq!(&enc, &built);
            }
            prop_assert_eq!(st.encoded_bytes - before.encoded_bytes, enc.encoded_bytes());
            prop_assert_eq!(st.pages(), 2);
            prop_assert_eq!(enc.apply(Some(&old)), new.clone(), "round trip");
            // The model now holds `new`: re-encoding it is an empty delta.
            let again = model.encode(key(1), &new, &mut st);
            if ref_class != "zero" {
                prop_assert_eq!(again, PageEncoding::Delta(DeltaPage::default()));
            }
            prop_assert_eq!(*old, old_bytes, "the buffer shared with the caller was not written");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A line set selects exactly its lines: the bitmap is the
        /// whole-page one with the other lines' bytes masked off, in every
        /// kernel this CPU can run.
        #[test]
        fn a_line_set_reads_and_reports_only_its_lines(
            runs in flipped_runs(),
            lines in prop_oneof![any::<u64>(), (0..64u32).prop_map(|l| 1u64 << l), Just(0), Just(ALL_LINES)],
        ) {
            let old = [0x11u8; PAGE_SIZE];
            let mut new = old;
            for &(first, len) in &runs {
                for w in first..(first + len).min(WORDS_PER_PAGE) {
                    new[w * 8 + w % 8] ^= 0x5A;
                }
            }
            let mut want = diff_word_bitmap_scalar(&old, &new, ALL_LINES);
            for (chunk, bits) in want.iter_mut().enumerate() {
                for block in (0..8).filter(|b| lines >> (chunk * 8 + b) & 1 == 0) {
                    *bits &= !(0xff << (block * 8));
                }
            }
            prop_assert_eq!(diff_word_bitmap_scalar(&old, &new, lines), want);
            prop_assert_eq!(diff_word_bitmap(&old, &new, lines), want);
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: avx2 support was just verified at runtime.
                    prop_assert_eq!(unsafe { diff_word_bitmap_avx2(&old, &new, lines) }, want);
                }
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: avx512f support was just verified at runtime.
                    prop_assert_eq!(unsafe { diff_word_bitmap_avx512(&old, &new, lines) }, want);
                }
            }
        }
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = DeltaStats {
            zero_pages: 1,
            delta_pages: 2,
            full_pages: 3,
            raw_bytes: 100,
            encoded_bytes: 50,
        };
        a.merge(&a.clone());
        assert_eq!(a.pages(), 12);
        assert_eq!(a.raw_bytes, 200);
        assert_eq!(a.encoded_bytes, 100);
    }
}
