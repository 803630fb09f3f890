//! A physical page frame with real contents and tracking bits.

use crate::PAGE_SIZE;
use std::cell::RefCell;
use std::rc::Rc;

/// A refcounted 4 KiB page buffer, immutable while shared.
///
/// Buffers circulate rather than live and die with a page version. A page
/// that ships whole (eager dump, COW fault copy, first touch, dense rewrite)
/// is copied out of its frame once, into a buffer the thread's [`Recycler`]
/// hands out ([`PageFrame::snapshot`]); every later stage — delta shadow,
/// placement striping, backup store — shares that allocation; and when a
/// commit displaces it from the backup store it goes back to the recycler
/// ([`recycle_page`]) for the next stop phase to fill. A page that ships as
/// a sparse delta is never copied at all: the COW drain lends the frame
/// (`AddressSpace::cow_drain_with`), and the delta shadow and the backup
/// store patch their own resident copy in place — and it is now read only
/// where it was written: the frame is lent with the set of 64-byte lines the
/// guest wrote since it was last lent ([`PageFrame::written_lines`]).
///
/// One rule covers every write into a buffer, patch or refill: only its sole
/// owner writes (`Rc::get_mut` / `Rc::make_mut`). A holder that finds a
/// pending epoch, the shadow or a materialized image still sharing the
/// buffer clones first, and a recycled buffer somebody still holds is
/// skipped — so no holder ever sees a buffer change under it. The simulation
/// is single-threaded, so `Rc` suffices.
pub type PageBuf = Rc<[u8; PAGE_SIZE]>;

/// Spare buffers on their way from the commit that displaced them to the
/// stage that fills them next, `T` being what a buffer holds (a page, a
/// fragment).
///
/// Demand is counted in rounds — one stop phase for pages, one fan-out for
/// fragments — and the recycler never holds more than the round before
/// asked for: what a full sync, a bootstrap or a repair displaces beyond
/// that is dropped as it is handed back, and what a round leaves unused is
/// dropped when it ends. It needs no size to be chosen for it.
pub struct Recycler<T: ?Sized> {
    spare: Vec<Rc<T>>,
    /// Buffers asked for since the round began.
    demand: usize,
    /// Buffers the previous round asked for: the most `spare` may hold.
    bound: usize,
}

impl<T: ?Sized> Recycler<T> {
    /// An empty recycler that keeps nothing until a round has shown demand.
    pub const fn new() -> Self {
        Recycler {
            spare: Vec::new(),
            demand: 0,
            bound: 0,
        }
    }

    /// Ask for a spare buffer. Another holder may still share it: write it
    /// only through `Rc::get_mut`, and allocate afresh when that fails.
    pub fn take(&mut self) -> Option<Rc<T>> {
        self.demand += 1;
        self.spare.pop()
    }

    /// Hand back a buffer a newer version displaced; dropped when the
    /// recycler already holds what the previous round used.
    pub fn give(&mut self, buf: Rc<T>) {
        if self.spare.len() < self.bound {
            self.spare.push(buf);
        }
    }

    /// Close the round: drop what it left unused and let the next one hold
    /// as many buffers as this one asked for.
    pub fn end_round(&mut self) {
        self.spare.clear();
        self.bound = std::mem::take(&mut self.demand);
    }

    /// Spare buffers held.
    pub fn len(&self) -> usize {
        self.spare.len()
    }

    /// True when no spare buffer is held.
    pub fn is_empty(&self) -> bool {
        self.spare.is_empty()
    }
}

impl<T: ?Sized> Default for Recycler<T> {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    static ZERO_PAGE: PageBuf = Rc::new([0u8; PAGE_SIZE]);
    static SPARE_PAGES: RefCell<Recycler<[u8; PAGE_SIZE]>> =
        const { RefCell::new(Recycler::new()) };
}

/// The shared all-zeros page. Untouched anonymous pages and zero-encoded
/// deltas resolve to this single allocation instead of a fresh 4 KiB each.
pub fn zero_page() -> PageBuf {
    ZERO_PAGE.with(Rc::clone)
}

/// Hand a page buffer nothing refers to any more — displaced from a backup
/// store, or striped into fragments — to the next [`PageFrame::snapshot`].
pub fn recycle_page(buf: PageBuf) {
    SPARE_PAGES.with(|r| r.borrow_mut().give(buf));
}

/// A stop phase ended, or a failover is about to rebuild the whole image:
/// free the spare pages (see [`Recycler::end_round`]).
pub fn end_page_round() {
    SPARE_PAGES.with(|r| r.borrow_mut().end_round());
}

/// Spare pages this thread's recycler holds.
pub fn spare_pages() -> usize {
    SPARE_PAGES.with(|r| r.borrow().len())
}

/// Bytes per line of a written-line set: one cache line, the delta encoder's
/// compare block.
pub const LINE_BYTES: usize = 64;

/// The written-line set that names every line of a page — what a holder that
/// does not know which lines changed must say.
pub const ALL_LINES: u64 = u64::MAX;

const _: () = assert!(PAGE_SIZE / LINE_BYTES == u64::BITS as usize);

/// The lines the bytes `start..start + len` of a page lie in (`len > 0`).
#[inline]
pub(crate) fn lines_of(start: usize, len: usize) -> u64 {
    let (first, last) = (start / LINE_BYTES, (start + len - 1) / LINE_BYTES);
    (ALL_LINES >> (63 - (last - first))) << first
}

/// One 4 KiB page frame.
///
/// Frames materialize lazily on first write; a virtual page with no frame
/// reads as zeros, exactly like an untouched anonymous mapping.
#[derive(Clone)]
pub struct PageFrame {
    data: Box<[u8; PAGE_SIZE]>,
    /// Soft-dirty bit: set on write, cleared by `clear_refs`.
    pub soft_dirty: bool,
    /// Tracking armed: the *next* write to this frame takes a tracking fault.
    pub tracked_clean: bool,
    /// Written-line set: bit `l` is set if bytes `64 l .. 64 l + 64` may
    /// differ from what they were when this frame was last lent to a
    /// checkpoint (`AddressSpace::cow_drain_with`, or the copy a COW fault
    /// stages). Only `AddressSpace::write` sets single bits and only a lend
    /// clears them; a new frame — materialised, installed at restore — says
    /// [`ALL_LINES`], so the set may over-approximate, never miss a line.
    pub written_lines: u64,
}

impl std::fmt::Debug for PageFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageFrame")
            .field("soft_dirty", &self.soft_dirty)
            .field("tracked_clean", &self.tracked_clean)
            .field("written_lines", &format_args!("{:#x}", self.written_lines))
            .field("first_bytes", &&self.data[..8])
            .finish()
    }
}

impl Default for PageFrame {
    fn default() -> Self {
        PageFrame {
            data: Box::new([0u8; PAGE_SIZE]),
            soft_dirty: false,
            tracked_clean: false,
            written_lines: ALL_LINES,
        }
    }
}

impl PageFrame {
    /// A zeroed frame.
    pub fn zeroed() -> Self {
        Self::default()
    }

    /// A frame initialized with `data` starting at offset 0 (rest zeroed).
    pub fn from_bytes(data: &[u8]) -> Self {
        let mut f = Self::default();
        let n = data.len().min(PAGE_SIZE);
        f.data[..n].copy_from_slice(&data[..n]);
        f
    }

    /// Read-only view of the page contents.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable view of the page contents. Callers are responsible for dirty
    /// accounting — use [`crate::mem::AddressSpace`] APIs in normal paths.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    /// Copy the page out into a shared buffer (a page that ships whole);
    /// everything downstream clones the `Rc`. The buffer is a recycled one
    /// when the thread has a spare that nobody else holds.
    pub fn snapshot(&self) -> PageBuf {
        if let Some(mut buf) = SPARE_PAGES.with(|r| r.borrow_mut().take()) {
            if let Some(dst) = Rc::get_mut(&mut buf) {
                *dst = *self.data;
                return buf;
            }
        }
        Rc::new(*self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_and_from_bytes() {
        let z = PageFrame::zeroed();
        assert!(z.bytes().iter().all(|&b| b == 0));
        let f = PageFrame::from_bytes(&[1, 2, 3]);
        assert_eq!(&f.bytes()[..4], &[1, 2, 3, 0]);
        assert!(!f.soft_dirty);
    }

    #[test]
    fn from_bytes_truncates_oversized_input() {
        let big = vec![0xAB; PAGE_SIZE + 100];
        let f = PageFrame::from_bytes(&big);
        assert_eq!(f.bytes()[PAGE_SIZE - 1], 0xAB);
    }

    /// One round in which `frame` is snapshotted `n` times: afterwards the
    /// thread's recycler keeps up to `n` buffers.
    fn round_of(frame: &PageFrame, n: usize) {
        for _ in 0..n {
            frame.snapshot();
        }
        end_page_round();
    }

    #[test]
    fn recycler_holds_no_more_than_the_previous_round_used() {
        let mut r: Recycler<[u8]> = Recycler::new();
        let buf = || -> Rc<[u8]> { Rc::from(&[0u8; 8][..]) };
        r.give(buf());
        assert!(r.is_empty(), "no round has shown demand yet");
        assert!(r.take().is_none() && r.take().is_none() && r.take().is_none());
        r.end_round();
        for _ in 0..10 {
            r.give(buf());
        }
        assert_eq!(r.len(), 3, "the surplus is dropped as it is handed back");
        assert!(r.take().is_some());
        r.end_round();
        assert!(r.is_empty(), "what a round leaves unused is dropped");
        r.give(buf());
        r.give(buf());
        assert_eq!(r.len(), 1, "the last round asked for one");
    }

    #[test]
    fn snapshot_refills_a_spare_only_its_sole_owner_holds() {
        end_page_round();
        let old = PageFrame::from_bytes(b"old");
        let new = PageFrame::from_bytes(b"new");
        round_of(&old, 2);

        // Exclusively owned: the next snapshot is written into it.
        let spare = old.snapshot();
        let addr = Rc::as_ptr(&spare);
        recycle_page(spare);
        assert_eq!(spare_pages(), 1);
        let reused = new.snapshot();
        assert_eq!(Rc::as_ptr(&reused), addr, "same allocation");
        assert_eq!(&reused[..4], b"new\0", "wholly overwritten");
        assert_eq!(spare_pages(), 0);

        // Still held elsewhere (a pending epoch, the shadow, a materialized
        // image): skipped, never written, however many snapshots follow.
        round_of(&old, 2);
        let held = old.snapshot();
        recycle_page(held.clone());
        assert_eq!(spare_pages(), 1);
        let later: Vec<PageBuf> = (0..1000).map(|_| new.snapshot()).collect();
        assert_eq!(
            &held[..4],
            b"old\0",
            "the other holder's bytes are untouched"
        );
        assert!(later.iter().all(|p| !Rc::ptr_eq(p, &held)));
        assert!(later.iter().all(|p| &p[..3] == b"new"));
        end_page_round();
    }

    #[test]
    fn snapshot_is_independent() {
        let mut f = PageFrame::from_bytes(b"hello");
        let snap = f.snapshot();
        f.bytes_mut()[0] = b'X';
        assert_eq!(&snap[..5], b"hello");
        assert_eq!(f.bytes()[0], b'X');
    }
}
