//! A physical page frame with real contents and tracking bits.

use crate::PAGE_SIZE;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// A refcounted 4 KiB page buffer, immutable while shared.
///
/// One buffer serves a page version from the guest's frame to the backup's
/// store. A frame shares its buffer with the eager dump
/// ([`PageFrame::snapshot`]), with a COW fault's or an unmap's staged copy,
/// with the wire encoding and the backup store when the COW drain lends it
/// and the page ships whole (`AddressSpace::cow_drain_with`), and with the
/// backup's image at restore (`AddressSpace::install_page`).
/// A shared frame is write-protected, like a PTE after `fork`: its first
/// write copies the buffer once, into a spare the thread's [`Recycler`]
/// holds, and a write that covers the whole page takes the spare without
/// reading the old bytes. When a commit displaces a version from the backup
/// store, its buffer goes back to the recycler ([`recycle_page`]) for the
/// next such write. A page that ships as a sparse delta is never copied on
/// its way out: the backup store, which is also the delta base, patches its
/// resident copy in place, and the encoder reads the lent frame only where
/// the guest wrote it ([`PageFrame::written_lines`]).
///
/// A file page is one too, from the page cache to the backup's disk. A
/// write-back (`PageCache::flush`) shares the cached buffer with the block
/// device's store and its write log; DRBD ships that log entry, and the
/// backup's commit moves it into its own disk (`apply_replicated`) — so does
/// a full resync (`full_sync_writes`). `fgetfc` shares it with the
/// checkpoint image, the backup's merged file-cache state shares it with
/// the image `BackupAgent::materialize` builds, and restore (`install`)
/// shares it with the new cache. Only `PageCache::write` copies: the first
/// write into a page that any of those still holds clones it, once; a page
/// the cache alone holds is written in place, and a page new to the cache
/// starts as the disk's buffer (or a fresh zeroed one).
///
/// One rule covers every write into a buffer, patch or refill: only its sole
/// owner writes. A holder that finds a pending epoch, a frame or a
/// materialized image still sharing the buffer copies first, and a
/// recycled buffer somebody still holds is skipped — so no holder ever sees
/// a buffer change under it. The simulation is single-threaded, so `Rc`
/// suffices.
pub type PageBuf = Rc<[u8; PAGE_SIZE]>;

/// Spare buffers on their way from the commit that displaced them to the
/// stage that fills them next, `T` being what a buffer holds (a page, a
/// fragment).
///
/// Demand is counted in rounds — for pages, an epoch from one stop phase's
/// end to the next, whose first writes into the frames the dump shared ask
/// for them; one fan-out for fragments — and the recycler never holds more
/// than the round before asked for: what a full sync, a bootstrap or a
/// repair displaces beyond that is dropped as it is handed back, and what a
/// round leaves unused is dropped when it ends. It needs no size to be
/// chosen for it.
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

/// Hand a page buffer a backup store's commit displaced to the next first
/// write into a shared frame.
pub fn recycle_page(buf: PageBuf) {
    SPARE_PAGES.with(|r| r.borrow_mut().give(buf));
}

/// A stop phase ended the epoch, or a failover is about to rebuild the whole
/// image: free the spare pages (see [`Recycler::end_round`]).
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
/// reads as zeros, exactly like an untouched anonymous mapping. A new frame
/// owns a zeroed buffer of its own, so its first write lands in place.
pub struct PageFrame {
    /// The page's bytes; written only through [`Self::own`], which the
    /// `shared` bit guards.
    data: PageBuf,
    /// Write-protect bit: set wherever a clone of `data` can outlive the
    /// call that made it ([`Self::snapshot`], [`Self::sharing`], `Clone`, a
    /// lend after which the borrower holds a clone), cleared by the write
    /// that takes a buffer of the frame's own. While it is clear the frame
    /// is `data`'s sole holder, so a write need not read the `Rc` header.
    shared: Cell<bool>,
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
            .field("shared", &self.shared.get())
            .field("soft_dirty", &self.soft_dirty)
            .field("tracked_clean", &self.tracked_clean)
            .field("written_lines", &format_args!("{:#x}", self.written_lines))
            .field("first_bytes", &&self.data[..8])
            .finish()
    }
}

impl Default for PageFrame {
    fn default() -> Self {
        Self::with(Rc::new([0u8; PAGE_SIZE]), false)
    }
}

/// A clone shares the buffer: both frames are write-protected, and whichever
/// writes first copies.
impl Clone for PageFrame {
    fn clone(&self) -> Self {
        PageFrame {
            soft_dirty: self.soft_dirty,
            tracked_clean: self.tracked_clean,
            written_lines: self.written_lines,
            ..Self::sharing(self.snapshot())
        }
    }
}

impl PageFrame {
    fn with(data: PageBuf, shared: bool) -> Self {
        PageFrame {
            data,
            shared: Cell::new(shared),
            soft_dirty: false,
            tracked_clean: false,
            written_lines: ALL_LINES,
        }
    }

    /// A zeroed frame.
    pub fn zeroed() -> Self {
        Self::default()
    }

    /// A frame whose contents are `data`, shared with its other holders
    /// until the frame's first write.
    pub fn sharing(data: PageBuf) -> Self {
        Self::with(data, true)
    }

    /// Read-only view of the page contents.
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable view of the page contents; a shared frame first copies its
    /// buffer. Callers are responsible for dirty accounting — use
    /// [`crate::mem::AddressSpace`] APIs in normal paths.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        if self.shared.get() {
            self.unshare(true);
        }
        self.own()
    }

    /// Mutable view for a write that replaces every byte: a shared frame
    /// takes a buffer of its own without reading the old bytes, so what the
    /// view holds before the write is unspecified.
    #[inline]
    pub(crate) fn overwrite(&mut self) -> &mut [u8; PAGE_SIZE] {
        if self.shared.get() {
            self.unshare(false);
        }
        self.own()
    }

    /// The buffer of a frame that holds it alone.
    #[inline]
    #[allow(unsafe_code)]
    fn own(&mut self) -> &mut [u8; PAGE_SIZE] {
        debug_assert!(
            Rc::strong_count(&self.data) == 1 && Rc::weak_count(&self.data) == 0,
            "a write-enabled frame shares its buffer"
        );
        // SAFETY: `data` is private, and every path that hands out a clone
        // of it (`snapshot`, `sharing`, `Clone`, `lend`) sets `shared`,
        // which only `unshare` clears — after it has checked that no other
        // `Rc` or `Weak` is left, or replaced `data` with a buffer nobody
        // else holds. So with `shared` clear, this frame is the allocation's
        // only holder (the assertion above checks it in debug builds), and
        // `&mut self` rules out any other borrow of the bytes: the exclusive
        // reference aliases nothing. This is `Rc::get_mut` without reading
        // the counts on every guest write.
        unsafe { &mut *Rc::as_ptr(&self.data).cast_mut() }
    }

    /// Take the write protection off: keep the buffer when every other
    /// holder has let go of it, else move to a spare nobody else holds (a
    /// fresh one when the thread has none), copying the old bytes in if
    /// `keep` says so.
    #[cold]
    fn unshare(&mut self, keep: bool) {
        self.shared.set(false);
        if Rc::get_mut(&mut self.data).is_some() {
            return;
        }
        let spare = SPARE_PAGES.with(|r| r.borrow_mut().take());
        self.data = match spare.filter(|b| Rc::strong_count(b) == 1 && Rc::weak_count(b) == 0) {
            Some(mut buf) => {
                if keep {
                    *Rc::get_mut(&mut buf).expect("the spare has no other holder") = *self.data;
                }
                buf
            }
            None if keep => Rc::new(*self.data),
            None => Rc::new([0u8; PAGE_SIZE]),
        };
    }

    /// Share the page's buffer (a page that ships whole); everything
    /// downstream clones the `Rc`, and the frame's next write copies.
    pub fn snapshot(&self) -> PageBuf {
        self.shared.set(true);
        self.data.clone()
    }

    /// Lend the buffer to `with` along with the written-line set, which the
    /// lend clears. A borrower that keeps a clone write-protects the frame.
    pub(crate) fn lend<R>(&mut self, with: impl FnOnce(&PageBuf, u64) -> R) -> R {
        let lines = std::mem::take(&mut self.written_lines);
        let r = with(&self.data, lines);
        if Rc::get_mut(&mut self.data).is_none() {
            self.shared.set(true);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame holding `data` from offset 0 on, the rest zeroed.
    fn from_bytes(data: &[u8]) -> PageFrame {
        let mut f = PageFrame::zeroed();
        f.bytes_mut()[..data.len()].copy_from_slice(data);
        f
    }

    #[test]
    fn zeroed_and_from_bytes() {
        let z = PageFrame::zeroed();
        assert!(z.bytes().iter().all(|&b| b == 0));
        let f = from_bytes(&[1, 2, 3]);
        assert_eq!(&f.bytes()[..4], &[1, 2, 3, 0]);
        assert!(!f.soft_dirty);
    }

    /// One round in which `n` clones of `frame` each take a buffer of their
    /// own at their first write: afterwards the thread's recycler keeps up
    /// to `n` buffers.
    fn round_of(frame: &PageFrame, n: usize) {
        for _ in 0..n {
            let mut f = frame.clone();
            f.bytes_mut()[0] ^= 1;
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
        let old = from_bytes(b"old");
        let mut new = from_bytes(b"new");
        round_of(&old, 2);

        // Exclusively owned: the first write after a share copies into it.
        let spare: PageBuf = Rc::new(*old.bytes());
        let addr = Rc::as_ptr(&spare);
        recycle_page(spare);
        assert_eq!(spare_pages(), 1);
        let shared = new.snapshot();
        new.bytes_mut()[PAGE_SIZE - 1] = 0;
        let reused = new.snapshot();
        assert_eq!(Rc::as_ptr(&reused), addr, "same allocation");
        assert_eq!(&reused[..4], b"new\0", "wholly overwritten");
        assert_eq!(spare_pages(), 0);
        assert!(!Rc::ptr_eq(&shared, &reused), "the share keeps its buffer");

        // Still held elsewhere (a pending epoch, a materialized image): skipped, never written, however many first writes follow.
        round_of(&old, 2);
        let held = old.snapshot();
        recycle_page(held.clone());
        assert_eq!(spare_pages(), 1);
        let later: Vec<PageBuf> = (0..1000)
            .map(|_| {
                let mut f = new.clone();
                f.bytes_mut()[PAGE_SIZE - 1] = 1;
                f.snapshot()
            })
            .collect();
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
        let mut f = from_bytes(b"hello");
        let snap = f.snapshot();
        f.bytes_mut()[0] = b'X';
        assert_eq!(&snap[..5], b"hello");
        assert_eq!(f.bytes()[0], b'X');
    }

    #[test]
    fn a_sole_owned_frame_is_written_in_place() {
        let mut f = from_bytes(b"here");
        let addr = Rc::as_ptr(&f.data);
        f.bytes_mut()[0] = b'H';
        f.overwrite().fill(7);
        assert_eq!(Rc::as_ptr(&f.data), addr, "never shared: never moved");

        // Shared, then every other holder lets go: the buffer is kept.
        drop(f.snapshot());
        f.bytes_mut()[0] = b'h';
        assert_eq!(Rc::as_ptr(&f.data), addr, "nobody else held it");
        let lent = f.lend(|page, _| page[0]);
        assert_eq!(lent, b'h');
        f.bytes_mut()[1] = 1;
        assert_eq!(Rc::as_ptr(&f.data), addr, "a lend that keeps no clone");
    }

    #[test]
    fn a_whole_page_write_to_a_shared_frame_never_copies_the_old_bytes() {
        end_page_round();
        let mut f = from_bytes(b"old bytes");
        // With no spare, and with one the last round left (filled with 0xEE):
        // the frame's new buffer never holds what the shared one does.
        for spare in [None, Some(0xEE)] {
            if let Some(b) = spare {
                round_of(&f, 1);
                recycle_page(Rc::new([b; PAGE_SIZE]));
            }
            f.bytes_mut()[..9].copy_from_slice(b"old bytes");
            let held = f.snapshot();
            let view = f.overwrite();
            assert!(
                view.iter().all(|&b| b == spare.unwrap_or(0)),
                "{spare:?}: the old bytes were read"
            );
            view[..9].copy_from_slice(b"new bytes");
            assert_eq!(&held[..9], b"old bytes");
            assert_eq!(&f.bytes()[..9], b"new bytes");
        }
        end_page_round();
    }
}
