//! A physical page frame with real contents and tracking bits.

use crate::PAGE_SIZE;
use std::hash::Hasher;
use std::rc::Rc;

/// A refcounted 4 KiB page buffer, immutable while shared.
///
/// A page that ships whole (eager dump, first touch, dense rewrite) is copied
/// out of its frame once, and every later stage — delta shadow, placement
/// striping, backup stores — shares that allocation. A page that ships as a
/// sparse delta is never copied at all: the COW drain lends the frame
/// (`AddressSpace::cow_drain_with`), and the delta shadow and the backup
/// store patch their own resident copy in place when they are its only
/// owner (`Rc::get_mut` / `Rc::make_mut`), cloning first when a pending
/// epoch or a materialized image still holds it — so no holder ever sees a
/// buffer change under it. The simulation is single-threaded, so `Rc`
/// suffices.
pub type PageBuf = Rc<[u8; PAGE_SIZE]>;

/// Multiply-rotate hasher (FxHash-style) for page keys: virtual page numbers
/// and `(pid, vpn)` pairs. Page-table and shadow lookups sit on per-page hot
/// paths, where SipHash's keyed rounds cost more than the work they guard,
/// and HashDoS resistance buys nothing against our own page numbers.
#[derive(Default)]
pub struct PageKeyHasher(u64);

impl PageKeyHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for PageKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
}

thread_local! {
    static ZERO_PAGE: PageBuf = Rc::new([0u8; PAGE_SIZE]);
}

/// The shared all-zeros page. Untouched anonymous pages and zero-encoded
/// deltas resolve to this single allocation instead of a fresh 4 KiB each.
pub fn zero_page() -> PageBuf {
    ZERO_PAGE.with(Rc::clone)
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
}

impl std::fmt::Debug for PageFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageFrame")
            .field("soft_dirty", &self.soft_dirty)
            .field("tracked_clean", &self.tracked_clean)
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
    /// everything downstream clones the `Rc`.
    pub fn snapshot(&self) -> PageBuf {
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

    #[test]
    fn snapshot_is_independent() {
        let mut f = PageFrame::from_bytes(b"hello");
        let snap = f.snapshot();
        f.bytes_mut()[0] = b'X';
        assert_eq!(&snap[..5], b"hello");
        assert_eq!(f.bytes()[0], b'X');
    }
}
