//! Address spaces: the per-process `mm_struct`.

use super::page::{lines_of, zero_page, PageBuf, PageFrame, ALL_LINES};
use super::vma::{MappedFile, Perms, Vma, VmaKind};
use super::TrackingMode;
use crate::error::{SimError, SimResult};
use crate::ids::IdMap;
use crate::PAGE_SIZE;
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;

const PS: u64 = PAGE_SIZE as u64;

/// End of the mappable address range: 48-bit virtual addresses, as on
/// x86-64 with four-level paging. The backup's radix tree indexes the
/// 36-bit page numbers below it; a page above would alias one below.
pub const VADDR_END: u64 = 1 << 48;

/// Outcome of a memory write: how many tracking faults it took.
///
/// The kernel converts fault counts into charged time using the active
/// [`TrackingMode`]'s per-fault cost; the replication runtime attributes that
/// time to the container's *runtime overhead* component (Fig. 3 breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Pages that took a first-write tracking fault during this write.
    pub tracking_faults: u32,
    /// Pages newly materialized (previously unbacked).
    pub pages_materialized: u32,
    /// Pages that were still COW-protected by a deferred checkpoint and
    /// took a write-protect fault: their old contents were eagerly copied
    /// into the staging area before this write landed.
    pub cow_faults: u32,
}

impl WriteOutcome {
    fn absorb(&mut self, other: WriteOutcome) {
        self.tracking_faults += other.tracking_faults;
        self.pages_materialized += other.pages_materialized;
        self.cow_faults += other.cow_faults;
    }
}

/// Marks a [`ProtectQueue`] entry whose page left out of turn. Page numbers
/// are below 2^36 ([`VADDR_END`]), so the bit is free.
const GONE: u64 = 1 << 63;

/// The pages a deferred checkpoint write-protected and still owes a copy
/// of: the pagemap scan's ascending run, kept as it arrived and consumed
/// from the front. A page that leaves out of turn — a write fault, an unmap
/// — is marked [`GONE`] where it lies, so the run stays sorted and a
/// bootstrap's thousands of faults cost a binary search each.
#[derive(Debug, Default)]
struct ProtectQueue {
    /// Ascending page numbers, [`GONE`] bit aside.
    vpns: Vec<u64>,
    /// Entries before this index were popped.
    head: usize,
    /// Entries from `head` on that are not [`GONE`].
    live: usize,
}

impl ProtectQueue {
    /// Add `vpns`: one merge of the caller's run into what is still pending,
    /// sorted and deduplicated — against an empty queue, every epoch of every
    /// workload, a checked copy of the pagemap scan's run. Each entry is
    /// checked as it is placed, because the queue is only as good as its
    /// order: an entry out of place would hide a protected page from
    /// [`Self::remove`]'s search (a write with no copy-before-write), one
    /// with the [`GONE`] bit would never be lent — a checkpoint silently
    /// missing a page either way.
    fn protect(&mut self, vpns: &[u64]) {
        let mut sorted = Vec::new();
        let vpns = if vpns.windows(2).all(|w| w[0] < w[1]) {
            vpns
        } else {
            sorted.extend_from_slice(vpns);
            sorted.sort_unstable();
            sorted.dedup();
            &sorted[..]
        };
        let old = std::mem::take(&mut self.vpns);
        let mut pending = old[self.head..]
            .iter()
            .copied()
            .filter(|e| e & GONE == 0)
            .peekable();
        let mut merged = Vec::with_capacity(self.live + vpns.len());
        for &vpn in vpns {
            assert!(
                vpn < GONE,
                "page number {vpn:#x} is outside any address space"
            );
            while let Some(below) = pending.next_if(|&p| p < vpn) {
                merged.push(below);
            }
            pending.next_if_eq(&vpn);
            merged.push(vpn);
        }
        merged.extend(pending);
        (self.head, self.live) = (0, merged.len());
        self.vpns = merged;
    }

    /// Take `vpn` out of turn; false if it is not protected. A length test
    /// during the execution phase, where the queue is empty.
    fn remove(&mut self, vpn: u64) -> bool {
        if self.live == 0 {
            return false;
        }
        let pending = &mut self.vpns[self.head..];
        match pending.binary_search_by_key(&vpn, |e| e & !GONE) {
            Ok(i) if pending[i] & GONE == 0 => {
                pending[i] |= GONE;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Take every protected page of `range` out of turn, in ascending order.
    fn remove_range(&mut self, range: Range<u64>) -> Vec<u64> {
        let pending = &mut self.vpns[self.head..];
        let lo = pending.partition_point(|e| e & !GONE < range.start);
        let hi = pending.partition_point(|e| e & !GONE < range.end);
        let mut removed = Vec::new();
        for e in pending[lo..hi].iter_mut().filter(|e| **e & GONE == 0) {
            removed.push(*e);
            *e |= GONE;
        }
        self.live -= removed.len();
        removed
    }

    /// The lowest protected page, which leaves the queue.
    fn pop(&mut self) -> Option<u64> {
        while let Some(&e) = self.vpns.get(self.head) {
            self.head += 1;
            if e & GONE == 0 {
                self.live -= 1;
                return Some(e);
            }
        }
        None
    }
}

/// A simulated address space: VMAs + page table.
#[derive(Debug, Default)]
pub struct AddressSpace {
    /// VMAs keyed by start address.
    vmas: BTreeMap<u64, Vma>,
    /// Materialized frames keyed by virtual page number. Every output that
    /// depends on iteration order sorts, so the hasher cannot leak into it.
    frames: IdMap<u64, PageFrame>,
    /// Current dirty-tracking mode.
    tracking: TrackingMode,
    /// Current heap break (end of the heap VMA), if a heap exists.
    brk: Option<u64>,
    /// Pages write-protected by a deferred (copy-on-write) checkpoint whose
    /// checkpoint-time contents have not been copied out yet.
    cow_protected: ProtectQueue,
    /// Checkpoint-time contents of protected pages that took a write fault
    /// before the background copier reached them (copy-before-write).
    cow_staged: Vec<(u64, PageBuf)>,
    /// COW write-protect faults taken since the last [`Self::take_cow_faults`].
    cow_faults: u64,
    /// Pages whose frame an unmap dropped since the last [`Self::clear_refs`].
    /// One that is mapped again by the next scan reads as zeros where the
    /// last checkpoint may hold bytes, so the scan reports it dirty — what
    /// `VM_SOFTDIRTY` on a new VMA does in Linux.
    unmapped: Vec<u64>,
}

impl AddressSpace {
    /// Empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------------------------
    // Mapping management
    // ------------------------------------------------------------------

    /// Map a VMA. Addresses and length must be page aligned, lie below
    /// [`VADDR_END`] and must not overlap an existing VMA.
    pub fn mmap(&mut self, vma: Vma) -> SimResult<()> {
        if !vma.start.is_multiple_of(PS) || !vma.len.is_multiple_of(PS) || vma.len == 0 {
            return Err(SimError::BadMapping(format!(
                "unaligned or empty mapping {:#x}+{:#x}",
                vma.start, vma.len
            )));
        }
        if vma
            .start
            .checked_add(vma.len)
            .is_none_or(|end| end > VADDR_END)
        {
            return Err(SimError::BadMapping(format!(
                "mapping {:#x}+{:#x} reaches above the 48-bit address space",
                vma.start, vma.len
            )));
        }
        if self.overlaps(vma.start, vma.len) {
            return Err(SimError::BadMapping(format!(
                "mapping {:#x}+{:#x} overlaps an existing VMA",
                vma.start, vma.len
            )));
        }
        if vma.is_heap {
            self.brk = Some(vma.end());
        }
        self.vmas.insert(vma.start, vma);
        Ok(())
    }

    /// Convenience: map an anonymous RW region.
    pub fn mmap_anon(&mut self, start: u64, len: u64) -> SimResult<()> {
        self.mmap(Vma {
            start,
            len,
            perms: Perms::RW,
            kind: VmaKind::Anon,
            is_heap: false,
            is_stack: false,
        })
    }

    /// Convenience: map a file-backed region.
    pub fn mmap_file(
        &mut self,
        start: u64,
        len: u64,
        mf: MappedFile,
        perms: Perms,
    ) -> SimResult<()> {
        self.mmap(Vma {
            start,
            len,
            perms,
            kind: VmaKind::File(mf),
            is_heap: false,
            is_stack: false,
        })
    }

    /// Unmap the VMA starting at `start`, dropping its frames.
    pub fn munmap(&mut self, start: u64) -> SimResult<Vma> {
        let vma = self
            .vmas
            .remove(&start)
            .ok_or_else(|| SimError::BadMapping(format!("no VMA at {start:#x}")))?;
        let first = vma.first_vpn();
        self.drop_pages(first..first + vma.pages());
        if vma.is_heap {
            self.brk = None;
        }
        Ok(vma)
    }

    /// Drop the frames of pages that just lost their mapping. To a deferred
    /// checkpoint that still owes the backup one of them, the unmap is one
    /// more write: its checkpoint-time contents are staged first
    /// (copy-before-unmap), and it leaves the protect set — a later drain
    /// has no frame and no mapping to lend from. That checkpoint's image
    /// still maps the page; later ones do not, and the commit that carries
    /// them prunes it from the backup. A dropped frame is remembered until
    /// the next `clear_refs` (see `unmapped`).
    fn drop_pages(&mut self, vpns: Range<u64>) {
        for vpn in self.cow_protected.remove_range(vpns.clone()) {
            let snap = self.page_contents(vpn);
            self.cow_staged.push((vpn, snap));
        }
        for vpn in vpns {
            if self.frames.remove(&vpn).is_some() {
                self.unmapped.push(vpn);
            }
        }
    }

    /// Grow (or shrink) the heap VMA to end at `new_brk` (page aligned up).
    /// Returns the new break. Requires a heap VMA to exist.
    pub fn brk(&mut self, new_brk: u64) -> SimResult<u64> {
        let heap_start = self
            .vmas
            .values()
            .find(|v| v.is_heap)
            .map(|v| v.start)
            .ok_or_else(|| SimError::BadMapping("no heap VMA".into()))?;
        let aligned = new_brk.div_ceil(PS) * PS;
        if aligned <= heap_start {
            return Err(SimError::BadMapping("brk below heap start".into()));
        }
        // Reject if growth would collide with the next VMA.
        if let Some((&next_start, _)) = self.vmas.range(heap_start + 1..).next() {
            if aligned > next_start {
                return Err(SimError::BadMapping("brk collides with next VMA".into()));
            }
        }
        let heap = self.vmas.get_mut(&heap_start).expect("heap vma exists");
        let old_end = heap.end();
        heap.len = aligned - heap_start;
        if aligned < old_end {
            self.drop_pages(aligned / PS..old_end / PS);
        }
        self.brk = Some(aligned);
        Ok(aligned)
    }

    /// Current heap break.
    pub fn current_brk(&self) -> Option<u64> {
        self.brk
    }

    fn overlaps(&self, start: u64, len: u64) -> bool {
        let end = start + len;
        // Predecessor VMA may extend into us; successor may start before our end.
        if let Some((_, prev)) = self.vmas.range(..=start).next_back() {
            if prev.end() > start {
                return true;
            }
        }
        self.vmas.range(start..end).next().is_some()
    }

    /// The VMA containing `addr`.
    pub fn vma_at(&self, addr: u64) -> Option<&Vma> {
        self.vmas
            .range(..=addr)
            .next_back()
            .map(|(_, v)| v)
            .filter(|v| v.contains(addr))
    }

    /// Iterate over all VMAs in address order.
    pub fn vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// Number of VMAs.
    pub fn vma_count(&self) -> usize {
        self.vmas.len()
    }

    /// Number of mapped file VMAs (each costs one `stat` in a stock dump).
    pub fn mapped_file_count(&self) -> usize {
        self.vmas
            .values()
            .filter(|v| matches!(v.kind, VmaKind::File(_)))
            .count()
    }

    /// Total pages spanned by all VMAs (the pagemap scan length).
    pub fn mapped_pages(&self) -> u64 {
        self.vmas.values().map(Vma::pages).sum()
    }

    /// Number of materialized (resident) frames.
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// Read `buf.len()` bytes at `addr`. Unmaterialized pages read as zeros.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> SimResult<()> {
        self.check_range(addr, buf.len() as u64, false)?;
        let mut off = 0usize;
        let mut cur = addr;
        while off < buf.len() {
            let vpn = cur / PS;
            let in_page = (cur % PS) as usize;
            let n = (PAGE_SIZE - in_page).min(buf.len() - off);
            match self.frames.get(&vpn) {
                Some(f) => buf[off..off + n].copy_from_slice(&f.bytes()[in_page..in_page + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
            cur += n as u64;
        }
        Ok(())
    }

    /// Write `data` at `addr`, materializing frames, setting soft-dirty bits,
    /// and counting tracking faults per the active mode.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> SimResult<WriteOutcome> {
        self.check_range(addr, data.len() as u64, true)?;
        let mut out = WriteOutcome::default();
        let mut off = 0usize;
        let mut cur = addr;
        while off < data.len() {
            let vpn = cur / PS;
            let in_page = (cur % PS) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - off);
            let (touched, frame) = self.touch_page(vpn);
            frame.bytes_mut()[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            frame.written_lines |= lines_of(in_page, n);
            out.absorb(touched);
            off += n;
            cur += n as u64;
        }
        Ok(out)
    }

    /// Mark a page written without supplying contents (used by workloads that
    /// model "dirty a page" without meaningful data — e.g. scratch buffers).
    pub fn touch(&mut self, addr: u64) -> SimResult<WriteOutcome> {
        self.check_range(addr, 1, true)?;
        Ok(self.touch_page(addr / PS).0)
    }

    /// Fault in and dirty one page; hands back its frame so a write lands
    /// without a second page-table lookup.
    fn touch_page(&mut self, vpn: u64) -> (WriteOutcome, &mut PageFrame) {
        let mut out = WriteOutcome::default();
        // Copy-before-write: a write racing the background copier must stage
        // the checkpoint-time contents *before* the new bytes land (callers
        // copy bytes only after `touch_page` returns, so this snapshot is
        // exactly what the frozen container held). The snapshot is what the
        // checkpoint is lent, so the frame's written lines restart from it.
        if self.cow_protected.remove(vpn) {
            out.cow_faults += 1;
            self.cow_faults += 1;
            let snap = match self.frames.get_mut(&vpn) {
                Some(f) => {
                    f.written_lines = 0;
                    f.snapshot()
                }
                None => zero_page(),
            };
            self.cow_staged.push((vpn, snap));
        }
        let frame = self.frames.entry(vpn).or_insert_with(|| {
            out.pages_materialized += 1;
            let mut f = PageFrame::zeroed();
            // A fresh frame under tracking counts as armed: its first write
            // (this one) faults.
            f.tracked_clean = true;
            f
        });
        let fault = match self.tracking {
            TrackingMode::None | TrackingMode::HardwareLog => false,
            TrackingMode::SoftDirty | TrackingMode::WriteProtect => frame.tracked_clean,
        };
        if fault {
            out.tracking_faults += 1;
        }
        frame.tracked_clean = false;
        frame.soft_dirty = true;
        (out, frame)
    }

    fn check_range(&self, addr: u64, len: u64, need_write: bool) -> SimResult<()> {
        if len == 0 {
            return Ok(());
        }
        let mut cur = addr;
        let end = addr + len;
        while cur < end {
            let vma = self.vma_at(cur).ok_or(SimError::Segfault { addr: cur })?;
            if need_write && !vma.perms.w {
                return Err(SimError::Segfault { addr: cur });
            }
            cur = vma.end();
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Dirty tracking
    // ------------------------------------------------------------------

    /// Set the tracking mode (soft-dirty for NiLiCon, write-protect for MC).
    pub fn set_tracking(&mut self, mode: TrackingMode) {
        self.tracking = mode;
    }

    /// Current tracking mode.
    pub fn tracking(&self) -> TrackingMode {
        self.tracking
    }

    /// `/proc/pid/clear_refs` equivalent: clear all soft-dirty bits and
    /// re-arm tracking on every resident frame. Returns the number of frames
    /// walked (the kernel charges `clear_refs_per_page` each).
    pub fn clear_refs(&mut self) -> u64 {
        self.unmapped.clear();
        let mut walked = 0;
        for f in self.frames.values_mut() {
            f.soft_dirty = false;
            f.tracked_clean = true;
            walked += 1;
        }
        walked
    }

    /// `/proc/pid/pagemap` equivalent: virtual page numbers of frames with
    /// the soft-dirty bit set, in ascending order, plus the pages unmapped
    /// and mapped again since the last `clear_refs` that nothing has written
    /// (no frame: they are zeros now). The kernel charges
    /// `pagemap_scan_per_page` for every *mapped* page scanned, not only the
    /// dirty ones — the scan walks the whole address space (§VII-C).
    pub fn soft_dirty_vpns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .frames
            .iter()
            .filter(|(_, f)| f.soft_dirty)
            .map(|(&vpn, _)| vpn)
            .collect();
        let remapped =
            |vpn: &&u64| !self.frames.contains_key(vpn) && self.vma_at(**vpn * PS).is_some();
        v.extend(self.unmapped.iter().filter(remapped));
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Count of currently soft-dirty frames.
    pub fn soft_dirty_count(&self) -> usize {
        self.frames.values().filter(|f| f.soft_dirty).count()
    }

    // ------------------------------------------------------------------
    // Checkpoint support
    // ------------------------------------------------------------------

    /// Copy out one page's contents (zeros if unmaterialized but mapped).
    pub fn snapshot_page(&self, vpn: u64) -> SimResult<PageBuf> {
        let addr = vpn * PS;
        self.vma_at(addr).ok_or(SimError::Segfault { addr })?;
        Ok(self.page_contents(vpn))
    }

    /// A copy of the page's contents: zeros if no frame backs it.
    fn page_contents(&self, vpn: u64) -> PageBuf {
        self.frames
            .get(&vpn)
            .map_or_else(zero_page, PageFrame::snapshot)
    }

    /// Install page contents at restore time (does not set soft-dirty: a
    /// freshly restored container starts with a clean tracking slate).
    pub fn install_page(&mut self, vpn: u64, data: &[u8; PAGE_SIZE]) -> SimResult<()> {
        let addr = vpn * PS;
        self.vma_at(addr).ok_or(SimError::Segfault { addr })?;
        let mut f = PageFrame::from_bytes(data);
        f.soft_dirty = false;
        f.tracked_clean = true;
        self.frames.insert(vpn, f);
        Ok(())
    }

    /// All resident (materialized) vpns in ascending order — a *full* dump.
    pub fn resident_vpns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.frames.keys().copied().collect();
        v.sort_unstable();
        v
    }

    // ------------------------------------------------------------------
    // Copy-on-write checkpoint support
    // ------------------------------------------------------------------

    /// Write-protect `vpns` for a deferred checkpoint: instead of copying
    /// these pages while the container is frozen, the caller records them
    /// here and drains them after resume ([`Self::cow_drain_with`]). A write to a
    /// protected page before it is drained triggers an eager
    /// copy-before-write (see `touch_page`).
    pub fn cow_protect(&mut self, vpns: &[u64]) {
        self.cow_protected.protect(vpns);
    }

    /// Pages still write-protected (not yet drained or faulted).
    pub fn cow_protected_count(&self) -> usize {
        self.cow_protected.live
    }

    /// Pages whose checkpoint-time contents were eagerly staged by write
    /// faults since the last call. Their copy cost was already paid at
    /// fault time (runtime overhead), so handing them over is free.
    pub fn take_cow_staged(&mut self) -> Vec<(u64, PageBuf)> {
        std::mem::take(&mut self.cow_staged)
    }

    /// Background-copier step: un-protect up to `max` protected pages in
    /// ascending vpn order, lending each page's checkpoint-time contents to
    /// `lend` instead of copying them out — the caller decides what (if
    /// anything) of the page it needs to keep. The third argument is the
    /// page's written-line set ([`PageFrame::written_lines`]): outside those
    /// lines the page still holds the bytes it was last lent with. Lending
    /// clears the set. Returns the number of pages lent; the caller charges
    /// per-page drain cost for exactly that many.
    pub fn cow_drain_with(
        &mut self,
        max: usize,
        mut lend: impl FnMut(u64, &[u8; PAGE_SIZE], u64),
    ) -> usize {
        let mut drained = 0;
        while drained < max {
            let Some(vpn) = self.cow_protected.pop() else {
                break;
            };
            match self.frames.get_mut(&vpn) {
                Some(f) => {
                    let lines = std::mem::take(&mut f.written_lines);
                    lend(vpn, f.bytes(), lines);
                }
                None => lend(vpn, &zero_page(), ALL_LINES),
            }
            drained += 1;
        }
        drained
    }

    /// [`Self::cow_drain_with`], copying each page out.
    pub fn cow_drain(&mut self, max: usize) -> Vec<(u64, PageBuf)> {
        let mut out = Vec::with_capacity(max.min(self.cow_protected.live));
        self.cow_drain_with(max, |vpn, page, _| out.push((vpn, Rc::new(*page))));
        out
    }

    /// COW write-protect faults taken since the last call (per-epoch
    /// accounting for the `CowFault` trace mark).
    pub fn take_cow_faults(&mut self) -> u64 {
        std::mem::take(&mut self.cow_faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with_heap() -> AddressSpace {
        let mut a = AddressSpace::new();
        a.mmap(Vma {
            start: 0x10000,
            len: 0x10000, // 16 pages
            perms: Perms::RW,
            kind: VmaKind::Anon,
            is_heap: true,
            is_stack: false,
        })
        .unwrap();
        a
    }

    #[test]
    fn rw_roundtrip_and_zero_fill() {
        let mut a = space_with_heap();
        let mut buf = [0u8; 4];
        a.read(0x10010, &mut buf).unwrap();
        assert_eq!(buf, [0; 4], "untouched memory reads as zeros");
        a.write(0x10010, b"abcd").unwrap();
        a.read(0x10010, &mut buf).unwrap();
        assert_eq!(&buf, b"abcd");
    }

    #[test]
    fn cross_page_write() {
        let mut a = space_with_heap();
        let addr = 0x10000 + PS - 2; // straddles a page boundary
        a.write(addr, b"wxyz").unwrap();
        let mut buf = [0u8; 4];
        a.read(addr, &mut buf).unwrap();
        assert_eq!(&buf, b"wxyz");
        assert_eq!(a.resident_pages(), 2);
    }

    #[test]
    fn segfault_outside_vma() {
        let mut a = space_with_heap();
        assert!(matches!(
            a.write(0x1000, b"x"),
            Err(SimError::Segfault { .. })
        ));
        let mut b = [0u8; 1];
        assert!(a.read(0xFFFF_0000, &mut b).is_err());
    }

    #[test]
    fn write_to_readonly_faults() {
        let mut a = AddressSpace::new();
        a.mmap(Vma {
            start: 0x1000,
            len: 0x1000,
            perms: Perms::R,
            kind: VmaKind::Anon,
            is_heap: false,
            is_stack: false,
        })
        .unwrap();
        assert!(a.write(0x1000, b"x").is_err());
        let mut buf = [0u8; 1];
        assert!(a.read(0x1000, &mut buf).is_ok());
    }

    #[test]
    fn soft_dirty_tracking_counts_first_writes_only() {
        let mut a = space_with_heap();
        a.set_tracking(TrackingMode::SoftDirty);
        a.write(0x10000, b"seed").unwrap();
        a.clear_refs();
        assert_eq!(a.soft_dirty_count(), 0);

        let o1 = a.write(0x10000, b"one").unwrap();
        assert_eq!(o1.tracking_faults, 1);
        let o2 = a.write(0x10002, b"two").unwrap();
        assert_eq!(
            o2.tracking_faults, 0,
            "second write to the same page is free"
        );
        let o3 = a.write(0x12000, b"three").unwrap();
        assert_eq!(o3.tracking_faults, 1, "fresh page under tracking faults");
        assert_eq!(a.soft_dirty_vpns(), vec![0x10, 0x12]);
    }

    #[test]
    fn clear_refs_rearms() {
        let mut a = space_with_heap();
        a.set_tracking(TrackingMode::SoftDirty);
        a.write(0x10000, b"x").unwrap();
        let walked = a.clear_refs();
        assert_eq!(walked, 1);
        let o = a.write(0x10000, b"y").unwrap();
        assert_eq!(o.tracking_faults, 1, "fault re-armed after clear_refs");
    }

    #[test]
    fn no_tracking_no_faults() {
        let mut a = space_with_heap();
        let o = a.write(0x10000, b"x").unwrap();
        assert_eq!(o.tracking_faults, 0);
        assert!(
            a.frames.get(&0x10).unwrap().soft_dirty,
            "soft-dirty bit set regardless"
        );
    }

    #[test]
    fn mmap_rejects_overlap_and_misalignment() {
        let mut a = space_with_heap();
        assert!(a.mmap_anon(0x10000, 0x1000).is_err(), "exact overlap");
        assert!(a.mmap_anon(0x1F000, 0x2000).is_err(), "tail overlap");
        assert!(a.mmap_anon(0x30001, 0x1000).is_err(), "misaligned start");
        assert!(a.mmap_anon(0x30000, 0).is_err(), "empty");
        assert!(a.mmap_anon(0x20000, 0x1000).is_ok(), "adjacent is fine");
    }

    #[test]
    fn brk_grows_and_shrinks() {
        let mut a = space_with_heap();
        assert_eq!(a.current_brk(), Some(0x20000));
        let nb = a.brk(0x28001).unwrap();
        assert_eq!(nb, 0x29000, "rounded up to a page");
        a.write(0x28000, b"deep").unwrap();
        assert_eq!(a.brk(0x21000).unwrap(), 0x21000);
        let mut buf = [0u8; 4];
        a.read(0x20000, &mut buf).unwrap(); // still inside
        assert!(a.read(0x28000, &mut buf).is_err(), "shrunk region unmapped");
    }

    #[test]
    fn brk_collision_with_next_vma() {
        let mut a = space_with_heap();
        a.mmap_anon(0x30000, 0x1000).unwrap();
        assert!(a.brk(0x30000).is_ok(), "may abut");
        assert!(a.brk(0x31000).is_err(), "may not overlap");
    }

    #[test]
    fn snapshot_install_roundtrip() {
        let mut a = space_with_heap();
        a.write(0x11000, b"persist me").unwrap();
        let snap = a.snapshot_page(0x11).unwrap();

        let mut b = space_with_heap();
        b.install_page(0x11, &snap).unwrap();
        let mut buf = [0u8; 10];
        b.read(0x11000, &mut buf).unwrap();
        assert_eq!(&buf, b"persist me");
        assert_eq!(b.soft_dirty_count(), 0, "restored pages start clean");
    }

    #[test]
    fn counters() {
        let mut a = space_with_heap();
        a.mmap_file(
            0x40000,
            0x2000,
            MappedFile {
                ino: crate::ids::Ino(5),
                file_off: 0,
            },
            Perms::RX,
        )
        .unwrap();
        assert_eq!(a.vma_count(), 2);
        assert_eq!(a.mapped_file_count(), 1);
        assert_eq!(a.mapped_pages(), 16 + 2);
        a.write(0x10000, b"x").unwrap();
        assert_eq!(a.resident_vpns(), vec![0x10]);
    }

    #[test]
    fn cow_drain_returns_checkpoint_contents() {
        let mut a = space_with_heap();
        a.write(0x10000, b"AAAA").unwrap();
        a.write(0x11000, b"BBBB").unwrap();
        a.cow_protect(&[0x10, 0x11]);
        assert_eq!(a.cow_protected_count(), 2);
        let drained = a.cow_drain(8);
        assert_eq!(a.cow_protected_count(), 0);
        let vpns: Vec<u64> = drained.iter().map(|(v, _)| *v).collect();
        assert_eq!(vpns, vec![0x10, 0x11], "ascending vpn order");
        assert_eq!(&drained[0].1[..4], b"AAAA");
        assert_eq!(&drained[1].1[..4], b"BBBB");
    }

    #[test]
    fn cow_fault_stages_old_contents_before_write() {
        let mut a = space_with_heap();
        a.set_tracking(TrackingMode::SoftDirty);
        a.write(0x10000, b"OLD!").unwrap();
        a.cow_protect(&[0x10]);
        let o = a.write(0x10000, b"NEW!").unwrap();
        assert_eq!(o.cow_faults, 1, "write to a protected page faults");
        assert_eq!(a.cow_protected_count(), 0, "fault un-protects the page");
        let staged = a.take_cow_staged();
        assert_eq!(staged.len(), 1);
        assert_eq!(&staged[0].1[..4], b"OLD!", "staged copy predates the write");
        let mut buf = [0u8; 4];
        a.read(0x10000, &mut buf).unwrap();
        assert_eq!(&buf, b"NEW!", "the write itself still landed");
        assert_eq!(a.take_cow_faults(), 1);
        assert_eq!(a.take_cow_faults(), 0, "counter is take-once");
        let o2 = a.write(0x10000, b"more").unwrap();
        assert_eq!(o2.cow_faults, 0, "unprotected page writes freely");
    }

    #[test]
    fn cow_drain_respects_chunk_size_and_skips_faulted_pages() {
        let mut a = space_with_heap();
        for p in 0..6u64 {
            a.write(0x10000 + p * PS, &[p as u8; 4]).unwrap();
        }
        a.cow_protect(&[0x10, 0x11, 0x12, 0x13, 0x14, 0x15]);
        a.write(0x12000, b"racer").unwrap(); // faults 0x12 out of the set
        let c1 = a.cow_drain(2);
        assert_eq!(
            c1.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            vec![0x10, 0x11]
        );
        let c2 = a.cow_drain(100);
        assert_eq!(
            c2.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            vec![0x13, 0x14, 0x15],
            "faulted page left the protected set"
        );
        assert_eq!(a.take_cow_staged().len(), 1);
        assert_eq!(a.cow_protected_count(), 0);
    }

    /// Drain everything, as `(vpn, written-line set)`.
    fn lent_lines(a: &mut AddressSpace) -> Vec<(u64, u64)> {
        let mut lent = Vec::new();
        a.cow_drain_with(usize::MAX, |vpn, _, lines| lent.push((vpn, lines)));
        lent
    }

    #[test]
    fn a_page_is_lent_with_the_lines_written_since_it_was_last_lent() {
        let mut a = space_with_heap();
        a.write(0x10000, b"first touch").unwrap();
        a.cow_protect(&[0x10]);
        assert_eq!(lent_lines(&mut a), [(0x10, ALL_LINES)], "a new frame");

        // Bytes 60..70 lie in lines 0 and 1; the last byte of the page and
        // the first of the next are line 63 of one and line 0 of the other.
        a.write(0x10000 + 60, &[7; 10]).unwrap();
        a.write(0x10000 + PS - 1, &[8; 2]).unwrap();
        a.touch(0x10000).unwrap(); // dirties the page, writes no byte
        a.cow_protect(&[0x10, 0x11]);
        assert_eq!(
            lent_lines(&mut a),
            [(0x10, 0b11 | 1 << 63), (0x11, ALL_LINES)],
            "0x11 materialized under the write"
        );
        // Lending cleared both sets; a whole-page write names every line.
        a.write(0x11000 + 64, &[9; 64]).unwrap();
        a.write(0x10000, &[1; PAGE_SIZE]).unwrap();
        a.cow_protect(&[0x10, 0x11, 0x12]);
        assert_eq!(
            lent_lines(&mut a),
            [(0x10, ALL_LINES), (0x11, 0b10), (0x12, ALL_LINES)],
            "0x12 has no frame: zeros, every line"
        );
        let mut b = space_with_heap();
        b.install_page(0x10, &[3; PAGE_SIZE]).unwrap();
        b.cow_protect(&[0x10]);
        assert_eq!(
            lent_lines(&mut b),
            [(0x10, ALL_LINES)],
            "an installed frame"
        );
    }

    #[test]
    fn a_cow_fault_restarts_the_written_lines_from_its_staged_copy() {
        let mut a = space_with_heap();
        a.write(0x10000, &[1; PAGE_SIZE]).unwrap();
        a.cow_protect(&[0x10]);
        lent_lines(&mut a);
        a.write(0x10000 + 128, b"epoch").unwrap(); // line 2
        a.cow_protect(&[0x10]);
        a.write(0x10000 + 640, b"racer").unwrap(); // line 10, faults
        assert_eq!(a.take_cow_staged().len(), 1, "lent whole, by the kernel");
        assert!(lent_lines(&mut a).is_empty());
        a.write(0x10000 + 704, b"later").unwrap(); // line 11
        a.cow_protect(&[0x10]);
        assert_eq!(
            lent_lines(&mut a),
            [(0x10, 0b11 << 10)],
            "what differs from the staged copy: the racing write and after"
        );
    }

    fn drained(a: &mut AddressSpace, max: usize) -> Vec<u64> {
        a.cow_drain(max).into_iter().map(|(vpn, _)| vpn).collect()
    }

    #[test]
    fn protect_queue_skips_pages_that_fault_mid_drain_or_last() {
        let mut a = space_with_heap();
        a.cow_protect(&[0x10, 0x11, 0x12, 0x13, 0x14, 0x15]);
        assert_eq!(drained(&mut a, 2), [0x10, 0x11]);
        assert_eq!(a.cow_protected_count(), 4);
        assert_eq!(a.write(0x13000, b"x").unwrap().cow_faults, 1);
        assert_eq!(
            a.write(0x15000, b"x").unwrap().cow_faults,
            1,
            "the last entry"
        );
        assert_eq!(a.write(0x10000, b"x").unwrap().cow_faults, 0, "drained");
        assert_eq!(a.write(0x13000, b"x").unwrap().cow_faults, 0, "faults once");
        assert_eq!(a.cow_protected_count(), 2);
        assert_eq!(drained(&mut a, 1), [0x12]);
        assert_eq!(a.cow_protected_count(), 1);
        assert_eq!(drained(&mut a, 100), [0x14]);
        assert_eq!(a.cow_protected_count(), 0);
        assert!(drained(&mut a, 100).is_empty());
        // The next epoch's run replaces what is left of this one.
        a.cow_protect(&[0x11, 0x15]);
        assert_eq!(a.cow_protected_count(), 2);
        assert_eq!(drained(&mut a, 100), [0x11, 0x15]);
        assert_eq!(a.take_cow_faults(), 2);
    }

    #[test]
    fn protect_queue_unmaps_across_drained_pending_and_faulted_entries() {
        let mut a = space_with_heap();
        let all: Vec<u64> = (0x10..0x20).collect();
        a.cow_protect(&all);
        assert_eq!(drained(&mut a, 4), [0x10, 0x11, 0x12, 0x13]);
        a.write(0x1a000, b"x").unwrap(); // faults 0x1a out
        a.take_cow_staged();
        // Shrink to 0x18: 0x18..0x20 unmapped — one of them already faulted.
        a.brk(0x18000).unwrap();
        let staged: Vec<u64> = a.take_cow_staged().iter().map(|(v, _)| *v).collect();
        assert_eq!(staged, [0x18, 0x19, 0x1b, 0x1c, 0x1d, 0x1e, 0x1f]);
        assert_eq!(a.cow_protected_count(), 4);
        // And down into the drained part: only the pending pages are staged.
        a.brk(0x12000).unwrap();
        let staged: Vec<u64> = a.take_cow_staged().iter().map(|(v, _)| *v).collect();
        assert_eq!(staged, [0x14, 0x15, 0x16, 0x17]);
        assert_eq!(a.cow_protected_count(), 0);
        assert!(drained(&mut a, 100).is_empty());
    }

    #[test]
    fn protecting_into_a_non_empty_queue_merges_sorted_and_deduplicated() {
        let mut a = space_with_heap();
        a.cow_protect(&[0x11, 0x13, 0x15, 0x17]);
        assert_eq!(drained(&mut a, 1), [0x11]);
        a.write(0x15000, b"x").unwrap(); // faulted: stays out of the merge
        a.cow_protect(&[0x12, 0x13, 0x1f]);
        assert_eq!(a.cow_protected_count(), 4);
        assert_eq!(a.write(0x15000, b"x").unwrap().cow_faults, 0);
        assert_eq!(a.write(0x12000, b"x").unwrap().cow_faults, 1);
        assert_eq!(drained(&mut a, 100), [0x13, 0x17, 0x1f]);
        // A caller's unsorted list with repeats is a set all the same.
        a.cow_protect(&[0x14, 0x10, 0x14, 0x12]);
        assert_eq!(a.cow_protected_count(), 3);
        assert_eq!(drained(&mut a, 100), [0x10, 0x12, 0x14]);
    }

    #[test]
    fn mmap_rejects_addresses_above_48_bits() {
        // The backup's radix tree keeps 36 bits of a page number: a page
        // mapped above 2^48 would land on the slot of one 2^48 below.
        let mut a = AddressSpace::new();
        for (start, len) in [
            (VADDR_END, PS),
            (VADDR_END - PS, 2 * PS),
            (0x10000 + VADDR_END, PS),
            (u64::MAX - PS + 1, PS),
        ] {
            assert!(
                matches!(a.mmap_anon(start, len), Err(SimError::BadMapping(_))),
                "{start:#x}+{len:#x}"
            );
        }
        assert!(a.mmap_anon(VADDR_END - PS, PS).is_ok(), "the last page");
        assert_eq!(a.vma_count(), 1);
    }

    #[test]
    fn unmapping_stages_what_a_deferred_checkpoint_is_owed() {
        let mut a = space_with_heap();
        a.mmap_anon(0x40000, 0x2000).unwrap();
        for addr in [0x12000, 0x1e000, 0x1f000, 0x40000] {
            a.write(addr, b"data").unwrap();
        }
        // 0x41 is mapped, protected and never touched: it reads as zeros.
        a.cow_protect(&[0x12, 0x1e, 0x1f, 0x40, 0x41]);
        a.write(0x1f000, b"late").unwrap(); // faults first: already staged

        a.brk(0x1e000).unwrap(); // drops 0x1e, 0x1f
        a.munmap(0x40000).unwrap(); // drops 0x40, 0x41
        assert_eq!(a.cow_protected_count(), 1, "only the mapped page is left");
        let staged = a.take_cow_staged();
        let vpns: Vec<u64> = staged.iter().map(|(v, _)| *v).collect();
        assert_eq!(vpns, [0x1f, 0x1e, 0x40, 0x41]);
        for (vpn, page) in &staged[..3] {
            assert_eq!(&page[..4], b"data", "{vpn:#x}: checkpoint-time contents");
        }
        assert!(staged[3].1.iter().all(|&b| b == 0));
        let mut lent = Vec::new();
        a.cow_drain_with(16, |vpn, page, _| lent.push((vpn, page[0])));
        assert_eq!(lent, [(0x12, b'd')], "nothing lent for an unmapped page");

        // Regrown, the range is fresh memory that owes no checkpoint a copy.
        a.brk(0x20000).unwrap();
        assert_eq!(a.write(0x1f000, b"new").unwrap().cow_faults, 0);
        assert!(a.take_cow_staged().is_empty());
    }

    #[test]
    fn munmap_drops_frames() {
        let mut a = space_with_heap();
        a.mmap_anon(0x40000, 0x1000).unwrap();
        a.write(0x40000, b"gone").unwrap();
        let v = a.munmap(0x40000).unwrap();
        assert_eq!(v.len, 0x1000);
        assert_eq!(a.resident_pages(), 0);
        assert!(a.munmap(0x40000).is_err());
    }
}
