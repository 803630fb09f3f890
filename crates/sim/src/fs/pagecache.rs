//! Page cache with Dirty and DNC bits, and the `fgetfc` collection path.

use crate::block::BlockDevice;
use crate::ids::{IdMap, Ino};
use crate::mem::PageBuf;
use crate::PAGE_SIZE;
use std::rc::Rc;

/// One cached file page.
#[derive(Clone)]
pub struct CachePage {
    /// Page contents, shared with the disk, the write log and checkpoints
    /// until the next write into the page copies it.
    pub data: PageBuf,
    /// Needs writeback to the block device.
    pub dirty: bool,
    /// Dirty but Not Checkpointed: modified since the last `fgetfc` (§III).
    pub dnc: bool,
}

impl std::fmt::Debug for CachePage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachePage")
            .field("dirty", &self.dirty)
            .field("dnc", &self.dnc)
            .finish()
    }
}

/// A checkpoint of the file-system cache state collected by `fgetfc`.
///
/// Contains exactly the page-cache entries and (by the caller's pairing)
/// inode-cache entries modified since the previous collection. Restored with
/// ordinary syscalls (`pwrite` for pages, `chown`/`truncate` for inodes).
#[derive(Debug, Default, Clone)]
pub struct FsCacheCheckpoint {
    /// `(inode, page index, contents, dirty-for-writeback)` tuples.
    pub pages: Vec<(Ino, u64, PageBuf, bool)>,
}

impl FsCacheCheckpoint {
    /// Total byte size of checkpointed page contents.
    pub fn bytes(&self) -> u64 {
        (self.pages.len() * PAGE_SIZE) as u64
    }
}

/// The page cache of one kernel.
#[derive(Debug, Default)]
pub struct PageCache {
    /// Walks sort (`flush`, `fgetfc`) or only count.
    entries: IdMap<(Ino, u64), CachePage>,
}

impl PageCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Write `data` into the cache at `(ino, page_idx)` from `offset` within
    /// the page; an uncached page starts from its contents on `disk` (zeros
    /// if it was never written). Marks the entry Dirty + DNC. Returns true if
    /// the entry was newly created.
    pub fn write(
        &mut self,
        disk: &BlockDevice,
        ino: Ino,
        page_idx: u64,
        offset: usize,
        data: &[u8],
    ) -> bool {
        assert!(offset + data.len() <= PAGE_SIZE, "cache write exceeds page");
        let mut created = false;
        let e = self.entries.entry((ino, page_idx)).or_insert_with(|| {
            created = true;
            let on_disk = disk.read_page(ino, page_idx).cloned();
            CachePage {
                data: on_disk.unwrap_or_else(|| Rc::new([0; PAGE_SIZE])),
                dirty: false,
                dnc: false,
            }
        });
        Rc::make_mut(&mut e.data)[offset..offset + data.len()].copy_from_slice(data);
        e.dirty = true;
        e.dnc = true;
        created
    }

    /// Read from the cache; on miss, fault the page in from `disk` (clean) and
    /// read from it. Returns false on a complete miss (no cache, no disk).
    pub fn read(
        &mut self,
        disk: &BlockDevice,
        ino: Ino,
        page_idx: u64,
        offset: usize,
        buf: &mut [u8],
    ) -> bool {
        assert!(offset + buf.len() <= PAGE_SIZE, "cache read exceeds page");
        if let Some(e) = self.entries.get(&(ino, page_idx)) {
            buf.copy_from_slice(&e.data[offset..offset + buf.len()]);
            return true;
        }
        if let Some(p) = disk.read_page(ino, page_idx) {
            buf.copy_from_slice(&p[offset..offset + buf.len()]);
            self.entries.insert(
                (ino, page_idx),
                CachePage {
                    data: p.clone(),
                    dirty: false,
                    dnc: false,
                },
            );
            return true;
        }
        buf.fill(0);
        false
    }

    /// Write back all dirty pages of `ino` (or all inodes if `None`) to the
    /// block device. Clears Dirty; leaves DNC untouched (the state still
    /// changed since the last checkpoint). Returns pages written.
    pub fn flush(&mut self, disk: &mut BlockDevice, ino: Option<Ino>) -> usize {
        // Sorted: the write log's order is DRBD's shipping order.
        let mut keys: Vec<(Ino, u64)> = self
            .entries
            .iter()
            .filter(|(&(i, _), e)| e.dirty && ino.is_none_or(|want| want == i))
            .map(|(&k, _)| k)
            .collect();
        keys.sort_unstable();
        for &(i, idx) in &keys {
            let e = self.entries.get_mut(&(i, idx)).expect("key just collected");
            disk.write_page(i, idx, e.data.clone());
            e.dirty = false;
        }
        keys.len()
    }

    /// The paper's `fgetfc` syscall: collect every DNC page and clear its DNC
    /// bit. Sorted for determinism.
    pub fn fgetfc(&mut self) -> FsCacheCheckpoint {
        let mut keys: Vec<(Ino, u64)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.dnc)
            .map(|(&k, _)| k)
            .collect();
        keys.sort();
        let mut out = FsCacheCheckpoint::default();
        for k in keys {
            let e = self.entries.get_mut(&k).expect("key just collected");
            e.dnc = false;
            out.pages.push((k.0, k.1, e.data.clone(), e.dirty));
        }
        out
    }

    /// Install a checkpointed cache state at restore (pages arrive clean of
    /// DNC — they are now checkpointed by definition — but keep their
    /// writeback-dirty flag).
    pub fn install(&mut self, ckpt: &FsCacheCheckpoint) {
        for (ino, idx, data, dirty) in &ckpt.pages {
            self.entries.insert(
                (*ino, *idx),
                CachePage {
                    data: data.clone(),
                    dirty: *dirty,
                    dnc: false,
                },
            );
        }
    }

    /// Number of DNC entries currently pending collection.
    pub fn dnc_count(&self) -> usize {
        self.entries.values().filter(|e| e.dnc).count()
    }

    /// Number of dirty (needs-writeback) entries.
    pub fn dirty_count(&self) -> usize {
        self.entries.values().filter(|e| e.dirty).count()
    }

    /// Total cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Direct entry access for verification in tests.
    pub fn get(&self, ino: Ino, page_idx: u64) -> Option<&CachePage> {
        self.entries.get(&(ino, page_idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DevId;

    #[test]
    fn write_then_read_hits_cache() {
        let mut pc = PageCache::new();
        let disk = BlockDevice::new(DevId(1));
        pc.write(&disk, Ino(1), 0, 100, b"hello");
        let mut buf = [0u8; 5];
        assert!(pc.read(&disk, Ino(1), 0, 100, &mut buf));
        assert_eq!(&buf, b"hello");
        assert_eq!(pc.dirty_count(), 1);
        assert_eq!(pc.dnc_count(), 1);
    }

    #[test]
    fn read_faults_in_from_disk_clean() {
        let mut pc = PageCache::new();
        let mut disk = BlockDevice::new(DevId(1));
        disk.write_page(Ino(1), 2, Rc::new([9u8; PAGE_SIZE]));
        let mut buf = [0u8; 3];
        assert!(pc.read(&disk, Ino(1), 2, 0, &mut buf));
        assert_eq!(buf, [9, 9, 9]);
        assert_eq!(pc.dirty_count(), 0, "faulted-in page is clean");
        assert_eq!(pc.dnc_count(), 0, "faulted-in page needs no checkpoint");
        assert_eq!(pc.len(), 1);
    }

    #[test]
    fn complete_miss_reads_zeros() {
        let mut pc = PageCache::new();
        let disk = BlockDevice::new(DevId(1));
        let mut buf = [7u8; 4];
        assert!(!pc.read(&disk, Ino(5), 0, 0, &mut buf));
        assert_eq!(buf, [0; 4]);
    }

    #[test]
    fn flush_writes_back_and_clears_dirty_not_dnc() {
        let mut pc = PageCache::new();
        let mut disk = BlockDevice::new(DevId(1));
        pc.write(&disk, Ino(1), 0, 0, b"a");
        pc.write(&disk, Ino(2), 0, 0, b"b");
        let n = pc.flush(&mut disk, Some(Ino(1)));
        assert_eq!(n, 1);
        assert_eq!(disk.read_page(Ino(1), 0).unwrap()[0], b'a');
        assert_eq!(pc.dirty_count(), 1, "other inode still dirty");
        assert_eq!(pc.dnc_count(), 2, "flush does not clear DNC");
        assert_eq!(pc.flush(&mut disk, None), 1);
        assert_eq!(pc.dirty_count(), 0);
    }

    #[test]
    fn fgetfc_collects_exactly_dnc_and_clears() {
        let mut pc = PageCache::new();
        let disk = BlockDevice::new(DevId(1));
        pc.write(&disk, Ino(1), 0, 0, b"x");
        pc.write(&disk, Ino(1), 3, 0, b"y");
        let c1 = pc.fgetfc();
        assert_eq!(c1.pages.len(), 2);
        assert_eq!(c1.bytes(), 2 * PAGE_SIZE as u64);
        assert_eq!(pc.dnc_count(), 0);

        // No changes -> empty collection (the whole point of DNC tracking).
        assert!(pc.fgetfc().pages.is_empty());

        // One page re-dirtied -> only that page collected.
        pc.write(&disk, Ino(1), 3, 10, b"z");
        let c2 = pc.fgetfc();
        assert_eq!(c2.pages.len(), 1);
        assert_eq!(c2.pages[0].1, 3);
    }

    #[test]
    fn fgetfc_is_sorted() {
        let mut pc = PageCache::new();
        let disk = BlockDevice::new(DevId(1));
        pc.write(&disk, Ino(2), 5, 0, b"b");
        pc.write(&disk, Ino(1), 9, 0, b"a");
        pc.write(&disk, Ino(1), 2, 0, b"c");
        let c = pc.fgetfc();
        let keys: Vec<(Ino, u64)> = c.pages.iter().map(|(i, p, _, _)| (*i, *p)).collect();
        assert_eq!(keys, vec![(Ino(1), 2), (Ino(1), 9), (Ino(2), 5)]);
    }

    #[test]
    fn install_restores_contents_and_dirty_flag() {
        let mut pc = PageCache::new();
        let disk = BlockDevice::new(DevId(9));
        pc.write(&disk, Ino(1), 0, 0, b"keep");
        let ckpt = pc.fgetfc();

        let mut restored = PageCache::new();
        restored.install(&ckpt);
        let mut buf = [0u8; 4];
        assert!(restored.read(&disk, Ino(1), 0, 0, &mut buf));
        assert_eq!(&buf, b"keep");
        assert_eq!(
            restored.dirty_count(),
            1,
            "writeback obligation survives failover"
        );
        assert_eq!(restored.dnc_count(), 0);
    }

    #[test]
    fn partial_write_to_uncached_page_keeps_the_rest_of_it() {
        let mut disk = BlockDevice::new(DevId(1));
        let mut pc = PageCache::new();
        pc.write(&disk, Ino(1), 0, 0, &[5u8; PAGE_SIZE]);
        pc.flush(&mut disk, None);

        let mut fresh = PageCache::new();
        assert!(fresh.write(&disk, Ino(1), 0, 10, &[6]), "uncached entry");
        let mut buf = [0u8; PAGE_SIZE];
        fresh.read(&disk, Ino(1), 0, 0, &mut buf);
        assert_eq!(buf[10], 6);
        assert!(
            buf.iter().enumerate().all(|(i, &b)| i == 10 || b == 5),
            "the bytes the write did not cover come from the disk"
        );
        assert_eq!(disk.read_page(Ino(1), 0).unwrap()[10], 5, "disk unchanged");
    }
}
