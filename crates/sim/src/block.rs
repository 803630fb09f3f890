//! Logical block layer.
//!
//! The simulated "disk" stores file pages keyed by `(inode, page index)` —
//! a logical block store rather than raw sectors. This keeps the DRBD
//! replication protocol (async shipping, barriers, backup buffering, commit
//! on ack) fully faithful while avoiding irrelevant sector math. Every write
//! is appended to a write log that the DRBD primary drains.

use crate::ids::{DevId, IdMap, Ino};
use crate::mem::PageBuf;

/// One logical disk write (a page of file data hitting stable storage).
#[derive(Clone, PartialEq, Eq)]
pub struct DiskWrite {
    /// Target inode.
    pub ino: Ino,
    /// Page index within the file.
    pub page_idx: u64,
    /// Page contents, shared with the store that holds the same version.
    pub data: PageBuf,
}

impl std::fmt::Debug for DiskWrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskWrite")
            .field("ino", &self.ino)
            .field("page_idx", &self.page_idx)
            .finish()
    }
}

/// A block device: persistent page store + write log.
#[derive(Debug, Default)]
pub struct BlockDevice {
    /// Device id (assigned by the kernel).
    pub id: DevId,
    /// Walks sort (`full_sync_writes`, `digest`).
    store: IdMap<(Ino, u64), PageBuf>,
    write_log: Vec<DiskWrite>,
    writes_total: u64,
}

impl BlockDevice {
    /// New empty device.
    pub fn new(id: DevId) -> Self {
        BlockDevice {
            id,
            ..Default::default()
        }
    }

    /// Write one page to stable storage (logged for replication).
    pub fn write_page(&mut self, ino: Ino, page_idx: u64, data: PageBuf) {
        self.store.insert((ino, page_idx), data.clone());
        self.write_log.push(DiskWrite {
            ino,
            page_idx,
            data,
        });
        self.writes_total += 1;
    }

    /// Apply a replicated write *without* logging it (backup-side commit —
    /// re-logging would echo the write back to the replication layer).
    pub fn apply_replicated(&mut self, w: DiskWrite) {
        self.store.insert((w.ino, w.page_idx), w.data);
        self.writes_total += 1;
    }

    /// Read one page; `None` if never written.
    pub fn read_page(&self, ino: Ino, page_idx: u64) -> Option<&PageBuf> {
        self.store.get(&(ino, page_idx))
    }

    /// Drain the write log (the DRBD primary ships these asynchronously).
    pub fn take_writes(&mut self) -> Vec<DiskWrite> {
        std::mem::take(&mut self.write_log)
    }

    /// Number of pending (not yet drained) logged writes.
    pub fn pending_writes(&self) -> usize {
        self.write_log.len()
    }

    /// Total writes ever applied to this device.
    pub fn writes_total(&self) -> u64 {
        self.writes_total
    }

    /// Number of distinct stored pages.
    pub fn stored_pages(&self) -> usize {
        self.store.len()
    }

    /// Snapshot the full device content as writes, sorted by `(ino, page)`
    /// for determinism. A freshly provisioned replication target has none of
    /// this device's history, so re-establishing redundancy needs a full
    /// resync (DRBD's initial bitmap-based sync) rather than the write log.
    pub fn full_sync_writes(&self) -> Vec<DiskWrite> {
        let mut keys: Vec<&(Ino, u64)> = self.store.keys().collect();
        keys.sort();
        keys.into_iter()
            .map(|&(ino, page_idx)| DiskWrite {
                ino,
                page_idx,
                data: self.store[&(ino, page_idx)].clone(),
            })
            .collect()
    }

    /// Content digest for equality checks in tests (order-independent).
    pub fn digest(&self) -> u64 {
        // FNV-1a over sorted (key, page) pairs — cheap and deterministic.
        let mut keys: Vec<&(Ino, u64)> = self.store.keys().collect();
        keys.sort();
        let mut h: u64 = 0xcbf29ce484222325;
        let mut mix = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        };
        for k in keys {
            for b in k.0 .0.to_le_bytes() {
                mix(b);
            }
            for b in k.1.to_le_bytes() {
                mix(b);
            }
            for &b in self.store[k].iter() {
                mix(b);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;
    use std::rc::Rc;

    fn page(fill: u8) -> PageBuf {
        Rc::new([fill; PAGE_SIZE])
    }

    #[test]
    fn write_read_roundtrip() {
        let mut d = BlockDevice::new(DevId(1));
        assert!(d.read_page(Ino(1), 0).is_none());
        d.write_page(Ino(1), 0, page(7));
        assert_eq!(d.read_page(Ino(1), 0).unwrap()[0], 7);
        assert_eq!(d.stored_pages(), 1);
    }

    #[test]
    fn write_log_drains() {
        let mut d = BlockDevice::new(DevId(1));
        d.write_page(Ino(1), 0, page(1));
        d.write_page(Ino(1), 1, page(2));
        assert_eq!(d.pending_writes(), 2);
        let writes = d.take_writes();
        assert_eq!(writes.len(), 2);
        assert_eq!(writes[1].page_idx, 1);
        assert_eq!(d.pending_writes(), 0);
        assert_eq!(d.writes_total(), 2);
    }

    #[test]
    fn replicated_apply_does_not_log() {
        let mut primary = BlockDevice::new(DevId(1));
        let mut backup = BlockDevice::new(DevId(2));
        primary.write_page(Ino(9), 3, page(0xAA));
        for w in primary.take_writes() {
            backup.apply_replicated(w);
        }
        assert_eq!(backup.pending_writes(), 0, "backup must not re-log");
        assert_eq!(backup.read_page(Ino(9), 3).unwrap()[0], 0xAA);
        assert_eq!(primary.digest(), backup.digest());
    }

    #[test]
    fn digest_detects_divergence() {
        let mut a = BlockDevice::new(DevId(1));
        let mut b = BlockDevice::new(DevId(2));
        a.write_page(Ino(1), 0, page(1));
        b.write_page(Ino(1), 0, page(2));
        assert_ne!(a.digest(), b.digest());
        b.write_page(Ino(1), 0, page(1));
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn full_sync_snapshot_rebuilds_fresh_device() {
        let mut src = BlockDevice::new(DevId(1));
        src.write_page(Ino(2), 1, page(2));
        src.write_page(Ino(1), 0, page(1));
        src.write_page(Ino(1), 5, page(5));
        let _ = src.take_writes(); // log already drained: snapshot must not rely on it
        let snap = src.full_sync_writes();
        assert_eq!(snap.len(), 3);
        let keys: Vec<(Ino, u64)> = snap.iter().map(|w| (w.ino, w.page_idx)).collect();
        assert_eq!(keys, vec![(Ino(1), 0), (Ino(1), 5), (Ino(2), 1)], "sorted");
        let mut fresh = BlockDevice::new(DevId(3));
        for w in snap {
            fresh.apply_replicated(w);
        }
        assert_eq!(fresh.digest(), src.digest());
        assert_eq!(fresh.pending_writes(), 0, "resync must not re-log");
    }

    #[test]
    fn overwrite_keeps_single_stored_page() {
        let mut d = BlockDevice::new(DevId(1));
        d.write_page(Ino(1), 0, page(1));
        d.write_page(Ino(1), 0, page(2));
        assert_eq!(d.stored_pages(), 1);
        assert_eq!(d.read_page(Ino(1), 0).unwrap()[0], 2);
        assert_eq!(d.writes_total(), 2);
    }
}
