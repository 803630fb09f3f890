//! # nilicon-drbd — replicated block device with epoch barriers
//!
//! Port of the Remus/Xen DRBD protocol NiLiCon reuses (§II-A, §IV):
//!
//! * the primary and backup have separate disks with initially identical
//!   content;
//! * reads are served locally; writes are applied to the primary's disk
//!   immediately and shipped to the backup **asynchronously** during the
//!   epoch;
//! * at the end of each epoch the primary sends a **barrier** marking the end
//!   of that epoch's writes;
//! * the backup buffers writes **in memory** and applies an epoch's writes to
//!   its disk only when that epoch's full container state has been committed
//!   (checkpoint acked) — so a failover never exposes a disk state ahead of
//!   the memory state;
//! * on failover, sealed-but-uncommitted epochs are discarded.
//!
//! ## Observability
//!
//! Link batches can be summarized with [`wire_stats`]; the NiLiCon engine
//! feeds the result into the `DrbdShip` trace event (see `OBSERVABILITY.md`
//! at the repo root for the full epoch-phase event schema).

#![warn(missing_docs)]
#![deny(unsafe_code)]

use nilicon_sim::block::{BlockDevice, DiskWrite};
use nilicon_sim::PAGE_SIZE;
use std::collections::BTreeMap;

/// A message on the replication link.
#[derive(Debug, Clone)]
pub enum DrbdMsg {
    /// One replicated disk write.
    Write(DiskWrite),
    /// End-of-epoch barrier: all writes of `epoch` have been sent.
    Barrier(u64),
}

impl DrbdMsg {
    /// Wire size of this message (for link-time accounting).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            DrbdMsg::Write(_) => PAGE_SIZE as u64 + 24,
            DrbdMsg::Barrier(_) => 16,
        }
    }
}

/// Wire-accounting summary of a batch of link messages (feeds link-time
/// cost attribution and the `DrbdShip` trace event).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Disk-write messages in the batch.
    pub writes: u64,
    /// Total wire bytes, barriers included.
    pub bytes: u64,
}

/// Summarize a batch of link messages.
pub fn wire_stats(msgs: &[DrbdMsg]) -> WireStats {
    let mut s = WireStats::default();
    for m in msgs {
        if matches!(m, DrbdMsg::Write(_)) {
            s.writes += 1;
        }
        s.bytes += m.wire_bytes();
    }
    s
}

/// Primary-side DRBD: drains the local device's write log and ships it.
#[derive(Debug, Default)]
pub struct DrbdPrimary {
    writes_shipped: u64,
    barriers_sent: u64,
}

impl DrbdPrimary {
    /// New primary-side instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain the primary device's pending writes into link messages
    /// (happens continuously during the epoch — asynchronous shipping).
    pub fn ship(&mut self, disk: &mut BlockDevice) -> Vec<DrbdMsg> {
        let writes = disk.take_writes();
        self.writes_shipped += writes.len() as u64;
        writes.into_iter().map(DrbdMsg::Write).collect()
    }

    /// Produce the end-of-epoch barrier (§IV: the primary agent "directs the
    /// DRBD module to send to the backup a barrier").
    pub fn barrier(&mut self, epoch: u64) -> DrbdMsg {
        self.barriers_sent += 1;
        DrbdMsg::Barrier(epoch)
    }

    /// Lifetime counters `(writes, barriers)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.writes_shipped, self.barriers_sent)
    }
}

/// Backup-side DRBD: buffers writes in memory, commits on epoch commit.
#[derive(Debug, Default)]
pub struct DrbdBackup {
    /// Writes of the epoch currently being received (no barrier yet).
    open: Vec<DiskWrite>,
    /// Epochs whose barrier arrived, awaiting commit. Keyed by epoch.
    sealed: BTreeMap<u64, Vec<DiskWrite>>,
    /// Highest epoch committed to the backup disk.
    committed: Option<u64>,
}

impl DrbdBackup {
    /// New backup-side instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Receive one link message.
    pub fn receive(&mut self, msg: DrbdMsg) {
        match msg {
            DrbdMsg::Write(w) => self.open.push(w),
            DrbdMsg::Barrier(epoch) => {
                let writes = std::mem::take(&mut self.open);
                self.sealed.insert(epoch, writes);
            }
        }
    }

    /// Whether `epoch`'s barrier has arrived (§IV: "once the backup agent has
    /// received both the disk writes and container state, it sends an
    /// acknowledgment").
    pub fn epoch_complete(&self, epoch: u64) -> bool {
        self.sealed.contains_key(&epoch) || self.committed.is_some_and(|c| c >= epoch)
    }

    /// Commit all sealed epochs up to and including `epoch` onto the backup
    /// disk. Returns pages written.
    pub fn commit(&mut self, epoch: u64, disk: &mut BlockDevice) -> usize {
        let to_commit: Vec<u64> = self.sealed.range(..=epoch).map(|(&e, _)| e).collect();
        let mut n = 0;
        for e in to_commit {
            let writes = self.sealed.remove(&e).expect("key listed from range");
            n += writes.len();
            for w in writes {
                disk.apply_replicated(w);
            }
            self.committed = Some(self.committed.map_or(e, |c| c.max(e)));
        }
        n
    }

    /// Failover: discard everything not committed (uncommitted epochs must
    /// not survive — their memory state was never acked either).
    pub fn discard_uncommitted(&mut self) -> usize {
        let n = self.open.len() + self.sealed.values().map(Vec::len).sum::<usize>();
        self.open.clear();
        self.sealed.clear();
        n
    }

    /// Buffered (not yet committed) write count.
    pub fn buffered(&self) -> usize {
        self.open.len() + self.sealed.values().map(Vec::len).sum::<usize>()
    }

    /// Highest committed epoch.
    pub fn committed_epoch(&self) -> Option<u64> {
        self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_sim::fs::PageCache;
    use nilicon_sim::ids::{DevId, Ino};
    use nilicon_sim::PageBuf;
    use std::rc::Rc;

    fn page(tag: u8) -> PageBuf {
        Rc::new([tag; PAGE_SIZE])
    }

    struct Pair {
        pdisk: BlockDevice,
        bdisk: BlockDevice,
        pri: DrbdPrimary,
        bak: DrbdBackup,
    }

    fn pair() -> Pair {
        Pair {
            pdisk: BlockDevice::new(DevId(1)),
            bdisk: BlockDevice::new(DevId(2)),
            pri: DrbdPrimary::new(),
            bak: DrbdBackup::new(),
        }
    }

    impl Pair {
        fn run_epoch(&mut self, epoch: u64, writes: &[(u64, u8)]) {
            for &(idx, tag) in writes {
                self.pdisk.write_page(Ino(1), idx, page(tag));
            }
            for msg in self.pri.ship(&mut self.pdisk) {
                self.bak.receive(msg);
            }
            let b = self.pri.barrier(epoch);
            self.bak.receive(b);
        }
    }

    #[test]
    fn commit_after_ack_makes_disks_equal() {
        let mut p = pair();
        p.run_epoch(1, &[(0, 1), (1, 2)]);
        assert!(p.bak.epoch_complete(1));
        assert_ne!(p.pdisk.digest(), p.bdisk.digest(), "not yet committed");
        let n = p.bak.commit(1, &mut p.bdisk);
        assert_eq!(n, 2);
        assert_eq!(p.pdisk.digest(), p.bdisk.digest());
        assert_eq!(p.bak.committed_epoch(), Some(1));
    }

    #[test]
    fn uncommitted_epoch_discarded_at_failover() {
        let mut p = pair();
        p.run_epoch(1, &[(0, 1)]);
        p.bak.commit(1, &mut p.bdisk);
        let committed_digest = p.bdisk.digest();

        // Epoch 2's writes arrive (even its barrier) but are never acked.
        p.run_epoch(2, &[(0, 9), (5, 9)]);
        // Epoch 3 partially arrives (no barrier).
        p.pdisk.write_page(Ino(1), 7, page(7));
        for msg in p.pri.ship(&mut p.pdisk) {
            p.bak.receive(msg);
        }
        assert_eq!(p.bak.buffered(), 3);
        let dropped = p.bak.discard_uncommitted();
        assert_eq!(dropped, 3);
        assert_eq!(
            p.bdisk.digest(),
            committed_digest,
            "backup disk = last commit"
        );
        assert_eq!(p.bak.committed_epoch(), Some(1));
    }

    #[test]
    fn commit_applies_epochs_in_order_up_to_target() {
        let mut p = pair();
        p.run_epoch(1, &[(0, 1)]);
        p.run_epoch(2, &[(0, 2)]);
        p.run_epoch(3, &[(0, 3)]);
        // Commit through epoch 2 only.
        let n = p.bak.commit(2, &mut p.bdisk);
        assert_eq!(n, 2);
        assert_eq!(
            p.bdisk.read_page(Ino(1), 0).unwrap()[0],
            2,
            "epoch 2's value"
        );
        assert_eq!(p.bak.buffered(), 1, "epoch 3 still sealed");
        p.bak.commit(3, &mut p.bdisk);
        assert_eq!(p.bdisk.read_page(Ino(1), 0).unwrap()[0], 3);
    }

    #[test]
    fn epoch_complete_semantics() {
        let mut p = pair();
        assert!(!p.bak.epoch_complete(1));
        p.pdisk.write_page(Ino(1), 0, page(1));
        for msg in p.pri.ship(&mut p.pdisk) {
            p.bak.receive(msg);
        }
        assert!(!p.bak.epoch_complete(1), "writes but no barrier yet");
        p.bak.receive(p.pri.barrier(1));
        assert!(p.bak.epoch_complete(1));
        p.bak.commit(1, &mut p.bdisk);
        assert!(p.bak.epoch_complete(1), "committed epochs stay complete");
    }

    #[test]
    fn empty_epochs_are_cheap_and_correct() {
        let mut p = pair();
        for e in 1..=100 {
            p.run_epoch(e, &[]);
        }
        assert_eq!(p.bak.commit(100, &mut p.bdisk), 0);
        assert_eq!(p.bak.committed_epoch(), Some(100));
        assert_eq!(p.pdisk.digest(), p.bdisk.digest());
    }

    #[test]
    fn wire_bytes() {
        let w = DrbdMsg::Write(DiskWrite {
            ino: Ino(1),
            page_idx: 0,
            data: page(0),
        });
        assert_eq!(w.wire_bytes(), 4120);
        assert_eq!(DrbdMsg::Barrier(1).wire_bytes(), 16);
    }

    #[test]
    fn wire_stats_summarizes_batches() {
        let mut p = pair();
        p.pdisk.write_page(Ino(1), 0, page(1));
        p.pdisk.write_page(Ino(1), 1, page(2));
        let mut msgs = p.pri.ship(&mut p.pdisk);
        msgs.push(p.pri.barrier(1));
        let s = wire_stats(&msgs);
        assert_eq!(s.writes, 2);
        assert_eq!(s.bytes, 2 * 4120 + 16);
        assert_eq!(wire_stats(&[]), WireStats::default());
    }

    #[test]
    fn one_buffer_from_page_cache_to_backup_disk_until_the_next_write() {
        let mut p = pair();
        let mut cache = PageCache::new();
        cache.write(&p.pdisk, Ino(1), 0, 0, b"v1");
        cache.flush(&mut p.pdisk, None);
        let cached = cache.get(Ino(1), 0).unwrap().data.clone();
        let stored = p.pdisk.read_page(Ino(1), 0).unwrap();
        assert!(Rc::ptr_eq(&cached, stored), "flush shares into the store");
        let msgs = p.pri.ship(&mut p.pdisk);
        let DrbdMsg::Write(logged) = &msgs[0] else {
            panic!("a write first")
        };
        assert!(Rc::ptr_eq(&cached, &logged.data), "the write log shares it");
        for m in msgs {
            p.bak.receive(m);
        }
        p.bak.receive(p.pri.barrier(1));
        p.bak.commit(1, &mut p.bdisk);
        let applied = p.bdisk.read_page(Ino(1), 0).unwrap();
        assert!(Rc::ptr_eq(&cached, applied), "the backup disk shares it");
        let ckpt = cache.fgetfc();
        assert!(Rc::ptr_eq(&cached, &ckpt.pages[0].2), "fgetfc shares it");

        cache.write(&p.pdisk, Ino(1), 0, 0, b"v2");
        let now = &cache.get(Ino(1), 0).unwrap().data;
        assert!(!Rc::ptr_eq(&cached, now), "the next write copies");
        assert_eq!(&now[..2], b"v2");
        let held = [&ckpt.pages[0].2, p.pdisk.read_page(Ino(1), 0).unwrap()];
        for page in held.into_iter().chain(p.bdisk.read_page(Ino(1), 0)) {
            assert!(Rc::ptr_eq(&cached, page));
            assert_eq!(&page[..2], b"v1", "no holder sees the write");
        }
    }

    #[test]
    fn counters() {
        let mut p = pair();
        p.run_epoch(1, &[(0, 1), (1, 1), (2, 1)]);
        assert_eq!(p.pri.counters(), (3, 1));
    }
}
