//! The backup agent (§III, §IV).
//!
//! Unlike Remus, NiLiCon does **not** maintain a ready-to-go backup
//! container — applying in-kernel state through syscalls every epoch would
//! cost hundreds of milliseconds. Instead the backup agent keeps everything
//! in buffers: the accumulated memory image in a page store (radix tree or
//! stock linked list, §V-A), merged file-cache state, the latest metadata
//! image, and DRBD-buffered disk writes. Only on failover is this state
//! materialized into CRIU-format images and restored.

use nilicon_criu::{
    CheckpointImage, LinkedListStore, PageEncoding, PageKey, PageStore, RadixTreeStore,
};
use nilicon_sim::ids::Pid;
use nilicon_drbd::{DrbdBackup, DrbdMsg};
use nilicon_sim::block::BlockDevice;
use nilicon_sim::costs::CostModel;
use nilicon_sim::fs::{FsCacheCheckpoint, Inode};
use nilicon_sim::ids::Ino;
use nilicon_sim::time::Nanos;
use nilicon_sim::{PageBuf, SimError, SimResult, PAGE_SIZE};
use std::collections::{BTreeMap, HashMap};

/// Merged committed file-cache page: contents + writeback-dirty flag.
type FsPageEntry = (Box<[u8; PAGE_SIZE]>, bool);

/// An epoch arriving in pieces (COW checkpointing): the metadata image lands
/// first, then page chunks stream in as the primary's background copier
/// drains them. The epoch enters `pending` — and thus becomes ackable — only
/// once every expected page has arrived.
struct CowAssembly {
    img: CheckpointImage,
    /// Pages the primary deferred at pause (the protect-set size).
    expected_pages: u64,
    /// Pages received in chunks so far.
    received_pages: u64,
    /// Chunks received so far.
    received_chunks: u64,
}

/// What [`BackupAgent::discard_uncommitted`] threw away, per class — the
/// observability counterpart of the failover's output-commit discards (a
/// half-assembled COW epoch used to count as an opaque "1" no matter how many
/// chunks it had accumulated).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiscardCounts {
    /// Fully-assembled pending epochs dropped (received but never acked).
    pub epochs: usize,
    /// Streamed chunks of a half-assembled COW epoch dropped.
    pub chunks: usize,
    /// Buffered DRBD disk writes dropped.
    pub drbd: usize,
}

impl DiscardCounts {
    /// True when nothing was discarded.
    pub fn is_empty(&self) -> bool {
        *self == DiscardCounts::default()
    }
}

/// The backup agent's buffered replica state.
pub struct BackupAgent {
    store: Box<dyn PageStore>,
    /// Fully-received epochs awaiting commit (epoch → image).
    pending: BTreeMap<u64, CheckpointImage>,
    /// In-flight COW chunk assembly (at most one epoch streams at a time).
    assembling: Option<CowAssembly>,
    /// Latest committed metadata image (pages stripped — they live in the
    /// store).
    committed_meta: Option<CheckpointImage>,
    /// Merged committed file-cache state.
    fs_pages: HashMap<(Ino, u64), FsPageEntry>,
    /// Merged committed inode-cache state.
    fs_inodes: HashMap<Ino, Inode>,
    /// DRBD write buffer.
    pub drbd: DrbdBackup,
    committed_epoch: Option<u64>,
    cpu: Nanos,
    costs: CostModel,
    use_radix: bool,
    /// `(page-store probes, disk pages applied)` of the most recent
    /// [`BackupAgent::commit`] call — the trace's `BackupIngest`/
    /// `BackupCommit` attribution.
    last_commit_stats: (u64, u64),
}

impl std::fmt::Debug for BackupAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackupAgent")
            .field("committed_epoch", &self.committed_epoch)
            .field("pending", &self.pending.len())
            .field("stored_pages", &self.store.len())
            .field("cpu", &self.cpu)
            .finish()
    }
}

impl BackupAgent {
    /// New agent. `use_radix` selects NiLiCon's radix tree vs stock CRIU's
    /// linked list of checkpoint directories (§V-A).
    pub fn new(costs: CostModel, use_radix: bool) -> Self {
        let store: Box<dyn PageStore> = if use_radix {
            Box::new(RadixTreeStore::new())
        } else {
            Box::new(LinkedListStore::new())
        };
        BackupAgent {
            store,
            pending: BTreeMap::new(),
            assembling: None,
            committed_meta: None,
            fs_pages: HashMap::new(),
            fs_inodes: HashMap::new(),
            drbd: DrbdBackup::new(),
            committed_epoch: None,
            cpu: 0,
            costs,
            use_radix,
            last_commit_stats: (0, 0),
        }
    }

    /// Receive one epoch's checkpoint image off the wire. Returns the backup
    /// CPU consumed receiving it (read syscalls per chunk — Table V).
    pub fn ingest(&mut self, img: CheckpointImage) -> Nanos {
        let cpu = self
            .costs
            .backup_recv(img.state_bytes(), img.transfer_chunks());
        self.cpu += cpu;
        self.pending.insert(img.epoch, img);
        cpu
    }

    /// COW streaming step 1: receive the epoch's *metadata* image (pages
    /// still deferred on the primary) and open a chunk assembly expecting
    /// `expected_pages` pages. The epoch is not ackable until
    /// [`BackupAgent::finish_assembly`] confirms every page arrived. Returns
    /// the backup CPU consumed receiving the metadata.
    pub fn begin_assembly(&mut self, img: CheckpointImage, expected_pages: u64) -> Nanos {
        let cpu = self
            .costs
            .backup_recv(img.state_bytes(), img.transfer_chunks());
        self.cpu += cpu;
        self.assembling = Some(CowAssembly {
            img,
            expected_pages,
            received_pages: 0,
            received_chunks: 0,
        });
        cpu
    }

    /// COW streaming step 2: receive one chunk of drained pages (full bodies
    /// and/or delta encodings) for the epoch opened by
    /// [`BackupAgent::begin_assembly`]. Returns the backup CPU consumed.
    pub fn ingest_chunk(
        &mut self,
        epoch: u64,
        pages: Vec<(Pid, u64, PageBuf)>,
        deltas: Vec<(Pid, u64, PageEncoding)>,
    ) -> SimResult<Nanos> {
        let asm = match &mut self.assembling {
            Some(a) if a.img.epoch == epoch => a,
            _ => {
                return Err(SimError::Invalid(format!(
                    "cow chunk for epoch {epoch} with no matching assembly"
                )))
            }
        };
        let bytes = pages.len() as u64 * PAGE_SIZE as u64
            + deltas.iter().map(|(_, _, e)| e.encoded_bytes()).sum::<u64>();
        let cpu = self.costs.backup_recv(bytes, 1);
        self.cpu += cpu;
        asm.received_pages += (pages.len() + deltas.len()) as u64;
        asm.received_chunks += 1;
        asm.img.pages.extend(pages);
        asm.img.page_deltas.extend(deltas);
        Ok(cpu)
    }

    /// COW streaming step 3: the commit barrier. Verifies every deferred
    /// page of the epoch arrived and only then moves the image into
    /// `pending` — before this, [`BackupAgent::epoch_complete`] is false and
    /// the epoch can be neither acked nor committed.
    pub fn finish_assembly(&mut self, epoch: u64) -> SimResult<()> {
        let asm = match self.assembling.take() {
            Some(a) if a.img.epoch == epoch => a,
            other => {
                self.assembling = other;
                return Err(SimError::Invalid(format!(
                    "finish_assembly({epoch}) with no matching assembly"
                )));
            }
        };
        if asm.received_pages != asm.expected_pages {
            return Err(SimError::Invalid(format!(
                "epoch {epoch} assembly incomplete: {}/{} pages",
                asm.received_pages, asm.expected_pages
            )));
        }
        self.pending.insert(epoch, asm.img);
        Ok(())
    }

    /// Receive DRBD traffic.
    pub fn ingest_drbd(&mut self, msgs: Vec<DrbdMsg>) -> Nanos {
        let mut bytes = 0u64;
        let n = msgs.len() as u64;
        for m in msgs {
            bytes += m.wire_bytes();
            self.drbd.receive(m);
        }
        let cpu = self.costs.backup_recv(bytes, n.max(1));
        self.cpu += cpu;
        cpu
    }

    /// Whether `epoch`'s container state *and* disk barrier have both
    /// arrived — the ack condition (§IV).
    pub fn epoch_complete(&self, epoch: u64) -> bool {
        self.pending.contains_key(&epoch) && self.drbd.epoch_complete(epoch)
    }

    /// Commit everything up to and including `epoch`: merge pages into the
    /// store, merge fs-cache state, adopt the metadata image, apply disk
    /// writes. Returns backup CPU consumed.
    ///
    /// An epoch carrying a delta for a page the store has never seen is
    /// rejected as [`SimError::ImageCorrupt`] before it mutates anything (a
    /// delta is only meaningful against the base the primary diffed it
    /// from); the epoch stays pending and earlier epochs stay committed.
    pub fn commit(&mut self, epoch: u64, backup_disk: &mut BlockDevice) -> SimResult<Nanos> {
        let epochs: Vec<u64> = self.pending.range(..=epoch).map(|(&e, _)| e).collect();
        let per_probe = if self.use_radix {
            self.costs.radix_insert / 4 // insert() reports 4 probes
        } else {
            self.costs.list_probe_per_ckpt
        };
        let mut cpu: Nanos = 0;
        let mut total_probes = 0u64;
        for e in epochs {
            let img = &self.pending[&e];
            let orphan = img.page_deltas.iter().find(|(pid, vpn, enc)| {
                let key = PageKey {
                    pid: *pid,
                    vpn: *vpn,
                };
                matches!(enc, PageEncoding::Delta(_)) && self.store.get(key).is_none()
            });
            if let Some((pid, vpn, _)) = orphan {
                return Err(SimError::ImageCorrupt(format!(
                    "epoch {e}: delta for page {pid:?}/{vpn:#x} with no base in the backup store"
                )));
            }
            let mut img = self.pending.remove(&e).expect("epoch listed from range");
            self.store.begin_checkpoint();
            let mut probes = 0u64;
            for (pid, vpn, data) in img.pages.drain(..) {
                probes += self.store.insert(PageKey { pid, vpn }, data);
            }
            // Delta-encoded pages: reconstruct against the store's current
            // copy (epochs apply in order, so that copy is exactly the
            // primary-side shadow base) and charge the modeled decode CPU.
            let delta_pages = img.page_deltas.len() as u64;
            for (pid, vpn, enc) in img.page_deltas.drain(..) {
                probes += self.store.apply_delta(PageKey { pid, vpn }, &enc);
            }
            cpu += delta_pages * self.costs.delta_apply_per_page;
            total_probes += probes;
            cpu += probes * per_probe;
            // Merge file-cache state.
            for (ino, idx, data, dirty) in img.fs_pages.pages.drain(..) {
                self.fs_pages.insert((ino, idx), (data, dirty));
            }
            for inode in img.fs_inodes.drain(..) {
                self.fs_inodes.insert(inode.ino, inode);
            }
            self.committed_meta = Some(img);
            self.committed_epoch = Some(e);
        }
        let disk_pages = self.drbd.commit(epoch, backup_disk) as u64;
        cpu += disk_pages as Nanos * self.costs.restore_disk_per_page;
        self.last_commit_stats = (total_probes, disk_pages);
        self.cpu += cpu;
        Ok(cpu)
    }

    /// `(page-store probes, disk pages applied)` of the most recent commit.
    pub fn last_commit_stats(&self) -> (u64, u64) {
        self.last_commit_stats
    }

    /// Failover step 1: discard everything not committed (§IV: "the backup
    /// agent discards any uncommitted state"). Returns what was dropped,
    /// per class.
    pub fn discard_uncommitted(&mut self) -> DiscardCounts {
        let epochs = self.pending.len();
        self.pending.clear();
        // A half-assembled COW epoch is by definition uncommitted: dropping
        // it means failover falls back to the last *fully-assembled*
        // committed epoch.
        let chunks = self
            .assembling
            .take()
            .map_or(0, |a| a.received_chunks as usize);
        let drbd = self.drbd.discard_uncommitted();
        DiscardCounts {
            epochs,
            chunks,
            drbd,
        }
    }

    /// Failover step 2: materialize the merged committed state as one full
    /// checkpoint image ("uses the committed state to create image files in
    /// a format that CRIU expects", §IV).
    pub fn materialize(&self) -> SimResult<CheckpointImage> {
        let meta = self
            .committed_meta
            .as_ref()
            .ok_or_else(|| SimError::ImageCorrupt("no committed checkpoint".into()))?;
        let mut img = meta.clone();
        img.pages = self
            .store
            .iter_sorted()
            .into_iter()
            .map(|(k, p)| (k.pid, k.vpn, p.clone()))
            .collect();
        // Merged fs state.
        let mut fs = FsCacheCheckpoint::default();
        let mut keys: Vec<(Ino, u64)> = self.fs_pages.keys().copied().collect();
        keys.sort();
        for k in keys {
            let (data, dirty) = &self.fs_pages[&k];
            fs.pages.push((k.0, k.1, data.clone(), *dirty));
        }
        img.fs_pages = fs;
        let mut inodes: Vec<Inode> = self.fs_inodes.values().cloned().collect();
        inodes.sort_by_key(|i| i.ino);
        img.fs_inodes = inodes;
        Ok(img)
    }

    /// Highest committed epoch.
    pub fn committed_epoch(&self) -> Option<u64> {
        self.committed_epoch
    }

    /// Total backup CPU consumed so far (Table V).
    pub fn cpu_total(&self) -> Nanos {
        self.cpu
    }

    /// Pages currently in the committed store.
    pub fn stored_pages(&self) -> usize {
        self.store.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_sim::ids::{DevId, Pid};
    use nilicon_sim::ns::NsSet;

    fn img(epoch: u64, pages: &[(u32, u64, u8)]) -> CheckpointImage {
        let mut i = CheckpointImage {
            epoch,
            name: "t".into(),
            addr: 10,
            ns: Some(NsSet {
                pid: nilicon_sim::ids::NsId(1),
                net: nilicon_sim::ids::NsId(2),
                mnt: nilicon_sim::ids::NsId(3),
                uts: nilicon_sim::ids::NsId(4),
                ipc: nilicon_sim::ids::NsId(5),
                user: nilicon_sim::ids::NsId(6),
            }),
            ..Default::default()
        };
        for &(pid, vpn, tag) in pages {
            i.pages.push((Pid(pid), vpn, std::rc::Rc::new([tag; PAGE_SIZE])));
        }
        i
    }

    fn agent() -> BackupAgent {
        BackupAgent::new(CostModel::default(), true)
    }

    #[test]
    fn ingest_commit_materialize_merges_pages() {
        let mut a = agent();
        let mut disk = BlockDevice::new(DevId(2));
        a.ingest(img(1, &[(1, 0x10, 1), (1, 0x11, 1)]));
        a.ingest_drbd(vec![DrbdMsg::Barrier(1)]);
        assert!(a.epoch_complete(1));
        a.commit(1, &mut disk).unwrap();

        a.ingest(img(2, &[(1, 0x10, 2)])); // overwrites one page
        a.ingest_drbd(vec![DrbdMsg::Barrier(2)]);
        a.commit(2, &mut disk).unwrap();

        let full = a.materialize().unwrap();
        assert_eq!(full.pages.len(), 2);
        let p10 = full.pages.iter().find(|(_, v, _)| *v == 0x10).unwrap();
        assert_eq!(p10.2[0], 2, "latest committed value wins");
        assert_eq!(a.committed_epoch(), Some(2));
    }

    #[test]
    fn uncommitted_epoch_never_materializes() {
        let mut a = agent();
        let mut disk = BlockDevice::new(DevId(2));
        a.ingest(img(1, &[(1, 0x10, 1)]));
        a.ingest_drbd(vec![DrbdMsg::Barrier(1)]);
        a.commit(1, &mut disk).unwrap();
        // Epoch 2 arrives but is never committed (primary died pre-ack).
        a.ingest(img(2, &[(1, 0x10, 99)]));
        a.discard_uncommitted();
        let full = a.materialize().unwrap();
        let p10 = full.pages.iter().find(|(_, v, _)| *v == 0x10).unwrap();
        assert_eq!(p10.2[0], 1, "uncommitted value must not leak into failover");
    }

    #[test]
    fn ack_requires_both_state_and_disk_barrier() {
        let mut a = agent();
        a.ingest(img(1, &[]));
        assert!(!a.epoch_complete(1), "state yes, disk barrier no");
        a.ingest_drbd(vec![DrbdMsg::Barrier(1)]);
        assert!(a.epoch_complete(1));
        assert!(!a.epoch_complete(2));
    }

    #[test]
    fn materialize_without_commit_errors() {
        let a = agent();
        assert!(matches!(a.materialize(), Err(SimError::ImageCorrupt(_))));
    }

    #[test]
    fn fs_state_merges_across_epochs() {
        let mut a = agent();
        let mut disk = BlockDevice::new(DevId(2));
        let mut i1 = img(1, &[]);
        i1.fs_pages
            .pages
            .push((Ino(5), 0, Box::new([1u8; PAGE_SIZE]), true));
        i1.fs_pages
            .pages
            .push((Ino(5), 1, Box::new([1u8; PAGE_SIZE]), false));
        a.ingest(i1);
        a.ingest_drbd(vec![DrbdMsg::Barrier(1)]);
        a.commit(1, &mut disk).unwrap();

        let mut i2 = img(2, &[]);
        i2.fs_pages
            .pages
            .push((Ino(5), 0, Box::new([2u8; PAGE_SIZE]), true)); // update
        a.ingest(i2);
        a.ingest_drbd(vec![DrbdMsg::Barrier(2)]);
        a.commit(2, &mut disk).unwrap();

        let full = a.materialize().unwrap();
        assert_eq!(full.fs_pages.pages.len(), 2, "merged, not just the delta");
        assert_eq!(full.fs_pages.pages[0].2[0], 2);
        assert_eq!(full.fs_pages.pages[1].2[0], 1);
    }

    #[test]
    fn delta_committed_image_matches_full_page_path() {
        use nilicon_criu::ShadowStore;
        let mut full_agent = agent();
        let mut delta_agent = agent();
        let mut d1 = BlockDevice::new(DevId(1));
        let mut d2 = BlockDevice::new(DevId(2));
        let mut shadow = ShadowStore::new();
        for e in 1..=5u64 {
            // Page contents evolve: one sparse edit per epoch, one zero page.
            let mut p = [0u8; PAGE_SIZE];
            p[7] = e as u8;
            p[3000] = 255 - e as u8;
            let mut i = img(e, &[]);
            i.pages.push((Pid(1), 0x10, std::rc::Rc::new(p)));
            i.pages.push((Pid(1), 0x11, nilicon_sim::zero_page()));
            let mut di = i.clone();
            di.encode_pages(&mut shadow);
            assert!(
                di.state_bytes() < i.state_bytes(),
                "epoch {e}: encoded wire bytes smaller"
            );
            full_agent.ingest(i);
            full_agent.ingest_drbd(vec![DrbdMsg::Barrier(e)]);
            full_agent.commit(e, &mut d1).unwrap();
            delta_agent.ingest(di);
            delta_agent.ingest_drbd(vec![DrbdMsg::Barrier(e)]);
            delta_agent.commit(e, &mut d2).unwrap();
        }
        let a = full_agent.materialize().unwrap();
        let b = delta_agent.materialize().unwrap();
        assert_eq!(a.pages.len(), b.pages.len());
        for (pa, pb) in a.pages.iter().zip(b.pages.iter()) {
            assert_eq!((pa.0, pa.1), (pb.0, pb.1));
            assert_eq!(pa.2, pb.2, "page {:?}/{:#x} byte-identical", pa.0, pa.1);
        }
    }

    #[test]
    fn delta_without_a_base_page_is_image_corruption() {
        for use_radix in [true, false] {
            let mut a = BackupAgent::new(CostModel::default(), use_radix);
            let mut disk = BlockDevice::new(DevId(2));
            a.ingest(img(1, &[(1, 0x10, 1)]));
            a.ingest_drbd(vec![DrbdMsg::Barrier(1)]);
            a.commit(1, &mut disk).unwrap();

            // A delta against a base only the primary's shadow ever held.
            let enc = PageEncoding::Delta(Default::default());
            let mut i2 = img(2, &[(1, 0x10, 2)]);
            i2.page_deltas.push((Pid(1), 0x20, enc));
            a.ingest(i2);
            a.ingest_drbd(vec![DrbdMsg::Barrier(2)]);
            let err = a.commit(2, &mut disk).unwrap_err();
            assert!(matches!(err, SimError::ImageCorrupt(_)), "got {err:?}");
            // Rejected before the epoch's first store mutation.
            assert_eq!(a.committed_epoch(), Some(1));
            assert_eq!(a.stored_pages(), 1);
            let full = a.materialize().unwrap();
            assert_eq!(full.pages[0].2[0], 1, "epoch 2's full page did not land");
        }
    }

    #[test]
    fn cow_assembly_gates_ack_on_every_deferred_page() {
        let mut a = agent();
        let mut disk = BlockDevice::new(DevId(2));
        a.begin_assembly(img(1, &[]), 3);
        a.ingest_drbd(vec![DrbdMsg::Barrier(1)]);
        assert!(
            !a.epoch_complete(1),
            "metadata + barrier alone must not ack a COW epoch"
        );
        a.ingest_chunk(1, vec![(Pid(1), 0x10, std::rc::Rc::new([1u8; PAGE_SIZE]))], vec![])
            .unwrap();
        a.ingest_chunk(1, vec![(Pid(1), 0x11, std::rc::Rc::new([2u8; PAGE_SIZE]))], vec![])
            .unwrap();
        assert!(
            a.finish_assembly(1).is_err(),
            "2/3 pages: the commit barrier must hold"
        );
        // The failed finish consumed the assembly; rebuild and complete it.
        a.begin_assembly(img(1, &[]), 1);
        a.ingest_chunk(1, vec![(Pid(1), 0x10, std::rc::Rc::new([1u8; PAGE_SIZE]))], vec![])
            .unwrap();
        a.finish_assembly(1).unwrap();
        assert!(a.epoch_complete(1));
        a.commit(1, &mut disk).unwrap();
        assert_eq!(a.stored_pages(), 1);
    }

    #[test]
    fn cow_chunk_without_assembly_is_rejected() {
        let mut a = agent();
        assert!(a
            .ingest_chunk(1, vec![(Pid(1), 0x10, std::rc::Rc::new([0u8; PAGE_SIZE]))], vec![])
            .is_err());
        a.begin_assembly(img(2, &[]), 1);
        assert!(a.ingest_chunk(1, vec![], vec![]).is_err(), "epoch mismatch");
        assert!(a.finish_assembly(1).is_err(), "epoch mismatch");
    }

    #[test]
    fn discard_uncommitted_drops_partial_assembly() {
        let mut a = agent();
        let mut disk = BlockDevice::new(DevId(2));
        a.ingest(img(1, &[(1, 0x10, 7)]));
        a.ingest_drbd(vec![DrbdMsg::Barrier(1)]);
        a.commit(1, &mut disk).unwrap();
        // Epoch 2 streams in COW chunks; the primary dies mid-copy.
        a.begin_assembly(img(2, &[]), 2);
        a.ingest_chunk(2, vec![(Pid(1), 0x10, std::rc::Rc::new([99u8; PAGE_SIZE]))], vec![])
            .unwrap();
        let dropped = a.discard_uncommitted();
        assert_eq!(
            dropped,
            DiscardCounts {
                epochs: 0,
                chunks: 1,
                drbd: 0
            }
        );
        let full = a.materialize().unwrap();
        let p10 = full.pages.iter().find(|(_, v, _)| *v == 0x10).unwrap();
        assert_eq!(p10.2[0], 7, "failover falls back to the last full epoch");
        assert_eq!(a.committed_epoch(), Some(1));
    }

    #[test]
    fn discard_counts_report_each_class() {
        let mut a = agent();
        // One fully-received (but unacked) epoch, one half-assembled COW
        // epoch with three chunks, and two buffered disk writes + a barrier.
        a.ingest(img(1, &[(1, 0x10, 1)]));
        a.begin_assembly(img(2, &[]), 5);
        for vpn in [0x20u64, 0x21, 0x22] {
            a.ingest_chunk(2, vec![(Pid(1), vpn, std::rc::Rc::new([9u8; PAGE_SIZE]))], vec![])
                .unwrap();
        }
        let w = nilicon_sim::block::DiskWrite {
            ino: Ino(4),
            page_idx: 0,
            data: Box::new([0u8; PAGE_SIZE]),
        };
        a.ingest_drbd(vec![
            DrbdMsg::Write(w.clone()),
            DrbdMsg::Barrier(1),
            DrbdMsg::Write(w),
        ]);
        let dropped = a.discard_uncommitted();
        assert_eq!(
            dropped,
            DiscardCounts {
                epochs: 1,
                chunks: 3,
                drbd: 2
            }
        );
        assert!(!dropped.is_empty());
        // Everything is gone: a second discard reports nothing.
        assert!(a.discard_uncommitted().is_empty());
    }

    #[test]
    fn radix_vs_list_backup_cpu_gap() {
        // Stock linked-list store: per-page cost grows with history.
        let mut radix = BackupAgent::new(CostModel::default(), true);
        let mut list = BackupAgent::new(CostModel::default(), false);
        let mut d1 = BlockDevice::new(DevId(1));
        let mut d2 = BlockDevice::new(DevId(2));
        let (mut radix_commit, mut list_commit) = (0u64, 0u64);
        for e in 1..=60 {
            let i = img(e, &[(1, 0x10, e as u8), (1, 0x20, e as u8)]);
            radix.ingest(i.clone());
            radix.ingest_drbd(vec![DrbdMsg::Barrier(e)]);
            radix_commit += radix.commit(e, &mut d1).unwrap();
            list.ingest(i);
            list.ingest_drbd(vec![DrbdMsg::Barrier(e)]);
            list_commit += list.commit(e, &mut d2).unwrap();
        }
        assert!(
            list_commit > 10 * radix_commit,
            "list commit {list_commit} vs radix {radix_commit} — §V-A gap grows with history"
        );
        assert_eq!(radix.stored_pages(), list.stored_pages());
    }
}
