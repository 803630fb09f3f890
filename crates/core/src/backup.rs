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
    recycle_fragment, unmapped_since, CheckpointImage, FragBuf, LinkedListStore, PageEncoding,
    PageKey, PageStore, RadixTreeStore,
};
use nilicon_sim::ids::Pid;
use nilicon_drbd::{DrbdBackup, DrbdMsg};
use nilicon_sim::block::BlockDevice;
use nilicon_sim::costs::CostModel;
use nilicon_sim::fs::{FsCacheCheckpoint, Inode};
use nilicon_sim::ids::Ino;
use nilicon_sim::mem::recycle_page;
use nilicon_sim::time::Nanos;
use nilicon_sim::{PageBuf, SimError, SimResult, PAGE_SIZE};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

/// Merged committed file-cache page: contents + writeback-dirty flag.
type FsPageEntry = (PageBuf, bool);

/// One page's erasure-coded fragment on its way into a replica's store.
pub type Fragment = (Pid, u64, FragBuf);

/// An epoch arriving in pieces (COW checkpointing): the metadata image lands
/// first, then page chunks stream in as the primary's background copier
/// drains them. The epoch enters `pending` — and thus becomes ackable — only
/// once every expected page has arrived.
struct CowAssembly {
    img: Rc<CheckpointImage>,
    /// Fragments received so far (a `(k, n)` placement replica's chunks).
    frags: Vec<Fragment>,
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
    /// Committed fragments, when this agent is one replica of a `(k, n)`
    /// placement: `frag_len` bytes per page, the replica's fragment of it.
    /// Such an agent receives no whole pages and `store` stays empty (and
    /// the other way round on the paper's single backup).
    frag_store: Box<dyn PageStore<FragBuf>>,
    /// Fully-received epochs awaiting commit (epoch → image and fragments).
    pending: BTreeMap<u64, (Rc<CheckpointImage>, Vec<Fragment>)>,
    /// In-flight COW chunk assembly (at most one epoch streams at a time).
    assembling: Option<CowAssembly>,
    /// Latest committed metadata image (pages stripped — they live in the
    /// store).
    committed_meta: Option<Rc<CheckpointImage>>,
    /// Merged committed file-cache state.
    fs_pages: HashMap<(Ino, u64), FsPageEntry>,
    /// Merged committed inode-cache state.
    fs_inodes: HashMap<Ino, Inode>,
    /// DRBD write buffer.
    pub drbd: DrbdBackup,
    committed_epoch: Option<u64>,
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
            .field("stored_pages", &self.stored_pages())
            .finish()
    }
}

impl BackupAgent {
    /// New agent. `use_radix` selects NiLiCon's radix tree vs stock CRIU's
    /// linked list of checkpoint directories (§V-A).
    pub fn new(costs: CostModel, use_radix: bool) -> Self {
        let (store, frag_store): (Box<dyn PageStore>, Box<dyn PageStore<FragBuf>>) = if use_radix {
            (
                Box::new(RadixTreeStore::new()),
                Box::<RadixTreeStore<FragBuf>>::default(),
            )
        } else {
            (
                Box::new(LinkedListStore::new()),
                Box::<LinkedListStore<FragBuf>>::default(),
            )
        };
        BackupAgent {
            store,
            frag_store,
            pending: BTreeMap::new(),
            assembling: None,
            committed_meta: None,
            fs_pages: HashMap::new(),
            fs_inodes: HashMap::new(),
            drbd: DrbdBackup::new(),
            committed_epoch: None,
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
        self.pending.insert(img.epoch, (Rc::new(img), Vec::new()));
        cpu
    }

    /// COW streaming step 1: receive the epoch's *metadata* image (pages
    /// still deferred on the primary) and open a chunk assembly expecting
    /// `expected_pages` pages. The epoch is not ackable until
    /// [`BackupAgent::finish_assembly`] confirms every page arrived. Returns
    /// the backup CPU consumed receiving the metadata.
    ///
    /// The replicas of a `(k, n)` placement receive the same metadata and
    /// pass one shared image (an `Rc`) instead of a copy each; such an
    /// epoch's pages arrive through [`BackupAgent::ingest_fragments`].
    pub fn begin_assembly(
        &mut self,
        img: impl Into<Rc<CheckpointImage>>,
        expected_pages: u64,
    ) -> Nanos {
        let img = img.into();
        let cpu = self
            .costs
            .backup_recv(img.state_bytes(), img.transfer_chunks());
        self.assembling = Some(CowAssembly {
            img,
            frags: Vec::new(),
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
        let bytes = pages.len() as u64 * PAGE_SIZE as u64
            + deltas
                .iter()
                .map(|(_, _, e)| e.encoded_bytes())
                .sum::<u64>();
        let (asm, cpu) = self.receive_chunk(epoch, (pages.len() + deltas.len()) as u64, bytes)?;
        let img = Rc::get_mut(&mut asm.img).ok_or_else(|| {
            SimError::Invalid(format!(
                "epoch {epoch}: whole pages cannot join a metadata image other replicas share"
            ))
        })?;
        img.pages.extend(pages);
        img.page_deltas.extend(deltas);
        Ok(cpu)
    }

    /// [`BackupAgent::ingest_chunk`] for a `(k, n)` placement replica: one
    /// chunk of this replica's fragments, `frag_len` bytes each, kept at
    /// that size. The receive is charged per 4 KiB unit, as it was when a
    /// fragment travelled padded to a page.
    pub fn ingest_fragments(&mut self, epoch: u64, frags: Vec<Fragment>) -> SimResult<Nanos> {
        let units = frags.len() as u64;
        let (asm, cpu) = self.receive_chunk(epoch, units, units * PAGE_SIZE as u64)?;
        asm.frags.extend(frags);
        Ok(cpu)
    }

    /// Account one chunk of `units` pages (`bytes` on the modelled wire)
    /// against the assembly open for `epoch`.
    fn receive_chunk(
        &mut self,
        epoch: u64,
        units: u64,
        bytes: u64,
    ) -> SimResult<(&mut CowAssembly, Nanos)> {
        let asm = match &mut self.assembling {
            Some(a) if a.img.epoch == epoch => a,
            _ => {
                return Err(SimError::Invalid(format!(
                    "cow chunk for epoch {epoch} with no matching assembly"
                )))
            }
        };
        let cpu = self.costs.backup_recv(bytes, 1);
        asm.received_pages += units;
        asm.received_chunks += 1;
        Ok((asm, cpu))
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
        self.pending.insert(epoch, (asm.img, asm.frags));
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
        self.costs.backup_recv(bytes, n.max(1))
    }

    /// Whether `epoch`'s container state *and* disk barrier have both
    /// arrived — the ack condition (§IV).
    pub fn epoch_complete(&self, epoch: u64) -> bool {
        self.pending.contains_key(&epoch) && self.drbd.epoch_complete(epoch)
    }

    /// Commit everything up to and including `epoch`: prune the pages the
    /// epoch's VMAs no longer cover, merge pages into the store, merge
    /// fs-cache state, adopt the metadata image, apply disk writes. Returns
    /// backup CPU consumed.
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
            let img = &self.pending[&e].0;
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
            let (mut img, frags) = self.pending.remove(&e).expect("epoch listed from range");
            // What this epoch merges into the stores: taken out of an image
            // this agent alone holds, copied out of one other replicas share.
            let (pages, page_deltas, fs_pages, fs_inodes) = match Rc::get_mut(&mut img) {
                Some(own) => (
                    std::mem::take(&mut own.pages),
                    std::mem::take(&mut own.page_deltas),
                    std::mem::take(&mut own.fs_pages.pages),
                    std::mem::take(&mut own.fs_inodes),
                ),
                None => (
                    img.pages.clone(),
                    img.page_deltas.clone(),
                    img.fs_pages.pages.clone(),
                    img.fs_inodes.clone(),
                ),
            };
            // Pages the container unmapped since the image this one replaces
            // leave the stores with it: mapped again and never written, they
            // are zeros on the primary and must be at failover.
            if let Some(prev) = &self.committed_meta {
                let was = prev.processes.iter().map(|p| (p.pid, &p.vmas[..]));
                for (pid, vpns) in unmapped_since(was, &img.processes) {
                    self.store.remove_range(pid, vpns.clone());
                    self.frag_store.remove_range(pid, vpns);
                }
            }
            self.store.begin_checkpoint();
            self.frag_store.begin_checkpoint();
            let mut probes = 0u64;
            // A buffer this epoch's version displaces goes back to where
            // the next epoch's version will be written.
            for (pid, vpn, data) in pages {
                let (p, displaced) = self.store.replace(PageKey { pid, vpn }, data);
                probes += p;
                if let Some(old) = displaced {
                    recycle_page(old);
                }
            }
            for (pid, vpn, frag) in frags {
                let (p, displaced) = self.frag_store.replace(PageKey { pid, vpn }, frag);
                probes += p;
                if let Some(old) = displaced {
                    recycle_fragment(old);
                }
            }
            // Delta-encoded pages: reconstruct against the store's current
            // copy (epochs apply in order, so that copy is exactly the
            // primary-side shadow base) and charge the modeled decode CPU.
            let delta_pages = page_deltas.len() as u64;
            for (pid, vpn, enc) in page_deltas {
                probes += self.store.apply_delta(PageKey { pid, vpn }, &enc);
            }
            cpu += delta_pages * self.costs.delta_apply_per_page;
            total_probes += probes;
            cpu += probes * per_probe;
            // Merge file-cache state.
            for (ino, idx, data, dirty) in fs_pages {
                self.fs_pages.insert((ino, idx), (data, dirty));
            }
            for inode in fs_inodes {
                self.fs_inodes.insert(inode.ino, inode);
            }
            self.committed_meta = Some(img);
            self.committed_epoch = Some(e);
        }
        let disk_pages = self.drbd.commit(epoch, backup_disk) as u64;
        cpu += disk_pages as Nanos * self.costs.restore_disk_per_page;
        self.last_commit_stats = (total_probes, disk_pages);
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
        let mut img = CheckpointImage::clone(meta);
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

    /// Pages currently in the committed store (whole or as fragments).
    pub fn stored_pages(&self) -> usize {
        self.store.len() + self.frag_store.len()
    }

    /// Every committed fragment, sorted by key. The metadata that goes with
    /// them is [`BackupAgent::materialize`]'s image, whose page list is
    /// empty on a fragment-holding agent.
    pub fn fragments(&self) -> Vec<(PageKey, &FragBuf)> {
        self.frag_store.iter_sorted()
    }

    /// The committed fragment of one page.
    pub fn fragment(&self, key: PageKey) -> Option<&FragBuf> {
        self.frag_store.get(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_sim::ids::{DevId, Pid};
    use nilicon_sim::mem::{end_page_round, spare_pages, AddressSpace};
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
            .push((Ino(5), 0, Rc::new([1u8; PAGE_SIZE]), true));
        i1.fs_pages
            .pages
            .push((Ino(5), 1, Rc::new([1u8; PAGE_SIZE]), false));
        a.ingest(i1);
        a.ingest_drbd(vec![DrbdMsg::Barrier(1)]);
        a.commit(1, &mut disk).unwrap();

        let mut i2 = img(2, &[]);
        i2.fs_pages
            .pages
            .push((Ino(5), 0, Rc::new([2u8; PAGE_SIZE]), true)); // update
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
            data: Rc::new([0u8; PAGE_SIZE]),
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

    /// A stop phase over `mm`: every soft-dirty page shared into epoch
    /// `epoch`'s image, tracking re-armed, the recycler's round ended.
    fn dump(mm: &mut AddressSpace, epoch: u64) -> CheckpointImage {
        let mut i = img(epoch, &[]);
        for vpn in mm.soft_dirty_vpns() {
            i.pages.push((Pid(1), vpn, mm.snapshot_page(vpn).unwrap()));
        }
        mm.clear_refs();
        end_page_round();
        i
    }

    fn ingest_and_commit(a: &mut BackupAgent, disk: &mut BlockDevice, i: CheckpointImage) {
        let epoch = i.epoch;
        a.ingest(i);
        a.ingest_drbd(vec![DrbdMsg::Barrier(epoch)]);
        a.commit(epoch, disk).unwrap();
    }

    const HEAP: u64 = 0x1000_0000;

    #[test]
    fn spare_pages_never_outnumber_the_previous_stop_phases_demand() {
        const FOOTPRINT: u64 = 16 * 1024;
        end_page_round();
        let mut mm = AddressSpace::new();
        mm.mmap_anon(HEAP, FOOTPRINT * PAGE_SIZE as u64).unwrap();
        let mut a = agent();
        let mut disk = BlockDevice::new(DevId(2));
        let touch = |mm: &mut AddressSpace, pages: u64, tag: u8| {
            for p in 0..pages {
                mm.write(HEAP + p * PAGE_SIZE as u64, &[tag]).unwrap();
            }
        };
        // Initial sync: nothing to displace, nothing spare.
        touch(&mut mm, FOOTPRINT, 1);
        ingest_and_commit(&mut a, &mut disk, dump(&mut mm, 1));
        assert_eq!((a.stored_pages(), spare_pages()), (FOOTPRINT as usize, 0));
        // A full resync displaces every page: all kept, its own stop phase
        // having asked for that many.
        touch(&mut mm, FOOTPRINT, 2);
        ingest_and_commit(&mut a, &mut disk, dump(&mut mm, 2));
        assert_eq!(spare_pages(), FOOTPRINT as usize);
        // A 100-page epoch takes 100 of them; its stop phase's end frees
        // the rest, and its commit hands back 100.
        touch(&mut mm, 100, 3);
        let small = dump(&mut mm, 3);
        assert_eq!(spare_pages(), 0);
        ingest_and_commit(&mut a, &mut disk, small);
        assert_eq!(spare_pages(), 100);
        // A full image from elsewhere (bootstrap, repair) displaces 16 K
        // more: the surplus over those 100 is dropped as it is handed back.
        let mut resync = img(4, &[]);
        resync.pages = (0..FOOTPRINT)
            .map(|p| {
                (
                    Pid(1),
                    HEAP / PAGE_SIZE as u64 + p,
                    Rc::new([4u8; PAGE_SIZE]),
                )
            })
            .collect();
        ingest_and_commit(&mut a, &mut disk, resync);
        assert_eq!(spare_pages(), 100);
        end_page_round();
    }

    /// Twenty-four generated epochs of whole-page and sparse writes through
    /// dump → ingest → commit, whole or delta-encoded, with an image
    /// materialized at epoch 5 kept alive throughout: recycling must neither
    /// lose a committed byte nor write through the kept image.
    fn generated_cycle_commits_guest_memory(delta: bool) {
        const FOOTPRINT: u64 = 192;
        end_page_round();
        let mut mm = AddressSpace::new();
        mm.mmap_anon(HEAP, FOOTPRINT * PAGE_SIZE as u64).unwrap();
        let mut a = agent();
        let mut disk = BlockDevice::new(DevId(2));
        let mut shadow = nilicon_criu::ShadowStore::new();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut kept: Option<(CheckpointImage, Vec<[u8; PAGE_SIZE]>)> = None;
        let mut reused = 0;
        for epoch in 1..=24u64 {
            // The dump shared every page it took with its frame: each first
            // write after it takes a spare the last commit handed back.
            let spare = spare_pages();
            for _ in 0..40 + rand() % 60 {
                let r = rand();
                let page = HEAP + (r >> 8) % FOOTPRINT * PAGE_SIZE as u64;
                if r & 3 == 0 {
                    mm.write(page, &[r as u8 | 1; PAGE_SIZE]).unwrap();
                } else {
                    let off = (r >> 32) % (PAGE_SIZE as u64 - 8);
                    mm.write(page + off, &r.to_le_bytes()).unwrap();
                }
            }
            reused += spare - spare_pages();
            let mut i = dump(&mut mm, epoch);
            if delta {
                i.encode_pages(&mut shadow);
            }
            ingest_and_commit(&mut a, &mut disk, i);
            if epoch == 5 {
                let image = a.materialize().unwrap();
                let bytes = image.pages.iter().map(|p| *p.2).collect();
                kept = Some((image, bytes));
            }
        }
        assert!(reused > 200, "the cycle ran on recycled buffers ({reused})");
        let now = a.materialize().unwrap();
        assert_eq!(
            now.pages.iter().map(|p| p.1).collect::<Vec<_>>(),
            mm.resident_vpns()
        );
        for (_, vpn, page) in &now.pages {
            let mut guest = [0u8; PAGE_SIZE];
            mm.read(vpn * PAGE_SIZE as u64, &mut guest).unwrap();
            assert!(**page == guest, "page {vpn:#x} diverged from guest memory");
        }
        let (image, bytes) = kept.unwrap();
        for ((_, vpn, page), was) in image.pages.iter().zip(&bytes) {
            assert!(**page == *was, "kept image written through at {vpn:#x}");
        }
        end_page_round();
    }

    #[test]
    fn generated_cycle_commits_guest_memory_whole_pages() {
        generated_cycle_commits_guest_memory(false);
    }

    #[test]
    fn generated_cycle_commits_guest_memory_deltas() {
        generated_cycle_commits_guest_memory(true);
    }

    #[test]
    fn fragments_commit_behind_the_assembly_barrier() {
        let mut a = agent();
        let mut disk = BlockDevice::new(DevId(2));
        let frag = |tag: u8| -> FragBuf { vec![tag; 2048].into() };
        a.begin_assembly(img(1, &[]), 2);
        let cpu = a
            .ingest_fragments(1, vec![(Pid(1), 0x10, frag(1)), (Pid(1), 0x11, frag(2))])
            .unwrap();
        assert_eq!(
            cpu,
            CostModel::default().backup_recv(2 * PAGE_SIZE as u64, 1),
            "the receive is charged per 4 KiB unit"
        );
        a.ingest_drbd(vec![DrbdMsg::Barrier(1)]);
        assert!(!a.epoch_complete(1));
        a.finish_assembly(1).unwrap();
        a.commit(1, &mut disk).unwrap();
        assert_eq!(a.stored_pages(), 2);
        assert!(a.materialize().unwrap().pages.is_empty(), "no whole pages");

        // Epoch 2 rewrites one page and is discarded before its commit.
        a.begin_assembly(img(2, &[]), 1);
        a.ingest_fragments(2, vec![(Pid(1), 0x10, frag(9))])
            .unwrap();
        assert!(a.ingest_fragments(3, vec![]).is_err(), "epoch mismatch");
        a.discard_uncommitted();
        let key = PageKey {
            pid: Pid(1),
            vpn: 0x10,
        };
        assert_eq!(
            a.fragment(key).unwrap()[0],
            1,
            "uncommitted fragment never lands"
        );
        let keys: Vec<u64> = a.fragments().iter().map(|(k, _)| k.vpn).collect();
        assert_eq!(keys, [0x10, 0x11]);
    }

    #[test]
    fn shared_metadata_image_commits_like_an_owned_one() {
        // Two replicas given one Rc'd image merge the same fs-cache state an
        // agent given its own copy does, and the shared image is left whole.
        let mut meta = img(1, &[]);
        meta.fs_pages
            .pages
            .push((Ino(5), 0, Rc::new([7u8; PAGE_SIZE]), true));
        let shared = Rc::new(meta.clone());
        let mut disk = BlockDevice::new(DevId(2));
        let mut owned = agent();
        owned.begin_assembly(meta, 0);
        let mut replicas = [agent(), agent()];
        for r in &mut replicas {
            r.begin_assembly(shared.clone(), 0);
        }
        for a in replicas.iter_mut().chain([&mut owned]) {
            a.ingest_drbd(vec![DrbdMsg::Barrier(1)]);
            a.finish_assembly(1).unwrap();
            a.commit(1, &mut disk).unwrap();
        }
        let want = owned.materialize().unwrap();
        for r in &replicas {
            let got = r.materialize().unwrap();
            assert_eq!(got.fs_pages.pages, want.fs_pages.pages);
            assert_eq!(got.epoch, want.epoch);
        }
        assert_eq!(
            shared.fs_pages.pages.len(),
            1,
            "a shared image is only read"
        );

        // Whole pages have no place in an image other replicas share.
        replicas[0].begin_assembly(Rc::new(img(2, &[])), 1);
        let held = Rc::new(img(3, &[]));
        replicas[1].begin_assembly(held.clone(), 1);
        let page = vec![(Pid(1), 0x10, Rc::new([0u8; PAGE_SIZE]))];
        assert!(replicas[0].ingest_chunk(2, page.clone(), vec![]).is_ok());
        assert!(replicas[1].ingest_chunk(3, page, vec![]).is_err());
    }
}
