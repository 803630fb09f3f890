//! k-of-n erasure-coded multi-backup replication — the `Coded` layout of the
//! one replication engine ([`Engine`], `nilicon_engine.rs`), named
//! [`PlacementEngine`].
//!
//! NiLiCon's single warm backup gives exactly one fault-tolerance level at
//! 2× memory: lose the backup and the pair is one fault from data loss until
//! rearm completes. This layout generalizes the backup side to a *placement*
//! of `n` replicas with quorum `k`:
//!
//! * each committed epoch's dirty pages are erasure-coded into `n` fragments
//!   ([`nilicon_criu::ShardCodec`] — systematic Reed–Solomon over GF(2⁸));
//!   replica `i` stores fragment `i` of every page behind the same
//!   `begin_assembly` / `ingest_chunk` / `finish_assembly` barrier the COW
//!   path uses;
//! * the epoch acks when the fragment sets are durable on the replicas
//!   (links fan out in parallel; with uniform replicas the k-th ack and the
//!   n-th coincide in virtual time);
//! * failover reconstructs a byte-identical committed image from any `k`
//!   survivors ([`PlacementEngine::reconstruct_committed`]);
//! * losing a replica leaves the placement in *degraded mode* (epochs keep
//!   committing on the `alive ≥ k` survivors) and triggers **coded repair**:
//!   the missing fragment store is regenerated onto a fresh host from `k`
//!   peers — one row of the survivors' decode plan per page
//!   ([`ShardCodec::regenerate_fragment`]), `k × frag_len` wire bytes — while
//!   the primary keeps serving. A base page the container re-committed
//!   before the stream reached it is left to the seal's top-up, which
//!   regenerates it at its current value.
//!
//! Repair, rearm (PR 5's bootstrap streaming), and planned live migration
//! are three instantiations of the same stream-while-serving flow:
//!
//! | flow      | source              | target            | trigger          |
//! |-----------|---------------------|-------------------|------------------|
//! | repair    | k surviving replicas| fresh replica     | replica loss     |
//! | rearm     | promoted primary    | n fresh replicas  | primary failover |
//! | migration | serving primary     | destination host  | operator         |
//!
//! All three stream a bounded chunk per epoch, keep the served container
//! running between chunks, and seal with the same assembly barrier. Rearm
//! is the engine's bootstrap stream, whatever the layout; repair is this
//! layout's `repair_*` (no stop phase at all — it reads *committed* state);
//! migration is the degenerate `k = 1, n = 1` placement driven to a
//! deliberate failover (see `examples/live_migration.rs`).
//!
//! Memory overhead is `n × ceil(4 KiB/k) / 4 KiB` per committed page:
//! `(1,2)` is exactly the paper's 2× mirroring, `(2,3)` stores 1.5×, `(3,5)`
//! ≈ 1.67× — coded placements beat mirroring while tolerating more faults.
//!
//! Modeling notes: the layout requires the staged transfer path
//! (`staging_buffer`) and does not compose with `delta_transfer`
//! ([`OptimizationConfig::validate`]): fragments are coded from full page
//! bodies after the container resumes — the dumped snapshots, or under
//! `cow_checkpoint` the frames the COW drain lends, whose shard encode then
//! rides the drain's clock like the mirror's delta encode. A fragment is
//! built once, in the `frag_len`-byte heap buffer replica `i`'s store then
//! keeps (DESIGN §10); replica receive CPU is still modeled on a 4 KiB unit
//! per fragment — the charge is older than the fragment-sized stores and is
//! kept, so no virtual number moved — while wire bytes and stored-fragment
//! accounting use the true fragment size.

use crate::backup::Fragment;
use crate::config::OptimizationConfig;
use crate::engine::{BootstrapStep, CheckpointOutcome, RepairBegin};
use crate::nilicon_engine::{Engine, Layout, View};
use crate::stages::{
    ack_spans, commit_replica, committed_epoch, open_assemblies, survivors, Replica, StageCore,
    Stopped,
};
use crate::trace::TraceEvent;
use nilicon_criu::{
    end_fragment_round, unmapped_since, CheckpointImage, FragBuf, PageKey, ShardCodec,
};
use nilicon_drbd::DrbdMsg;
use nilicon_sim::ids::Pid;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::mem::Vma;
use nilicon_sim::time::Nanos;
use nilicon_sim::{CostModel, PageBuf, SimError, SimResult, PAGE_SIZE};
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::rc::Rc;

/// An in-flight coded repair (one at a time).
struct ActiveRepair {
    /// Replica index being regenerated.
    target: usize,
    /// The k survivors the base is read from.
    survivors: Vec<usize>,
    /// Their committed fragments as of `base_epoch` not yet streamed, one
    /// key-aligned stream per survivor, shared with their stores (a commit
    /// replaces a store's buffer, it never writes into one). Each step moves
    /// its chunk out and drops it: a superseded buffer outlives its store
    /// entry only until its page is streamed.
    base: Vec<std::vec::IntoIter<(PageKey, FragBuf)>>,
    /// Committed epoch the base image corresponds to.
    base_epoch: u64,
    /// Base pages the stream skipped because they were in `redirty` when
    /// it reached them: the top-up owes the target each one that is still
    /// committed at the seal.
    superseded: Vec<PageKey>,
    /// Agent CPU charged at begin (metadata receive), carried into the
    /// first step's accounting.
    cpu_carry: Nanos,
}

/// What a checkpointed epoch will have changed once it commits: the page
/// keys it carries, and the page ranges its image no longer maps.
type EpochNote = (Vec<(Pid, u64)>, Vec<(Pid, Range<u64>)>);

/// The k-of-n layout (see the module docs): replica `i` stores fragment `i`
/// of every committed page.
pub struct Coded {
    codec: ShardCodec,
    /// The chunk being staged: replica `i`'s batch of fragments.
    batches: Vec<Vec<Fragment>>,
    /// One note per not-yet-committed epoch, drained at commit.
    epoch_notes: BTreeMap<u64, EpochNote>,
    /// The VMAs of the last checkpointed image, per process: what the next
    /// image is compared with to find the pages it no longer maps, which
    /// the replicas prune at its commit (`BackupAgent::commit`, by the same
    /// comparison).
    mapped: Vec<(Pid, Vec<Vma>)>,
    /// Keys committed — and still mapped — while the active repair streamed
    /// its base image: what brings the repaired replica up to the current
    /// committed state at the seal.
    pub(crate) redirty: HashSet<(Pid, u64)>,
    repair: Option<ActiveRepair>,
}

/// The k-of-n placement engine (see the module docs).
pub type PlacementEngine = Engine<Coded>;

impl PlacementEngine {
    /// New engine for `opts.backups` replicas with quorum `opts.quorum`.
    /// Requires the staged transfer path and does not compose with the
    /// delta extension ([`OptimizationConfig::validate`], whose placement
    /// rules apply to this layout at any `(k, n)`, the degenerate `(1, 1)`
    /// included); with the COW extension the drain's pages are striped.
    pub fn new(opts: OptimizationConfig, costs: CostModel) -> SimResult<Self> {
        opts.validate_for(true)?;
        let codec = ShardCodec::new(opts.quorum, opts.backups)?;
        let layout = Coded {
            batches: vec![Vec::new(); opts.backups as usize],
            codec,
            epoch_notes: BTreeMap::new(),
            mapped: Vec::new(),
            redirty: HashSet::new(),
            repair: None,
        };
        let placement = (opts.quorum, opts.backups);
        Ok(Engine::assemble(
            "Placement",
            opts,
            costs,
            placement,
            layout,
        ))
    }

    /// Bytes of one page fragment as stored per replica.
    pub fn frag_len(&self) -> usize {
        self.layout.codec.frag_len()
    }

    /// Total fragment payload bytes currently stored across alive replicas
    /// (`stored pages × frag_len`, summed) — the memory-overhead metric of
    /// the (k, n) sweep.
    pub fn stored_fragment_bytes(&self) -> u64 {
        let alive = self.replicas.iter().filter(|r| r.alive);
        alive
            .map(|r| r.agent.stored_pages() as u64 * self.frag_len() as u64)
            .sum()
    }

    /// Reconstruct the committed image byte-identically from the fragment
    /// stores of exactly `k` distinct replicas. This is the failover path's
    /// core and directly testable: any k-subset must produce the same image.
    pub fn reconstruct_committed(&mut self, replicas: &[usize]) -> SimResult<CheckpointImage> {
        self.layout.image(&self.replicas, replicas)
    }
}

/// The committed fragment lists of the replicas `pick`, sorted by key and
/// checked to hold the same keys.
fn committed_fragments<'a>(
    replicas: &'a [Replica],
    pick: &[usize],
) -> SimResult<Vec<Vec<(PageKey, &'a FragBuf)>>> {
    let mut lists = Vec::with_capacity(pick.len());
    for &i in pick {
        let r = replicas
            .get(i)
            .ok_or_else(|| SimError::Invalid(format!("no replica {i}")))?;
        lists.push(r.agent.fragments());
    }
    for list in lists.iter().skip(1) {
        if !list.iter().map(|f| f.0).eq(lists[0].iter().map(|f| f.0)) {
            return Err(SimError::Invalid(format!(
                "replica fragment stores diverge: {} vs {} pages, or other keys",
                list.len(),
                lists[0].len()
            )));
        }
    }
    Ok(lists)
}

/// One page from `k` of its fragments (`(replica index, bytes)`), for a
/// failover. With `k = 1` the fragment is the page and its buffer is handed
/// over as is.
fn decode_page(codec: &mut ShardCodec, frags: &[(usize, FragBuf)]) -> SimResult<PageBuf> {
    if let [(_, whole)] = frags {
        if let Ok(page) = PageBuf::try_from(FragBuf::clone(whole)) {
            return Ok(page);
        }
    }
    let mut page: PageBuf = Rc::new([0u8; PAGE_SIZE]);
    let out = Rc::get_mut(&mut page).expect("a fresh page has one owner");
    codec.decode(frags, out)?;
    Ok(page)
}

impl Coded {
    /// Take the active repair out for `method` to advance or end.
    fn active_repair(&mut self, method: &str) -> SimResult<ActiveRepair> {
        let none = || SimError::Invalid(format!("{method} with no active repair"));
        self.repair.take().ok_or_else(none)
    }

    /// CPU to decode `pages` pages from k fragments each and re-encode one
    /// fragment of each.
    fn recode_cpu(costs: &CostModel, pages: u64) -> Nanos {
        pages * (costs.shard_decode_per_page + costs.shard_encode_per_page)
    }
}

/// Close `target`'s open assembly of `epoch` behind the disk traffic `msgs`
/// and commit it. Returns the replica CPU consumed.
fn seal(
    replicas: &mut [Replica],
    target: usize,
    epoch: u64,
    msgs: Vec<DrbdMsg>,
    backup: &mut Kernel,
) -> SimResult<Nanos> {
    let agent = &mut replicas[target].agent;
    let cpu = agent.ingest_drbd(msgs);
    agent.finish_assembly(epoch)?;
    Ok(cpu + commit_replica(replicas, target, epoch, backup)?)
}

impl Layout for Coded {
    fn view(&mut self) -> View<'_> {
        View::Coded(self)
    }
}

impl Coded {
    /// Every replica restarts empty (rearm): forget what mirrored them.
    pub(crate) fn reset(&mut self) {
        self.epoch_notes.clear();
        self.mapped.clear();
        self.redirty.clear();
        self.repair = None;
    }

    /// `img` left the stop phase as `epoch`: note what its commit changes —
    /// the pages it carries, dumped or left to the COW drain, and the ranges
    /// it no longer maps that the image before it did.
    pub(crate) fn note_epoch(&mut self, epoch: u64, img: &CheckpointImage) {
        let dumped = img.pages.iter().map(|&(pid, vpn, _)| (pid, vpn));
        let keys = dumped.chain(img.deferred_vpns.iter().copied()).collect();
        let now = img.processes.iter().map(|p| (p.pid, &p.vmas[..]));
        let was = self.mapped.iter().map(|(pid, v)| (*pid, &v[..]));
        let mut unmapped = Vec::new();
        if !now.clone().eq(was.clone()) {
            unmapped = unmapped_since(was, &img.processes);
            self.mapped = now.map(|(pid, v)| (pid, v.to_vec())).collect();
        }
        self.epoch_notes.insert(epoch, (keys, unmapped));
    }

    /// The whole-epoch fan-out, container already running: erasure-code each
    /// dirty page into n fragments and ship fragment i to replica i behind
    /// the assembly barrier. All replica links run in parallel. Fills in
    /// `out`'s transfer half.
    pub(crate) fn transfer(
        &mut self,
        core: &StageCore,
        replicas: &mut [Replica],
        alive: &[usize],
        primary: &Kernel,
        stopped: Stopped,
        out: &mut CheckpointOutcome,
    ) -> SimResult<()> {
        let (mut img, msgs) = (stopped.img, stopped.msgs);
        let epoch = img.epoch;
        let meta_msgs = img.transfer_chunks() + msgs.len() as u64;
        let pages = std::mem::take(&mut img.pages);
        let n_pages = pages.len() as u64;
        let frag_bytes = n_pages * self.codec.frag_len() as u64;
        out.state_bytes = img.state_bytes() + stopped.drbd_bytes + frag_bytes;

        let mut per_cpu: Vec<Nanos> = vec![0; replicas.len()];
        // What is left of the image is metadata every replica receives whole.
        open_assemblies(replicas, alive, img, n_pages, msgs, &mut per_cpu);
        for &i in alive {
            self.batches[i].reserve(pages.len());
        }
        for &(pid, vpn, ref data) in &pages {
            self.stage(alive, PageKey { pid, vpn }, data);
        }
        self.ship(replicas, epoch, &mut per_cpu)?;
        for &i in alive {
            replicas[i].agent.finish_assembly(epoch)?;
        }
        // Striped: the fan-out used what spare fragments it could. The
        // dumped pages share the frames' buffers; dropped here, they leave
        // each frame its buffer's sole holder, written in place.
        end_fragment_round();
        drop(pages);

        let costs = &primary.costs;
        let shard_cpu = n_pages * costs.shard_encode_per_page;
        core.tracer
            .span(self.shard_commit(n_pages, frag_bytes), shard_cpu);
        let transfer = core.transfer_cost(primary, out.state_bytes, meta_msgs);
        let (ingest, link) = ((per_cpu[alive[0]], 0), costs.repl_link_latency);
        out.ack_delay =
            shard_cpu + ack_spans(&core.tracer, out.state_bytes, transfer, ingest, link);
        out.backup_cpu = per_cpu.iter().sum();
        Ok(())
    }

    /// Add one page to the chunk being built: every path that stripes —
    /// whole-epoch, pipelined, bootstrap — goes through here. Fragment `i`
    /// of the page is built once, in the buffer replica `i`'s store then
    /// keeps.
    pub(crate) fn stage(&mut self, alive: &[usize], key: PageKey, page: &[u8; PAGE_SIZE]) {
        for &i in alive {
            self.batches[i].push((key.pid, key.vpn, self.codec.encode_fragment(page, i)));
        }
    }

    /// Hand the staged chunk to the alive replicas' open assemblies of
    /// `epoch`, adding each one's receive CPU to `per_cpu`. Returns the
    /// bytes one link carried: one chunk's wire time is a single fragment
    /// batch.
    pub(crate) fn ship(
        &mut self,
        replicas: &mut [Replica],
        epoch: u64,
        per_cpu: &mut [Nanos],
    ) -> SimResult<u64> {
        let mut pages = 0;
        for (i, batch) in self.batches.iter_mut().enumerate() {
            if replicas[i].alive {
                pages = batch.len() as u64;
                let batch = std::mem::take(batch);
                per_cpu[i] += replicas[i].agent.ingest_fragments(epoch, batch, 0)?;
            }
        }
        Ok(pages * self.codec.frag_len() as u64)
    }

    /// The alive replicas committed everything up to `epoch`. Track what the
    /// active repair's base image now misses, epoch by epoch: a page an
    /// epoch unmapped leaves the survivors' stores at this commit and has
    /// nothing to top up; the pages it carries do.
    pub(crate) fn committed(&mut self, epoch: u64) {
        let later = self.epoch_notes.split_off(&(epoch + 1));
        let committed = std::mem::replace(&mut self.epoch_notes, later);
        if self.repair.is_none() {
            return;
        }
        for (keys, unmapped) in committed.into_values() {
            for (pid, vpns) in unmapped {
                self.redirty
                    .retain(|(p, vpn)| *p != pid || !vpns.contains(vpn));
            }
            self.redirty.extend(keys);
        }
    }

    /// The committed image, decoded from the stores of the `k` replicas
    /// `pick`.
    pub(crate) fn image(
        &mut self,
        replicas: &[Replica],
        pick: &[usize],
    ) -> SimResult<CheckpointImage> {
        let k = self.codec.k() as usize;
        if pick.len() != k {
            return Err(SimError::Invalid(format!(
                "reconstruction needs exactly k={k} replicas, got {}",
                pick.len()
            )));
        }
        let lists = committed_fragments(replicas, pick)?;
        // Metadata, sockets, and fs state replicate in full on every
        // replica; adopt the first one's and decode only the pages.
        let mut out = replicas[pick[0]].agent.materialize()?;
        let mut frags = Vec::with_capacity(k);
        for (p, &(key, _)) in lists[0].iter().enumerate() {
            frags.clear();
            frags.extend(pick.iter().zip(&lists).map(|(&i, list)| (i, list[p].1.clone())));
            let page = decode_page(&mut self.codec, &frags)?;
            out.pages.push((key.pid, key.vpn, page));
        }
        Ok(out)
    }

    /// [`Checkpointer::repair_begin`](crate::Checkpointer::repair_begin).
    pub(crate) fn repair_begin(
        &mut self,
        core: &StageCore,
        replicas: &mut [Replica],
    ) -> SimResult<RepairBegin> {
        if self.repair.is_some() {
            return Err(SimError::Invalid("a repair is already active".into()));
        }
        let target = replicas
            .iter()
            .position(|r| !r.alive)
            .ok_or_else(|| SimError::Invalid("repair_begin with no dead replica".into()))?;
        let survivors = survivors(replicas, self.codec.k() as usize)?;
        // The survivors' fragment buffers, not decoded pages: the snapshot
        // shares them, and each step decodes only the chunk it streams.
        let base: Vec<_> = committed_fragments(replicas, &survivors)?
            .into_iter()
            .map(|list| list.into_iter().map(|(key, f)| (key, f.clone())))
            .map(|list| list.collect::<Vec<_>>().into_iter())
            .collect();
        let meta = replicas[survivors[0]].agent.materialize()?;
        let base_epoch = meta.epoch;
        let total_pages = base[0].len() as u64;
        let state_bytes = meta.state_bytes();

        // Fresh agent on the replacement host; the base image's metadata
        // opens its assembly (sealed by `repair_finish`). Epochs committed
        // while the base streams accumulate in `redirty` and are topped up
        // at finish — the target is excluded from epoch traffic until then.
        replicas[target] = Replica {
            alive: false,
            ..Replica::new(&core.costs, &core.opts)
        };
        let cpu_carry = replicas[target].agent.begin_assembly(meta, total_pages);
        self.redirty.clear();
        self.repair = Some(ActiveRepair {
            target,
            survivors,
            base,
            base_epoch,
            superseded: Vec::new(),
            cpu_carry,
        });
        Ok(RepairBegin {
            total_pages,
            state_bytes,
        })
    }

    /// [`Checkpointer::repair_step`](crate::Checkpointer::repair_step).
    pub(crate) fn repair_step(
        &mut self,
        core: &StageCore,
        replicas: &mut [Replica],
        max_pages: u64,
    ) -> SimResult<BootstrapStep> {
        let mut rep = self.active_repair("repair_step")?;
        let take = (rep.base[0].len() as u64).min(max_pages) as usize;
        let mut batch = Vec::with_capacity(take);
        let mut frags = Vec::with_capacity(rep.survivors.len());
        for _ in 0..take {
            // The page's k fragments leave the base here and are dropped
            // once read. A page re-committed since the base is the top-up's
            // to regenerate, at its current value: none is made here.
            let key = rep.base[0].as_slice()[0].0;
            frags.clear();
            for (&i, list) in rep.survivors.iter().zip(&mut rep.base) {
                frags.extend(list.next().map(|(_, frag)| (i, frag)));
            }
            if self.redirty.contains(&(key.pid, key.vpn)) {
                rep.superseded.push(key);
            } else {
                batch.push((key.pid, key.vpn, self.codec.regenerate_fragment(&frags, rep.target)?));
            }
        }
        let pages = take as u64;
        // The modelled stream is every page's: the replacement host reads
        // k committed fragments per page from the surviving peers (the RS
        // repair read amplification), decodes, and re-encodes its own
        // fragment; a superseded page is received and charged like the
        // others.
        let bytes = pages * self.codec.frag_len() as u64 * self.codec.k() as u64;
        let mut backup_cpu =
            std::mem::take(&mut rep.cpu_carry) + Self::recode_cpu(&core.costs, pages);
        let (agent, skipped) = (&mut replicas[rep.target].agent, pages - batch.len() as u64);
        backup_cpu += agent.ingest_fragments(rep.base_epoch, batch, skipped)?;
        let remaining = rep.base[0].len() as u64;
        self.repair = Some(rep);
        Ok(BootstrapStep {
            pages,
            bytes,
            backup_cpu,
            remaining,
        })
    }

    /// [`Checkpointer::repair_finish`](crate::Checkpointer::repair_finish).
    pub(crate) fn repair_finish(
        &mut self,
        core: &StageCore,
        replicas: &mut [Replica],
        backup: &mut Kernel,
    ) -> SimResult<Nanos> {
        let rep = self.active_repair("repair_finish")?;
        // A skipped base page is the top-up's, unless the container unmapped
        // it since: then no alive replica holds it any more.
        let held = |k: &PageKey| replicas.iter().any(|r| r.alive && r.agent.fragment(*k).is_some());
        let owed = |k: &&PageKey| held(k) && !self.redirty.contains(&(k.pid, k.vpn));
        let error = match rep.superseded.iter().find(owed) {
            _ if rep.base[0].len() > 0 => Some("repair base image not fully streamed".into()),
            Some(k) => Some(format!("base page {k:?} skipped, neither topped up nor unmapped")),
            None => None,
        };
        if let Some(error) = error {
            self.repair = Some(rep);
            return Err(SimError::Invalid(error));
        }
        let (target, base_epoch) = (rep.target, rep.base_epoch);

        // Disk resync: one full-device snapshot from a surviving replica,
        // current as of the latest committed epoch, rides the target's DRBD
        // stream behind the base epoch's barrier.
        let src = (1..replicas.len())
            .find(|&i| i != target && replicas[i].alive)
            .map(|i| replicas[i].disk.full_sync_writes())
            .unwrap_or_else(|| backup.vfs.disk.full_sync_writes());
        let mut msgs: Vec<DrbdMsg> = src.into_iter().map(DrbdMsg::Write).collect();
        msgs.push(DrbdMsg::Barrier(base_epoch));
        let mut cpu = seal(replicas, target, base_epoch, msgs, backup)?;

        // Top-up, if an epoch committed while the base streamed: the pages
        // committed since, at their current committed values — only those
        // keys are read back from the survivors and decoded — under the
        // current metadata image, whose commit also prunes what the
        // container unmapped since the base.
        let latest = committed_epoch(replicas);
        if latest.is_some_and(|e| e > base_epoch) {
            let survivors = survivors(replicas, self.codec.k() as usize)?;
            let meta = replicas[survivors[0]].agent.materialize()?;
            let cur_epoch = meta.epoch;
            let mut keys: Vec<(Pid, u64)> = self.redirty.drain().collect();
            keys.sort_unstable();
            let mut batch = Vec::with_capacity(keys.len());
            let mut frags = Vec::with_capacity(survivors.len());
            for (pid, vpn) in keys {
                let key = PageKey { pid, vpn };
                frags.clear();
                for &i in &survivors {
                    let frag = replicas[i].agent.fragment(key).ok_or_else(|| {
                        SimError::Invalid(format!(
                            "replica {i} holds no fragment of committed page {pid:?}/{vpn:#x}"
                        ))
                    })?;
                    frags.push((i, frag.clone()));
                }
                batch.push((pid, vpn, self.codec.regenerate_fragment(&frags, target)?));
            }
            let n = batch.len() as u64;
            cpu += Self::recode_cpu(&core.costs, n);
            let agent = &mut replicas[target].agent;
            cpu += agent.begin_assembly(meta, n);
            cpu += agent.ingest_fragments(cur_epoch, batch, 0)?;
            let barrier = vec![DrbdMsg::Barrier(cur_epoch)];
            cpu += seal(replicas, target, cur_epoch, barrier, backup)?;
        } else if !self.redirty.is_empty() {
            return Err(SimError::Invalid(format!(
                "redirty pages with no later committed epoch ({latest:?} <= {base_epoch})"
            )));
        }
        replicas[target].alive = true;
        Ok(cpu)
    }

    /// [`Checkpointer::repair_abort`](crate::Checkpointer::repair_abort).
    pub(crate) fn repair_abort(&mut self, replicas: &mut [Replica]) -> SimResult<()> {
        let rep = self.active_repair("repair_abort")?;
        // The replacement host died with its half-regenerated store; the
        // target stays dead until a later attempt rebuilds it from scratch.
        let _ = replicas[rep.target].agent.discard_uncommitted();
        self.redirty.clear();
        Ok(())
    }

    pub(crate) fn shard_commit(&self, pages: u64, frag_bytes: u64) -> TraceEvent {
        TraceEvent::ShardCommit {
            shards: self.codec.n(),
            pages,
            frag_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nilicon_engine::NiLiConEngine;
    use crate::trace::{TraceRecord, Tracer};
    use crate::Checkpointer;
    use nilicon_container::{Container, ContainerRuntime, ContainerSpec, MemLayout};
    use nilicon_sim::block::BlockDevice;
    use nilicon_sim::replay::ReplayEvent;

    fn placement_opts(k: u32, n: u32) -> OptimizationConfig {
        let mut opts = OptimizationConfig::nilicon();
        opts.backups = n;
        opts.quorum = k;
        opts
    }

    fn setup(k: u32, n: u32) -> (Kernel, Kernel, Container, PlacementEngine) {
        let mut primary = Kernel::default();
        let backup = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut primary, &spec).unwrap();
        let engine = PlacementEngine::new(placement_opts(k, n), primary.costs.clone()).unwrap();
        (primary, backup, c, engine)
    }

    fn writes(epoch: u64) -> Vec<(u64, u8)> {
        vec![
            (epoch % 5, epoch as u8),
            (20 + epoch, 0xB0 | epoch as u8),
            (7, epoch.wrapping_mul(13) as u8),
        ]
    }

    fn apply(p: &mut Kernel, c: &Container, epoch: u64) {
        for (page, val) in writes(epoch) {
            p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[val])
                .unwrap();
        }
    }

    #[test]
    fn rejects_invalid_configs() {
        // The rules are `OptimizationConfig::validate`'s, keyed on this
        // layout: a hand-built (1,1) placement is checked like any other.
        type Knob = fn(&mut OptimizationConfig);
        let set: [(u32, u32, Knob, &str); 6] = [
            (2, 3, |o| o.staging_buffer = false, "staging buffer"),
            (2, 3, |o| o.delta_transfer = true, "delta_transfer"),
            (1, 1, |o| o.delta_transfer = true, "delta_transfer"),
            (4, 3, |_| (), "invalid placement (k=4, n=3)"),
            (0, 2, |_| (), "invalid placement (k=0, n=2)"),
            (2, 200, |_| (), "invalid placement (k=2, n=200)"),
        ];
        for (k, n, knob, message) in set {
            let mut opts = placement_opts(k, n);
            knob(&mut opts);
            let err = PlacementEngine::new(opts, CostModel::default()).unwrap_err();
            assert!(err.to_string().contains(message), "({k},{n}): {err}");
        }
        PlacementEngine::new(placement_opts(1, 1), CostModel::default()).expect("(1,1) is valid");
        for (k, n) in [(1, 1), (2, 3)] {
            let mut cow = placement_opts(k, n);
            cow.cow_checkpoint = true;
            PlacementEngine::new(cow, CostModel::default()).expect("the COW drain is striped");
        }
    }

    #[test]
    fn epochs_commit_and_reconcile_across_placements() {
        let shapes = [(1u32, 2u32), (2, 3), (3, 5)];
        for ((k, n), cow) in shapes.into_iter().flat_map(|s| [(s, false), (s, true)]) {
            let (mut p, mut b, c, _) = setup(k, n);
            let mut opts = placement_opts(k, n);
            opts.cow_checkpoint = cow;
            let mut e = PlacementEngine::new(opts, p.costs.clone()).unwrap();
            let (tracer, ring) = Tracer::in_memory(256);
            e.set_tracer(tracer.clone());
            e.prepare(&mut p, &c).unwrap();
            let mut dirty = Vec::new();
            for epoch in 1..=3u64 {
                apply(&mut p, &c, epoch);
                tracer.begin_epoch(epoch, 0);
                let o = e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
                tracer
                    .reconcile(epoch, o.stop_time, o.ack_delay, 0)
                    .unwrap();
                assert!(o.ack_delay > 0, "staged ack path");
                e.commit(&mut b, epoch).unwrap();
                dirty.push(o.dirty_pages);
            }
            assert_eq!(e.committed_epoch(), Some(3), "(k={k},n={n})");
            let striped: Vec<u64> = ring
                .snapshot()
                .iter()
                .filter_map(|r| match r.kind {
                    TraceEvent::ShardCommit { pages, .. } => Some(pages),
                    _ => None,
                })
                .collect();
            // One ShardCommit per epoch, carrying the pages striped —
            // off the COW drain as well as off the dump.
            assert_eq!(striped, dirty, "(k={k},n={n}) cow={cow}");
        }
    }

    #[test]
    fn stop_phase_is_the_single_backup_engines_at_any_placement() {
        // One scripted write history under NiLiCon and under (1,1) and (2,3)
        // placements: how the checkpoint is laid out on replicas is decided
        // after the container resumes, so every epoch stops for the same
        // time and emits the same stop-phase spans.
        fn history<E: Checkpointer>(
            engine: impl FnOnce(&Kernel) -> E,
        ) -> Vec<(Nanos, Vec<TraceRecord>)> {
            let mut p = Kernel::default();
            let mut b = Kernel::default();
            let c = ContainerRuntime::create(&mut p, &ContainerSpec::server("redis", 10, 6379))
                .unwrap();
            let mut e = engine(&p);
            let (tracer, ring) = Tracer::in_memory(4096);
            e.set_tracer(tracer.clone());
            e.prepare(&mut p, &c).unwrap();
            touch_many(&mut p, &c);
            let mut stops = Vec::new();
            for epoch in 1..=5u64 {
                apply(&mut p, &c, epoch);
                tracer.begin_epoch(epoch, 0);
                let o = e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
                tracer
                    .reconcile(epoch, o.stop_time, o.ack_delay, 0)
                    .unwrap();
                e.commit(&mut b, epoch).unwrap();
                let spans: Vec<TraceRecord> = ring
                    .snapshot()
                    .into_iter()
                    .filter(|r| r.epoch == epoch)
                    .filter(|r| {
                        r.kind.is_stop_phase()
                            || matches!(
                                r.kind,
                                TraceEvent::DumpDetail { .. } | TraceEvent::DrbdShip { .. }
                            )
                    })
                    .collect();
                stops.push((o.stop_time, spans));
            }
            stops
        }
        let nilicon =
            history(|p| NiLiConEngine::new(OptimizationConfig::nilicon(), p.costs.clone()));
        assert!(nilicon.iter().all(|(stop, spans)| *stop > 0 && spans.len() >= 5));
        for (k, n) in [(1, 1), (2, 3)] {
            let placed =
                history(|p| PlacementEngine::new(placement_opts(k, n), p.costs.clone()).unwrap());
            assert_eq!(placed, nilicon, "(k={k},n={n})");
        }
    }

    #[test]
    fn coded_storage_beats_mirroring() {
        let run = |k: u32, n: u32| {
            let (mut p, mut b, c, mut e) = setup(k, n);
            e.prepare(&mut p, &c).unwrap();
            for epoch in 1..=3u64 {
                apply(&mut p, &c, epoch);
                e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
                e.commit(&mut b, epoch).unwrap();
            }
            let stored = e.stored_fragment_bytes();
            let unreplicated = e.reconstruct_committed(&(0..k as usize).collect::<Vec<_>>())
                .unwrap()
                .pages
                .len() as u64
                * PAGE_SIZE as u64;
            (stored, unreplicated)
        };
        let (mirr, base) = run(1, 2);
        assert_eq!(mirr, 2 * base, "(1,2) is exactly 2x mirroring");
        let (coded, base23) = run(2, 3);
        assert_eq!(base23, base);
        assert!(
            coded * 2 == 3 * base,
            "(2,3) stores exactly 1.5x: {coded} vs base {base}"
        );
        assert!(coded < mirr, "coded placement beats mirroring");
    }

    #[test]
    fn degraded_commit_and_failover_from_k_survivors() {
        let (mut p, mut b, c, mut e) = setup(2, 3);
        e.prepare(&mut p, &c).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"committed")
            .unwrap();
        for epoch in 1..=2u64 {
            apply(&mut p, &c, epoch);
            e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
            e.commit(&mut b, epoch).unwrap();
        }
        // The designated replica dies; the quorum (2 of 3) holds.
        assert_eq!(e.replica_fault().unwrap(), 2);
        // Epochs keep committing on the survivors.
        apply(&mut p, &c, 3);
        let mut dead_backup = Kernel::default(); // fresh replacement host
        e.checkpoint(&mut p, &mut dead_backup, &c, 3).unwrap();
        e.commit(&mut dead_backup, 3).unwrap();
        assert_eq!(e.committed_epoch(), Some(3));

        // Primary fault in degraded mode: failover onto the fresh host,
        // reconstructed from the two survivors, disk resynced.
        let (restored, report) = e.failover(&mut dead_backup).unwrap();
        restored.finish(&mut dead_backup).unwrap();
        let mut buf = [0u8; 9];
        dead_backup
            .mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"committed");
        assert_eq!(
            dead_backup.vfs.disk.digest(),
            p.vfs.disk.digest(),
            "disk resynced from a surviving replica"
        );
        assert!(report.others > 0);
    }

    #[test]
    fn buffers_circulate_between_commit_and_fan_out_until_failover() {
        use nilicon_criu::spare_fragments;
        use nilicon_sim::mem::{end_page_round, spare_pages};
        end_page_round();
        end_fragment_round();
        let (mut p, mut b, c, mut e) = setup(2, 3);
        e.prepare(&mut p, &c).unwrap();
        let dirty = |p: &mut Kernel, tag: u8| {
            for page in 0..30u64 {
                p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[tag])
                    .unwrap();
            }
        };
        for epoch in 1..=3u64 {
            dirty(&mut p, epoch as u8);
            e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
            assert_eq!(
                (spare_pages(), spare_fragments()),
                (0, 0),
                "striped pages leave their frames the sole holders, written in \
                 place; the fan-out's end frees fragments"
            );
            e.commit(&mut b, epoch).unwrap();
        }
        assert_eq!(
            spare_fragments(),
            3 * 30,
            "every replica displaced epoch 2's"
        );
        let (restored, _) = e.failover(&mut b).unwrap();
        assert_eq!((spare_pages(), spare_fragments()), (0, 0));
        let mut byte = [0u8; 1];
        b.mem_read(
            restored.container.init_pid(),
            MemLayout::heap_page(29),
            &mut byte,
        )
        .unwrap();
        assert_eq!(
            byte[0], 3,
            "decoded from fragments written into recycled buffers"
        );
    }

    #[test]
    fn below_quorum_checkpoint_fails() {
        let (mut p, mut b, c, mut e) = setup(2, 3);
        e.prepare(&mut p, &c).unwrap();
        apply(&mut p, &c, 1);
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        e.replica_fault().unwrap();
        e.fail_replica(1).unwrap();
        apply(&mut p, &c, 2);
        assert!(
            e.checkpoint(&mut p, &mut b, &c, 2).is_err(),
            "1 alive < k=2: epochs cannot ack"
        );
    }

    #[test]
    fn coded_repair_restores_full_redundancy() {
        let (mut p, mut b, c, mut e) = setup(2, 3);
        e.prepare(&mut p, &c).unwrap();
        for epoch in 1..=3u64 {
            apply(&mut p, &c, epoch);
            e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
            e.commit(&mut b, epoch).unwrap();
        }
        let before = e.reconstruct_committed(&[1, 2]).unwrap();
        assert_eq!(e.replica_fault().unwrap(), 2);

        // Repair streams the base in bounded chunks while epochs keep
        // committing (re-dirtying pages mid-repair).
        let mut fresh = Kernel::default();
        let begin = e.repair_begin(3).unwrap();
        assert!(begin.total_pages > 0);
        let mut streamed = 0u64;
        let mut steps = 0;
        loop {
            apply(&mut p, &c, 4 + steps);
            e.checkpoint(&mut p, &mut fresh, &c, 4 + steps).unwrap();
            e.commit(&mut fresh, 4 + steps).unwrap();
            let s = e.repair_step(4 + steps, 2).unwrap();
            streamed += s.pages;
            steps += 1;
            if s.remaining == 0 {
                break;
            }
            assert!(steps < 10_000, "repair must terminate");
        }
        assert!(steps > 1, "base streamed across multiple bounded steps");
        assert_eq!(streamed, begin.total_pages);
        e.repair_finish(&mut fresh, 4 + steps).unwrap();
        assert_eq!(e.alive_replicas(), 3, "full redundancy restored");

        // The repaired replica participates in reconstruction: any pair
        // including replica 0 yields the same image as the survivors.
        let via_repaired = e.reconstruct_committed(&[0, 2]).unwrap();
        let via_survivors = e.reconstruct_committed(&[1, 2]).unwrap();
        assert_eq!(via_repaired.pages.len(), via_survivors.pages.len());
        for (x, y) in via_repaired.pages.iter().zip(via_survivors.pages.iter()) {
            assert_eq!((x.0, x.1), (y.0, y.1));
            assert_eq!(x.2, y.2, "repaired fragment diverged at {:?}/{:#x}", x.0, x.1);
        }
        assert!(
            via_repaired.pages.len() >= before.pages.len(),
            "mid-repair commits are included"
        );
        // And the repaired host's disk matches the primary's.
        assert_eq!(fresh.vfs.disk.digest(), p.vfs.disk.digest());

        // Incremental epochs now fan out to all three replicas again.
        apply(&mut p, &c, 100);
        e.checkpoint(&mut p, &mut fresh, &c, 100).unwrap();
        e.commit(&mut fresh, 100).unwrap();
        assert_eq!(e.committed_epoch(), Some(100));
    }

    #[test]
    fn repair_releases_each_base_fragment_once_streamed() {
        let (mut p, mut b, c, mut e) = setup(2, 3);
        e.prepare(&mut p, &c).unwrap();
        for epoch in 1..=3u64 {
            apply(&mut p, &c, epoch);
            e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
            e.commit(&mut b, epoch).unwrap();
        }
        e.replica_fault().unwrap();
        let mut fresh = Kernel::default();
        e.repair_begin(3).unwrap();

        // Survivor 1's base fragments of heap pages 1 and 7, in streaming
        // order.
        let key = |page| PageKey {
            pid: c.init_pid(),
            vpn: MemLayout::heap_page(page) / PAGE_SIZE as u64,
        };
        let order = e.replicas[1].agent.fragments();
        let at = |page| order.iter().position(|f| f.0 == key(page)).unwrap();
        let first = at(1);
        assert!(first < at(7));
        let weak = |page| Rc::downgrade(order[at(page)].1);
        let (streamed, unstreamed) = (weak(1), weak(7));

        // Epoch 4 rewrites both pages; ending the fragment round drops what
        // its commit displaced, so only the base still holds them.
        for page in [1, 7] {
            p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[0xEE])
                .unwrap();
        }
        e.checkpoint(&mut p, &mut fresh, &c, 4).unwrap();
        e.commit(&mut fresh, 4).unwrap();
        end_fragment_round();

        assert!(e.repair_step(4, first as u64 + 1).unwrap().remaining > 0);
        assert!(
            streamed.upgrade().is_none(),
            "a streamed page's fragment is released"
        );
        assert!(
            unstreamed.upgrade().is_some(),
            "an unstreamed page keeps its base_epoch fragment"
        );

        while e.repair_step(4, 64).unwrap().remaining > 0 {}
        e.repair_finish(&mut fresh, 4).unwrap();
        let via_repaired = e.reconstruct_committed(&[0, 2]).unwrap().pages;
        let via_survivors = e.reconstruct_committed(&[1, 2]).unwrap().pages;
        assert!(via_repaired == via_survivors, "the repaired fragments diverged");
    }

    #[test]
    fn repair_abort_leaves_survivors_serving() {
        let (mut p, mut b, c, mut e) = setup(2, 3);
        e.prepare(&mut p, &c).unwrap();
        for epoch in 1..=2u64 {
            apply(&mut p, &c, epoch);
            e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
            e.commit(&mut b, epoch).unwrap();
        }
        e.replica_fault().unwrap();
        let mut fresh = Kernel::default();
        e.repair_begin(2).unwrap();
        e.repair_step(2, 4).unwrap();
        // The replacement dies mid-repair.
        e.repair_abort().unwrap();
        assert_eq!(e.alive_replicas(), 2);
        // Epochs continue on the survivors; a second attempt succeeds.
        apply(&mut p, &c, 3);
        e.checkpoint(&mut p, &mut fresh, &c, 3).unwrap();
        e.commit(&mut fresh, 3).unwrap();
        e.repair_begin(3).unwrap();
        loop {
            if e.repair_step(3, 64).unwrap().remaining == 0 {
                break;
            }
        }
        e.repair_finish(&mut fresh, 3).unwrap();
        assert_eq!(e.alive_replicas(), 3);
    }

    #[test]
    fn migration_degenerate_k1_n1_streams_and_fails_over() {
        // Planned live migration = the (1,1) placement driven through the
        // bootstrap flow to a deliberate failover on the destination.
        let mut opts = placement_opts(1, 1);
        opts.rearm = true;
        let mut source = Kernel::default();
        let mut dest = Kernel::default();
        let c =
            ContainerRuntime::create(&mut source, &ContainerSpec::server("web", 10, 80)).unwrap();
        let mut e = PlacementEngine::new(opts, source.costs.clone()).unwrap();
        e.prepare(&mut source, &c).unwrap();
        source
            .mem_write(c.init_pid(), MemLayout::heap(0), b"precious")
            .unwrap();
        for page in 1..120u64 {
            source
                .mem_write(c.init_pid(), MemLayout::heap_page(page), &[page as u8 | 1])
                .unwrap();
        }
        let begin = e.bootstrap_begin(&mut source, &c, 1).unwrap();
        assert!(begin.total_pages > 0);
        // The source keeps serving (and writing) while the image streams.
        source
            .mem_write(c.init_pid(), MemLayout::heap_page(3), &[0xEE])
            .unwrap();
        let mut steps = 0;
        loop {
            if e.bootstrap_step(&mut source, 1, 64).unwrap().remaining == 0 {
                break;
            }
            steps += 1;
            assert!(steps < 1000);
        }
        e.bootstrap_finish(&mut dest, 1).unwrap();
        let (restored, _) = e.failover(&mut dest).unwrap();
        restored.finish(&mut dest).unwrap();
        let mut buf = [0u8; 8];
        dest.mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"precious");
        // COW preserved the pre-write content of the page mutated
        // mid-stream: the migrated image is the checkpoint-time state.
        let mut pg = [0u8; 1];
        dest.mem_read(
            restored.container.init_pid(),
            MemLayout::heap_page(3),
            &mut pg,
        )
        .unwrap();
        assert_eq!(pg[0], 3 | 1, "pre-migration content, not the late write");
    }

    #[test]
    fn log_chunks_ride_the_coded_fanout() {
        let mut opts = placement_opts(2, 3);
        opts.hybrid_replay = true;
        let mut p = Kernel::default();
        let mut b = Kernel::default();
        let c =
            ContainerRuntime::create(&mut p, &ContainerSpec::server("redis", 10, 6379)).unwrap();
        let mut e = PlacementEngine::new(opts, p.costs.clone()).unwrap();
        e.prepare(&mut p, &c).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();

        let ev = ReplayEvent::Request {
            pid: c.init_pid(),
            at: 5,
            payload: vec![0xAA; 300].into(),
            response_hash: 7,
            response_len: 4,
        };
        let o = e.ship_log(&mut p, 2, std::slice::from_ref(&ev)).unwrap();
        // n fragments of ceil(bytes/k): wire total is 1.5x the raw chunk,
        // but the parallel quorum commit still lands at link scale.
        let raw = ev.byte_len();
        assert_eq!(o.bytes, raw.div_ceil(2) * 3);
        assert!(o.commit_latency < nilicon_sim::time::MILLISECOND);
        e.seal_log(2).unwrap();
        let tail = e.take_replay_tail().unwrap();
        assert!(!tail.dropped_partial);
        assert_eq!(tail.logs.len(), 1);
        assert_eq!(tail.events(), 1);
    }

    /// Dirty more pages than one 64-page pipeline chunk holds.
    fn touch_many(p: &mut Kernel, c: &Container) {
        for page in 40..190u64 {
            p.mem_write(
                c.init_pid(),
                MemLayout::heap_page(page),
                &[page as u8, 0x3C],
            )
            .unwrap();
        }
    }

    /// `epochs` committed epochs of the `apply` script under `opts`, the
    /// first one carrying [`touch_many`]'s pages as well.
    fn run_epochs(
        opts: OptimizationConfig,
        epochs: u64,
    ) -> (Kernel, Kernel, Container, PlacementEngine) {
        let mut p = Kernel::default();
        let mut b = Kernel::default();
        let c = ContainerRuntime::create(&mut p, &ContainerSpec::server("redis", 10, 6379)).unwrap();
        let mut e = PlacementEngine::new(opts, p.costs.clone()).unwrap();
        e.prepare(&mut p, &c).unwrap();
        touch_many(&mut p, &c);
        for epoch in 1..=epochs {
            apply(&mut p, &c, epoch);
            e.pipeline_advance(u64::MAX);
            e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
            e.commit(&mut b, epoch).unwrap();
        }
        (p, b, c, e)
    }

    fn stored(e: &PlacementEngine, replica: usize) -> Vec<(PageKey, Vec<u8>)> {
        let frags = e.replicas[replica].agent.fragments();
        frags.into_iter().map(|(key, f)| (key, f.to_vec())).collect()
    }

    #[test]
    fn every_replica_stores_exactly_its_codec_fragment() {
        // What the paper's single backup holds after the same writes is the
        // page content; replica i must hold encode(page)[i], frag_len bytes,
        // whichever branch fanned it out.
        const EPOCHS: u64 = 6;
        let mut pa = Kernel::default();
        let mut ba = Kernel::default();
        let ca =
            ContainerRuntime::create(&mut pa, &ContainerSpec::server("redis", 10, 6379)).unwrap();
        let mut ea = NiLiConEngine::new(OptimizationConfig::nilicon(), pa.costs.clone());
        ea.prepare(&mut pa, &ca).unwrap();
        touch_many(&mut pa, &ca);
        for epoch in 1..=EPOCHS {
            apply(&mut pa, &ca, epoch);
            ea.checkpoint(&mut pa, &mut ba, &ca, epoch).unwrap();
            ea.commit(&mut ba, epoch).unwrap();
        }
        let reference = ea.agent.materialize().unwrap();
        assert!(reference.pages.len() > 64, "more than one pipeline chunk");

        for pipeline in [false, true] {
            for (k, n) in [(2u32, 3u32), (3, 5)] {
                let mut opts = placement_opts(k, n);
                opts.pipeline = pipeline;
                let (_, _, _, e) = run_epochs(opts, EPOCHS);
                let mut codec = ShardCodec::new(k, n).unwrap();
                for i in 0..n as usize {
                    let held = stored(&e, i);
                    assert_eq!(held.len(), reference.pages.len());
                    for ((key, frag), (pid, vpn, page)) in held.iter().zip(&reference.pages) {
                        assert_eq!((key.pid, key.vpn), (*pid, *vpn));
                        assert_eq!(frag.len(), e.frag_len(), "stored at fragment size");
                        assert_eq!(
                            frag,
                            &codec.encode(page)[i],
                            "(k={k},n={n}) pipeline={pipeline} replica {i} page {vpn:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn repaired_replica_holds_what_a_never_failed_one_does() {
        // Replica 0 is lost after epoch 3 and regenerated two pages a step
        // while every epoch re-dirties pages already streamed (page 7 each
        // epoch, a rotating one of 0..5): the top-up must bring exactly
        // those keys forward — dumped, or left to the COW drain.
        for cow in [false, true] {
            let mut opts = placement_opts(2, 3);
            opts.cow_checkpoint = cow;
            let (mut p, _b, c, mut e) = run_epochs(opts, 3);
            e.replica_fault().unwrap();
            let mut fresh = Kernel::default();
            e.repair_begin(3).unwrap();
            let mut epoch = 3;
            loop {
                epoch += 1;
                apply(&mut p, &c, epoch);
                e.checkpoint(&mut p, &mut fresh, &c, epoch).unwrap();
                e.commit(&mut fresh, epoch).unwrap();
                if e.repair_step(epoch, 2).unwrap().remaining == 0 {
                    break;
                }
            }
            assert!(!e.layout.redirty.is_empty(), "cow={cow}: pages were re-dirtied mid-stream");
            e.repair_finish(&mut fresh, epoch).unwrap();

            let (_, _, _, never_failed) = run_epochs(opts, epoch);
            assert_eq!(e.committed_epoch(), never_failed.committed_epoch());
            for i in 0..3 {
                assert!(stored(&e, i) == stored(&never_failed, i), "cow={cow}: replica {i}");
            }
            let a = e.replicas[0].agent.materialize().unwrap();
            let b = never_failed.replicas[0].agent.materialize().unwrap();
            assert_eq!(a.epoch, b.epoch, "top-up carried the current metadata");
        }
    }

    /// What [`stream_repair`] leaves: the engine, its backup kernel, the
    /// last epoch, the pages the stream regenerated that were already in
    /// `redirty`, the pages it streamed and the steps' backup CPU.
    type Streamed = (PlacementEngine, Kernel, u64, usize, u64, Nanos);

    /// A (2,3) repair streamed to its last step, two pages a step, while
    /// every epoch re-commits a page the stream has yet to reach. Unless
    /// `skip`, each step is shown an empty `redirty`, so the stream
    /// regenerates every base page, as it did before it skipped any.
    fn stream_repair(opts: OptimizationConfig, skip: bool) -> Streamed {
        let (mut p, _b, c, mut e) = run_epochs(opts, 3);
        e.replica_fault().unwrap();
        let mut fresh = Kernel::default();
        e.repair_begin(3).unwrap();
        let target = e.layout.repair.as_ref().unwrap().target;
        let (mut epoch, mut twice, mut streamed, mut cpu) = (3, 0, 0, 0);
        loop {
            epoch += 1;
            apply(&mut p, &c, epoch);
            let ahead = MemLayout::heap_page(100 + 2 * epoch);
            p.mem_write(c.init_pid(), ahead, &[0xEE]).unwrap();
            e.checkpoint(&mut p, &mut fresh, &c, epoch).unwrap();
            e.commit(&mut fresh, epoch).unwrap();
            let owed = e.layout.redirty.clone();
            if !skip {
                e.layout.redirty.clear();
            }
            let before = e.replicas[target].agent.assembling_keys().len();
            let step = e.repair_step(epoch, 2).unwrap();
            e.layout.redirty.clone_from(&owed);
            (streamed, cpu) = (streamed + step.pages, cpu + step.backup_cpu);
            let made = e.replicas[target].agent.assembling_keys();
            twice += made[before..]
                .iter()
                .filter(|k| owed.contains(&(k.pid, k.vpn)))
                .count();
            if step.remaining == 0 {
                return (e, fresh, epoch, twice, streamed, cpu);
            }
        }
    }

    #[test]
    fn repair_regenerates_no_page_the_top_up_replaces() {
        // The stream skips a page committed ahead of it, the top-up
        // regenerates it once, and a skipped page the top-up does not carry
        // stops the seal. The modelled repair, stream and seal, is what a
        // stream that skips nothing charges, on either page store.
        for radix in [true, false] {
            let mut opts = placement_opts(2, 3);
            opts.optimize_criu = radix;
            let (mut e, mut fresh, epoch, twice, streamed, cpu) = stream_repair(opts, true);
            let (mut whole, mut whole_fresh, _, twice_whole, _, whole_cpu) =
                stream_repair(opts, false);
            assert_eq!(twice, 0, "pages regenerated by the stream and again by the top-up");
            assert!(twice_whole > 0, "without the skip the stream regenerates pages twice");
            let target = e.layout.repair.as_ref().unwrap().target;
            let skipped = e.layout.repair.as_ref().unwrap().superseded.clone();
            assert!(!skipped.is_empty(), "the stream met pages committed ahead of it");
            let made = e.replicas[target].agent.assembling_keys().len() as u64;
            assert_eq!(made + skipped.len() as u64, streamed);
            assert_eq!(cpu, whole_cpu, "radix={radix}: the stream's CPU");

            let key = skipped[0];
            e.layout.redirty.remove(&(key.pid, key.vpn));
            let err = e.repair_finish(&mut fresh, epoch).unwrap_err();
            assert!(err.to_string().contains("neither topped up nor unmapped"), "{err}");
            e.layout.redirty.insert((key.pid, key.vpn));
            let sealed = e.repair_finish(&mut fresh, epoch).unwrap();
            let whole_sealed = whole.repair_finish(&mut whole_fresh, epoch).unwrap();
            assert_eq!(sealed, whole_sealed, "radix={radix}: the seal's CPU");
            let survivors: Vec<usize> = (0..3).filter(|&i| i != target).collect();
            let reference = e.reconstruct_committed(&survivors).unwrap();
            for with in survivors.iter().map(|&i| [target, i]) {
                let img = e.reconstruct_committed(&with).unwrap();
                assert!(img.pages == reference.pages, "replica {target} with {with:?}");
            }
        }
    }

    /// Commit `frags` as epoch `epoch` on one replica only, behind its back.
    fn inject(e: &mut PlacementEngine, replica: usize, epoch: u64, frags: Vec<Fragment>) {
        let agent = &mut e.replicas[replica].agent;
        let mut meta = agent.materialize().unwrap();
        meta.epoch = epoch;
        agent.begin_assembly(meta, frags.len() as u64);
        agent.ingest_fragments(epoch, frags, 0).unwrap();
        agent.ingest_drbd(vec![DrbdMsg::Barrier(epoch)]);
        agent.finish_assembly(epoch).unwrap();
        agent.commit(epoch, &mut BlockDevice::default()).unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Replica stores that disagree — one holds a page the others do
        /// not, two hold different keys at the same position, one holds a
        /// truncated or over-long fragment — make every read that touches
        /// the odd one a `SimError`, never a panic; reads that avoid it
        /// still succeed.
        #[test]
        fn diverging_replica_stores_are_errors_not_panics(
            kind in 0usize..4,
            victim in 0usize..3,
        ) {
            let (_p, mut b, c, mut e) = run_epochs(placement_opts(2, 3), 3);
            let pid = c.init_pid();
            let frag_len = e.frag_len();
            let known = e.replicas[victim].agent.fragments()[0].0;
            let other = (victim + 1) % 3;
            let frag = |len: usize| -> FragBuf { vec![0xA5u8; len].into() };
            // Which replicas a read must avoid to stay well-formed.
            let mut odd = vec![victim];
            match kind {
                0 => inject(&mut e, victim, 4, vec![(pid, 0xdead, frag(frag_len))]),
                1 => {
                    // Same page count, different keys.
                    inject(&mut e, victim, 4, vec![(pid, 0xdead, frag(frag_len))]);
                    inject(&mut e, other, 4, vec![(pid, 0xbeef, frag(frag_len))]);
                    odd.push(other);
                }
                2 => inject(&mut e, victim, 4, vec![(known.pid, known.vpn, frag(frag_len - 1))]),
                _ => inject(&mut e, victim, 4, vec![(known.pid, known.vpn, frag(frag_len + 1))]),
            }
            for subset in [[0usize, 1], [0, 2], [1, 2]] {
                let touches = subset.iter().filter(|i| odd.contains(i)).count();
                // Kind 1's two odd replicas disagree with each other too.
                let clean = touches == 0;
                match e.reconstruct_committed(&subset) {
                    Ok(_) => proptest::prop_assert!(clean, "kind {kind}: {subset:?} accepted"),
                    Err(err) => {
                        proptest::prop_assert!(!clean, "kind {kind}: {subset:?}: {err}");
                        proptest::prop_assert!(matches!(err, SimError::Invalid(_)));
                    }
                }
            }
            // Failover and repair read the first k survivors.
            let third = 3 - victim - other;
            let dead = if kind == 1 { third } else { other };
            e.fail_replica(dead).unwrap();
            // Diverging keys stop a repair where it starts; a bad fragment
            // stops it at the step that reads it.
            let repair = e.repair_begin(4).and_then(|_| loop {
                if e.repair_step(4, 16)?.remaining == 0 {
                    break Ok(());
                }
            });
            proptest::prop_assert!(repair.is_err());
            proptest::prop_assert!(e.failover(&mut b).is_err());
        }
    }

    #[test]
    fn heap_shrink_while_a_repair_streams_is_not_divergence() {
        // A page committed while the repair streams is one the top-up owes
        // the target — until a later epoch unmaps it: that epoch's commit
        // prunes it from the survivors' stores, and must drop it from the
        // top-up too, or `repair_finish` reads a fragment nobody holds.
        let (mut p, _b, c, mut e) = run_epochs(placement_opts(2, 3), 2);
        let pid = c.init_pid();
        let top = c.spec.heap_pages - 1;
        e.replica_fault().unwrap();
        let mut fresh = Kernel::default();
        e.repair_begin(2).unwrap();
        p.mem_write(pid, MemLayout::heap_page(top), b"doomed")
            .unwrap();
        e.checkpoint(&mut p, &mut fresh, &c, 3).unwrap();
        e.commit(&mut fresh, 3).unwrap();
        assert!(e
            .layout
            .redirty
            .contains(&(pid, MemLayout::heap_page(top) >> 12)));
        let mm = p.mm_mut(pid).unwrap();
        mm.brk(MemLayout::heap_page(top / 2)).unwrap();
        e.checkpoint(&mut p, &mut fresh, &c, 4).unwrap();
        e.commit(&mut fresh, 4).unwrap();
        while e.repair_step(4, 64).unwrap().remaining > 0 {}
        e.repair_finish(&mut fresh, 4).unwrap();
        assert_eq!(e.alive_replicas(), 3);

        // The repaired replica 0 holds what the survivors hold: the image is
        // the same whichever of them it is read with.
        let reference = e.reconstruct_committed(&[1, 2]).unwrap();
        assert_eq!(reference.epoch, 4, "the top-up carried the shrunken image");
        for with in [[0usize, 1], [0, 2]] {
            let img = e.reconstruct_committed(&with).unwrap();
            assert_eq!(img.epoch, reference.epoch);
            assert!(img.pages == reference.pages, "replica 0 with {with:?}");
        }

        // Mapped again and never written, the range reads zeros on the
        // primary, and so it must after a failover.
        p.mm_mut(pid)
            .unwrap()
            .brk(MemLayout::heap_page(top + 1))
            .unwrap();
        e.checkpoint(&mut p, &mut fresh, &c, 5).unwrap();
        e.commit(&mut fresh, 5).unwrap();
        let (restored, _) = e.failover(&mut fresh).unwrap();
        assert_eq!(restored.skipped_pages, 0, "nothing stale left to skip");
        restored.finish(&mut fresh).unwrap();
        let mut buf = [0xffu8; 6];
        fresh
            .mem_read(pid, MemLayout::heap_page(top), &mut buf)
            .unwrap();
        assert_eq!(buf, [0; 6], "old bytes resurrected above the old break");
    }

    #[test]
    fn top_up_of_a_page_a_survivor_lacks_is_an_error() {
        let (mut p, _b, c, mut e) = run_epochs(placement_opts(2, 3), 2);
        e.replica_fault().unwrap();
        let mut fresh = Kernel::default();
        e.repair_begin(2).unwrap();
        apply(&mut p, &c, 3);
        e.checkpoint(&mut p, &mut fresh, &c, 3).unwrap();
        e.commit(&mut fresh, 3).unwrap();
        while e.repair_step(3, 64).unwrap().remaining > 0 {}
        e.layout.redirty.insert((c.init_pid(), 0xdead));
        let err = e.repair_finish(&mut fresh, 3).unwrap_err();
        assert!(matches!(err, SimError::Invalid(_)), "got {err:?}");
    }
}
