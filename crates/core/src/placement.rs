//! k-of-n erasure-coded multi-backup replication — the `placement` engine.
//!
//! NiLiCon's single warm backup gives exactly one fault-tolerance level at
//! 2× memory: lose the backup and the pair is one fault from data loss until
//! rearm completes. This engine generalizes the backup side to a *placement*
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
//!   peers — decode + re-encode, `k × frag_len` wire bytes per page — while
//!   the primary keeps serving.
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
//! reuses the [`Checkpointer`] bootstrap methods; repair adds the
//! `repair_*` methods (no stop phase at all — it reads *committed* state);
//! migration is the degenerate `k = 1, n = 1` placement driven to a
//! deliberate failover (see `examples/live_migration.rs`).
//!
//! Memory overhead is `n × ceil(4 KiB/k) / 4 KiB` per committed page:
//! `(1,2)` is exactly the paper's 2× mirroring, `(2,3)` stores 1.5×, `(3,5)`
//! ≈ 1.67× — coded placements beat mirroring while tolerating more faults.
//!
//! Modeling notes: the engine requires the staged transfer path
//! (`staging_buffer`) and composes with neither `delta_transfer` nor
//! `cow_checkpoint` (fragments are coded from full page bodies after the
//! container resumes). A fragment is built once, in the `frag_len`-byte heap
//! buffer replica `i`'s store then keeps (DESIGN §10); replica receive CPU is
//! still modeled on a 4 KiB unit per fragment — the charge is older than the
//! fragment-sized stores and is kept, so no virtual number moved — while wire
//! bytes and stored-fragment accounting use the true fragment size.

use crate::backup::{BackupAgent, Fragment};
use crate::config::OptimizationConfig;
use crate::engine::{
    BootstrapBegin, BootstrapStep, CheckpointOutcome, Checkpointer, FailoverReport, LogShipOutcome,
    RepairBegin, ReplayTail,
};
use crate::stages::{ChunkClock, StageCore, CHUNK_PAGES};
use crate::trace::{TraceEvent, Tracer};
use nilicon_container::Container;
use nilicon_criu::{
    end_fragment_round, CheckpointImage, FragBuf, PageKey, RestoredContainer, ShardCodec,
};
use nilicon_drbd::DrbdMsg;
use nilicon_sim::block::BlockDevice;
use nilicon_sim::ids::Pid;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::mem::recycle_page;
use nilicon_sim::replay::ReplayEvent;
use nilicon_sim::time::Nanos;
use nilicon_sim::{CostModel, PageBuf, SimError, SimResult, PAGE_SIZE};
use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;

/// One backup replica: a buffered agent plus its replicated block device.
/// The replica at index 0 is backed by the harness's real backup kernel —
/// its committed disk writes go to that kernel's device (passed into
/// [`Checkpointer::commit`]), and `disk` here stays unused. Replicas `1..n`
/// are modeled hosts that commit into their own `disk`.
struct Replica {
    agent: BackupAgent,
    disk: BlockDevice,
    alive: bool,
}

impl Replica {
    fn new(costs: &CostModel, opts: &OptimizationConfig) -> Self {
        Replica {
            agent: BackupAgent::new(costs.clone(), opts.optimize_criu),
            disk: BlockDevice::default(),
            alive: true,
        }
    }
}

/// An in-flight coded repair (one at a time).
struct ActiveRepair {
    /// Replica index being regenerated.
    target: usize,
    /// The k survivors the base is read from.
    survivors: Vec<usize>,
    /// Their committed fragments as of `base_epoch`, one key-aligned list
    /// per survivor. The buffers are shared with the survivors' stores (a
    /// later commit replaces a store's buffer, it never writes into one),
    /// so the snapshot copies nothing; each step decodes its own chunk.
    base: Vec<Vec<(PageKey, FragBuf)>>,
    /// Next page to stream.
    cursor: usize,
    /// Committed epoch the base image corresponds to.
    base_epoch: u64,
    /// Agent CPU charged at begin (metadata receive), carried into the
    /// first step's accounting.
    cpu_carry: Nanos,
}

/// The k-of-n placement engine (see the module docs).
pub struct PlacementEngine {
    core: StageCore,
    codec: ShardCodec,
    replicas: Vec<Replica>,
    /// Page keys of each not-yet-committed epoch (drained at commit). While
    /// a repair is active, committed keys accumulate in `redirty` so the
    /// repaired replica can be topped up to the current committed state.
    epoch_keys: BTreeMap<u64, Vec<(Pid, u64)>>,
    /// Keys committed while the active repair streamed its base image.
    redirty: HashSet<(Pid, u64)>,
    repair: Option<ActiveRepair>,
    /// Test hook: once this many log chunks were shipped, later chunks and
    /// the seal vanish in flight. (Each chunk is erasure-coded into n
    /// fragments of `ceil(bytes/k)` and fanned out like epoch pages; the
    /// store holds the logical log — checkpoint already refuses below
    /// quorum, so a stored chunk is always decodable from the survivors.)
    pub log_fail_after_chunks: Option<u64>,
    /// Test hook: the designated replica's ingest stage crashes once at this
    /// chunk index of a pipelined fan-out and replays it from the upstream
    /// queue (received twice, applied once).
    pub stage_fail_at_chunk: Option<u64>,
}

impl std::fmt::Debug for PlacementEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementEngine")
            .field("codec", &self.codec)
            .field("alive", &self.alive_replicas())
            .finish()
    }
}

/// Erasure-code `pages` and hand fragment `i` of each page to alive replica
/// `i`'s open assembly as one chunk, adding each replica's receive CPU to
/// `per_cpu[i]`. Every epoch path — whole-epoch, pipelined, bootstrap —
/// stripes through here.
fn fan_out(
    replicas: &mut [Replica],
    codec: &ShardCodec,
    epoch: u64,
    pages: &[(Pid, u64, PageBuf)],
    per_cpu: &mut [Nanos],
) -> SimResult<()> {
    let mut batches: Vec<Vec<Fragment>> = replicas
        .iter()
        .map(|r| Vec::with_capacity(if r.alive { pages.len() } else { 0 }))
        .collect();
    for (pid, vpn, data) in pages {
        for (i, batch) in batches.iter_mut().enumerate() {
            if replicas[i].alive {
                batch.push((*pid, *vpn, codec.encode_fragment(data, i)));
            }
        }
    }
    for (i, batch) in batches.into_iter().enumerate() {
        if replicas[i].alive {
            per_cpu[i] += replicas[i].agent.ingest_fragments(epoch, batch)?;
        }
    }
    Ok(())
}

/// Commit `epoch` on replica `i` — into the harness's backup kernel's device
/// for the designated replica 0, into the replica's own otherwise.
fn commit_replica(
    replicas: &mut [Replica],
    i: usize,
    epoch: u64,
    backup: &mut Kernel,
) -> SimResult<Nanos> {
    let r = &mut replicas[i];
    let disk = if i == 0 {
        &mut backup.vfs.disk
    } else {
        &mut r.disk
    };
    r.agent.commit(epoch, disk)
}

impl PlacementEngine {
    /// New engine for `opts.backups` replicas with quorum `opts.quorum`.
    /// Requires the staged transfer path and composes with neither the
    /// delta nor the COW extension ([`OptimizationConfig::validate`], whose
    /// placement rules are keyed on `backups > 1`: the degenerate (1,1)
    /// placement is a test seam no knob selects).
    pub fn new(opts: OptimizationConfig, costs: CostModel) -> SimResult<Self> {
        opts.validate()?;
        Ok(PlacementEngine {
            codec: ShardCodec::new(opts.quorum, opts.backups)?,
            replicas: (0..opts.backups)
                .map(|_| Replica::new(&costs, &opts))
                .collect(),
            core: StageCore::new(opts, costs),
            epoch_keys: BTreeMap::new(),
            redirty: HashSet::new(),
            repair: None,
            log_fail_after_chunks: None,
            stage_fail_at_chunk: None,
        })
    }

    /// Active optimization set.
    pub fn opts(&self) -> OptimizationConfig {
        self.core.opts
    }

    /// Bytes of one page fragment as stored per replica.
    pub fn frag_len(&self) -> usize {
        self.codec.frag_len()
    }

    /// Replicas currently alive.
    pub fn alive_replicas(&self) -> u32 {
        self.replicas.iter().filter(|r| r.alive).count() as u32
    }

    /// Mark replica `i` dead (test hook; the harness designates replica 0
    /// via [`Checkpointer::replica_fault`]).
    pub fn fail_replica(&mut self, i: usize) -> SimResult<()> {
        let r = self
            .replicas
            .get_mut(i)
            .ok_or_else(|| SimError::Invalid(format!("no replica {i}")))?;
        r.alive = false;
        Ok(())
    }

    /// Total fragment payload bytes currently stored across alive replicas
    /// (`stored pages × frag_len`, summed) — the memory-overhead metric of
    /// the (k, n) sweep.
    pub fn stored_fragment_bytes(&self) -> u64 {
        self.replicas
            .iter()
            .filter(|r| r.alive)
            .map(|r| r.agent.stored_pages() as u64 * self.codec.frag_len() as u64)
            .sum()
    }

    fn alive_indices(&self) -> Vec<usize> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.alive)
            .map(|(i, _)| i)
            .collect()
    }

    /// The committed fragment lists of the replicas `pick`, sorted by key
    /// and checked to hold the same keys.
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

    /// One page from `k` of its fragments (`(replica index, bytes)`). With
    /// `k = 1` the fragment is the page and its buffer is handed over as is.
    fn decode_page(codec: &mut ShardCodec, frags: &[(usize, &FragBuf)]) -> SimResult<PageBuf> {
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

    /// Reconstruct the committed image byte-identically from the fragment
    /// stores of exactly `k` distinct replicas. This is the failover path's
    /// core and directly testable: any k-subset must produce the same image.
    pub fn reconstruct_committed(&mut self, replicas: &[usize]) -> SimResult<CheckpointImage> {
        let k = self.codec.k() as usize;
        if replicas.len() != k {
            return Err(SimError::Invalid(format!(
                "reconstruction needs exactly k={k} replicas, got {}",
                replicas.len()
            )));
        }
        let lists = Self::committed_fragments(&self.replicas, replicas)?;
        // Metadata, sockets, and fs state replicate in full on every
        // replica; adopt the first one's and decode only the pages.
        let mut out = self.replicas[replicas[0]].agent.materialize()?;
        let mut frags = Vec::with_capacity(k);
        for (p, &(key, _)) in lists[0].iter().enumerate() {
            frags.clear();
            frags.extend(replicas.iter().zip(&lists).map(|(&i, list)| (i, list[p].1)));
            let page = Self::decode_page(&mut self.codec, &frags)?;
            out.pages.push((key.pid, key.vpn, page));
        }
        Ok(out)
    }

    /// CPU to decode one page from k fragments and re-encode one of its own.
    fn recode_per_page(&self) -> Nanos {
        self.core.costs.shard_decode_per_page + self.core.costs.shard_encode_per_page
    }

    /// First `count` alive replica indices, erroring below the quorum.
    fn survivors(&self, count: usize) -> SimResult<Vec<usize>> {
        let alive = self.alive_indices();
        if alive.len() < count {
            return Err(SimError::Invalid(format!(
                "placement below quorum: {} alive, need {count}",
                alive.len()
            )));
        }
        Ok(alive[..count].to_vec())
    }
}

impl Checkpointer for PlacementEngine {
    fn name(&self) -> &'static str {
        "Placement"
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.core.tracer = tracer;
    }

    fn inject_stage_fail(&mut self, chunk: u64) {
        self.stage_fail_at_chunk = Some(chunk);
    }

    fn prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        self.core.prepare(primary, container)
    }

    fn checkpoint(
        &mut self,
        primary: &mut Kernel,
        _backup: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<CheckpointOutcome> {
        let k = self.codec.k() as usize;
        let alive = self.alive_indices();
        if alive.len() < k {
            return Err(SimError::Invalid(format!(
                "cannot checkpoint below quorum: {} alive, need {k}",
                alive.len()
            )));
        }
        let stopped = self.core.stop_phase(primary, container, epoch, None)?;
        let (mut img, msgs) = (stopped.img, stopped.msgs);
        let dirty_pages = img.stats.dirty_pages;
        let meta_msgs = img.transfer_chunks() + msgs.len() as u64;

        // --- Shard encode + parallel fan-out (ack path) ------------------
        // The container is already running. Erasure-code each dirty page
        // into n fragments and ship fragment i to replica i behind the
        // assembly barrier. All replica links run in parallel.
        let pages = std::mem::take(&mut img.pages);
        // What is left is metadata every replica receives whole: one image,
        // shared, not a copy per replica.
        let img = Rc::new(img);
        let n_pages = pages.len() as u64;
        let frag_len = self.codec.frag_len() as u64;
        let frag_bytes = n_pages * frag_len;
        let meta_bytes = img.state_bytes() + stopped.drbd_bytes;
        let state_bytes = meta_bytes + frag_bytes;

        self.epoch_keys.insert(
            epoch,
            pages.iter().map(|&(pid, vpn, _)| (pid, vpn)).collect(),
        );

        let costs = &primary.costs;
        let link = costs.repl_link_latency;
        let first_alive = alive[0];
        let mut per_cpu: Vec<Nanos> = vec![0; self.replicas.len()];
        for &i in &alive {
            per_cpu[i] = self.replicas[i].agent.begin_assembly(img.clone(), n_pages);
        }
        let pipelined = self.core.opts.pipeline;
        let transfer = if pipelined {
            // Staged pipeline: each chunk is erasure-coded and striped to all
            // alive replicas as soon as it is encoded, the shard-encode stage
            // a bounded queue ahead of the (parallel) links. The per-replica
            // assembly barrier still gates the ack, so the committed fragment
            // stores are byte-identical to the whole-epoch fan-out.
            let meta_ser = self.core.transfer_cost(primary, meta_bytes, meta_msgs) - link;
            let mut clock = ChunkClock::new(self.core.tracer.clone(), meta_ser, true);
            for chunk in pages.chunks(CHUNK_PAGES) {
                let n = chunk.len() as u64;
                // One chunk's wire time is a single fragment batch.
                clock.send(
                    n * costs.shard_encode_per_page,
                    costs.repl_wire(n * frag_len) + costs.repl_msg_overhead,
                );
                let before = per_cpu[first_alive];
                fan_out(&mut self.replicas, &self.codec, epoch, chunk, &mut per_cpu)?;
                // An ingest-stage crash hits the designated replica.
                per_cpu[first_alive] +=
                    clock.replayed(&mut self.stage_fail_at_chunk, per_cpu[first_alive] - before);
            }
            clock.sent() + link
        } else {
            fan_out(&mut self.replicas, &self.codec, epoch, &pages, &mut per_cpu)?;
            self.core.transfer_cost(primary, state_bytes, meta_msgs)
        };
        // Striped: the fan-out used what spare fragments it could, and the
        // dumped pages are the next stop phase's buffers.
        end_fragment_round();
        for (_, _, page) in pages {
            recycle_page(page);
        }
        for &i in &alive {
            let agent = &mut self.replicas[i].agent;
            agent.finish_assembly(epoch)?;
            per_cpu[i] += agent.ingest_drbd(msgs.clone());
        }
        let ingest_one = per_cpu[first_alive];
        let shard_commit = TraceEvent::ShardCommit {
            shards: self.codec.n(),
            pages: n_pages,
            frag_bytes,
        };
        let tracer = &self.core.tracer;
        let shard_cpu = if pipelined {
            // Shard encode moved to a background stage: the marker keeps the
            // fan-out observable while Transfer + BackupIngest + Ack tile
            // the ack delay.
            tracer.mark(shard_commit);
            0
        } else {
            let shard_cpu = n_pages * costs.shard_encode_per_page;
            tracer.span(shard_commit, shard_cpu);
            shard_cpu
        };
        tracer.span(TraceEvent::Transfer { bytes: state_bytes }, transfer);
        tracer.span(TraceEvent::BackupIngest { probes: 0 }, ingest_one);
        tracer.span(TraceEvent::Ack, link);
        let ack_delay = shard_cpu + transfer + ingest_one + link;
        self.core.stage_backlog(ack_delay);

        Ok(CheckpointOutcome {
            stop_time: stopped.stop_time,
            state_bytes,
            dirty_pages,
            ack_delay,
            backup_cpu: per_cpu.iter().sum(),
        })
    }

    fn pipeline_advance(&mut self, elapsed: Nanos) {
        self.core.pipeline_advance(elapsed);
    }

    fn commit(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        self.core.prune_logs(epoch);
        let mut cpu: Nanos = 0;
        let mut marked = false;
        for i in self.alive_indices() {
            cpu += commit_replica(&mut self.replicas, i, epoch, backup)?;
            if !marked && self.core.tracer.enabled() {
                let (probes, disk_pages) = self.replicas[i].agent.last_commit_stats();
                self.core
                    .tracer
                    .mark(TraceEvent::BackupCommit { probes, disk_pages });
                marked = true;
            }
        }
        // Track what the active repair's base image now misses.
        let later = self.epoch_keys.split_off(&(epoch + 1));
        let committed = std::mem::replace(&mut self.epoch_keys, later);
        if self.repair.is_some() {
            self.redirty.extend(committed.into_values().flatten());
        }
        Ok(cpu)
    }

    fn failover(&mut self, backup: &mut Kernel) -> SimResult<(RestoredContainer, FailoverReport)> {
        let k = self.codec.k() as usize;
        for r in self.replicas.iter_mut().filter(|r| r.alive) {
            r.agent.discard_uncommitted();
        }
        StageCore::release_spare_buffers();
        let survivors = self.survivors(k)?;
        let img = self.reconstruct_committed(&survivors)?;
        let (restored, mut report) = self.core.restore(backup, &img)?;
        if k > 1 {
            report.others += img.pages.len() as u64 * backup.costs.shard_decode_per_page;
        }

        // If the designated replica (whose disk IS the backup kernel's) is
        // dead, resync the kernel disk from a surviving replica's device.
        if !self.replicas[0].alive {
            let src = survivors
                .iter()
                .copied()
                .find(|&i| i != 0)
                .or_else(|| self.alive_indices().into_iter().find(|&i| i != 0))
                .ok_or_else(|| {
                    SimError::Invalid("no surviving replica disk to resync from".into())
                })?;
            for w in self.replicas[src].disk.full_sync_writes() {
                backup.vfs.disk.apply_replicated(&w);
                report.disk_pages_committed += 1;
            }
            report.others += report.disk_pages_committed * backup.costs.restore_disk_per_page;
        }
        Ok((restored, report))
    }

    fn committed_epoch(&self) -> Option<u64> {
        self.replicas
            .iter()
            .filter(|r| r.alive)
            .filter_map(|r| r.agent.committed_epoch())
            .max()
    }

    fn supports_rearm(&self) -> bool {
        self.core.opts.rearm
    }

    fn rearm_prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        // Every replica-side structure restarts empty on fresh hosts.
        for r in &mut self.replicas {
            *r = Replica::new(&self.core.costs, &self.core.opts);
        }
        self.epoch_keys.clear();
        self.redirty.clear();
        self.repair = None;
        self.core.rearm(primary, container)
    }

    fn bootstrap_begin(
        &mut self,
        primary: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<BootstrapBegin> {
        let (img, msgs, begin) = self.core.bootstrap_stop(primary, container, epoch)?;
        let img = Rc::new(img);
        let mut cpu: Nanos = 0;
        for r in self.replicas.iter_mut().filter(|r| r.alive) {
            cpu += r.agent.begin_assembly(img.clone(), begin.total_pages);
            cpu += r.agent.ingest_drbd(msgs.clone());
        }
        self.core.bootstrap_cpu_carry = cpu;
        Ok(begin)
    }

    fn bootstrap_step(
        &mut self,
        primary: &mut Kernel,
        epoch: u64,
        max_pages: u64,
    ) -> SimResult<BootstrapStep> {
        let page_wire_bytes = self.codec.frag_len() as u64 * self.alive_replicas() as u64;
        let encode_per_page = primary.costs.shard_encode_per_page;
        let (replicas, codec) = (&mut self.replicas, &self.codec);
        self.core
            .bootstrap_drain(primary, max_pages, page_wire_bytes, |chunk| {
                let mut per_cpu: Vec<Nanos> = vec![0; replicas.len()];
                fan_out(replicas, codec, epoch, &chunk, &mut per_cpu)?;
                Ok(chunk.len() as u64 * encode_per_page + per_cpu.iter().sum::<Nanos>())
            })
    }

    fn bootstrap_finish(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        let mut cpu: Nanos = 0;
        for i in self.alive_indices() {
            let agent = &mut self.replicas[i].agent;
            agent.finish_assembly(epoch)?;
            if !agent.epoch_complete(epoch) {
                return Err(SimError::Invalid(format!(
                    "bootstrap epoch {epoch} sealed without its disk barrier on replica {i}"
                )));
            }
            cpu += commit_replica(&mut self.replicas, i, epoch, backup)?;
        }
        self.core.bootstrap_done();
        Ok(cpu)
    }

    fn bootstrap_abort(&mut self, primary: &mut Kernel, _container: &Container) -> SimResult<()> {
        self.core.bootstrap_unwind(primary)?;
        for r in self.replicas.iter_mut().filter(|r| r.alive) {
            let _ = r.agent.discard_uncommitted();
        }
        Ok(())
    }

    fn supports_placement(&self) -> bool {
        self.core.opts.backups > 1
    }

    fn placement(&self) -> (u32, u32) {
        (self.codec.k(), self.codec.n())
    }

    fn replica_fault(&mut self) -> SimResult<u32> {
        self.replicas[0].alive = false;
        Ok(self.alive_replicas())
    }

    fn repair_begin(&mut self, _epoch: u64) -> SimResult<RepairBegin> {
        if self.repair.is_some() {
            return Err(SimError::Invalid("a repair is already active".into()));
        }
        let target = self
            .replicas
            .iter()
            .position(|r| !r.alive)
            .ok_or_else(|| SimError::Invalid("repair_begin with no dead replica".into()))?;
        let survivors = self.survivors(self.codec.k() as usize)?;
        // The survivors' fragment buffers, not decoded pages: the snapshot
        // shares them, and each step decodes only the chunk it streams.
        let base: Vec<Vec<(PageKey, FragBuf)>> =
            Self::committed_fragments(&self.replicas, &survivors)?
                .into_iter()
                .map(|list| list.into_iter().map(|(key, f)| (key, f.clone())).collect())
                .collect();
        let meta = self.replicas[survivors[0]].agent.materialize()?;
        let base_epoch = meta.epoch;
        let total_pages = base[0].len() as u64;
        let state_bytes = meta.state_bytes();

        // Fresh agent on the replacement host; the base image's metadata
        // opens its assembly (sealed by `repair_finish`). Epochs committed
        // while the base streams accumulate in `redirty` and are topped up
        // at finish — the target is excluded from epoch traffic until then.
        self.replicas[target].agent =
            BackupAgent::new(self.core.costs.clone(), self.core.opts.optimize_criu);
        self.replicas[target].disk = BlockDevice::default();
        let cpu_carry = self.replicas[target]
            .agent
            .begin_assembly(meta, total_pages);
        self.redirty.clear();
        self.repair = Some(ActiveRepair {
            target,
            survivors,
            base,
            cursor: 0,
            base_epoch,
            cpu_carry,
        });
        Ok(RepairBegin {
            total_pages,
            state_bytes,
        })
    }

    fn repair_step(&mut self, _epoch: u64, max_pages: u64) -> SimResult<BootstrapStep> {
        let Some(mut rep) = self.repair.take() else {
            return Err(SimError::Invalid("repair_step with no active repair".into()));
        };
        let total = rep.base[0].len();
        let take = ((total - rep.cursor) as u64).min(max_pages) as usize;
        let mut batch = Vec::with_capacity(take);
        let mut frags = Vec::with_capacity(rep.survivors.len());
        for p in rep.cursor..rep.cursor + take {
            frags.clear();
            frags.extend(
                rep.survivors
                    .iter()
                    .zip(&rep.base)
                    .map(|(&i, list)| (i, &list[p].1)),
            );
            let page = Self::decode_page(&mut self.codec, &frags)?;
            let key = rep.base[0][p].0;
            batch.push((
                key.pid,
                key.vpn,
                self.codec.encode_fragment(&page, rep.target),
            ));
        }
        rep.cursor += take;
        let k = self.codec.k() as u64;
        let frag_len = self.codec.frag_len() as u64;
        let pages = take as u64;
        // The replacement host reads k committed fragments per page from
        // the surviving peers (the RS repair read amplification), decodes,
        // and re-encodes its own fragment.
        let bytes = pages * frag_len * k;
        let mut backup_cpu = std::mem::take(&mut rep.cpu_carry) + pages * self.recode_per_page();
        backup_cpu += self.replicas[rep.target]
            .agent
            .ingest_fragments(rep.base_epoch, batch)?;
        let remaining = (total - rep.cursor) as u64;
        self.repair = Some(rep);
        Ok(BootstrapStep {
            pages,
            bytes,
            backup_cpu,
            remaining,
        })
    }

    fn repair_finish(&mut self, backup: &mut Kernel, _epoch: u64) -> SimResult<Nanos> {
        let Some(rep) = self.repair.take() else {
            return Err(SimError::Invalid("repair_finish with no active repair".into()));
        };
        if rep.cursor < rep.base[0].len() {
            self.repair = Some(rep);
            return Err(SimError::Invalid("repair base image not fully streamed".into()));
        }
        let target = rep.target;

        // Disk resync: one full-device snapshot from a surviving replica,
        // current as of the latest committed epoch, rides the target's DRBD
        // stream behind the base epoch's barrier.
        let src = self
            .alive_indices()
            .into_iter()
            .find(|&i| i != target && i != 0)
            .map(|i| self.replicas[i].disk.full_sync_writes())
            .unwrap_or_else(|| backup.vfs.disk.full_sync_writes());
        let mut msgs: Vec<DrbdMsg> = src.into_iter().map(DrbdMsg::Write).collect();
        msgs.push(DrbdMsg::Barrier(rep.base_epoch));

        let mut cpu: Nanos = 0;
        {
            let agent = &mut self.replicas[target].agent;
            cpu += agent.ingest_drbd(msgs);
            agent.finish_assembly(rep.base_epoch)?;
        }
        cpu += commit_replica(&mut self.replicas, target, rep.base_epoch, backup)?;

        // Top-up: pages committed while the base streamed, at their current
        // committed values, plus the current metadata image. Only those
        // keys are read back from the survivors and decoded.
        if !self.redirty.is_empty() {
            let survivors = self.survivors(self.codec.k() as usize)?;
            let meta = self.replicas[survivors[0]].agent.materialize()?;
            let cur_epoch = meta.epoch;
            if cur_epoch <= rep.base_epoch {
                return Err(SimError::Invalid(format!(
                    "redirty pages with no later committed epoch ({cur_epoch} <= {})",
                    rep.base_epoch
                )));
            }
            let mut keys: Vec<(Pid, u64)> = self.redirty.iter().copied().collect();
            keys.sort_unstable();
            let mut batch = Vec::with_capacity(keys.len());
            let mut frags = Vec::with_capacity(survivors.len());
            for (pid, vpn) in keys {
                frags.clear();
                for &i in &survivors {
                    let frag = self.replicas[i].agent.fragment(PageKey { pid, vpn });
                    frags.push((
                        i,
                        frag.ok_or_else(|| {
                            SimError::Invalid(format!(
                                "replica {i} holds no fragment of committed page {pid:?}/{vpn:#x}"
                            ))
                        })?,
                    ));
                }
                let page = Self::decode_page(&mut self.codec, &frags)?;
                batch.push((pid, vpn, self.codec.encode_fragment(&page, target)));
            }
            let n = batch.len() as u64;
            cpu += n * self.recode_per_page();
            {
                let agent = &mut self.replicas[target].agent;
                cpu += agent.begin_assembly(meta, n);
                cpu += agent.ingest_fragments(cur_epoch, batch)?;
                cpu += agent.ingest_drbd(vec![DrbdMsg::Barrier(cur_epoch)]);
                agent.finish_assembly(cur_epoch)?;
            }
            cpu += commit_replica(&mut self.replicas, target, cur_epoch, backup)?;
        }
        self.redirty.clear();
        self.replicas[target].alive = true;
        Ok(cpu)
    }

    fn repair_abort(&mut self) -> SimResult<()> {
        let Some(rep) = self.repair.take() else {
            return Err(SimError::Invalid("repair_abort with no active repair".into()));
        };
        // The replacement host died with its half-regenerated store; the
        // target stays dead until a later attempt rebuilds it from scratch.
        let _ = self.replicas[rep.target].agent.discard_uncommitted();
        self.redirty.clear();
        Ok(())
    }

    fn supports_replay(&self) -> bool {
        self.core.opts.hybrid_replay
    }

    fn ship_log(
        &mut self,
        primary: &mut Kernel,
        epoch: u64,
        events: &[ReplayEvent],
    ) -> SimResult<LogShipOutcome> {
        let placement = (self.codec.k() as u64, self.alive_replicas() as u64);
        let fail_after = self.log_fail_after_chunks;
        self.core
            .logs()?
            .ship(&primary.costs, epoch, events, placement, fail_after)
    }

    fn seal_log(&mut self, epoch: u64) -> SimResult<()> {
        let fail_after = self.log_fail_after_chunks;
        self.core.logs()?.seal(epoch, fail_after);
        Ok(())
    }

    fn take_replay_tail(&mut self) -> SimResult<ReplayTail> {
        let committed = self.committed_epoch();
        Ok(self.core.logs()?.take_tail(committed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nilicon_engine::NiLiConEngine;
    use crate::trace::TraceRecord;
    use nilicon_container::{ContainerRuntime, ContainerSpec, MemLayout};

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
        let costs = nilicon_sim::CostModel::default();
        let mut opts = placement_opts(2, 3);
        opts.staging_buffer = false;
        assert!(PlacementEngine::new(opts, costs.clone()).is_err());
        let mut opts = placement_opts(2, 3);
        opts.delta_transfer = true;
        assert!(PlacementEngine::new(opts, costs.clone()).is_err());
        assert!(PlacementEngine::new(placement_opts(4, 3), costs.clone()).is_err());
        assert!(PlacementEngine::new(placement_opts(0, 2), costs).is_err());
    }

    #[test]
    fn epochs_commit_and_reconcile_across_placements() {
        for (k, n) in [(1u32, 2u32), (2, 3), (3, 5)] {
            let (mut p, mut b, c, mut e) = setup(k, n);
            let (tracer, ring) = Tracer::in_memory(256);
            e.set_tracer(tracer.clone());
            e.prepare(&mut p, &c).unwrap();
            for epoch in 1..=3u64 {
                apply(&mut p, &c, epoch);
                tracer.begin_epoch(epoch, 0);
                let o = e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
                tracer.reconcile(epoch, o.stop_time, o.ack_delay).unwrap();
                assert!(o.ack_delay > 0, "staged ack path");
                e.commit(&mut b, epoch).unwrap();
            }
            assert_eq!(e.committed_epoch(), Some(3), "(k={k},n={n})");
            let shard_spans = ring
                .snapshot()
                .iter()
                .filter(|r| matches!(r.kind, TraceEvent::ShardCommit { .. }))
                .count();
            assert_eq!(shard_spans, 3, "one ShardCommit span per epoch");
        }
    }

    #[test]
    fn any_k_subset_reconstructs_identical_image() {
        let (mut p, mut b, c, mut e) = setup(2, 3);
        e.prepare(&mut p, &c).unwrap();
        for epoch in 1..=4u64 {
            apply(&mut p, &c, epoch);
            e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
            e.commit(&mut b, epoch).unwrap();
        }
        let ref_img = e.reconstruct_committed(&[0, 1]).unwrap();
        assert!(!ref_img.pages.is_empty());
        for subset in [[0usize, 2], [1, 2]] {
            let img = e.reconstruct_committed(&subset).unwrap();
            assert_eq!(img.pages.len(), ref_img.pages.len());
            for (a, r) in img.pages.iter().zip(ref_img.pages.iter()) {
                assert_eq!((a.0, a.1), (r.0, r.1));
                assert_eq!(a.2, r.2, "page {:?}/{:#x} from {subset:?}", a.0, a.1);
            }
        }
    }

    #[test]
    fn placement_image_matches_single_backup_nilicon() {
        // The committed image reconstructed from shards must be
        // byte-identical to the image a plain NiLiCon warm backup holds
        // after the same writes.
        let mut opts = OptimizationConfig::nilicon();
        let mut pa = Kernel::default();
        let mut ba = Kernel::default();
        let ca =
            ContainerRuntime::create(&mut pa, &ContainerSpec::server("redis", 10, 6379)).unwrap();
        let mut ea = NiLiConEngine::new(opts, pa.costs.clone());
        ea.prepare(&mut pa, &ca).unwrap();
        for epoch in 1..=5u64 {
            apply(&mut pa, &ca, epoch);
            ea.checkpoint(&mut pa, &mut ba, &ca, epoch).unwrap();
            ea.commit(&mut ba, epoch).unwrap();
        }
        let img_a = ea.agent.materialize().unwrap();

        opts.backups = 3;
        opts.quorum = 2;
        let mut pb = Kernel::default();
        let mut bb = Kernel::default();
        let cb =
            ContainerRuntime::create(&mut pb, &ContainerSpec::server("redis", 10, 6379)).unwrap();
        let mut eb = PlacementEngine::new(opts, pb.costs.clone()).unwrap();
        eb.prepare(&mut pb, &cb).unwrap();
        for epoch in 1..=5u64 {
            apply(&mut pb, &cb, epoch);
            eb.checkpoint(&mut pb, &mut bb, &cb, epoch).unwrap();
            eb.commit(&mut bb, epoch).unwrap();
        }
        let img_b = eb.reconstruct_committed(&[1, 2]).unwrap();

        assert_eq!(img_a.pages.len(), img_b.pages.len());
        for (x, y) in img_a.pages.iter().zip(img_b.pages.iter()) {
            assert_eq!((x.0, x.1), (y.0, y.1));
            assert_eq!(x.2, y.2, "page {:?}/{:#x} diverged", x.0, x.1);
        }
        assert_eq!(pa.vfs.disk.digest(), pb.vfs.disk.digest());
        assert_eq!(ba.vfs.disk.digest(), bb.vfs.disk.digest());
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
                tracer.reconcile(epoch, o.stop_time, o.ack_delay).unwrap();
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
                (30, 0),
                "striped pages wait for the next dump; the fan-out's end frees fragments"
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
        // those keys forward.
        let (mut p, _b, c, mut e) = run_epochs(placement_opts(2, 3), 3);
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
        assert!(!e.redirty.is_empty(), "pages were re-dirtied mid-stream");
        e.repair_finish(&mut fresh, epoch).unwrap();

        let (_, _, _, never_failed) = run_epochs(placement_opts(2, 3), epoch);
        assert_eq!(e.committed_epoch(), never_failed.committed_epoch());
        for i in 0..3 {
            assert!(stored(&e, i) == stored(&never_failed, i), "replica {i}");
        }
        let a = e.replicas[0].agent.materialize().unwrap();
        let b = never_failed.replicas[0].agent.materialize().unwrap();
        assert_eq!(a.epoch, b.epoch, "top-up carried the current metadata");
    }

    /// Commit `frags` as epoch `epoch` on one replica only, behind its back.
    fn inject(e: &mut PlacementEngine, replica: usize, epoch: u64, frags: Vec<Fragment>) {
        let agent = &mut e.replicas[replica].agent;
        let mut meta = agent.materialize().unwrap();
        meta.epoch = epoch;
        agent.begin_assembly(meta, frags.len() as u64);
        agent.ingest_fragments(epoch, frags).unwrap();
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
    fn top_up_of_a_page_a_survivor_lacks_is_an_error() {
        let (mut p, _b, c, mut e) = run_epochs(placement_opts(2, 3), 2);
        e.replica_fault().unwrap();
        let mut fresh = Kernel::default();
        e.repair_begin(2).unwrap();
        apply(&mut p, &c, 3);
        e.checkpoint(&mut p, &mut fresh, &c, 3).unwrap();
        e.commit(&mut fresh, 3).unwrap();
        while e.repair_step(3, 64).unwrap().remaining > 0 {}
        e.redirty.insert((c.init_pid(), 0xdead));
        let err = e.repair_finish(&mut fresh, 3).unwrap_err();
        assert!(matches!(err, SimError::Invalid(_)), "got {err:?}");
    }
}
