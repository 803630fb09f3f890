//! The replication engine (§III–V, Fig. 2): one primary agent over a set of
//! backup agents, generic over how a checkpoint is laid out on them.
//!
//! [`Engine`] owns the stage core (`stages.rs`), the replica set — the
//! paper's single backup is `n = k = 1` — the three test hooks, and its
//! layout; it carries the only [`Checkpointer`] impl among the NiLiCon
//! engines. Where the two layouts differ the engine looks at which one it
//! holds ([`Layout::view`], resolved at compile time): what a chunk carries,
//! where it lands, how the committed image comes back. [`NiLiConEngine`] is
//! the [`Mirror`] layout (this file): whole pages or XOR deltas into the one
//! agent, synchronously, off the COW drain, or through the staged pipeline.
//! [`PlacementEngine`](crate::PlacementEngine) is the [`Coded`] layout
//! (`placement.rs`): `frag_len` fragments fanned out to `n` agents, decoded
//! from any `k`.

use crate::backup::BackupAgent;
use crate::config::OptimizationConfig;
use crate::engine::{
    no_placement, BootstrapBegin, BootstrapStep, CheckpointOutcome, Checkpointer, FailoverReport,
    LogShipOutcome, RepairBegin, ReplayTail,
};
use crate::placement::Coded;
use crate::stages::{
    ack_spans, alive_indices, commit_replica, committed_epoch, deferred_pids, delta_event,
    open_assemblies, survivors, ChunkClock, Replica, StageCore, Stopped, CHUNK_PAGES,
};
use crate::trace::{TraceEvent, Tracer};
use nilicon_container::Container;
use nilicon_criu::{
    encode_against, end_fragment_round, DeltaStats, PageEncoding, PageKey, PageStore,
    RestoredContainer,
};
use nilicon_sim::ids::Pid;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::mem::ALL_LINES;
use nilicon_sim::replay::ReplayEvent;
use nilicon_sim::time::Nanos;
use nilicon_sim::{CostModel, PageBuf, SimError, SimResult, PAGE_SIZE};
use std::ops::{Deref, DerefMut};

/// The replication engine: the primary-side agent plus its buffered backup
/// replicas, laid out by `L`. Named through its two constructors,
/// [`NiLiConEngine::new`] and
/// [`PlacementEngine::new`](crate::PlacementEngine::new).
pub struct Engine<L> {
    name: &'static str,
    pub(crate) core: StageCore,
    /// The replica set. Dereferencing the engine gives the designated
    /// replica 0, so `engine.agent` is the paper's backup agent.
    pub(crate) replicas: Vec<Replica>,
    /// Replicas whose stores it takes to bring the committed image back.
    quorum: u32,
    pub(crate) layout: L,
    /// Test-only fault injection: abort the COW drain after this many page
    /// chunks have been streamed, as if the primary died mid-copy. The
    /// epoch's assembly is never finished at the backup, so it can never be
    /// acked or committed — failover must fall back to the previous epoch.
    pub cow_fail_after_chunks: Option<u64>,
    /// Test-only fault injection: the primary dies after shipping this many
    /// log chunks — later chunks (and the seal message) are lost in flight,
    /// leaving the tail epoch's log *partial*. Failover must then take the
    /// plain last-checkpoint fallback instead of replaying. (A chunk is
    /// coded and fanned out like epoch pages; the store holds the logical
    /// log — checkpoint refuses below quorum, so a stored chunk is always
    /// decodable from the survivors.)
    pub log_fail_after_chunks: Option<u64>,
    /// Test-only fault injection (streamed transfers): the designated
    /// replica's ingest stage crashes once, right after receiving this
    /// zero-based chunk index. The supervisor restarts the stage and the
    /// chunk replays from the upstream queue (peek-before-commit): its
    /// receive CPU is charged twice, but the assembly is mutated exactly
    /// once — no lost or duplicated chunk.
    pub stage_fail_at_chunk: Option<u64>,
}

/// The paper's engine: one warm backup holding whole pages.
pub type NiLiConEngine = Engine<Mirror>;

/// The paper's layout: one backup agent holding whole pages, sent whole or
/// as XOR deltas against the pages it has committed.
#[derive(Default)]
pub struct Mirror {
    /// The chunk being staged: whole pages, or encodings and their
    /// classification stats for the epoch so far.
    pages: Vec<(Pid, u64, PageBuf)>,
    deltas: Vec<(Pid, u64, PageEncoding)>,
    bytes: u64,
    dstats: DeltaStats,
}

/// Which layout an engine holds.
pub enum View<'a> {
    /// The paper's single mirror.
    Mirror(&'a mut Mirror),
    /// A k-of-n erasure-coded placement.
    Coded(&'a mut Coded),
}

/// An engine's layout. The set is closed — [`Mirror`] and [`Coded`] — and the
/// engine branches on [`Layout::view`] where they differ; each engine type
/// holds one layout for good, so the branch is decided when it is compiled.
pub trait Layout {
    /// This layout, as the variant it is.
    fn view(&mut self) -> View<'_>;
}

impl Layout for Mirror {
    fn view(&mut self) -> View<'_> {
        View::Mirror(self)
    }
}

impl<L> std::fmt::Debug for Engine<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (k, n) = (self.quorum, self.replicas.len());
        write!(f, "{} ({k},{n}) {:?}", self.name, self.replicas[0].agent)
    }
}

impl<L> Deref for Engine<L> {
    type Target = Replica;
    fn deref(&self) -> &Replica {
        &self.replicas[0]
    }
}

impl<L> DerefMut for Engine<L> {
    fn deref_mut(&mut self) -> &mut Replica {
        &mut self.replicas[0]
    }
}

impl NiLiConEngine {
    /// New engine. The backup page store follows
    /// [`OptimizationConfig::optimize_criu`] (radix tree vs linked list).
    ///
    /// # Panics
    /// With [`OptimizationConfig::validate`]'s message if `opts` is a fleet
    /// configuration with a knob the fleet does not run — the only rule
    /// that applies to this layout.
    pub fn new(opts: OptimizationConfig, costs: CostModel) -> Self {
        opts.validate_for(false).unwrap_or_else(|e| panic!("{e}"));
        Engine::assemble("NiLiCon", opts, costs, (1, 1), Mirror::default())
    }
}

impl<L> Engine<L> {
    /// `n` fresh replicas with quorum `k` under `layout`; the public
    /// constructors validate `opts` for their layout first.
    pub(crate) fn assemble(
        name: &'static str,
        opts: OptimizationConfig,
        costs: CostModel,
        (k, n): (u32, u32),
        layout: L,
    ) -> Self {
        Engine {
            name,
            replicas: (0..n).map(|_| Replica::new(&costs, &opts)).collect(),
            quorum: k,
            core: StageCore::new(opts, costs),
            layout,
            cow_fail_after_chunks: None,
            log_fail_after_chunks: None,
            stage_fail_at_chunk: None,
        }
    }

    /// Active optimization set.
    pub fn opts(&self) -> OptimizationConfig {
        self.core.opts
    }

    /// Replicas currently alive.
    pub fn alive_replicas(&self) -> u32 {
        self.replicas.iter().filter(|r| r.alive).count() as u32
    }

    /// Mark replica `i` dead (test hook; the harness designates replica 0
    /// via [`Checkpointer::replica_fault`]).
    pub fn fail_replica(&mut self, i: usize) -> SimResult<()> {
        let r = self.replicas.get_mut(i);
        r.ok_or_else(|| SimError::Invalid(format!("no replica {i}")))?
            .alive = false;
        Ok(())
    }
}

/// Where a streamed transfer's chunks come from.
enum Source<'a> {
    /// The COW copier: at most `budget` more of the pages write-protected at
    /// pause, lent where they lie, address space by address space.
    Drain { pids: &'a [Pid], budget: u64 },
    /// The eager dump's pages: immutable refcounted snapshots, so handling
    /// them after resume cannot race container writes.
    Snapshots(std::slice::Chunks<'a, (Pid, u64, PageBuf)>),
}

impl Source<'_> {
    /// Stage the next chunk into `layout` for the `alive` replicas, encoded
    /// against `base` if given; the pages staged, zero once the source is
    /// exhausted.
    fn fill<L: Layout>(
        &mut self,
        primary: &mut Kernel,
        layout: &mut L,
        alive: &[usize],
        base: Option<&dyn PageStore>,
    ) -> SimResult<u64> {
        match self {
            Source::Drain { pids, budget } => {
                while let Some((&pid, rest)) = pids.split_first() {
                    let want = (*budget).min(CHUNK_PAGES as u64) as usize;
                    if want == 0 {
                        break;
                    }
                    // A page the layout keeps whole shares the frame's
                    // buffer; an encoding layout reads the written lines.
                    let n = primary.cow_drain_with(pid, want, |vpn, page, lines| {
                        let key = PageKey { pid, vpn };
                        stage(layout, alive, base, key, page, lines, || page.clone())
                    })? as u64;
                    if n > 0 {
                        *budget = budget.saturating_sub(n);
                        return Ok(n);
                    }
                    *pids = rest;
                }
                Ok(0)
            }
            Source::Snapshots(chunks) => {
                let chunk = chunks.next().unwrap_or_default();
                for &(pid, vpn, ref data) in chunk {
                    let key = PageKey { pid, vpn };
                    stage(layout, alive, base, key, data, ALL_LINES, || data.clone());
                }
                Ok(chunk.len() as u64)
            }
        }
    }
}

/// Add one page to the chunk `layout` is building for the `alive` replicas.
/// The page is read where it lies — a frame the COW drain lends with its
/// written-line set `lines`, or a dumped snapshot; `whole` hands over the
/// buffer to keep, and is called at most once, only if the page is kept
/// whole.
/// The mirror encodes against the replica's committed store `base` where
/// one is given (never in a bootstrap: the replacement has no base to
/// patch); the coded layout builds each alive replica's fragment.
fn stage<L: Layout>(
    layout: &mut L,
    alive: &[usize],
    base: Option<&dyn PageStore>,
    key: PageKey,
    page: &[u8; PAGE_SIZE],
    lines: u64,
    whole: impl FnOnce() -> PageBuf,
) {
    match (layout.view(), base) {
        (View::Mirror(m), Some(store)) => {
            let old = store.get(key).map(|p| &**p);
            let enc = encode_against(old, page, lines, whole, &mut m.dstats);
            m.bytes += enc.encoded_bytes();
            m.deltas.push((key.pid, key.vpn, enc));
        }
        (View::Mirror(m), None) => {
            m.bytes += PAGE_SIZE as u64;
            m.pages.push((key.pid, key.vpn, whole()));
        }
        (View::Coded(c), _) => c.stage(alive, key, page),
    }
}

impl<L: Layout> Engine<L> {
    /// The coded layout with the rest of the engine beside it, or the refusal
    /// every placement-only method gives on the mirror.
    fn coded(&mut self) -> SimResult<(&mut Coded, &StageCore, &mut [Replica])> {
        match self.layout.view() {
            View::Coded(c) => Ok((c, &self.core, &mut self.replicas)),
            View::Mirror(_) => no_placement(),
        }
    }

    /// Send the `pages`-page chunk staged in the layout into `epoch`'s open
    /// assemblies, adding each replica's receive CPU to `per_cpu`. Returns
    /// the bytes one link carried (the replica links run in parallel) and
    /// what the background encode stage spent — the delta or the shard
    /// encode, charged to the primary's meter, where the COW drain's clock
    /// reads it.
    fn ship(
        &mut self,
        primary: &mut Kernel,
        epoch: u64,
        pages: u64,
        encode: bool,
        per_cpu: &mut [Nanos],
    ) -> SimResult<(u64, Nanos)> {
        let costs = &primary.costs;
        let (bytes, per_page) = match self.layout.view() {
            View::Mirror(m) => {
                let (whole, deltas) = (std::mem::take(&mut m.pages), std::mem::take(&mut m.deltas));
                per_cpu[0] += self.replicas[0].agent.ingest_chunk(epoch, whole, deltas)?;
                let per_page = if encode { costs.delta_encode_per_page } else { 0 };
                (std::mem::take(&mut m.bytes), per_page)
            }
            View::Coded(c) => (
                c.ship(&mut self.replicas, epoch, per_cpu)?,
                costs.shard_encode_per_page,
            ),
        };
        primary.meter.charge(pages * per_page);
        Ok((bytes, pages * per_page))
    }

    /// The streamed transfer, container already running: open the epoch's
    /// assembly on every alive replica with the metadata image and the DRBD
    /// traffic (ready the moment the container resumes, so they go out first
    /// and the page chunks queue behind them on the link), then per chunk
    /// produce + ship, then the `finish_assembly` barrier — only now is the
    /// epoch ackable, exactly like the synchronous path, so the committed
    /// image is byte-identical — then the ack.
    ///
    /// The chunks are the COW drain's (`cow_checkpoint`: the background
    /// copy-out of the pages write-protected at pause; chunk `i` is
    /// serialized once it has been copied out *and* the link finished chunk
    /// `i - 1`) or the eager dump's through the staged pipeline (`pipeline`:
    /// the stop phase keeps only freeze + dump + local copy). Either way the
    /// encode CPU rides the background stage, off the stop phase.
    ///
    /// The emitted `[CowCopy] + Transfer + BackupIngest + Ack` spans tile
    /// `ack_delay` exactly. Fills in `out`'s transfer half.
    fn stream(
        &mut self,
        primary: &mut Kernel,
        stopped: Stopped,
        epoch: u64,
        alive: &[usize],
        out: &mut CheckpointOutcome,
    ) -> SimResult<()> {
        let opts = self.core.opts;
        let cow = opts.cow_checkpoint;
        let (mut img, msgs) = (stopped.img, stopped.msgs);
        let deferred = std::mem::take(&mut img.deferred_vpns);
        let pages = std::mem::take(&mut img.pages);
        let pids = deferred_pids(&deferred);
        let mut source = if cow {
            Source::Drain {
                pids: &pids,
                budget: u64::MAX,
            }
        } else {
            Source::Snapshots(pages.chunks(CHUNK_PAGES))
        };

        let meta_msgs = msgs.len() as u64 + img.transfer_chunks();
        let meta_bytes = img.state_bytes() + stopped.drbd_bytes;
        let link = primary.costs.repl_link_latency;
        // `transfer_cost` includes the propagation latency; peel it off — in
        // the pipelined model it is paid once, after the last chunk.
        let meta_ser = self.core.transfer_cost(primary, meta_bytes, meta_msgs) - link;
        let mut per_cpu: Vec<Nanos> = vec![0; self.replicas.len()];
        let expected = (deferred.len() + pages.len()) as u64;
        open_assemblies(&mut self.replicas, alive, img, expected, msgs, &mut per_cpu);

        // The COW drain is paced by the kernel and has no queue to mark;
        // the staged pipeline's encode stage runs a bounded queue ahead.
        let mut clock = ChunkClock::new(self.core.tracer.clone(), meta_ser, !cow);
        let first = alive[0];
        let (mut drained, mut payload_bytes) = (0u64, 0u64);
        let mut aborted = false;
        while !aborted {
            let m0 = primary.meter.lifetime_total();
            let agent = &self.replicas[0].agent;
            let base = opts.delta_transfer.then(|| agent.delta_base(epoch)).transpose()?;
            let n = source.fill(primary, &mut self.layout, alive, base)?;
            if n == 0 {
                break;
            }
            drained += n;
            let before = per_cpu[first];
            let (bytes, encode) =
                self.ship(primary, epoch, n, opts.delta_transfer, &mut per_cpu)?;
            let produce = if cow {
                primary.meter.lifetime_total() - m0
            } else {
                encode
            };
            let costs = &primary.costs;
            clock.send(produce, costs.repl_wire(bytes) + costs.repl_msg_overhead);
            payload_bytes += bytes;
            // An ingest-stage crash hits the designated replica.
            per_cpu[first] +=
                clock.replayed(&mut self.stage_fail_at_chunk, per_cpu[first] - before);
            aborted = cow
                && self
                    .cow_fail_after_chunks
                    .is_some_and(|k| clock.chunks() >= k);
        }
        let mut faults = 0u64;
        for &pid in &pids {
            faults += primary.take_cow_faults(pid)?;
        }
        // The background stages were sampled off the lifetime meter; clear
        // the interval meter so the next exec phase starts clean (the stop
        // phase was already consumed by `checkpoint`).
        primary.meter.take();
        if !aborted {
            // Commit barrier: the epoch becomes ackable only now.
            for &i in alive {
                self.replicas[i].agent.finish_assembly(epoch)?;
            }
        }

        let tracer = &self.core.tracer;
        let copied = if cow { clock.ready() } else { 0 };
        if cow {
            let cow_copy = TraceEvent::CowCopy {
                pages: drained,
                bytes: payload_bytes,
            };
            tracer.span(cow_copy, copied);
            if faults > 0 {
                tracer.mark(TraceEvent::CowFault { faults });
            }
        }
        match self.layout.view() {
            View::Mirror(m) => {
                let dstats = std::mem::take(&mut m.dstats);
                if opts.delta_transfer && tracer.enabled() {
                    tracer.mark(delta_event(&dstats));
                }
            }
            // Shard encode ran in a background stage: the marker keeps the
            // fan-out observable while the spans below tile the ack delay.
            View::Coded(c) => {
                tracer.mark(c.shard_commit(drained, payload_bytes));
                end_fragment_round();
            }
        }
        // The ack lands one propagation latency after the last chunk plus
        // the designated replica's receive CPU; `copied` is the head of the
        // ack path `CowCopy` already covers.
        out.state_bytes = meta_bytes + payload_bytes;
        out.backup_cpu = per_cpu.iter().sum();
        let transfer = clock.sent() + link - copied;
        let ingest = (per_cpu[first], 0);
        out.ack_delay = copied + ack_spans(tracer, out.state_bytes, transfer, ingest, link);
        Ok(())
    }
}

/// The mirror's synchronous transfer: one image, received whole — the
/// backup's receive CPU is charged on the whole image, not on metadata plus
/// chunks. Fills in `out`'s transfer half.
fn mirror_transfer(
    core: &StageCore,
    agent: &mut BackupAgent,
    primary: &Kernel,
    backup: &mut Kernel,
    stopped: Stopped,
    epoch: u64,
    out: &mut CheckpointOutcome,
) -> SimResult<()> {
    let (img, msgs) = (stopped.img, stopped.msgs);
    // Without the staging buffer the parasite pipes pages out one at a
    // time, so the synchronous transfer pays per-page message overheads
    // (part of what §V-D(2)+(3) eliminate).
    let mut transfer_msgs = img.transfer_chunks() + msgs.len() as u64;
    if !core.opts.staging_buffer {
        transfer_msgs += out.dirty_pages;
    }
    out.state_bytes = img.state_bytes() + stopped.drbd_bytes;
    let transfer = core.transfer_cost(primary, out.state_bytes, transfer_msgs);
    let link = primary.costs.repl_link_latency;
    out.backup_cpu = agent.ingest(img) + agent.ingest_drbd(msgs);
    if core.opts.staging_buffer {
        // §V-D(2): transfer overlaps the next execution phase; the ack (and
        // output release) lands after wire + backup receive. The page-store
        // probes happen at the deferred commit — see the `BackupCommit`
        // marker emitted there.
        let ingest = (out.backup_cpu, 0);
        out.ack_delay = ack_spans(&core.tracer, out.state_bytes, transfer, ingest, link);
    } else {
        // Without staging, the container stays stopped until the backup has
        // consumed the state — transfer, receive, and inline commit are all
        // on the critical path.
        let commit_cpu = agent.commit(epoch, &mut backup.vfs.disk)?;
        let ingest = (out.backup_cpu + commit_cpu, agent.last_commit_stats().0);
        out.stop_time += ack_spans(&core.tracer, out.state_bytes, transfer, ingest, link);
    }
    Ok(())
}

impl<L: Layout> Checkpointer for Engine<L> {
    fn name(&self) -> &'static str {
        self.name
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
        backup: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<CheckpointOutcome> {
        let opts = self.core.opts;
        let (k, alive) = (self.quorum as usize, alive_indices(&self.replicas));
        if alive.len() < k {
            return Err(SimError::Invalid(format!(
                "cannot checkpoint below quorum: {} alive, need {k}",
                alive.len()
            )));
        }
        let streamed = self.core.streams();
        // Delta-encode (HyCoR extension; mirror only, `validate` sees to
        // that) against the pages replica 0 has committed — inside the stop
        // phase unless a background stage does it: the drain under COW (the
        // pages are deferred), the encode stage under the staged pipeline.
        let agent = &self.replicas[0].agent;
        let base = opts.delta_transfer.then(|| agent.delta_base(epoch)).transpose()?;
        let stopped = self.core.stop_phase(primary, container, epoch, base.filter(|_| !streamed))?;
        let img = &stopped.img;
        if let View::Coded(c) = self.layout.view() {
            c.note_epoch(epoch, img);
        }
        let mut out = CheckpointOutcome {
            stop_time: stopped.stop_time,
            dirty_pages: img.stats.dirty_pages,
            ..CheckpointOutcome::default()
        };
        if streamed {
            self.stream(primary, stopped, epoch, &alive, &mut out)?;
            self.core.stage_backlog(out.ack_delay);
            return Ok(out);
        }
        let (core, replicas) = (&self.core, &mut self.replicas);
        match self.layout.view() {
            View::Coded(c) => c.transfer(core, replicas, &alive, primary, stopped, &mut out)?,
            View::Mirror(_) => {
                let agent = &mut replicas[0].agent;
                mirror_transfer(core, agent, primary, backup, stopped, epoch, &mut out)?
            }
        }
        Ok(out)
    }

    fn pipeline_advance(&mut self, elapsed: Nanos) {
        self.core.pipeline_advance(elapsed);
    }

    fn commit(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        self.core.prune_logs(epoch);
        if !self.core.opts.staging_buffer && !self.core.streams() {
            return Ok(0); // the synchronous transfer committed inline
        }
        let mut cpu: Nanos = 0;
        for (nth, i) in alive_indices(&self.replicas).into_iter().enumerate() {
            cpu += commit_replica(&mut self.replicas, i, epoch, backup)?;
            if nth == 0 && self.core.tracer.enabled() {
                let (probes, disk_pages) = self.replicas[i].agent.last_commit_stats();
                self.core
                    .tracer
                    .mark(TraceEvent::BackupCommit { probes, disk_pages });
            }
        }
        if let View::Coded(c) = self.layout.view() {
            c.committed(epoch);
        }
        Ok(cpu)
    }

    fn failover(&mut self, backup: &mut Kernel) -> SimResult<(RestoredContainer, FailoverReport)> {
        for r in self.replicas.iter_mut().filter(|r| r.alive) {
            r.agent.discard_uncommitted();
        }
        StageCore::release_spare_buffers();
        let k = self.quorum;
        let survivors = survivors(&self.replicas, k as usize)?;
        let img = match self.layout.view() {
            View::Mirror(_) => self.replicas[0].agent.materialize()?,
            View::Coded(c) => c.image(&self.replicas, &survivors)?,
        };
        let (restored, mut report) = self.core.restore(backup, &img)?;
        if k > 1 {
            report.others += img.pages.len() as u64 * backup.costs.shard_decode_per_page;
        }

        // If the designated replica (whose disk IS the backup kernel's) is
        // dead, resync the kernel disk from a surviving replica's device.
        if !self.replicas[0].alive {
            let src = self.replicas.iter().find(|r| r.alive).ok_or_else(|| {
                SimError::Invalid("no surviving replica disk to resync from".into())
            })?;
            for w in src.disk.full_sync_writes() {
                backup.vfs.disk.apply_replicated(w);
                report.disk_pages_committed += 1;
            }
            report.others += report.disk_pages_committed * backup.costs.restore_disk_per_page;
        }
        Ok((restored, report))
    }

    fn committed_epoch(&self) -> Option<u64> {
        committed_epoch(&self.replicas)
    }

    fn supports_rearm(&self) -> bool {
        self.core.opts.rearm
    }

    fn rearm_prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        // The old backups died with their buffers: every replica-side
        // structure restarts empty on fresh hosts, and so does what the
        // layout kept about them.
        for r in &mut self.replicas {
            *r = Replica::new(&self.core.costs, &self.core.opts);
        }
        match self.layout.view() {
            View::Mirror(m) => *m = Mirror::default(),
            View::Coded(c) => c.reset(),
        }
        self.core.rearm(primary, container)
    }

    fn bootstrap_begin(
        &mut self,
        primary: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<BootstrapBegin> {
        let (img, msgs, begin) = self.core.bootstrap_stop(primary, container, epoch)?;
        let mut per_cpu: Vec<Nanos> = vec![0; self.replicas.len()];
        let alive = alive_indices(&self.replicas);
        open_assemblies(
            &mut self.replicas,
            &alive,
            img,
            begin.total_pages,
            msgs,
            &mut per_cpu,
        );
        self.core.bootstrap_cpu_carry = per_cpu.iter().sum();
        Ok(begin)
    }

    fn bootstrap_step(
        &mut self,
        primary: &mut Kernel,
        epoch: u64,
        max_pages: u64,
    ) -> SimResult<BootstrapStep> {
        let alive = alive_indices(&self.replicas);
        let mut per_cpu: Vec<Nanos> = vec![0; self.replicas.len()];
        let pids = std::mem::take(&mut self.core.bootstrap_pids);
        let mut source = Source::Drain {
            pids: &pids,
            budget: max_pages,
        };
        let mut step = BootstrapStep {
            backup_cpu: std::mem::take(&mut self.core.bootstrap_cpu_carry),
            ..BootstrapStep::default()
        };
        loop {
            let n = source.fill(primary, &mut self.layout, &alive, None)?;
            if n == 0 {
                break;
            }
            let (on_a_link, encode) = self.ship(primary, epoch, n, false, &mut per_cpu)?;
            step.pages += n;
            step.bytes += on_a_link * alive.len() as u64;
            step.backup_cpu += encode;
        }
        self.core.bootstrap_pids = pids;
        step.backup_cpu += per_cpu.iter().sum::<Nanos>();
        step.remaining = self.core.bootstrap_remaining(primary)?;
        Ok(step)
    }

    fn bootstrap_finish(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        let mut cpu: Nanos = 0;
        for i in alive_indices(&self.replicas) {
            let agent = &mut self.replicas[i].agent;
            agent.finish_assembly(epoch)?;
            if !agent.epoch_complete(epoch) {
                return Err(SimError::Invalid(format!(
                    "bootstrap epoch {epoch} sealed without its disk barrier on replica {i}"
                )));
            }
            cpu += commit_replica(&mut self.replicas, i, epoch, backup)?;
        }
        self.core.bootstrap_pids.clear();
        Ok(cpu)
    }

    fn bootstrap_abort(&mut self, primary: &mut Kernel, _container: &Container) -> SimResult<()> {
        self.core.bootstrap_unwind(primary)?;
        // The half-assembled image dies with the replacement.
        for r in self.replicas.iter_mut().filter(|r| r.alive) {
            let _ = r.agent.discard_uncommitted();
        }
        Ok(())
    }

    fn supports_placement(&self) -> bool {
        self.replicas.len() > 1
    }

    fn placement(&self) -> (u32, u32) {
        (self.quorum, self.replicas.len() as u32)
    }

    fn replica_fault(&mut self) -> SimResult<u32> {
        self.coded()?;
        self.replicas[0].alive = false;
        Ok(self.alive_replicas())
    }

    fn repair_begin(&mut self, _epoch: u64) -> SimResult<RepairBegin> {
        let (c, core, replicas) = self.coded()?;
        c.repair_begin(core, replicas)
    }

    fn repair_step(&mut self, _epoch: u64, max_pages: u64) -> SimResult<BootstrapStep> {
        let (c, core, replicas) = self.coded()?;
        c.repair_step(core, replicas, max_pages)
    }

    fn repair_finish(&mut self, backup: &mut Kernel, _epoch: u64) -> SimResult<Nanos> {
        let (c, core, replicas) = self.coded()?;
        c.repair_finish(core, replicas, backup)
    }

    fn repair_abort(&mut self) -> SimResult<()> {
        let (c, _, replicas) = self.coded()?;
        c.repair_abort(replicas)
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
        let placement = (self.quorum as u64, self.alive_replicas() as u64);
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
    use nilicon_container::{ContainerRuntime, ContainerSpec, MemLayout};
    use nilicon_sim::time::MILLISECOND;

    fn setup() -> (Kernel, Kernel, Container, NiLiConEngine) {
        let mut primary = Kernel::default();
        let backup = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut primary, &spec).unwrap();
        let engine = NiLiConEngine::new(OptimizationConfig::nilicon(), primary.costs.clone());
        (primary, backup, c, engine)
    }

    #[test]
    fn checkpoint_requires_prepare() {
        let (mut p, mut b, c, mut e) = setup();
        assert!(e.checkpoint(&mut p, &mut b, &c, 1).is_err());
    }

    #[test]
    fn epoch_cycle_ships_state_to_backup() {
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"epoch1")
            .unwrap();
        let o1 = e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        assert_eq!(o1.dirty_pages, 1);
        assert!(o1.stop_time > 0);
        assert!(o1.ack_delay > 0, "staged: ack after resume");
        e.commit(&mut b, 1).unwrap();
        assert_eq!(e.committed_epoch(), Some(1));
        assert_eq!(e.agent.stored_pages(), 1);

        // Clean epoch: nothing dirty.
        let o2 = e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
        assert_eq!(o2.dirty_pages, 0);
        assert!(o2.state_bytes < o1.state_bytes);
    }

    #[test]
    fn warm_stop_time_is_small_with_all_optimizations() {
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        // Warm the cache.
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"x").unwrap();
        let o = e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
        assert!(
            o.stop_time < 15 * MILLISECOND,
            "optimized warm stop for a small container, got {}ms",
            o.stop_time / MILLISECOND
        );
    }

    #[test]
    fn basic_config_stop_time_is_huge() {
        let mut p = Kernel::default();
        let mut b = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut p, &spec).unwrap();
        let mut e = NiLiConEngine::new(OptimizationConfig::basic(), p.costs.clone());
        e.prepare(&mut p, &c).unwrap();
        let o = e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        assert!(
            o.stop_time > 250 * MILLISECOND,
            "basic = freeze sleep + full infrequent collect + sync transfer, got {}ms",
            o.stop_time / MILLISECOND
        );
        assert_eq!(o.ack_delay, 0, "no staging buffer: ack inside stop");
        assert_eq!(e.committed_epoch(), Some(1), "inline commit");
    }

    #[test]
    fn delta_transfer_shrinks_wire_bytes_and_reconciles() {
        use crate::trace::{TraceEvent, Tracer};
        let run = |delta: bool| {
            let mut p = Kernel::default();
            let mut b = Kernel::default();
            let spec = ContainerSpec::server("redis", 10, 6379);
            let c = ContainerRuntime::create(&mut p, &spec).unwrap();
            let mut opts = OptimizationConfig::nilicon();
            opts.delta_transfer = delta;
            let mut e = NiLiConEngine::new(opts, p.costs.clone());
            let (tracer, ring) = Tracer::in_memory(256);
            e.set_tracer(tracer.clone());
            e.prepare(&mut p, &c).unwrap();
            let mut total_bytes = 0u64;
            for epoch in 1..=4 {
                // Same single-byte edit each epoch: page 0 is sparse churn.
                p.mem_write(c.init_pid(), MemLayout::heap(0), &[epoch as u8])
                    .unwrap();
                tracer.begin_epoch(epoch as u64, 0);
                let o = e.checkpoint(&mut p, &mut b, &c, epoch as u64).unwrap();
                tracer
                    .reconcile(epoch as u64, o.stop_time, o.ack_delay, 0)
                    .unwrap();
                e.commit(&mut b, epoch as u64).unwrap();
                total_bytes += o.state_bytes;
            }
            (total_bytes, ring.snapshot())
        };
        let (full_bytes, full_recs) = run(false);
        let (delta_bytes, delta_recs) = run(true);
        assert!(
            delta_bytes < full_bytes,
            "delta wire bytes {delta_bytes} < full {full_bytes}"
        );
        assert!(
            !full_recs
                .iter()
                .any(|r| matches!(r.kind, TraceEvent::DeltaEncode { .. })),
            "no DeltaEncode span on the full-page path"
        );
        let spans: Vec<_> = delta_recs
            .iter()
            .filter(|r| matches!(r.kind, TraceEvent::DeltaEncode { .. }))
            .collect();
        assert_eq!(spans.len(), 4, "one DeltaEncode span per epoch");
        // Epochs 2+ re-dirty the same page: it ships as a sparse XOR delta.
        let TraceEvent::DeltaEncode {
            delta_pages,
            encoded_bytes,
            raw_bytes,
            ..
        } = spans[2].kind
        else {
            unreachable!()
        };
        assert_eq!(delta_pages, 1);
        assert!(encoded_bytes < raw_bytes / 10, "sparse epoch shrinks 10x+");
    }

    /// A delta is taken against the committed store, so it is sound only
    /// when every older epoch has committed: checkpointing epoch 2 with
    /// epoch 1 still pending is refused with delta on — on the stop-phase
    /// path and off the COW drain — and harmless with it off.
    #[test]
    fn delta_encode_refuses_an_uncommitted_older_epoch() {
        for (delta, cow) in [(true, false), (true, true), (false, false)] {
            let (mut p, mut b, c, _) = setup();
            let mut opts = OptimizationConfig::nilicon();
            (opts.delta_transfer, opts.cow_checkpoint) = (delta, cow);
            let mut e = NiLiConEngine::new(opts, p.costs.clone());
            e.prepare(&mut p, &c).unwrap();
            p.mem_write(c.init_pid(), MemLayout::heap(0), b"one").unwrap();
            e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
            p.mem_write(c.init_pid(), MemLayout::heap(0), b"two").unwrap();
            let second = e.checkpoint(&mut p, &mut b, &c, 2);
            if !delta {
                assert!(second.is_ok(), "{second:?}");
                continue;
            }
            let Err(SimError::Invalid(msg)) = second else {
                panic!("cow={cow}: expected a refusal, got {second:?}")
            };
            assert!(
                msg.contains("epoch 2") && msg.contains("epoch 1 is still pending"),
                "{msg}"
            );
        }
    }

    #[test]
    fn cow_checkpoint_moves_copy_off_the_stop_phase() {
        use crate::trace::{TraceEvent, Tracer};
        let run = |cow: bool| {
            let mut p = Kernel::default();
            let mut b = Kernel::default();
            let spec = ContainerSpec::server("redis", 10, 6379);
            let c = ContainerRuntime::create(&mut p, &spec).unwrap();
            let mut opts = OptimizationConfig::nilicon();
            opts.cow_checkpoint = cow;
            let mut e = NiLiConEngine::new(opts, p.costs.clone());
            let (tracer, ring) = Tracer::in_memory(256);
            e.set_tracer(tracer.clone());
            e.prepare(&mut p, &c).unwrap();
            // Warm epoch: initial full sync.
            e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
            e.commit(&mut b, 1).unwrap();
            for page in 0..300u64 {
                p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[9])
                    .unwrap();
            }
            tracer.begin_epoch(2, 0);
            let o = e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
            tracer.reconcile(2, o.stop_time, o.ack_delay, 0).unwrap();
            e.commit(&mut b, 2).unwrap();
            (o, ring.snapshot(), e)
        };
        let (eager, eager_recs, eager_e) = run(false);
        let (cow, cow_recs, cow_e) = run(true);

        assert_eq!(cow.dirty_pages, eager.dirty_pages);
        assert_eq!(
            cow.state_bytes, eager.state_bytes,
            "same pages cross the wire either way"
        );
        // Small fixture: the footprint-proportional pagemap scan still
        // dominates, but the per-page copy cost itself must have left the
        // stop phase (protect ≈ 150 ns vs copy ≈ 2170 ns, × 300 pages).
        let saved = eager.stop_time - cow.stop_time;
        assert!(
            saved > 300 * 1_500,
            "copy cost left the stop phase: saved {saved}ns (stop {} vs eager {})",
            cow.stop_time,
            eager.stop_time
        );
        assert!(
            cow.ack_delay > eager.ack_delay,
            "the copy did not vanish — it moved to the ack path"
        );

        assert!(
            !eager_recs
                .iter()
                .any(|r| matches!(r.kind, TraceEvent::CowCopy { .. })),
            "no CowCopy span on the eager path"
        );
        let span = cow_recs
            .iter()
            .find(|r| r.epoch == 2 && matches!(r.kind, TraceEvent::CowCopy { .. }))
            .expect("CowCopy span emitted");
        let TraceEvent::CowCopy { pages, bytes } = span.kind else {
            unreachable!()
        };
        assert_eq!(pages, 300);
        assert_eq!(bytes, 300 * 4096);
        assert!(span.dur > 0, "the drain costs real time");

        // The committed backup images are byte-identical.
        let a = eager_e.agent.materialize().unwrap();
        let b = cow_e.agent.materialize().unwrap();
        assert_eq!(a.pages.len(), b.pages.len());
        for (pa, pb) in a.pages.iter().zip(b.pages.iter()) {
            assert_eq!((pa.0, pa.1), (pb.0, pb.1));
            assert_eq!(pa.2, pb.2, "page {:?}/{:#x}", pa.0, pa.1);
        }
    }

    #[test]
    fn cow_mid_copy_failure_is_never_ackable() {
        let mut p = Kernel::default();
        let mut b = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut p, &spec).unwrap();
        let mut opts = OptimizationConfig::nilicon();
        opts.cow_checkpoint = true;
        let mut e = NiLiConEngine::new(opts, p.costs.clone());
        e.prepare(&mut p, &c).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"committed")
            .unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();

        // Epoch 2: the primary dies after the first streamed chunk.
        for page in 0..200u64 {
            p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[7])
                .unwrap();
        }
        e.cow_fail_after_chunks = Some(1);
        e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
        assert!(
            !e.agent.epoch_complete(2),
            "partial assembly must not satisfy the ack condition"
        );
        let (restored, _) = e.failover(&mut b).unwrap();
        restored.finish(&mut b).unwrap();
        let mut buf = [0u8; 9];
        b.mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"committed", "fell back to the last full epoch");
        assert_eq!(e.committed_epoch(), Some(1));
    }

    /// Equivalence: a backup bootstrapped mid-run via the re-replication
    /// path must end up with a committed image byte-identical to a backup
    /// that was replicated from the start, given the same writes. Epoch 5,
    /// the first incremental epoch after the bootstrap, also rewrites a byte
    /// of every warm page; its outcome is returned.
    fn rearmed_backup_image_matches_always_replicated(
        mut opts: OptimizationConfig,
    ) -> CheckpointOutcome {
        let writes = |epoch: u64| -> Vec<(u64, u8)> {
            let mut w = vec![(epoch % 7, epoch as u8), (10 + epoch, 0xA0 | epoch as u8)];
            if epoch == 5 {
                w.extend((20..220u64).map(|page| (page, !(page as u8))));
            }
            w
        };
        let apply = |p: &mut Kernel, c: &Container, epoch: u64| {
            for (page, val) in writes(epoch) {
                p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[val])
                    .unwrap();
            }
        };
        // Give the container a working set large enough that the bootstrap
        // image spans several bounded chunks (the per-step cap below is 64).
        let warm = |p: &mut Kernel, c: &Container| {
            for page in 20..220u64 {
                p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[page as u8])
                    .unwrap();
            }
        };
        opts.rearm = true;

        // Run A: continuously replicated, epochs 1..=6.
        let mut pa = Kernel::default();
        let mut ba = Kernel::default();
        let ca = ContainerRuntime::create(&mut pa, &ContainerSpec::server("redis", 10, 6379))
            .unwrap();
        let mut ea = NiLiConEngine::new(opts, pa.costs.clone());
        ea.prepare(&mut pa, &ca).unwrap();
        warm(&mut pa, &ca);
        for epoch in 1..=6u64 {
            apply(&mut pa, &ca, epoch);
            ea.checkpoint(&mut pa, &mut ba, &ca, epoch).unwrap();
            ea.commit(&mut ba, epoch).unwrap();
        }
        let img_a = ea.agent.materialize().unwrap();

        // Run B: same writes; the original backup dies after epoch 3, a
        // replacement is bootstrapped (epoch-4 writes land while the image
        // streams — COW must preserve the pre-write content), and epochs
        // 5..=6 run incrementally against the replacement.
        let mut pb = Kernel::default();
        let mut bb = Kernel::default();
        let cb = ContainerRuntime::create(&mut pb, &ContainerSpec::server("redis", 10, 6379))
            .unwrap();
        let mut eb = NiLiConEngine::new(opts, pb.costs.clone());
        eb.prepare(&mut pb, &cb).unwrap();
        warm(&mut pb, &cb);
        for epoch in 1..=3u64 {
            apply(&mut pb, &cb, epoch);
            eb.checkpoint(&mut pb, &mut bb, &cb, epoch).unwrap();
            eb.commit(&mut bb, epoch).unwrap();
        }
        let mut b2 = Kernel::default(); // the replacement backup
        eb.rearm_prepare(&mut pb, &cb).unwrap();
        let begin = eb.bootstrap_begin(&mut pb, &cb, 4).unwrap();
        assert!(begin.total_pages > 0, "full image deferred via COW");
        apply(&mut pb, &cb, 4); // mutate mid-stream
        let mut chunks = 0;
        loop {
            let step = eb.bootstrap_step(&mut pb, 4, 64).unwrap();
            chunks += 1;
            if step.remaining == 0 {
                break;
            }
            assert!(chunks < 10_000, "bootstrap must terminate");
        }
        assert!(chunks > 1, "image streamed across multiple bounded steps");
        eb.bootstrap_finish(&mut b2, 4).unwrap();
        assert_eq!(eb.committed_epoch(), Some(4));
        let mut first_incremental = CheckpointOutcome::default();
        for epoch in 5..=6u64 {
            apply(&mut pb, &cb, epoch);
            let o = eb.checkpoint(&mut pb, &mut b2, &cb, epoch).unwrap();
            eb.commit(&mut b2, epoch).unwrap();
            if epoch == 5 {
                first_incremental = o;
            }
        }
        let img_b = eb.agent.materialize().unwrap();

        assert_eq!(img_a.pages.len(), img_b.pages.len(), "same page set");
        for (x, y) in img_a.pages.iter().zip(img_b.pages.iter()) {
            assert_eq!((x.0, x.1), (y.0, y.1));
            assert_eq!(x.2, y.2, "page {:?}/{:#x} diverged", x.0, x.1);
        }
        assert_eq!(
            ba.vfs.disk.digest(),
            b2.vfs.disk.digest(),
            "replica disks identical"
        );
        first_incremental
    }

    #[test]
    fn rearmed_backup_image_matches_always_replicated_run() {
        let o = rearmed_backup_image_matches_always_replicated(OptimizationConfig::nilicon());
        assert!(o.state_bytes > o.dirty_pages * PAGE_SIZE as u64, "whole pages");
    }

    /// With delta + COW the first incremental epoch after a bootstrap
    /// encodes against the image the bootstrap committed: the warm pages the
    /// new backup already holds ship as deltas, not whole.
    #[test]
    fn rearmed_backup_under_delta_ships_deltas_against_the_bootstrap_image() {
        let mut opts = OptimizationConfig::nilicon();
        (opts.delta_transfer, opts.cow_checkpoint) = (true, true);
        let o = rearmed_backup_image_matches_always_replicated(opts);
        assert!(o.dirty_pages > 200, "{} dirty pages", o.dirty_pages);
        assert!(
            o.state_bytes < o.dirty_pages * PAGE_SIZE as u64,
            "{} bytes for {} dirty pages",
            o.state_bytes,
            o.dirty_pages
        );
    }

    #[test]
    fn bootstrap_abort_unwinds_the_cow_set() {
        let (mut p, mut b, c, e) = setup();
        let mut opts = OptimizationConfig::nilicon();
        opts.rearm = true;
        let mut e2 = NiLiConEngine::new(opts, p.costs.clone());
        assert!(!e.supports_rearm(), "paper rows never re-arm");
        assert!(e2.supports_rearm());
        e2.prepare(&mut p, &c).unwrap();
        // Resident footprint larger than the 16-page step cap used below.
        for page in 0..40u64 {
            p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[3])
                .unwrap();
        }
        e2.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e2.commit(&mut b, 1).unwrap();

        e2.rearm_prepare(&mut p, &c).unwrap();
        let begin = e2.bootstrap_begin(&mut p, &c, 2).unwrap();
        assert!(begin.total_pages > 0);
        let step = e2.bootstrap_step(&mut p, 2, 16).unwrap();
        assert_eq!(step.pages, 16, "chunk bound respected");
        assert!(step.remaining > 0);
        e2.bootstrap_abort(&mut p, &c).unwrap();
        // All COW protections are gone: writes proceed without faulting new
        // copies, and a later bootstrap starts from scratch.
        for pid in c.all_pids() {
            assert_eq!(p.cow_pending(pid).unwrap(), 0, "pid {pid:?} unwound");
        }
        assert!(
            !e2.agent.epoch_complete(2),
            "the half-assembled image was dropped"
        );
        // A fresh attempt after the abort still works end-to-end.
        e2.rearm_prepare(&mut p, &c).unwrap();
        let mut b3 = Kernel::default();
        e2.bootstrap_begin(&mut p, &c, 3).unwrap();
        loop {
            if e2.bootstrap_step(&mut p, 3, 256).unwrap().remaining == 0 {
                break;
            }
        }
        e2.bootstrap_finish(&mut b3, 3).unwrap();
        assert_eq!(e2.committed_epoch(), Some(3));
    }

    #[test]
    fn failover_restores_committed_state_only() {
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"committed")
            .unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        // Epoch 2 checkpoint arrives but is never acked/committed.
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"uncommitt")
            .unwrap();
        e.checkpoint(&mut p, &mut b, &c, 2).unwrap();

        let (restored, report) = e.failover(&mut b).unwrap();
        restored.finish(&mut b).unwrap();
        let mut buf = [0u8; 9];
        b.mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"committed");
        assert!(report.restore > 100 * MILLISECOND);
        assert_eq!(report.arp, 28 * MILLISECOND);
        assert_eq!(report.others, 7 * MILLISECOND);
    }

    #[test]
    fn failover_frees_the_spare_pages_before_it_materializes() {
        use nilicon_sim::mem::{end_page_round, spare_pages};
        end_page_round();
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        for epoch in 1..=3u64 {
            for page in 0..50u64 {
                p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[epoch as u8])
                    .unwrap();
            }
            e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
            assert_eq!(spare_pages(), 0, "the stop phase's end frees what it left");
            e.commit(&mut b, epoch).unwrap();
        }
        assert_eq!(spare_pages(), 50, "epoch 3 displaced epoch 2's pages");
        let (restored, _) = e.failover(&mut b).unwrap();
        assert_eq!(spare_pages(), 0);
        let mut byte = [0u8; 1];
        b.mem_read(
            restored.container.init_pid(),
            MemLayout::heap_page(49),
            &mut byte,
        )
        .unwrap();
        assert_eq!(byte[0], 3);
    }

    /// A range unmapped after its pages were committed leaves the backup's
    /// store — the delta base too — at the commit that carries the shrunken
    /// VMAs, so mapped again and only read it is
    /// zeros after failover, as it is on the primary: across a checkpoint
    /// (the `brk` shrink) and within one epoch (`munmap` then `mmap` at the
    /// same address). Without `regrow` the container fails over shrunken.
    fn shrink_then_failover(opts: OptimizationConfig, regrow: bool) {
        const ARENA: u64 = 0x6000_0000_0000;
        let mut p = Kernel::default();
        let mut b = Kernel::default();
        let c =
            ContainerRuntime::create(&mut p, &ContainerSpec::server("redis", 10, 6379)).unwrap();
        let pid = c.init_pid();
        let mut e = NiLiConEngine::new(opts, p.costs.clone());
        e.prepare(&mut p, &c).unwrap();
        let top = c.spec.heap_pages - 1;
        p.mm_mut(pid).unwrap().mmap_anon(ARENA, 0x2000).unwrap();
        p.mem_write(pid, MemLayout::heap(0), b"survives").unwrap();
        for addr in [
            MemLayout::heap_page(top - 1),
            MemLayout::heap_page(top),
            ARENA,
        ] {
            p.mem_write(pid, addr, b"doomed").unwrap();
        }
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        let stored = e.agent.stored_pages();
        p.mm_mut(pid)
            .unwrap()
            .brk(MemLayout::heap_page(top / 2))
            .unwrap();
        p.mem_write(pid, MemLayout::heap(0), b"SURVIVES").unwrap();
        e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
        e.commit(&mut b, 2).unwrap();
        assert_eq!(e.agent.stored_pages(), stored - 2, "pruned above the break");

        let mut buf = [0u8; 8];
        if regrow {
            let mm = p.mm_mut(pid).unwrap();
            mm.brk(MemLayout::heap_page(top + 1)).unwrap();
            mm.munmap(ARENA).unwrap();
            mm.mmap_anon(ARENA, 0x2000).unwrap();
            for addr in [
                MemLayout::heap_page(top - 1),
                MemLayout::heap_page(top),
                ARENA,
            ] {
                p.mem_read(pid, addr, &mut buf).unwrap();
                assert_eq!(buf, [0; 8], "fresh memory on the primary");
            }
            e.checkpoint(&mut p, &mut b, &c, 3).unwrap();
            e.commit(&mut b, 3).unwrap();
            // A page both sides forgot has no base: it ships whole again.
            p.mem_write(pid, MemLayout::heap_page(top), b"REBORN")
                .unwrap();
            e.checkpoint(&mut p, &mut b, &c, 4).unwrap();
            e.commit(&mut b, 4).unwrap();
        }

        let (restored, _) = e.failover(&mut b).unwrap();
        assert_eq!(restored.skipped_pages, 0, "nothing stale left to skip");
        restored.finish(&mut b).unwrap();
        b.mem_read(pid, MemLayout::heap(0), &mut buf).unwrap();
        assert_eq!(&buf, b"SURVIVES");
        if regrow {
            for addr in [MemLayout::heap_page(top - 1), ARENA] {
                b.mem_read(pid, addr, &mut buf).unwrap();
                assert_eq!(buf, [0; 8], "{addr:#x}: old bytes resurrected");
            }
            b.mem_read(pid, MemLayout::heap_page(top), &mut buf)
                .unwrap();
            assert_eq!(&buf, b"REBORN\0\0");
        } else {
            assert!(b
                .mem_read(pid, MemLayout::heap_page(top), &mut buf)
                .is_err());
        }
    }

    #[test]
    fn shrink_then_failover_sync_path() {
        shrink_then_failover(OptimizationConfig::nilicon(), false);
        shrink_then_failover(OptimizationConfig::nilicon(), true);
    }

    #[test]
    fn shrink_then_failover_cow_path() {
        let mut opts = OptimizationConfig::nilicon();
        opts.cow_checkpoint = true;
        shrink_then_failover(opts, false);
        shrink_then_failover(opts, true);
    }

    #[test]
    fn shrink_then_failover_delta_cow_path() {
        let mut opts = OptimizationConfig::nilicon();
        opts.cow_checkpoint = true;
        opts.delta_transfer = true;
        shrink_then_failover(opts, false);
        shrink_then_failover(opts, true);
    }

    #[test]
    fn shrink_while_a_bootstrap_streams_then_failover() {
        // The bootstrap protects the whole resident set and drains it over
        // several steps. Pages unmapped in between are part of the image all
        // the same — it is the container's state when the bootstrap stopped
        // it — so they are staged with the contents they had then, not lent
        // later as zero pages for addresses with no mapping.
        let mut opts = OptimizationConfig::nilicon();
        opts.rearm = true;
        let (mut p, mut b, c, _) = setup();
        let pid = c.init_pid();
        let mut e = NiLiConEngine::new(opts, p.costs.clone());
        e.prepare(&mut p, &c).unwrap();
        let top = c.spec.heap_pages - 1;
        for page in (0..40).chain(top - 40..=top) {
            p.mem_write(pid, MemLayout::heap_page(page), &[7]).unwrap();
        }
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();

        e.rearm_prepare(&mut p, &c).unwrap();
        let begin = e.bootstrap_begin(&mut p, &c, 2).unwrap();
        assert!(e.bootstrap_step(&mut p, 2, 16).unwrap().remaining > 0);
        p.mm_mut(pid)
            .unwrap()
            .brk(MemLayout::heap_page(top / 2))
            .unwrap();
        let mut streamed = 16;
        loop {
            let step = e.bootstrap_step(&mut p, 2, 64).unwrap();
            streamed += step.pages;
            if step.remaining == 0 {
                break;
            }
        }
        assert_eq!(streamed, begin.total_pages, "the assembly barrier closes");
        let mut b2 = Kernel::default();
        e.bootstrap_finish(&mut b2, 2).unwrap();

        // Failing over to the bootstrap epoch restores the heap as it was.
        let (restored, _) = e.failover(&mut b2).unwrap();
        assert_eq!(restored.skipped_pages, 0);
        let mut byte = [0u8; 1];
        b2.mem_read(pid, MemLayout::heap_page(top), &mut byte)
            .unwrap();
        assert_eq!(byte[0], 7);
    }

    #[test]
    fn failover_without_any_commit_fails_cleanly() {
        let (mut _p, mut b, _c, mut e) = setup();
        assert!(e.failover(&mut b).is_err());
    }

    #[test]
    fn disk_writes_replicate_through_drbd() {
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        let pid = c.init_pid();
        let fd = p.create_file(pid, "/data/wal", 0).unwrap();
        p.pwrite(pid, fd, 0, b"logged", 1).unwrap();
        p.fsync(pid, fd).unwrap(); // hits the primary disk + DRBD log
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        assert_eq!(
            p.vfs.disk.digest(),
            b.vfs.disk.digest(),
            "backup disk in sync"
        );
    }

    #[test]
    fn tcp_component_shrinks_with_longer_restore() {
        // Table II: Net (fast restore) has a LARGER TCP remainder than Redis
        // (slow restore) because more of the RTO overlaps recovery work.
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        let (_r, fast) = e.failover(&mut b).unwrap();

        // Bulkier container -> longer restore.
        let (mut p2, mut b2, c2, mut e2) = setup();
        e2.prepare(&mut p2, &c2).unwrap();
        for page in 0..3000u64 {
            p2.mem_write(c2.init_pid(), MemLayout::heap_page(page), &[7])
                .unwrap();
        }
        e2.checkpoint(&mut p2, &mut b2, &c2, 1).unwrap();
        e2.commit(&mut b2, 1).unwrap();
        let (_r2, slow) = e2.failover(&mut b2).unwrap();

        assert!(slow.restore > fast.restore);
        assert!(slow.tcp <= fast.tcp, "more RTO overlap with longer restore");
    }

    fn replay_setup() -> (Kernel, Kernel, Container, NiLiConEngine) {
        let mut primary = Kernel::default();
        let backup = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut primary, &spec).unwrap();
        let mut opts = OptimizationConfig::nilicon();
        opts.hybrid_replay = true;
        let engine = NiLiConEngine::new(opts, primary.costs.clone());
        (primary, backup, c, engine)
    }

    fn req_event(at: u64) -> ReplayEvent {
        ReplayEvent::Request {
            pid: Pid(1),
            at,
            payload: vec![1, 2, 3].into(),
            response_hash: 42,
            response_len: 3,
        }
    }

    #[test]
    fn replay_api_rejected_unless_enabled() {
        let (mut p, _b, _c, mut e) = setup(); // paper config: replay off
        assert!(!e.supports_replay());
        assert!(e.ship_log(&mut p, 1, &[req_event(0)]).is_err());
        assert!(e.seal_log(1).is_err());
        assert!(e.take_replay_tail().is_err());
    }

    #[test]
    fn ship_log_commit_latency_is_link_scale() {
        let (mut p, _b, _c, mut e) = replay_setup();
        assert!(e.supports_replay());
        let o = e.ship_log(&mut p, 1, &[req_event(0)]).unwrap();
        assert_eq!(o.chunks, 1);
        assert!(o.bytes > 0);
        assert!(o.backup_cpu > 0);
        assert!(
            o.commit_latency < MILLISECOND,
            "log commit RTT is µs-scale, got {}ns",
            o.commit_latency
        );
        // Empty chunk: nothing crosses the wire.
        let z = e.ship_log(&mut p, 1, &[]).unwrap();
        assert_eq!(z.chunks, 0);
        assert_eq!(z.commit_latency, 0);
    }
}
