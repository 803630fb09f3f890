//! The primary-side NiLiCon replication engine (§IV, §V): the stage core
//! plus the single-backup transfer strategies — whole pages or XOR deltas
//! into one [`BackupAgent`], synchronously, streamed off the COW drain, or
//! through the staged pipeline.

use crate::backup::BackupAgent;
use crate::config::OptimizationConfig;
use crate::engine::{
    BootstrapBegin, BootstrapStep, CheckpointOutcome, Checkpointer, FailoverReport, LogShipOutcome,
    ReplayTail,
};
use crate::stages::{deferred_pids, delta_event, ChunkClock, StageCore, Stopped, CHUNK_PAGES};
use crate::trace::{TraceEvent, Tracer};
use nilicon_container::Container;
use nilicon_criu::{
    unmapped_since, CheckpointImage, DeltaStats, PageEncoding, PageKey, RestoredContainer,
    ShadowStore,
};
use nilicon_sim::ids::Pid;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::mem::Vma;
use nilicon_sim::replay::ReplayEvent;
use nilicon_sim::time::Nanos;
use nilicon_sim::{CostModel, PageBuf, SimResult, PAGE_SIZE};
use std::rc::Rc;

/// NiLiCon's primary-side engine plus the buffered backup agent.
pub struct NiLiConEngine {
    core: StageCore,
    /// Backup agent (public for Table V accounting and failover tests).
    pub agent: BackupAgent,
    /// Primary-side shadow of the page contents last shipped to the backup —
    /// the base for the next epoch's XOR deltas (`delta_transfer`).
    shadow: ShadowStore,
    /// The VMAs of the image the shadow was last encoded for, per process:
    /// what the next image is compared with to forget unmapped pages.
    mapped: Vec<(Pid, Vec<Vma>)>,
    /// Test-only fault injection: abort the COW drain after this many page
    /// chunks have been streamed, as if the primary died mid-copy. The
    /// epoch's assembly is never finished at the backup, so it can never be
    /// acked or committed — failover must fall back to the previous epoch.
    pub cow_fail_after_chunks: Option<u64>,
    /// Test-only fault injection: the primary dies after shipping this many
    /// log chunks — later chunks (and the seal message) are lost in flight,
    /// leaving the tail epoch's log *partial*. Failover must then take the
    /// plain last-checkpoint fallback instead of replaying.
    pub log_fail_after_chunks: Option<u64>,
    /// Test-only fault injection (streamed transfers): the backup-ingest
    /// stage crashes once, right after receiving this zero-based chunk index.
    /// The supervisor restarts the stage and the chunk replays from the
    /// upstream queue (peek-before-commit): its receive CPU is charged twice,
    /// but the assembly is mutated exactly once — no lost or duplicated chunk.
    pub stage_fail_at_chunk: Option<u64>,
}

impl std::fmt::Debug for NiLiConEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NiLiConEngine")
            .field("opts", &self.core.opts)
            .field("agent", &self.agent)
            .finish()
    }
}

/// One epoch streaming to the backup chunk by chunk while the container
/// runs: the open assembly's accounting.
struct Stream {
    epoch: u64,
    clock: ChunkClock,
    /// Metadata image + DRBD bytes (the first message).
    meta_bytes: u64,
    /// Page payload bytes sent so far.
    payload_bytes: u64,
    backup_cpu: Nanos,
    dstats: DeltaStats,
}

impl NiLiConEngine {
    /// New engine. The backup page store follows
    /// [`OptimizationConfig::optimize_criu`] (radix tree vs linked list).
    pub fn new(opts: OptimizationConfig, costs: CostModel) -> Self {
        NiLiConEngine {
            agent: BackupAgent::new(costs.clone(), opts.optimize_criu),
            core: StageCore::new(opts, costs),
            shadow: ShadowStore::new(),
            mapped: Vec::new(),
            cow_fail_after_chunks: None,
            log_fail_after_chunks: None,
            stage_fail_at_chunk: None,
        }
    }

    /// Active optimization set.
    pub fn opts(&self) -> OptimizationConfig {
        self.core.opts
    }

    /// `img` is the next image the backup commits: drop from the shadow the
    /// pages it no longer maps, which that commit prunes from the store — a
    /// pruned store under a live shadow entry would make the page's next
    /// delta an orphan.
    fn forget_unmapped(&mut self, img: &CheckpointImage) {
        let now = img.processes.iter().map(|p| (p.pid, &p.vmas[..]));
        if now
            .clone()
            .eq(self.mapped.iter().map(|(pid, v)| (*pid, &v[..])))
        {
            return;
        }
        let was = self.mapped.iter().map(|(pid, v)| (*pid, &v[..]));
        for (pid, vpns) in unmapped_since(was, &img.processes) {
            self.shadow.forget(pid, vpns);
        }
        self.mapped = now.map(|(pid, v)| (pid, v.to_vec())).collect();
    }

    /// Open `epoch`'s assembly at the backup with the metadata image and the
    /// DRBD traffic. They are ready the moment the container resumes, so
    /// they go out first and the page chunks queue behind them on the link.
    fn open_stream(
        &mut self,
        primary: &Kernel,
        stopped: Stopped,
        epoch: u64,
        expected_pages: u64,
        bounded: bool,
    ) -> Stream {
        let (img, msgs) = (stopped.img, stopped.msgs);
        let meta_bytes = img.state_bytes() + stopped.drbd_bytes;
        // `transfer_cost` includes the propagation latency; peel it off — in
        // the pipelined model it is paid once, after the last chunk.
        let msgs_out = img.transfer_chunks() + msgs.len() as u64;
        let meta_ser = self.core.transfer_cost(primary, meta_bytes, msgs_out)
            - primary.costs.repl_link_latency;
        let mut backup_cpu = self.agent.begin_assembly(img, expected_pages);
        backup_cpu += self.agent.ingest_drbd(msgs);
        Stream {
            epoch,
            clock: ChunkClock::new(self.core.tracer.clone(), meta_ser, bounded),
            meta_bytes,
            payload_bytes: 0,
            backup_cpu,
            dstats: DeltaStats::default(),
        }
    }

    /// Send one chunk (`produce` to make, `bytes` on the wire) into the open
    /// assembly.
    fn ship_chunk(
        &mut self,
        s: &mut Stream,
        costs: &CostModel,
        produce: Nanos,
        bytes: u64,
        pages: Vec<(Pid, u64, PageBuf)>,
        deltas: Vec<(Pid, u64, PageEncoding)>,
    ) -> SimResult<()> {
        s.clock
            .send(produce, costs.repl_wire(bytes) + costs.repl_msg_overhead);
        s.payload_bytes += bytes;
        let cpu = self.agent.ingest_chunk(s.epoch, pages, deltas)?;
        s.backup_cpu += cpu + s.clock.replayed(&mut self.stage_fail_at_chunk, cpu);
        Ok(())
    }

    /// The last chunk is out: the ack lands one propagation latency after
    /// it plus the backup's receive CPU. `off_wire` is the head of the ack
    /// path the caller already accounted in a span of its own; the emitted
    /// `Transfer + BackupIngest + Ack` spans tile the rest of `ack_delay`.
    /// Returns `(ack_delay, state_bytes, backup_cpu)`.
    fn ack_stream(&self, s: Stream, link: Nanos, off_wire: Nanos) -> (Nanos, u64, Nanos) {
        let tracer = &self.core.tracer;
        if self.core.opts.delta_transfer && tracer.enabled() {
            tracer.mark(delta_event(&s.dstats));
        }
        let bytes = s.meta_bytes + s.payload_bytes;
        let sent = s.clock.sent();
        tracer.span(TraceEvent::Transfer { bytes }, sent + link - off_wire);
        tracer.span(TraceEvent::BackupIngest { probes: 0 }, s.backup_cpu);
        tracer.span(TraceEvent::Ack, link);
        (sent + link + s.backup_cpu + link, bytes, s.backup_cpu)
    }

    /// COW extension: the background copy-out of the pages write-protected
    /// at pause, streamed to the backup while the container runs.
    ///
    /// Chunk `i` can only be serialized once it has been copied out *and*
    /// the link has finished the previous chunk, so transfer overlaps
    /// copy-out. The epoch is acked only once every deferred page has
    /// arrived, and the backup's `finish_assembly` barrier enforces the same
    /// condition structurally.
    ///
    /// The emitted `CowCopy + Transfer + BackupIngest + Ack` spans tile
    /// `ack_delay` exactly.
    fn cow_stream(
        &mut self,
        primary: &mut Kernel,
        mut stopped: Stopped,
        epoch: u64,
    ) -> SimResult<(Nanos, u64, Nanos)> {
        let deferred = std::mem::take(&mut stopped.img.deferred_vpns);
        let pids = deferred_pids(&deferred);
        let mut s = self.open_stream(primary, stopped, epoch, deferred.len() as u64, false);

        let delta = self.core.opts.delta_transfer;
        let mut drained = 0u64;
        let mut aborted = false;
        'drain: for &pid in &pids {
            loop {
                let m0 = primary.meter.lifetime_total();
                // The drain lends each frame with the lines written since it
                // was last lent; a page is copied out only if it ships
                // whole. Delta composition: encode at copy time against the
                // shadow of the last shipped epoch, reading those lines only
                // — the encode CPU rides the drain, off the stop phase.
                let mut pages = Vec::with_capacity(if delta { 0 } else { CHUNK_PAGES });
                let mut deltas = Vec::with_capacity(if delta { CHUNK_PAGES } else { 0 });
                let mut bytes = 0u64;
                let (shadow, dstats) = (&mut self.shadow, &mut s.dstats);
                let n = primary.cow_drain_with(pid, CHUNK_PAGES, |vpn, page, lines| {
                    if delta {
                        let key = PageKey { pid, vpn };
                        let enc = shadow.encode_with(key, page, lines, || Rc::new(*page), dstats);
                        bytes += enc.encoded_bytes();
                        deltas.push((pid, vpn, enc));
                    } else {
                        bytes += PAGE_SIZE as u64;
                        pages.push((pid, vpn, Rc::new(*page)));
                    }
                })? as u64;
                if n == 0 {
                    break;
                }
                if delta {
                    primary
                        .meter
                        .charge(n * primary.costs.delta_encode_per_page);
                }
                drained += n;
                let copy_out = primary.meter.lifetime_total() - m0;
                self.ship_chunk(&mut s, &primary.costs, copy_out, bytes, pages, deltas)?;
                if self
                    .cow_fail_after_chunks
                    .is_some_and(|k| s.clock.chunks() >= k)
                {
                    aborted = true;
                    break 'drain;
                }
            }
        }
        let mut faults = 0u64;
        for &pid in &pids {
            faults += primary.take_cow_faults(pid)?;
        }
        // The drain was sampled off the lifetime meter; clear the interval
        // meter so the next exec phase starts clean (the stop phase was
        // already consumed by `checkpoint`).
        primary.meter.take();
        if !aborted {
            // Commit barrier: the epoch becomes ackable only now.
            self.agent.finish_assembly(epoch)?;
        }

        let copied = s.clock.ready();
        let cow_copy = TraceEvent::CowCopy {
            pages: drained,
            bytes: s.payload_bytes,
        };
        self.core.tracer.span(cow_copy, copied);
        if faults > 0 {
            self.core.tracer.mark(TraceEvent::CowFault { faults });
        }
        Ok(self.ack_stream(s, primary.costs.repl_link_latency, copied))
    }

    /// Staged-pipeline extension: the eager dump's page payload leaves the
    /// stop phase and flows through delta-encode → transfer → backup-ingest
    /// stages overlapped with the next execution phase. The dumped pages are
    /// immutable refcounted snapshots, so encoding them after resume cannot
    /// race container writes — the stop phase keeps only freeze + dump +
    /// local copy. The epoch becomes ackable only at the `finish_assembly`
    /// barrier, exactly like the synchronous path, so the committed image is
    /// byte-identical.
    ///
    /// The emitted `Transfer + BackupIngest + Ack` spans tile `ack_delay`
    /// exactly.
    fn pipeline_stream(
        &mut self,
        primary: &mut Kernel,
        mut stopped: Stopped,
        epoch: u64,
    ) -> SimResult<(Nanos, u64, Nanos)> {
        let pages = std::mem::take(&mut stopped.img.pages);
        let mut s = self.open_stream(primary, stopped, epoch, pages.len() as u64, true);

        let delta = self.core.opts.delta_transfer;
        for chunk in pages.chunks(CHUNK_PAGES) {
            let n = chunk.len() as u64;
            if delta {
                // Encode against the shadow of the last shipped epoch — the
                // CPU rides the background stage, off the stop phase.
                let cost = n * primary.costs.delta_encode_per_page;
                primary.meter.charge(cost);
                let mut encs = Vec::with_capacity(chunk.len());
                let mut bytes = 0u64;
                for &(pid, vpn, ref data) in chunk {
                    let enc = self
                        .shadow
                        .encode(PageKey { pid, vpn }, data, &mut s.dstats);
                    bytes += enc.encoded_bytes();
                    encs.push((pid, vpn, enc));
                }
                self.ship_chunk(&mut s, &primary.costs, cost, bytes, Vec::new(), encs)?;
            } else {
                let bytes = n * PAGE_SIZE as u64;
                self.ship_chunk(&mut s, &primary.costs, 0, bytes, chunk.to_vec(), Vec::new())?;
            }
        }
        // The encode CPU was charged to the background stage; it must not
        // bill the next exec phase's interval meter.
        primary.meter.take();
        // Commit barrier: the epoch becomes ackable only now.
        self.agent.finish_assembly(epoch)?;
        Ok(self.ack_stream(s, primary.costs.repl_link_latency, 0))
    }
}

impl Checkpointer for NiLiConEngine {
    fn name(&self) -> &'static str {
        "NiLiCon"
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
        // The staged pipeline needs the staging buffer (§V-D(2)) to overlap
        // the ack path with execution; COW has its own streaming drain, so
        // the eager pipelined path covers the remaining shape.
        let pipelined = opts.pipeline && opts.staging_buffer && !opts.cow_checkpoint;
        // Delta-encode inside the stop phase (HyCoR extension) unless a
        // background stage does it: under COW the pages are deferred and
        // encoded by the drain (`cow_stream`); under the staged pipeline the
        // dumped pages are immutable snapshots and the encode stage takes
        // them (`pipeline_stream`).
        let encode =
            (opts.delta_transfer && !opts.cow_checkpoint && !pipelined).then_some(&mut self.shadow);
        let stopped = self.core.stop_phase(primary, container, epoch, encode)?;
        if opts.delta_transfer {
            self.forget_unmapped(&stopped.img);
        }
        let mut stop_time = stopped.stop_time;
        let dirty_pages = stopped.img.stats.dirty_pages;

        // --- Transfer + ack, container already running -------------------
        if opts.cow_checkpoint || pipelined {
            let (ack_delay, state_bytes, backup_cpu) = if opts.cow_checkpoint {
                self.cow_stream(primary, stopped, epoch)?
            } else {
                self.pipeline_stream(primary, stopped, epoch)?
            };
            self.core.stage_backlog(ack_delay);
            return Ok(CheckpointOutcome {
                stop_time,
                state_bytes,
                dirty_pages,
                ack_delay,
                backup_cpu,
            });
        }
        let (img, msgs) = (stopped.img, stopped.msgs);

        // Without the staging buffer the parasite pipes pages out one at a
        // time, so the synchronous transfer pays per-page message overheads
        // (part of what §V-D(2)+(3) eliminate).
        let mut transfer_msgs = img.transfer_chunks() + msgs.len() as u64;
        if !opts.staging_buffer {
            transfer_msgs += dirty_pages;
        }
        let state_bytes = img.state_bytes() + stopped.drbd_bytes;
        let transfer = self.core.transfer_cost(primary, state_bytes, transfer_msgs);
        let link = primary.costs.repl_link_latency;
        let mut backup_cpu = self.agent.ingest(img);
        backup_cpu += self.agent.ingest_drbd(msgs);
        let tracer = &self.core.tracer;
        tracer.span(TraceEvent::Transfer { bytes: state_bytes }, transfer);

        let ack_delay = if opts.staging_buffer {
            // §V-D(2): transfer overlaps the next execution phase; the ack
            // (and output release) lands after wire + backup receive. The
            // page-store probes happen at the deferred commit — see the
            // `BackupCommit` marker emitted there.
            tracer.span(TraceEvent::BackupIngest { probes: 0 }, backup_cpu);
            tracer.span(TraceEvent::Ack, link);
            transfer + backup_cpu + link
        } else {
            // Without staging, the container stays stopped until the backup
            // has consumed the state — transfer, receive, and inline commit
            // are all on the critical path.
            let commit_cpu = self.agent.commit(epoch, &mut backup.vfs.disk)?;
            let (probes, _) = self.agent.last_commit_stats();
            tracer.span(TraceEvent::BackupIngest { probes }, backup_cpu + commit_cpu);
            tracer.span(TraceEvent::Ack, link);
            stop_time += transfer + backup_cpu + commit_cpu + link;
            0
        };

        Ok(CheckpointOutcome {
            stop_time,
            state_bytes,
            dirty_pages,
            ack_delay,
            backup_cpu,
        })
    }

    fn pipeline_advance(&mut self, elapsed: Nanos) {
        self.core.pipeline_advance(elapsed);
    }

    fn commit(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        self.core.prune_logs(epoch);
        if !self.core.opts.staging_buffer {
            return Ok(0); // already committed inline during the stop phase
        }
        let cpu = self.agent.commit(epoch, &mut backup.vfs.disk)?;
        if self.core.tracer.enabled() {
            let (probes, disk_pages) = self.agent.last_commit_stats();
            self.core
                .tracer
                .mark(TraceEvent::BackupCommit { probes, disk_pages });
        }
        Ok(cpu)
    }

    fn failover(&mut self, backup: &mut Kernel) -> SimResult<(RestoredContainer, FailoverReport)> {
        self.agent.discard_uncommitted();
        StageCore::release_spare_buffers();
        let img = self.agent.materialize()?;
        self.core.restore(backup, &img)
    }

    fn committed_epoch(&self) -> Option<u64> {
        self.agent.committed_epoch()
    }

    fn supports_rearm(&self) -> bool {
        self.core.opts.rearm
    }

    fn rearm_prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        // The old backup died with its buffers: every replica-side structure
        // restarts empty, and the delta shadow is stale (the replacement has
        // no base image to patch against).
        self.agent = BackupAgent::new(self.core.costs.clone(), self.core.opts.optimize_criu);
        self.shadow = ShadowStore::new();
        self.mapped.clear();
        self.core.rearm(primary, container)
    }

    fn bootstrap_begin(
        &mut self,
        primary: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<BootstrapBegin> {
        let (img, msgs, begin) = self.core.bootstrap_stop(primary, container, epoch)?;
        self.core.bootstrap_cpu_carry =
            self.agent.begin_assembly(img, begin.total_pages) + self.agent.ingest_drbd(msgs);
        Ok(begin)
    }

    fn bootstrap_step(
        &mut self,
        primary: &mut Kernel,
        epoch: u64,
        max_pages: u64,
    ) -> SimResult<BootstrapStep> {
        let agent = &mut self.agent;
        self.core
            .bootstrap_drain(primary, max_pages, PAGE_SIZE as u64, |chunk| {
                agent.ingest_chunk(epoch, chunk, Vec::new())
            })
    }

    fn bootstrap_finish(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        self.agent.finish_assembly(epoch)?;
        if !self.agent.epoch_complete(epoch) {
            return Err(nilicon_sim::SimError::Invalid(format!(
                "bootstrap epoch {epoch} sealed without its disk barrier"
            )));
        }
        let cpu = self.agent.commit(epoch, &mut backup.vfs.disk)?;
        self.core.bootstrap_done();
        Ok(cpu)
    }

    fn bootstrap_abort(&mut self, primary: &mut Kernel, _container: &Container) -> SimResult<()> {
        self.core.bootstrap_unwind(primary)?;
        // The half-assembled image dies with the replacement.
        let _ = self.agent.discard_uncommitted();
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
        let fail_after = self.log_fail_after_chunks;
        self.core
            .logs()?
            .ship(&primary.costs, epoch, events, (1, 1), fail_after)
    }

    fn seal_log(&mut self, epoch: u64) -> SimResult<()> {
        let fail_after = self.log_fail_after_chunks;
        self.core.logs()?.seal(epoch, fail_after);
        Ok(())
    }

    fn take_replay_tail(&mut self) -> SimResult<ReplayTail> {
        let committed = self.agent.committed_epoch();
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
                    .reconcile(epoch as u64, o.stop_time, o.ack_delay)
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
            tracer.reconcile(2, o.stop_time, o.ack_delay).unwrap();
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

    #[test]
    fn rearmed_backup_image_matches_always_replicated_run() {
        // Equivalence: a backup bootstrapped mid-run via the re-replication
        // path must end up with a committed image byte-identical to a backup
        // that was replicated from the start, given the same writes.
        let writes = |epoch: u64| -> Vec<(u64, u8)> {
            vec![(epoch % 7, epoch as u8), (10 + epoch, 0xA0 | epoch as u8)]
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
        let mut opts = OptimizationConfig::nilicon();
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
        for epoch in 5..=6u64 {
            apply(&mut pb, &cb, epoch);
            eb.checkpoint(&mut pb, &mut b2, &cb, epoch).unwrap();
            eb.commit(&mut b2, epoch).unwrap();
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

    /// A range unmapped after its pages were committed leaves every holder
    /// of those pages at the commit that carries the shrunken VMAs — the
    /// backup's store, the delta shadow — so mapped again and only read it is
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
