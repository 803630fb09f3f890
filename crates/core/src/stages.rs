//! What lies under the one replication engine
//! ([`Engine`](crate::nilicon_engine::Engine)): everything of the epoch
//! mechanism (§IV–V: freeze → dump → resume → transfer → ack → release) that
//! does not depend on how the checkpoint is laid out on replicas.
//!
//! * [`StageCore`] — the primary side: arming, the stop phase of an
//!   incremental epoch and of a bootstrap, its unwind, the pipeline backlog,
//!   restore + the recovery report;
//! * [`LogStore`] — the backup-side store of shipped nondeterminism logs;
//! * [`ChunkClock`] — the timing model of a chunked, pipelined transfer;
//! * [`Replica`] — the replica set's element, with what every layout does
//!   to a set of them (open an epoch's assemblies, commit, pick survivors);
//!   [`Mapped`] — which pages an image unmapped; [`ack_spans`] — the one ack
//!   computation.
//!
//! What a layout adds — what a chunk carries, where it lands, how the
//! committed image comes back — is `Mirror` (`nilicon_engine.rs`) or `Coded`
//! (`placement.rs`).

use crate::backup::BackupAgent;
use crate::config::OptimizationConfig;
use crate::engine::{BootstrapBegin, FailoverReport, LogShipOutcome, ReplayTail};
use crate::trace::{TraceEvent, Tracer};
use nilicon_container::Container;
use nilicon_criu::{
    bootstrap_dump, dump_container, end_fragment_round, unmapped_since, CheckpointImage,
    DeltaStats, InfrequentCache, RestoreConfig, RestoredContainer, ShadowStore,
};
use nilicon_drbd::{DrbdMsg, DrbdPrimary};
use nilicon_sim::block::BlockDevice;
use nilicon_sim::ids::Pid;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::mem::{end_page_round, TrackingMode, Vma};
use nilicon_sim::net::InputMode;
use nilicon_sim::replay::{ReplayEvent, ReplayLog};
use nilicon_sim::time::Nanos;
use nilicon_sim::{CostModel, SimError, SimResult};
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;

/// Pages per streamed chunk, on every chunked path (COW drain, staged
/// pipeline, bootstrap stream and its unwind). It equals the page batch
/// `CheckpointImage::transfer_chunks` counts messages in, so a streamed
/// epoch and a whole-image transfer of the same pages pay the same number
/// of per-message overheads.
pub(crate) const CHUNK_PAGES: usize = 64;

/// Chunks the queue between a staged pipeline's producing stage and the
/// link holds: chunk `i` cannot be produced before the link finished chunk
/// `i - PIPE_BOUND`.
const PIPE_BOUND: usize = 4;

/// The address spaces a COW-deferred page list touches, in first-seen order.
pub(crate) fn deferred_pids(deferred: &[(Pid, u64)]) -> Vec<Pid> {
    let mut pids = Vec::new();
    for &(pid, _) in deferred {
        if !pids.contains(&pid) {
            pids.push(pid);
        }
    }
    pids
}

/// The `DeltaEncode` trace event of one epoch's classification stats.
pub(crate) fn delta_event(ds: &DeltaStats) -> TraceEvent {
    TraceEvent::DeltaEncode {
        zero_pages: ds.zero_pages,
        delta_pages: ds.delta_pages,
        full_pages: ds.full_pages,
        raw_bytes: ds.raw_bytes,
        encoded_bytes: ds.encoded_bytes,
    }
}

/// Timing of a chunked transfer overlapped with execution: chunk `i` goes on
/// the wire once it has been produced (`ready`) *and* the link has finished
/// chunk `i - 1` (`sent`). Time zero is the moment the container resumes.
///
/// A *bounded* clock models a staged pipeline: the producing stage's output
/// queue holds [`PIPE_BOUND`] chunks, and each chunk's passage is marked
/// `StageEnqueue` / `StageDequeue`. An unbounded one models the COW drain,
/// which the kernel paces and which has no queue to mark.
///
/// Chunks hand off peek-before-commit: the upstream queue keeps a chunk
/// until the ingest stage accepted it, so an ingest stage that crashes at a
/// chunk replays it — received twice, applied once ([`ChunkClock::replayed`]).
pub(crate) struct ChunkClock {
    tracer: Tracer,
    bounded: bool,
    /// When the producing stage finished the latest chunk.
    ready: Nanos,
    /// When the link finished the latest chunk.
    sent: Nanos,
    /// `sent` of the last [`PIPE_BOUND`] chunks, indexed by chunk mod bound.
    sent_ring: [Nanos; PIPE_BOUND],
    /// Chunks handed to [`ChunkClock::send`] so far.
    chunks: u64,
    /// Queueing delay of the latest chunk between produced and link pickup.
    wait: Nanos,
}

impl ChunkClock {
    /// A clock whose link is busy until `link_busy` (the metadata + DRBD
    /// message, ready the moment the container resumes, goes out first).
    pub(crate) fn new(tracer: Tracer, link_busy: Nanos, bounded: bool) -> Self {
        ChunkClock {
            tracer,
            bounded,
            ready: 0,
            sent: link_busy,
            sent_ring: [0; PIPE_BOUND],
            chunks: 0,
            wait: 0,
        }
    }

    /// The next chunk takes `produce` to make and `wire` (serialization plus
    /// message overhead) to send.
    pub(crate) fn send(&mut self, produce: Nanos, wire: Nanos) {
        let slot = self.chunks as usize % PIPE_BOUND;
        if self.bounded {
            if self.tracer.enabled() {
                self.tracer.mark(TraceEvent::StageEnqueue {
                    stage: "encode".into(),
                    chunk: self.chunks,
                });
            }
            // The slot still holds `sent` of chunk `i - PIPE_BOUND` (zero for
            // the first PIPE_BOUND chunks): the producer stalls while its
            // output queue is full.
            self.ready = self.ready.max(self.sent_ring[slot]);
        }
        self.ready += produce;
        self.wait = self.sent.saturating_sub(self.ready);
        self.sent = self.sent.max(self.ready) + wire;
        self.sent_ring[slot] = self.sent;
        self.chunks += 1;
    }

    /// The backup took `cpu` to receive the chunk just sent. Returns the
    /// extra receive CPU to charge: `cpu` once more if the ingest stage
    /// crashes at this chunk (`*fail_at`, zero-based, disarmed on firing),
    /// else zero.
    pub(crate) fn replayed(&mut self, fail_at: &mut Option<u64>, cpu: Nanos) -> Nanos {
        let chunk = self.chunks - 1;
        let crashed = *fail_at == Some(chunk);
        if crashed {
            *fail_at = None;
            self.tracer.mark(TraceEvent::StageRestart {
                stage: "ingest".into(),
                chunk,
            });
        }
        if self.bounded && self.tracer.enabled() {
            self.tracer.mark(TraceEvent::StageDequeue {
                stage: "transfer".into(),
                chunk,
                wait: self.wait,
            });
        }
        if crashed {
            cpu
        } else {
            0
        }
    }

    /// When the producing stage finished the latest chunk.
    pub(crate) fn ready(&self) -> Nanos {
        self.ready
    }

    /// When the link finished the latest chunk.
    pub(crate) fn sent(&self) -> Nanos {
        self.sent
    }

    /// Chunks sent so far.
    pub(crate) fn chunks(&self) -> u64 {
        self.chunks
    }
}

/// Backup-side store of the shipped nondeterminism logs, keyed by epoch
/// (`hybrid_replay` extension). Log chunks are event-typed, not page-typed,
/// so they do not ride the page assembly barrier, but they share its fate:
/// a rearm drops them with the dead backup.
///
/// Every method that models a message takes the engine's
/// `log_fail_after_chunks` test hook: once that many chunks were shipped the
/// link is down — later chunks *and* the seal are lost in flight, leaving
/// the tail epoch's log partial.
#[derive(Default)]
pub(crate) struct LogStore {
    logs: BTreeMap<u64, ReplayLog>,
    chunks_shipped: u64,
}

impl LogStore {
    fn link_down(&self, fail_after: Option<u64>) -> bool {
        fail_after.is_some_and(|k| self.chunks_shipped >= k)
    }

    /// Ship one chunk of `epoch`'s events to `alive` replicas with quorum
    /// `k`: each receives one fragment of `ceil(bytes / k)` over its own
    /// link, so the quorum ack and the slowest coincide — one chunk out, one
    /// commit confirmation back, link-scale rather than epoch-scale. The
    /// paper's single backup is `(1, 1)`.
    pub(crate) fn ship(
        &mut self,
        costs: &CostModel,
        epoch: u64,
        events: &[ReplayEvent],
        (k, alive): (u64, u64),
        fail_after: Option<u64>,
    ) -> SimResult<LogShipOutcome> {
        if events.is_empty() {
            return Ok(LogShipOutcome::default());
        }
        if alive < k {
            return Err(SimError::Invalid(format!(
                "cannot ship log below quorum: {alive} alive, need {k}"
            )));
        }
        let bytes: u64 = events.iter().map(ReplayEvent::byte_len).sum();
        let frag_bytes = bytes.div_ceil(k);
        let recv_cpu = costs.backup_recv(frag_bytes, 1);
        let link_down = self.link_down(fail_after);
        self.chunks_shipped += 1;
        if !link_down {
            self.logs
                .entry(epoch)
                .or_insert_with(|| ReplayLog::new(epoch))
                .events
                .extend_from_slice(events);
        }
        Ok(LogShipOutcome {
            bytes: frag_bytes * alive,
            chunks: 1,
            // A lost chunk still looks like a normal send — the primary
            // cannot know its link just died — but burns no backup CPU.
            commit_latency: costs.repl_link_latency
                + costs.repl_wire(frag_bytes)
                + costs.repl_msg_overhead
                + recv_cpu
                + costs.repl_link_latency,
            backup_cpu: if link_down { 0 } else { recv_cpu * alive },
        })
    }

    /// Mark `epoch`'s log complete (unless the seal is lost with the link).
    pub(crate) fn seal(&mut self, epoch: u64, fail_after: Option<u64>) {
        if !self.link_down(fail_after) {
            self.logs
                .entry(epoch)
                .or_insert_with(|| ReplayLog::new(epoch))
                .sealed = true;
        }
    }

    /// Drop the logs at or below the committed checkpoint — their effects
    /// are inside the checkpoint image.
    pub(crate) fn prune(&mut self, committed: u64) {
        self.logs.retain(|&e, _| e > committed);
    }

    /// Take the sealed logs contiguous from `committed + 1`, stopping (and
    /// flagging the tail partial) at the first missing or unsealed epoch.
    pub(crate) fn take_tail(&mut self, committed: Option<u64>) -> ReplayTail {
        let mut tail = ReplayTail::default();
        let mut expect = committed.map_or(1, |e| e + 1);
        for (epoch, log) in std::mem::take(&mut self.logs) {
            if committed.is_some_and(|c| epoch <= c) {
                continue; // already inside the checkpoint
            }
            if epoch != expect || !log.sealed {
                tail.dropped_partial = true;
                break;
            }
            expect += 1;
            tail.logs.push(log);
        }
        tail
    }
}

/// What the stop phase of an incremental epoch hands the transfer stage.
pub(crate) struct Stopped {
    /// The dumped image (page payload delta-encoded if the stop phase was
    /// given a shadow store).
    pub(crate) img: CheckpointImage,
    /// This epoch's disk writes and its barrier.
    pub(crate) msgs: Vec<DrbdMsg>,
    /// Wire bytes of `msgs`.
    pub(crate) drbd_bytes: u64,
    /// Time the container was stopped, backpressure stall included.
    pub(crate) stop_time: Nanos,
}

/// Primary-side state and phases common to both layouts.
pub(crate) struct StageCore {
    pub(crate) opts: OptimizationConfig,
    /// Retained so a rearm can rebuild replica-side structures.
    pub(crate) costs: CostModel,
    pub(crate) tracer: Tracer,
    cache: InfrequentCache,
    drbd: DrbdPrimary,
    prepared: bool,
    /// Staged-pipeline extension: ack-path work of the previous epoch's
    /// transfer not yet overlapped by execution time. Whatever remains at
    /// the next checkpoint stalls its stop phase (backpressure), so a link
    /// slower than the execution phase degrades toward the paper's
    /// synchronous behavior instead of queueing unboundedly.
    pipe_backlog: Nanos,
    /// Address spaces still holding COW-deferred bootstrap pages (empty
    /// outside an active re-replication bootstrap).
    pub(crate) bootstrap_pids: Vec<Pid>,
    /// Backup CPU charged when the bootstrap began (metadata + DRBD resync
    /// receive), carried into the first drain's accounting.
    pub(crate) bootstrap_cpu_carry: Nanos,
    logs: LogStore,
    /// The VMAs of the last checkpointed image: which pages each layout
    /// forgets (the mirror's delta shadow) or notes (the coded repair's
    /// top-up) at the epoch its replicas prune them.
    pub(crate) mapped: Mapped,
}

impl StageCore {
    pub(crate) fn new(opts: OptimizationConfig, costs: CostModel) -> Self {
        StageCore {
            opts,
            costs,
            tracer: Tracer::disabled(),
            cache: InfrequentCache::new(),
            drbd: DrbdPrimary::new(),
            prepared: false,
            pipe_backlog: 0,
            bootstrap_pids: Vec::new(),
            bootstrap_cpu_carry: 0,
            logs: LogStore::default(),
            mapped: Mapped::default(),
        }
    }

    /// Arm dirty tracking, the input-blocking mechanism and output commit.
    pub(crate) fn prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        // No clear_refs here: everything the application wrote during init
        // is still soft-dirty, so the first incremental checkpoint captures
        // the full initial state (the initial sync).
        for pid in container.all_pids() {
            primary.mm_mut(pid)?.set_tracking(TrackingMode::SoftDirty);
        }
        // Input-blocking mechanism (§V-C).
        let mode = if self.opts.plug_input_blocking {
            InputMode::Buffer
        } else {
            InputMode::Drop
        };
        let stack = primary.stack_mut(container.ns.net)?;
        stack.input_gate.set_mode(mode);
        // Output commit: plug the egress qdisc for the whole run.
        stack.plugged = true;
        self.prepared = true;
        Ok(())
    }

    /// The old backup died with its buffers: restart every primary-side
    /// structure that mirrored it, then re-arm.
    pub(crate) fn rearm(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        let tracer = self.tracer.clone();
        *self = StageCore::new(self.opts, self.costs.clone());
        self.tracer = tracer;
        self.prepare(primary, container)
    }

    /// The log store, if `hybrid_replay` is on.
    pub(crate) fn logs(&mut self) -> SimResult<&mut LogStore> {
        if !self.opts.hybrid_replay {
            return Err(SimError::Invalid("hybrid_replay is off".into()));
        }
        Ok(&mut self.logs)
    }

    /// `epoch` committed: its log and every older one are dead weight.
    pub(crate) fn prune_logs(&mut self, epoch: u64) {
        self.logs.prune(epoch);
    }

    /// Wire time of one whole-message transfer, propagation included.
    pub(crate) fn transfer_cost(&self, primary: &Kernel, bytes: u64, msgs: u64) -> Nanos {
        let c = &primary.costs;
        let mut t = c.repl_link_latency + c.repl_wire(bytes) + msgs * c.repl_msg_overhead;
        if !self.opts.optimize_criu {
            t += c.proxy_overhead(bytes, msgs);
        }
        t
    }

    /// Freeze the container and block its network input (§III: even frozen,
    /// RX would mutate state).
    fn freeze(&self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        primary.freeze_cgroup(container.cgroup, self.opts.dump_config().freeze)?;
        let block_cost = if self.opts.plug_input_blocking {
            primary.costs.plug_block_cycle
        } else {
            primary.costs.firewall_block_cycle
        };
        primary.meter.charge(block_cost);
        primary.stack_mut(container.ns.net)?.block_input();
        Ok(())
    }

    fn resume(primary: &mut Kernel, container: &Container) -> SimResult<()> {
        primary.stack_mut(container.ns.net)?.unblock_input();
        primary.thaw_cgroup(container.cgroup)
    }

    /// The stop phase of an incremental epoch: freeze → block input → dump
    /// → optional delta encode → DRBD ship → resume, then the backpressure
    /// stall if the previous epoch's pipeline has not drained.
    ///
    /// `encode` is the shadow store to delta-encode the page payload against
    /// *inside* the stop phase — the encoder must finish before the container
    /// resumes, or the page contents could change under it. Engines that
    /// encode in a background stage (or not at all) pass `None`.
    ///
    /// Emits `Freeze`, `Dump`, `DumpDetail`, `[DeltaEncode]`, `LocalCopy`,
    /// `DrbdShip`, `[Backpressure]`; the spans telescope to `stop_time`.
    pub(crate) fn stop_phase(
        &mut self,
        primary: &mut Kernel,
        container: &Container,
        epoch: u64,
        encode: Option<&mut ShadowStore>,
    ) -> SimResult<Stopped> {
        if !self.prepared {
            return Err(SimError::Invalid("engine not prepared".into()));
        }
        let cfg = self.opts.dump_config();
        primary.meter.take();

        // Phase boundaries are sampled off the lifetime meter so the spans
        // sum exactly to the interval meter's `stop_time`.
        let m_start = primary.meter.lifetime_total();
        self.freeze(primary, container)?;
        let m_frozen = primary.meter.lifetime_total();

        let cache = self.opts.cache_infrequent.then_some(&mut self.cache);
        let mut img = dump_container(primary, container, &cfg, cache, epoch)?;
        let dirty_pages = img.stats.dirty_pages;
        let phases = img.stats.phases;
        let m_dumped = primary.meter.lifetime_total();

        let delta_stats = encode.map(|shadow| {
            let stats = img.encode_pages(shadow);
            primary
                .meter
                .charge(stats.pages() * primary.costs.delta_encode_per_page);
            stats
        });
        let m_encoded = primary.meter.lifetime_total();

        // DRBD: ship this epoch's disk writes + barrier (async — the wire
        // time of disk writes does not stop the container).
        let mut msgs = self.drbd.ship(&mut primary.vfs.disk);
        msgs.push(self.drbd.barrier(epoch));
        let wire = nilicon_drbd::wire_stats(&msgs);

        Self::resume(primary, container)?;
        let m_resumed = primary.meter.lifetime_total();
        let mut stop_time = primary.meter.take();
        // The epoch's round ends: the spare page buffers the last commit
        // handed back and this execution phase's first writes into shared
        // frames left unused are freed, and the next round may keep as many
        // as those writes asked for.
        end_page_round();

        self.tracer.span(TraceEvent::Freeze, m_frozen - m_start);
        self.tracer
            .span(TraceEvent::Dump { dirty_pages }, m_dumped - m_frozen);
        if self.tracer.enabled() {
            self.tracer.mark(TraceEvent::DumpDetail {
                processes: phases.processes,
                pages: phases.pages,
                sockets: phases.sockets,
                fs_cache: phases.fs_cache,
                infrequent: phases.infrequent,
            });
        }
        if let Some(ds) = delta_stats {
            self.tracer.span(delta_event(&ds), m_encoded - m_dumped);
        }
        self.tracer
            .span(TraceEvent::LocalCopy, m_resumed - m_encoded);
        self.tracer.mark(TraceEvent::DrbdShip {
            writes: wire.writes,
            bytes: wire.bytes,
        });

        if self.opts.pipeline && self.pipe_backlog > 0 {
            let stalled = std::mem::take(&mut self.pipe_backlog);
            stop_time += stalled;
            self.tracer
                .span(TraceEvent::Backpressure { stalled }, stalled);
        }
        Ok(Stopped {
            img,
            msgs,
            drbd_bytes: wire.bytes,
            stop_time,
        })
    }

    /// Whether an epoch's pages stream to the replicas while the container
    /// runs: off the COW drain, or through the staged pipeline — which needs
    /// the staging buffer (§V-D(2)) to overlap the ack path with execution.
    /// Otherwise the whole epoch ships at once, and without the staging
    /// buffer commits inline.
    pub(crate) fn streams(&self) -> bool {
        self.opts.cow_checkpoint || (self.opts.pipeline && self.opts.staging_buffer)
    }

    /// Staged pipeline: this epoch's ack path (`ack_delay` long) runs in the
    /// background; what execution time does not overlap stalls the next
    /// stop phase.
    pub(crate) fn stage_backlog(&mut self, ack_delay: Nanos) {
        if self.opts.pipeline {
            self.pipe_backlog = ack_delay;
        }
    }

    /// The background stages ran for `elapsed` (one execution phase).
    pub(crate) fn pipeline_advance(&mut self, elapsed: Nanos) {
        self.pipe_backlog = self.pipe_backlog.saturating_sub(elapsed);
    }

    /// The stop phase of a re-replication bootstrap: freeze + block input,
    /// full dump with the page copies deferred via COW, DRBD full-device
    /// snapshot, resume. The container pauses for roughly one incremental
    /// epoch's stop time even though the entire image is being captured.
    /// Returns the metadata image (deferred pages left to
    /// [`StageCore::bootstrap_drain`]) and the disk snapshot with its barrier.
    pub(crate) fn bootstrap_stop(
        &mut self,
        primary: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<(CheckpointImage, Vec<DrbdMsg>, BootstrapBegin)> {
        if !self.prepared {
            return Err(SimError::Invalid(
                "engine not prepared for bootstrap".into(),
            ));
        }
        let cfg = self.opts.dump_config();
        primary.meter.take();
        self.freeze(primary, container)?;
        let cache = self.opts.cache_infrequent.then_some(&mut self.cache);
        let mut img = bootstrap_dump(primary, container, &cfg, cache, epoch)?;

        // The write log only covers history the dead backup already had; the
        // full-device snapshot supersedes it.
        let _ = primary.vfs.disk.take_writes();
        let mut msgs: Vec<DrbdMsg> = primary
            .vfs
            .disk
            .full_sync_writes()
            .into_iter()
            .map(DrbdMsg::Write)
            .collect();
        msgs.push(self.drbd.barrier(epoch));

        Self::resume(primary, container)?;
        let stop_time = primary.meter.take();

        let deferred = std::mem::take(&mut img.deferred_vpns);
        self.bootstrap_pids = deferred_pids(&deferred);
        let begin = BootstrapBegin {
            stop_time,
            total_pages: deferred.len() as u64,
            state_bytes: img.state_bytes(),
        };
        Ok((img, msgs, begin))
    }

    /// One bootstrap step drained what it could: report what is still
    /// deferred, and clear the COW fault counts and the interval meter — the
    /// drain rides the background thread and must not bill the next exec
    /// phase.
    pub(crate) fn bootstrap_remaining(&self, primary: &mut Kernel) -> SimResult<u64> {
        let mut remaining = 0u64;
        for &pid in &self.bootstrap_pids {
            primary.take_cow_faults(pid)?;
            remaining += primary.cow_pending(pid)? as u64;
        }
        primary.meter.take();
        Ok(remaining)
    }

    /// The replacement died mid-bootstrap: unwind the COW protect set —
    /// drain every deferred page to nowhere so the promoted container stops
    /// write-faulting. The caller drops the half-assembled image.
    pub(crate) fn bootstrap_unwind(&mut self, primary: &mut Kernel) -> SimResult<()> {
        for pid in std::mem::take(&mut self.bootstrap_pids) {
            while !primary.cow_drain_pages(pid, CHUNK_PAGES)?.is_empty() {}
            primary.take_cow_faults(pid)?;
        }
        primary.meter.take();
        self.bootstrap_cpu_carry = 0;
        Ok(())
    }

    /// A failover is about to materialize or decode the whole committed
    /// image: free the buffers waiting for a stop phase that will not come.
    pub(crate) fn release_spare_buffers() {
        end_page_round();
        end_fragment_round();
    }

    /// Restore `img` on `backup` and account the recovery (Table II).
    pub(crate) fn restore(
        &self,
        backup: &mut Kernel,
        img: &CheckpointImage,
    ) -> SimResult<(RestoredContainer, FailoverReport)> {
        let restore_cfg = RestoreConfig {
            optimized_rto: self.opts.optimized_rto,
            block_input: true,
        };
        backup.meter.take();
        let restored = nilicon_criu::restore_container(backup, img, &restore_cfg)?;
        backup.meter.take();

        let c = &backup.costs;
        let rto = if self.opts.optimized_rto {
            c.tcp_rto_repair_min
        } else {
            c.tcp_rto_default
        };
        // Sockets come back roughly half-way through the restore (fd-table
        // restoration precedes page loading for later processes); the RTO
        // runs concurrently with the remaining restore and the ARP
        // broadcast. Table II reports only the non-overlapped remainder.
        let tcp = rto.saturating_sub(restored.restore_time / 2 + c.gratuitous_arp);
        let report = FailoverReport {
            restore: restored.restore_time,
            arp: c.gratuitous_arp,
            tcp,
            others: c.recovery_misc,
            disk_pages_committed: 0,
        };
        Ok((restored, report))
    }
}

/// The VMAs of the last checkpointed image, per process: what the next image
/// is compared with to find the pages it no longer maps. Whatever keeps
/// per-page state beside the backup's stores — the delta shadow, a repair's
/// re-dirtied keys — forgets those pages at the epoch the stores prune them
/// ([`BackupAgent::commit`]), by the same comparison.
#[derive(Default)]
pub(crate) struct Mapped(Vec<(Pid, Vec<Vma>)>);

impl Mapped {
    /// The page ranges `img` no longer maps that the image before it did;
    /// `img` becomes the reference.
    pub(crate) fn unmapped_by(&mut self, img: &CheckpointImage) -> Vec<(Pid, Range<u64>)> {
        let now = img.processes.iter().map(|p| (p.pid, &p.vmas[..]));
        let was = self.0.iter().map(|(pid, v)| (*pid, &v[..]));
        if now.clone().eq(was.clone()) {
            return Vec::new();
        }
        let gone = unmapped_since(was, &img.processes);
        self.0 = now.map(|(pid, v)| (pid, v.to_vec())).collect();
        gone
    }
}

/// One backup replica: a buffered agent plus its replicated block device.
/// Replica 0 is the *designated* one, backed by the harness's real backup
/// kernel: its committed disk writes go to that kernel's device (passed
/// into [`Checkpointer::commit`](crate::Checkpointer::commit)) and `disk`
/// stays unused. Replicas `1..n` are modeled hosts that commit into their
/// own `disk`. The paper's single backup is a replica set of one.
pub struct Replica {
    /// The buffered agent (public for Table V accounting and failover
    /// tests: `engine.agent` is the designated replica's).
    pub agent: BackupAgent,
    pub(crate) disk: BlockDevice,
    pub(crate) alive: bool,
}

impl Replica {
    pub(crate) fn new(costs: &CostModel, opts: &OptimizationConfig) -> Self {
        Replica {
            agent: BackupAgent::new(costs.clone(), opts.optimize_criu),
            disk: BlockDevice::default(),
            alive: true,
        }
    }
}

/// The alive replicas' indices.
pub(crate) fn alive_indices(replicas: &[Replica]) -> Vec<usize> {
    (0..replicas.len()).filter(|&i| replicas[i].alive).collect()
}

/// The highest epoch an alive replica committed.
pub(crate) fn committed_epoch(replicas: &[Replica]) -> Option<u64> {
    let alive = replicas.iter().filter(|r| r.alive);
    alive.filter_map(|r| r.agent.committed_epoch()).max()
}

/// The first `count` alive replicas' indices, erroring below the quorum.
pub(crate) fn survivors(replicas: &[Replica], count: usize) -> SimResult<Vec<usize>> {
    let mut alive = alive_indices(replicas);
    if alive.len() < count {
        return Err(SimError::Invalid(format!(
            "placement below quorum: {} alive, need {count}",
            alive.len()
        )));
    }
    alive.truncate(count);
    Ok(alive)
}

/// Open an assembly expecting `expected` pages on each of the `alive`
/// replicas with the metadata image `img` — one image, shared — and hand
/// each the DRBD traffic `msgs`; both are ready the moment the container
/// resumes. Adds each replica's receive CPU to `per_cpu`. With one replica
/// its agent ends up the image's only holder, so whole pages can join it.
pub(crate) fn open_assemblies(
    replicas: &mut [Replica],
    alive: &[usize],
    img: CheckpointImage,
    expected: u64,
    mut msgs: Vec<DrbdMsg>,
    per_cpu: &mut [Nanos],
) {
    let img = Rc::new(img);
    for (nth, &i) in alive.iter().enumerate() {
        let msgs = if nth + 1 == alive.len() {
            std::mem::take(&mut msgs)
        } else {
            msgs.clone()
        };
        let agent = &mut replicas[i].agent;
        per_cpu[i] += agent.begin_assembly(img.clone(), expected) + agent.ingest_drbd(msgs);
    }
}

/// Commit `epoch` on replica `i` — into the harness's backup kernel's device
/// for the designated replica 0, into the replica's own otherwise.
pub(crate) fn commit_replica(
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

/// The tail of every ack path: `bytes` took `transfer` on the wire, the
/// designated replica `ingest` to receive them, the ack one `link` latency
/// back. Emits `Transfer + BackupIngest + Ack` and returns their sum.
pub(crate) fn ack_spans(
    tracer: &Tracer,
    bytes: u64,
    transfer: Nanos,
    (ingest, probes): (Nanos, u64),
    link: Nanos,
) -> Nanos {
    tracer.span(TraceEvent::Transfer { bytes }, transfer);
    tracer.span(TraceEvent::BackupIngest { probes }, ingest);
    tracer.span(TraceEvent::Ack, link);
    transfer + ingest + link
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` chunks of `(produce, wire)` through a clock: `(ready, sent)` after
    /// each.
    fn run(clock: &mut ChunkClock, n: usize, produce: Nanos, wire: Nanos) -> Vec<(Nanos, Nanos)> {
        (0..n)
            .map(|_| {
                clock.send(produce, wire);
                (clock.ready(), clock.sent())
            })
            .collect()
    }

    #[test]
    fn bounded_clock_gates_the_producer_on_the_link() {
        // A slow link (w > e): the producer runs ahead until its output
        // queue is full, then advances in lock-step with the link.
        let (e, w, busy) = (10, 100, 7);
        let n = 3 * PIPE_BOUND;
        let mut clock = ChunkClock::new(Tracer::disabled(), busy, true);
        let at = run(&mut clock, n, e, w);
        assert_eq!(clock.chunks(), n as u64);
        for i in 0..n {
            let (ready, sent) = at[i];
            let prev_sent = if i == 0 { busy } else { at[i - 1].1 };
            assert_eq!(sent, prev_sent.max(ready) + w, "chunk {i}: send recurrence");
            let prev_ready = if i == 0 { 0 } else { at[i - 1].0 };
            if i < PIPE_BOUND {
                assert_eq!(ready, prev_ready + e, "chunk {i}: queue not yet full");
            } else {
                let gate = at[i - PIPE_BOUND].1;
                assert!(
                    ready >= gate,
                    "chunk {i} produced before the queue had room"
                );
                assert_eq!(ready, prev_ready.max(gate) + e, "chunk {i}: gated");
            }
        }
        // With the link the bottleneck the gate binds from PIPE_BOUND on.
        assert_eq!(at[PIPE_BOUND].0, at[0].1 + e);

        // A fast link (w < e) never fills the queue: the gate never binds.
        let mut clock = ChunkClock::new(Tracer::disabled(), 0, true);
        let at = run(&mut clock, n, 100, 10);
        for (i, &(ready, sent)) in at.iter().enumerate() {
            assert_eq!(ready, (i as u64 + 1) * 100);
            assert_eq!(sent, ready + 10);
        }
    }

    #[test]
    fn unbounded_clock_has_no_gate_and_no_queue_marks() {
        let (tracer, ring) = Tracer::in_memory(64);
        let mut clock = ChunkClock::new(tracer, 0, false);
        let n = 2 * PIPE_BOUND;
        let at = run(&mut clock, n, 10, 100);
        for (i, &(ready, sent)) in at.iter().enumerate() {
            assert_eq!(ready, (i as u64 + 1) * 10, "the drain is never stalled");
            assert_eq!(sent, 10 + (i as u64 + 1) * 100);
            assert_eq!(clock.replayed(&mut None, 5), 0);
        }
        assert!(ring.snapshot().is_empty(), "no queue, nothing to mark");
    }

    #[test]
    fn dequeue_wait_is_the_time_a_ready_chunk_sat_behind_the_link() {
        let (tracer, ring) = Tracer::in_memory(256);
        let (e, w, busy) = (10, 35, 50);
        let n = PIPE_BOUND + 3;
        let mut clock = ChunkClock::new(tracer, busy, true);
        let mut expect = Vec::new();
        let mut prev_sent = busy;
        for _ in 0..n {
            clock.send(e, w);
            expect.push(prev_sent.saturating_sub(clock.ready()));
            prev_sent = clock.sent();
            clock.replayed(&mut None, 1);
        }
        assert_eq!(
            expect[0],
            busy - e,
            "chunk 0 waits out the metadata message"
        );
        let recs = ring.snapshot();
        let waits: Vec<Nanos> = recs
            .iter()
            .filter_map(|r| match r.kind {
                TraceEvent::StageDequeue { wait, .. } => Some(wait),
                _ => None,
            })
            .collect();
        assert_eq!(waits, expect, "wait(i) = max(0, sent(i-1) - ready(i))");
        // Enqueue(i) precedes Dequeue(i), chunk indices count up from zero.
        let order: Vec<(bool, u64)> = recs
            .iter()
            .filter_map(|r| match r.kind {
                TraceEvent::StageEnqueue { chunk, .. } => Some((true, chunk)),
                TraceEvent::StageDequeue { chunk, .. } => Some((false, chunk)),
                _ => None,
            })
            .collect();
        let want: Vec<(bool, u64)> = (0..n as u64)
            .flat_map(|c| [(true, c), (false, c)])
            .collect();
        assert_eq!(order, want);
    }

    #[test]
    fn ingest_crash_charges_its_chunk_twice_and_fires_once() {
        for bounded in [true, false] {
            let (tracer, ring) = Tracer::in_memory(256);
            let mut clock = ChunkClock::new(tracer, 0, bounded);
            let mut hook = Some(2);
            let mut total = 0;
            let mut timing = Vec::new();
            for chunk in 0..6u64 {
                clock.send(10, 20);
                timing.push((clock.ready(), clock.sent()));
                let cpu = 100 + chunk;
                let extra = clock.replayed(&mut hook, cpu);
                assert_eq!(extra, if chunk == 2 { cpu } else { 0 }, "chunk {chunk}");
                assert_eq!(hook, if chunk < 2 { Some(2) } else { None });
                total += cpu + extra;
            }
            assert_eq!(
                total,
                (100..106).sum::<u64>() + 102,
                "chunk 2 received twice"
            );
            let restarts: Vec<u64> = ring
                .snapshot()
                .iter()
                .filter_map(|r| match r.kind {
                    TraceEvent::StageRestart { chunk, .. } => Some(chunk),
                    _ => None,
                })
                .collect();
            assert_eq!(restarts, [2], "bounded={bounded}: fired exactly once");
            // The replay costs backup CPU, not link or producer time.
            let mut clean = ChunkClock::new(Tracer::disabled(), 0, bounded);
            assert_eq!(run(&mut clean, 6, 10, 20), timing);
        }
    }

    fn req(at: u64) -> ReplayEvent {
        ReplayEvent::Request {
            pid: Pid(1),
            at,
            payload: vec![1, 2, 3].into(),
            response_hash: 42,
            response_len: 3,
        }
    }

    /// Ship `events` as one chunk of `epoch` to the paper's single backup.
    fn ship(
        store: &mut LogStore,
        epoch: u64,
        events: &[ReplayEvent],
        fail_after: Option<u64>,
    ) -> LogShipOutcome {
        store
            .ship(&CostModel::default(), epoch, events, (1, 1), fail_after)
            .unwrap()
    }

    #[test]
    fn sealed_tail_is_contiguous_from_the_committed_epoch() {
        let mut store = LogStore::default();
        ship(&mut store, 2, &[req(10)], None);
        store.seal(2, None);
        ship(&mut store, 3, &[req(20)], None);
        ship(&mut store, 3, &[req(21)], None);
        store.seal(3, None);
        let tail = store.take_tail(Some(1));
        assert!(!tail.dropped_partial);
        assert_eq!(tail.logs.len(), 2);
        assert_eq!((tail.logs[0].epoch, tail.logs[1].epoch), (2, 3));
        assert_eq!(tail.events(), 3, "chunks of one epoch append in order");
        assert!(store.logs.is_empty(), "the tail is taken, not copied");

        // Nothing committed yet: the chain starts at epoch 1.
        let mut store = LogStore::default();
        ship(&mut store, 1, &[req(0)], None);
        store.seal(1, None);
        let tail = store.take_tail(None);
        assert_eq!(tail.logs.len(), 1);
        assert!(!tail.dropped_partial);
    }

    #[test]
    fn commit_prunes_the_logs_its_checkpoint_covers() {
        let mut store = LogStore::default();
        for epoch in 1..=3 {
            ship(&mut store, epoch, &[req(epoch)], None);
            store.seal(epoch, None);
        }
        store.prune(2);
        assert_eq!(store.logs.keys().copied().collect::<Vec<_>>(), [3]);
        // A log that outlived its checkpoint (shipped, never pruned) is
        // skipped by the tail all the same.
        let tail = store.take_tail(Some(3));
        assert!(tail.logs.is_empty(), "epoch-3 log died with its checkpoint");
        assert!(!tail.dropped_partial);
    }

    #[test]
    fn gap_or_unsealed_log_marks_the_tail_partial() {
        // Gap: epoch 2's log is missing entirely.
        let mut store = LogStore::default();
        ship(&mut store, 3, &[req(30)], None);
        store.seal(3, None);
        let tail = store.take_tail(Some(1));
        assert!(tail.dropped_partial, "missing epoch 2 breaks the chain");
        assert!(tail.logs.is_empty());

        // Unsealed: epoch 2 shipped but the seal never landed.
        let mut store = LogStore::default();
        ship(&mut store, 2, &[req(10)], None);
        let tail = store.take_tail(Some(1));
        assert!(tail.dropped_partial, "unsealed tail epoch is unusable");
        assert!(tail.logs.is_empty());

        // A sealed prefix survives a later break.
        let mut store = LogStore::default();
        ship(&mut store, 2, &[req(10)], None);
        store.seal(2, None);
        ship(&mut store, 3, &[req(20)], None);
        let tail = store.take_tail(Some(1));
        assert!(tail.dropped_partial);
        assert_eq!(tail.logs.len(), 1);
    }

    #[test]
    fn link_failure_loses_chunks_and_seal_in_flight() {
        let hook = Some(1);
        let step = ReplayEvent::Step {
            pid: Pid(1),
            at: 1,
            done: true,
        };
        for events in [[req(10)], [step]] {
            let mut store = LogStore::default();
            let o1 = ship(&mut store, 2, &events, hook);
            assert!(o1.backup_cpu > 0, "first chunk arrives");
            // Second chunk and the seal are lost in flight; the primary
            // cannot tell — it still observes a normal send.
            let o2 = ship(&mut store, 2, &events, hook);
            assert_eq!(o2.backup_cpu, 0, "lost chunk burns no backup CPU");
            assert_eq!(o2.chunks, 1);
            assert_eq!((o2.bytes, o2.commit_latency), (o1.bytes, o1.commit_latency));
            store.seal(2, hook);
            assert_eq!(store.logs[&2].len(), 1, "only the first chunk is stored");
            let tail = store.take_tail(Some(1));
            assert!(tail.dropped_partial, "partial log cannot be replayed");
            assert!(tail.logs.is_empty());
        }
    }

    #[test]
    fn coded_ship_sends_a_kth_to_each_replica_and_refuses_below_quorum() {
        let costs = CostModel::default();
        let ev = [req(5)];
        let raw = ev[0].byte_len();
        let mut store = LogStore::default();
        let single = store.ship(&costs, 1, &ev, (1, 1), None).unwrap();
        let coded = store.ship(&costs, 1, &ev, (2, 3), None).unwrap();
        assert_eq!(single.bytes, raw);
        assert_eq!(coded.bytes, raw.div_ceil(2) * 3);
        assert_eq!(coded.backup_cpu, costs.backup_recv(raw.div_ceil(2), 1) * 3);
        assert!(
            coded.commit_latency <= single.commit_latency,
            "links fan out in parallel"
        );
        // An empty chunk crosses no wire, whatever the placement.
        let z = store.ship(&costs, 1, &[], (2, 1), None).unwrap();
        assert_eq!((z.chunks, z.commit_latency), (0, 0));
        assert!(store.ship(&costs, 1, &ev, (2, 1), None).is_err());
    }
}
