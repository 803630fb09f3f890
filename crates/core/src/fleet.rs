//! EXTENSION (fleet scale): multiplex N replicated containers over one
//! primary/backup host pair.
//!
//! NiLiCon replicates one container per host pair; a real deployment packs
//! many. The [`FleetScheduler`] runs N independent *lanes* — each with its
//! own container, application, client pool, and [`NiLiConEngine`] (its own
//! shadow store and backup agent) — over one shared primary kernel, one
//! shared backup kernel, and two shared per-pair resources:
//!
//! * a **serial dump service** (one CRIU' dump helper per host): overlapping
//!   stop phases queue, and the queue wait is surfaced as a
//!   [`TraceEvent::Backpressure`] stop-phase span so the reconciliation
//!   identity still holds per lane;
//! * a **shared transfer link** to the backup: concurrent epoch transfers
//!   run FIFO, with the extra wait surfaced as a
//!   [`TraceEvent::FairShareWait`] ack-phase span that delays that lane's
//!   output commit only.
//!
//! Both are one serial resource: a job waits for whatever is ahead of it,
//! and only the wait behind *other* lanes is reported.
//!
//! Epoch boundaries are **staggered**: lane `i` phase-offsets its epoch by
//! `i·E/N` so at most one lane is in its stop phase at a time (until dump
//! time exceeds `E/N`), and no two lanes ever share a boundary. The
//! `fleet_aligned` knob removes the stagger to demonstrate the convoy: all
//! N lanes freeze at once, queue on the dump service, and commit behind the
//! hottest lane.
//!
//! Failure handling is **per lane**: one consolidated heartbeat channel
//! carries an N-bit liveness bitmap (one cpuacct-gated bit per container);
//! each lane has its own [`FailureDetector`](crate::FailureDetector) and
//! holder/grant lease pair, so a fault on container A
//! promotes only A's ownership to the backup — container B keeps executing
//! on the primary with zero broken connections. The lease fence (holder
//! anchored at epoch end on the primary, grant anchored at ack receipt on
//! the backup, so the holder always expires first) preserves
//! exactly-one-owner per container.
//!
//! A lane is the same private lane core the run harness drives (`lane.rs`;
//! `DESIGN.md` §8.2): execution phase, output release, fence and promotion
//! tail are shared. What this module adds is the *time model* — lanes run
//! on a fixed `i·E/N` grid through the two shared resources above.
//!
//! Off in every paper row: `OptimizationConfig::fleet == 0` in `basic()`
//! and `nilicon()`, and Tables I–VI never construct a scheduler. With
//! `fleet == 1` the lane has the same per-epoch stop/ack outcomes, and so
//! the same reconciliation identities, as a plain single-engine loop
//! (pinned by `tests/fleet_equivalence.rs`).
use crate::config::ReplicationConfig;
use crate::detector::HEARTBEAT_INTERVAL;
use crate::engine::{Checkpointer, FailoverReport};
use crate::lane::{Completion, Fence, Lane, LaneSetup, LEASE_TERM};
use crate::metrics::{EpochRecord, RunMetrics};
use crate::nilicon_engine::NiLiConEngine;
use crate::trace::{TraceEvent, Tracer};
use crate::traffic::ClientBehavior;
use nilicon_container::{Application, ContainerSpec, MemLayout};
use nilicon_sim::cluster::Cluster;
use nilicon_sim::ids::HostId;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimError, SimResult};
use std::collections::HashMap;

/// Base address for per-lane client stacks (lane `i` gets `CLIENT_BASE+i`).
const CLIENT_BASE: u32 = 200;

/// One container's worth of workload handed to [`FleetScheduler::new`].
pub struct LaneSpec {
    /// Container spec. The address must be unique across the fleet.
    pub spec: ContainerSpec,
    /// The application served inside the container.
    pub app: Box<dyn Application>,
    /// Optional closed-loop clients (each lane gets its own client netns,
    /// so §VII-A's zero-broken-connections gate is attributable per lane).
    pub behavior: Option<Box<dyn ClientBehavior>>,
}

/// One epoch transfer contending for the shared replication link.
struct LinkJob {
    lane: usize,
    ready: Nanos,
    dur: Nanos,
}

/// A per-pair resource the lanes take turns on: the dump service and the
/// replication link. One job runs at a time, in the order jobs are offered.
struct Serial {
    busy_until: Nanos,
    /// Per-lane end of the lane's own previous job: waiting on one's own
    /// prior epoch (its epoch-1 full image still draining, say) is pipeline
    /// overlap, not contention, and is excluded from the reported wait (a
    /// one-lane fleet must report exactly the plain engine's stop times and
    /// ack delays).
    own: Vec<Nanos>,
}

impl Serial {
    fn new(lanes: usize) -> Self {
        Serial {
            busy_until: 0,
            own: vec![0; lanes],
        }
    }

    /// How long a job of `lane` ready at `ready` would wait behind other
    /// lanes' jobs.
    fn wait(&self, lane: usize, ready: Nanos) -> Nanos {
        ready
            .max(self.busy_until)
            .saturating_sub(ready.max(self.own[lane]))
    }

    /// Run a job of `lane` ready at `ready` for `dur`; returns its wait
    /// behind other lanes.
    fn take(&mut self, lane: usize, ready: Nanos, dur: Nanos) -> Nanos {
        let wait = self.wait(lane, ready);
        let end = ready.max(self.busy_until) + dur;
        self.busy_until = end;
        self.own[lane] = end;
        wait
    }

    /// Schedule a batch of link transfers that became ready at one boundary
    /// (an aligned boundary produces up to N; a staggered one, one), FIFO in
    /// `(ready, lane)` order. Returns `(lane, wait, completion)` per job,
    /// where `completion` is the ack instant `ready + dur + wait`.
    fn schedule(&mut self, mut jobs: Vec<LinkJob>) -> Vec<(usize, Nanos, Nanos)> {
        jobs.sort_by_key(|j| (j.ready, j.lane));
        jobs.into_iter()
            .map(|j| {
                let wait = self.take(j.lane, j.ready, j.dur);
                (j.lane, wait, j.ready + j.dur + wait)
            })
            .collect()
    }
}

/// Epoch state staged between a lane's checkpoint and its (possibly
/// link-delayed) commit.
struct StagedEpoch {
    /// The epoch's record as the checkpoint left it: `stop_time` includes
    /// the dump-service queue wait, `ack_delay` excludes the link wait.
    record: EpochRecord,
    completions: Vec<Completion>,
}

/// One replicated container multiplexed onto the shared pair: the lane core
/// plus what is scheduling.
struct FleetLane {
    core: Lane,
    /// `None` after failover consumed the engine (the lane then runs
    /// unreplicated on the backup, as the paper does not re-arm).
    engine: Option<NiLiConEngine>,
    fence: Fence,
    /// Phase offset of this lane's epoch boundaries (`i·E/N`; 0 aligned).
    offset: Nanos,
    next_boundary: Nanos,
    /// Completed epochs (checkpoint seq is `epochs_done + 1`).
    epochs_done: u64,
    target: u64,
    /// A lane fault injected but not yet fired.
    fault_at: Option<Nanos>,
    /// When the owning instance stopped executing: set by a fired fault,
    /// cleared at the lane's promotion.
    down_since: Option<Nanos>,
    /// Scripted per-epoch guest writes (equivalence tests drive lanes with
    /// the same write history a plain engine loop applies).
    script: Vec<Vec<(u64, u8)>>,
    staged: Option<StagedEpoch>,
    unrecovered: bool,
}

impl FleetLane {
    /// The epoch ending at this boundary is done.
    fn advance(&mut self, epoch_exec: Nanos) {
        self.epochs_done += 1;
        self.next_boundary += epoch_exec;
    }

    /// Whether the backup may take this lane over at `t`: detection fired
    /// and the granted lease has run out.
    fn promotable(&mut self, t: Nanos) -> bool {
        self.engine.is_some() && self.core.detector.check(t) && t >= self.fence.promotable_at()
    }
}

/// Per-lane outcome of a fleet run (the fleet analogue of `RunResult`).
pub struct LaneResult {
    /// Per-epoch records and latency aggregates for this lane.
    pub metrics: RunMetrics,
    /// Failover count (0 or 1; the fleet does not re-arm).
    pub failovers: u64,
    /// Recovery-latency breakdown of the lane's failover, if any.
    pub failover: Option<FailoverReport>,
    /// Fault-to-detection latency of the lane's failover, if any.
    pub detection_latency: Option<Nanos>,
    /// Whether the lane ended the run owned by the backup.
    pub on_backup: bool,
    /// Client connections broken by RST on this lane (§VII-A: must be 0).
    pub broken_connections: u64,
    /// The lane's workload-level validation outcome.
    pub verify: Result<(), String>,
    /// Promotion while the primary's output lease was still valid (the
    /// fence failed; must never happen — it also fails the run).
    pub split_brain: bool,
    /// The lane died with no backup to promote.
    pub unrecovered: bool,
}

/// Fleet-wide outcome: per-lane results plus the heartbeat channel's view.
/// The shared-resource waits are in each lane's trace
/// ([`TraceEvent::Backpressure`], [`TraceEvent::FairShareWait`]).
pub struct FleetResult {
    /// One result per lane, in lane order.
    pub lanes: Vec<LaneResult>,
    /// Heartbeat intervals observed on the consolidated channel.
    pub heartbeat_intervals: u64,
    /// Minimum number of live bits seen in any full-fleet interval.
    pub min_live_bits: u32,
}

impl FleetResult {
    /// Total split-brain promotions across the fleet (must be 0).
    pub fn split_brains(&self) -> u64 {
        self.lanes.iter().filter(|l| l.split_brain).count() as u64
    }
}

/// The fleet scheduler: N replicated containers, one primary/backup pair.
pub struct FleetScheduler {
    /// The simulated cluster (public for test instrumentation).
    pub cluster: Cluster,
    /// Primary host id.
    pub primary: HostId,
    /// Backup host id.
    pub backup: HostId,
    /// Client host id (one netns per lane).
    pub client_host: HostId,
    /// Permanently-partitioned host: routing a dead lane's address here
    /// emulates its per-container fail-stop without partitioning the
    /// (still healthy) primary.
    blackhole: HostId,
    lanes: Vec<FleetLane>,
    cfg: ReplicationConfig,
    /// The serial dump service (stop phases queue).
    dump: Serial,
    link: Serial,
    /// Consolidated heartbeat channel: per interval index, one liveness bit
    /// per lane (`⌈n/64⌉` words).
    beat_bitmap: HashMap<u64, Vec<u64>>,
    /// Replication-network partition window `[from, until)`.
    partition_window: Option<(Nanos, Nanos)>,
    partition_applied: bool,
}

impl FleetScheduler {
    /// Build a fleet of `lanes.len()` replicated containers on one pair.
    ///
    /// `cfg.opts.fleet` must equal the lane count (the knob is what turns
    /// the extension on; paper configs have it 0), every lane address must
    /// be unique, and `cfg` must pass [`ReplicationConfig::validate`] and
    /// [`OptimizationConfig::validate`](crate::OptimizationConfig::validate)
    /// (`staging_buffer` on; `backups`, `hybrid_replay` and `rearm` off).
    /// Boundaries are staggered by `i·E/N` unless `cfg.opts.fleet_aligned`
    /// is set, which puts every lane on one boundary to demonstrate the
    /// convoy.
    pub fn new(cfg: ReplicationConfig, lanes: Vec<LaneSpec>) -> SimResult<Self> {
        let n = lanes.len();
        if n == 0 || cfg.opts.fleet as usize != n {
            return Err(SimError::Invalid(format!(
                "fleet: opts.fleet ({}) must equal the lane count ({n})",
                cfg.opts.fleet
            )));
        }
        cfg.validate()?;
        cfg.opts.validate()?;
        let mut cluster = Cluster::new();
        let primary = cluster.add_host(Kernel::default());
        let backup = cluster.add_host(Kernel::default());
        let client_host = cluster.add_host(Kernel::default());
        let blackhole = cluster.add_host(Kernel::default());
        cluster.partition(blackhole);

        let aligned = cfg.opts.fleet_aligned;

        let mut built = Vec::with_capacity(n);
        for (i, ls) in lanes.into_iter().enumerate() {
            let offset = if aligned {
                0
            } else {
                (i as Nanos) * cfg.epoch_exec / n as Nanos
            };
            // Per-lane client netns on the shared client host; the lane's
            // budget is one core; a release that unplugs nothing is silent.
            let setup = LaneSetup {
                client_host,
                client: (&format!("client{i}"), CLIENT_BASE + i as u32),
                parallelism: 1.0,
                jitter_seed: 0x243F6A8885A308D3 ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
                detector_start: offset,
                quiet_release: true,
            };
            let core = Lane::create(
                &mut cluster,
                primary,
                &ls.spec,
                ls.app,
                ls.behavior,
                &cfg,
                setup,
            )?;
            let mut engine = NiLiConEngine::new(cfg.opts, cluster.host_mut(primary).costs.clone());
            engine.prepare(cluster.host_mut(primary), &core.container)?;
            built.push(FleetLane {
                core,
                engine: Some(engine),
                fence: Fence::new(LEASE_TERM, 0),
                offset,
                next_boundary: offset + cfg.epoch_exec,
                epochs_done: 0,
                target: 0,
                fault_at: None,
                down_since: None,
                script: Vec::new(),
                staged: None,
                unrecovered: false,
            });
        }
        Ok(FleetScheduler {
            cluster,
            primary,
            backup,
            client_host,
            blackhole,
            lanes: built,
            dump: Serial::new(n),
            link: Serial::new(n),
            cfg,
            beat_bitmap: HashMap::new(),
            partition_window: None,
            partition_applied: false,
        })
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True if the fleet has no lanes (never: `new` rejects it).
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Attach a tracer to lane `lane` (its engine and detector share it).
    pub fn set_tracer(&mut self, lane: usize, tracer: Tracer) {
        let l = &mut self.lanes[lane];
        if let Some(e) = l.engine.as_mut() {
            e.set_tracer(tracer.clone());
        }
        l.core.set_tracer(tracer);
    }

    /// Drive lane `lane` with a scripted per-epoch guest-write history
    /// (epoch `e` applies `history[e-1]` before its checkpoint) — the
    /// equivalence tests' replay seam.
    pub fn script_writes(&mut self, lane: usize, history: Vec<Vec<(u64, u8)>>) {
        self.lanes[lane].script = history;
    }

    /// Fail-stop the single container of `lane` at virtual time `t` (its
    /// processes die; the primary host, and every other lane, stay up).
    pub fn inject_lane_fault_at(&mut self, lane: usize, t: Nanos) {
        self.lanes[lane].fault_at = Some(t);
    }

    /// Partition the primary from the backup (and clients) for
    /// `[from, until)`: acks stop, leases expire, and any lane whose grant
    /// fence runs out promotes — fenced, because the primary's holder lease
    /// expired strictly earlier.
    pub fn partition_primary(&mut self, from: Nanos, until: Nanos) {
        self.partition_window = Some((from, until));
    }

    /// Byte snapshot of lane `lane`'s guest heap on the host that runs it,
    /// before or after a failover: [`RunHarness::snapshot_heap`]'s twin.
    ///
    /// [`RunHarness::snapshot_heap`]: crate::harness::RunHarness::snapshot_heap
    pub fn snapshot_heap(&mut self, lane: usize, pages: u64) -> Vec<u8> {
        let host = self.host_of(lane);
        let c = &self.lanes[lane].core.container;
        crate::replay::heap_snapshot(self.cluster.host_mut(host), c, pages)
    }

    /// Run `n` more epochs on every lane (staggered lanes interleave; a
    /// faulted lane spends boundaries on detection/promotion instead).
    pub fn run_epochs(&mut self, n: u64) -> SimResult<()> {
        for l in &mut self.lanes {
            l.target = l.epochs_done + n;
        }
        while let Some(t) = self
            .lanes
            .iter()
            .filter(|l| l.epochs_done < l.target && !l.unrecovered)
            .map(|l| l.next_boundary)
            .min()
        {
            self.apply_world_events(t);
            let group: Vec<usize> = (0..self.lanes.len())
                .filter(|&i| {
                    let l = &self.lanes[i];
                    l.epochs_done < l.target && !l.unrecovered && l.next_boundary == t
                })
                .collect();
            self.process_group(t, &group)?;
        }
        Ok(())
    }

    /// End the run: drain per-lane verification and broken-connection
    /// counts into a [`FleetResult`].
    pub fn finish(mut self) -> FleetResult {
        let n = self.lanes.len() as u32;
        let mut results = Vec::with_capacity(self.lanes.len());
        for lane in &mut self.lanes {
            let (broken_connections, verify) = lane.core.finish(&mut self.cluster);
            results.push(LaneResult {
                metrics: std::mem::take(&mut lane.core.metrics),
                failovers: lane.core.failovers,
                failover: lane.core.failover_report.take(),
                detection_latency: lane.core.detection_latency,
                on_backup: lane.core.failovers > 0,
                broken_connections,
                verify,
                split_brain: lane.fence.split_brain(),
                unrecovered: lane.unrecovered,
            });
        }
        let min_live_bits = self
            .beat_bitmap
            .values()
            .map(|words| words.iter().map(|w| w.count_ones()).sum())
            .min()
            .unwrap_or(n);
        FleetResult {
            lanes: results,
            heartbeat_intervals: self.beat_bitmap.len() as u64,
            min_live_bits,
        }
    }

    // ------------------------------------------------------------------
    // Event-loop internals
    // ------------------------------------------------------------------

    /// Apply scheduled world events (partition window edges, lane faults)
    /// that fire at or before boundary `t`.
    fn apply_world_events(&mut self, t: Nanos) {
        if let Some((from, until)) = self.partition_window {
            if !self.partition_applied && t >= from && t < until {
                self.partition_applied = true;
                self.cluster.partition(self.primary);
            }
            if self.partition_applied && t >= until {
                self.partition_applied = false;
                self.cluster.heal(self.primary);
            }
        }
        for lane in &mut self.lanes {
            // A due fault fires once, on whichever instance owns the lane:
            // after a failover no backup is left, and the lane is lost.
            if let Some(f) = lane.fault_at.take_if(|f| *f <= t) {
                lane.down_since.get_or_insert(f);
                // Per-container fail-stop: only this lane's address goes
                // dark (blackhole is permanently partitioned).
                let c = &lane.core.container;
                self.cluster
                    .bind_addr(c.spec.addr, self.blackhole, c.ns.net);
            }
        }
    }

    /// The host executing lane `li`'s container.
    fn host_of(&self, li: usize) -> HostId {
        if self.lanes[li].core.failovers > 0 {
            self.backup
        } else {
            self.primary
        }
    }

    /// Process every lane whose boundary is exactly `t`: exec + checkpoint
    /// first (stop phases queue on the serial dump service in lane order),
    /// then one shared-link scheduling pass over the batch, then each
    /// lane's commit/release tail.
    fn process_group(&mut self, t: Nanos, group: &[usize]) -> SimResult<()> {
        let mut jobs: Vec<LinkJob> = Vec::new();
        for &li in group {
            if self.lanes[li].down_since.is_some() {
                self.dead_lane_boundary(li, t)?;
                continue;
            }
            if let Some(job) = self.lane_exec(li, t)? {
                jobs.push(job);
            }
        }
        for (li, wait, completion) in self.link.schedule(jobs) {
            self.lane_commit(li, t, wait, completion)?;
        }
        Ok(())
    }

    /// A faulted lane's boundary: no exec, no beat — poll the detector and
    /// promote once both the detection and the grant-lease fence allow it.
    fn dead_lane_boundary(&mut self, li: usize, t: Nanos) -> SimResult<()> {
        let lane = &mut self.lanes[li];
        if lane.engine.is_none() {
            // Nothing to promote to: the service is gone.
            lane.unrecovered = true;
            return Ok(());
        }
        lane.next_boundary += self.cfg.epoch_exec;
        if lane.promotable(t) {
            self.promote_lane(li, t)?;
        }
        Ok(())
    }

    /// Execute one epoch of lane `li` ending at boundary `t` on its owner
    /// host ([`Lane::serve`]); for replicated lanes, run the stop phase
    /// (queued on the serial dump service) and return the epoch's transfer
    /// job for the shared link. Unreplicated lanes complete entirely here.
    fn lane_exec(&mut self, li: usize, t: Nanos) -> SimResult<Option<LinkJob>> {
        let epoch_exec = self.cfg.epoch_exec;
        let exec_start = t - epoch_exec;
        let host = self.host_of(li);
        let cut = self.partition_applied;
        let lane = &mut self.lanes[li];
        let seq = lane.epochs_done + 1;
        lane.core.tracer.begin_epoch(seq, exec_start);
        lane.core.tracer.mark(TraceEvent::FleetEpochStart {
            lane: li as u32,
            offset: lane.offset,
        });

        // Scripted writes (the equivalence seam): epoch `seq` applies
        // `script[seq-1]` exactly like a plain engine-loop history. Their
        // tracking faults belong to this epoch's record.
        let mut script_faults = 0;
        if let Some(writes) = lane.script.get((seq - 1) as usize) {
            let k = self.cluster.host_mut(host);
            let pid = lane.core.container.init_pid();
            for &(page, val) in writes {
                k.mem_write(pid, MemLayout::heap_page(page), &[val])?;
            }
            script_faults = k.fault_meter.take();
        }

        let served = lane
            .core
            .serve(&mut self.cluster, host, exec_start, t, epoch_exec, None)?;
        let now = self.cluster.clock.now().max(t);
        self.cluster.clock.advance_to(now);
        let mut record = served.record(seq);
        record.tracking_overhead += script_faults;
        let completions = served.completions;

        // Consolidated heartbeat: one channel, one liveness bit per lane.
        let beat = lane.core.beat_due(&mut self.cluster, host);
        let words = self
            .beat_bitmap
            .entry(t / HEARTBEAT_INTERVAL)
            .or_insert_with(|| vec![0; self.lanes.len().div_ceil(64)]);
        let lane = &mut self.lanes[li];
        if beat && lane.engine.is_some() && !cut {
            words[li / 64] |= 1u64 << (li % 64);
            lane.core.detector.on_beat(t);
        }

        let Some(engine) = lane.engine.as_mut() else {
            // Post-failover lane: unreplicated, output released immediately.
            lane.core.metrics.push(record);
            lane.core
                .release(&mut self.cluster, host, t, completions, true)?;
            lane.advance(epoch_exec);
            return Ok(None);
        };
        if cut {
            // Partitioned: the checkpoint cannot reach the backup, the ack
            // never comes, and this epoch's output stays plugged. The lease
            // is not renewed; keep executing until the fence decides.
            lane.core.held.extend(completions);
            lane.advance(epoch_exec);
            lane.core.metrics.push(record);
            // The backup cannot tell a dead primary from a partition: once
            // detection fires and the grant fence lapses it promotes. The
            // primary's holder lease expired strictly earlier, so the (still
            // alive) primary instance is fenced — its held output is
            // discarded at promotion, never released.
            if lane.promotable(t) {
                self.promote_lane(li, t)?;
            }
            return Ok(None);
        }

        // Stop phase: the serial dump service (one CRIU' helper per host).
        let queue_wait = self.dump.wait(li, t);
        if queue_wait > 0 {
            lane.core.tracer.span(
                TraceEvent::Backpressure {
                    stalled: queue_wait,
                },
                queue_wait,
            );
        }
        engine.pipeline_advance(epoch_exec);
        let (pk, bk) = self.cluster.two_hosts_mut(self.primary, self.backup);
        let outcome = engine.checkpoint(pk, bk, &lane.core.container, seq)?;
        self.dump.take(li, t, outcome.stop_time);
        let stop_eff = queue_wait + outcome.stop_time;
        lane.staged = Some(StagedEpoch {
            record: EpochRecord {
                stop_time: stop_eff,
                dirty_pages: outcome.dirty_pages,
                state_bytes: outcome.state_bytes,
                ack_delay: outcome.ack_delay,
                backup_cpu: outcome.backup_cpu,
                ..record
            },
            completions,
        });
        Ok(Some(LinkJob {
            lane: li,
            ready: t + stop_eff,
            dur: outcome.ack_delay,
        }))
    }

    /// Commit tail of a replicated epoch, after the shared link scheduled
    /// its transfer: reconcile, commit on the backup, renew both leases,
    /// release the epoch's output at the acked time. (The fleet releases at
    /// the ack instant itself, which the grant it just anchored covers; it
    /// has no deferred release for the holder's lease to gate.)
    fn lane_commit(
        &mut self,
        li: usize,
        t: Nanos,
        link_wait: Nanos,
        completion: Nanos,
    ) -> SimResult<()> {
        let host = self.host_of(li);
        let lane = &mut self.lanes[li];
        let StagedEpoch {
            mut record,
            completions,
        } = lane.staged.take().expect("staged epoch");
        if link_wait > 0 {
            lane.core.tracer.span(
                TraceEvent::FairShareWait {
                    lane: li as u32,
                    waited: link_wait,
                },
                link_wait,
            );
        }
        record.ack_delay += link_wait;
        lane.core
            .tracer
            .reconcile(record.epoch, record.stop_time, record.ack_delay)
            .map_err(SimError::Invalid)?;

        // The ack lands at `completion`.
        let engine = lane.engine.as_mut().expect("replicated lane");
        engine.commit(self.cluster.host_mut(self.backup), record.epoch)?;
        lane.fence.on_ack(t, completion);
        lane.core.metrics.push(record);
        lane.core.last_stop = record.stop_time;
        let release = t + record.stop_time + record.ack_delay;
        lane.core
            .release(&mut self.cluster, host, release, completions, true)?;
        lane.advance(self.cfg.epoch_exec);
        Ok(())
    }

    /// Promote lane `li`'s ownership to the backup at time `t`
    /// ([`Lane::promote`]): restore from the lane's own backup agent, move
    /// the address, discard uncommitted output, retransmit both sides.
    /// Every other lane is untouched.
    fn promote_lane(&mut self, li: usize, t: Nanos) -> SimResult<()> {
        let lane = &mut self.lanes[li];
        // Exactly-one-owner fence: the primary's output lease must have
        // lapsed before the backup takes over.
        lane.fence.authorize_promotion(t)?;
        let fault = lane.down_since.take().unwrap_or(t);
        let latency = lane
            .core
            .detector
            .detected_at()
            .map(|d| d.saturating_sub(fault));
        let mut engine = lane.engine.take().expect("promotable lane");
        let now = self.cluster.clock.now().max(t);
        self.cluster.clock.advance_to(now);
        lane.core
            .promote(&mut self.cluster, self.backup, &mut engine, latency, 0)?;
        // The promoted instance starts with a clean slate on the backup.
        lane.core.cpu_debt = 0;
        lane.core.last_stop = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait_of(out: &[(usize, Nanos, Nanos)], lane: usize) -> Nanos {
        out.iter().find(|o| o.0 == lane).expect("lane scheduled").1
    }

    /// The link runs a batch FIFO in `(ready, lane)` order: a hot lane at the
    /// head delays every lane behind it by its whole transfer — the convoy
    /// `fleet_bench`'s aligned cell measures.
    #[test]
    fn fifo_link_delays_the_lanes_behind_a_hot_head() {
        let job = |lane, dur| LinkJob { lane, ready: 0, dur };
        let batch = vec![job(2, 1_000_000), job(0, 50_000_000), job(1, 1_000_000)];
        let out = Serial::new(3).schedule(batch);
        let order: Vec<usize> = out.iter().map(|o| o.0).collect();
        assert_eq!(order, [0, 1, 2], "lane order within one ready instant");
        assert_eq!(wait_of(&out, 0), 0);
        assert_eq!(wait_of(&out, 1), 50_000_000);
        assert_eq!(wait_of(&out, 2), 51_000_000);
        // Each ack lands at ready + own wire time + wait: back to back.
        let acks: Vec<Nanos> = out.iter().map(|o| o.2).collect();
        assert_eq!(acks, [50_000_000, 51_000_000, 52_000_000]);
    }

    /// Staggered boundaries `i·E/N` are pairwise distinct modulo `E`, so no
    /// two lanes share a boundary and every link batch holds one transfer.
    #[test]
    fn staggered_offsets_never_share_a_boundary() {
        for epoch in [30_000_000, 120_000_000] {
            for n in 1..=128u64 {
                let mut offsets: Vec<Nanos> = (0..n).map(|i| i * epoch / n % epoch).collect();
                offsets.sort_unstable();
                offsets.dedup();
                assert_eq!(offsets.len() as u64, n, "E = {epoch}, N = {n}");
            }
        }
    }

    struct Inert;
    impl Application for Inert {
        fn name(&self) -> &str {
            "inert"
        }
        fn init(&mut self, _ctx: &mut nilicon_container::GuestCtx<'_>) -> SimResult<()> {
            Ok(())
        }
    }

    /// The error of building a one-lane fleet under the default config +
    /// `set`.
    fn rejected(set: impl FnOnce(&mut ReplicationConfig)) -> String {
        let mut cfg = ReplicationConfig::default();
        cfg.opts.fleet = 1;
        set(&mut cfg);
        let lane = LaneSpec {
            spec: ContainerSpec::server("svc", 10, 6379),
            app: Box::new(Inert),
            behavior: None,
        };
        match FleetScheduler::new(cfg, vec![lane]) {
            Err(SimError::Invalid(msg)) => msg,
            Err(other) => panic!("wrong error: {other:?}"),
            Ok(_) => panic!("a knob the lanes ignore must be rejected"),
        }
    }

    #[test]
    fn fleet_rejects_backups() {
        let msg = rejected(|c| (c.opts.backups, c.opts.quorum) = (3, 2));
        assert!(msg.contains("opts.backups"), "{msg}");
    }

    #[test]
    fn fleet_rejects_hybrid_replay() {
        let msg = rejected(|c| c.opts.hybrid_replay = true);
        assert!(msg.contains("opts.hybrid_replay"), "{msg}");
    }

    #[test]
    fn fleet_rejects_rearm() {
        let msg = rejected(|c| c.opts.rearm = true);
        assert!(msg.contains("opts.rearm"), "{msg}");
    }

    /// Without the staging buffer the transfer rides the stop phase, so a
    /// link wait would land on an ack path the epoch does not have.
    #[test]
    fn fleet_rejects_no_staging_buffer() {
        let msg = rejected(|c| c.opts.staging_buffer = false);
        assert!(msg.contains("opts.staging_buffer"), "{msg}");
    }

    #[test]
    fn fleet_rejects_a_zero_epoch() {
        let msg = rejected(|c| c.epoch_exec = 0);
        assert!(msg.contains("cfg.epoch_exec"), "{msg}");
    }

    #[test]
    fn fleet_rejects_a_zero_rearm_chunk() {
        let msg = rejected(|c| c.rearm_chunk_pages = 0);
        assert!(msg.contains("cfg.rearm_chunk_pages"), "{msg}");
    }

    fn inert_fleet(n: u32) -> FleetScheduler {
        let mut cfg = ReplicationConfig::default();
        cfg.opts.fleet = n;
        let lanes = (0..n)
            .map(|i| LaneSpec {
                spec: ContainerSpec::server(&format!("svc{i}"), 10 + i, 6379),
                app: Box::new(Inert),
                behavior: None,
            })
            .collect();
        FleetScheduler::new(cfg, lanes).unwrap()
    }

    /// One liveness bit per lane, however many lanes: a 65-lane fleet shows
    /// 65 live bits, and a dead lane 0 is not masked by a live lane 64.
    #[test]
    fn liveness_bitmap_does_not_alias_lanes_past_64() {
        let mut fleet = inert_fleet(65);
        fleet.run_epochs(6).unwrap();
        assert_eq!(fleet.finish().min_live_bits, 65);

        // Lane 0 dies at 100 ms, after its beat in interval 3. (Past
        // interval 12 it runs alone, catching up the boundaries it spent on
        // detection — unreplicated, so it never beats again.)
        let mut fleet = inert_fleet(65);
        fleet.inject_lane_fault_at(0, 100_000_000);
        fleet.run_epochs(12).unwrap();
        let live = |i: u64| -> u32 { fleet.beat_bitmap[&i].iter().map(|w| w.count_ones()).sum() };
        assert_eq!((1..=3).map(live).collect::<Vec<_>>(), [65; 3]);
        assert_eq!(
            (4..=12).map(live).collect::<Vec<_>>(),
            [64; 9],
            "lane 0's bit is its own"
        );
        assert_eq!(fleet.finish().lanes[0].failovers, 1);
    }

    /// A batch application: each step burns 1 ms and stamps one heap page.
    struct Stepper(u64);
    impl Application for Stepper {
        fn name(&self) -> &str {
            "stepper"
        }
        fn init(&mut self, _ctx: &mut nilicon_container::GuestCtx<'_>) -> SimResult<()> {
            Ok(())
        }
        fn step(
            &mut self,
            ctx: &mut nilicon_container::GuestCtx<'_>,
        ) -> SimResult<nilicon_container::StepOutcome> {
            ctx.cpu(1_000_000);
            ctx.heap_touch_page(self.0 % 8, 0xA5)?;
            self.0 += 1;
            Ok(nilicon_container::StepOutcome { done: false })
        }
        fn is_server(&self) -> bool {
            false
        }
    }

    /// A batch lane steps under the fleet exactly as under the harness: its
    /// writes are dirtied, checkpointed and committed on the backup.
    #[test]
    fn batch_lane_steps_and_commits_its_pages() {
        let mut cfg = ReplicationConfig::default();
        cfg.opts.fleet = 2;
        let lane = |i: u32, app: Box<dyn Application>| LaneSpec {
            spec: ContainerSpec::server(&format!("svc{i}"), 10 + i, 6379),
            app,
            behavior: None,
        };
        let lanes = vec![lane(0, Box::new(Stepper(0))), lane(1, Box::new(Inert))];
        let mut fleet = FleetScheduler::new(cfg, lanes).unwrap();
        fleet.run_epochs(4).unwrap();
        let engine = fleet.lanes[0].engine.as_ref().unwrap();
        let image = engine.agent.materialize().unwrap();
        let stamped = image
            .pages
            .iter()
            .filter(|(_, vpn, _)| {
                let first = MemLayout::heap_page(0) / nilicon_sim::PAGE_SIZE as u64;
                (first..first + 8).contains(vpn)
            })
            .count();
        assert_eq!(
            stamped, 8,
            "all eight stamped heap pages are in the committed image"
        );
        let r = fleet.finish();
        let batch = &r.lanes[0].metrics;
        assert!(
            batch.steps_total >= 4 * 25,
            "~30 one-ms steps per epoch: {}",
            batch.steps_total
        );
        assert!(batch.epochs[1..]
            .iter()
            .all(|e| e.dirty_pages >= 8 && e.steps_done > 0));
        assert_eq!(
            r.lanes[1].metrics.steps_total, 0,
            "the server lane never steps"
        );
    }

    /// Waiting on one's own previous transfer is overlap, not contention:
    /// a lone lane's link wait is always zero.
    #[test]
    fn single_lane_never_waits_on_itself() {
        let mut l = Serial::new(1);
        let first = l.schedule(vec![LinkJob {
            lane: 0,
            ready: 0,
            dur: 90_000_000,
        }]);
        assert_eq!(wait_of(&first, 0), 0);
        // Next epoch's transfer is ready long before the first drains.
        let second = l.schedule(vec![LinkJob {
            lane: 0,
            ready: 30_000_000,
            dur: 5_000_000,
        }]);
        assert_eq!(wait_of(&second, 0), 0, "self-carry excluded");
    }
}
