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
//!   are scheduled either deficit-round-robin (default; no hot-container
//!   starvation, quantum ≈ one 64 KiB wire chunk) or FIFO (the
//!   `fleet_aligned` convoy mode), with the extra wait surfaced as a
//!   [`TraceEvent::FairShareWait`] ack-phase span that delays that lane's
//!   output commit only.
//!
//! Epoch boundaries are **staggered**: lane `i` phase-offsets its epoch by
//! `i·E/N` so at most one lane is in its stop phase at a time (until dump
//! time exceeds `E/N`). The `fleet_aligned` knob removes the stagger *and*
//! the fair-share discipline to demonstrate the convoy: all N lanes freeze
//! at once, queue on the dump service, and FIFO-commit behind the hottest
//! lane.
//!
//! Failure handling is **per lane**: one consolidated heartbeat channel
//! carries an N-bit liveness bitmap (one cpuacct-gated bit per container);
//! each lane has its own [`FailureDetector`] and holder/grant [`Lease`]
//! pair, so a fault on container A promotes only A's ownership to the
//! backup — container B keeps executing on the primary with zero broken
//! connections. The lease fence (holder anchored at epoch end on the
//! primary, grant anchored at ack receipt on the backup, so the holder
//! always expires first) preserves exactly-one-owner per container.
//!
//! Off in every paper row: `OptimizationConfig::fleet == 0` in `basic()`
//! and `nilicon()`, and Tables I–VI never construct a scheduler. With
//! `fleet == 1` the lane commits byte-identical backup images, with the
//! same reconciliation identities, as a plain single-engine loop (pinned by
//! `tests/fleet_equivalence.rs`).

use crate::config::ReplicationConfig;
use crate::detector::{FailureDetector, HeartbeatSender, Lease};
use crate::engine::{Checkpointer, FailoverReport};
use crate::metrics::{EpochRecord, RunMetrics};
use crate::nilicon_engine::NiLiConEngine;
use crate::trace::{TraceEvent, Tracer};
use crate::traffic::{ClientBehavior, ClientPool};
use bytes::Bytes;
use nilicon_container::{
    encode_frame, take_frame, Application, Container, ContainerRuntime, ContainerSpec,
    GuestCtx, MemLayout,
};
use nilicon_criu::CheckpointImage;
use nilicon_sim::cluster::Cluster;
use nilicon_sim::ids::{Endpoint, HostId};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::net::InputMode;
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimError, SimResult};
use std::collections::{HashMap, VecDeque};

/// Keep-alive process cost per epoch (matches the harness).
const KEEPALIVE_COST: Nanos = 300;

/// Base address for per-lane client stacks (lane `i` gets `CLIENT_BASE+i`).
const CLIENT_BASE: u32 = 200;

fn jitter(state: &mut u64, range: Nanos) -> Nanos {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)) % range.max(1)
}

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

/// Which host currently owns (executes) a lane's container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    Primary,
    Backup,
}

/// One epoch transfer contending for the shared replication link.
struct LinkJob {
    lane: usize,
    ready: Nanos,
    dur: Nanos,
}

/// The shared primary→backup transfer link: serial, scheduled either
/// deficit-round-robin (fair) or FIFO (aligned/convoy mode).
struct SharedLink {
    fair: bool,
    busy_until: Nanos,
    /// Link time served per lane so far (the DRR deficit counter).
    served: Vec<Nanos>,
    /// Per-lane completion of the lane's own previous transfer: waiting on
    /// one's own prior epoch is pipeline overlap, not contention, and is
    /// excluded from the reported fair-share wait (a one-lane fleet must
    /// report exactly the plain engine's ack delays).
    own_busy: Vec<Nanos>,
    /// DRR quantum (wire time of one 64 KiB transfer chunk).
    quantum: Nanos,
}

impl SharedLink {
    /// Schedule a batch of transfers that became ready together (an aligned
    /// boundary produces up to N; a staggered one produces one). Returns
    /// `(lane, fair_wait, completion)` per job, where `fair_wait` is the
    /// time the transfer spent waiting on (or interleaved with) other
    /// lanes' traffic beyond its own wire time.
    fn schedule(&mut self, mut jobs: Vec<LinkJob>) -> Vec<(usize, Nanos, Nanos)> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let start = jobs
            .iter()
            .map(|j| j.ready)
            .min()
            .expect("non-empty batch")
            .max(self.busy_until);
        let mut raw: Vec<(usize, Nanos, Nanos, Nanos)> = Vec::with_capacity(jobs.len());
        if self.fair {
            // Deficit round-robin in `quantum` slices: the lane with the
            // least link time served so far goes first, so a small transfer
            // is never stuck behind a hot lane's multi-megabyte epoch.
            let mut remaining: Vec<Nanos> = jobs.iter().map(|j| j.dur).collect();
            let mut now = start;
            let mut left = jobs.len();
            while left > 0 {
                let pick = (0..jobs.len())
                    .filter(|&i| remaining[i] > 0)
                    .min_by_key(|&i| (self.served[jobs[i].lane], jobs[i].lane))
                    .expect("left > 0");
                let slice = remaining[pick].min(self.quantum.max(1));
                now += slice;
                remaining[pick] -= slice;
                self.served[jobs[pick].lane] += slice;
                if remaining[pick] == 0 {
                    let j = &jobs[pick];
                    raw.push((j.lane, j.ready, j.dur, now));
                    left -= 1;
                }
            }
            self.busy_until = now;
        } else {
            // FIFO run-to-completion in arrival (lane) order: the convoy.
            jobs.sort_by_key(|j| (j.ready, j.lane));
            let mut now = start;
            for j in jobs {
                now = now.max(j.ready) + j.dur;
                self.served[j.lane] += j.dur;
                raw.push((j.lane, j.ready, j.dur, now));
            }
            self.busy_until = now;
        }
        // Attribute waits: anything explained by the lane's own previous
        // transfer still draining is overlap, not fair-share contention.
        raw.into_iter()
            .map(|(lane, ready, dur, completion)| {
                let self_carry = self.own_busy[lane].saturating_sub(ready);
                let wait = (completion - ready).saturating_sub(dur).saturating_sub(self_carry);
                self.own_busy[lane] = completion;
                (lane, wait, ready + dur + wait)
            })
            .collect()
    }
}

/// Epoch state staged between a lane's checkpoint and its (possibly
/// fair-share-delayed) commit.
struct StagedEpoch {
    seq: u64,
    stop_eff: Nanos,
    ack_delay: Nanos,
    state_bytes: u64,
    dirty_pages: u64,
    backup_cpu: Nanos,
    exec_cpu: Nanos,
    tracking: Nanos,
    requests: u64,
    completions: Vec<(Endpoint, Nanos)>,
}

/// One replicated container multiplexed onto the shared pair.
struct Lane {
    container: Container,
    app: Box<dyn Application>,
    behavior: Option<Box<dyn ClientBehavior>>,
    pool: Option<ClientPool>,
    /// `None` after failover consumed the engine (the lane then runs
    /// unreplicated on the backup, as the paper does not re-arm).
    engine: Option<NiLiConEngine>,
    tracer: Tracer,
    /// Phase offset of this lane's epoch boundaries (`i·E/N`; 0 aligned).
    offset: Nanos,
    next_boundary: Nanos,
    /// Completed epochs (checkpoint seq is `epochs_done + 1`).
    epochs_done: u64,
    target: u64,
    pending: VecDeque<(Endpoint, Bytes, Nanos)>,
    receipts: HashMap<Endpoint, VecDeque<Nanos>>,
    metrics: RunMetrics,
    jitter_state: u64,
    cpu_debt: Nanos,
    last_stop: Nanos,
    /// When this lane's own previous dump finishes on the serial service
    /// (self-carry is pipeline overlap, not queueing — see the link's
    /// `own_busy`).
    own_dump_until: Nanos,
    sender: HeartbeatSender,
    detector: FailureDetector,
    /// Primary-side output lease (anchored at each acked epoch's end).
    holder: Lease,
    /// Backup-side promotion fence (anchored at each ack receipt).
    grant: Lease,
    owner: Owner,
    /// The owning instance is executing (false between a fault and the
    /// lane's promotion).
    alive: bool,
    fault_at: Option<Nanos>,
    /// Scripted per-epoch guest writes (equivalence tests drive lanes with
    /// the same write history a plain engine loop applies).
    script: Vec<Vec<(u64, u8)>>,
    /// Completions whose release was deferred by a partition (no ack ⇒ no
    /// output commit); discarded if the lane fails over.
    held: Vec<(Endpoint, Nanos)>,
    staged: Option<StagedEpoch>,
    failover_report: Option<FailoverReport>,
    detection_latency: Option<Nanos>,
    failovers: u64,
    split_brain: bool,
    unrecovered: bool,
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
    /// fence failed; must never happen).
    pub split_brain: bool,
    /// The lane died with no backup to promote.
    pub unrecovered: bool,
}

/// Fleet-wide outcome: per-lane results plus the shared-resource waits.
pub struct FleetResult {
    /// One result per lane, in lane order.
    pub lanes: Vec<LaneResult>,
    /// Every nonzero dump-service queue wait (the stop-phase convoy).
    pub queue_waits: Vec<Nanos>,
    /// Every nonzero shared-link wait (the commit-path contention).
    pub fair_waits: Vec<Nanos>,
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
    lanes: Vec<Lane>,
    cfg: ReplicationConfig,
    /// Serial dump service: busy until this time (stop phases queue).
    svc_busy_until: Nanos,
    link: SharedLink,
    /// Consolidated heartbeat channel: liveness bitmap per interval index.
    beat_bitmap: HashMap<u64, u64>,
    /// Whole-primary fault (all primary-owned lanes promote).
    primary_fault_at: Option<Nanos>,
    primary_faulted: bool,
    /// Replication-network partition window `[from, until)`.
    partition_window: Option<(Nanos, Nanos)>,
    partition_applied: bool,
    /// Nonzero dump-service queue waits, in occurrence order.
    queue_waits_log: Vec<Nanos>,
    /// Nonzero shared-link fair/convoy waits, in occurrence order.
    fair_waits_log: Vec<Nanos>,
}

impl FleetScheduler {
    /// Build a fleet of `lanes.len()` replicated containers on one pair.
    ///
    /// `cfg.opts.fleet` must equal the lane count (the knob is what turns
    /// the extension on; paper configs have it 0), every lane address must
    /// be unique, and `backups`, `hybrid_replay` and `rearm` must be off. Boundaries are staggered by `i·E/N` unless
    /// `cfg.opts.fleet_aligned` is set, which also downgrades the shared
    /// link from deficit-round-robin to FIFO to demonstrate the convoy.
    pub fn new(cfg: ReplicationConfig, lanes: Vec<LaneSpec>) -> SimResult<Self> {
        let n = lanes.len();
        if n == 0 || cfg.opts.fleet as usize != n {
            return Err(SimError::Invalid(format!(
                "fleet: opts.fleet ({}) must equal the lane count ({n})",
                cfg.opts.fleet
            )));
        }
        // Every lane runs the single-backup engine with neither log shipping
        // nor a rearm driver: a knob the lanes would ignore is an error, not
        // a run without the mechanism.
        for (set, knob) in [
            (cfg.opts.backups > 1, "backups"),
            (cfg.opts.hybrid_replay, "hybrid_replay"),
            (cfg.opts.rearm, "rearm"),
        ] {
            if set {
                return Err(SimError::Invalid(format!(
                    "fleet: opts.{knob} does not compose with the fleet scheduler"
                )));
            }
        }
        let mut cluster = Cluster::new();
        let primary = cluster.add_host(Kernel::default());
        let backup = cluster.add_host(Kernel::default());
        let client_host = cluster.add_host(Kernel::default());
        let blackhole = cluster.add_host(Kernel::default());
        cluster.partition(blackhole);

        let aligned = cfg.opts.fleet_aligned;
        let interval = cfg.heartbeat_interval;
        let misses = cfg.heartbeat_misses;
        let lease_term = (misses as Nanos + 2) * interval;
        let quantum = cluster.host_mut(primary).costs.repl_wire(64 * 1024).max(1);

        let mut built = Vec::with_capacity(n);
        for (i, mut ls) in lanes.into_iter().enumerate() {
            let container = ContainerRuntime::create(cluster.host_mut(primary), &ls.spec)?;
            cluster.bind_addr(ls.spec.addr, primary, container.ns.net);

            // Workload init (clear the meters so epoch 1 starts clean).
            {
                let k = cluster.host_mut(primary);
                let mut ctx = GuestCtx::new(k, container.workers[0], 0);
                ls.app.init(&mut ctx)?;
                k.meter.take();
                k.fault_meter.take();
            }

            // Per-lane client netns on the shared client host.
            let pool = match (&ls.behavior, ls.spec.listen_port) {
                (Some(b), Some(port)) => {
                    let ns = cluster
                        .host_mut(client_host)
                        .namespaces
                        .create_set(&format!("client{i}"))
                        .net;
                    let addr = CLIENT_BASE + i as u32;
                    cluster
                        .host_mut(client_host)
                        .create_stack(ns, addr, InputMode::Buffer);
                    cluster.bind_addr(addr, client_host, ns);
                    Some(ClientPool::connect(
                        &mut cluster,
                        client_host,
                        ns,
                        b.client_count(),
                        Endpoint::new(ls.spec.addr, port),
                    )?)
                }
                _ => None,
            };

            let mut engine =
                NiLiConEngine::new(cfg.opts, cluster.host_mut(primary).costs.clone());
            engine.prepare(cluster.host_mut(primary), &container)?;

            let offset = if aligned {
                0
            } else {
                (i as Nanos) * cfg.epoch_exec / n as Nanos
            };
            built.push(Lane {
                container,
                app: ls.app,
                behavior: ls.behavior,
                pool,
                engine: Some(engine),
                tracer: Tracer::disabled(),
                offset,
                next_boundary: offset + cfg.epoch_exec,
                epochs_done: 0,
                target: 0,
                pending: VecDeque::new(),
                receipts: HashMap::new(),
                metrics: RunMetrics::default(),
                jitter_state: 0x243F6A8885A308D3 ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15),
                cpu_debt: 0,
                last_stop: 0,
                own_dump_until: 0,
                sender: HeartbeatSender::new(),
                detector: FailureDetector::new(interval, misses, offset),
                holder: Lease::new(lease_term, 0),
                grant: Lease::new(lease_term, 0),
                owner: Owner::Primary,
                alive: true,
                fault_at: None,
                script: Vec::new(),
                held: Vec::new(),
                staged: None,
                failover_report: None,
                detection_latency: None,
                failovers: 0,
                split_brain: false,
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
            link: SharedLink {
                fair: !aligned,
                busy_until: 0,
                served: vec![0; n],
                own_busy: vec![0; n],
                quantum,
            },
            cfg,
            svc_busy_until: 0,
            beat_bitmap: HashMap::new(),
            primary_fault_at: None,
            primary_faulted: false,
            partition_window: None,
            partition_applied: false,
            queue_waits_log: Vec::new(),
            fair_waits_log: Vec::new(),
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
        l.detector.set_tracer(tracer.clone());
        l.tracer = tracer;
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

    /// Fail-stop the whole primary host at `t`: every primary-owned lane
    /// loses its container and promotes independently.
    pub fn inject_primary_fault_at(&mut self, t: Nanos) {
        self.primary_fault_at = Some(t);
    }

    /// Partition the primary from the backup (and clients) for
    /// `[from, until)`: acks stop, leases expire, and any lane whose grant
    /// fence runs out promotes — fenced, because the primary's holder lease
    /// expired strictly earlier.
    pub fn partition_primary(&mut self, from: Nanos, until: Nanos) {
        self.partition_window = Some((from, until));
    }

    /// The committed backup image of lane `lane` (byte-comparison seam for
    /// the `fleet == 1` equivalence bar). Errors after failover (the
    /// engine, and its agent, were consumed by the promotion).
    pub fn lane_image(&mut self, lane: usize) -> SimResult<CheckpointImage> {
        match self.lanes[lane].engine.as_ref() {
            Some(e) => e.agent.materialize(),
            None => Err(SimError::Invalid("fleet: lane failed over".into())),
        }
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
            let _ = lane.tracer.flush();
            let (broken, broken_err) = match lane.pool.as_ref() {
                Some(p) => match p.broken_connections(&mut self.cluster) {
                    Ok(b) => (b, None),
                    Err(e) => (u64::MAX, Some(format!("broken_connections: {e}"))),
                },
                None => (0, None),
            };
            let verify = match broken_err {
                Some(e) => Err(e),
                None => match &lane.behavior {
                    Some(b) => b.verify(),
                    None => Ok(()),
                },
            };
            results.push(LaneResult {
                metrics: std::mem::take(&mut lane.metrics),
                failovers: lane.failovers,
                failover: lane.failover_report.take(),
                detection_latency: lane.detection_latency,
                on_backup: lane.owner == Owner::Backup,
                broken_connections: broken,
                verify,
                split_brain: lane.split_brain,
                unrecovered: lane.unrecovered,
            });
        }
        let min_live_bits = self
            .beat_bitmap
            .values()
            .map(|b| b.count_ones())
            .min()
            .unwrap_or(n);
        FleetResult {
            lanes: results,
            queue_waits: std::mem::take(&mut self.queue_waits_log),
            fair_waits: std::mem::take(&mut self.fair_waits_log),
            heartbeat_intervals: self.beat_bitmap.len() as u64,
            min_live_bits,
        }
    }

    // ------------------------------------------------------------------
    // Event-loop internals
    // ------------------------------------------------------------------

    /// Apply scheduled world events (primary fault, partition window edges)
    /// that fire at or before boundary `t`.
    fn apply_world_events(&mut self, t: Nanos) {
        if let Some(f) = self.primary_fault_at {
            if f <= t && !self.primary_faulted {
                self.primary_faulted = true;
                self.cluster.partition(self.primary);
                for lane in &mut self.lanes {
                    if lane.owner == Owner::Primary {
                        lane.alive = false;
                        if lane.fault_at.is_none() {
                            lane.fault_at = Some(f);
                        }
                    }
                }
            }
        }
        if let Some((from, until)) = self.partition_window {
            if !self.partition_applied && t >= from && t < until {
                self.partition_applied = true;
                self.cluster.partition(self.primary);
            }
            if self.partition_applied && t >= until && !self.primary_faulted {
                self.partition_applied = false;
                self.cluster.heal(self.primary);
            }
        }
        for lane in &mut self.lanes {
            if let Some(f) = lane.fault_at {
                if f <= t && lane.owner == Owner::Primary && lane.alive {
                    lane.alive = false;
                    if !self.primary_faulted {
                        // Per-container fail-stop: only this lane's address
                        // goes dark (blackhole is permanently partitioned).
                        let ns = lane.container.ns.net;
                        self.cluster
                            .bind_addr(lane.container.spec.addr, self.blackhole, ns);
                    }
                }
            }
        }
    }

    /// Whether primary→backup (and primary→client) traffic is cut at `t`.
    fn replication_cut(&self) -> bool {
        self.primary_faulted || self.partition_applied
    }

    /// Process every lane whose boundary is exactly `t`: exec + checkpoint
    /// first (stop phases queue on the serial dump service in lane order),
    /// then one shared-link scheduling pass over the batch, then each
    /// lane's commit/release tail.
    fn process_group(&mut self, t: Nanos, group: &[usize]) -> SimResult<()> {
        let mut jobs: Vec<LinkJob> = Vec::new();
        for &li in group {
            if !self.lanes[li].alive {
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
        let promote = {
            let lane = &mut self.lanes[li];
            if lane.engine.is_none() {
                // Nothing to promote to: the service is gone.
                lane.unrecovered = true;
                return Ok(());
            }
            lane.next_boundary += self.cfg.epoch_exec;
            lane.detector.check(t) && t >= lane.grant.expires_at()
        };
        if promote {
            self.promote_lane(li, t)?;
        }
        Ok(())
    }

    /// Execute one epoch of lane `li` ending at boundary `t` on its owner
    /// host; for replicated lanes, run the stop phase (queued on the serial
    /// dump service) and return the epoch's transfer job for the shared
    /// link. Unreplicated lanes complete entirely here.
    fn lane_exec(&mut self, li: usize, t: Nanos) -> SimResult<Option<LinkJob>> {
        let epoch_exec = self.cfg.epoch_exec;
        let exec_start = t - epoch_exec;
        let host = match self.lanes[li].owner {
            Owner::Primary => self.primary,
            Owner::Backup => self.backup,
        };
        let seq = self.lanes[li].epochs_done + 1;
        let replicated = self.lanes[li].engine.is_some();

        self.lanes[li].tracer.begin_epoch(seq, exec_start);
        {
            let lane = &self.lanes[li];
            lane.tracer.mark(TraceEvent::FleetEpochStart {
                lane: li as u32,
                offset: lane.offset,
            });
        }

        // Clients: issue, pump, harvest complete frames with jittered
        // arrivals (the harness's client_turnaround, per lane).
        {
            let lane = &mut self.lanes[li];
            if let (Some(pool), Some(behavior)) = (lane.pool.as_mut(), lane.behavior.as_mut()) {
                pool.issue(&mut self.cluster, behavior.as_mut(), exec_start, epoch_exec)?;
                self.cluster.pump();
                let ns = lane.container.ns.net;
                let k = self.cluster.host_mut(host);
                let cl_lat = k.costs.client_link_latency;
                let stack = k.stack_mut(ns)?;
                for (sid, remote) in stack.established_ids() {
                    while let Some(frame) = take_frame(stack, sid, false)? {
                        let arrival =
                            exec_start + jitter(&mut lane.jitter_state, epoch_exec) + 2 * cl_lat;
                        lane.pending.push_back((remote, frame, arrival));
                    }
                }
                lane.pending
                    .make_contiguous()
                    .sort_by_key(|(_, _, arrival)| *arrival);
            }
        }

        // Scripted writes (the equivalence seam): epoch `seq` applies
        // `script[seq-1]` exactly like a plain engine-loop history.
        {
            let lane = &mut self.lanes[li];
            if let Some(writes) = lane.script.get((seq - 1) as usize).cloned() {
                let k = self.cluster.host_mut(host);
                for (page, val) in writes {
                    k.mem_write(lane.container.init_pid(), MemLayout::heap_page(page), &[val])?;
                }
            }
        }

        // Serve requests that arrived inside this epoch.
        let budget = epoch_exec;
        let mut used: Nanos = KEEPALIVE_COST + self.lanes[li].cpu_debt;
        let mut requests = 0u64;
        let mut completions: Vec<(Endpoint, Nanos)> = Vec::new();
        loop {
            let lane = &mut self.lanes[li];
            let Some((remote, req, arrival)) = lane.pending.front().cloned() else {
                break;
            };
            if arrival > t || used >= budget {
                break;
            }
            lane.pending.pop_front();
            let pid = lane.container.workers[0];
            let k = self.cluster.host_mut(host);
            let out = {
                let mut ctx = GuestCtx::new(k, pid, exec_start + used);
                lane.app.handle_request(&mut ctx, &req)?
            };
            let cost = k.meter.take();
            used += cost.max(100);
            // Duty-cycle stretch: a request takes C·(E+stop)/E of wall time
            // under replication (the container freezes every epoch).
            let wall = used * (epoch_exec + lane.last_stop) / epoch_exec;
            let t_done = arrival.max(exec_start) + wall;
            // Response goes out via the (plugged, if replicated) stack.
            let stack = k.stack_mut(lane.container.ns.net)?;
            let sid = lane
                .pool
                .as_ref()
                .and_then(|pool| stack.sock_to(pool.server, remote))
                .ok_or_else(|| SimError::Invalid(format!("fleet: no connection to {remote}")))?;
            stack.send_bytes(sid, encode_frame(&out.response).into())?;
            completions.push((remote, t_done));
            requests += 1;
        }

        let (exec_cpu, tracking) = {
            let lane = &mut self.lanes[li];
            lane.cpu_debt = used.saturating_sub(budget);
            let consumed = used.min(budget);
            let k = self.cluster.host_mut(host);
            let tracking = k.fault_meter.take();
            k.cgroups.charge_cpu(lane.container.cgroup, consumed);
            (consumed, tracking)
        };
        let now = self.cluster.clock.now().max(t);
        self.cluster.clock.advance_to(now);
        self.lanes[li]
            .tracer
            .span(TraceEvent::Exec { requests, steps: 0 }, epoch_exec);

        // Consolidated heartbeat: one channel, one liveness bit per lane.
        let cut = self.replication_cut();
        {
            let lane = &mut self.lanes[li];
            let cpuacct = self
                .cluster
                .host_mut(host)
                .cgroups
                .cpuacct_usage(lane.container.cgroup);
            let beat = lane.sender.tick(cpuacct);
            let delivered = beat && lane.owner == Owner::Primary && replicated && !cut;
            let interval_idx = t / self.cfg.heartbeat_interval.max(1);
            if delivered {
                *self.beat_bitmap.entry(interval_idx).or_insert(0) |= 1u64 << (li % 64);
                lane.detector.on_beat(t);
            } else {
                self.beat_bitmap.entry(interval_idx).or_insert(0);
            }
        }

        if !replicated {
            // Post-failover lane: unreplicated, output released immediately.
            return self.lane_release(li, t, seq, completions, exec_cpu, tracking, requests);
        }
        if cut {
            // Partitioned: the checkpoint cannot reach the backup, the ack
            // never comes, and this epoch's output stays plugged. The lease
            // is not renewed; keep executing until the fence decides.
            let lane = &mut self.lanes[li];
            lane.held.extend(completions);
            lane.epochs_done += 1;
            lane.next_boundary += epoch_exec;
            lane.metrics.push(EpochRecord {
                epoch: seq,
                stop_time: 0,
                dirty_pages: 0,
                state_bytes: 0,
                ack_delay: 0,
                exec_cpu,
                tracking_overhead: tracking,
                backup_cpu: 0,
                requests_done: requests,
                steps_done: 0,
            });
            // The backup cannot tell a dead primary from a partition: once
            // detection fires and the grant fence lapses it promotes. The
            // primary's holder lease expired strictly earlier, so the (still
            // alive) primary instance is fenced — its held output is
            // discarded at promotion, never released.
            let promotable = {
                let lane = &mut self.lanes[li];
                lane.engine.is_some() && lane.detector.check(t) && t >= lane.grant.expires_at()
            };
            if promotable {
                self.promote_lane(li, t)?;
            }
            return Ok(None);
        }

        // Stop phase: the serial dump service (one CRIU' helper per host).
        // Waiting on one's *own* previous dump (the epoch-1 full image
        // draining past later boundaries) is pre-copy-style overlap, not
        // queueing — only time spent behind other lanes counts.
        let dump_start = t.max(self.svc_busy_until);
        let queue_wait = dump_start.saturating_sub(t.max(self.lanes[li].own_dump_until));
        if queue_wait > 0 {
            self.lanes[li]
                .tracer
                .span(TraceEvent::Backpressure { stalled: queue_wait }, queue_wait);
            self.queue_waits_log.push(queue_wait);
        }
        let outcome = {
            let lane = &mut self.lanes[li];
            let engine = lane.engine.as_mut().expect("replicated lane");
            engine.pipeline_advance(epoch_exec);
            let (pk, bk) = self.cluster.two_hosts_mut(self.primary, self.backup);
            engine.checkpoint(pk, bk, &lane.container, seq)?
        };
        let stop_eff = queue_wait + outcome.stop_time;
        let dump_end = dump_start + outcome.stop_time;
        self.svc_busy_until = dump_end;
        self.lanes[li].own_dump_until = dump_end;
        self.lanes[li].staged = Some(StagedEpoch {
            seq,
            stop_eff,
            ack_delay: outcome.ack_delay,
            state_bytes: outcome.state_bytes,
            dirty_pages: outcome.dirty_pages,
            backup_cpu: outcome.backup_cpu,
            exec_cpu,
            tracking,
            requests,
            completions,
        });
        Ok(Some(LinkJob {
            lane: li,
            ready: t + stop_eff,
            dur: outcome.ack_delay,
        }))
    }

    /// Commit tail of a replicated epoch, after the shared link scheduled
    /// its transfer: reconcile, release output at the acked time, commit on
    /// the backup, renew both leases.
    fn lane_commit(&mut self, li: usize, t: Nanos, fair_wait: Nanos, completion: Nanos) -> SimResult<()> {
        let staged = self.lanes[li].staged.take().expect("staged epoch");
        if fair_wait > 0 {
            self.lanes[li].tracer.span(
                TraceEvent::FairShareWait {
                    lane: li as u32,
                    waited: fair_wait,
                },
                fair_wait,
            );
            self.fair_waits_log.push(fair_wait);
        }
        self.lanes[li]
            .tracer
            .reconcile(staged.seq, staged.stop_eff, staged.ack_delay + fair_wait)
            .map_err(SimError::Invalid)?;

        // The ack lands at `completion`; commit on the backup and release
        // this epoch's plugged output.
        {
            let lane = &mut self.lanes[li];
            let engine = lane.engine.as_mut().expect("replicated lane");
            let bk = &mut *self.cluster.host_mut(self.backup);
            engine.commit(bk, staged.seq)?;
            lane.holder.grant(t);
            lane.grant.grant(completion);
        }
        let ack_total = staged.ack_delay + fair_wait;
        let release = t + staged.stop_eff + ack_total;
        self.lanes[li].metrics.push(EpochRecord {
            epoch: staged.seq,
            stop_time: staged.stop_eff,
            dirty_pages: staged.dirty_pages,
            state_bytes: staged.state_bytes,
            ack_delay: ack_total,
            exec_cpu: staged.exec_cpu,
            tracking_overhead: staged.tracking,
            backup_cpu: staged.backup_cpu,
            requests_done: staged.requests,
            steps_done: 0,
        });
        let lane = &mut self.lanes[li];
        lane.last_stop = staged.stop_eff;
        self.release_output(li, release, staged.completions)?;
        let lane = &mut self.lanes[li];
        lane.epochs_done += 1;
        lane.next_boundary += self.cfg.epoch_exec;
        Ok(())
    }

    /// Unreplicated epoch tail (post-failover): release immediately.
    #[allow(clippy::too_many_arguments)]
    fn lane_release(
        &mut self,
        li: usize,
        t: Nanos,
        seq: u64,
        completions: Vec<(Endpoint, Nanos)>,
        exec_cpu: Nanos,
        tracking: Nanos,
        requests: u64,
    ) -> SimResult<Option<LinkJob>> {
        self.lanes[li].metrics.push(EpochRecord {
            epoch: seq,
            stop_time: 0,
            dirty_pages: 0,
            state_bytes: 0,
            ack_delay: 0,
            exec_cpu,
            tracking_overhead: tracking,
            backup_cpu: 0,
            requests_done: requests,
            steps_done: 0,
        });
        self.release_output(li, t, completions)?;
        let lane = &mut self.lanes[li];
        lane.epochs_done += 1;
        lane.next_boundary += self.cfg.epoch_exec;
        Ok(None)
    }

    /// Release the lane's plugged output at logical time `release`, stamp
    /// receipts, pump the wire, and deliver responses to the clients.
    fn release_output(
        &mut self,
        li: usize,
        release: Nanos,
        completions: Vec<(Endpoint, Nanos)>,
    ) -> SimResult<()> {
        let host = match self.lanes[li].owner {
            Owner::Primary => self.primary,
            Owner::Backup => self.backup,
        };
        let cl_lat = self.cluster.host_mut(host).costs.client_link_latency;
        {
            let lane = &mut self.lanes[li];
            let ns = lane.container.ns.net;
            let released = self.cluster.host_mut(host).stack_mut(ns)?.release_output();
            if released > 0 {
                lane.tracer.event_at(
                    TraceEvent::OutputRelease {
                        packets: released as u64,
                    },
                    release,
                );
            }
            for (remote, t_done) in completions {
                let receipt = t_done.max(release) + cl_lat;
                lane.receipts.entry(remote).or_default().push_back(receipt);
                lane.metrics
                    .release_waits
                    .push(release.saturating_sub(t_done));
            }
        }
        self.cluster.pump();
        let lane = &mut self.lanes[li];
        if let (Some(pool), Some(behavior)) = (lane.pool.as_mut(), lane.behavior.as_mut()) {
            let lats = pool.collect(
                &mut self.cluster,
                behavior.as_mut(),
                &mut lane.receipts,
                release,
                &lane.tracer,
            )?;
            lane.metrics.response_latencies.extend(lats);
        }
        Ok(())
    }

    /// Promote lane `li`'s ownership to the backup at time `t`: restore
    /// from the lane's own backup agent, move the address, discard
    /// uncommitted output, retransmit both sides. Every other lane is
    /// untouched.
    fn promote_lane(&mut self, li: usize, t: Nanos) -> SimResult<()> {
        let fault = self.lanes[li].fault_at.unwrap_or(t);
        // Exactly-one-owner fence: the primary's output lease must have
        // lapsed before the backup takes over.
        if self.lanes[li].holder.valid_at(t) {
            self.lanes[li].split_brain = true;
        }
        let detected = self.lanes[li].detector.detected_at();
        let latency = detected.map(|d| d.saturating_sub(fault));

        let mut engine = self.lanes[li].engine.take().expect("promotable lane");
        let (restored, report) = engine.failover(self.cluster.host_mut(self.backup))?;
        let now = self.cluster.clock.now().max(t);
        self.cluster.clock.advance_to(now + report.total());

        // Gratuitous ARP: the lane's address moves to the backup.
        self.cluster.bind_addr(
            restored.container.spec.addr,
            self.backup,
            restored.container.ns.net,
        );
        restored.finish(self.cluster.host_mut(self.backup))?;

        // Rebuild the app's working state from restored guest memory.
        {
            let now = self.cluster.clock.now();
            let k = self.cluster.host_mut(self.backup);
            let mut ctx = GuestCtx::new(k, restored.container.workers[0], now);
            self.lanes[li].app.recover(&mut ctx)?;
            k.meter.take();
            k.fault_meter.take();
        }

        {
            let lane = &mut self.lanes[li];
            let discarded = (lane.pending.len() + lane.held.len()) as u64;
            let now = self.cluster.clock.now();
            lane.tracer
                .event_at(TraceEvent::OutputDiscard { packets: discarded }, now);
            lane.pending.clear();
            lane.held.clear();
            if let Some(lat) = latency {
                lane.tracer.event_at(
                    TraceEvent::Failover {
                        detection_latency: lat,
                        restore: report.restore,
                        arp: report.arp,
                        tcp: report.tcp,
                        others: report.others,
                    },
                    now,
                );
            }
            lane.container = restored.container;
            lane.owner = Owner::Backup;
            lane.alive = true;
            lane.failovers += 1;
            lane.failover_report = Some(report);
            lane.detection_latency = latency;
            lane.sender = HeartbeatSender::new();
            lane.cpu_debt = 0;
            lane.last_stop = 0;
        }

        // Retransmissions: restored server sockets re-send unacked
        // responses (§V-E); clients re-send their unacked request backlog
        // (multi-segment since the RTO fix).
        let ns = self.lanes[li].container.ns.net;
        self.cluster
            .host_mut(self.backup)
            .stack_mut(ns)?
            .retransmit_all();
        let lane = &mut self.lanes[li];
        if let Some(pool) = lane.pool.as_mut() {
            pool.retransmit(&mut self.cluster)?;
        }
        self.cluster.pump();
        let now = self.cluster.clock.now();
        let lane = &mut self.lanes[li];
        if let (Some(pool), Some(behavior)) = (lane.pool.as_mut(), lane.behavior.as_mut()) {
            let lats = pool.collect(
                &mut self.cluster,
                behavior.as_mut(),
                &mut lane.receipts,
                now,
                &lane.tracer,
            )?;
            lane.metrics.response_latencies.extend(lats);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(fair: bool) -> SharedLink {
        SharedLink {
            fair,
            busy_until: 0,
            served: vec![0; 3],
            own_busy: vec![0; 3],
            quantum: 1_000_000,
        }
    }

    fn batch() -> Vec<LinkJob> {
        vec![
            LinkJob { lane: 0, ready: 0, dur: 50_000_000 },
            LinkJob { lane: 1, ready: 0, dur: 1_000_000 },
            LinkJob { lane: 2, ready: 0, dur: 1_000_000 },
        ]
    }

    fn wait_of(out: &[(usize, Nanos, Nanos)], lane: usize) -> Nanos {
        out.iter().find(|o| o.0 == lane).expect("lane scheduled").1
    }

    /// FIFO puts the hot lane's 50 ms transfer at the head and starves the
    /// two small ones; DRR's quantum interleave completes the small
    /// transfers within a few quanta.
    #[test]
    fn fair_link_does_not_starve_small_transfers_behind_a_hot_lane() {
        let fifo_out = link(false).schedule(batch());
        assert!(wait_of(&fifo_out, 1) >= 50_000_000, "FIFO convoy");
        assert!(wait_of(&fifo_out, 2) >= 50_000_000, "FIFO convoy");

        let fair_out = link(true).schedule(batch());
        assert!(
            wait_of(&fair_out, 1) <= 3_000_000,
            "DRR: small transfer unstarved, waited {}",
            wait_of(&fair_out, 1)
        );
        assert!(wait_of(&fair_out, 2) <= 3_000_000);
        // Work conservation: the hot lane still finishes by the serial sum.
        assert!(fair_out.iter().map(|o| o.2).max().unwrap() <= 52_000_001);
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

    /// The error of building a one-lane fleet under `nilicon()` + `set`.
    fn rejected(set: impl FnOnce(&mut crate::OptimizationConfig)) -> String {
        let mut cfg = ReplicationConfig::default();
        cfg.opts.fleet = 1;
        set(&mut cfg.opts);
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
        let msg = rejected(|o| (o.backups, o.quorum) = (3, 2));
        assert!(msg.contains("opts.backups"), "{msg}");
    }

    #[test]
    fn fleet_rejects_hybrid_replay() {
        let msg = rejected(|o| o.hybrid_replay = true);
        assert!(msg.contains("opts.hybrid_replay"), "{msg}");
    }

    #[test]
    fn fleet_rejects_rearm() {
        let msg = rejected(|o| o.rearm = true);
        assert!(msg.contains("opts.rearm"), "{msg}");
    }

    /// Waiting on one's own previous transfer is overlap, not contention:
    /// a lone lane's fair-share wait is always zero.
    #[test]
    fn single_lane_never_waits_on_itself() {
        let mut l = link(true);
        let first = l.schedule(vec![LinkJob { lane: 0, ready: 0, dur: 90_000_000 }]);
        assert_eq!(wait_of(&first, 0), 0);
        // Next epoch's transfer is ready long before the first drains.
        let second = l.schedule(vec![LinkJob { lane: 0, ready: 30_000_000, dur: 5_000_000 }]);
        assert_eq!(wait_of(&second, 0), 0, "self-carry excluded");
    }
}
