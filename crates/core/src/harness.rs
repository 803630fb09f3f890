//! The run harness: hosts a workload in a container and drives the epoch
//! loop of Fig. 1 — unreplicated (stock), under NiLiCon, or under any other
//! [`Checkpointer`] (the MC baseline) — with fault injection.
//!
//! ## Timing model
//!
//! Virtual time advances in epochs: an execution phase of fixed wall length
//! (30 ms), then a stop phase whose length the engine meters. Within the
//! execution phase the container can spend up to `epoch_exec × parallelism`
//! of CPU (its dedicated cores); request service costs are metered by the
//! kernel, so page-tracking faults automatically slow the container down
//! (the Fig. 3 "runtime overhead" component).
//!
//! Output commit: server responses enter the plugged qdisc during the epoch
//! and are released when the backup acknowledges that epoch's state; client
//! response latencies are computed against the *release* time (§II-A), which
//! is what produces the Table VI latency inflation.

use crate::config::ReplicationConfig;
use crate::detector::{FailureDetector, HeartbeatSender, Lease};
use crate::engine::{Checkpointer, FailoverReport};
use crate::metrics::{EpochRecord, RunMetrics};
use crate::replay::replay_tail;
use crate::trace::{TraceEvent, Tracer};
use nilicon_sim::replay::{content_hash, ReplayEvent};
use crate::traffic::{ClientBehavior, ClientPool};
use bytes::Bytes;
use nilicon_container::{
    encode_frame, take_frame, Application, Container, ContainerRuntime, ContainerSpec,
    GuestCtx, MemLayout,
};
use nilicon_sim::cluster::Cluster;
use nilicon_sim::ids::{Endpoint, HostId, Pid};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::net::{ChaosConfig, ChaosLink, InputMode, LinkDir};
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimError, SimResult, PAGE_SIZE};
use std::collections::{HashMap, VecDeque};

/// Address of the client host's stack on the bridge.
pub const CLIENT_ADDR: u32 = 200;
/// CPU cost of the keep-alive process per 30 ms interval (§IV: ~1000
/// instructions).
const KEEPALIVE_COST: Nanos = 300;

/// How the container runs.
pub enum RunMode {
    /// No replication (the paper's "stock" baseline).
    Unreplicated,
    /// Replicated under an engine (NiLiCon or MC).
    Replicated(Box<dyn Checkpointer>),
}

impl std::fmt::Debug for RunMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunMode::Unreplicated => write!(f, "Unreplicated"),
            RunMode::Replicated(e) => write!(f, "Replicated({})", e.name()),
        }
    }
}

/// Final outcome of a run.
#[derive(Debug)]
pub struct RunResult {
    /// Aggregated metrics.
    pub metrics: RunMetrics,
    /// Recovery breakdown, if a failover happened.
    pub failover: Option<FailoverReport>,
    /// Detection latency, if a fault was injected.
    pub detection_latency: Option<Nanos>,
    /// Whether the service survived every injected fault: true iff no
    /// injected fault went unrecovered (scheduled-but-never-fired faults
    /// count as unrecovered — the run ended before proving survival).
    pub recovered: bool,
    /// Completed failovers (0 or 1 in paper configurations; 2+ only with
    /// the `rearm` extension).
    pub failovers: u64,
    /// Injected primary faults the service did not survive, plus any
    /// scheduled faults that never fired.
    pub unrecovered_faults: u64,
    /// Client connections broken by RST (§VII-A criterion: must be 0).
    pub broken_connections: u64,
    /// Workload self-validation (§VII-A).
    pub verify: Result<(), String>,
}

/// Where the re-replication extension stands (always `Idle` in paper
/// configurations — every transition below is gated on
/// [`Checkpointer::supports_rearm`]).
#[derive(Debug, Clone, Copy)]
enum RearmState {
    /// No re-arm pending.
    Idle,
    /// A failover (or backup loss) happened; a bootstrap starts at `at`.
    Scheduled { at: Nanos, attempt: u32 },
    /// A replacement backup is ingesting the full bootstrap image in
    /// bounded per-epoch chunks while the promoted container keeps serving.
    Bootstrapping {
        attempt: u32,
        /// Epoch number the bootstrap image was taken at.
        epoch: u64,
        streamed_pages: u64,
        streamed_bytes: u64,
    },
    /// Redundancy re-established: incremental epochs are running again.
    Armed,
}

/// Where a coded repair stands (always `Idle` unless the active engine
/// supports the `placement` extension — see
/// [`Checkpointer::supports_placement`]). Unlike [`RearmState`], the engine
/// keeps driving epochs throughout: the placement is merely *degraded*
/// (`alive ≥ k` replicas still ack every epoch) while the lost replica's
/// fragment store regenerates on a replacement host.
#[derive(Debug, Clone, Copy)]
enum RepairState {
    /// Full redundancy (or no placement at all).
    Idle,
    /// A replica was lost with the quorum intact; a coded repair starts at
    /// `at`.
    Scheduled { at: Nanos, attempt: u32 },
    /// The replacement is regenerating the missing fragments from k peers
    /// in bounded per-epoch chunks while the primary keeps serving.
    Repairing {
        attempt: u32,
        streamed_pages: u64,
        streamed_bytes: u64,
    },
}

/// Live counters of the chaos extension, for scenario classification by the
/// `chaos` bench bin (all zero when no chaos schedule is armed).
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct ChaosStats {
    /// Partition windows the run entered.
    pub partitions: u64,
    /// Epochs whose checkpoint could not reach the backup (link cut at the
    /// epoch boundary): execution continued, output stayed plugged.
    pub stalled_epochs: u64,
    /// Epochs whose state committed on the backup but whose ack never
    /// returned (release withheld, lease not renewed).
    pub withheld_acks: u64,
    /// Output releases withheld because the primary's lease had expired
    /// (the exactly-one-owner fence).
    pub fenced_releases: u64,
    /// Failure suspicions cancelled by a late heartbeat before the lease
    /// gate allowed promotion.
    pub false_suspicions: u64,
    /// Times the primary's lease lapsed un-renewed.
    pub lease_expiries: u64,
    /// True iff the exactly-one-owner invariant was ever violated. Must stay
    /// false: a violation also fails the run with a hard error.
    pub split_brain: bool,
}

/// Chaos-mode run state: the heartbeat link under the fault schedule plus
/// both views of the output-release lease.
struct ChaosState {
    cfg: ChaosConfig,
    /// Heartbeats in flight (payload = send time).
    hb: ChaosLink<Nanos>,
    /// The primary's (conservative, early-anchored) view of its lease.
    holder: Lease,
    /// The backup's granted view (late-anchored; gates promotion).
    grant: Lease,
    last_beat_delivered: Nanos,
    holder_was_valid: bool,
    in_partition: bool,
    partition_started_at: Option<Nanos>,
    /// Acks attempted inside a partial-loss window (drives `drop_nth`).
    acks_attempted: u64,
    stats: ChaosStats,
}

/// An output release deferred to its logical release time (chaos mode): the
/// qdisc stays plugged until the lease check at flush. A primary fault in
/// the gap voids it — fault-during-output-release.
struct PendingRelease {
    release_time: Nanos,
    /// Completions riding this release: (client endpoint, service-done time).
    receipts: Vec<(Endpoint, Nanos)>,
}

/// Deterministic SplitMix64 jitter in `[0, range)`.
fn jitter(state: &mut u64, range: Nanos) -> Nanos {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)) % range.max(1)
}

/// The harness itself.
pub struct RunHarness {
    /// The simulated cluster: primary, backup, client hosts.
    pub cluster: Cluster,
    /// Primary host id.
    pub primary: HostId,
    /// Backup host id.
    pub backup: HostId,
    /// Client host id.
    pub client_host: HostId,
    container: Container,
    app: Box<dyn Application>,
    behavior: Option<Box<dyn ClientBehavior>>,
    pool: Option<ClientPool>,
    cfg: ReplicationConfig,
    mode: RunMode,
    parallelism: f64,
    metrics: RunMetrics,
    /// Request frames awaiting service: (client endpoint, payload, arrival).
    pending: VecDeque<(Endpoint, Bytes, Nanos)>,
    /// Per-connection queue of logical response receipt times.
    receipts: HashMap<Endpoint, VecDeque<Nanos>>,
    sender: HeartbeatSender,
    detector: FailureDetector,
    /// Pending primary-host faults, in firing order.
    faults: VecDeque<Nanos>,
    /// Pending backup-host faults, in firing order.
    backup_faults: VecDeque<Nanos>,
    stage_fails: VecDeque<(Nanos, u64)>,
    failover_report: Option<FailoverReport>,
    detection_latency: Option<Nanos>,
    on_backup: bool,
    /// Whether the run was constructed replicated (fault injection into a
    /// stock run is a harness-usage error, even after degradation).
    replicated_run: bool,
    failovers: u64,
    unrecovered_faults: u64,
    /// The service is gone (unprotected fault): no further epochs run.
    dead: bool,
    rearm: RearmState,
    repair: RepairState,
    /// The engine while it is not driving epochs (between a failover and
    /// the completion of the re-replication bootstrap).
    parked: Option<Box<dyn Checkpointer>>,
    /// Completions produced during a bootstrap: their responses sit in the
    /// plugged qdisc until the first post-re-arm epoch commits (the
    /// bootstrap image predates them, so output commit must wait for the
    /// first incremental checkpoint that covers them).
    held: Vec<(Endpoint, Nanos)>,
    epoch: u64,
    rr: u64,
    batch_done: bool,
    jitter_state: u64,
    /// CPU consumed beyond the previous epoch's budget (a request larger
    /// than one epoch's budget keeps the cores busy into the next epoch).
    cpu_debt: Nanos,
    /// Previous epoch's stop time — the steady-state duty-cycle stretch for
    /// service-time accounting (a C-ms request takes C·(E+stop)/E of wall
    /// time under replication because the container freezes every epoch).
    last_stop: Nanos,
    /// Chaos extension state (None on every paper path).
    chaos: Option<ChaosState>,
    /// Chaos mode: the release deferred from the previous epoch, if any.
    pending_release: Option<PendingRelease>,
    tracer: Tracer,
}

impl std::fmt::Debug for RunHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHarness")
            .field("mode", &self.mode)
            .field("epoch", &self.epoch)
            .field("on_backup", &self.on_backup)
            .finish()
    }
}

impl RunHarness {
    /// Build a harness: three hosts, the container on the primary, the
    /// workload initialized, clients connected (if `behavior` is given), and
    /// the engine prepared (if replicated).
    ///
    /// `parallelism` is the workload's usable core count (drives the exec
    /// CPU budget and Table V's "Active" row).
    pub fn new(
        spec: ContainerSpec,
        mut app: Box<dyn Application>,
        behavior: Option<Box<dyn ClientBehavior>>,
        mut mode: RunMode,
        cfg: ReplicationConfig,
        parallelism: f64,
    ) -> SimResult<Self> {
        let mut cluster = Cluster::new();
        let primary = cluster.add_host(Kernel::default());
        let backup = cluster.add_host(Kernel::default());
        let client_host = cluster.add_host(Kernel::default());

        // Container on the primary.
        let container = ContainerRuntime::create(cluster.host_mut(primary), &spec)?;
        cluster.bind_addr(spec.addr, primary, container.ns.net);

        // Client stack.
        let client_ns = cluster
            .host_mut(client_host)
            .namespaces
            .create_set("client")
            .net;
        cluster
            .host_mut(client_host)
            .create_stack(client_ns, CLIENT_ADDR, InputMode::Buffer);
        cluster.bind_addr(CLIENT_ADDR, client_host, client_ns);

        // Workload init.
        {
            let k = cluster.host_mut(primary);
            let mut ctx = GuestCtx::new(k, container.workers[0], 0);
            app.init(&mut ctx)?;
            k.meter.take();
            k.fault_meter.take();
        }

        // Clients connect before the qdisc is plugged (handshakes flow
        // freely during setup).
        let pool = match (&behavior, spec.listen_port) {
            (Some(b), Some(port)) => Some(ClientPool::connect(
                &mut cluster,
                client_host,
                client_ns,
                b.client_count(),
                Endpoint::new(spec.addr, port),
            )?),
            _ => None,
        };

        // Engine preparation (arms tracking, plugs the qdisc).
        if let RunMode::Replicated(engine) = &mut mode {
            engine.prepare(cluster.host_mut(primary), &container)?;
            cluster.host_mut(primary).meter.take();
            if engine.supports_replay() {
                // Hybrid replay: the primary kernel records nondeterministic
                // events from here on (dormant on every paper row).
                cluster.host_mut(primary).replay.enable();
            }
        }

        let interval = cfg.heartbeat_interval;
        let misses = cfg.heartbeat_misses;
        let replicated_run = matches!(mode, RunMode::Replicated(_));
        Ok(RunHarness {
            cluster,
            primary,
            backup,
            client_host,
            container,
            app,
            behavior,
            pool,
            cfg,
            mode,
            parallelism,
            metrics: RunMetrics::default(),
            pending: VecDeque::new(),
            receipts: HashMap::new(),
            sender: HeartbeatSender::new(),
            detector: FailureDetector::new(interval, misses, 0),
            faults: VecDeque::new(),
            backup_faults: VecDeque::new(),
            stage_fails: VecDeque::new(),
            failover_report: None,
            detection_latency: None,
            on_backup: false,
            replicated_run,
            failovers: 0,
            unrecovered_faults: 0,
            dead: false,
            rearm: RearmState::Idle,
            repair: RepairState::Idle,
            parked: None,
            held: Vec::new(),
            epoch: 0,
            rr: 0,
            batch_done: false,
            jitter_state: 0x243F6A8885A308D3,
            cpu_debt: 0,
            last_stop: 0,
            chaos: None,
            pending_release: None,
            tracer: Tracer::disabled(),
        })
    }

    /// Arm the chaos extension: inject the network-fault schedule on the
    /// replication/heartbeat link and turn on the output-release lease
    /// (split-brain fence). Call on a replicated harness before any epochs
    /// run; paper rows never call this, so the paper path is untouched.
    ///
    /// The lease term defaults to `(heartbeat_misses + 2) × interval`
    /// (150 ms in the paper config) — deliberately longer than the 90 ms
    /// detection threshold, so a false suspicion under delay can resolve
    /// before the promotion gate opens. The price of the fence is promotion
    /// latency: the backup waits out the granted lease even when the primary
    /// is truly dead.
    pub fn set_chaos(&mut self, cfg: ChaosConfig) {
        self.set_chaos_with_lease(cfg, None)
    }

    /// [`RunHarness::set_chaos`] with an explicit lease term override.
    pub fn set_chaos_with_lease(&mut self, mut cfg: ChaosConfig, lease_term: Option<Nanos>) {
        if cfg.link_latency == 0 {
            cfg.link_latency = self.cluster.host_mut(self.primary).costs.repl_link_latency;
        }
        let term = lease_term.unwrap_or(
            (self.cfg.heartbeat_misses as Nanos + 2) * self.cfg.heartbeat_interval,
        );
        let now = self.cluster.clock.now();
        let hb = ChaosLink::new(LinkDir::AtoB, cfg.link_latency, cfg.schedule.clone());
        self.chaos = Some(ChaosState {
            hb,
            holder: Lease::new(term, now),
            grant: Lease::new(term, now),
            last_beat_delivered: now,
            holder_was_valid: true,
            in_partition: false,
            partition_started_at: None,
            acks_attempted: 0,
            stats: ChaosStats::default(),
            cfg,
        });
    }

    /// Chaos counters so far (None if [`RunHarness::set_chaos`] was never
    /// called).
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(|c| c.stats)
    }

    /// Whether replication is currently driving epochs (false after a
    /// non-rearm failover or backup loss).
    pub fn replication_active(&self) -> bool {
        matches!(self.mode, RunMode::Replicated(_))
    }

    /// Whether the hybrid-replay extension is recording this run's epochs
    /// (the active engine supports it and is driving epochs).
    fn replay_on(&self) -> bool {
        matches!(&self.mode, RunMode::Replicated(e) if e.supports_replay())
    }

    /// Byte snapshot of the active container's guest heap: `pages` pages per
    /// worker process, unmapped pages reading as zeros. This is the
    /// committed-state probe behind the chaos matrix's byte-identical check
    /// (the `tests/cow_equivalence.rs` pattern as a harness method).
    pub fn snapshot_heap(&mut self, pages: u64) -> Vec<u8> {
        let host = self.active_host();
        let mut out = Vec::new();
        for pid in self.container.workers.clone() {
            for page in 0..pages {
                let mut buf = vec![0u8; PAGE_SIZE];
                let _ = self
                    .cluster
                    .host_mut(host)
                    .mem_read(pid, MemLayout::heap_page(page), &mut buf);
                out.extend_from_slice(&buf);
            }
        }
        out
    }

    /// Attach a [`Tracer`]: the harness, the engine, and the failure
    /// detector all emit spans/events into it (see `OBSERVABILITY.md` for
    /// the schema). Call before running epochs.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        if let RunMode::Replicated(engine) = &mut self.mode {
            engine.set_tracer(tracer.clone());
        }
        self.detector.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Schedule a fail-stop fault of the active host at absolute virtual
    /// time `t` (§VII-A). May be called repeatedly: faults fire in time
    /// order, and with the `rearm` extension a later fault exercises a
    /// second failover onto the bootstrapped replacement backup.
    pub fn inject_fault_at(&mut self, t: Nanos) {
        let pos = self
            .faults
            .iter()
            .position(|&f| f > t)
            .unwrap_or(self.faults.len());
        self.faults.insert(pos, t);
    }

    /// Schedule a fail-stop fault of the *backup* host at `t`. During a
    /// re-replication bootstrap this kills the replacement (the bootstrap
    /// aborts and retries with backoff); against a healthy replicated pair
    /// it degrades the run to unreplicated.
    pub fn inject_backup_fault_at(&mut self, t: Nanos) {
        let pos = self
            .backup_faults
            .iter()
            .position(|&f| f > t)
            .unwrap_or(self.backup_faults.len());
        self.backup_faults.insert(pos, t);
    }

    /// Schedule a one-shot pipeline-stage crash: at the first checkpoint at
    /// or after virtual time `t`, the engine's staged transfer loses its
    /// ingest stage when it reaches `chunk` (replayed from the bounded
    /// channel's peek-before-commit slot — see `DESIGN.md` §12). A no-op
    /// for engines without staged transfer.
    pub fn inject_stage_fail_at(&mut self, t: Nanos, chunk: u64) {
        let pos = self
            .stage_fails
            .iter()
            .position(|&(f, _)| f > t)
            .unwrap_or(self.stage_fails.len());
        self.stage_fails.insert(pos, (t, chunk));
    }

    fn active_host(&self) -> HostId {
        if self.on_backup {
            self.backup
        } else {
            self.primary
        }
    }

    /// Current container handle.
    pub fn container(&self) -> &Container {
        &self.container
    }

    /// True once the batch workload reported completion.
    pub fn batch_done(&self) -> bool {
        self.batch_done
    }

    /// Completed epochs so far.
    pub fn epochs_run(&self) -> u64 {
        self.epoch
    }

    /// Whether the run has failed over at least once (the container now
    /// lives on a host other than the original primary).
    pub fn on_backup(&self) -> bool {
        self.on_backup || self.failovers > 0
    }

    /// Completed failovers so far.
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Whether the `rearm` extension has re-established redundancy after
    /// the most recent failover (or backup loss).
    pub fn rearmed(&self) -> bool {
        matches!(self.rearm, RearmState::Armed)
    }

    /// Whether a coded repair is scheduled or streaming (the placement
    /// extension's degraded window).
    pub fn repair_active(&self) -> bool {
        !matches!(self.repair, RepairState::Idle)
    }

    // ------------------------------------------------------------------
    // Client plumbing
    // ------------------------------------------------------------------

    /// Issue requests from idle clients, pump the wire, and harvest complete
    /// frames into `pending` (with jittered arrival times — real clients are
    /// not phase-locked to the epoch clock).
    fn client_turnaround(&mut self, base: Nanos) -> SimResult<()> {
        let jitter_range = self.cfg.epoch_exec;
        if let (Some(pool), Some(behavior)) = (self.pool.as_mut(), self.behavior.as_mut()) {
            pool.issue(&mut self.cluster, behavior.as_mut(), base, jitter_range)?;
        } else {
            return Ok(());
        }
        self.cluster.pump();

        let host = self.active_host();
        let ns = self.container.ns.net;
        let k = self.cluster.host_mut(host);
        let cl_lat = k.costs.client_link_latency;
        let stack = k.stack_mut(ns)?;
        for (sid, remote) in stack.established_ids() {
            while let Some(frame) = take_frame(stack, sid, false)? {
                let arrival = base + jitter(&mut self.jitter_state, jitter_range) + 2 * cl_lat;
                self.pending.push_back((remote, frame, arrival));
            }
        }
        self.pending
            .make_contiguous()
            .sort_by_key(|(_, _, arrival)| *arrival);
        Ok(())
    }

    /// Deliver released responses to clients at their logical receipt times;
    /// record latencies.
    fn client_collect(&mut self, fallback_now: Nanos) -> SimResult<()> {
        if let (Some(pool), Some(behavior)) = (self.pool.as_mut(), self.behavior.as_mut()) {
            let lats = pool.collect(
                &mut self.cluster,
                behavior.as_mut(),
                &mut self.receipts,
                fallback_now,
                &self.tracer,
            )?;
            self.metrics.response_latencies.extend(lats);
        }
        Ok(())
    }

    /// Send one response on the connection to `remote` (looked up fresh so
    /// it works across failovers).
    fn send_response(&mut self, remote: Endpoint, payload: &[u8]) -> SimResult<()> {
        let host = self.active_host();
        let ns = self.container.ns.net;
        let stack = self.cluster.host_mut(host).stack_mut(ns)?;
        let sid = self
            .pool
            .as_ref()
            .and_then(|pool| stack.sock_to(pool.server, remote))
            .ok_or_else(|| SimError::Invalid(format!("no connection to {remote}")))?;
        stack.send_bytes(sid, encode_frame(payload).into())?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Chaos extension: faulty links, leases, fencing
    // ------------------------------------------------------------------

    /// Route a heartbeat: directly to the detector (paper path), or into the
    /// chaos link, to be delivered by a later [`RunHarness::chaos_deliver_beats`].
    fn chaos_beat(&mut self, t: Nanos) {
        match self.chaos.as_mut() {
            Some(ch) => ch.hb.send(t, t),
            None => self.detector.on_beat(t),
        }
    }

    /// Deliver every chaos-link heartbeat due by `now` (no-op without chaos).
    fn chaos_deliver_beats(&mut self, now: Nanos) {
        if let Some(ch) = self.chaos.as_mut() {
            for (at, _sent) in ch.hb.poll(now) {
                ch.last_beat_delivered = ch.last_beat_delivered.max(at);
                self.detector.on_beat(at);
            }
        }
    }

    /// Emit `PartitionStart`/`PartitionHeal`/`LeaseExpire` markers on
    /// schedule and lease edges.
    fn chaos_edges(&mut self, now: Nanos) {
        let Some(ch) = self.chaos.as_mut() else {
            return;
        };
        let part = ch.cfg.schedule.partitioned(now);
        if part && !ch.in_partition {
            ch.in_partition = true;
            ch.partition_started_at = Some(now);
            ch.stats.partitions += 1;
            self.tracer.event_at(TraceEvent::PartitionStart, now);
        } else if !part && ch.in_partition {
            ch.in_partition = false;
            self.tracer.event_at(TraceEvent::PartitionHeal, now);
        }
        if ch.holder_was_valid && !ch.holder.valid_at(now) {
            ch.holder_was_valid = false;
            ch.stats.lease_expiries += 1;
            self.tracer.event_at(
                TraceEvent::LeaseExpire {
                    at: ch.holder.expires_at(),
                },
                ch.holder.expires_at(),
            );
        }
    }

    /// Flush the deferred output release, if any. If the primary's lease is
    /// still valid at the logical release time, release and deliver;
    /// otherwise *fence*: the packets stay plugged (they ride the next valid
    /// release, or die with the primary) and only the event is emitted.
    fn chaos_flush_pending(&mut self, _now: Nanos) -> SimResult<()> {
        let Some(pr) = self.pending_release.take() else {
            return Ok(());
        };
        let valid = self
            .chaos
            .as_ref()
            .expect("pending release without chaos state")
            .holder
            .valid_at(pr.release_time);
        if !valid {
            self.tracer.event_at(
                TraceEvent::FencedOutput {
                    packets: pr.receipts.len() as u64,
                },
                pr.release_time,
            );
            self.chaos.as_mut().expect("chaos").stats.fenced_releases += 1;
            self.held.extend(pr.receipts);
            return Ok(());
        }
        let ns = self.container.ns.net;
        let released = self
            .cluster
            .host_mut(self.primary)
            .stack_mut(ns)?
            .release_output();
        self.tracer.event_at(
            TraceEvent::OutputRelease {
                packets: released as u64,
            },
            pr.release_time,
        );
        self.cluster.pump();
        let cl = self
            .cluster
            .host_mut(self.primary)
            .costs
            .client_link_latency;
        let held = std::mem::take(&mut self.held);
        for (remote, t_done) in held.into_iter().chain(pr.receipts) {
            let receipt = t_done.max(pr.release_time) + cl;
            self.receipts.entry(remote).or_default().push_back(receipt);
        }
        self.client_collect(pr.release_time)?;
        Ok(())
    }

    /// Chaos-mode epoch prologue: flush the deferred release, trace schedule
    /// edges, deliver in-flight heartbeats, then resolve any standing
    /// suspicion — rescind it if a later beat arrived (false positive), or
    /// promote the backup once the *granted* lease has expired. Returns true
    /// if a promotion consumed this epoch slot.
    fn chaos_prologue(&mut self) -> SimResult<bool> {
        let now = self.cluster.clock.now();
        self.chaos_flush_pending(now)?;
        self.chaos_edges(now);
        self.chaos_deliver_beats(now);
        if !matches!(self.mode, RunMode::Replicated(_)) {
            return Ok(false);
        }
        if self.detector.check(now) {
            let det = self.detector.detected_at().expect("check returned true");
            let (late_beat, grant_expiry) = {
                let ch = self.chaos.as_ref().expect("chaos prologue");
                (ch.last_beat_delivered, ch.grant.expires_at())
            };
            if late_beat > det {
                // A beat arrived after the suspicion began: false positive.
                // The lease gate bought the time to notice — rescind.
                self.tracer.event_at(
                    TraceEvent::FalseSuspicion {
                        suspected_for: late_beat - det,
                    },
                    late_beat,
                );
                self.detector.rescind(late_beat);
                self.chaos.as_mut().expect("chaos").stats.false_suspicions += 1;
            } else if now >= grant_expiry {
                self.chaos_promote(now)?;
                return Ok(true);
            }
            // Suspicion stands but the grant is still live: the backup
            // waits — exactly the delay that prevents split-brain.
        }
        Ok(false)
    }

    /// Promote the backup on granted-lease expiry (the primary may be alive
    /// but unreachable — a partition, not a fault). Safe because the
    /// primary's own lease expired strictly earlier, so it is already
    /// fenced: its plugged output can never be released. Checked, not
    /// assumed — a violation is reported as split-brain and fails the run.
    fn chaos_promote(&mut self, now: Nanos) -> SimResult<()> {
        {
            let ch = self.chaos.as_mut().expect("chaos promote");
            if ch.holder.valid_at(now) {
                ch.stats.split_brain = true;
                return Err(SimError::Invalid(format!(
                    "split-brain: promoting at {now}ns while the primary's output lease is \
                     valid until {}ns",
                    ch.holder.expires_at()
                )));
            }
        }
        // The fenced primary withdraws (fail-stop its traffic); whatever it
        // still held plugged is discarded exactly as at a real fault.
        self.cluster.partition(self.primary);
        let voided: Vec<(Endpoint, Nanos)> = self
            .pending_release
            .take()
            .map(|p| p.receipts)
            .unwrap_or_default();
        // "Detection latency" for a partition is measured from its start.
        let since = self
            .chaos
            .as_ref()
            .expect("chaos")
            .partition_started_at
            .unwrap_or(now);
        let latency = now.saturating_sub(since);
        self.detection_latency = Some(latency);
        self.promote_backup(latency, voided)
    }

    // ------------------------------------------------------------------
    // The epoch loop
    // ------------------------------------------------------------------

    /// Run up to `n` epochs (stops early if a batch workload completes or
    /// the service dies to an unprotected fault).
    pub fn run_epochs(&mut self, n: u64) -> SimResult<()> {
        for _ in 0..n {
            if self.batch_done || self.dead {
                break;
            }
            let now = self.cluster.clock.now();
            // Chaos: a release that logically precedes the next fault
            // flushes first; a fault landing inside the release gap leaves
            // it pending — the fault handler voids it
            // (fault-during-output-release) or flushes it (backup faults:
            // the ack had already committed).
            if let Some(release_time) = self.pending_release.as_ref().map(|p| p.release_time) {
                let next_fault = match (self.faults.front(), self.backup_faults.front()) {
                    (Some(&p), Some(&b)) => Some(p.min(b)),
                    (Some(&p), None) => Some(p),
                    (None, Some(&b)) => Some(b),
                    (None, None) => None,
                };
                if next_fault.is_none_or(|f| release_time <= f) {
                    self.chaos_flush_pending(now)?;
                }
            }
            let horizon = now + self.cfg.epoch_exec;
            let bf_due = self.backup_faults.front().is_some_and(|&t| t <= horizon);
            let pf_due = self.faults.front().is_some_and(|&t| t <= horizon);
            if bf_due && (!pf_due || self.backup_faults[0] <= self.faults[0]) {
                let t = self.backup_faults.pop_front().expect("front checked");
                self.handle_backup_fault(t.max(now))?;
                continue;
            }
            if pf_due {
                let t = self.faults.pop_front().expect("front checked");
                if self.replay_on() {
                    // Hybrid replay: execution up to the fault instant is
                    // recoverable via the log, so serve the partial epoch
                    // before failing over instead of rounding down to the
                    // previous checkpoint.
                    self.run_truncated_epoch(t.max(now))?;
                    continue;
                }
                self.handle_primary_fault(t.max(now))?;
                continue;
            }
            self.rearm_tick()?;
            self.repair_tick()?;
            self.run_one_epoch()?;
        }
        self.metrics.elapsed = self.cluster.clock.now();
        Ok(())
    }

    /// Run epochs until the batch workload completes (bounded by
    /// `max_epochs`). Errors if the bound is hit first.
    pub fn run_batch_to_completion(&mut self, max_epochs: u64) -> SimResult<()> {
        let mut left = max_epochs;
        while !self.batch_done {
            if left == 0 {
                return Err(SimError::Invalid(
                    "batch did not complete within bound".into(),
                ));
            }
            let chunk = left.min(64);
            self.run_epochs(chunk)?;
            left -= chunk;
        }
        self.metrics.elapsed = self.cluster.clock.now();
        Ok(())
    }

    fn run_one_epoch(&mut self) -> SimResult<()> {
        if self.chaos.is_some() && self.chaos_prologue()? {
            // A lease-expiry promotion consumed this epoch slot.
            return Ok(());
        }
        let exec_start = self.cluster.clock.now();
        let host = self.active_host();
        self.tracer.begin_epoch(self.epoch, exec_start);

        // --- Client requests arrive -------------------------------------
        self.client_turnaround(exec_start)?;

        // --- Execution phase --------------------------------------------
        let budget = (self.cfg.epoch_exec as f64 * self.parallelism) as Nanos;
        let epoch_end = exec_start + self.cfg.epoch_exec;
        let mut used: Nanos = KEEPALIVE_COST + self.cpu_debt;
        let mut requests_done = 0u64;
        let mut steps_done = 0u64;
        let mut completions: Vec<(Endpoint, Nanos)> = Vec::new();
        // Hybrid-replay accounting: per-epoch log traffic, shipped as the
        // execution phase produces it (HyCoR-style continuous streaming).
        let replay_on = self.replay_on();
        let cl_lat = self.cluster.host_mut(host).costs.client_link_latency;
        let mut log_events = 0u64;
        let mut log_bytes = 0u64;
        let mut log_time: Nanos = 0;
        let mut log_commit_max: Nanos = 0;
        let mut log_backup_cpu: Nanos = 0;
        let mut step_events: Vec<ReplayEvent> = Vec::new();

        {
            let k = self.cluster.host_mut(host);
            k.meter.take();
            k.fault_meter.take();
        }

        if self.app.is_server() {
            while used < budget {
                let Some(pos) = self
                    .pending
                    .iter()
                    .position(|(_, _, arrival)| *arrival <= epoch_end)
                else {
                    break;
                };
                let (remote, req, arrival) = self.pending.remove(pos).expect("pos valid");
                let pid = self.pick_worker();
                let response = {
                    let k = self.cluster.host_mut(host);
                    let mut ctx = GuestCtx::new(k, pid, exec_start + used);
                    self.app.handle_request(&mut ctx, &req)?
                };
                let cost = self.cluster.host_mut(host).meter.take();
                used += cost.max(100);
                // Wall time to completion: queueing + service, stretched by
                // the epoch duty cycle (the container is frozen for
                // `last_stop` out of every `epoch_exec + last_stop`).
                let stretch_num = self.cfg.epoch_exec + self.last_stop;
                let wall_used = used.saturating_mul(stretch_num) / self.cfg.epoch_exec;
                let t_done = arrival.max(exec_start) + wall_used;
                self.send_response(remote, &response.response)?;
                requests_done += 1;
                if replay_on {
                    // Ship this completion's log chunk immediately; once the
                    // backup acks the chunk the response is externalizable —
                    // it does not wait for the epoch checkpoint.
                    let t_chunk = exec_start + used;
                    let blocked = self
                        .chaos
                        .as_ref()
                        .is_some_and(|ch| ch.cfg.schedule.blocked(t_chunk, LinkDir::AtoB));
                    if blocked {
                        // The log link is cut: the chunk cannot commit, so
                        // this completion falls back to the epoch-ack path.
                        completions.push((remote, t_done));
                    } else {
                        let ev = ReplayEvent::Request {
                            pid,
                            at: arrival,
                            payload: req,
                            response_hash: content_hash(&response.response),
                            response_len: response.response.len() as u32,
                        };
                        let ship = {
                            let RunMode::Replicated(engine) = &mut self.mode else {
                                unreachable!()
                            };
                            let (pk, _bk) =
                                self.cluster.two_hosts_mut(self.primary, self.backup);
                            engine.ship_log(pk, self.epoch, &[ev])?
                        };
                        log_events += 1;
                        log_bytes += ship.bytes;
                        log_time += ship.commit_latency;
                        log_commit_max = log_commit_max.max(ship.commit_latency);
                        log_backup_cpu += ship.backup_cpu;
                        self.metrics.release_waits.push(ship.commit_latency);
                        self.receipts
                            .entry(remote)
                            .or_default()
                            .push_back(t_done + ship.commit_latency + cl_lat);
                    }
                } else {
                    completions.push((remote, t_done));
                }
            }
        } else {
            while used < budget && !self.batch_done {
                let pid = self.container.workers[0];
                let outcome = {
                    let k = self.cluster.host_mut(host);
                    let mut ctx = GuestCtx::new(k, pid, exec_start + used);
                    self.app.step(&mut ctx)?
                };
                let cost = self.cluster.host_mut(host).meter.take();
                used += cost.max(100);
                steps_done += 1;
                if replay_on {
                    step_events.push(ReplayEvent::Step {
                        pid,
                        at: exec_start + used,
                        done: outcome.done,
                    });
                }
                if outcome.done {
                    self.batch_done = true;
                }
            }
        }

        // Batch workloads have no per-request output to release early, so
        // their step log ships as one aggregate chunk at the epoch boundary.
        if replay_on && !step_events.is_empty() {
            let blocked = self
                .chaos
                .as_ref()
                .is_some_and(|ch| ch.cfg.schedule.blocked(epoch_end, LinkDir::AtoB));
            if !blocked {
                let n = step_events.len() as u64;
                let ship = {
                    let RunMode::Replicated(engine) = &mut self.mode else {
                        unreachable!()
                    };
                    let (pk, _bk) = self.cluster.two_hosts_mut(self.primary, self.backup);
                    engine.ship_log(pk, self.epoch, &step_events)?
                };
                log_events += n;
                log_bytes += ship.bytes;
                log_time += ship.commit_latency;
                log_commit_max = log_commit_max.max(ship.commit_latency);
                log_backup_cpu += ship.backup_cpu;
            }
        }

        self.cpu_debt = used.saturating_sub(budget);
        let consumed = used.min(budget);
        let tracking_overhead = self.cluster.host_mut(host).fault_meter.take();
        let cg = self.container.cgroup;
        self.cluster.host_mut(host).cgroups.charge_cpu(cg, consumed);
        self.cluster.clock.advance_to(epoch_end);
        self.tracer.span(
            TraceEvent::Exec {
                requests: requests_done,
                steps: steps_done,
            },
            self.cfg.epoch_exec,
        );

        // --- Heartbeat ---------------------------------------------------
        let cpuacct = self.cluster.host_mut(host).cgroups.cpuacct_usage(cg);
        if self.sender.tick(cpuacct) && !self.cluster.is_partitioned(host) {
            self.chaos_beat(epoch_end);
        }

        // --- Stop phase / release ----------------------------------------
        let epoch = self.epoch;
        if matches!(self.mode, RunMode::Unreplicated) {
            self.cluster.pump();
            if matches!(self.rearm, RearmState::Bootstrapping { .. }) {
                // Responses stay in the plugged qdisc: the bootstrap image
                // predates them, so they are only releasable once the first
                // post-re-arm incremental checkpoint commits.
                self.held.extend(completions);
                self.metrics.push(EpochRecord {
                    epoch,
                    exec_cpu: consumed,
                    tracking_overhead,
                    requests_done,
                    steps_done,
                    ..Default::default()
                });
                self.bootstrap_step_epoch()?;
            } else {
                let cl = self.cluster.host_mut(host).costs.client_link_latency;
                for (remote, t_done) in completions {
                    self.receipts
                        .entry(remote)
                        .or_default()
                        .push_back(t_done + cl);
                }
                self.client_collect(epoch_end)?;
                self.metrics.push(EpochRecord {
                    epoch,
                    exec_cpu: consumed,
                    tracking_overhead,
                    requests_done,
                    steps_done,
                    ..Default::default()
                });
            }
        } else if self
            .chaos
            .as_ref()
            .is_some_and(|ch| ch.cfg.schedule.blocked(epoch_end, LinkDir::AtoB))
        {
            // Chaos: the transfer direction is cut at the epoch boundary —
            // the checkpoint cannot reach the backup, so the epoch *stalls*:
            // no stop phase, output stays plugged, and the dirty state
            // accumulates into the first post-heal checkpoint (soft-dirty
            // tracking is cumulative until cleared by a dump). The backup
            // sees silence and starts suspecting.
            self.held.extend(completions);
            self.chaos.as_mut().expect("chaos").stats.stalled_epochs += 1;
            self.metrics.push(EpochRecord {
                epoch,
                exec_cpu: consumed,
                tracking_overhead,
                requests_done,
                steps_done,
                ..Default::default()
            });
        } else {
            let outcome = {
                let RunMode::Replicated(engine) = &mut self.mode else {
                    unreachable!()
                };
                // The execution phase that just ended is overlap time for the
                // engine's background pipeline stages (staged-pipeline
                // extension; a no-op for synchronous engines). Whatever
                // backlog remains surfaces as backpressure in the checkpoint.
                engine.pipeline_advance(self.cfg.epoch_exec);
                while self
                    .stage_fails
                    .front()
                    .is_some_and(|&(t, _)| t <= self.cluster.clock.now())
                {
                    let (_, chunk) = self.stage_fails.pop_front().expect("front checked");
                    engine.inject_stage_fail(chunk);
                }
                let (pk, bk) = self.cluster.two_hosts_mut(self.primary, self.backup);
                engine.checkpoint(pk, bk, &self.container, epoch)?
            };
            self.cluster.clock.advance(outcome.stop_time);
            self.last_stop = outcome.stop_time;
            if replay_on {
                // The seal rides the checkpoint transfer: it marks the
                // epoch's log complete so a failover can replay it whole.
                let RunMode::Replicated(engine) = &mut self.mode else {
                    unreachable!()
                };
                engine.seal_log(epoch)?;
            }
            // Chaos delay spikes stretch the ack round-trip (transfer out
            // plus ack back). With a staging engine the stretch is an
            // explicit ack-phase span so the reconciliation identity still
            // tiles; inline engines (ack_delay == 0) get a zero-duration
            // marker instead, since their ack spans are already folded into
            // the stop time.
            let chaos_extra = self
                .chaos
                .as_ref()
                .map_or(0, |ch| 2 * ch.cfg.schedule.delay_extra(epoch_end));
            if chaos_extra > 0 {
                if outcome.ack_delay > 0 {
                    self.tracer
                        .span(TraceEvent::ChaosDelay { extra: chaos_extra }, chaos_extra);
                } else {
                    self.tracer.mark(TraceEvent::ChaosDelay { extra: chaos_extra });
                }
            }
            let traced_ack = if outcome.ack_delay > 0 {
                outcome.ack_delay + chaos_extra
            } else {
                outcome.ack_delay
            };
            // The engine's phase spans must tile exactly the stop time and
            // ack delay it reported (the OBSERVABILITY.md invariant).
            if replay_on {
                if log_events > 0 {
                    self.tracer.span(
                        TraceEvent::LogShip {
                            events: log_events,
                            bytes: log_bytes,
                        },
                        log_time,
                    );
                    self.tracer.mark(TraceEvent::LogCommit {
                        events: log_events,
                        commit_latency: log_commit_max,
                    });
                }
                self.tracer
                    .reconcile_with_log(epoch, outcome.stop_time, traced_ack, log_time)
                    .map_err(SimError::Invalid)?;
            } else {
                self.tracer
                    .reconcile(epoch, outcome.stop_time, traced_ack)
                    .map_err(SimError::Invalid)?;
            }
            let release_time = self.cluster.clock.now() + outcome.ack_delay + chaos_extra;

            if let Some(ch) = self.chaos.as_mut() {
                // Chaos: the backup commits regardless (the transfer went
                // through); only the ack's return leg can differ.
                let ack_lost = if ch.cfg.schedule.blocked(release_time, LinkDir::BtoA) {
                    true
                } else if let Some(n) =
                    ch.cfg.schedule.loss_period(release_time, LinkDir::BtoA)
                {
                    ch.acks_attempted += 1;
                    ch.acks_attempted.is_multiple_of(n)
                } else {
                    false
                };
                let commit_cpu = {
                    let RunMode::Replicated(engine) = &mut self.mode else {
                        unreachable!()
                    };
                    let (_pk, bk) = self.cluster.two_hosts_mut(self.primary, self.backup);
                    engine.commit(bk, epoch)?
                };
                if ack_lost {
                    // The primary never learns: no release, no lease
                    // renewal. The completions ride the next acked epoch.
                    ch.stats.withheld_acks += 1;
                    self.held.extend(completions);
                } else {
                    // The ack doubles as a lease grant: the primary anchors
                    // at its own checkpoint start (epoch end), the backup at
                    // the ack's completion — holder expiry ≤ granted expiry,
                    // the exactly-one-owner ordering. The release itself is
                    // deferred to the epoch boundary so a fault inside the
                    // gap can void it.
                    ch.holder.grant(epoch_end);
                    ch.grant.grant(release_time);
                    ch.holder_was_valid = true;
                    let until = ch.holder.expires_at();
                    self.tracer
                        .event_at(TraceEvent::LeaseAcquire { until }, release_time);
                    self.pending_release = Some(PendingRelease {
                        release_time,
                        receipts: completions,
                    });
                }
                self.metrics.push(EpochRecord {
                    epoch,
                    stop_time: outcome.stop_time,
                    dirty_pages: outcome.dirty_pages,
                    state_bytes: outcome.state_bytes,
                    ack_delay: outcome.ack_delay + chaos_extra,
                    exec_cpu: consumed,
                    tracking_overhead,
                    backup_cpu: outcome.backup_cpu + commit_cpu + log_backup_cpu,
                    requests_done,
                    steps_done,
                });
            } else {
                // Paper path: mechanically release now; logically at
                // release_time.
                let ns = self.container.ns.net;
                let released = self
                    .cluster
                    .host_mut(self.primary)
                    .stack_mut(ns)?
                    .release_output();
                self.tracer.event_at(
                    TraceEvent::OutputRelease {
                        packets: released as u64,
                    },
                    release_time,
                );
                self.cluster.pump();
                let commit_cpu = {
                    let RunMode::Replicated(engine) = &mut self.mode else {
                        unreachable!()
                    };
                    let (_pk, bk) = self.cluster.two_hosts_mut(self.primary, self.backup);
                    engine.commit(bk, epoch)?
                };

                let cl = self
                    .cluster
                    .host_mut(self.primary)
                    .costs
                    .client_link_latency;
                // Bootstrap-era completions (if any) ride this epoch's
                // release: this is the first commit whose image covers them.
                let held = std::mem::take(&mut self.held);
                for (remote, t_done) in held.into_iter().chain(completions) {
                    let receipt = t_done.max(release_time) + cl;
                    if !replay_on {
                        self.metrics
                            .release_waits
                            .push(release_time.saturating_sub(t_done));
                    }
                    self.receipts.entry(remote).or_default().push_back(receipt);
                }
                self.client_collect(release_time)?;
                self.metrics.push(EpochRecord {
                    epoch,
                    stop_time: outcome.stop_time,
                    dirty_pages: outcome.dirty_pages,
                    state_bytes: outcome.state_bytes,
                    ack_delay: outcome.ack_delay,
                    exec_cpu: consumed,
                    tracking_overhead,
                    backup_cpu: outcome.backup_cpu + commit_cpu + log_backup_cpu,
                    requests_done,
                    steps_done,
                });
            }
            // A coded repair streams its bounded chunk after the epoch's
            // checkpoint acked (the stream rides the inter-replica links,
            // never the primary's stop phase).
            self.repair_step_epoch()?;
        }

        // The epoch (including its stop phase) completed healthy: the agent
        // heart-beats again. (The agent process is not frozen during its own
        // checkpoint; gating on cpuacct exists to catch *container* hangs.)
        let now = self.cluster.clock.now();
        if !self.cluster.is_partitioned(host) {
            self.chaos_beat(now);
        }
        self.epoch += 1;
        Ok(())
    }

    fn pick_worker(&mut self) -> Pid {
        // Requests are handled in the leader's context: application fds are
        // opened there, and concentrating guest state in one address space
        // is checkpoint-equivalent (the dump walks every process either
        // way). Multi-process CPU capacity is modeled by `parallelism`.
        self.rr += 1;
        self.container.workers[0]
    }

    /// Hybrid replay: a primary fault lands inside the coming epoch. The
    /// primary executes right up to the fault instant, shipping log chunks
    /// as it goes; the epoch's checkpoint never runs. If every chunk
    /// committed, the truncated log seals and failover replay recovers the
    /// partial epoch byte-identically; a chunk lost to a cut link leaves the
    /// log unsealed, nothing from the epoch is released, and recovery falls
    /// back to the last checkpoint (clients retransmit).
    fn run_truncated_epoch(&mut self, fault_time: Nanos) -> SimResult<()> {
        let exec_start = self.cluster.clock.now();
        let host = self.active_host();
        self.tracer.begin_epoch(self.epoch, exec_start);
        self.client_turnaround(exec_start)?;

        let exec_window = fault_time
            .saturating_sub(exec_start)
            .min(self.cfg.epoch_exec);
        let budget = (exec_window as f64 * self.parallelism) as Nanos;
        let cl_lat = self.cluster.host_mut(host).costs.client_link_latency;
        let mut used: Nanos = KEEPALIVE_COST + self.cpu_debt;
        let mut requests_done = 0u64;
        let mut steps_done = 0u64;
        // (receipt time, release wait) per committed chunk — deliverable
        // only if the *whole* truncated log commits.
        let mut released: Vec<(Endpoint, Nanos, Nanos)> = Vec::new();
        let mut blocked_any = false;
        let mut log_events = 0u64;
        let mut log_bytes = 0u64;
        let mut log_time: Nanos = 0;
        let mut log_commit_max: Nanos = 0;

        {
            let k = self.cluster.host_mut(host);
            k.meter.take();
            k.fault_meter.take();
        }

        if self.app.is_server() {
            while used < budget {
                let Some(pos) = self
                    .pending
                    .iter()
                    .position(|(_, _, arrival)| *arrival <= fault_time)
                else {
                    break;
                };
                let (remote, req, arrival) = self.pending.remove(pos).expect("pos valid");
                let pid = self.pick_worker();
                let response = {
                    let k = self.cluster.host_mut(host);
                    let mut ctx = GuestCtx::new(k, pid, exec_start + used);
                    self.app.handle_request(&mut ctx, &req)?
                };
                let cost = self.cluster.host_mut(host).meter.take();
                used += cost.max(100);
                let stretch_num = self.cfg.epoch_exec + self.last_stop;
                let wall_used = used.saturating_mul(stretch_num) / self.cfg.epoch_exec;
                let t_done = arrival.max(exec_start) + wall_used;
                self.send_response(remote, &response.response)?;
                requests_done += 1;
                let t_chunk = exec_start + used;
                let blocked = self
                    .chaos
                    .as_ref()
                    .is_some_and(|ch| ch.cfg.schedule.blocked(t_chunk, LinkDir::AtoB));
                if blocked {
                    blocked_any = true;
                    continue;
                }
                let ev = ReplayEvent::Request {
                    pid,
                    at: arrival,
                    payload: req,
                    response_hash: content_hash(&response.response),
                    response_len: response.response.len() as u32,
                };
                let ship = {
                    let RunMode::Replicated(engine) = &mut self.mode else {
                        unreachable!()
                    };
                    let (pk, _bk) = self.cluster.two_hosts_mut(self.primary, self.backup);
                    engine.ship_log(pk, self.epoch, &[ev])?
                };
                log_events += 1;
                log_bytes += ship.bytes;
                log_time += ship.commit_latency;
                log_commit_max = log_commit_max.max(ship.commit_latency);
                released.push((
                    remote,
                    t_done + ship.commit_latency + cl_lat,
                    ship.commit_latency,
                ));
            }
        } else {
            let mut step_events: Vec<ReplayEvent> = Vec::new();
            while used < budget && !self.batch_done {
                let pid = self.container.workers[0];
                let outcome = {
                    let k = self.cluster.host_mut(host);
                    let mut ctx = GuestCtx::new(k, pid, exec_start + used);
                    self.app.step(&mut ctx)?
                };
                let cost = self.cluster.host_mut(host).meter.take();
                used += cost.max(100);
                steps_done += 1;
                step_events.push(ReplayEvent::Step {
                    pid,
                    at: exec_start + used,
                    done: outcome.done,
                });
                if outcome.done {
                    self.batch_done = true;
                }
            }
            if !step_events.is_empty() {
                let blocked = self
                    .chaos
                    .as_ref()
                    .is_some_and(|ch| ch.cfg.schedule.blocked(fault_time, LinkDir::AtoB));
                if blocked {
                    blocked_any = true;
                } else {
                    let n = step_events.len() as u64;
                    let ship = {
                        let RunMode::Replicated(engine) = &mut self.mode else {
                            unreachable!()
                        };
                        let (pk, _bk) = self.cluster.two_hosts_mut(self.primary, self.backup);
                        engine.ship_log(pk, self.epoch, &step_events)?
                    };
                    log_events += n;
                    log_bytes += ship.bytes;
                    log_time += ship.commit_latency;
                    log_commit_max = log_commit_max.max(ship.commit_latency);
                }
            }
        }

        // Work interrupted by the fault dies with the primary.
        self.cpu_debt = 0;
        let consumed = used.min(budget);
        let tracking_overhead = self.cluster.host_mut(host).fault_meter.take();
        let cg = self.container.cgroup;
        self.cluster.host_mut(host).cgroups.charge_cpu(cg, consumed);
        self.tracer.span(
            TraceEvent::Exec {
                requests: requests_done,
                steps: steps_done,
            },
            exec_window,
        );
        if log_events > 0 {
            self.tracer.span(
                TraceEvent::LogShip {
                    events: log_events,
                    bytes: log_bytes,
                },
                log_time,
            );
            self.tracer.mark(TraceEvent::LogCommit {
                events: log_events,
                commit_latency: log_commit_max,
            });
        }

        if blocked_any {
            // Part of the log never committed: the epoch's log stays
            // unsealed and *nothing* from it is released — a blocked
            // response escaping would expose state the fallback image does
            // not contain. The partial tail forces fallback replay; clients
            // retransmit and the recovered container re-serves them.
        } else {
            // The whole truncated log committed: seal it so failover replay
            // covers this partial epoch, and deliver the outputs that were
            // granted release at log commit.
            {
                let RunMode::Replicated(engine) = &mut self.mode else {
                    unreachable!()
                };
                engine.seal_log(self.epoch)?;
            }
            let ns = self.container.ns.net;
            let released_pkts = self.cluster.host_mut(host).stack_mut(ns)?.release_output();
            self.tracer.event_at(
                TraceEvent::OutputRelease {
                    packets: released_pkts as u64,
                },
                fault_time,
            );
            self.cluster.pump();
            for (remote, receipt, wait) in released.drain(..) {
                self.metrics.release_waits.push(wait);
                self.receipts.entry(remote).or_default().push_back(receipt);
            }
            self.client_collect(fault_time)?;
        }
        self.metrics.push(EpochRecord {
            epoch: self.epoch,
            exec_cpu: consumed,
            tracking_overhead,
            requests_done,
            steps_done,
            ..Default::default()
        });
        self.epoch += 1;
        self.do_failover(fault_time)
    }

    // ------------------------------------------------------------------
    // Failover
    // ------------------------------------------------------------------

    /// A primary-host fault fired. Replicated: fail over. Unreplicated
    /// after a failover (the paper path, or mid-bootstrap): the service is
    /// lost. Unreplicated from the start: a harness-usage error.
    fn handle_primary_fault(&mut self, fault_time: Nanos) -> SimResult<()> {
        if matches!(self.mode, RunMode::Replicated(_)) {
            return self.do_failover(fault_time);
        }
        if !self.replicated_run {
            return Err(SimError::Invalid(
                "fault injected into an unreplicated run".into(),
            ));
        }
        // No live backup (fault tolerance exhausted, or mid-bootstrap):
        // everything still plugged or queued dies with the host.
        self.cluster.clock.advance_to(fault_time);
        self.cluster.partition(self.active_host());
        let discarded = (self.pending.len() + self.held.len()) as u64;
        self.tracer.event_at(
            TraceEvent::OutputDiscard { packets: discarded },
            fault_time,
        );
        self.pending.clear();
        self.held.clear();
        self.unrecovered_faults += 1;
        self.dead = true;
        Ok(())
    }

    fn do_failover(&mut self, fault_time: Nanos) -> SimResult<()> {
        if matches!(self.mode, RunMode::Unreplicated) {
            return Err(SimError::Invalid(
                "fault injected into an unreplicated run".into(),
            ));
        }
        // Fail-stop: block all primary traffic (§VII-A).
        self.cluster.clock.advance_to(fault_time);
        self.cluster.partition(self.primary);
        // Chaos: a release deferred past the fault dies with the primary.
        // The plugged packets were never unplugged, so they are discarded
        // with the rest of the uncommitted output, never duplicated.
        let voided = self
            .pending_release
            .take()
            .map_or_else(Vec::new, |pr| pr.receipts);

        // Detection: the detector only changes state on its own heartbeat
        // grid, so poll along the beat boundaries. Under chaos, beats still
        // in flight (delayed or heal-flushed) keep landing while we wait.
        let mut t = self.detector.next_boundary(fault_time);
        loop {
            self.chaos_deliver_beats(t);
            if self.detector.check(t) {
                break;
            }
            t += self.cfg.heartbeat_interval;
        }
        let detected = self.detector.detected_at().expect("check returned true");
        let mut act = detected.max(fault_time);
        if let Some(ch) = &self.chaos {
            // Fencing: promotion additionally waits out the granted lease,
            // so even a falsely-suspected primary can no longer release.
            act = act.max(ch.grant.expires_at());
        }
        self.cluster.clock.advance_to(act);
        let latency = if self.chaos.is_some() {
            // A standing suspicion (from a partition, say) may predate the
            // injected fault; the silence simply continues.
            detected.saturating_sub(fault_time)
        } else {
            self.detector
                .detection_latency(fault_time)?
                .expect("check returned true")
        };
        self.detection_latency = Some(latency);
        if let Some(ch) = &mut self.chaos {
            let now = self.cluster.clock.now();
            if ch.holder.valid_at(now) {
                ch.stats.split_brain = true;
                return Err(SimError::Invalid(format!(
                    "split-brain: promoting at {now}ns while the primary's \
                     output lease is valid until {}ns",
                    ch.holder.expires_at()
                )));
            }
        }
        self.promote_backup(latency, voided)
    }

    /// The failover tail: restore on the backup, move the address, discard
    /// uncommitted output, retransmit, and either re-arm or degrade. Shared
    /// by the injected-fault path ([`Self::do_failover`]) and the
    /// chaos-detected path ([`Self::chaos_promote`]); `voided` are receipts
    /// from a deferred release that died with the primary.
    fn promote_backup(&mut self, latency: Nanos, voided: Vec<(Endpoint, Nanos)>) -> SimResult<()> {
        // Failover on the backup.
        let (restored, report) = {
            let RunMode::Replicated(engine) = &mut self.mode else {
                unreachable!()
            };
            let bk = &mut *self.cluster.host_mut(self.backup);
            engine.failover(bk)?
        };
        self.cluster.clock.advance(report.total());

        // Gratuitous ARP: the address moves to the backup.
        self.cluster.bind_addr(
            restored.container.spec.addr,
            self.backup,
            restored.container.ns.net,
        );
        restored.finish(self.cluster.host_mut(self.backup))?;

        // Rebuild the application's working state from restored guest memory.
        {
            let now = self.cluster.clock.now();
            let k = self.cluster.host_mut(self.backup);
            let mut ctx = GuestCtx::new(k, restored.container.workers[0], now);
            self.app.recover(&mut ctx)?;
            k.meter.take();
            k.fault_meter.take();
        }

        // Hybrid replay: re-execute the sealed log tail on top of the
        // restored checkpoint, recovering the post-checkpoint execution
        // whose outputs were already released at log commit. A divergence
        // (gap, partial tail, hash mismatch) falls back to the plain
        // last-checkpoint state just restored.
        let tail = {
            let RunMode::Replicated(engine) = &mut self.mode else {
                unreachable!()
            };
            if engine.supports_replay() {
                Some(engine.take_replay_tail()?)
            } else {
                None
            }
        };
        if let Some(tail) = tail {
            if !tail.logs.is_empty() || tail.dropped_partial {
                let now = self.cluster.clock.now();
                self.tracer.event_at(
                    TraceEvent::ReplayStart {
                        epochs: tail.logs.len() as u64,
                        events: tail.events(),
                    },
                    now,
                );
                let out = replay_tail(
                    &mut *self.cluster.host_mut(self.backup),
                    &restored.container,
                    self.app.as_mut(),
                    &tail,
                )?;
                self.cluster.clock.advance(out.replay_cpu);
                let done = self.cluster.clock.now();
                match out.diverged {
                    Some(reason) => {
                        self.tracer
                            .event_at(TraceEvent::ReplayDiverge { reason }, done);
                        // The executor rolled guest memory back; re-derive
                        // the app's working state from the checkpoint too.
                        let k = self.cluster.host_mut(self.backup);
                        let mut ctx = GuestCtx::new(k, restored.container.workers[0], done);
                        self.app.recover(&mut ctx)?;
                        k.meter.take();
                        k.fault_meter.take();
                    }
                    None => {
                        self.tracer.event_at(
                            TraceEvent::ReplayComplete {
                                events: out.events,
                                replay_time: out.replay_cpu,
                            },
                            done,
                        );
                    }
                }
            }
        }

        // Uncommitted driver-side buffers are garbage now: the clients will
        // retransmit anything the committed state has not consumed. Held
        // bootstrap-era completions were never released — discarded too, as
        // is any deferred release voided by the fault.
        let discarded = (self.pending.len() + self.held.len() + voided.len()) as u64;
        self.tracer.event_at(
            TraceEvent::OutputDiscard { packets: discarded },
            self.cluster.clock.now(),
        );
        self.pending.clear();
        self.held.clear();

        self.tracer.event_at(
            TraceEvent::Failover {
                detection_latency: latency,
                restore: report.restore,
                arp: report.arp,
                tcp: report.tcp,
                others: report.others,
            },
            self.cluster.clock.now(),
        );

        self.container = restored.container;
        self.failover_report = Some(report);
        self.failovers += 1;
        // A repair in flight at failover time is moot: the rearm bootstrap
        // (if any) rebuilds the whole placement from the promoted primary.
        self.repair = RepairState::Idle;
        // The promoted host's cgroup accounting starts from zero: without a
        // fresh sender, `tick` would never see progress and the re-armed
        // detector would starve.
        self.sender = HeartbeatSender::new();

        // Retransmissions: restored server sockets re-send unacked
        // responses (§V-E); clients re-send unacked requests.
        let ns = self.container.ns.net;
        self.cluster
            .host_mut(self.backup)
            .stack_mut(ns)?
            .retransmit_all();
        if let Some(pool) = self.pool.as_mut() {
            pool.retransmit(&mut self.cluster)?;
        }
        self.cluster.pump();
        // Retransmitted responses reach clients now.
        let now = self.cluster.clock.now();
        self.client_collect(now)?;

        let supports_rearm = match &self.mode {
            RunMode::Replicated(engine) => engine.supports_rearm(),
            RunMode::Unreplicated => false,
        };
        if supports_rearm {
            // Rearm extension: the promoted host becomes the new primary
            // (role swap keeps `active_host` and any later failover on the
            // unmodified code path); the engine parks until a replacement
            // backup is bootstrapped.
            let RunMode::Replicated(engine) =
                std::mem::replace(&mut self.mode, RunMode::Unreplicated)
            else {
                unreachable!()
            };
            self.parked = Some(engine);
            std::mem::swap(&mut self.primary, &mut self.backup);
            self.rearm = RearmState::Scheduled {
                at: now + self.cfg.rearm_delay,
                attempt: 0,
            };
        } else {
            // Continue unreplicated on the backup (the paper does not
            // re-arm replication after failover).
            self.mode = RunMode::Unreplicated;
            self.on_backup = true;
        }
        self.epoch += 1;
        Ok(())
    }

    /// A backup-host fault fired: with a k-of-n placement and the quorum
    /// intact, degrade and start a coded repair; abort an in-flight
    /// bootstrap or repair (and retry with exponential backoff); otherwise
    /// degrade a healthy replicated pair to unreplicated service.
    fn handle_backup_fault(&mut self, t: Nanos) -> SimResult<()> {
        self.cluster.clock.advance_to(t);
        // A deferred release whose ack already committed is legitimate: the
        // backup acknowledged the covering epoch before it died, so flush it
        // (lease validity holds by construction — the ack renewed it).
        self.chaos_flush_pending(t)?;
        let has_placement = match &self.mode {
            RunMode::Replicated(engine) => engine.supports_placement(),
            RunMode::Unreplicated => false,
        };
        if has_placement {
            let RunMode::Replicated(engine) = &mut self.mode else {
                unreachable!()
            };
            let (k, _n) = engine.placement();
            self.cluster.partition(self.backup);
            if let RepairState::Repairing { attempt, .. } = self.repair {
                // The replacement host died mid-repair: discard its
                // half-regenerated fragment store, provision another fresh
                // host, and retry with exponential backoff. Epochs keep
                // committing on the surviving quorum throughout.
                engine.repair_abort()?;
                self.backup = self.cluster.add_host(Kernel::default());
                let backoff = self
                    .cfg
                    .rearm_backoff
                    .saturating_mul(1u64 << attempt.min(16));
                self.repair = RepairState::Scheduled {
                    at: t + backoff,
                    attempt: attempt + 1,
                };
                return Ok(());
            }
            let attempt = match self.repair {
                RepairState::Scheduled { attempt, .. } => attempt + 1,
                _ => 0,
            };
            let alive = engine.replica_fault()?;
            if alive >= k {
                // Quorum holds: the epoch pipeline never pauses and output
                // stays plugged/released on the normal ack path. Provision
                // the replacement immediately; the repair starts after the
                // same settling delay a rearm bootstrap uses.
                self.backup = self.cluster.add_host(Kernel::default());
                self.tracer
                    .event_at(TraceEvent::DegradedMode { alive, need: k }, t);
                self.repair = RepairState::Scheduled {
                    at: t + self.cfg.rearm_delay,
                    attempt,
                };
                return Ok(());
            }
            // Below quorum: no further epoch can ack. Fall through to the
            // single-backup degrade path (release everything and, with the
            // rearm extension, bootstrap a whole new placement).
            self.repair = RepairState::Idle;
            let RunMode::Replicated(engine) =
                std::mem::replace(&mut self.mode, RunMode::Unreplicated)
            else {
                unreachable!()
            };
            self.release_plugged_output(t)?;
            if engine.supports_rearm() {
                self.parked = Some(engine);
                self.rearm = RearmState::Scheduled {
                    at: t + self.cfg.rearm_delay,
                    attempt: 0,
                };
            }
            return Ok(());
        }
        if let RearmState::Bootstrapping { attempt, .. } = self.rearm {
            // The replacement died mid-bootstrap: unwind the COW set, drop
            // the half-assembled image, keep serving, retry later.
            self.cluster.partition(self.backup);
            {
                let engine = self.parked.as_mut().expect("bootstrapping without an engine");
                engine.bootstrap_abort(self.cluster.host_mut(self.primary), &self.container)?;
            }
            self.release_plugged_output(t)?;
            let backoff = self
                .cfg
                .rearm_backoff
                .saturating_mul(1u64 << attempt.min(16));
            self.rearm = RearmState::Scheduled {
                at: t + backoff,
                attempt: attempt + 1,
            };
            return Ok(());
        }
        if matches!(self.mode, RunMode::Replicated(_)) {
            self.cluster.partition(self.backup);
            let RunMode::Replicated(engine) =
                std::mem::replace(&mut self.mode, RunMode::Unreplicated)
            else {
                unreachable!()
            };
            self.release_plugged_output(t)?;
            if engine.supports_rearm() {
                self.parked = Some(engine);
                self.rearm = RearmState::Scheduled {
                    at: t + self.cfg.rearm_delay,
                    attempt: 0,
                };
            }
            return Ok(());
        }
        Err(SimError::Invalid(
            "backup fault injected with no live backup".into(),
        ))
    }

    /// Replication is gone (backup lost): output commit is moot, so unplug
    /// the qdisc, release everything held, and deliver to clients.
    fn release_plugged_output(&mut self, t: Nanos) -> SimResult<()> {
        let ns = self.container.ns.net;
        let host = self.active_host();
        let stack = self.cluster.host_mut(host).stack_mut(ns)?;
        let released = stack.release_output();
        stack.plugged = false;
        self.tracer.event_at(
            TraceEvent::OutputRelease {
                packets: released as u64,
            },
            t,
        );
        self.cluster.pump();
        let cl = self.cluster.host_mut(host).costs.client_link_latency;
        let held = std::mem::take(&mut self.held);
        for (remote, t_done) in held {
            self.receipts
                .entry(remote)
                .or_default()
                .push_back(t_done.max(t) + cl);
        }
        self.client_collect(t)?;
        Ok(())
    }

    /// Start a scheduled bootstrap once its time arrives.
    fn rearm_tick(&mut self) -> SimResult<()> {
        if let RearmState::Scheduled { at, attempt } = self.rearm {
            if at <= self.cluster.clock.now() {
                self.begin_bootstrap(attempt)?;
            }
        }
        Ok(())
    }

    /// Start a scheduled coded repair once its time arrives (the placement
    /// analog of [`Self::rearm_tick`]).
    fn repair_tick(&mut self) -> SimResult<()> {
        if let RepairState::Scheduled { at, attempt } = self.repair {
            if at <= self.cluster.clock.now() {
                let now = self.cluster.clock.now();
                let RunMode::Replicated(engine) = &mut self.mode else {
                    // The placement degraded below quorum (or failed over)
                    // after the repair was scheduled.
                    self.repair = RepairState::Idle;
                    return Ok(());
                };
                self.tracer.event_at(
                    TraceEvent::RepairStart {
                        kind: "repair".into(),
                        attempt,
                    },
                    now,
                );
                engine.repair_begin(self.epoch)?;
                self.repair = RepairState::Repairing {
                    attempt,
                    streamed_pages: 0,
                    streamed_bytes: 0,
                };
            }
        }
        Ok(())
    }

    /// One bounded chunk of the coded-repair stream (runs at the end of each
    /// replicated epoch while a repair is active). When the last fragment
    /// regenerates, the repaired replica seals (mid-repair commits included,
    /// disk resynced) and rejoins the placement at full redundancy.
    fn repair_step_epoch(&mut self) -> SimResult<()> {
        let RepairState::Repairing {
            attempt,
            streamed_pages,
            streamed_bytes,
        } = self.repair
        else {
            return Ok(());
        };
        let step = {
            let RunMode::Replicated(engine) = &mut self.mode else {
                return Ok(());
            };
            engine.repair_step(self.epoch, self.cfg.rearm_chunk_pages)?
        };
        let now = self.cluster.clock.now();
        if step.pages > 0 {
            self.tracer.event_at(
                TraceEvent::RepairChunk {
                    pages: step.pages,
                    bytes: step.bytes,
                },
                now,
            );
        }
        let pages = streamed_pages + step.pages;
        let bytes = streamed_bytes + step.bytes;
        if step.remaining == 0 {
            {
                let RunMode::Replicated(engine) = &mut self.mode else {
                    unreachable!()
                };
                engine.repair_finish(self.cluster.host_mut(self.backup), self.epoch)?;
            }
            self.repair = RepairState::Idle;
            self.tracer
                .event_at(TraceEvent::RepairComplete { pages, bytes }, now);
        } else {
            self.repair = RepairState::Repairing {
                attempt,
                streamed_pages: pages,
                streamed_bytes: bytes,
            };
        }
        Ok(())
    }

    /// Provision a fresh replacement host and take the full COW-deferred
    /// bootstrap checkpoint (one stop of roughly an incremental epoch's
    /// length); the page payload then streams in bounded per-epoch chunks.
    fn begin_bootstrap(&mut self, attempt: u32) -> SimResult<()> {
        let now = self.cluster.clock.now();
        self.backup = self.cluster.add_host(Kernel::default());
        let mut engine = self
            .parked
            .take()
            .expect("rearm scheduled with no parked engine");
        engine.set_tracer(self.tracer.clone());
        engine.rearm_prepare(self.cluster.host_mut(self.primary), &self.container)?;
        self.cluster.host_mut(self.primary).meter.take();
        self.tracer
            .event_at(TraceEvent::RearmStart { attempt }, now);
        let begin = engine.bootstrap_begin(
            self.cluster.host_mut(self.primary),
            &self.container,
            self.epoch,
        )?;
        self.cluster.clock.advance(begin.stop_time);
        self.last_stop = begin.stop_time;
        self.rearm = RearmState::Bootstrapping {
            attempt,
            epoch: self.epoch,
            streamed_pages: 0,
            streamed_bytes: 0,
        };
        self.parked = Some(engine);
        Ok(())
    }

    /// One bounded chunk of the bootstrap stream (runs at the end of each
    /// epoch while a bootstrap is active). When the last deferred page
    /// lands, the image commits on the replacement and incremental epochs
    /// resume with a fresh failure detector.
    fn bootstrap_step_epoch(&mut self) -> SimResult<()> {
        let RearmState::Bootstrapping {
            attempt,
            epoch,
            streamed_pages,
            streamed_bytes,
        } = self.rearm
        else {
            return Ok(());
        };
        let step = {
            let engine = self.parked.as_mut().expect("bootstrapping without an engine");
            engine.bootstrap_step(
                self.cluster.host_mut(self.primary),
                epoch,
                self.cfg.rearm_chunk_pages,
            )?
        };
        let now = self.cluster.clock.now();
        if step.pages > 0 {
            self.tracer.event_at(
                TraceEvent::BootstrapChunk {
                    pages: step.pages,
                    bytes: step.bytes,
                },
                now,
            );
        }
        let pages = streamed_pages + step.pages;
        let bytes = streamed_bytes + step.bytes;
        if step.remaining == 0 {
            {
                let engine = self.parked.as_mut().expect("bootstrapping without an engine");
                engine.bootstrap_finish(self.cluster.host_mut(self.backup), epoch)?;
            }
            let engine = self.parked.take().expect("just used");
            if engine.supports_replay() {
                // The promoted host resumes recording for the new pair.
                self.cluster.host_mut(self.primary).replay.enable();
            }
            self.mode = RunMode::Replicated(engine);
            self.rearm = RearmState::Armed;
            self.detector = FailureDetector::new(
                self.cfg.heartbeat_interval,
                self.cfg.heartbeat_misses,
                now,
            );
            self.detector.set_tracer(self.tracer.clone());
            if let Some(ch) = self.chaos.as_mut() {
                // Fresh pair, fresh fences: re-anchor both leases at `now`
                // so a grant left over from before the fault cannot
                // green-light an instant promotion.
                ch.holder.grant(now);
                ch.grant.grant(now);
                ch.holder_was_valid = true;
            }
            self.tracer
                .event_at(TraceEvent::RearmComplete { pages, bytes }, now);
        } else {
            self.rearm = RearmState::Bootstrapping {
                attempt,
                epoch,
                streamed_pages: pages,
                streamed_bytes: bytes,
            };
        }
        Ok(())
    }

    /// Finish the run: validate and hand back the results.
    pub fn finish(mut self) -> RunResult {
        // Flush a deferred release still sitting at the end of the run (its
        // ack committed; only the epoch boundary never came).
        if self.pending_release.is_some() {
            let now = self.cluster.clock.now();
            let _ = self.chaos_flush_pending(now);
        }
        let _ = self.tracer.flush();
        self.metrics.elapsed = self.cluster.clock.now();
        // A failed client-stack lookup must fail the run, not count as zero
        // broken connections — fold the error into `verify` so the §VII-A
        // gate can't pass vacuously.
        let (broken, broken_err) = match self.pool.as_mut() {
            Some(p) => match p.broken_connections(&mut self.cluster) {
                Ok(n) => (n, None),
                Err(e) => (u64::MAX, Some(format!("broken_connections: {e}"))),
            },
            None => (0, None),
        };
        let verify = match broken_err {
            Some(e) => Err(e),
            None => match &self.behavior {
                Some(b) => b.verify(),
                None => Ok(()),
            },
        };
        // A scheduled fault that never fired is unproven survival: the old
        // `recovered` semantics (fault pending + still on the primary =
        // not recovered) are preserved by counting it against the run.
        let unrecovered = self.unrecovered_faults + self.faults.len() as u64;
        RunResult {
            metrics: self.metrics,
            failover: self.failover_report,
            detection_latency: self.detection_latency,
            recovered: unrecovered == 0,
            failovers: self.failovers,
            unrecovered_faults: unrecovered,
            broken_connections: broken,
            verify,
        }
    }

    /// Read-only metrics access mid-run.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }
}
