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
//!
//! The harness is one of two callers of the private lane core (`lane.rs`;
//! `DESIGN.md` §8.2): what it adds is the *time model* — epochs are
//! serial and the clock advances by each stop — plus the chaos schedule and
//! the decision of what a backup fault means.

use crate::config::ReplicationConfig;
use crate::detector::{FailureDetector, HEARTBEAT_INTERVAL};
use crate::engine::{Checkpointer, FailoverReport};
use crate::lane::{
    Completion, Fence, Lane, LaneSetup, LogTotals, Served, ShipLog, Stream, StreamKind,
    StreamPhase, LEASE_TERM,
};
use crate::metrics::{EpochRecord, RunMetrics};
use crate::trace::{TraceEvent, Tracer};
use crate::traffic::ClientBehavior;
use nilicon_container::{Application, Container, ContainerSpec};
use nilicon_sim::cluster::Cluster;
use nilicon_sim::ids::HostId;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::net::{ChaosLink, ChaosSchedule, LinkDir};
use nilicon_sim::replay::ReplayEvent;
use nilicon_sim::time::{Nanos, MILLISECOND};
use nilicon_sim::{SimError, SimResult};
use std::collections::VecDeque;

/// Address of the client host's stack on the bridge.
pub const CLIENT_ADDR: u32 = 200;

/// Re-replication only ([`crate::OptimizationConfig::rearm`]): delay from
/// the end of failover recovery (or a replica loss) to the start of the
/// replacement's bootstrap or repair (models provisioning the standby host).
const REARM_DELAY: Nanos = 60 * MILLISECOND;
/// Re-replication only: base retry backoff after a stream attempt is killed
/// by a standby fault; doubles per consecutive failed attempt.
const REARM_BACKOFF: Nanos = 120 * MILLISECOND;

/// How the container runs.
pub enum RunMode {
    /// No replication (the paper's "stock" baseline).
    Unreplicated,
    /// Replicated under an engine (NiLiCon or MC).
    Replicated(Box<dyn Checkpointer>),
}

/// Where replication stands: the one state every epoch, fault and stream
/// decision of the harness reads.
enum Replication {
    /// Unreplicated from the start (the paper's "stock" baseline): a fault
    /// injected here is a harness-usage error.
    Stock,
    /// The engine drives epochs.
    Active(Box<dyn Checkpointer>),
    /// Re-replication only: the engine waits between a failover (or a
    /// backup loss) and the end of the replacement backup's bootstrap.
    Parked(Box<dyn Checkpointer>),
    /// Replication is gone (after a failover or a backup loss without
    /// rearm): the container serves unreplicated.
    Spent,
    /// The service died to a fault with no backup: no further epochs run.
    Lost,
}

impl Replication {
    /// The engine driving epochs. A method on the field (not on the
    /// harness) so the borrow stays disjoint from `self.cluster`.
    fn engine(&mut self) -> &mut dyn Checkpointer {
        match self {
            Replication::Active(engine) => engine.as_mut(),
            _ => unreachable!("no engine is driving epochs"),
        }
    }

    /// The engine a stream of `kind` runs on: the parked one for a rearm,
    /// the one driving epochs for a repair.
    fn stream_engine(&mut self, kind: StreamKind) -> Option<&mut (dyn Checkpointer + 'static)> {
        match (kind, self) {
            (StreamKind::Rearm, Replication::Parked(engine))
            | (StreamKind::Repair, Replication::Active(engine)) => Some(engine.as_mut()),
            _ => None,
        }
    }

    /// Move the state out, leaving [`Replication::Spent`] behind.
    fn take(&mut self) -> Replication {
        std::mem::replace(self, Replication::Spent)
    }
}

/// A scheduled fail-stop fault. At one instant a backup fault fires first
/// (the order sorts by `(time, Fault)`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Fault {
    Backup,
    Primary,
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
/// the output-release fence.
struct ChaosState {
    schedule: ChaosSchedule,
    /// Heartbeats in flight (payload = send time).
    hb: ChaosLink<Nanos>,
    fence: Fence,
    last_beat_delivered: Nanos,
    in_partition: bool,
    partition_started_at: Option<Nanos>,
    /// Acks attempted inside a partial-loss window (drives `drop_nth`).
    acks_attempted: u64,
    stats: ChaosStats,
    /// The release deferred from the previous epoch, if any.
    pending_release: Option<PendingRelease>,
}

/// An output release deferred to its logical release time (chaos mode): the
/// qdisc stays plugged until the lease check at flush. A primary fault in
/// the gap voids it — fault-during-output-release.
struct PendingRelease {
    release_time: Nanos,
    /// Completions riding this release.
    receipts: Vec<Completion>,
}

/// The harness itself.
pub struct RunHarness {
    /// The simulated cluster: primary, backup, client hosts.
    pub cluster: Cluster,
    /// The host running the container. Every promotion swaps the roles, so
    /// after a failover this is the promoted host.
    pub primary: HostId,
    /// The backup host. After a failover it is the failed former primary
    /// (crashed, or a fenced zombie behind a partition) until a rearm
    /// provisions a replacement; without rearm, for good.
    pub backup: HostId,
    /// Client host id.
    pub client_host: HostId,
    lane: Lane,
    cfg: ReplicationConfig,
    replication: Replication,
    /// Pending host faults, in firing order (one timeline for both hosts).
    faults: VecDeque<(Nanos, Fault)>,
    stage_fails: VecDeque<(Nanos, u64)>,
    unrecovered_faults: u64,
    /// The rearm bootstrap or coded repair in flight (always idle in paper
    /// configurations: a rearm needs [`Checkpointer::supports_rearm`], a
    /// repair [`Checkpointer::supports_placement`]). During a repair the
    /// engine keeps driving epochs — the placement is merely *degraded*.
    stream: Stream,
    /// A rearm completed since the most recent failover or backup loss.
    rearmed: bool,
    epoch: u64,
    /// Chaos extension state (None on every paper path).
    chaos: Option<ChaosState>,
}

impl std::fmt::Debug for RunHarness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHarness")
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

/// Insert `item` into a queue kept sorted by `key` (after any equal keys).
fn insert_sorted<T, K: PartialOrd>(queue: &mut VecDeque<T>, item: T, key: impl Fn(&T) -> K) {
    let at = key(&item);
    queue.insert(queue.partition_point(|q| key(q) <= at), item);
}

impl RunHarness {
    /// Build a harness: three hosts, the container on the primary, the
    /// workload initialized, clients connected (if `behavior` is given), and
    /// the engine prepared (if replicated).
    ///
    /// `parallelism` is the workload's usable core count (drives the exec
    /// CPU budget and Table V's "Active" row). `cfg` must pass
    /// [`ReplicationConfig::validate`]; its `opts` are not read (the
    /// engine in `mode` carries its own).
    pub fn new(
        spec: ContainerSpec,
        app: Box<dyn Application>,
        behavior: Option<Box<dyn ClientBehavior>>,
        mode: RunMode,
        cfg: ReplicationConfig,
        parallelism: f64,
    ) -> SimResult<Self> {
        cfg.validate()?;
        let mut cluster = Cluster::new();
        let primary = cluster.add_host(Kernel::default());
        let backup = cluster.add_host(Kernel::default());
        let client_host = cluster.add_host(Kernel::default());
        let setup = LaneSetup {
            client_host,
            client: ("client", CLIENT_ADDR),
            parallelism,
            jitter_seed: 0x243F6A8885A308D3,
            detector_start: 0,
            quiet_release: false,
        };
        let lane = Lane::create(&mut cluster, primary, &spec, app, behavior, &cfg, setup)?;

        // Engine preparation (arms tracking, plugs the qdisc).
        let replication = match mode {
            RunMode::Unreplicated => Replication::Stock,
            RunMode::Replicated(mut engine) => {
                engine.prepare(cluster.host_mut(primary), &lane.container)?;
                cluster.host_mut(primary).meter.take();
                Replication::Active(engine)
            }
        };
        Ok(RunHarness {
            cluster,
            primary,
            backup,
            client_host,
            lane,
            cfg,
            replication,
            faults: VecDeque::new(),
            stage_fails: VecDeque::new(),
            unrecovered_faults: 0,
            stream: Stream::idle(),
            rearmed: false,
            epoch: 0,
            chaos: None,
        })
    }

    /// Arm the chaos extension: inject the network-fault `schedule` on the
    /// replication/heartbeat link (the cost model's replication-link
    /// latency) and turn on the output-release lease (split-brain fence, a
    /// 150 ms term). Call on a replicated harness; paper rows never call
    /// this, so the paper path is untouched.
    pub fn set_chaos(&mut self, schedule: ChaosSchedule) {
        let latency = self.cluster.host_mut(self.primary).costs.repl_link_latency;
        let now = self.cluster.clock.now();
        self.chaos = Some(ChaosState {
            hb: ChaosLink::new(LinkDir::AtoB, latency, schedule.clone()),
            fence: Fence::new(LEASE_TERM, now),
            last_beat_delivered: now,
            in_partition: false,
            partition_started_at: None,
            acks_attempted: 0,
            stats: ChaosStats::default(),
            schedule,
            pending_release: None,
        });
    }

    /// Chaos counters so far (None if [`RunHarness::set_chaos`] was never
    /// called).
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.chaos.as_ref().map(|c| ChaosStats {
            split_brain: c.fence.split_brain(),
            ..c.stats
        })
    }

    /// Whether replication is currently driving epochs (false after a
    /// non-rearm failover or backup loss).
    pub fn replication_active(&self) -> bool {
        matches!(self.replication, Replication::Active(_))
    }

    /// Whether the hybrid-replay extension is recording this run's epochs
    /// (the active engine supports it and is driving epochs).
    fn replay_on(&self) -> bool {
        matches!(&self.replication, Replication::Active(e) if e.supports_replay())
    }

    /// Byte snapshot of the active container's guest heap: `pages` pages per
    /// worker process, unmapped pages reading as zeros. This is the
    /// committed-state probe behind the chaos matrix's byte-identical check
    /// ([`FleetScheduler::snapshot_heap`] is the fleet's).
    ///
    /// [`FleetScheduler::snapshot_heap`]: crate::fleet::FleetScheduler::snapshot_heap
    pub fn snapshot_heap(&mut self, pages: u64) -> Vec<u8> {
        let host = self.cluster.host_mut(self.primary);
        crate::replay::heap_snapshot(host, &self.lane.container, pages)
    }

    /// Attach a [`Tracer`]: the harness, the engine, and the failure
    /// detector all emit spans/events into it (see `OBSERVABILITY.md` for
    /// the schema). Call before running epochs.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        if let Replication::Active(engine) = &mut self.replication {
            engine.set_tracer(tracer.clone());
        }
        self.lane.set_tracer(tracer);
    }

    /// Schedule a fail-stop fault of the primary (the host running the
    /// container) at absolute virtual time `t` (§VII-A). May be called
    /// repeatedly: faults fire in time order, and with the `rearm` extension
    /// a later fault exercises a second failover onto the bootstrapped
    /// replacement backup.
    pub fn inject_fault_at(&mut self, t: Nanos) {
        insert_sorted(&mut self.faults, (t, Fault::Primary), |&f| f);
    }

    /// Schedule a fail-stop fault of the *backup* host at `t`. During a
    /// re-replication bootstrap this kills the replacement (the bootstrap
    /// aborts and retries with backoff); against a healthy replicated pair
    /// it degrades the run to unreplicated. A backup fault at the instant
    /// of a primary fault fires first.
    pub fn inject_backup_fault_at(&mut self, t: Nanos) {
        insert_sorted(&mut self.faults, (t, Fault::Backup), |&f| f);
    }

    /// Schedule a one-shot pipeline-stage crash: at the first checkpoint at
    /// or after virtual time `t`, the engine's staged transfer loses its
    /// ingest stage when it reaches `chunk` (replayed from the bounded
    /// channel's peek-before-commit slot — see `DESIGN.md` §12). A no-op
    /// for engines without staged transfer.
    pub fn inject_stage_fail_at(&mut self, t: Nanos, chunk: u64) {
        insert_sorted(&mut self.stage_fails, (t, chunk), |&(f, _)| f);
    }

    /// Current container handle.
    pub fn container(&self) -> &Container {
        &self.lane.container
    }

    /// True once the batch workload reported completion.
    pub fn batch_done(&self) -> bool {
        self.lane.batch_done
    }

    /// Whether the run has failed over at least once (the container now
    /// lives on a host other than the original primary).
    pub fn on_backup(&self) -> bool {
        self.lane.failovers > 0
    }

    /// Completed failovers so far.
    pub fn failovers(&self) -> u64 {
        self.lane.failovers
    }

    /// Whether the `rearm` extension has re-established redundancy after
    /// the most recent failover (or backup loss).
    pub fn rearmed(&self) -> bool {
        self.rearmed
    }

    /// Whether a coded repair is scheduled or streaming (the placement
    /// extension's degraded window).
    pub fn repair_active(&self) -> bool {
        self.stream.active(StreamKind::Repair)
    }

    // ------------------------------------------------------------------
    // Chaos extension: faulty links, leases, fencing
    // ------------------------------------------------------------------

    /// Route a heartbeat: directly to the detector (paper path), or into the
    /// chaos link, to be delivered by a later [`RunHarness::chaos_deliver_beats`].
    fn chaos_beat(&mut self, t: Nanos) {
        match self.chaos.as_mut() {
            Some(ch) => ch.hb.send(t, t),
            None => self.lane.detector.on_beat(t),
        }
    }

    /// Deliver every chaos-link heartbeat due by `now` (no-op without chaos).
    fn chaos_deliver_beats(&mut self, now: Nanos) {
        if let Some(ch) = self.chaos.as_mut() {
            for (at, _sent) in ch.hb.poll(now) {
                ch.last_beat_delivered = ch.last_beat_delivered.max(at);
                self.lane.detector.on_beat(at);
            }
        }
    }

    /// Whether the chaos schedule cuts the primary→backup direction at `t`.
    fn chaos_blocked(chaos: &Option<ChaosState>, t: Nanos) -> bool {
        chaos
            .as_ref()
            .is_some_and(|ch| ch.schedule.blocked(t, LinkDir::AtoB))
    }

    /// Emit `PartitionStart`/`PartitionHeal`/`LeaseExpire` markers on
    /// schedule and lease edges.
    fn chaos_edges(&mut self, now: Nanos) {
        let Some(ch) = self.chaos.as_mut() else {
            return;
        };
        let part = ch.schedule.partitioned(now);
        if part && !ch.in_partition {
            ch.in_partition = true;
            ch.partition_started_at = Some(now);
            ch.stats.partitions += 1;
            self.lane.tracer.event_at(TraceEvent::PartitionStart, now);
        } else if !part && ch.in_partition {
            ch.in_partition = false;
            self.lane.tracer.event_at(TraceEvent::PartitionHeal, now);
        }
        if let Some(at) = ch.fence.lapsed(now) {
            ch.stats.lease_expiries += 1;
            self.lane
                .tracer
                .event_at(TraceEvent::LeaseExpire { at }, at);
        }
    }

    /// Flush the deferred output release, if any. If the primary's lease is
    /// still valid at the logical release time, release and deliver;
    /// otherwise *fence*: the packets stay plugged (they ride the next valid
    /// release, or die with the primary) and only the event is emitted.
    fn chaos_flush_pending(&mut self) -> SimResult<()> {
        let waits = !self.replay_on();
        let Some(ch) = self.chaos.as_mut() else {
            return Ok(());
        };
        let Some(pr) = ch.pending_release.take() else {
            return Ok(());
        };
        if !ch.fence.may_release(pr.release_time) {
            self.lane.tracer.event_at(
                TraceEvent::FencedOutput {
                    packets: pr.receipts.len() as u64,
                },
                pr.release_time,
            );
            ch.stats.fenced_releases += 1;
            self.lane.held.extend(pr.receipts);
            return Ok(());
        }
        let held = std::mem::take(&mut self.lane.held);
        let riding = held.into_iter().chain(pr.receipts);
        let host = self.primary;
        self.lane
            .release(&mut self.cluster, host, pr.release_time, riding, waits)
    }

    /// Chaos-mode epoch prologue: flush the deferred release, trace schedule
    /// edges, deliver in-flight heartbeats, then resolve any standing
    /// suspicion — rescind it if a later beat arrived (false positive), or
    /// promote the backup once the *granted* lease has expired. Returns true
    /// if a promotion consumed this epoch slot.
    fn chaos_prologue(&mut self) -> SimResult<bool> {
        let now = self.cluster.clock.now();
        self.chaos_flush_pending()?;
        self.chaos_edges(now);
        self.chaos_deliver_beats(now);
        if !self.replication_active() {
            return Ok(false);
        }
        if self.lane.detector.check(now) {
            let det = self
                .lane
                .detector
                .detected_at()
                .expect("check returned true");
            let ch = self.chaos.as_mut().expect("chaos prologue");
            let late_beat = ch.last_beat_delivered;
            if late_beat > det {
                // A beat arrived after the suspicion began: false positive.
                // The lease gate bought the time to notice — rescind.
                self.lane.tracer.event_at(
                    TraceEvent::FalseSuspicion {
                        suspected_for: late_beat - det,
                    },
                    late_beat,
                );
                self.lane.detector.rescind(late_beat);
                ch.stats.false_suspicions += 1;
            } else if now >= ch.fence.promotable_at() {
                self.chaos_promote(now)?;
                return Ok(true);
            }
            // Suspicion stands but the grant is still live: the backup
            // waits — exactly the delay that prevents split-brain.
        }
        Ok(false)
    }

    /// Promote the backup on granted-lease expiry (the primary may be alive
    /// but unreachable — a partition, not a fault).
    fn chaos_promote(&mut self, now: Nanos) -> SimResult<()> {
        let ch = self.chaos.as_mut().expect("chaos promote");
        ch.fence.authorize_promotion(now)?;
        // "Detection latency" for a partition is measured from its start.
        let latency = now.saturating_sub(ch.partition_started_at.unwrap_or(now));
        // The fenced primary withdraws (fail-stop its traffic); whatever it
        // still held plugged is discarded exactly as at a real fault. It is
        // a zombie behind an expired lease, not a crash: it keeps its state.
        self.cluster.partition(self.primary);
        self.promote_backup(latency)
    }

    // ------------------------------------------------------------------
    // The epoch loop
    // ------------------------------------------------------------------

    /// Run up to `n` epochs (stops early if a batch workload completes or
    /// the service dies to an unprotected fault).
    pub fn run_epochs(&mut self, n: u64) -> SimResult<()> {
        for _ in 0..n {
            if self.lane.batch_done || matches!(self.replication, Replication::Lost) {
                break;
            }
            let now = self.cluster.clock.now();
            // Chaos: a release that logically precedes the next fault
            // flushes first; a fault landing inside the release gap leaves
            // it pending — the fault handler voids it
            // (fault-during-output-release) or flushes it (backup faults:
            // the ack had already committed).
            let next_fault = self.faults.front().map(|&(t, _)| t);
            let pending = self
                .chaos
                .as_ref()
                .and_then(|ch| ch.pending_release.as_ref());
            if pending.is_some_and(|pr| next_fault.is_none_or(|f| pr.release_time <= f)) {
                self.chaos_flush_pending()?;
            }
            let Some(t) = next_fault.filter(|&t| t <= now + self.cfg.epoch_exec) else {
                self.stream_tick()?;
                self.run_one_epoch()?;
                continue;
            };
            let (_, fault) = self.faults.pop_front().expect("front checked");
            match fault {
                Fault::Backup => self.handle_backup_fault(t.max(now))?,
                Fault::Primary => self.handle_primary_fault(t.max(now))?,
            }
        }
        self.lane.metrics.elapsed = self.cluster.clock.now();
        Ok(())
    }

    /// The lane's execution phase, with the replay log hook when the engine
    /// records: each chunk ships to the backup's log store unless the chaos
    /// schedule cuts the link at that instant.
    fn serve(
        &mut self,
        host: HostId,
        exec_start: Nanos,
        window_end: Nanos,
        exec_window: Nanos,
    ) -> SimResult<Served> {
        let replay_on = self.replay_on();
        let RunHarness {
            lane,
            cluster,
            replication,
            chaos,
            primary,
            epoch,
            ..
        } = self;
        let mut ship = |cluster: &mut Cluster, at: Nanos, events: &[ReplayEvent]| {
            if Self::chaos_blocked(chaos, at) {
                return Ok(None);
            }
            replication
                .engine()
                .ship_log(cluster.host_mut(*primary), *epoch, events)
                .map(Some)
        };
        let hook = replay_on.then_some(&mut ship as ShipLog<'_>);
        lane.serve(cluster, host, exec_start, window_end, exec_window, hook)
    }

    fn run_one_epoch(&mut self) -> SimResult<()> {
        if self.chaos.is_some() && self.chaos_prologue()? {
            // A lease-expiry promotion consumed this epoch slot.
            return Ok(());
        }
        let exec_start = self.cluster.clock.now();
        let host = self.primary;
        let epoch = self.epoch;
        let epoch_end = exec_start + self.cfg.epoch_exec;
        self.lane.tracer.begin_epoch(epoch, exec_start);
        let served = self.serve(host, exec_start, epoch_end, self.cfg.epoch_exec)?;
        self.cluster.clock.advance_to(epoch_end);
        let record = served.record(epoch);
        let Served {
            completions,
            committed,
            log,
            ..
        } = served;
        // Hybrid replay: completions whose log chunk committed do not wait
        // for the epoch checkpoint.
        self.lane.stamp_committed(committed);

        if self.lane.beat_due(&mut self.cluster, host) && !self.cluster.is_partitioned(host) {
            self.chaos_beat(epoch_end);
        }

        if !self.replication_active() {
            self.cluster.pump();
            if self.stream.streaming(StreamKind::Rearm) {
                // Responses stay in the plugged qdisc: the bootstrap image
                // predates them, so they are only releasable once the first
                // post-re-arm incremental checkpoint commits.
                self.lane.held.extend(completions);
                self.lane.metrics.push(record);
                self.stream_step()?;
            } else {
                self.lane.stamp(0, completions, false);
                self.lane.collect(&mut self.cluster, epoch_end)?;
                self.lane.metrics.push(record);
            }
        } else if Self::chaos_blocked(&self.chaos, epoch_end) {
            // Chaos: the transfer direction is cut at the epoch boundary —
            // the checkpoint cannot reach the backup, so the epoch *stalls*:
            // no stop phase, output stays plugged, and the dirty state
            // accumulates into the first post-heal checkpoint (soft-dirty
            // tracking is cumulative until cleared by a dump). The backup
            // sees silence and starts suspecting.
            self.lane.held.extend(completions);
            self.chaos.as_mut().expect("chaos").stats.stalled_epochs += 1;
            self.lane.metrics.push(record);
        } else {
            self.checkpoint_epoch(record, completions, log, epoch_end)?;
            // A coded repair streams its bounded chunk after the epoch's
            // checkpoint acked (the stream rides the inter-replica links,
            // never the primary's stop phase).
            self.stream_step()?;
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

    /// The replicated epoch's stop phase and release: checkpoint, reconcile
    /// the trace, commit on the backup, and release the epoch's output at
    /// the ack — mechanically now, logically at `release_time` (paper path);
    /// under chaos the release is deferred to the next epoch boundary and an
    /// ack lost on its return leg withholds it.
    fn checkpoint_epoch(
        &mut self,
        record: EpochRecord,
        completions: Vec<Completion>,
        log: LogTotals,
        epoch_end: Nanos,
    ) -> SimResult<()> {
        let epoch = record.epoch;
        let replay_on = self.replay_on();
        let outcome = {
            let engine = self.replication.engine();
            // The execution phase that just ended is overlap time for the
            // engine's background pipeline stages (staged-pipeline
            // extension; a no-op for synchronous engines). Whatever
            // backlog remains surfaces as backpressure in the checkpoint.
            engine.pipeline_advance(self.cfg.epoch_exec);
            while self
                .stage_fails
                .front()
                .is_some_and(|&(t, _)| t <= epoch_end)
            {
                let (_, chunk) = self.stage_fails.pop_front().expect("front checked");
                engine.inject_stage_fail(chunk);
            }
            let (pk, bk) = self.cluster.two_hosts_mut(self.primary, self.backup);
            engine.checkpoint(pk, bk, &self.lane.container, epoch)?
        };
        self.cluster.clock.advance(outcome.stop_time);
        self.lane.last_stop = outcome.stop_time;
        if replay_on {
            // The seal rides the checkpoint transfer: it marks the epoch's
            // log complete so a failover can replay it whole.
            self.replication.engine().seal_log(epoch)?;
        }
        // Chaos delay spikes stretch the ack round-trip (transfer out plus
        // ack back). With a staging engine the stretch is an explicit
        // ack-phase span so the reconciliation identity still tiles; inline
        // engines (ack_delay == 0) get a zero-duration marker instead, since
        // their ack spans are already folded into the stop time.
        let chaos_extra = self
            .chaos
            .as_ref()
            .map_or(0, |ch| 2 * ch.schedule.delay_extra(epoch_end));
        let tracer = &self.lane.tracer;
        if chaos_extra > 0 {
            if outcome.ack_delay > 0 {
                tracer.span(TraceEvent::ChaosDelay { extra: chaos_extra }, chaos_extra);
            } else {
                tracer.mark(TraceEvent::ChaosDelay { extra: chaos_extra });
            }
        }
        let traced_ack = if outcome.ack_delay > 0 {
            outcome.ack_delay + chaos_extra
        } else {
            outcome.ack_delay
        };
        // The engine's phase spans must tile exactly the stop time and ack
        // delay it reported (the OBSERVABILITY.md invariant).
        log.trace(tracer);
        tracer
            .reconcile(epoch, outcome.stop_time, traced_ack, log.time)
            .map_err(SimError::Invalid)?;
        let release_time = self.cluster.clock.now() + outcome.ack_delay + chaos_extra;

        // Chaos: the backup commits regardless (the transfer went through);
        // only the ack's return leg can differ.
        let ack_lost = self.chaos.as_mut().map(|ch| {
            if ch.schedule.blocked(release_time, LinkDir::BtoA) {
                true
            } else if let Some(n) = ch.schedule.loss_period(release_time, LinkDir::BtoA) {
                ch.acks_attempted += 1;
                ch.acks_attempted.is_multiple_of(n)
            } else {
                false
            }
        });
        if ack_lost.is_none() {
            self.lane
                .unplug(&mut self.cluster, self.primary, release_time)?;
        }
        let backup = self.cluster.host_mut(self.backup);
        let commit_cpu = self.replication.engine().commit(backup, epoch)?;
        match (ack_lost, self.chaos.as_mut()) {
            (Some(true), Some(ch)) => {
                // The primary never learns: no release, no lease renewal.
                // The completions ride the next acked epoch.
                ch.stats.withheld_acks += 1;
                self.lane.held.extend(completions);
            }
            (Some(false), Some(ch)) => {
                // The ack doubles as a lease grant (see [`Fence`]). The
                // release itself is deferred to the epoch boundary so a
                // fault inside the gap can void it.
                ch.fence.on_ack(epoch_end, release_time);
                let until = ch.fence.holder_expiry();
                self.lane
                    .tracer
                    .event_at(TraceEvent::LeaseAcquire { until }, release_time);
                ch.pending_release = Some(PendingRelease {
                    release_time,
                    receipts: completions,
                });
            }
            _ => {
                // Held completions (if any) ride this epoch's release: this
                // is the first commit whose image covers them.
                let held = std::mem::take(&mut self.lane.held);
                let riding = held.into_iter().chain(completions);
                self.lane.stamp(release_time, riding, !replay_on);
                self.lane.collect(&mut self.cluster, release_time)?;
            }
        }
        self.lane.metrics.push(EpochRecord {
            stop_time: outcome.stop_time,
            dirty_pages: outcome.dirty_pages,
            state_bytes: outcome.state_bytes,
            ack_delay: outcome.ack_delay + chaos_extra,
            backup_cpu: outcome.backup_cpu + commit_cpu + log.backup_cpu,
            ..record
        });
        Ok(())
    }

    /// Hybrid replay: a primary fault lands inside the coming epoch. The
    /// primary executes right up to the fault instant, shipping log chunks
    /// as it goes; the epoch's checkpoint never runs. If every chunk
    /// committed, the truncated log seals and failover replay recovers the
    /// partial epoch byte-identically; a chunk lost to a cut link leaves the
    /// log unsealed, nothing from the epoch is released, and recovery falls
    /// back to the last checkpoint (clients retransmit). The caller fails
    /// over next.
    fn run_truncated_epoch(&mut self, fault_time: Nanos) -> SimResult<()> {
        let exec_start = self.cluster.clock.now();
        let host = self.primary;
        self.lane.tracer.begin_epoch(self.epoch, exec_start);
        let exec_window = fault_time
            .saturating_sub(exec_start)
            .min(self.cfg.epoch_exec);
        let served = self.serve(host, exec_start, fault_time, exec_window)?;
        let record = served.record(self.epoch);
        // Work interrupted by the fault dies with the primary.
        self.lane.cpu_debt = 0;
        served.log.trace(&self.lane.tracer);
        // A blocked chunk means part of the log never committed: the log
        // stays unsealed and *nothing* from the epoch is released — a
        // response escaping would expose state the fallback image does not
        // contain. Clients retransmit and the recovered container re-serves
        // them. Otherwise seal the truncated log so failover replay covers
        // this partial epoch, and deliver the outputs that were granted
        // release at log commit.
        if !served.blocked {
            self.replication.engine().seal_log(self.epoch)?;
            self.lane.unplug(&mut self.cluster, host, fault_time)?;
            self.lane.stamp_committed(served.committed);
            self.lane.collect(&mut self.cluster, fault_time)?;
        }
        self.lane.metrics.push(record);
        self.epoch += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Failover
    // ------------------------------------------------------------------

    /// A primary-host fault fired. Replicated, with a committed checkpoint
    /// to restore: fail over. Unreplicated after a failover (the paper
    /// path, or mid-bootstrap), or replicated before the first checkpoint
    /// committed: the service is lost. Unreplicated from the start: a
    /// harness-usage error.
    fn handle_primary_fault(&mut self, fault_time: Nanos) -> SimResult<()> {
        if self.replication_active() && self.replication.engine().committed_epoch().is_some() {
            // Hybrid replay: execution up to the fault instant is
            // recoverable via the log, so serve the partial epoch before
            // failing over instead of rounding down to the checkpoint.
            if self.replay_on() {
                self.run_truncated_epoch(fault_time)?;
            }
            return self.do_failover(fault_time);
        }
        if matches!(self.replication, Replication::Stock) {
            return Err(SimError::Invalid(
                "fault injected into an unreplicated run".into(),
            ));
        }
        // No live backup (fault tolerance exhausted, or mid-bootstrap), or
        // none holding a checkpoint yet: everything still plugged or queued
        // dies with the host. It only goes dark, keeping its memory: the
        // chaos runner still checks the lost instance's heap against its
        // script model.
        self.cluster.clock.advance_to(fault_time);
        self.cluster.partition(self.primary);
        let discarded = (self.lane.pending.len() + self.lane.held.len()) as u64;
        self.lane
            .tracer
            .event_at(TraceEvent::OutputDiscard { packets: discarded }, fault_time);
        self.lane.pending.clear();
        self.lane.held.clear();
        self.unrecovered_faults += 1;
        self.replication = Replication::Lost;
        Ok(())
    }

    /// Fail over a replicated run (the caller checks that the engine is
    /// driving and holds a committed checkpoint).
    fn do_failover(&mut self, fault_time: Nanos) -> SimResult<()> {
        // Fail-stop (§VII-A): the primary goes dark and its memory with it,
        // so the restored container is the committed image's only holder.
        self.cluster.clock.advance_to(fault_time);
        self.cluster.crash(self.primary);

        // Detection: the detector only changes state on its own heartbeat
        // grid, so poll along the beat boundaries. Under chaos, beats still
        // in flight (delayed or heal-flushed) keep landing while we wait.
        let mut t = self.lane.detector.next_boundary(fault_time);
        loop {
            self.chaos_deliver_beats(t);
            if self.lane.detector.check(t) {
                break;
            }
            t += HEARTBEAT_INTERVAL;
        }
        let detected = self
            .lane
            .detector
            .detected_at()
            .expect("check returned true");
        let Some(ch) = self.chaos.as_mut() else {
            self.cluster.clock.advance_to(detected.max(fault_time));
            let latency = self
                .lane
                .detector
                .detection_latency(fault_time)?
                .expect("check returned true");
            return self.promote_backup(latency);
        };
        // Fencing: promotion additionally waits out the granted lease, so
        // even a falsely-suspected primary can no longer release.
        let act = detected.max(fault_time).max(ch.fence.promotable_at());
        self.cluster.clock.advance_to(act);
        ch.fence.authorize_promotion(act)?;
        // A standing suspicion (from a partition, say) may predate the
        // injected fault; the silence simply continues.
        self.promote_backup(detected.saturating_sub(fault_time))
    }

    /// Promote the backup ([`Lane::promote`]) and swap the roles: the
    /// promoted host is the primary from now on. Then either re-arm or
    /// degrade. Shared by the injected-fault path ([`Self::do_failover`])
    /// and the chaos-detected path ([`Self::chaos_promote`]). A release
    /// deferred past the fault dies with the primary: its packets were never
    /// unplugged, so they are discarded with the rest of the uncommitted
    /// output, never duplicated.
    fn promote_backup(&mut self, latency: Nanos) -> SimResult<()> {
        let voided = self
            .chaos
            .as_mut()
            .and_then(|ch| ch.pending_release.take())
            .map_or(0, |pr| pr.receipts.len());
        let (engine, backup) = (self.replication.engine(), self.backup);
        self.lane
            .promote(&mut self.cluster, backup, engine, Some(latency), voided)?;
        std::mem::swap(&mut self.primary, &mut self.backup);
        // A repair in flight at failover time is moot: the rearm bootstrap
        // (if any) rebuilds the whole placement from the promoted primary.
        self.stream.reset();
        // Rearm extension: the engine parks until a replacement backup is
        // bootstrapped. Otherwise the container continues unreplicated (the
        // paper does not re-arm replication after failover) and the engine,
        // with its backup store, is dropped here.
        if let Replication::Active(engine) = self.replication.take() {
            if engine.supports_rearm() {
                self.park_for_rearm(engine, self.cluster.clock.now());
            }
        }
        self.epoch += 1;
        Ok(())
    }

    /// Park `engine` and schedule the bootstrap of a replacement backup
    /// [`REARM_DELAY`] after `t`.
    fn park_for_rearm(&mut self, engine: Box<dyn Checkpointer>, t: Nanos) {
        self.replication = Replication::Parked(engine);
        self.rearmed = false;
        self.stream.schedule(StreamKind::Rearm, t + REARM_DELAY, 0);
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
        self.chaos_flush_pending()?;
        if matches!(self.stream.phase, StreamPhase::Streaming { .. }) {
            // The replacement host died mid-stream: discard its
            // half-assembled image, keep serving, retry with backoff. A
            // bootstrap had the container unreplicated, so its plugged
            // output goes out; a repair provisions another fresh host and
            // epochs keep committing on the surviving quorum throughout.
            self.cluster.crash(self.backup);
            let engine = self
                .replication
                .stream_engine(self.stream.kind)
                .expect("streaming without an engine");
            self.stream.abort(
                t,
                engine,
                self.cluster.host_mut(self.primary),
                &self.lane.container,
                REARM_BACKOFF,
            )?;
            return match self.stream.kind {
                StreamKind::Rearm => self.release_plugged_output(t),
                StreamKind::Repair => {
                    self.backup = self.cluster.add_host(Kernel::default());
                    Ok(())
                }
            };
        }
        let Replication::Active(mut engine) = self.replication.take() else {
            return Err(SimError::Invalid(
                "backup fault injected with no live backup".into(),
            ));
        };
        self.cluster.crash(self.backup);
        if engine.supports_placement() {
            let (k, _n) = engine.placement();
            let attempt = match self.stream.phase {
                StreamPhase::Scheduled { attempt, .. } => attempt + 1,
                _ => 0,
            };
            let alive = engine.replica_fault()?;
            if alive >= k {
                // Quorum holds: the epoch pipeline never pauses and output
                // stays plugged/released on the normal ack path. Provision
                // the replacement immediately; the repair starts after the
                // same settling delay a rearm bootstrap uses.
                self.replication = Replication::Active(engine);
                self.backup = self.cluster.add_host(Kernel::default());
                self.lane
                    .tracer
                    .event_at(TraceEvent::DegradedMode { alive, need: k }, t);
                self.stream
                    .schedule(StreamKind::Repair, t + REARM_DELAY, attempt);
                return Ok(());
            }
            // Below quorum: no further epoch can ack. Fall through to the
            // single-backup degrade path (release everything and, with the
            // rearm extension, bootstrap a whole new placement).
            self.stream.reset();
        }
        self.release_plugged_output(t)?;
        if engine.supports_rearm() {
            self.park_for_rearm(engine, t);
        }
        Ok(())
    }

    /// Replication is gone (backup lost): output commit is moot, so unplug
    /// the qdisc for good, release everything held, and deliver to clients.
    fn release_plugged_output(&mut self, t: Nanos) -> SimResult<()> {
        let ns = self.lane.container.ns.net;
        self.cluster.host_mut(self.primary).stack_mut(ns)?.plugged = false;
        let held = std::mem::take(&mut self.lane.held);
        self.lane
            .release(&mut self.cluster, self.primary, t, held, false)
    }

    /// Start the scheduled stream once its time arrives. A rearm provisions
    /// a fresh replacement host and stops the container once for the
    /// bootstrap checkpoint; a repair whose placement has meanwhile degraded
    /// below quorum (or failed over) is dropped.
    fn stream_tick(&mut self) -> SimResult<()> {
        let now = self.cluster.clock.now();
        if !self.stream.due(now) {
            return Ok(());
        }
        let rearm = self.stream.kind == StreamKind::Rearm;
        if rearm {
            self.backup = self.cluster.add_host(Kernel::default());
        }
        let Some(engine) = self.replication.stream_engine(self.stream.kind) else {
            self.stream.reset();
            return Ok(());
        };
        if rearm {
            engine.set_tracer(self.lane.tracer.clone());
        }
        let stop = self.stream.begin(
            now,
            engine,
            self.cluster.host_mut(self.primary),
            &self.lane.container,
            self.epoch,
            &self.lane.tracer,
        )?;
        if rearm {
            self.cluster.clock.advance(stop);
            self.lane.last_stop = stop;
        }
        Ok(())
    }

    /// One bounded chunk of the stream in flight, if any (runs at the end of
    /// each epoch). A completed repair rejoins the placement at full
    /// redundancy; a completed bootstrap resumes incremental epochs with a
    /// fresh failure detector.
    fn stream_step(&mut self) -> SimResult<()> {
        let Some(engine) = self.replication.stream_engine(self.stream.kind) else {
            return Ok(());
        };
        let now = self.cluster.clock.now();
        let (pk, bk) = self.cluster.two_hosts_mut(self.primary, self.backup);
        let done = self.stream.step(
            now,
            engine,
            pk,
            bk,
            self.epoch,
            self.cfg.rearm_chunk_pages,
            &self.lane.tracer,
        )?;
        if !done || self.stream.kind == StreamKind::Repair {
            return Ok(());
        }
        if let Replication::Parked(engine) = self.replication.take() {
            self.replication = Replication::Active(engine);
        }
        self.rearmed = true;
        self.lane.detector = FailureDetector::new(now);
        self.lane.detector.set_tracer(self.lane.tracer.clone());
        if let Some(ch) = self.chaos.as_mut() {
            // Fresh pair, fresh fences: re-anchor both leases at `now` so a
            // grant left over from before the fault cannot green-light an
            // instant promotion.
            ch.fence.on_ack(now, now);
        }
        Ok(())
    }

    /// Finish the run: validate and hand back the results.
    pub fn finish(mut self) -> RunResult {
        // Flush a deferred release still sitting at the end of the run (its
        // ack committed; only the epoch boundary never came).
        let _ = self.chaos_flush_pending();
        self.lane.metrics.elapsed = self.cluster.clock.now();
        let (broken_connections, verify) = self.lane.finish(&mut self.cluster);
        // A scheduled fault that never fired is unproven survival: the old
        // `recovered` semantics (fault pending + still on the primary =
        // not recovered) are preserved by counting it against the run.
        let pending = self.faults.iter().filter(|f| f.1 == Fault::Primary);
        let unrecovered = self.unrecovered_faults + pending.count() as u64;
        RunResult {
            metrics: self.lane.metrics,
            failover: self.lane.failover_report,
            detection_latency: self.lane.detection_latency,
            recovered: unrecovered == 0,
            failovers: self.lane.failovers,
            unrecovered_faults: unrecovered,
            broken_connections,
            verify,
        }
    }

    /// Read-only metrics access mid-run.
    pub fn metrics(&self) -> &RunMetrics {
        &self.lane.metrics
    }
}
