//! The chaos matrix: adversarial scenarios on the replication/heartbeat
//! links (partition, asymmetric loss, delay spikes, reordering) crossed with
//! fault timing, classified into recovered / degraded / data-loss /
//! split-brain (see DESIGN.md §9 for the failure-mode catalog this sweeps).
//!
//! Every cell runs twice:
//!
//! * a **state** run — the [`ScriptApp`] batch workload, whose guest-heap
//!   contents are a pure function of a step counter `n`, so the final memory
//!   can be re-derived by replaying `1..=n` onto the initial snapshot and
//!   byte-compared (the `tests/cow_equivalence.rs` pattern, without needing
//!   a reference run);
//! * a **service** run — the `net_echo` workload, checking response
//!   correctness and broken connections across the same schedule.
//!
//! A cell's outcome is the worse of the two.

use nilicon::fleet::{FleetScheduler, LaneSpec};
use nilicon::harness::{RunHarness, RunMode};
use nilicon::traffic::ClientBehavior;
use nilicon::{ChaosStats, NiLiConEngine, OptimizationConfig, PlacementEngine, ReplicationConfig};
use nilicon_container::{Application, ContainerSpec, GuestCtx, RequestOutcome, StepOutcome};
use nilicon_sim::net::{ChaosSchedule, FaultKind, LinkDir};
use nilicon_sim::time::Nanos;
use nilicon_sim::{CostModel, SimResult, MILLISECOND, PAGE_SIZE};
use nilicon_workloads::net_echo;
use serde::Serialize;

const MS: Nanos = MILLISECOND;
/// Heap pages the script touches (and the snapshot covers).
pub const HEAP_PAGES: u64 = 64;
/// CPU charged per script step (~20 steps per 30 ms epoch).
const STEP_CPU: Nanos = 1_500_000;

// ----------------------------------------------------------------------
// The deterministic write script and its replay model
// ----------------------------------------------------------------------

/// The writes step `n` performs, as `(heap byte offset, bytes)` — one sparse
/// edit, one dense page rewrite, one page periodically scrubbed to zeros,
/// and one "fresh" page first touched late in the run, plus the counter
/// itself at offset 0. Pure in `n`: the whole heap after step `n` is
/// `replay(base, n)`.
fn script_writes(n: u64) -> Vec<(u64, Vec<u8>)> {
    let p = PAGE_SIZE as u64;
    let scrub = if n.is_multiple_of(5) {
        0u8
    } else {
        (n % 7) as u8 + 1
    };
    vec![
        (0, n.to_le_bytes().to_vec()),
        ((1 + n % 13) * p + (n % 256) * 8, vec![n as u8; 64]),
        (20 * p, vec![(n % 251) as u8 | 1; PAGE_SIZE]),
        (21 * p, vec![scrub; PAGE_SIZE]),
        ((24 + n % 32) * p, vec![0xC3 ^ (n as u8); 128]),
    ]
}

/// Replay steps `1..=n` of the script onto `base` (the pre-run heap
/// snapshot); the result is the only memory state a correct run can end in.
pub fn replay(base: &[u8], n: u64) -> Vec<u8> {
    let mut mem = base.to_vec();
    for i in 1..=n {
        for (off, data) in script_writes(i) {
            let off = off as usize;
            mem[off..off + data.len()].copy_from_slice(&data);
        }
    }
    mem
}

/// Batch application executing the deterministic write script once per
/// step (`script_writes`, private — see `replay` for the public half). The step
/// counter lives in guest memory (heap offset 0), so it both survives
/// failover and is readable from the final snapshot.
pub struct ScriptApp {
    n: u64,
}

impl ScriptApp {
    /// Fresh script at step 0.
    pub fn new() -> Self {
        ScriptApp { n: 0 }
    }
}

impl Default for ScriptApp {
    fn default() -> Self {
        Self::new()
    }
}

impl Application for ScriptApp {
    fn name(&self) -> &str {
        "script"
    }

    fn init(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        ctx.heap_write(0, &0u64.to_le_bytes())
    }

    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<StepOutcome> {
        self.n += 1;
        for (off, data) in script_writes(self.n) {
            ctx.heap_write(off, &data)?;
        }
        ctx.cpu(STEP_CPU);
        Ok(StepOutcome { done: false })
    }

    fn recover(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        // Resume from whatever step the committed image last saw.
        let mut buf = [0u8; 8];
        ctx.heap_read(0, &mut buf)?;
        self.n = u64::from_le_bytes(buf);
        Ok(())
    }

    fn is_server(&self) -> bool {
        false
    }
}

// ----------------------------------------------------------------------
// Scenarios
// ----------------------------------------------------------------------

/// Cell outcome classes, ordered least to most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum Outcome {
    /// Service and committed state intact (byte-identical check passed).
    Recovered,
    /// Service intact but redundancy lost without a failover (backup loss,
    /// no re-arm).
    Degraded,
    /// Verification, state comparison, or an injected fault's recovery
    /// failed.
    DataLoss,
    /// The exactly-one-owner invariant broke (must never appear).
    SplitBrain,
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Outcome::Recovered => "recovered",
            Outcome::Degraded => "degraded",
            Outcome::DataLoss => "data-loss",
            Outcome::SplitBrain => "split-brain",
        })
    }
}

/// One adversarial scenario: a link-fault schedule plus optional injected
/// host faults, with the catalogued expectation (DESIGN.md §9).
pub struct Scenario {
    /// Catalog name.
    pub name: &'static str,
    /// Link-fault schedule (already shifted).
    pub schedule: ChaosSchedule,
    /// Fail-stop the active host at this time.
    pub primary_fault: Option<Nanos>,
    /// Fail-stop the backup host at this time.
    pub backup_fault: Option<Nanos>,
    /// Fail-stop the (replacement) backup host a second time — lands the
    /// fault mid-repair in the placement scenarios.
    pub backup_fault2: Option<Nanos>,
    /// Run with the re-replication extension armed.
    pub rearm: bool,
    /// Run under a k-of-n placement instead of the single warm backup.
    pub placement: Option<(u32, u32)>,
    /// Override the per-epoch repair/bootstrap chunk (tiny chunks stretch a
    /// repair across many epochs so mid-repair faults land reliably).
    pub chunk_pages: Option<u64>,
    /// Run with the hybrid checkpoint + replay extension (`--replay`):
    /// output releases at log commit and a failover replays the sealed tail.
    pub replay: bool,
    /// Run with the staged pipeline (`--pipeline`): dump-drain, encode,
    /// transfer, and ingest overlap the next execution phase behind bounded
    /// peek-before-commit channels.
    pub pipeline: bool,
    /// Crash the pipeline's ingest stage at the first checkpoint at or
    /// after this time (chunk 0 of that transfer): the restarted stage
    /// replays the chunk from the channel's uncommitted slot.
    pub stage_fail: Option<Nanos>,
    /// Expected outcome per the failure-mode catalog.
    pub expect: Outcome,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            name: "",
            schedule: ChaosSchedule::default(),
            primary_fault: None,
            backup_fault: None,
            backup_fault2: None,
            rearm: false,
            placement: None,
            chunk_pages: None,
            replay: false,
            pipeline: false,
            stage_fail: None,
            expect: Outcome::Recovered,
        }
    }
}

/// The scenario catalog, with every window and fault time shifted by
/// `shift` (the fault-timing sweep axis: the same fault lands at different
/// phases of the 30 ms epoch).
pub fn scenarios(shift: Nanos) -> Vec<Scenario> {
    let s = |t: Nanos| t + shift;
    let none = ChaosSchedule::default();
    vec![
        Scenario {
            name: "partition-brief",
            schedule: none
                .clone()
                .window(s(400 * MS), s(460 * MS), FaultKind::Partition),
            ..Default::default()
        },
        Scenario {
            name: "partition-false-positive",
            schedule: none
                .clone()
                .window(s(400 * MS), s(510 * MS), FaultKind::Partition),
            ..Default::default()
        },
        Scenario {
            name: "partition-long",
            schedule: none
                .clone()
                .window(s(400 * MS), s(2000 * MS), FaultKind::Partition),
            ..Default::default()
        },
        Scenario {
            name: "asym-loss-heartbeats",
            schedule: none.clone().window(
                s(400 * MS),
                s(700 * MS),
                FaultKind::AsymLoss {
                    dir: LinkDir::AtoB,
                    drop_nth: 2,
                },
            ),
            ..Default::default()
        },
        Scenario {
            name: "asym-loss-acks",
            schedule: none.clone().window(
                s(400 * MS),
                s(550 * MS),
                FaultKind::AsymLoss {
                    dir: LinkDir::BtoA,
                    drop_nth: 1,
                },
            ),
            ..Default::default()
        },
        Scenario {
            name: "delay-mild",
            schedule: none.clone().window(
                s(400 * MS),
                s(700 * MS),
                FaultKind::DelaySpike { extra: 20 * MS },
            ),
            ..Default::default()
        },
        Scenario {
            name: "delay-fence",
            schedule: none.clone().window(
                s(400 * MS),
                s(700 * MS),
                FaultKind::DelaySpike { extra: 80 * MS },
            ),
            ..Default::default()
        },
        Scenario {
            name: "reorder",
            schedule: none
                .clone()
                .window(s(400 * MS), s(700 * MS), FaultKind::Reorder),
            ..Default::default()
        },
        Scenario {
            name: "backup-fault-mid-epoch",
            schedule: none.clone(),
            backup_fault: Some(s(415 * MS)),
            expect: Outcome::Degraded,
            ..Default::default()
        },
        Scenario {
            name: "backup-fault-rearm",
            schedule: none.clone(),
            backup_fault: Some(s(415 * MS)),
            rearm: true,
            ..Default::default()
        },
        Scenario {
            name: "fault-during-release",
            schedule: none.clone().window(
                s(380 * MS),
                s(500 * MS),
                FaultKind::DelaySpike { extra: 10 * MS },
            ),
            primary_fault: Some(s(415 * MS)),
            ..Default::default()
        },
        // ---- k-of-n placement scenarios: backup loss under (2,3) -------
        // A replica death leaves the bare quorum serving; coded repair
        // regenerates the lost fragment store online, so the run ends
        // fully replicated with zero failovers: Recovered, not Degraded.
        Scenario {
            name: "backup-loss-mid-epoch",
            schedule: none.clone(),
            backup_fault: Some(s(415 * MS)),
            placement: Some((2, 3)),
            ..Default::default()
        },
        // The replacement host dies while the repair streams: the
        // half-built fragment store is discarded and a backoff retry
        // (small chunks stretch the stream so the second fault reliably
        // lands mid-repair) restores redundancy.
        Scenario {
            name: "backup-loss-mid-repair",
            schedule: none.clone(),
            backup_fault: Some(s(415 * MS)),
            backup_fault2: Some(s(575 * MS)),
            placement: Some((2, 3)),
            chunk_pages: Some(8),
            ..Default::default()
        },
        // The replica dies inside a sub-lease partition window: the stalled
        // epochs resume after heal, and the repair (scheduled during the
        // partition) streams once commits flow again.
        Scenario {
            name: "backup-loss-in-partition",
            schedule: none.clone().window(s(430 * MS), s(540 * MS), FaultKind::Partition),
            backup_fault: Some(s(470 * MS)),
            placement: Some((2, 3)),
            ..Default::default()
        },
        // ---- hybrid checkpoint + replay scenarios (`--replay`) ---------
        // Log-ship through a partition window: chunks blocked by the
        // partition fall back to the held/epoch-ack release path (nothing
        // releases against an uncommitted log), the stalled epochs catch up
        // at heal, and no failover happens — recovered, byte-identical.
        Scenario {
            name: "replay-logship-partition",
            schedule: none
                .clone()
                .window(s(400 * MS), s(460 * MS), FaultKind::Partition),
            replay: true,
            ..Default::default()
        },
        // Fault mid-epoch with the log mid-ship: the truncated fault
        // epoch's chunks commit up to the fault, the seal rides the
        // boundary, and the promoted backup replays the sealed tail on top
        // of the last checkpoint — recovered with the replayed state
        // byte-identical (DESIGN.md §11 divergence rule covers the rest).
        Scenario {
            name: "replay-fault-mid-replay",
            schedule: none.clone(),
            primary_fault: Some(s(415 * MS)),
            replay: true,
            ..Default::default()
        },
        // ---- staged-pipeline scenarios (`--pipeline`) ------------------
        // A pipeline ingest stage crashes mid-epoch while the link is
        // partitioned: the bounded channel's peek-before-commit slot holds
        // the in-flight chunk across the restart, so the replayed chunk
        // lands exactly once; the partition stalls commits until heal, and
        // nothing releases against an uncommitted epoch.
        Scenario {
            name: "pipeline-stage-crash-partition",
            schedule: none
                .clone()
                .window(s(400 * MS), s(460 * MS), FaultKind::Partition),
            pipeline: true,
            stage_fail: Some(s(415 * MS)),
            ..Default::default()
        },
        // The primary dies while the pipeline is backpressured (a delay
        // spike stretches the ack round-trip past one epoch of overlap
        // budget, so checkpoints carry a `Backpressure` stall): the
        // in-flight backlog dies with the primary's staging buffer, and the
        // failover falls back to the last *committed* epoch — recovered,
        // byte-identical, because output never released against the
        // uncommitted tail.
        Scenario {
            name: "pipeline-backpressure-failover",
            schedule: none.window(
                s(380 * MS),
                s(700 * MS),
                FaultKind::DelaySpike { extra: 80 * MS },
            ),
            pipeline: true,
            primary_fault: Some(s(445 * MS)),
            ..Default::default()
        },
    ]
}

// ----------------------------------------------------------------------
// Running one cell
// ----------------------------------------------------------------------

/// Everything one cell run produced, for classification and reporting.
#[derive(Debug, Clone, Serialize)]
pub struct CellRun {
    /// Outcome class for this run alone.
    pub outcome: Outcome,
    /// Byte-identical state check (state runs; `true` for service runs).
    pub state_ok: bool,
    /// Workload verification + no broken connections.
    pub service_ok: bool,
    /// Failovers completed.
    pub failovers: u64,
    /// Chaos counters at the end of the run.
    pub stats: ChaosStats,
    /// Hard error, if the run aborted (split-brain reports land here too).
    pub error: Option<String>,
}

fn chaos_mode(sc: &Scenario) -> RunMode {
    let mut opts = OptimizationConfig::nilicon();
    opts.rearm = sc.rearm;
    opts.hybrid_replay = sc.replay;
    opts.pipeline = sc.pipeline;
    match sc.placement {
        Some((k, n)) => {
            opts.quorum = k;
            opts.backups = n;
            RunMode::Replicated(Box::new(
                PlacementEngine::new(opts, CostModel::default())
                    .expect("valid catalog placement"),
            ))
        }
        None => RunMode::Replicated(Box::new(NiLiConEngine::new(opts, CostModel::default()))),
    }
}

/// The per-cell replication config: catalog chunk override applied.
fn chaos_cfg(sc: &Scenario) -> ReplicationConfig {
    let mut cfg = ReplicationConfig::default();
    if let Some(chunk) = sc.chunk_pages {
        cfg.rearm_chunk_pages = chunk;
    }
    cfg
}

/// Run the initial-sync epoch on the paper path, then arm the chaos link,
/// leases, and fault schedule. NiLiCon likewise starts failure detection
/// only after the bootstrap transfer completes: the ~160 ms initial full
/// sync is silence on the heartbeat channel, and arming earlier makes every
/// run open with one spurious suspicion/fence cycle (see DESIGN.md §9).
fn arm(h: &mut RunHarness, sc: &Scenario) -> Result<(), String> {
    h.run_epochs(1).map_err(|e| e.to_string())?;
    h.set_chaos(sc.schedule.clone());
    if let Some(t) = sc.primary_fault {
        h.inject_fault_at(t);
    }
    if let Some(t) = sc.backup_fault {
        h.inject_backup_fault_at(t);
    }
    if let Some(t) = sc.backup_fault2 {
        h.inject_backup_fault_at(t);
    }
    if let Some(t) = sc.stage_fail {
        h.inject_stage_fail_at(t, 0);
    }
    Ok(())
}

fn classify(
    state_ok: bool,
    service_ok: bool,
    unrecovered: u64,
    failovers: u64,
    replication_now: bool,
    stats: &ChaosStats,
    error: Option<&str>,
) -> Outcome {
    if stats.split_brain || error.is_some_and(|e| e.contains("split-brain")) {
        return Outcome::SplitBrain;
    }
    if !state_ok || !service_ok || unrecovered > 0 || error.is_some() {
        return Outcome::DataLoss;
    }
    if failovers == 0 && !replication_now {
        // The backup died and nothing replaced it: serving, unprotected.
        return Outcome::Degraded;
    }
    Outcome::Recovered
}

/// Run the [`ScriptApp`] state cell: `epochs` epochs under the scenario,
/// then byte-compare the final heap against the replayed script.
pub fn run_state_cell(sc: &Scenario, epochs: u64) -> CellRun {
    let mut spec = ContainerSpec::batch("script", 10);
    spec.heap_pages = HEAP_PAGES;
    spec.threads_per_process = 1;
    let mut h = RunHarness::new(
        spec,
        Box::new(ScriptApp::new()),
        None,
        chaos_mode(sc),
        chaos_cfg(sc),
        1.0,
    )
    .expect("harness");
    let base = h.snapshot_heap(HEAP_PAGES);
    let error = arm(&mut h, sc)
        .err()
        .or_else(|| h.run_epochs(epochs.saturating_sub(1)).err().map(|e| e.to_string()));
    let stats = h.chaos_stats().unwrap_or_default();
    let failovers = h.failovers();
    let replication_now = h.replication_active();

    let snap = h.snapshot_heap(HEAP_PAGES);
    let n = u64::from_le_bytes(snap[0..8].try_into().expect("counter bytes"));
    // A run that aborted (split-brain) proves nothing about state; skip the
    // replay so the comparison can't mask the real outcome.
    let state_ok = error.is_none() && n > 0 && snap == replay(&base, n);

    let r = h.finish();
    let outcome = classify(
        state_ok,
        true,
        r.unrecovered_faults,
        failovers,
        replication_now,
        &stats,
        error.as_deref(),
    );
    CellRun {
        outcome,
        state_ok,
        service_ok: true,
        failovers,
        stats,
        error,
    }
}

/// Run the `net_echo` service cell: same scenario, correctness judged by the
/// echo behavior's verification and broken-connection count.
pub fn run_service_cell(sc: &Scenario, epochs: u64) -> CellRun {
    let w = net_echo(4);
    let mut h = RunHarness::new(
        w.spec,
        w.app,
        w.behavior,
        chaos_mode(sc),
        chaos_cfg(sc),
        w.parallelism,
    )
    .expect("harness");
    let error = arm(&mut h, sc)
        .err()
        .or_else(|| h.run_epochs(epochs.saturating_sub(1)).err().map(|e| e.to_string()));
    let stats = h.chaos_stats().unwrap_or_default();
    let failovers = h.failovers();
    let replication_now = h.replication_active();
    let r = h.finish();
    let service_ok = error.is_none() && r.verify.is_ok() && r.broken_connections == 0;
    let outcome = classify(
        true,
        service_ok,
        r.unrecovered_faults,
        failovers,
        replication_now,
        &stats,
        error.as_deref(),
    );
    CellRun {
        outcome,
        state_ok: true,
        service_ok,
        failovers,
        stats,
        error,
    }
}

// ----------------------------------------------------------------------
// Fleet cells (EXTENSION `--fleet N`, DESIGN.md §13)
// ----------------------------------------------------------------------

/// One fleet-scale adversarial scenario: N lanes multiplexed on one
/// primary/backup pair, with a partition of the whole pair or a fail-stop
/// of a single lane's container. The invariants under test are the fleet's:
/// per-lane ownership promotes independently behind the lease fence
/// (exactly one owner per lane, never per pair), and a fault on lane A
/// must not break lane B's clients.
pub struct FleetScenario {
    /// Catalog name.
    pub name: &'static str,
    /// Lane count (`--fleet N`).
    pub lanes: u32,
    /// Partition the primary from backup + clients over this window.
    pub partition: Option<(Nanos, Nanos)>,
    /// Fail-stop one lane's container processes at this time.
    pub lane_fault: Option<(usize, Nanos)>,
    /// Failovers the catalog expects (summed over lanes).
    pub expect_failovers: u64,
    /// Expected outcome.
    pub expect: Outcome,
}

/// The fleet scenario catalog, shifted like [`scenarios`].
pub fn fleet_scenarios(shift: Nanos) -> Vec<FleetScenario> {
    let s = |t: Nanos| t + shift;
    vec![
        // The pair partitions mid-fleet: every lane's output is held (no
        // ack ⇒ no release), leases run out behind the fence, and the
        // backup promotes all three lanes; the zombie primary's held
        // output is discarded, never released.
        FleetScenario {
            name: "fleet-partition-mid-fleet",
            lanes: 3,
            partition: Some((s(400 * MS), s(1000 * MS))),
            lane_fault: None,
            expect_failovers: 3,
            expect: Outcome::Recovered,
        },
        // Container A fail-stops while lane B is mid-commit on the shared
        // link (the stagger keeps B's stop/ack in flight when A dies): A
        // alone promotes; B's epoch commits and its clients never notice.
        FleetScenario {
            name: "fleet-lane-fault-while-peer-commits",
            lanes: 2,
            partition: None,
            lane_fault: Some((0, s(415 * MS))),
            expect_failovers: 1,
            expect: Outcome::Recovered,
        },
    ]
}

/// Echo application for fleet lanes: each request burns `cpu` and is staged
/// through guest heap, rotating over `dirty` pages, so committed state
/// covers served requests and a lane's per-epoch footprint is a knob.
struct FleetEcho {
    cpu: Nanos,
    dirty: u64,
    n: u64,
}

impl Application for FleetEcho {
    fn name(&self) -> &str {
        "fleet-echo"
    }
    fn init(&mut self, _ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        Ok(())
    }
    fn handle_request(&mut self, ctx: &mut GuestCtx<'_>, req: &[u8]) -> SimResult<RequestOutcome> {
        self.n += 1;
        ctx.cpu(self.cpu);
        let at = self.n % self.dirty * PAGE_SIZE as u64;
        ctx.heap_write(at, req)?;
        let mut back = vec![0u8; req.len()];
        ctx.heap_read(at, &mut back)?;
        Ok(RequestOutcome { response: back })
    }
}

/// Closed-loop clients tagging payloads per lane and verifying every echo.
struct EchoClients {
    n: usize,
    tag: u8,
    issued: u64,
    got: u64,
    bad: u64,
}

impl ClientBehavior for EchoClients {
    fn client_count(&self) -> usize {
        self.n
    }
    fn next_request(&mut self, idx: usize, _now: Nanos) -> Option<Vec<u8>> {
        self.issued += 1;
        Some(vec![self.tag, idx as u8, (self.issued % 251) as u8])
    }
    fn on_response(&mut self, idx: usize, resp: &[u8], _now: Nanos, _latency: Nanos) {
        self.got += 1;
        if resp.len() != 3 || resp[0] != self.tag || resp[1] != idx as u8 {
            self.bad += 1;
        }
    }
    fn verify(&self) -> Result<(), String> {
        if self.bad > 0 {
            return Err(format!("{} corrupted echoes (tag {})", self.bad, self.tag));
        }
        if self.got == 0 {
            return Err(format!("no responses completed (tag {})", self.tag));
        }
        Ok(())
    }
}

/// A fleet lane in `spec`: an echo server spending `cpu` per request over
/// `dirty` heap pages, for `clients` closed-loop clients whose payloads
/// carry `tag`. The chaos cells and `fleet_bench` both build their lanes
/// here.
pub fn echo_lane(spec: ContainerSpec, cpu: Nanos, dirty: u64, clients: usize, tag: u8) -> LaneSpec {
    LaneSpec {
        spec,
        app: Box::new(FleetEcho { cpu, dirty, n: 0 }),
        behavior: Some(Box::new(EchoClients {
            n: clients,
            tag,
            issued: 0,
            got: 0,
            bad: 0,
        })),
    }
}

fn fleet_lane(i: u32) -> LaneSpec {
    let mut spec = ContainerSpec::server(&format!("svc{i}"), 10 + i, 6379);
    spec.heap_pages = 64;
    echo_lane(spec, 40_000, 1, 2, 0x40 + i as u8)
}

/// Run one fleet cell: `epochs` epochs per lane under the scenario, judged
/// on every lane's echo verification, zero broken connections, the
/// catalogued failover count, and the per-lane exactly-one-owner invariant.
pub fn run_fleet_cell(sc: &FleetScenario, epochs: u64) -> CellRun {
    let mut cfg = ReplicationConfig {
        opts: OptimizationConfig::nilicon(),
        ..Default::default()
    };
    cfg.opts.fleet = sc.lanes;
    let lanes = (0..sc.lanes).map(fleet_lane).collect();
    let mut fleet = FleetScheduler::new(cfg, lanes).expect("fleet");
    if let Some((from, until)) = sc.partition {
        fleet.partition_primary(from, until);
    }
    if let Some((lane, t)) = sc.lane_fault {
        fleet.inject_lane_fault_at(lane, t);
    }
    let error = fleet.run_epochs(epochs).err().map(|e| e.to_string());
    let r = fleet.finish();

    let failovers: u64 = r.lanes.iter().map(|l| l.failovers).sum();
    let unrecovered = r.lanes.iter().filter(|l| l.unrecovered).count() as u64;
    let lane_fail: Vec<String> = r
        .lanes
        .iter()
        .enumerate()
        .filter_map(|(i, l)| {
            l.verify
                .as_ref()
                .err()
                .map(|e| format!("lane {i}: {e}"))
                .or_else(|| {
                    (l.broken_connections > 0)
                        .then(|| format!("lane {i}: {} broken connections", l.broken_connections))
                })
        })
        .collect();
    let service_ok = error.is_none() && lane_fail.is_empty() && failovers == sc.expect_failovers;
    let error = error.or_else(|| {
        (!lane_fail.is_empty()).then(|| lane_fail.join("; "))
    });
    let stats = ChaosStats {
        split_brain: r.split_brains() > 0,
        ..ChaosStats::default()
    };
    // `replication_now`: a fleet lane that failed over serves unreplicated
    // by design (no re-arm); Degraded is reserved for a backup dying with
    // no failover, which these scenarios cannot produce.
    let outcome = classify(
        true,
        service_ok,
        unrecovered,
        failovers,
        true,
        &stats,
        error.as_deref(),
    );
    CellRun {
        outcome,
        state_ok: true,
        service_ok,
        failovers,
        stats,
        error,
    }
}

/// One matrix cell: the worse of the state and service runs.
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    /// Scenario name.
    pub scenario: &'static str,
    /// Fault-timing shift (ms).
    pub shift_ms: u64,
    /// Catalogued expectation.
    pub expect: Outcome,
    /// Observed outcome (worse of state/service).
    pub outcome: Outcome,
    /// The state run.
    pub state: CellRun,
    /// The service run.
    pub service: CellRun,
}

/// Default epochs per cell run (~2.3 s virtual — past every window and
/// promotion gate in the catalog).
pub const CELL_EPOCHS: u64 = 75;

/// Run one full cell (state + service) of the matrix.
pub fn run_cell(sc: &Scenario, shift: Nanos, epochs: u64) -> Cell {
    let state = run_state_cell(sc, epochs);
    let service = run_service_cell(sc, epochs);
    Cell {
        scenario: sc.name,
        shift_ms: shift / MS,
        expect: sc.expect,
        outcome: state.outcome.max(service.outcome),
        state,
        service,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_pure_and_cumulative() {
        let base = vec![0u8; (HEAP_PAGES as usize) * PAGE_SIZE];
        let a = replay(&base, 40);
        let b = replay(&replay(&base, 25), 0); // replay(…, 0) is identity
        assert_ne!(a, base);
        assert_eq!(b, replay(&base, 25));
        // Step 40's counter is in place.
        assert_eq!(u64::from_le_bytes(a[0..8].try_into().unwrap()), 40);
    }

    #[test]
    fn script_writes_stay_inside_the_snapshot() {
        for n in 0..600 {
            for (off, data) in script_writes(n) {
                assert!(
                    (off as usize + data.len()) <= (HEAP_PAGES as usize) * PAGE_SIZE,
                    "step {n} writes out of range"
                );
            }
        }
    }

    #[test]
    fn catalog_covers_the_required_scenario_classes() {
        let cat = scenarios(0);
        assert!(cat.len() >= 6);
        for needle in [
            "partition",
            "asym-loss",
            "delay",
            "backup-fault",
            "fault-during-release",
            "partition-false-positive",
            "backup-loss-mid-epoch",
            "backup-loss-mid-repair",
            "backup-loss-in-partition",
            "pipeline-stage-crash-partition",
            "pipeline-backpressure-failover",
        ] {
            assert!(
                cat.iter().any(|s| s.name.contains(needle)),
                "catalog misses {needle}"
            );
        }
        let fleet = fleet_scenarios(0);
        for needle in ["fleet-partition-mid-fleet", "fleet-lane-fault-while-peer-commits"] {
            assert!(
                fleet.iter().any(|s| s.name.contains(needle)),
                "fleet catalog misses {needle}"
            );
        }
    }

    #[test]
    fn fleet_cells_match_the_catalog() {
        for sc in fleet_scenarios(0) {
            let cell = run_fleet_cell(&sc, CELL_EPOCHS);
            assert!(!cell.stats.split_brain, "{}: split brain", sc.name);
            assert_eq!(
                cell.outcome, sc.expect,
                "{}: {:?} (error: {:?})",
                sc.name, cell.outcome, cell.error
            );
        }
    }

    #[test]
    fn clean_state_run_is_recovered_and_byte_identical() {
        let sc = Scenario {
            name: "clean",
            ..Default::default()
        };
        let cell = run_state_cell(&sc, 12);
        assert!(cell.state_ok, "clean run must replay byte-identically");
        assert_eq!(cell.outcome, Outcome::Recovered);
    }
}
