//! The lattice: every knob combination [`OptimizationConfig::validate`]
//! accepts, under every fault whose mechanism it has, through the public
//! epoch drivers — `RunHarness` by way of the chaos cell runner, and
//! `FleetScheduler` — each with a ring tracer, so the driver reconciles
//! every epoch's spans against its stop/ack times and aborts on a mismatch.
//!
//! Axes, enumerated and never listed: the harness axis is the replica
//! layout {mirror, (1,2), (2,3)} × `delta_transfer` / `cow_checkpoint` /
//! `pipeline` / `staging_buffer` / `rearm` / `hybrid_replay`; the fleet
//! axis is N ∈ {1, 2} × the same. A
//! cell's expected outcome is computed from its config and its fault
//! ([`expect`]), and every fault must leave its mark in the trace
//! ([`marks`]): a fault that missed its window fails the cell.
//!
//! One oracle for every cell:
//! * the heap equals `replay(base, n)` byte for byte, `n` being the step
//!   counter the heap holds — right after every failover and at the end;
//! * every epoch reconciles;
//! * there is no split-brain;
//! * the echo clients verify, with zero broken connections, and are served
//!   again after a failover.
//!
//! A rejected combination must be refused by its layout's constructor with
//! `validate`'s message. The script's heap never shrinks: the prune of
//! unmapped pages is held by `nilicon_engine.rs`'s `shrink_then_failover_*`.

use nilicon::fleet::{FleetScheduler, LaneSpec};
use nilicon::trace::{TraceEvent, TraceRecord, Tracer};
use nilicon::{OptimizationConfig, ReplicationConfig};
use nilicon_bench::chaos::{
    echo_lane, replay, run_service_cell, run_state_cell, Outcome, Scenario, ScriptApp, HEAP_PAGES,
};
use nilicon_bench::runner::replicated_engine;
use nilicon_container::ContainerSpec;
use nilicon_sim::net::{ChaosSchedule, FaultKind};
use nilicon_sim::time::Nanos;
use nilicon_sim::MILLISECOND;

const MS: Nanos = MILLISECOND;
/// When the fault under test lands: mid-epoch, after the initial sync.
const FAULT_AT: Nanos = 265 * MS;
/// Trace records kept per run: every mark a cell looks for.
const RING: usize = 1 << 12;

/// Every combination of the knobs on each replica layout.
fn knob_space() -> impl Iterator<Item = OptimizationConfig> {
    let layouts = [(1, 1), (1, 2), (2, 3)];
    (0..3 << 6).map(move |i: usize| {
        let bit = |b: usize| i >> b & 1 == 1;
        let mut o = OptimizationConfig::nilicon();
        (o.quorum, o.backups) = layouts[i >> 6];
        o.delta_transfer = bit(0);
        o.cow_checkpoint = bit(1);
        o.pipeline = bit(2);
        o.staging_buffer = !bit(3);
        o.rearm = bit(4);
        o.hybrid_replay = bit(5);
        o
    })
}

/// `o`'s knobs, for failure messages.
fn label(o: &OptimizationConfig) -> String {
    let knobs = [
        (o.delta_transfer, "delta"),
        (o.cow_checkpoint, "cow"),
        (o.pipeline, "pipeline"),
        (!o.staging_buffer, "no-staging"),
        (o.rearm, "rearm"),
        (o.hybrid_replay, "replay"),
    ];
    let on: Vec<&str> = knobs.iter().filter(|k| k.0).map(|k| k.1).collect();
    format!("({},{}) {on:?}", o.quorum, o.backups)
}

/// The harness fault alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    /// The primary fails mid-epoch.
    Primary,
    /// ... and the promoted primary fails again.
    PrimaryTwice,
    /// The backup (mirror) or one replica (coded) is lost.
    BackupLoss,
    /// The backup is lost, then its replacement too: while the rebuild
    /// streams (a coded repair, or the pages a rearm bootstrap's stop phase
    /// left) or, where the rebuild is that short, just after it commits.
    ReplacementLoss,
    /// The pipeline's ingest stage crashes on a chunk and replays it.
    StageCrash,
    /// A partition of the replication link, shorter than the lease, heals.
    Partition,
    /// The primary fails inside such a partition: the epochs it stalled
    /// never committed, so their output dies with the primary.
    PrimaryInPartition,
}

/// Whether `o` replaces a lost replica: a rearm bootstrap, or a coded
/// repair from the surviving quorum.
fn rebuilds(o: &OptimizationConfig) -> bool {
    o.rearm || o.backups > 1
}

/// Whether `o` has the mechanism `f` exercises.
fn applies(f: Fault, o: &OptimizationConfig) -> bool {
    match f {
        Fault::ReplacementLoss => rebuilds(o),
        // Without the staging buffer the transfer rides the stop phase:
        // there is no ingest stage to crash.
        Fault::StageCrash => o.pipeline && o.staging_buffer,
        _ => true,
    }
}

/// When the primary fails (again) once what `f` set off has settled, if a
/// replica is left to fail over to — so that replica's bytes meet the
/// oracle too. Settling is a failover (detection, the lease, restore) and
/// the rearm bootstrap after it; a rebuild; a second rebuild after a
/// retry's backoff; a healed partition.
fn closing(f: Fault, o: &OptimizationConfig) -> Option<Nanos> {
    let after = match f {
        Fault::None | Fault::Primary | Fault::PrimaryInPartition => return None,
        Fault::BackupLoss if !rebuilds(o) => return None,
        Fault::PrimaryTwice => 785,
        Fault::BackupLoss => 400,
        Fault::ReplacementLoss => 700,
        // The next epoch: the one the crashed stage fed is the one restored.
        Fault::StageCrash => 40,
        Fault::Partition => 200,
    };
    Some(FAULT_AT + after * MS)
}

/// The outcome class and failover count `f` ends in under `o`.
fn expect(f: Fault, o: &OptimizationConfig) -> (Outcome, u64) {
    match f {
        // No bootstrap after the first failover: the second fault finds no
        // backup and the service is lost, by design.
        Fault::PrimaryTwice if !o.rearm => (Outcome::DataLoss, 1),
        // Serving, unprotected.
        Fault::BackupLoss if !rebuilds(o) => (Outcome::Degraded, 0),
        _ => {
            let first = matches!(
                f,
                Fault::Primary | Fault::PrimaryTwice | Fault::PrimaryInPartition
            );
            let failovers = u64::from(first) + u64::from(closing(f, o).is_some());
            (Outcome::Recovered, failovers)
        }
    }
}

/// What `f` must leave in the trace under `o`: at least so many events of
/// the named kinds.
fn marks(f: Fault, o: &OptimizationConfig) -> Vec<(&'static [&'static str], usize)> {
    let mut want = match f {
        Fault::BackupLoss if o.backups > 1 => {
            vec![(&["DegradedMode"][..], 1), (&["RepairComplete"][..], 1)]
        }
        Fault::BackupLoss if o.rearm => vec![(&["RearmComplete"][..], 1)],
        Fault::ReplacementLoss => vec![(&["RearmStart", "RepairStart"][..], 2)],
        Fault::StageCrash => vec![(&["StageRestart"][..], 1)],
        Fault::Partition => vec![(&["PartitionHeal"][..], 1)],
        Fault::PrimaryInPartition => vec![(&["PartitionStart"][..], 1)],
        _ => Vec::new(),
    };
    if o.hybrid_replay && expect(f, o).1 > 0 && f != Fault::PrimaryInPartition {
        // Every failover replays the sealed tail.
        want.push((&["ReplayComplete"][..], 1));
    }
    want
}

/// `f` on `o` as a chaos scenario, and the epochs that see it through.
fn scenario(f: Fault, o: OptimizationConfig) -> (Scenario, u64) {
    let mut sc = Scenario {
        name: "lattice",
        opts: o,
        ..Default::default()
    };
    match f {
        Fault::None => {}
        Fault::Primary | Fault::PrimaryTwice => sc.primary_faults = vec![FAULT_AT],
        Fault::BackupLoss => sc.backup_faults = vec![FAULT_AT],
        Fault::ReplacementLoss => {
            // Eight pages an epoch stretch the script's rebuilds past the
            // second loss.
            sc.chunk_pages = Some(8);
            sc.backup_faults = vec![FAULT_AT, FAULT_AT + 265 * MS];
        }
        Fault::StageCrash => sc.stage_fail = Some(FAULT_AT),
        Fault::Partition | Fault::PrimaryInPartition => {
            let (from, until) = (FAULT_AT - 15 * MS, FAULT_AT + 45 * MS);
            sc.schedule = ChaosSchedule::default().window(from, until, FaultKind::Partition);
            if f == Fault::PrimaryInPartition {
                sc.primary_faults = vec![FAULT_AT + 40 * MS];
            }
        }
    }
    sc.primary_faults.extend(closing(f, &o));
    // An epoch takes at least 30 ms: enough of them to reach the last
    // fault and run on after its failover.
    let last = sc.primary_faults.iter().chain(&sc.backup_faults).max();
    let epochs = last.map_or(0, |t| t + 150 * MS).div_ceil(30 * MS).max(12);
    (sc, epochs)
}

/// Whether the clients were answered after the last failover, beyond its
/// own retransmissions (`None`: no failover).
fn served_after_failover(recs: &[TraceRecord]) -> Option<bool> {
    let failover = recs.iter().rev().find(|r| r.kind.name() == "Failover")?;
    Some(
        recs.iter()
            .any(|r| r.kind.name() == "ClientDeliver" && r.t > failover.t),
    )
}

/// Run `f` on `o` through the chaos cell runner — the [`ScriptApp`] state
/// run and the `net_echo` service run — and hold both to the oracle.
fn cell(f: Fault, o: OptimizationConfig) -> Result<(), String> {
    let (outcome, failovers) = expect(f, &o);
    for state in [true, false] {
        let (mut sc, epochs) = scenario(f, o);
        let (tracer, ring) = Tracer::in_memory(RING);
        sc.trace = Some(tracer);
        let (what, run) = if state {
            ("state", run_state_cell(&sc, epochs))
        } else {
            ("service", run_service_cell(&sc, epochs))
        };
        // `state_ok` holds even where the service is lost by design: that
        // loss is the fault's, not a corrupted image's.
        if (run.outcome, run.failovers, run.state_ok) != (outcome, failovers, true) {
            return Err(format!(
                "{what} run {} after {} failovers, want {outcome} after {failovers} \
                 (heap replays: {}, error: {:?})",
                run.outcome, run.failovers, run.state_ok, run.error
            ));
        }
        let recs = ring.snapshot();
        for (kinds, least) in marks(f, &o) {
            let n = recs
                .iter()
                .filter(|r| kinds.contains(&r.kind.name()))
                .count();
            if n < least {
                return Err(format!(
                    "{what} run: {n} {kinds:?} in the trace, want {least}"
                ));
            }
        }
        // No replay diverges — except that a primary lost inside a
        // partition leaves the service's per-request log cut mid-epoch: that
        // tail is refused whole and the failover falls back to the last
        // checkpoint, by design.
        let reasons: Vec<&str> = recs
            .iter()
            .filter_map(|r| match &r.kind {
                TraceEvent::ReplayDiverge { reason } => Some(reason.as_str()),
                _ => None,
            })
            .collect();
        let cut = f == Fault::PrimaryInPartition && o.hybrid_replay && !state;
        if reasons != if cut { &["partial"][..] } else { &[] } {
            return Err(format!("{what} run: replay verdicts {reasons:?}"));
        }
        // The clients are served after the last failover, too. Not yet
        // under `hybrid_replay`: output released at log commit acknowledges
        // requests the restored sockets know nothing of, and the promoted
        // service can stop answering (a known defect, ROADMAP 5(e)).
        let skip = state || o.hybrid_replay || outcome != Outcome::Recovered;
        if !skip && served_after_failover(&recs) == Some(false) {
            return Err(format!("{what} run: no echo after the last failover"));
        }
    }
    Ok(())
}

/// Walk the harness axis under `f`: every accepted config with `f`'s
/// mechanism is a cell; every rejected one must be refused by
/// `replicated_engine` (either layout) with `validate`'s words, as an error
/// where `NiLiConEngine::new` would panic. Returns the number of cells.
fn walk(f: Fault) -> usize {
    let (mut cells, mut refused, mut failed) = (0, 0, Vec::new());
    for o in knob_space() {
        let verdict = match o.validate() {
            Err(rule) => {
                refused += 1;
                match replicated_engine(o).map(drop) {
                    Err(e) if e.to_string() == rule.to_string() => Ok(()),
                    other => Err(format!("{:?}, not refused with {rule}", other.err())),
                }
            }
            Ok(()) if applies(f, &o) => {
                cells += 1;
                cell(f, o)
            }
            Ok(()) => Ok(()),
        };
        if let Err(e) = verdict {
            failed.push(format!("{f:?} {}: {e}", label(&o)));
        }
    }
    println!(
        "lattice {f:?}: {cells} cells, {refused} combinations refused, {} failed",
        failed.len()
    );
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    assert!(cells > 0, "{f:?}: no config has its mechanism");
    cells
}

#[test]
fn no_fault() {
    let accepted = walk(Fault::None);
    assert!(accepted >= 88, "the walk lost combinations: {accepted}");
}

#[test]
fn primary_fault_mid_epoch() {
    walk(Fault::Primary);
}

#[test]
fn second_primary_fault() {
    walk(Fault::PrimaryTwice);
}

#[test]
fn backup_or_replica_loss() {
    walk(Fault::BackupLoss);
}

#[test]
fn replacement_loss() {
    walk(Fault::ReplacementLoss);
}

#[test]
fn stage_crash() {
    walk(Fault::StageCrash);
}

#[test]
fn partition_and_heal() {
    walk(Fault::Partition);
}

#[test]
fn primary_fault_in_partition() {
    walk(Fault::PrimaryInPartition);
}

// ----------------------------------------------------------------------
// The fleet axis
// ----------------------------------------------------------------------

/// The fleet fault alphabet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneFault {
    None,
    /// One lane's container fails mid-epoch; its neighbour must not notice.
    Lane(usize),
    /// Lane 0 fails, and again after its failover: with no backup left (a
    /// fleet does not rearm) it is lost, by design.
    LaneTwice,
    /// The pair partitions for less than a lease, then heals.
    Partition,
    /// The pair partitions from t = 0, before any commit, for longer than
    /// a lease: with nothing to promote to, every lane keeps its primary.
    EarlyPartition,
    /// Lane 0 fails before its first commit: lost, with its output
    /// discarded.
    EarlyLane,
    /// The pair partitions long enough for detection, heals (the first beat
    /// after the heal rescinds the suspicion), then lane 0 fails: detected
    /// as fast as with no partition before it.
    HealThenLane,
}

/// Lane 0 runs the script, any other lane an echo service with clients.
fn lanes(n: u32) -> Vec<LaneSpec> {
    let mut script = ContainerSpec::batch("script", 10);
    (script.heap_pages, script.threads_per_process) = (HEAP_PAGES, 1);
    let mut lanes = vec![LaneSpec {
        spec: script,
        app: Box::new(ScriptApp::new()),
        behavior: None,
    }];
    for i in 1..n {
        let mut spec = ContainerSpec::server(&format!("svc{i}"), 10 + i, 6379);
        spec.heap_pages = 64;
        lanes.push(echo_lane(spec, 40_000, 1, 2, 0x40 + i as u8));
    }
    lanes
}

/// Run `n` lanes under `o` and `f`, and hold every lane to the oracle.
fn fleet_cell(n: u32, o: OptimizationConfig, f: LaneFault) -> Result<(), String> {
    let cfg = ReplicationConfig {
        opts: o,
        ..Default::default()
    };
    let mut fleet = FleetScheduler::new(cfg, lanes(n)).map_err(|e| e.to_string())?;
    let rings: Vec<_> = (0..fleet.len())
        .map(|lane| {
            let (tracer, ring) = Tracer::in_memory(RING);
            fleet.set_tracer(lane, tracer);
            ring
        })
        .collect();
    let base = fleet.snapshot_heap(0, HEAP_PAGES);
    // Lane 0 lost before its first epoch never stepped.
    let stepped = f != LaneFault::EarlyLane;
    let scripted = |fleet: &mut FleetScheduler| {
        let heap = fleet.snapshot_heap(0, HEAP_PAGES);
        let steps = u64::from_le_bytes(heap[..8].try_into().expect("counter bytes"));
        (steps > 0) == stepped && heap == replay(&base, steps)
    };
    match f {
        LaneFault::None => {}
        LaneFault::Lane(lane) => fleet.inject_lane_fault_at(lane, FAULT_AT),
        LaneFault::LaneTwice => fleet.inject_lane_fault_at(0, FAULT_AT),
        LaneFault::Partition => fleet.partition_primary(FAULT_AT - 15 * MS, FAULT_AT + 45 * MS),
        LaneFault::EarlyPartition => fleet.partition_primary(0, 400 * MS),
        LaneFault::EarlyLane => fleet.inject_lane_fault_at(0, 5 * MS),
        LaneFault::HealThenLane => {
            fleet.partition_primary(300 * MS, 420 * MS);
            fleet.inject_lane_fault_at(0, 1000 * MS);
        }
    }
    // The script lane's heap is the model's right after its failover, as
    // well as at the end.
    let failovers = || {
        let recs = rings[0].snapshot();
        recs.iter().filter(|r| r.kind.name() == "Failover").count()
    };
    for epoch in 0..40 {
        if epoch == 20 && f == LaneFault::LaneTwice {
            let again = closing(Fault::PrimaryTwice, &o).expect("a second fault");
            fleet.inject_lane_fault_at(0, again);
        }
        let before = failovers();
        fleet.run_epochs(1).map_err(|e| e.to_string())?;
        if failovers() > before && !scripted(&mut fleet) {
            return Err("the script lane's restored heap is not the script's".into());
        }
    }
    if !scripted(&mut fleet) {
        return Err("the script lane's heap is not the script's".into());
    }
    let r = fleet.finish();
    // The fault's mark: a heartbeat interval that missed a lane's bit (or
    // none at all: a lone lane lost before its first epoch).
    if (r.min_live_bits < n || r.heartbeat_intervals == 0) != (f != LaneFault::None) {
        return Err(format!("{} of {n} live bits at the least", r.min_live_bits));
    }
    for (i, l) in r.lanes.iter().enumerate() {
        let lost = i == 0 && matches!(f, LaneFault::LaneTwice | LaneFault::EarlyLane);
        let failed = i == 0 && matches!(f, LaneFault::LaneTwice | LaneFault::HealThenLane);
        let failovers = u64::from(failed || f == LaneFault::Lane(i));
        if (l.failovers, l.unrecovered, l.split_brain) != (failovers, lost, false) {
            return Err(format!(
                "lane {i}: {} failovers, unrecovered {}, split-brain {}",
                l.failovers, l.unrecovered, l.split_brain
            ));
        }
        if !lost && (l.broken_connections > 0 || l.verify.is_err()) {
            return Err(format!(
                "lane {i}: {} broken, {:?}",
                l.broken_connections, l.verify
            ));
        }
        // An echo lane that failed over serves its clients again.
        if i > 0 && l.failovers > 0 && served_after_failover(&rings[i].snapshot()) != Some(true) {
            return Err(format!("lane {i}: no echo after its failover"));
        }
        // A lost lane discards its output.
        let seen = |name| rings[i].snapshot().iter().any(|r| r.kind.name() == name);
        if lost && !seen("OutputDiscard") {
            return Err(format!("lane {i}: lost without an OutputDiscard"));
        }
        // The healed suspicion is rescinded, so the fault at 1 s is detected
        // 80 ms later, after three missed beats from the last one at 990 ms.
        let healed = i == 0 && f == LaneFault::HealThenLane;
        if healed && (!seen("FalseSuspicion") || l.detection_latency != Some(80 * MS)) {
            return Err(format!(
                "lane 0: detection latency {:?}",
                l.detection_latency
            ));
        }
    }
    Ok(())
}

/// Every fleet combination: an accepted one runs each lane fault, a
/// rejected one is refused by `FleetScheduler::new` with `validate`'s
/// message.
#[test]
fn fleet_lattice() {
    let (mut accepted, mut rejected, mut cells, mut failed) = (0, 0, 0, Vec::new());
    for n in [1, 2] {
        for mut o in knob_space() {
            o.fleet = n;
            let what = format!("fleet {n} {}", label(&o));
            if let Err(rule) = o.validate() {
                rejected += 1;
                let refused = fleet_cell(n, o, LaneFault::None).expect_err(&what);
                assert_eq!(refused, rule.to_string(), "{what}");
                continue;
            }
            accepted += 1;
            let faults = [
                LaneFault::None,
                LaneFault::LaneTwice,
                LaneFault::Partition,
                LaneFault::EarlyPartition,
                LaneFault::EarlyLane,
                LaneFault::HealThenLane,
            ];
            for f in faults
                .into_iter()
                .chain((0..n as usize).map(LaneFault::Lane))
            {
                cells += 1;
                if let Err(e) = fleet_cell(n, o, f) {
                    failed.push(format!("{what} {f:?}: {e}"));
                }
            }
        }
    }
    println!(
        "lattice fleet axis: {accepted} accepted, {rejected} rejected, {cells} cells, {} failed",
        failed.len()
    );
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    assert_eq!(accepted + rejected, 2 * 192);
    assert!(accepted >= 16, "the walk lost combinations: {accepted}");
}
