//! The k-of-n placement's trace sequences, on the chaos runner's script
//! and echo cells: a replica loss degrades the placement once (the primary
//! keeps serving on the quorum), coded repair regenerates the lost
//! fragment store in one attempt or retries after the replacement dies,
//! a primary fault inside the degraded window fails over from the
//! survivors, and a loss below quorum degrades like the single backup.
//! That the bytes survive every such fault under every knob is
//! `tests/lattice.rs`'s; here the order of events is the property.

use nilicon::trace::{TraceEvent, TraceRecord, Tracer};
use nilicon::OptimizationConfig;
use nilicon_bench::chaos::{run_service_cell, run_state_cell, CellRun, Outcome, Scenario};
use nilicon_sim::time::Nanos;
use nilicon_sim::MILLISECOND;

const MS: Nanos = MILLISECOND;
const LOSS_AT: Nanos = 265 * MS;

/// A `(k, n)` placement scenario losing a replica at [`LOSS_AT`].
fn placed(k: u32, n: u32) -> Scenario {
    Scenario {
        name: "placement",
        opts: OptimizationConfig {
            quorum: k,
            backups: n,
            ..OptimizationConfig::nilicon()
        },
        backup_faults: vec![LOSS_AT],
        ..Default::default()
    }
}

/// Run `sc` as the script cell (or, with `service`, the echo cell) and
/// return the run with its trace.
fn traced(mut sc: Scenario, epochs: u64, service: bool) -> (CellRun, Vec<TraceRecord>) {
    let (tracer, ring) = Tracer::in_memory(1 << 14);
    sc.trace = Some(tracer);
    let run = if service {
        run_service_cell(&sc, epochs)
    } else {
        run_state_cell(&sc, epochs)
    };
    assert!(run.state_ok && run.service_ok, "{:?}", run.error);
    (run, ring.snapshot())
}

/// Events of kind `name` in `recs`.
fn count(recs: &[TraceRecord], name: &str) -> usize {
    recs.iter().filter(|r| r.kind.name() == name).count()
}

/// The `(alive, need)` of each `DegradedMode` in `recs`.
fn degraded(recs: &[TraceRecord]) -> Vec<(u32, u32)> {
    recs.iter()
        .filter_map(|r| match r.kind {
            TraceEvent::DegradedMode { alive, need } => Some((alive, need)),
            _ => None,
        })
        .collect()
}

fn repair_attempts(recs: &[TraceRecord]) -> Vec<u32> {
    recs.iter()
        .filter_map(|r| match &r.kind {
            TraceEvent::RepairStart { kind, attempt } if kind == "repair" => Some(*attempt),
            _ => None,
        })
        .collect()
}

#[test]
fn backup_loss_repairs_then_survives_primary_fault() {
    // --backups 3 --quorum 2: the designated replica dies; the primary
    // never stops serving (2 ≥ k acks keep flowing); coded repair rebuilds
    // the lost fragment store on a fresh host; a later primary fault fails
    // over onto that repaired host.
    let primary_at = 900 * MS;
    let mut sc = placed(2, 3);
    sc.primary_faults = vec![primary_at];
    let (run, recs) = traced(sc, 45, false);
    assert_eq!((run.outcome, run.failovers), (Outcome::Recovered, 1));
    assert_eq!(
        degraded(&recs),
        [(2, 2)],
        "the replica loss left a bare quorum"
    );
    assert_eq!(repair_attempts(&recs), [0]);
    assert!(count(&recs, "RepairChunk") >= 1);
    let complete: Vec<Nanos> = recs
        .iter()
        .filter(|r| r.kind.name() == "RepairComplete")
        .map(|r| r.t)
        .collect();
    assert!(
        complete.len() == 1 && complete[0] < primary_at,
        "one repair, before the primary fault: {complete:?}"
    );
    assert!(
        recs.iter().any(|r| {
            matches!(r.kind, TraceEvent::ShardCommit { shards: 3, .. })
                && (LOSS_AT..complete[0]).contains(&r.t)
        }),
        "the primary kept checkpointing while degraded"
    );
    assert_eq!(count(&recs, "Failover"), 1);
}

#[test]
fn replacement_loss_mid_repair_triggers_backoff_re_repair() {
    // The replacement host dies while the repair streams (eight pages an
    // epoch stretch it): the half-regenerated store is discarded, the
    // quorum keeps acking, and a second attempt succeeds.
    let mut sc = placed(2, 3);
    sc.chunk_pages = Some(8);
    sc.backup_faults.push(LOSS_AT + 135 * MS);
    let (run, recs) = traced(sc, 40, false);
    assert_eq!((run.outcome, run.failovers), (Outcome::Recovered, 0));
    assert_eq!(
        repair_attempts(&recs),
        [0, 1],
        "the aborted repair was retried"
    );
    assert_eq!(
        count(&recs, "RepairComplete"),
        1,
        "exactly one attempt sealed the replica"
    );
}

#[test]
fn primary_fault_inside_degraded_window_fails_over_from_survivors() {
    // The primary dies before the repair finishes: failover decodes the
    // committed image from the k surviving fragment stores.
    let mut sc = placed(2, 3);
    sc.chunk_pages = Some(8);
    sc.primary_faults = vec![LOSS_AT + 100 * MS];
    let (run, recs) = traced(sc, 30, false);
    assert_eq!((run.outcome, run.failovers), (Outcome::Recovered, 1));
    assert_eq!(degraded(&recs), [(2, 2)]);
    assert_eq!(
        count(&recs, "RepairComplete"),
        0,
        "the fault landed before the repair could finish"
    );
}

#[test]
fn mirroring_placement_matches_acceptance_sweep_edge() {
    // (1,2) is plain mirroring: a replica loss with k = 1 leaves one full
    // copy — still a quorum, so the run degrades and repairs exactly like
    // a coded placement.
    let (run, recs) = traced(placed(1, 2), 30, false);
    assert_eq!((run.outcome, run.failovers), (Outcome::Recovered, 0));
    assert_eq!(degraded(&recs), [(1, 1)]);
    assert_eq!(repair_attempts(&recs), [0]);
    assert_eq!(count(&recs, "RepairComplete"), 1);
}

#[test]
fn below_quorum_degrades_like_single_backup() {
    // A (2,2) placement needs every replica for the quorum: losing one
    // cannot be repaired online (no k survivors to decode from), so the
    // run degrades to unreplicated service exactly like the paper path's
    // backup loss — plugged output released, service continues.
    let (run, recs) = traced(placed(2, 2), 30, true);
    assert_eq!((run.outcome, run.failovers), (Outcome::Degraded, 0));
    assert!(repair_attempts(&recs).is_empty(), "no repair was attempted");
    assert!(
        recs.iter()
            .any(|r| r.kind.name() == "OutputRelease" && r.t >= LOSS_AT),
        "held output was released when replication ended"
    );
}
