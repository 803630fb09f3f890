//! End-to-end runs of the k-of-n placement extension: a replica loss
//! degrades the placement (the primary keeps serving on the quorum),
//! coded repair regenerates the lost fragment store onto a fresh host,
//! and a subsequent primary fault fails over to an image reconstructed
//! from k survivors — plus the adversarial variants (replacement dies
//! mid-repair, primary dies inside the degraded window).

use nilicon::harness::{RunHarness, RunMode};
use nilicon::trace::{TraceEvent, Tracer};
use nilicon::{OptimizationConfig, PlacementEngine, ReplicationConfig};
use nilicon_sim::time::{MILLISECOND, SECOND};
use nilicon_sim::CostModel;
use nilicon_workloads as workloads;
use nilicon_workloads::Scale;

fn placement_mode(k: u32, n: u32) -> RunMode {
    let mut opts = OptimizationConfig::nilicon();
    opts.backups = n;
    opts.quorum = k;
    RunMode::Replicated(Box::new(
        PlacementEngine::new(opts, CostModel::default()).unwrap(),
    ))
}

fn harness(cfg: ReplicationConfig, k: u32, n: u32) -> RunHarness {
    let w = workloads::redis(Scale::small(), 4);
    RunHarness::new(
        w.spec,
        w.app,
        w.behavior,
        placement_mode(k, n),
        cfg,
        w.parallelism,
    )
    .unwrap()
}

#[test]
fn backup_loss_repairs_then_survives_primary_fault() {
    // The acceptance scenario: --backups 3 --quorum 2. The designated
    // replica dies mid-run; the primary never stops serving (2 ≥ k acks
    // keep flowing); coded repair rebuilds the lost fragment store on a
    // fresh host; a later primary fault fails over onto that repaired
    // host from a byte-identical reconstructed image.
    let mut h = harness(ReplicationConfig::default(), 2, 3);
    let (tracer, ring) = Tracer::in_memory(8192);
    h.set_tracer(tracer);
    h.inject_backup_fault_at(300 * MILLISECOND);
    h.inject_fault_at(1500 * MILLISECOND);
    h.run_epochs(120).unwrap();
    assert_eq!(h.failovers(), 1, "only the primary fault fails over");
    assert!(!h.repair_active(), "repair completed");

    let recs = ring.snapshot();
    let count = |pred: &dyn Fn(&TraceEvent) -> bool| recs.iter().filter(|r| pred(&r.kind)).count();
    assert_eq!(
        count(&|k| matches!(k, TraceEvent::DegradedMode { alive: 2, need: 2 })),
        1,
        "the replica loss left a bare quorum"
    );
    let starts: Vec<(String, u32)> = recs
        .iter()
        .filter_map(|r| match &r.kind {
            TraceEvent::RepairStart { kind, attempt } => Some((kind.clone(), *attempt)),
            _ => None,
        })
        .collect();
    assert_eq!(starts, vec![("repair".into(), 0)]);
    assert!(
        count(&|k| matches!(k, TraceEvent::RepairChunk { .. })) >= 1,
        "the missing fragments streamed in bounded chunks"
    );
    assert_eq!(
        count(&|k| matches!(k, TraceEvent::RepairComplete { .. })),
        1,
        "full redundancy restored before the primary fault"
    );
    let complete_t = recs
        .iter()
        .find(|r| matches!(r.kind, TraceEvent::RepairComplete { .. }))
        .expect("repair completed")
        .t;
    assert!(
        complete_t < 1500 * MILLISECOND,
        "repaired before the primary fault at {complete_t}ns"
    );
    assert_eq!(count(&|k| matches!(k, TraceEvent::Failover { .. })), 1);
    // Epochs kept committing between the replica loss and the repair:
    // ShardCommit spans appear throughout the degraded window.
    assert!(
        recs.iter().any(|r| {
            matches!(r.kind, TraceEvent::ShardCommit { shards: 3, .. })
                && r.t > 300 * MILLISECOND
                && r.t < complete_t
        }),
        "the primary kept checkpointing while degraded"
    );

    let r = h.finish();
    assert!(r.recovered, "the primary fault recovered");
    assert_eq!(r.unrecovered_faults, 0);
    assert_eq!(r.broken_connections, 0, "no RST reached any client");
    r.verify
        .expect("read-your-writes held across replica loss, repair, and failover");
    assert!(
        r.metrics.requests_total > 10,
        "service continued throughout: {} requests",
        r.metrics.requests_total
    );
}

#[test]
fn replacement_loss_mid_repair_triggers_backoff_re_repair() {
    // The replacement host dies while the repair streams. The
    // half-regenerated fragment store is discarded, the quorum keeps
    // acking epochs, and a second attempt (exponential backoff,
    // incremented attempt counter) succeeds.
    let cfg = ReplicationConfig {
        // Tiny chunks stretch the repair across many epochs so the second
        // backup fault reliably lands mid-stream.
        rearm_chunk_pages: 16,
        ..Default::default()
    };
    let mut h = harness(cfg, 2, 3);
    let (tracer, ring) = Tracer::in_memory(8192);
    h.set_tracer(tracer);
    h.inject_backup_fault_at(300 * MILLISECOND);
    h.inject_backup_fault_at(420 * MILLISECOND);
    h.run_epochs(400).unwrap();
    assert_eq!(h.failovers(), 0, "no primary fault in this run");
    assert!(!h.repair_active(), "the retry eventually completed");

    let recs = ring.snapshot();
    let starts: Vec<u32> = recs
        .iter()
        .filter_map(|r| match &r.kind {
            TraceEvent::RepairStart { attempt, .. } => Some(*attempt),
            _ => None,
        })
        .collect();
    assert!(
        starts.len() >= 2,
        "the aborted repair was retried: attempts {starts:?}"
    );
    assert!(
        starts.contains(&1),
        "the retry carries an incremented attempt counter: {starts:?}"
    );
    assert_eq!(
        recs.iter()
            .filter(|r| matches!(r.kind, TraceEvent::RepairComplete { .. }))
            .count(),
        1,
        "exactly one attempt sealed the replica"
    );

    let r = h.finish();
    assert_eq!(r.broken_connections, 0);
    r.verify.expect("consistency held across both replica losses");
    assert!(r.metrics.requests_total > 10);
}

#[test]
fn primary_fault_inside_degraded_window_fails_over_from_survivors() {
    // The primary dies before the repair finishes: failover must decode
    // the committed image from the k surviving fragment stores and resync
    // the replacement host's disk from a survivor.
    let cfg = ReplicationConfig {
        rearm_chunk_pages: 16,
        ..Default::default()
    };
    let mut h = harness(cfg, 2, 3);
    let (tracer, ring) = Tracer::in_memory(8192);
    h.set_tracer(tracer);
    h.inject_backup_fault_at(300 * MILLISECOND);
    h.inject_fault_at(400 * MILLISECOND);
    h.run_epochs(60).unwrap();
    assert_eq!(h.failovers(), 1);

    let recs = ring.snapshot();
    assert!(
        recs.iter()
            .any(|r| matches!(r.kind, TraceEvent::DegradedMode { .. })),
        "the replica loss was recorded"
    );
    assert!(
        !recs
            .iter()
            .any(|r| matches!(r.kind, TraceEvent::RepairComplete { .. })),
        "the fault landed before the repair could finish"
    );
    assert!(
        recs.iter()
            .any(|r| matches!(r.kind, TraceEvent::Failover { .. })),
        "failover happened"
    );

    let r = h.finish();
    assert!(r.recovered, "failed over from the two survivors");
    assert_eq!(r.broken_connections, 0);
    r.verify
        .expect("the reconstructed image preserved every committed write");
    assert!(r.failover.unwrap().disk_pages_committed > 0 || r.failover.unwrap().others > 0);
}

#[test]
fn mirroring_placement_matches_acceptance_sweep_edge() {
    // (1,2) is plain mirroring: a replica loss with k=1 leaves one full
    // copy — still above quorum, so the run degrades-and-repairs exactly
    // like a coded placement.
    let mut h = harness(ReplicationConfig::default(), 1, 2);
    let (tracer, ring) = Tracer::in_memory(4096);
    h.set_tracer(tracer);
    h.inject_backup_fault_at(300 * MILLISECOND);
    h.run_epochs(40).unwrap();
    assert!(!h.repair_active(), "repair completed");
    let recs = ring.snapshot();
    assert!(recs
        .iter()
        .any(|r| matches!(r.kind, TraceEvent::DegradedMode { alive: 1, need: 1 })));
    assert!(recs
        .iter()
        .any(|r| matches!(r.kind, TraceEvent::RepairComplete { .. })));
    let r = h.finish();
    assert_eq!(r.broken_connections, 0);
    r.verify.expect("consistency");
    assert!(r.metrics.requests_total > 10);
}

#[test]
fn below_quorum_degrades_like_single_backup() {
    // A (2,2) placement needs every replica for the quorum: losing one
    // cannot be repaired online (no k survivors to decode from), so the
    // run degrades to unreplicated service exactly like the paper path's
    // backup loss — plugged output released, service continues unprotected.
    let mut h = harness(ReplicationConfig::default(), 2, 2);
    let (tracer, ring) = Tracer::in_memory(4096);
    h.set_tracer(tracer);
    h.inject_backup_fault_at(300 * MILLISECOND);
    h.run_epochs(40).unwrap();
    assert!(!h.replication_active(), "degraded to unreplicated");
    assert!(!h.repair_active(), "no repair is possible below quorum");
    let recs = ring.snapshot();
    assert!(
        !recs
            .iter()
            .any(|r| matches!(r.kind, TraceEvent::RepairStart { .. })),
        "no repair was attempted"
    );
    assert!(
        recs.iter()
            .any(|r| matches!(r.kind, TraceEvent::OutputRelease { .. })
                && r.t >= 300 * MILLISECOND),
        "held output was released when replication ended"
    );
    let _ = SECOND; // timing constants above stay in MILLISECOND
    let r = h.finish();
    assert_eq!(r.broken_connections, 0);
    r.verify.expect("served output stayed committed");
    assert!(r.metrics.requests_total > 10, "service continued unreplicated");
}
