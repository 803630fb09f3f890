//! Cross-crate integration: full replication runs over real workloads,
//! including the §VII-A fault-injection validation path.

use nilicon::harness::{RunHarness, RunMode};
use nilicon::{NiLiConEngine, OptimizationConfig, ReplicationConfig};
use nilicon_mc::McEngine;
use nilicon_sim::time::{MILLISECOND, SECOND};
use nilicon_sim::CostModel;
use nilicon_workloads as workloads;
use nilicon_workloads::Scale;

fn harness(w: workloads::Workload, mode: RunMode) -> RunHarness {
    RunHarness::new(
        w.spec,
        w.app,
        w.behavior,
        mode,
        ReplicationConfig::default(),
        w.parallelism,
    )
    .expect("harness builds")
}

fn nilicon_mode() -> RunMode {
    RunMode::Replicated(Box::new(NiLiConEngine::new(
        OptimizationConfig::nilicon(),
        CostModel::default(),
    )))
}

#[test]
fn unreplicated_redis_serves_and_validates() {
    let w = workloads::redis(Scale::small(), 4);
    let mut h = harness(w, RunMode::Unreplicated);
    h.run_epochs(30).unwrap();
    let r = h.finish();
    assert!(
        r.metrics.requests_total > 20,
        "served {} requests",
        r.metrics.requests_total
    );
    assert_eq!(r.broken_connections, 0);
    r.verify.expect("YCSB consistency");
    assert_eq!(r.metrics.avg_stop(), 0, "no stop phases unreplicated");
}

#[test]
fn nilicon_redis_serves_with_overhead() {
    let w = workloads::redis(Scale::small(), 4);
    let mut h = harness(w, nilicon_mode());
    h.run_epochs(30).unwrap();
    let r = h.finish();
    assert!(r.metrics.requests_total > 10);
    assert_eq!(r.broken_connections, 0);
    r.verify.expect("YCSB consistency under replication");
    assert!(r.metrics.avg_stop() > 0, "stop phases present");
    assert!(r.metrics.avg_dirty_pages() > 10.0);
    assert!(r.metrics.backup_utilization() > 0.0);

    // Throughput must be lower than unreplicated.
    let w2 = workloads::redis(Scale::small(), 4);
    let mut h2 = harness(w2, RunMode::Unreplicated);
    h2.run_epochs(30).unwrap();
    let stock = h2.finish();
    assert!(
        r.metrics.throughput_rps() < stock.metrics.throughput_rps(),
        "replicated {} vs stock {}",
        r.metrics.throughput_rps(),
        stock.metrics.throughput_rps()
    );
}

#[test]
fn nilicon_failover_preserves_kv_consistency() {
    // The headline §VII-A experiment, miniaturized: run Redis under NiLiCon,
    // kill the primary mid-run, and require (a) recovery, (b) zero broken
    // connections, (c) YCSB read-your-writes consistency across the failover.
    let w = workloads::redis(Scale::small(), 4);
    let mut h = harness(w, nilicon_mode());
    h.inject_fault_at(400 * MILLISECOND);
    h.run_epochs(60).unwrap();
    assert!(h.on_backup(), "failover happened");
    let r = h.finish();
    assert!(r.recovered);
    let det = r.detection_latency.expect("fault was injected");
    assert!(
        (60 * MILLISECOND..=150 * MILLISECOND).contains(&det),
        "§VII-B: detection ≈90ms, got {}ms",
        det / MILLISECOND
    );
    let fo = r.failover.expect("failover report");
    assert!(
        fo.restore > 100 * MILLISECOND,
        "restore dominates (Table II)"
    );
    assert_eq!(fo.arp, 28 * MILLISECOND);
    assert_eq!(r.broken_connections, 0, "no RST reached any client");
    r.verify.expect("no lost updates across failover");
    assert!(
        r.metrics.requests_total > 10,
        "service continued on the backup: {} requests",
        r.metrics.requests_total
    );
}

#[test]
fn nilicon_failover_stack_echo_consistency() {
    let w = workloads::stack_echo(4, 8000);
    let mut h = harness(w, nilicon_mode());
    h.inject_fault_at(300 * MILLISECOND);
    h.run_epochs(50).unwrap();
    let r = h.finish();
    assert!(r.recovered);
    assert_eq!(r.broken_connections, 0);
    r.verify.expect("every echo byte-exact across failover");
}

#[test]
fn nilicon_batch_stress_fs_survives_failover() {
    let w = workloads::stress_fs(64 * 1024);
    let mut h = harness(w, nilicon_mode());
    h.inject_fault_at(350 * MILLISECOND);
    h.run_epochs(40).unwrap();
    let r = h.finish();
    assert!(r.recovered);
    assert!(
        r.metrics.steps_total > 100,
        "stressor kept running: {}",
        r.metrics.steps_total
    );
    // The app flags read/write mismatches itself; its state page and file
    // roll back together, so a healthy failover shows zero errors. We can't
    // reach into the moved app, but a mismatch would have panicked the step
    // via error counting in the validation harness (see bench validation).
}

#[test]
fn swaptions_completes_under_replication_with_failover() {
    let mut w = workloads::swaptions(Scale::small(), 4);
    // Shorten the batch so the test stays quick.
    w.app = {
        let mut app = workloads::SwaptionsApp::new(Scale::small());
        app.swaptions = 600;
        Box::new(app)
    };
    let mut h = harness(w, nilicon_mode());
    h.inject_fault_at(200 * MILLISECOND);
    h.run_epochs(4000).unwrap();
    assert!(h.batch_done(), "the batch completes within 4000 epochs");
    assert!(h.on_backup());
    let r = h.finish();
    assert!(r.recovered);
    assert!(
        r.metrics.steps_total >= 600,
        "all swaptions priced: {}",
        r.metrics.steps_total
    );
}

#[test]
fn mc_runs_redis_with_lower_stop_higher_runtime() {
    let w = workloads::redis(Scale::small(), 4);
    let mut h = harness(
        w,
        RunMode::Replicated(Box::new(McEngine::new(CostModel::default()))),
    );
    h.run_epochs(25).unwrap();
    let mc = h.finish();
    mc.verify.expect("MC serves correctly");

    let w2 = workloads::redis(Scale::small(), 4);
    let mut h2 = harness(w2, nilicon_mode());
    h2.run_epochs(25).unwrap();
    let nl = h2.finish();

    // Fig. 3 shape: MC's stop is smaller, its tracking overhead larger.
    let (nl_stop, nl_track) = nl.metrics.overhead_split();
    let (mc_stop, mc_track) = mc.metrics.overhead_split();
    assert!(
        mc_stop < nl_stop,
        "MC stop {mc_stop} < NiLiCon stop {nl_stop}"
    );
    assert!(
        mc_track > nl_track,
        "MC tracking {mc_track} > NiLiCon tracking {nl_track} (vmexit vs soft-dirty)"
    );
}

#[test]
fn streamcluster_overhead_brackets_paper_shape() {
    // Small-scale streamcluster: run the same work stock and replicated;
    // the replicated run must take longer, within a sane overhead band.
    let run = |mode: RunMode| {
        let mut w = workloads::streamcluster(Scale::small(), 4);
        w.app = {
            let mut app = workloads::StreamclusterApp::new(Scale::small());
            // Longer, heavier run so one-time warmup (initial full sync,
            // cold infrequent-state cache) amortizes, as in the paper's
            // minutes-long native runs.
            app.passes = 150;
            app.cpu_per_dist = 60;
            Box::new(app)
        };
        let mut h = harness(w, mode);
        h.run_epochs(5000).unwrap();
        assert!(h.batch_done(), "the batch completes within 5000 epochs");
        h.finish().metrics.elapsed
    };
    let stock = run(RunMode::Unreplicated);
    let repl = run(nilicon_mode());
    let overhead = repl as f64 / stock as f64 - 1.0;
    assert!(
        (0.05..1.2).contains(&overhead),
        "replication overhead in a plausible band, got {overhead:.2} ({stock} -> {repl})"
    );
}

#[test]
fn single_client_latency_inflates_under_nilicon() {
    // Table VI mechanism: buffering-until-ack inflates single-client latency
    // by roughly half an epoch plus the stop time.
    let run = |mode: RunMode| {
        let w = workloads::net_echo(1);
        let mut h = harness(w, mode);
        h.run_epochs(40).unwrap();
        h.finish().metrics.mean_latency()
    };
    let stock = run(RunMode::Unreplicated);
    let repl = run(nilicon_mode());
    assert!(
        stock < 5 * MILLISECOND,
        "stock echo is sub-ms-ish: {}ns",
        stock
    );
    assert!(
        repl > stock + 10 * MILLISECOND,
        "replicated latency includes buffering: {repl} vs {stock}"
    );
    assert!(repl < 80 * MILLISECOND, "but bounded by ~an epoch: {repl}");
}

fn rearm_mode() -> RunMode {
    let mut opts = OptimizationConfig::nilicon();
    opts.rearm = true;
    RunMode::Replicated(Box::new(NiLiConEngine::new(opts, CostModel::default())))
}

#[test]
fn rearm_survives_two_sequential_primary_faults() {
    // EXTENSION (off in every paper row): after the first failover the
    // promoted container bootstraps a replacement backup, so a second
    // primary fault is survivable — two failovers, zero broken connections,
    // read-your-writes consistency across both.
    use nilicon::trace::{TraceEvent, Tracer};
    let w = workloads::redis(Scale::small(), 4);
    let mut h = RunHarness::new(
        w.spec,
        w.app,
        w.behavior,
        rearm_mode(),
        ReplicationConfig::default(),
        w.parallelism,
    )
    .unwrap();
    let (tracer, ring) = Tracer::in_memory(8192);
    h.set_tracer(tracer);
    h.inject_fault_at(400 * MILLISECOND);
    h.inject_fault_at(2 * SECOND);
    h.run_epochs(120).unwrap();
    assert_eq!(h.failovers(), 2, "both faults caused failovers");
    assert!(h.on_backup());
    let recs = ring.snapshot();
    let count = |pred: &dyn Fn(&TraceEvent) -> bool| recs.iter().filter(|r| pred(&r.kind)).count();
    assert_eq!(
        count(&|k| matches!(k, TraceEvent::Failover { .. })),
        2,
        "one Failover event per fault"
    );
    assert_eq!(
        count(&|k| matches!(k, TraceEvent::OutputDiscard { .. })),
        2,
        "uncommitted output discarded at each failover"
    );
    assert!(
        count(&|k| matches!(k, TraceEvent::RearmStart { .. })) >= 2,
        "a bootstrap started after each failover"
    );
    assert!(
        count(&|k| matches!(k, TraceEvent::RearmComplete { .. })) >= 1,
        "redundancy was re-established before the second fault"
    );
    assert!(
        count(&|k| matches!(k, TraceEvent::BootstrapChunk { .. })) >= 1,
        "the bootstrap image streamed in chunks"
    );
    // The first RearmComplete must precede the second fault: the second
    // failover restored from the re-armed backup, not from thin air.
    let complete_t = recs
        .iter()
        .find(|r| matches!(r.kind, TraceEvent::RearmComplete { .. }))
        .expect("rearm completed")
        .t;
    assert!(complete_t < 2 * SECOND, "armed before the second fault");

    let r = h.finish();
    assert!(r.recovered, "both faults recovered");
    assert_eq!(r.failovers, 2);
    assert_eq!(r.unrecovered_faults, 0);
    assert_eq!(r.broken_connections, 0, "no RST reached any client");
    r.verify
        .expect("no lost updates across two failovers");
    assert!(
        r.metrics.requests_total > 10,
        "service continued throughout: {} requests",
        r.metrics.requests_total
    );
}

#[test]
fn rearm_bootstrap_survives_replacement_loss_and_retries() {
    // Fault DURING the bootstrap: the replacement backup dies mid-stream.
    // The promoted container keeps serving unreplicated, the half-assembled
    // image is dropped, and a later attempt (exponential backoff) succeeds.
    use nilicon::trace::{TraceEvent, Tracer};
    let w = workloads::redis(Scale::small(), 4);
    // Tiny chunks stretch the bootstrap across many epochs so the injected
    // backup fault reliably lands mid-stream.
    let cfg = ReplicationConfig {
        rearm_chunk_pages: 16,
        ..Default::default()
    };
    let mut h = RunHarness::new(w.spec, w.app, w.behavior, rearm_mode(), cfg, w.parallelism)
        .unwrap();
    let (tracer, ring) = Tracer::in_memory(8192);
    h.set_tracer(tracer);
    h.inject_fault_at(400 * MILLISECOND);
    h.inject_backup_fault_at(1500 * MILLISECOND);
    h.run_epochs(200).unwrap();
    assert_eq!(h.failovers(), 1);
    assert!(h.rearmed(), "a retry eventually re-established redundancy");
    let recs = ring.snapshot();
    let starts: Vec<u32> = recs
        .iter()
        .filter_map(|r| match r.kind {
            TraceEvent::RearmStart { attempt } => Some(attempt),
            _ => None,
        })
        .collect();
    assert!(
        starts.len() >= 2,
        "the aborted bootstrap was retried: attempts {starts:?}"
    );
    assert!(
        starts.contains(&1),
        "the retry carries an incremented attempt counter: {starts:?}"
    );
    assert_eq!(
        recs.iter()
            .filter(|r| matches!(r.kind, TraceEvent::RearmComplete { .. }))
            .count(),
        1,
        "exactly one bootstrap completed"
    );
    let r = h.finish();
    assert!(r.recovered);
    assert_eq!(r.broken_connections, 0);
    r.verify
        .expect("consistency preserved across failover + aborted bootstrap");
}

/// Run `mode` on `w` with a fault at 300 ms, stop at the failover epoch,
/// and return `(dead host's pid count, holders of each resident heap page
/// of the restored init process)`. A holder count counts the snapshot taken
/// to read it.
fn holders_after_failover(w: workloads::Workload, mode: RunMode) -> (usize, Vec<usize>) {
    use nilicon_sim::PAGE_SIZE;
    use std::rc::Rc;
    let mut h = harness(w, mode);
    h.inject_fault_at(300 * MILLISECOND);
    for _ in 0..100 {
        if h.failovers() > 0 {
            break;
        }
        h.run_epochs(1).unwrap();
    }
    assert_eq!(h.failovers(), 1);
    // Every promotion swaps the roles: the promoted host is the primary.
    let (dead, live) = (h.backup, h.primary);
    let mm = h.cluster.host(live).mm(h.container().init_pid()).unwrap();
    let heap = mm
        .resident_vpns()
        .into_iter()
        .filter(|&vpn| mm.vma_at(vpn * PAGE_SIZE as u64).is_some_and(|v| v.is_heap));
    let holders = heap
        .map(|vpn| Rc::strong_count(&mm.snapshot_page(vpn).unwrap()))
        .collect();
    (h.cluster.host(dead).pids().len(), holders)
}

#[test]
fn failover_leaves_the_restored_container_the_images_only_holder() {
    // Fail-stop takes the primary's memory with it, and the paper path drops
    // the engine (and its backup store) at promotion: each heap page is held
    // by the restored frame alone, so the first write after failover lands
    // in place instead of copying.
    for w in [
        workloads::redis(Scale::small(), 4),
        workloads::ssdb(Scale::small(), 4),
    ] {
        let name = w.spec.name.clone();
        let (dead_pids, holders) = holders_after_failover(w, nilicon_mode());
        assert_eq!(dead_pids, 0, "{name}: the crashed primary runs nothing");
        assert!(holders.len() > 100, "{name}: {} heap pages", holders.len());
        assert!(
            holders.iter().all(|&n| n == 2),
            "{name}: frame + snapshot only, got {:?}",
            holders
                .iter()
                .filter(|&&n| n != 2)
                .take(8)
                .collect::<Vec<_>>()
        );
    }
}

#[test]
fn rearm_keeps_the_committed_image_in_the_parked_engine_until_rearm_prepare() {
    // With rearm the engine is parked, not dropped: its backup agent's
    // committed store still shares every restored page until the bootstrap
    // (`rearm_prepare`) replaces it. The crashed host holds nothing.
    let (dead_pids, holders) =
        holders_after_failover(workloads::redis(Scale::small(), 4), rearm_mode());
    assert_eq!(dead_pids, 0);
    assert!(holders.len() > 100);
    assert!(
        holders.iter().all(|&n| n == 3),
        "frame + parked store + snapshot, got {:?}",
        holders
            .iter()
            .filter(|&&n| n != 3)
            .take(8)
            .collect::<Vec<_>>()
    );
}

#[test]
fn run_lasts_virtual_seconds_and_is_deterministic() {
    let run = || {
        let w = workloads::ssdb(Scale::small(), 4);
        let mut h = harness(w, nilicon_mode());
        h.run_epochs(35).unwrap();
        let r = h.finish();
        (
            r.metrics.elapsed,
            r.metrics.requests_total,
            r.metrics.avg_stop(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "bit-for-bit deterministic");
    assert!(a.0 > SECOND, "35 epochs ≈ >1s of virtual time");
}
