//! Harness-level tests with a minimal in-crate echo workload (no dependency
//! on `nilicon-workloads`): epoch mechanics, output commit timing, heartbeat
//! plumbing, failover sequencing, and engine ablations.

use nilicon::harness::{RunHarness, RunMode};
use nilicon::trace::{TraceEvent, Tracer};
use nilicon::traffic::ClientBehavior;
use nilicon::{NiLiConEngine, OptimizationConfig, ReplicationConfig};
use nilicon_container::{Application, ContainerSpec, GuestCtx, RequestOutcome, StepOutcome};
use nilicon_sim::net::{ChaosSchedule, FaultKind};
use nilicon_sim::time::{Nanos, MILLISECOND};
use nilicon_sim::{CostModel, SimResult};

/// Trivial echo server that stages bytes through guest memory.
struct Echo;

impl Application for Echo {
    fn name(&self) -> &str {
        "echo"
    }
    fn init(&mut self, _ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        Ok(())
    }
    fn handle_request(&mut self, ctx: &mut GuestCtx<'_>, req: &[u8]) -> SimResult<RequestOutcome> {
        ctx.cpu(50_000);
        ctx.heap_write(0, req)?;
        let mut back = vec![0u8; req.len()];
        ctx.heap_read(0, &mut back)?;
        Ok(RequestOutcome { response: back })
    }
}

/// Counter app: writes a monotone counter into guest memory each step.
struct Counter {
    limit: u64,
}

impl Application for Counter {
    fn name(&self) -> &str {
        "counter"
    }
    fn is_server(&self) -> bool {
        false
    }
    fn init(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        ctx.heap_write(0, &0u64.to_le_bytes())
    }
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<StepOutcome> {
        ctx.cpu(1_000_000);
        let mut buf = [0u8; 8];
        ctx.heap_read(0, &mut buf)?;
        let n = u64::from_le_bytes(buf) + 1;
        ctx.heap_write(0, &n.to_le_bytes())?;
        Ok(StepOutcome {
            done: n >= self.limit,
        })
    }
}

/// Simple validating client set.
struct Clients {
    n: usize,
    sent: Vec<Option<Vec<u8>>>,
    ok: u64,
    bad: u64,
    seq: u64,
}

impl Clients {
    fn new(n: usize) -> Self {
        Clients {
            n,
            sent: vec![None; n],
            ok: 0,
            bad: 0,
            seq: 0,
        }
    }
}

impl ClientBehavior for Clients {
    fn client_count(&self) -> usize {
        self.n
    }
    fn next_request(&mut self, idx: usize, _now: Nanos) -> Option<Vec<u8>> {
        self.seq += 1;
        let payload = format!("client-{idx}-seq-{}", self.seq).into_bytes();
        self.sent[idx] = Some(payload.clone());
        Some(payload)
    }
    fn on_response(&mut self, idx: usize, resp: &[u8], _now: Nanos, _latency: Nanos) {
        match self.sent[idx].take() {
            Some(s) if s == resp => self.ok += 1,
            _ => self.bad += 1,
        }
    }
    fn verify(&self) -> Result<(), String> {
        if self.bad == 0 {
            Ok(())
        } else {
            Err(format!("{} bad echoes", self.bad))
        }
    }
}

fn spec() -> ContainerSpec {
    let mut s = ContainerSpec::server("echo", 10, 9000);
    s.heap_pages = 64;
    s
}

fn nilicon() -> RunMode {
    RunMode::Replicated(Box::new(NiLiConEngine::new(
        OptimizationConfig::nilicon(),
        CostModel::default(),
    )))
}

#[test]
fn epochs_advance_virtual_time_exactly() {
    let mut h = RunHarness::new(
        spec(),
        Box::new(Echo),
        Some(Box::new(Clients::new(2))),
        RunMode::Unreplicated,
        ReplicationConfig::default(),
        1.0,
    )
    .unwrap();
    h.run_epochs(10).unwrap();
    let r = h.finish();
    assert_eq!(r.metrics.elapsed, 300 * MILLISECOND, "10 × 30ms, no stops");
    assert_eq!(r.metrics.epochs.len(), 10);
    r.verify.unwrap();
}

#[test]
fn replicated_epochs_include_stop_time() {
    let mut h = RunHarness::new(
        spec(),
        Box::new(Echo),
        Some(Box::new(Clients::new(2))),
        nilicon(),
        ReplicationConfig::default(),
        1.0,
    )
    .unwrap();
    h.run_epochs(10).unwrap();
    let r = h.finish();
    assert!(r.metrics.elapsed > 300 * MILLISECOND);
    let total_stop: Nanos = r.metrics.epochs.iter().map(|e| e.stop_time).sum();
    assert_eq!(r.metrics.elapsed, 300 * MILLISECOND + total_stop);
    assert!(r.metrics.epochs.iter().all(|e| e.stop_time > 0));
}

#[test]
fn responses_wait_for_commit_under_replication() {
    // Replicated echo latency must exceed unreplicated by at least the
    // commit wait; both must validate.
    let run = |mode: RunMode| {
        let mut h = RunHarness::new(
            spec(),
            Box::new(Echo),
            Some(Box::new(Clients::new(1))),
            mode,
            ReplicationConfig::default(),
            1.0,
        )
        .unwrap();
        h.run_epochs(20).unwrap();
        let r = h.finish();
        r.verify.unwrap();
        r.metrics.mean_latency()
    };
    let stock = run(RunMode::Unreplicated);
    let repl = run(nilicon());
    assert!(
        repl > stock + 5 * MILLISECOND,
        "repl {repl} vs stock {stock}"
    );
}

#[test]
fn batch_counter_is_exact_without_faults() {
    let mut s = ContainerSpec::batch("counter", 10);
    s.heap_pages = 64;
    let mut h = RunHarness::new(
        s,
        Box::new(Counter { limit: 500 }),
        None,
        nilicon(),
        ReplicationConfig::default(),
        1.0,
    )
    .unwrap();
    h.run_epochs(1000).unwrap();
    assert!(h.batch_done(), "the batch completes within 1000 epochs");
    let r = h.finish();
    assert_eq!(
        r.metrics.steps_total, 500,
        "every step counted exactly once"
    );
}

#[test]
fn failover_mid_batch_never_double_counts() {
    // The counter lives in guest memory; a failover rolls back to the last
    // commit and re-executes — the FINAL value must still be exactly the
    // limit (exactly-once effect via state rollback + re-execution).
    let mut s = ContainerSpec::batch("counter", 10);
    s.heap_pages = 64;
    let mut h = RunHarness::new(
        s,
        Box::new(Counter { limit: 800 }),
        None,
        nilicon(),
        ReplicationConfig::default(),
        1.0,
    )
    .unwrap();
    h.inject_fault_at(200 * MILLISECOND);
    h.run_epochs(2000).unwrap();
    assert!(h.batch_done(), "the batch completes within 2000 epochs");
    assert!(h.on_backup());
    // Read the counter from the restored guest memory, on the promoted host
    // (a promotion swaps the roles).
    let pid = h.container().init_pid();
    let promoted = h.primary;
    let mut buf = [0u8; 8];
    h.cluster
        .host_mut(promoted)
        .mem_read(pid, nilicon_container::MemLayout::heap(0), &mut buf)
        .unwrap();
    assert_eq!(
        u64::from_le_bytes(buf),
        800,
        "counter is exact despite rollback"
    );
}

#[test]
fn fault_before_first_commit_is_survivable() {
    // Fault during the very first epoch: the backup holds only the initial
    // sync... which is only shipped at the end of epoch 0. A fault *before*
    // any commit must fail over to the initial state (epoch-0 checkpoint
    // commits before the fault at 40ms only if epoch 0 completed at ~30ms).
    let mut h = RunHarness::new(
        spec(),
        Box::new(Echo),
        Some(Box::new(Clients::new(1))),
        nilicon(),
        ReplicationConfig::default(),
        1.0,
    )
    .unwrap();
    h.inject_fault_at(40 * MILLISECOND);
    h.run_epochs(20).unwrap();
    let r = h.finish();
    assert!(r.recovered);
    assert_eq!(r.broken_connections, 0);
    r.verify.unwrap();
}

#[test]
fn detection_latency_within_paper_band() {
    for fault_ms in [100u64, 217, 333, 450] {
        let mut h = RunHarness::new(
            spec(),
            Box::new(Echo),
            Some(Box::new(Clients::new(1))),
            nilicon(),
            ReplicationConfig::default(),
            1.0,
        )
        .unwrap();
        h.inject_fault_at(fault_ms * MILLISECOND);
        h.run_epochs(30).unwrap();
        let r = h.finish();
        let d = r.detection_latency.unwrap();
        assert!(
            (50 * MILLISECOND..=160 * MILLISECOND).contains(&d),
            "fault@{fault_ms}ms: detection {}ms",
            d / MILLISECOND
        );
    }
}

#[test]
fn firewall_input_blocking_costs_more_per_epoch() {
    let run = |plug: bool| {
        let mut opts = OptimizationConfig::nilicon();
        opts.plug_input_blocking = plug;
        let mode = RunMode::Replicated(Box::new(NiLiConEngine::new(opts, CostModel::default())));
        let mut h = RunHarness::new(
            spec(),
            Box::new(Echo),
            Some(Box::new(Clients::new(1))),
            mode,
            ReplicationConfig::default(),
            1.0,
        )
        .unwrap();
        h.run_epochs(10).unwrap();
        h.finish().metrics.avg_stop()
    };
    let plug = run(true);
    let firewall = run(false);
    let delta = firewall.saturating_sub(plug);
    assert!(
        (6 * MILLISECOND..8 * MILLISECOND).contains(&delta),
        "§V-C: firewall adds ~7ms/epoch, got {}us",
        delta / 1000
    );
}

#[test]
fn injected_fault_into_unreplicated_run_errors() {
    let mut h = RunHarness::new(
        spec(),
        Box::new(Echo),
        Some(Box::new(Clients::new(1))),
        RunMode::Unreplicated,
        ReplicationConfig::default(),
        1.0,
    )
    .unwrap();
    h.inject_fault_at(50 * MILLISECOND);
    assert!(
        h.run_epochs(10).is_err(),
        "unreplicated runs cannot fail over"
    );
}

#[test]
fn tracking_overhead_recorded_for_replicated_only() {
    let run = |mode: RunMode| {
        let mut h = RunHarness::new(
            spec(),
            Box::new(Echo),
            Some(Box::new(Clients::new(2))),
            mode,
            ReplicationConfig::default(),
            1.0,
        )
        .unwrap();
        h.run_epochs(10).unwrap();
        let r = h.finish();
        r.metrics
            .epochs
            .iter()
            .map(|e| e.tracking_overhead)
            .sum::<Nanos>()
    };
    assert_eq!(run(RunMode::Unreplicated), 0);
    assert!(run(nilicon()) > 0, "soft-dirty faults metered");
}

/// The error `RunHarness::new` gives for `ReplicationConfig::default()` +
/// `set`.
fn harness_rejects(set: fn(&mut ReplicationConfig)) -> String {
    let mut cfg = ReplicationConfig::default();
    set(&mut cfg);
    RunHarness::new(spec(), Box::new(Echo), None, nilicon(), cfg, 1.0)
        .unwrap_err()
        .to_string()
}

#[test]
fn harness_rejects_a_zero_epoch() {
    let msg = harness_rejects(|c| c.epoch_exec = 0);
    assert!(msg.contains("cfg.epoch_exec"), "{msg}");
}

#[test]
fn harness_rejects_a_zero_rearm_chunk() {
    let msg = harness_rejects(|c| c.rearm_chunk_pages = 0);
    assert!(msg.contains("cfg.rearm_chunk_pages"), "{msg}");
}

/// The echo service with one validating client, replicated under the
/// paper config.
fn replicated_echo() -> RunHarness {
    RunHarness::new(
        spec(),
        Box::new(Echo),
        Some(Box::new(Clients::new(1))),
        nilicon(),
        ReplicationConfig::default(),
        1.0,
    )
    .unwrap()
}

#[test]
fn a_backup_fault_fires_before_a_primary_fault_at_the_same_instant() {
    // One fault timeline for both hosts: at a tie the backup fault fires
    // first, whichever was injected first. Under the paper config it
    // degrades the run to unreplicated, so the primary fault then finds no
    // backup: no failover, one unrecovered fault. (Primary-first would fail
    // over and then reject the backup fault: no live backup.)
    for backup_injected_first in [true, false] {
        let mut h = replicated_echo();
        let t = 200 * MILLISECOND;
        if backup_injected_first {
            h.inject_backup_fault_at(t);
            h.inject_fault_at(t);
        } else {
            h.inject_fault_at(t);
            h.inject_backup_fault_at(t);
        }
        h.run_epochs(20).unwrap();
        let r = h.finish();
        assert_eq!(
            (r.failovers, r.unrecovered_faults),
            (0, 1),
            "backup fault injected first: {backup_injected_first}"
        );
    }
}

#[test]
fn a_paper_path_promotion_makes_the_promoted_host_the_primary() {
    // No rearm: after the failover `primary` names the host that runs the
    // restored container and `backup` the crashed one.
    let mut h = replicated_echo();
    let (original, standby) = (h.primary, h.backup);
    h.inject_fault_at(200 * MILLISECOND);
    h.run_epochs(20).unwrap();
    assert_eq!(h.failovers(), 1);
    assert_eq!((h.primary, h.backup), (standby, original), "roles swapped");
    let pid = h.container().init_pid();
    assert!(h.cluster.host(h.primary).proc(pid).is_ok());
    assert!(h.cluster.host(h.backup).pids().is_empty(), "crashed host");
    // `snapshot_heap` reads the running container: the echo stages each
    // request at heap offset 0 (a crashed host would read as zeros).
    let heap = h.snapshot_heap(1);
    assert!(heap.starts_with(b"client-0-seq-"), "{:?}", &heap[..16]);
    h.finish().verify.unwrap();
}

#[test]
fn a_fault_before_the_first_committed_checkpoint_loses_the_service() {
    // The fault lands inside epoch 0, before its checkpoint commits: the
    // backup holds nothing to restore, so the run ends like a fault with no
    // live backup (output discarded, one unrecovered fault) instead of
    // failing over to an image that does not exist — on the plain path and
    // on the hybrid-replay truncated-epoch path alike.
    for hybrid_replay in [false, true] {
        let mut opts = OptimizationConfig::nilicon();
        opts.hybrid_replay = hybrid_replay;
        let engine = NiLiConEngine::new(opts, CostModel::default());
        let mut h = RunHarness::new(
            spec(),
            Box::new(Echo),
            Some(Box::new(Clients::new(1))),
            RunMode::Replicated(Box::new(engine)),
            ReplicationConfig::default(),
            1.0,
        )
        .unwrap();
        let (tracer, ring) = Tracer::in_memory(1 << 12);
        h.set_tracer(tracer);
        h.inject_fault_at(10 * MILLISECOND);
        h.run_epochs(20).unwrap();
        let r = h.finish();
        let discards = ring
            .snapshot()
            .iter()
            .filter(|rec| matches!(rec.kind, TraceEvent::OutputDiscard { .. }))
            .count();
        assert_eq!(
            (r.recovered, r.failovers, r.unrecovered_faults, discards),
            (false, 0, 1, 1),
            "hybrid_replay: {hybrid_replay}"
        );
        assert_eq!(r.metrics.epochs.len(), 0, "no epoch runs after the loss");
    }
}

/// The replicated echo service with chaos armed from t = 0: a partition of
/// the replication link over `[0, until)`, a ring tracer, `epochs` epochs.
fn partitioned_from_the_start(until: Nanos, epochs: u64) -> (RunHarness, Vec<TraceEvent>) {
    let mut h = replicated_echo();
    let (tracer, ring) = Tracer::in_memory(1 << 12);
    h.set_tracer(tracer);
    h.set_chaos(ChaosSchedule::default().window(0, until, FaultKind::Partition));
    h.run_epochs(epochs).unwrap();
    let events = ring.snapshot().into_iter().map(|rec| rec.kind).collect();
    (h, events)
}

#[test]
fn a_partition_healed_before_the_first_commit_is_a_false_suspicion() {
    // Nothing has committed when detection fires at 90 ms: the primary is
    // alive behind the partition, so it keeps the service and the backup
    // waits; the first beat after the heal rescinds the suspicion.
    let (h, events) = partitioned_from_the_start(400 * MILLISECOND, 40);
    let stats = h.chaos_stats().unwrap();
    assert_eq!((h.failovers(), stats.false_suspicions), (0, 1));
    assert!(!stats.split_brain);
    let suspicions = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::FalseSuspicion { .. }))
        .count();
    assert_eq!(suspicions, 1);
    let r = h.finish();
    assert!(r.metrics.requests_total > 0, "served after the heal");
    r.verify.unwrap();
}

#[test]
fn a_partition_that_never_heals_before_the_first_commit_keeps_the_primary() {
    // With no committed image the backup never takes over, and nothing the
    // primary served is ever released.
    let (h, events) = partitioned_from_the_start(5_000 * MILLISECOND, 60);
    let stats = h.chaos_stats().unwrap();
    assert_eq!((h.failovers(), stats.split_brain), (0, false));
    let released = events.iter().find(|e| {
        matches!(
            e,
            TraceEvent::OutputRelease { .. } | TraceEvent::ClientDeliver { .. }
        )
    });
    assert_eq!(released, None);
    let r = h.finish();
    assert_eq!((r.failovers, r.unrecovered_faults), (0, 0));
    r.verify.unwrap();
}
