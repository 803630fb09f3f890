//! End-to-end trace tests: a traced run's phase spans must reconcile with
//! the `EpochRecord` totals the harness reports (the OBSERVABILITY.md
//! invariant), and fault injection must surface as detector/failover events.

use nilicon::fleet::{FleetScheduler, LaneSpec};
use nilicon::harness::{RunHarness, RunMode};
use nilicon::trace::{TraceEvent, TraceRecord, TraceSink, Tracer};
use nilicon::{NiLiConEngine, OptimizationConfig, ReplicationConfig};
use nilicon_container::{Application, ContainerSpec, GuestCtx, RequestOutcome};
use nilicon_sim::time::{Nanos, MILLISECOND};
use nilicon_sim::{CostModel, SimResult};

/// Trivial echo server dirtying one heap page per request.
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
        Ok(RequestOutcome {
            response: req.to_vec(),
        })
    }
}

struct OneClient {
    seq: u64,
}

impl nilicon::traffic::ClientBehavior for OneClient {
    fn client_count(&self) -> usize {
        1
    }
    fn next_request(&mut self, _idx: usize, _now: Nanos) -> Option<Vec<u8>> {
        self.seq += 1;
        Some(self.seq.to_le_bytes().to_vec())
    }
    fn on_response(&mut self, _idx: usize, _resp: &[u8], _now: Nanos, _latency: Nanos) {}
}

fn spec() -> ContainerSpec {
    let mut s = ContainerSpec::server("echo", 10, 9000);
    s.heap_pages = 64;
    s
}

fn traced_run(opts: OptimizationConfig, epochs: u64) -> (nilicon::metrics::RunMetrics, Vec<nilicon::trace::TraceRecord>) {
    let mode = RunMode::Replicated(Box::new(NiLiConEngine::new(opts, CostModel::default())));
    let mut h = RunHarness::new(
        spec(),
        Box::new(Echo),
        Some(Box::new(OneClient { seq: 0 })),
        mode,
        ReplicationConfig::default(),
        1.0,
    )
    .unwrap();
    let (tracer, ring) = Tracer::in_memory(8192);
    h.set_tracer(tracer);
    h.run_epochs(epochs).unwrap();
    let r = h.finish();
    (r.metrics, ring.snapshot())
}

/// For each recorded epoch, re-sum the trace's phase spans and check them
/// against the `EpochRecord` the harness produced — independently of the
/// in-line `Tracer::reconcile` check the harness already performs.
#[test]
fn span_sums_reconcile_with_epoch_records() {
    for opts in [OptimizationConfig::nilicon(), {
        // Without the staging buffer the commit is inline: ack_delay folds
        // into stop_time and must reconcile against the combined sum.
        let mut o = OptimizationConfig::nilicon();
        o.staging_buffer = false;
        o
    }] {
        let (metrics, records) = traced_run(opts, 8);
        assert_eq!(metrics.epochs.len(), 8);
        for e in &metrics.epochs {
            let stop_sum: Nanos = records
                .iter()
                .filter(|r| r.epoch == e.epoch && r.kind.is_stop_phase())
                .map(|r| r.dur)
                .sum();
            let ack_sum: Nanos = records
                .iter()
                .filter(|r| r.epoch == e.epoch && r.kind.is_ack_phase())
                .map(|r| r.dur)
                .sum();
            if e.ack_delay > 0 {
                assert_eq!(stop_sum, e.stop_time, "epoch {}: stop spans", e.epoch);
                assert_eq!(ack_sum, e.ack_delay, "epoch {}: ack spans", e.epoch);
            } else {
                assert_eq!(
                    stop_sum + ack_sum,
                    e.stop_time,
                    "epoch {}: inline-commit spans",
                    e.epoch
                );
            }
        }
    }
}

/// Spans within an epoch tile virtual time with no gaps: each span starts
/// where the previous one ended.
#[test]
fn spans_are_contiguous_within_an_epoch() {
    let (_, records) = traced_run(OptimizationConfig::nilicon(), 5);
    let mut cursor: Option<(u64, Nanos)> = None;
    for r in records.iter().filter(|r| r.dur > 0 || matches!(r.kind, TraceEvent::Exec { .. })) {
        if let Some((epoch, end)) = cursor {
            if epoch == r.epoch {
                assert_eq!(r.t, end, "span {} starts at the previous end", r.kind.name());
            }
        }
        cursor = Some((r.epoch, r.t + r.dur));
    }
}

/// A fault-injected run records the detector's misses, the failover
/// breakdown, and releases traced before the fault.
#[test]
fn failover_run_traces_misses_and_recovery() {
    let mode = RunMode::Replicated(Box::new(NiLiConEngine::new(
        OptimizationConfig::nilicon(),
        CostModel::default(),
    )));
    let mut h = RunHarness::new(
        spec(),
        Box::new(Echo),
        Some(Box::new(OneClient { seq: 0 })),
        mode,
        ReplicationConfig::default(),
        1.0,
    )
    .unwrap();
    let (tracer, ring) = Tracer::in_memory(8192);
    h.set_tracer(tracer);
    h.inject_fault_at(150 * MILLISECOND);
    h.run_epochs(20).unwrap();
    let r = h.finish();
    assert!(r.recovered);

    let records = ring.snapshot();
    let misses = records
        .iter()
        .filter(|r| matches!(r.kind, TraceEvent::HeartbeatMiss { .. }))
        .count();
    assert!(misses >= 1, "silence before detection is traced");
    let failover: Vec<_> = records
        .iter()
        .filter_map(|r| match r.kind {
            TraceEvent::Failover {
                detection_latency, ..
            } => Some(detection_latency),
            _ => None,
        })
        .collect();
    assert_eq!(failover.len(), 1, "exactly one failover event");
    assert_eq!(Some(failover[0]), r.detection_latency);
    assert!(
        records
            .iter()
            .any(|r| matches!(r.kind, TraceEvent::OutputRelease { .. })),
        "healthy epochs traced their releases"
    );
}

/// The harness's timed stage-crash hook (the chaos catalog's
/// `pipeline-stage-crash-*` scenarios) arms the engine's one-shot stage
/// fault: the staged transfer loses its ingest stage at the scheduled
/// chunk, the peek-before-commit slot replays it, and the trace records
/// exactly one `StageRestart` — with the run still verifying.
#[test]
fn injected_stage_fail_traces_a_stage_restart() {
    let mut opts = OptimizationConfig::nilicon();
    opts.pipeline = true;
    let mode = RunMode::Replicated(Box::new(NiLiConEngine::new(opts, CostModel::default())));
    let mut h = RunHarness::new(
        spec(),
        Box::new(Echo),
        Some(Box::new(OneClient { seq: 0 })),
        mode,
        ReplicationConfig::default(),
        1.0,
    )
    .unwrap();
    let (tracer, ring) = Tracer::in_memory(8192);
    h.set_tracer(tracer);
    h.inject_stage_fail_at(150 * MILLISECOND, 0);
    h.run_epochs(10).unwrap();
    let r = h.finish();
    r.verify.expect("stage crash must not corrupt the run");

    let restarts: Vec<_> = ring
        .snapshot()
        .iter()
        .filter_map(|rec| match &rec.kind {
            TraceEvent::StageRestart { stage, chunk } => Some((stage.clone(), *chunk)),
            _ => None,
        })
        .collect();
    assert_eq!(restarts, [("ingest".to_string(), 0)]);
}

/// A sink that takes every record and cannot flush them (a full disk).
struct Unflushable;

impl TraceSink for Unflushable {
    fn record(&mut self, _rec: &TraceRecord) {}
    fn flush(&mut self) -> std::io::Result<()> {
        Err(std::io::Error::other("no space left"))
    }
}

/// `verify` of a replicated echo run traced into `tracer`, under the
/// harness (`fleet == false`) or a one-lane fleet.
fn verify_traced(tracer: Tracer, fleet: bool) -> Result<(), String> {
    let opts = OptimizationConfig::nilicon();
    let client = Box::new(OneClient { seq: 0 });
    if fleet {
        let cfg = ReplicationConfig {
            opts: OptimizationConfig { fleet: 1, ..opts },
            ..Default::default()
        };
        let lane = LaneSpec {
            spec: spec(),
            app: Box::new(Echo),
            behavior: Some(client),
        };
        let mut f = FleetScheduler::new(cfg, vec![lane]).unwrap();
        f.set_tracer(0, tracer);
        f.run_epochs(5).unwrap();
        return f.finish().lanes.remove(0).verify;
    }
    let mode = RunMode::Replicated(Box::new(NiLiConEngine::new(opts, CostModel::default())));
    let cfg = ReplicationConfig::default();
    let mut h = RunHarness::new(spec(), Box::new(Echo), Some(client), mode, cfg, 1.0).unwrap();
    h.set_tracer(tracer);
    h.run_epochs(5).unwrap();
    h.finish().verify
}

#[test]
fn a_trace_that_cannot_be_flushed_fails_the_run() {
    for fleet in [false, true] {
        verify_traced(Tracer::in_memory(64).0, fleet).unwrap();
        let err = verify_traced(Tracer::new(Box::new(Unflushable)), fleet).unwrap_err();
        assert!(
            err.contains("trace") && err.contains("no space left"),
            "{err}"
        );
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_trace_written_to_a_full_device_fails_the_run() {
    for fleet in [false, true] {
        let err = verify_traced(Tracer::to_file("/dev/full").unwrap(), fleet).unwrap_err();
        assert!(err.starts_with("trace: "), "{err}");
    }
}
