//! Output-release latency, epoch-ack vs log-commit (DESIGN.md §11).
//!
//! ```text
//! cargo run --release -p nilicon-bench --bin replay_latency
//! ```
//!
//! Two measurements back the hybrid checkpoint + replay extension:
//!
//! * **release wait** — the Table-VI Redis row (single closed-loop client)
//!   run twice: plain NiLiCon releases each response at the covering epoch
//!   ack (~30 ms later); `--replay` releases it when its nondeterminism-log
//!   chunk commits on the backup (one link round-trip). The per-response
//!   wait distribution (`RunMetrics::release_waits`) is the component the
//!   extension attacks.
//! * **replay duration vs log length** — a sealed one-epoch log of N batch
//!   steps is replayed onto a restored checkpoint; the virtual replay time
//!   should scale linearly with N (per-event dispatch + metered guest work).
//!
//! Results land in `BENCH_replay.json`; the process fails if the log-commit
//! mean release wait exceeds 2 ms or fails to beat the epoch-ack mean.

use nilicon::harness::RunMode;
use nilicon::{replay_tail, Checkpointer, NiLiConEngine, OptimizationConfig, ReplicationConfig};
use nilicon_bench::runner::replicated_engine;
use nilicon_bench::{Cli, Flags};
use nilicon_container::{
    Application, ContainerRuntime, ContainerSpec, GuestCtx, RequestOutcome, StepOutcome,
};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::replay::ReplayEvent;
use nilicon_sim::SimResult;
use nilicon_workloads::Scale;
use serde::Serialize;

/// Epochs per release-wait run (matches the Table-VI default scale).
const EPOCHS: u64 = 400;

#[derive(Serialize)]
struct ReleaseRow {
    /// `"epoch_ack"` (paper row) or `"log_commit"` (`--replay`).
    mode: String,
    requests: u64,
    mean_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
    /// End-to-end mean response latency for the same run (Table-VI metric).
    mean_latency_ns: u64,
}

#[derive(Serialize)]
struct ReplayRow {
    events: u64,
    replay_ns: u64,
}

#[derive(Serialize)]
struct Bench {
    release: Vec<ReleaseRow>,
    replay: Vec<ReplayRow>,
}

/// The Table-VI Redis row under the given release rule, traced as `mode`.
fn release_row(cli: &Cli, mode: &str, hybrid_replay: bool) -> ReleaseRow {
    let w = nilicon_workloads::redis(Scale::bench(), 1);
    let mut opts = OptimizationConfig::nilicon();
    opts.hybrid_replay = hybrid_replay;
    let engine = RunMode::Replicated(replicated_engine(opts).expect("a valid row"));
    let r = cli.run_workload(w, engine, ReplicationConfig::default(), &[], EPOCHS, mode);
    r.verify.expect("workload validated");
    assert_eq!(r.broken_connections, 0, "broken connections");
    let m = r.metrics;
    ReleaseRow {
        mode: mode.to_string(),
        requests: m.release_waits.len() as u64,
        mean_ns: m.mean_release_wait(),
        p50_ns: m.release_wait_percentile(50.0),
        p99_ns: m.release_wait_percentile(99.0),
        mean_latency_ns: m.mean_latency(),
    }
}

/// Deterministic batch stepper for the replay-duration cells.
struct Stepper;
impl Application for Stepper {
    fn name(&self) -> &str {
        "stepper"
    }
    fn init(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        ctx.heap_write(0, &[0u8; 8])
    }
    fn handle_request(&mut self, _ctx: &mut GuestCtx<'_>, _req: &[u8]) -> SimResult<RequestOutcome> {
        unreachable!("batch app")
    }
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<StepOutcome> {
        ctx.cpu(2_000);
        let mut buf = [0u8; 8];
        ctx.heap_read(0, &mut buf)?;
        let n = u64::from_le_bytes(buf) + 1;
        ctx.heap_write(0, &n.to_le_bytes())?;
        Ok(StepOutcome { done: false })
    }
    fn is_server(&self) -> bool {
        false
    }
}

/// Replay a sealed one-epoch log of `events` steps onto a restored
/// checkpoint; returns the virtual replay duration.
fn replay_duration(events: u64) -> u64 {
    let mut p = Kernel::default();
    let mut b = Kernel::default();
    let mut spec = ContainerSpec::server("stepper", 10, 7000);
    spec.heap_pages = 4;
    let c = ContainerRuntime::create(&mut p, &spec).expect("container");
    let mut app = Stepper;
    {
        let mut ctx = GuestCtx::new(&mut p, c.workers[0], 0);
        app.init(&mut ctx).expect("init");
    }

    let mut opts = OptimizationConfig::nilicon();
    opts.hybrid_replay = true;
    let mut e = NiLiConEngine::new(opts, p.costs.clone());
    e.prepare(&mut p, &c).expect("prepare");
    e.checkpoint(&mut p, &mut b, &c, 1).expect("checkpoint");
    e.commit(&mut b, 1).expect("commit");

    // Epoch 2 executes `events` steps on the primary, ships the log, seals
    // it — and the primary dies before epoch 2's checkpoint.
    let mut log = Vec::with_capacity(events as usize);
    for i in 0..events {
        let mut ctx = GuestCtx::new(&mut p, c.workers[0], i);
        app.step(&mut ctx).expect("step");
        log.push(ReplayEvent::Step {
            pid: c.workers[0],
            at: i,
            done: false,
        });
    }
    e.ship_log(&mut p, 2, &log).expect("ship");
    e.seal_log(2).expect("seal");

    let (restored, _report) = e.failover(&mut b).expect("failover");
    restored.finish(&mut b).expect("finish");
    {
        let mut ctx = GuestCtx::new(&mut b, restored.container.workers[0], 0);
        app.recover(&mut ctx).expect("recover");
    }
    let tail = e.take_replay_tail().expect("tail");
    assert_eq!(tail.events(), events, "whole log sealed");
    let out = replay_tail(&mut b, &restored.container, &mut app, &tail).expect("replay");
    assert!(out.diverged.is_none(), "deterministic stepper: {:?}", out.diverged);
    out.replay_cpu
}

fn main() {
    let cli = Cli::parse(&[], Flags::Trace);
    eprintln!("[release] Redis Table-VI row, epoch-ack release...");
    let baseline = release_row(&cli, "epoch_ack", false);
    eprintln!("[release] Redis Table-VI row, log-commit release (--replay)...");
    let release = vec![baseline, release_row(&cli, "log_commit", true)];

    let replay: Vec<ReplayRow> = [10u64, 100, 1_000, 10_000]
        .iter()
        .map(|&n| {
            eprintln!("[replay] {n}-event log...");
            ReplayRow {
                events: n,
                replay_ns: replay_duration(n),
            }
        })
        .collect();

    for r in &release {
        println!(
            "release_wait/{:<10} requests {:>6}  mean {:>10} ns  p50 {:>10} ns  p99 {:>10} ns  (mean latency {} ns)",
            r.mode, r.requests, r.mean_ns, r.p50_ns, r.p99_ns, r.mean_latency_ns
        );
    }
    for r in &replay {
        println!(
            "replay_duration/{:<6} events -> {:>10} ns",
            r.events, r.replay_ns
        );
    }

    let bench = Bench { release, replay };
    let json = serde_json::to_string(&bench).expect("serialize");
    std::fs::write("BENCH_replay.json", &json).expect("write BENCH_replay.json");
    println!("wrote BENCH_replay.json");

    // Acceptance gates (ISSUE): --replay mean release wait on the Redis
    // Table-VI row must be at most 2 ms, and must beat the epoch-ack rule.
    let ack = &bench.release[0];
    let log = &bench.release[1];
    if log.mean_ns > 2_000_000 {
        eprintln!(
            "FATAL: log-commit mean release wait {} ns exceeds 2 ms",
            log.mean_ns
        );
        std::process::exit(1);
    }
    if log.mean_ns >= ack.mean_ns {
        eprintln!(
            "FATAL: log-commit mean release wait {} ns does not beat epoch-ack {} ns",
            log.mean_ns, ack.mean_ns
        );
        std::process::exit(1);
    }
    println!(
        "replay latency clean: release wait {:.1} µs (log-commit) vs {:.1} ms (epoch-ack)",
        log.mean_ns as f64 / 1e3,
        ack.mean_ns as f64 / 1e6
    );
}
