//! `fleet_bench` — the fleet-scale extension curve (§VII-C extended;
//! DESIGN.md §13).
//!
//! ```text
//! cargo run --release -p nilicon-bench --bin fleet_bench            # full curve
//! cargo run --release -p nilicon-bench --bin fleet_bench -- scale   # the scale cell alone, timed
//! ```
//!
//! Two measurements, both gated (the process exits nonzero on a miss); the
//! full run adds the stop-time curve over N = 1..100 lanes between them.
//! That `--fleet 1` runs the plain engine loop's epochs is
//! `crates/core/tests/fleet_equivalence.rs`'s property, not a cell here.
//!
//! * **convoy** — at N = 8 lanes the staggered fleet's aggregate p99 stop
//!   time must beat `--aligned` (synchronized boundaries + FIFO link), which
//!   serializes every lane's dump behind its neighbors' each epoch.
//! * **scale** — the top cell (100 lanes × 1000 clients = 100 000 simulated
//!   connections on one primary/backup pair) must verify every lane with
//!   zero broken connections and zero split-brain, even past the saturation
//!   knee where Σ stop > epoch and the dump service runs a standing queue.
//!
//! The full run lands in `BENCH_fleet.json`.

use nilicon::fleet::{FleetScheduler, LaneSpec};
use nilicon::trace::{TraceEvent, Tracer};
use nilicon::{percentile, OptimizationConfig, ReplicationConfig};
use nilicon_bench::chaos::echo_lane;
use nilicon_bench::{Cli, Flags, Slot};
use nilicon_container::ContainerSpec;
use nilicon_sim::time::Nanos;
use serde::Serialize;

/// Epoch length for the fleet cells. Multiplexing is only stable while
/// Σ per-lane stop < epoch, and even a tiny container's dump floor is
/// ~6-7 ms (freeze + scan fixed costs), so the paper's 30 ms epoch
/// saturates at 4 lanes. The fleet cells run a 120 ms epoch: N = 8 sits in
/// the stable regime (where staggering matters) and the curve's saturation
/// knee (~N = 16) is visible inside the sweep rather than at its origin.
const FLEET_EPOCH: Nanos = 120_000_000;
/// Per-lane epochs in a curve cell.
const CURVE_EPOCHS: u64 = 24;
/// Clients per lane in the 100-lane scale cell: 100 × 1000 = 100 000
/// simulated connections multiplexed on the one primary/backup pair. Each
/// established connection is dumped with the checkpoint (TCP repair state),
/// so this cell runs deep in the saturated regime — it gates correctness
/// and aggregate throughput there, not latency.
const SCALE_CLIENTS: usize = 1_000;
/// Per-lane epochs in the scale cell.
const SCALE_EPOCHS: u64 = 12;
/// Clients per lane on the stop-time curve: light load, so the per-lane
/// stop floor (~6 ms) rather than connection-dump cost sets the knee.
const CURVE_CLIENTS: usize = 4;
/// Stop percentiles aggregate the last `TAIL` epochs of every lane. Each
/// lane's epoch 1 is the ~160 ms initial full sync; N of those serialized
/// on the one dump service leave a backlog that takes
/// `(N-1)·160ms / (epoch - N·stop)` epochs to drain, so a fixed head-side
/// warmup skip cannot reach steady state — the tail window can.
const TAIL: usize = 8;
/// Per-lane trace ring: room for every record of the longest cell.
const RING_CAP: usize = 1 << 14;

/// A tiny lane: one single-thread process, few mapped files, small heap —
/// the per-lane stop time is dominated by the dirty footprint, not the
/// container's fixed dump surface.
fn curve_lane(i: u32, clients: usize, dirty: u64) -> LaneSpec {
    let mut spec = ContainerSpec::server(&format!("f{i}"), 16 + i, 7000);
    spec.threads_per_process = 2;
    spec.threads_in_syscall = 1;
    spec.mapped_files = 4;
    spec.heap_pages = 128;
    echo_lane(spec, 20_000, dirty, clients, 0x40 + (i % 64) as u8)
}

#[derive(Serialize)]
struct CellOut {
    lanes: u32,
    aligned: bool,
    connections: usize,
    epochs: u64,
    requests_total: u64,
    requests_per_s: f64,
    stop_p50_ns: Nanos,
    stop_p99_ns: Nanos,
    mean_queue_wait_ns: Nanos,
    mean_fair_wait_ns: Nanos,
    broken_connections: u64,
    split_brains: u64,
    all_verified: bool,
}

/// Run one fleet cell and aggregate post-warmup stop percentiles across
/// every lane (stop here is `stop_eff`: the dump plus its convoy wait). The
/// dump-queue and link waits are read back from each lane's trace.
fn run_cell(n: u32, clients: usize, epochs: u64, aligned: bool, dirty: u64) -> CellOut {
    let mut cfg = ReplicationConfig {
        epoch_exec: FLEET_EPOCH,
        opts: OptimizationConfig::nilicon(),
        ..Default::default()
    };
    cfg.opts.fleet = n;
    cfg.opts.fleet_aligned = aligned;
    let lanes = (0..n).map(|i| curve_lane(i, clients, dirty)).collect();
    let mut fleet = FleetScheduler::new(cfg, lanes).expect("fleet");
    let rings: Vec<_> = (0..n as usize)
        .map(|i| {
            let (tracer, ring) = Tracer::in_memory(RING_CAP);
            fleet.set_tracer(i, tracer);
            ring
        })
        .collect();
    fleet.run_epochs(epochs).expect("run");
    let r = fleet.finish();

    let (mut queue_waits, mut fair_waits) = (Vec::new(), Vec::new());
    for ring in &rings {
        assert!(ring.len() < RING_CAP, "a lane's trace outgrew its ring");
        for rec in ring.snapshot() {
            match rec.kind {
                TraceEvent::Backpressure { stalled } => queue_waits.push(stalled),
                TraceEvent::FairShareWait { waited, .. } => fair_waits.push(waited),
                _ => {}
            }
        }
    }

    let mut stops = Vec::new();
    let mut requests_total = 0u64;
    let mut broken = 0u64;
    let mut all_verified = true;
    for l in &r.lanes {
        stops.extend(l.metrics.epochs.iter().rev().take(TAIL).map(|e| e.stop_time));
        requests_total += l.metrics.requests_total;
        broken += l.broken_connections;
        all_verified &= l.verify.is_ok();
    }
    let mean = |v: &[Nanos]| v.iter().sum::<Nanos>() / v.len().max(1) as u64;
    CellOut {
        lanes: n,
        aligned,
        connections: n as usize * clients,
        epochs,
        requests_total,
        requests_per_s: requests_total as f64 / (epochs as f64 * FLEET_EPOCH as f64 / 1e9),
        stop_p50_ns: percentile(stops.clone(), 50.0),
        stop_p99_ns: percentile(stops, 99.0),
        mean_queue_wait_ns: mean(&queue_waits),
        mean_fair_wait_ns: mean(&fair_waits),
        broken_connections: broken,
        split_brains: r.split_brains(),
        all_verified,
    }
}

fn print_cell(c: &CellOut) {
    println!(
        "{:>4} lanes{} {:>7} conns  {:>10.0} req/s  stop p50 {:>10} ns  p99 {:>11} ns  \
         queue {:>10} ns  fair {:>8} ns  broken {}  {}",
        c.lanes,
        if c.aligned { " (aligned)" } else { "          " },
        c.connections,
        c.requests_per_s,
        c.stop_p50_ns,
        c.stop_p99_ns,
        c.mean_queue_wait_ns,
        c.mean_fair_wait_ns,
        c.broken_connections,
        if c.all_verified { "ok" } else { "VERIFY-FAIL" },
    );
}

#[derive(Serialize)]
struct Bench {
    convoy: Vec<CellOut>,
    convoy_p99_ratio: f64,
    curve: Vec<CellOut>,
    scale: CellOut,
}

/// The staggered-vs-aligned pair at `n` lanes; returns (staggered, aligned).
fn convoy_pair(n: u32, epochs: u64) -> (CellOut, CellOut) {
    eprintln!("[convoy] {n} lanes, staggered...");
    let stag = run_cell(n, 4, epochs, false, 16);
    eprintln!("[convoy] {n} lanes, --aligned...");
    let alig = run_cell(n, 4, epochs, true, 16);
    (stag, alig)
}

fn gate(ok: bool, msg: &str) {
    if !ok {
        eprintln!("FATAL: {msg}");
        std::process::exit(1);
    }
}

/// The scale cell: 100 lanes × [`SCALE_CLIENTS`] clients, [`SCALE_EPOCHS`]
/// epochs each.
fn scale_cell() -> CellOut {
    eprintln!("[scale] 100 lanes x {SCALE_CLIENTS} clients (100K connections)...");
    let scale = run_cell(100, SCALE_CLIENTS, SCALE_EPOCHS, false, 8);
    print_cell(&scale);
    gate(
        scale.lanes >= 100 && scale.connections >= 100_000,
        "scale cell must multiplex 100+ lanes / 100K+ connections",
    );
    gate(
        scale.all_verified && scale.broken_connections == 0 && scale.split_brains == 0,
        "scale cell failed verification",
    );
    scale
}

fn main() {
    if Cli::parse(&[Slot::Word(&["scale"])], Flags::None).words[0].is_some() {
        // Simulator throughput on the cell that is all request path: wall
        // time and simulated time per wall time (a host number: printed,
        // never written to BENCH_fleet.json).
        let t = std::time::Instant::now();
        scale_cell();
        let wall = t.elapsed();
        let simulated = (SCALE_EPOCHS * FLEET_EPOCH) as f64;
        println!(
            "scale cell: {:.2} s wall, {:.4} simulated ns per wall ns",
            wall.as_secs_f64(),
            simulated / wall.as_nanos() as f64
        );
        return;
    }

    let (stag, alig) = convoy_pair(8, 30);
    print_cell(&stag);
    print_cell(&alig);
    let ratio = alig.stop_p99_ns as f64 / stag.stop_p99_ns.max(1) as f64;
    println!("convoy: aligned p99 / staggered p99 = {ratio:.2}x");
    for c in [&stag, &alig] {
        gate(
            c.all_verified && c.broken_connections == 0 && c.split_brains == 0,
            "convoy cell failed verification",
        );
    }
    gate(
        stag.stop_p99_ns < alig.stop_p99_ns,
        "staggered aggregate p99 stop must beat the aligned convoy at N=8",
    );

    let mut curve = Vec::new();
    for n in [1u32, 2, 4, 8, 16, 32, 64, 100] {
        eprintln!("[curve] {n} lanes x {CURVE_CLIENTS} clients...");
        let c = run_cell(n, CURVE_CLIENTS, CURVE_EPOCHS, false, 8);
        print_cell(&c);
        gate(
            c.all_verified && c.broken_connections == 0 && c.split_brains == 0,
            "curve cell failed verification",
        );
        curve.push(c);
    }

    let scale = scale_cell();

    let bench = Bench {
        convoy: vec![stag, alig],
        convoy_p99_ratio: ratio,
        curve,
        scale,
    };
    let json = serde_json::to_string(&bench).expect("serialize");
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("wrote BENCH_fleet.json");
    println!(
        "fleet gates clean: convoy {ratio:.2}x, \
         100-lane/100K-connection scale cell verified"
    );
}
