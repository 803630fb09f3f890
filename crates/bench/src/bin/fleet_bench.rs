//! `fleet_bench` — the fleet-scale extension curve (§VII-C extended;
//! DESIGN.md §13).
//!
//! ```text
//! cargo run --release -p nilicon-bench --bin fleet_bench            # full curve
//! cargo run --release -p nilicon-bench --bin fleet_bench -- quick   # CI smoke
//! cargo run --release -p nilicon-bench --bin fleet_bench -- scale   # the scale cell alone, timed
//! ```
//!
//! Two measurements, both gated (the process exits nonzero on a miss); the
//! full run adds the stop-time curve over N = 1..100 lanes between them.
//! That `--fleet 1` commits what the plain engine loop commits is
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
use nilicon::traffic::ClientBehavior;
use nilicon::{percentile, OptimizationConfig, ReplicationConfig};
use nilicon_container::{Application, ContainerSpec, GuestCtx, RequestOutcome};
use nilicon_sim::time::Nanos;
use nilicon_sim::SimResult;
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

// ---------------------------------------------------------------------------
// Fleet cells: tiny echo lanes with a tunable dirty footprint
// ---------------------------------------------------------------------------

/// Echo server whose requests rotate writes over `dirty` heap pages, so a
/// lane's per-epoch checkpoint footprint is a knob.
struct FleetEcho {
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
        ctx.cpu(20_000);
        let page = self.n % self.dirty;
        ctx.heap_write(page * 4096, req)?;
        let mut back = vec![0u8; req.len()];
        ctx.heap_read(page * 4096, &mut back)?;
        Ok(RequestOutcome { response: back })
    }
}

/// Closed-loop clients issuing tagged 3-byte payloads, verifying echoes.
struct CurveClients {
    n: usize,
    tag: u8,
    issued: u64,
    got: u64,
    bad: u64,
}

impl ClientBehavior for CurveClients {
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

/// A tiny lane: one single-thread process, few mapped files, small heap —
/// the per-lane stop time is dominated by the dirty footprint, not the
/// container's fixed dump surface.
fn curve_lane(i: u32, clients: usize, dirty: u64) -> LaneSpec {
    let mut spec = ContainerSpec::server(&format!("f{i}"), 16 + i, 7000);
    spec.threads_per_process = 2;
    spec.threads_in_syscall = 1;
    spec.mapped_files = 4;
    spec.heap_pages = 128;
    LaneSpec {
        spec,
        app: Box::new(FleetEcho { dirty, n: 0 }),
        behavior: Some(Box::new(CurveClients {
            n: clients,
            tag: 0x40 + (i % 64) as u8,
            issued: 0,
            got: 0,
            bad: 0,
        })),
    }
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
/// every lane (stop here is `stop_eff`: the dump plus its convoy wait).
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
    fleet.run_epochs(epochs).expect("run");
    let r = fleet.finish();

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
        mean_queue_wait_ns: mean(&r.queue_waits),
        mean_fair_wait_ns: mean(&r.fair_waits),
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
    let quick = std::env::args().any(|a| a == "quick");
    if std::env::args().any(|a| a == "scale") {
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

    if quick {
        println!("fleet quick PASS");
        return;
    }

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
