//! Quickstart: replicate a Redis-like container with NiLiCon and watch the
//! epoch loop work.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nilicon_repro::core::harness::{RunHarness, RunMode};
use nilicon_repro::core::{NiLiConEngine, OptimizationConfig, ReplicationConfig};
use nilicon_repro::sim::CostModel;
use nilicon_repro::workloads::{self, Scale};

fn main() {
    // 1. Pick a workload: a Redis-like store with 4 YCSB-style clients.
    let workload = workloads::redis(Scale::small(), 4);

    // 2. Wrap it in the replication harness: three simulated hosts (primary,
    //    backup, client), the container on the primary, NiLiCon with every
    //    §V optimization enabled.
    let engine = NiLiConEngine::new(OptimizationConfig::nilicon(), CostModel::default());
    let mut harness = RunHarness::new(
        workload.spec,
        workload.app,
        workload.behavior,
        RunMode::Replicated(Box::new(engine)),
        ReplicationConfig::default(), // 30 ms epochs, 30 ms heartbeats, 3 misses
        workload.parallelism,
    )
    .expect("harness construction");

    // 3. Run 50 epochs (~1.5 virtual seconds).
    harness.run_epochs(50).expect("replication run");

    // 4. Inspect the result.
    let result = harness.finish();
    result.verify.expect("client-side consistency validation");
    assert_eq!(result.broken_connections, 0);

    let m = &result.metrics;
    println!("NiLiCon quickstart — Redis-like workload, 50 epochs");
    println!("  virtual time elapsed : {:.2} s", m.elapsed as f64 / 1e9);
    println!("  requests served      : {}", m.requests_total);
    println!("  throughput           : {:.0} req/s", m.throughput_rps());
    println!(
        "  avg stop time        : {:.2} ms (paper Redis: 18.9 ms)",
        m.avg_stop() as f64 / 1e6
    );
    println!(
        "  avg dirty pages/epoch: {:.0} (paper Redis: 6.3K)",
        m.avg_dirty_pages()
    );
    println!(
        "  mean response latency: {:.1} ms",
        m.mean_latency() as f64 / 1e6
    );
    println!(
        "  backup core util     : {:.2} cores",
        m.backup_utilization()
    );
    println!(
        "  state p50 per epoch  : {:.1} MiB",
        m.state_percentile(50.0) as f64 / 1048576.0
    );
    println!("\nEvery response the clients saw was covered by a committed checkpoint.");
}
