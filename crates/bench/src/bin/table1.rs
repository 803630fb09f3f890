//! Table I — impact of NiLiCon's performance optimizations on streamcluster.
//!
//! Runs streamcluster (continuous mode) under each cumulative optimization
//! row and reports the performance overhead vs the unreplicated run.
//!
//! Note on the "Basic implementation" row: its dominant cost — the
//! linked-list incremental-image store — **grows with the number of
//! checkpoints** (that is exactly the §V-A defect), so its measured overhead
//! depends on run length. The paper's multi-minute native runs let the chain
//! reach thousands of entries (1940%); this binary runs `--epochs` epochs
//! (default 300) and reports the average over that window.

use nilicon::harness::RunMode;
use nilicon::OptimizationConfig;
use nilicon_bench::{nilicon_mode, run_server, Table};
use nilicon_workloads::{streamcluster, Scale};

fn main() {
    let epochs: u64 = nilicon_bench::cli::positional_u64(1, 300);
    let scale = Scale::bench();

    let paper = [1940.0, 619.0, 84.0, 65.0, 53.0, 37.0, 31.0];
    eprintln!("running stock baseline...");
    let stock = run_server(
        streamcluster(scale, 4),
        RunMode::Unreplicated,
        epochs,
        "stock",
    );

    let mut t = Table::new(
        format!("Table I — optimization impact, streamcluster ({epochs} epochs)"),
        vec!["Optimization", "paper", "measured", "avg stop"],
    );
    for (i, (label, opts)) in OptimizationConfig::table1_rows().into_iter().enumerate() {
        eprintln!("running: {label}...");
        let s = run_server(streamcluster(scale, 4), nilicon_mode(opts), epochs, label);
        let overhead = s.time_overhead_vs(stock.throughput) * 100.0;
        t.push(
            label,
            vec![
                format!("{:.0}%", paper[i]),
                format!("{overhead:.0}%"),
                nilicon_bench::fmt_ms(s.avg_stop),
            ],
        );
    }
    t.emit();
}
