//! Epoch-length sensitivity — why NiLiCon (like Remus) runs "tens of
//! milliseconds" epochs (§II-A): shorter epochs cut the output-buffering
//! latency but amortize the fixed per-checkpoint cost over less execution;
//! longer epochs invert the trade. The paper fixes 30 ms (§IV); this sweep
//! shows the latency/overhead frontier around that choice.
//!
//! `cargo run -p nilicon-bench --release --bin epoch_sweep [epochs]`

use nilicon::harness::RunMode;
use nilicon::{OptimizationConfig, ReplicationConfig};
use nilicon_bench::{
    fmt_ms, nilicon_mode, run_server, run_workload, summarize, Table, WARMUP_EPOCHS,
};
use nilicon_sim::time::MILLISECOND;
use nilicon_workloads::Scale;

fn main() {
    let virtual_secs: u64 = nilicon_bench::cli::positional_u64(1, 3);
    let scale = Scale::bench();
    // Every sweep mode before the first run: a flag the overlay refuses
    // ends the sweep before the stock baseline is spent.
    let sweep =
        [10u64, 20, 30, 60, 120].map(|ms| (ms, nilicon_mode(OptimizationConfig::nilicon())));

    // Stock throughput baseline (epoch length irrelevant unreplicated).
    let redis = || nilicon_workloads::redis(scale, 8);
    let stock = run_server(redis(), RunMode::Unreplicated, virtual_secs * 33, "stock");

    let mut t = Table::new(
        "Epoch-length sensitivity — Redis under NiLiCon (paper fixes 30 ms, §IV)",
        vec!["epoch", "overhead", "avg stop", "mean latency", "state/epoch"],
    );
    for (epoch_ms, mode) in sweep {
        eprintln!("[epoch={epoch_ms}ms]...");
        let cfg = ReplicationConfig {
            epoch_exec: epoch_ms * MILLISECOND,
            ..ReplicationConfig::default()
        };
        let label = format!("{epoch_ms}ms");
        // Same virtual-time budget for every epoch length.
        let epochs = virtual_secs * 1_000 / epoch_ms;
        let r = run_workload(redis(), mode, cfg, &[], epochs, &label);
        r.verify.expect("valid");
        let s = summarize("Redis", &label, &r.metrics, cfg.epoch_exec, WARMUP_EPOCHS);
        let overhead = s.overhead_vs(stock.throughput) * 100.0;
        t.push(
            label,
            vec![
                format!("{overhead:.1}%"),
                fmt_ms(s.avg_stop),
                fmt_ms(s.mean_latency),
                nilicon_bench::fmt_mib(s.state_p[1]),
            ],
        );
    }
    t.emit();
    println!(
        "Short epochs: lower response latency (less buffering) but the fixed\n\
         per-checkpoint work eats a larger execution fraction. Long epochs invert\n\
         the trade — and grow the per-epoch state burst. 30 ms sits at the knee."
    );
}
