//! Epoch-length sensitivity — why NiLiCon (like Remus) runs "tens of
//! milliseconds" epochs (§II-A): shorter epochs cut the output-buffering
//! latency but amortize the fixed per-checkpoint cost over less execution;
//! longer epochs invert the trade. The paper fixes 30 ms (§IV); this sweep
//! shows the latency/overhead frontier around that choice.
//!
//! `cargo run -p nilicon-bench --release --bin epoch_sweep [SECONDS]`

use nilicon::harness::RunMode;
use nilicon::{OptimizationConfig, ReplicationConfig};
use nilicon_bench::{fmt_ms, summarize, Cli, Flags, Slot, Table, WARMUP_EPOCHS};
use nilicon_sim::time::MILLISECOND;
use nilicon_workloads::Scale;

fn main() {
    let cli = Cli::parse(&[Slot::Count("SECONDS", 3)], Flags::Runs);
    let virtual_secs = cli.counts[0];
    let scale = Scale::bench();

    // Stock throughput baseline (epoch length irrelevant unreplicated).
    let redis = || nilicon_workloads::redis(scale, 8);
    let stock = cli.run_server(redis(), RunMode::Unreplicated, virtual_secs * 33, "stock");

    let mut t = Table::new(
        "Epoch-length sensitivity — Redis under NiLiCon (paper fixes 30 ms, §IV)",
        vec!["epoch", "overhead", "avg stop", "mean latency", "state/epoch"],
    );
    for epoch_ms in [10u64, 20, 30, 60, 120] {
        eprintln!("[epoch={epoch_ms}ms]...");
        let cfg = ReplicationConfig {
            epoch_exec: epoch_ms * MILLISECOND,
            ..ReplicationConfig::default()
        };
        let label = format!("{epoch_ms}ms");
        // Same virtual-time budget for every epoch length.
        let epochs = virtual_secs * 1_000 / epoch_ms;
        let (w, mode) = (redis(), cli.nilicon_mode(OptimizationConfig::nilicon()));
        let batch = !w.app.is_server();
        let r = cli.run_workload(w, mode, cfg, &[], epochs, &label);
        r.verify.expect("valid");
        let s = summarize(batch, &r.metrics, cfg.epoch_exec, WARMUP_EPOCHS);
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
