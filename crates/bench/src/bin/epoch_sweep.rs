//! Epoch-length sensitivity — why NiLiCon (like Remus) runs "tens of
//! milliseconds" epochs (§II-A): shorter epochs cut the output-buffering
//! latency but amortize the fixed per-checkpoint cost over less execution;
//! longer epochs invert the trade. The paper fixes 30 ms (§IV); this sweep
//! shows the latency/overhead frontier around that choice.
//!
//! `cargo run -p nilicon-bench --release --bin epoch_sweep [epochs]`

use nilicon::harness::{RunHarness, RunMode};
use nilicon::{NiLiConEngine, OptimizationConfig, ReplicationConfig};
use nilicon_bench::{fmt_ms, summarize, Table, WARMUP_EPOCHS};
use nilicon_sim::time::MILLISECOND;
use nilicon_sim::CostModel;
use nilicon_workloads::Scale;

fn main() {
    let virtual_secs: u64 = nilicon_bench::cli::positional_u64(1, 3);
    let scale = Scale::bench();

    // Stock throughput baseline (epoch length irrelevant unreplicated).
    let stock = {
        let w = nilicon_workloads::redis(scale, 8, None);
        let cfg = ReplicationConfig::default();
        let mut h = RunHarness::new(
            w.spec,
            w.app,
            w.behavior,
            RunMode::Unreplicated,
            cfg,
            w.parallelism,
        )
        .expect("harness");
        h.run_epochs(virtual_secs * 33).expect("run");
        let r = h.finish();
        r.verify.expect("valid");
        summarize("Redis", "stock", &r.metrics, cfg.epoch_exec, WARMUP_EPOCHS)
    };

    let mut t = Table::new(
        "Epoch-length sensitivity — Redis under NiLiCon (paper fixes 30 ms, §IV)",
        vec!["epoch", "overhead", "avg stop", "mean latency", "state/epoch"],
    );
    for epoch_ms in [10u64, 20, 30, 60, 120] {
        eprintln!("[epoch={epoch_ms}ms]...");
        let w = nilicon_workloads::redis(scale, 8, None);
        let cfg = ReplicationConfig {
            epoch_exec: epoch_ms * MILLISECOND,
            ..ReplicationConfig::default()
        };
        let engine = NiLiConEngine::new(OptimizationConfig::nilicon(), CostModel::default());
        let mut h = RunHarness::new(
            w.spec,
            w.app,
            w.behavior,
            RunMode::Replicated(Box::new(engine)),
            cfg,
            w.parallelism,
        )
        .expect("harness");
        // Same virtual-time budget for every epoch length.
        h.run_epochs(virtual_secs * 1_000 / epoch_ms).expect("run");
        let r = h.finish();
        r.verify.expect("valid");
        let label = format!("{epoch_ms}ms");
        let s = summarize("Redis", &label, &r.metrics, cfg.epoch_exec, WARMUP_EPOCHS);
        let overhead = s.overhead_vs(stock.throughput) * 100.0;
        t.push(
            format!("{epoch_ms}ms"),
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
