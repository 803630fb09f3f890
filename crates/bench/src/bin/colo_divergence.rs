//! COLO divergence sweep — the §VIII trade-off the paper argues from:
//! active replication beats passive replication on *deterministic* workloads
//! (tiny output delay, no stop time) but becomes prohibitive as output
//! divergence rises, while burning >100% backup CPU at every point.
//!
//! `cargo run -p nilicon-bench --release --bin colo_divergence [epochs]`

use nilicon::harness::RunMode;
use nilicon::OptimizationConfig;
use nilicon_bench::{fmt_ms, nilicon_mode, run_server, Table};
use nilicon_colo::ColoEngine;
use nilicon_sim::CostModel;
use nilicon_workloads::Scale;

fn main() {
    let epochs: u64 = nilicon_bench::cli::positional_u64(1, 60);
    let scale = Scale::bench();
    let redis = || nilicon_workloads::redis(scale, 8);

    eprintln!("[stock]...");
    let stock = run_server(redis(), RunMode::Unreplicated, epochs, "stock");
    eprintln!("[NiLiCon]...");
    let nilicon = run_server(
        redis(),
        nilicon_mode(OptimizationConfig::nilicon()),
        epochs,
        "NiLiCon",
    );

    let mut t = Table::new(
        format!("COLO divergence sweep — Redis, {epochs} epochs (§VIII trade-off)"),
        vec![
            "configuration",
            "overhead",
            "avg stop/sync",
            "mean latency",
            "backup cores",
        ],
    );
    t.push(
        "NiLiCon (passive)",
        vec![
            format!("{:.1}%", nilicon.overhead_vs(stock.throughput) * 100.0),
            fmt_ms(nilicon.avg_stop),
            fmt_ms(nilicon.mean_latency),
            format!("{:.2}", nilicon.backup_util),
        ],
    );
    for divergence in [0.0, 0.05, 0.25, 0.5, 1.0] {
        eprintln!("[COLO d={divergence}]...");
        let mode = RunMode::Replicated(Box::new(ColoEngine::new(CostModel::default(), divergence)));
        let s = run_server(redis(), mode, epochs, "COLO");
        t.push(
            format!("COLO, divergence {:.0}%", divergence * 100.0),
            vec![
                format!("{:.1}%", s.overhead_vs(stock.throughput) * 100.0),
                fmt_ms(s.avg_stop),
                fmt_ms(s.mean_latency),
                format!("{:.2}", s.backup_util),
            ],
        );
    }
    t.emit();
    println!(
        "Paper §VIII: COLO's output delay is 'far less than the buffering delay with\n\
         Remus and NiLiCon' when outputs match, but 'for largely non-deterministic\n\
         workloads, mismatches are frequent, resulting in prohibitive overhead', and\n\
         active replication costs >100% backup resources at every divergence level."
    );
}
