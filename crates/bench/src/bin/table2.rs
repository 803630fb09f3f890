//! Table II — recovery latency breakdown (Net and Redis).
//!
//! Net: a 10-byte echo server (minimal state). Redis: ~100 MB of preloaded
//! data (paper scale), one stressing client plus latency-probe clients. A
//! fail-stop fault is injected mid-run; the breakdown comes from the
//! failover report (restore / ARP / TCP / others), excluding the ~90 ms
//! detection latency, exactly as the paper reports it.

use nilicon::{FailoverReport, OptimizationConfig, ReplicationConfig};
use nilicon_bench::{fmt_ms, Cli, Flags, Table};
use nilicon_sim::time::MILLISECOND;
use nilicon_workloads::{Scale, Workload};

/// Paper Table II rows: (name, restore, arp, tcp, others, total) in ms.
pub const PAPER_TABLE2: [(&str, f64, f64, f64, f64, f64); 2] = [
    ("Net", 218.0, 28.0, 54.0, 7.0, 307.0),
    ("Redis", 314.0, 28.0, 23.0, 7.0, 372.0),
];

fn run_failover(cli: &Cli, w: Workload) -> (FailoverReport, u64) {
    let mode = cli.nilicon_mode(OptimizationConfig::nilicon());
    let cfg = ReplicationConfig::default();
    let r = cli.run_workload(w, mode, cfg, &[900 * MILLISECOND], 60, "NiLiCon");
    r.verify.expect("consistent across failover");
    assert_eq!(r.broken_connections, 0, "no broken connections (§VII-A)");
    (
        r.failover.expect("failover happened"),
        r.detection_latency.unwrap() / MILLISECOND,
    )
}

fn main() {
    let cli = Cli::parse(&[], Flags::Runs);
    let mut t = Table::new(
        "Table II — recovery latency breakdown (paper / measured)",
        vec![
            "bench", "Restore", "ARP", "TCP", "Others", "Total", "detect",
        ],
    );

    eprintln!("[Net] failover...");
    let (net, net_det) = run_failover(&cli, nilicon_workloads::net_echo(5));

    eprintln!("[Redis] failover (paper-scale 100MB dataset)...");
    let (redis, redis_det) = run_failover(&cli, nilicon_workloads::redis(Scale::paper(), 5));

    for (paper, measured, det) in [
        (&PAPER_TABLE2[0], &net, net_det),
        (&PAPER_TABLE2[1], &redis, redis_det),
    ] {
        t.push(
            paper.0,
            vec![
                format!("{:.0} / {}", paper.1, fmt_ms(measured.restore)),
                format!("{:.0} / {}", paper.2, fmt_ms(measured.arp)),
                format!("{:.0} / {}", paper.3, fmt_ms(measured.tcp)),
                format!("{:.0} / {}", paper.4, fmt_ms(measured.others)),
                format!("{:.0} / {}", paper.5, fmt_ms(measured.total())),
                format!("{det}ms"),
            ],
        );
    }
    t.emit();
}
