//! Table VI — response latency with a single client, stock vs NiLiCon.
//!
//! A single closed-loop client per server benchmark; latency includes the
//! NiLiCon output-buffering delay (release at epoch commit) plus stop-phase
//! stretching of the service time — the §VII-C "Request Response Latency"
//! mechanism.

use nilicon::harness::RunMode;
use nilicon::OptimizationConfig;
use nilicon_bench::{fmt_ms, nilicon_mode, run_server, Table};
use nilicon_workloads::Scale;

/// Paper Table VI: (benchmark, stock ms, NiLiCon ms).
pub const PAPER_TABLE6: [(&str, f64, f64); 5] = [
    ("Redis", 3.1, 36.9),
    ("SSDB", 93.0, 143.0),
    ("Node", 2.4, 39.4),
    ("Lighttpd", 285.0, 542.0),
    ("DJCMS", 89.0, 245.0),
];

fn single_client_workloads(
    scale: Scale,
) -> Vec<(&'static str, nilicon_bench::comparison::WorkloadBuilder)> {
    vec![
        (
            "Redis",
            Box::new(move || nilicon_workloads::redis(scale, 1)),
        ),
        ("SSDB", Box::new(move || nilicon_workloads::ssdb(scale, 1))),
        ("Node", Box::new(move || nilicon_workloads::node(scale, 1))),
        ("Lighttpd", Box::new(|| nilicon_workloads::lighttpd(4, 1))),
        ("DJCMS", Box::new(|| nilicon_workloads::djcms(1))),
    ]
}

fn main() {
    let epochs: u64 = nilicon_bench::cli::positional_u64(1, 400);
    let scale = Scale::bench();

    let mut t = Table::new(
        format!("Table VI — single-client response latency ({epochs} epochs)"),
        vec![
            "benchmark",
            "stock (paper)",
            "stock",
            "NiLiCon (paper)",
            "NiLiCon",
        ],
    );
    for (name, build) in single_client_workloads(scale) {
        eprintln!("[{name}] stock...");
        let stock = run_server(build(), RunMode::Unreplicated, epochs, "stock");
        eprintln!("[{name}] NiLiCon...");
        let repl = run_server(
            build(),
            nilicon_mode(OptimizationConfig::nilicon()),
            epochs,
            "NiLiCon",
        );
        let p = PAPER_TABLE6
            .iter()
            .find(|(n, ..)| *n == name)
            .expect("known");
        t.push(
            name,
            vec![
                format!("{:.1}ms", p.1),
                fmt_ms(stock.mean_latency),
                format!("{:.1}ms", p.2),
                fmt_ms(repl.mean_latency),
            ],
        );
    }
    t.emit();
}
