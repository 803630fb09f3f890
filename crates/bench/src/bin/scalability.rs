//! §VII-C scalability: overhead vs thread count (streamcluster), client
//! count (Lighttpd, 4 processes), and process count (Lighttpd).
//!
//! Paper anchors: streamcluster 1→32 threads: 23%→52%; Lighttpd 2→128
//! clients: ~34%→45%; Lighttpd 1→8 processes: 23%→63%.

use nilicon::harness::RunMode;
use nilicon::OptimizationConfig;
use nilicon_bench::{fmt_ms, nilicon_mode, run_server, PerfSummary, Table};
use nilicon_workloads::{streamcluster, Scale, Workload};
use std::collections::HashMap;

/// Stock (unreplicated) baselines, keyed by (workload, procs/threads,
/// clients). Identical workload configs appear in more than one table —
/// e.g. Lighttpd (4 procs, 32 clients) sits in both the client and the
/// process sweeps — so each stock baseline runs exactly once per invocation.
struct StockCache {
    runs: HashMap<(&'static str, usize, usize), PerfSummary>,
}

impl StockCache {
    fn new() -> Self {
        StockCache { runs: HashMap::new() }
    }

    fn get_or_run(
        &mut self,
        key: (&'static str, usize, usize),
        epochs: u64,
        make: impl FnOnce() -> Workload,
    ) -> PerfSummary {
        if let Some(s) = self.runs.get(&key) {
            eprintln!("  [stock {key:?}] cached");
            return s.clone();
        }
        let s = run_server(make(), RunMode::Unreplicated, epochs, "stock");
        self.runs.insert(key, s.clone());
        s
    }
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let epochs: u64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(60);
    let scale = Scale::bench();
    let mut stock_cache = StockCache::new();

    if which == "threads" || which == "all" {
        let paper = [(1usize, 23.0), (4, 31.8), (8, 36.0), (16, 43.0), (32, 52.0)];
        let mut t = Table::new(
            "§VII-C — streamcluster overhead vs thread count (paper: 23% @1 → 52% @32)",
            vec!["threads", "paper", "measured", "avg stop"],
        );
        for (threads, p) in paper {
            eprintln!("[threads={threads}] stock + NiLiCon...");
            let stock = stock_cache.get_or_run(("streamcluster", threads, 0), epochs, || {
                streamcluster(scale, threads)
            });
            let repl = run_server(
                streamcluster(scale, threads),
                nilicon_mode(OptimizationConfig::nilicon()),
                epochs,
                "NiLiCon",
            );
            let overhead = repl.time_overhead_vs(stock.throughput) * 100.0;
            t.push(
                format!("{threads}"),
                vec![
                    format!(
                        "{p:.0}%{}",
                        if threads == 4 || threads == 8 || threads == 16 {
                            " (interp.)"
                        } else {
                            ""
                        }
                    ),
                    format!("{overhead:.0}%"),
                    fmt_ms(repl.avg_stop),
                ],
            );
        }
        t.emit();
    }

    if which == "clients" || which == "all" {
        let paper = [(2usize, 34.0), (8, 34.0), (32, 34.0), (128, 45.0)];
        let mut t = Table::new(
            "§VII-C — Lighttpd (4 processes) overhead vs client count (paper: ~34% ≤32 → 45% @128)",
            vec!["clients", "paper", "measured", "avg stop"],
        );
        for (clients, p) in paper {
            eprintln!("[clients={clients}] stock + NiLiCon...");
            let stock = stock_cache.get_or_run(("lighttpd", 4, clients), epochs, || {
                nilicon_workloads::lighttpd(4, clients)
            });
            let repl = run_server(
                nilicon_workloads::lighttpd(4, clients),
                nilicon_mode(OptimizationConfig::nilicon()),
                epochs,
                "NiLiCon",
            );
            let overhead = repl.overhead_vs(stock.throughput) * 100.0;
            t.push(
                format!("{clients}"),
                vec![
                    format!("{p:.0}%"),
                    format!("{overhead:.0}%"),
                    fmt_ms(repl.avg_stop),
                ],
            );
        }
        t.emit();
    }

    if which == "processes" || which == "all" {
        let paper = [(1usize, 23.0), (2, 33.0), (4, 45.0), (8, 63.0)];
        let mut t = Table::new(
            "§VII-C — Lighttpd overhead vs process count (paper: 23% @1 → 63% @8)",
            vec!["processes", "paper", "measured", "avg stop"],
        );
        for (procs, p) in paper {
            // Clients scale with processes, as in the paper (2 → 8 clients
            // needed to saturate 1 → 8 processes; we use 8× headroom).
            let clients = 8 * procs;
            eprintln!("[processes={procs}] stock + NiLiCon...");
            let stock = stock_cache.get_or_run(("lighttpd", procs, clients), epochs, || {
                nilicon_workloads::lighttpd(procs, clients)
            });
            let repl = run_server(
                nilicon_workloads::lighttpd(procs, clients),
                nilicon_mode(OptimizationConfig::nilicon()),
                epochs,
                "NiLiCon",
            );
            let overhead = repl.overhead_vs(stock.throughput) * 100.0;
            t.push(
                format!("{procs}"),
                vec![
                    format!(
                        "{p:.0}%{}",
                        if procs == 2 || procs == 4 {
                            " (interp.)"
                        } else {
                            ""
                        }
                    ),
                    format!("{overhead:.0}%"),
                    fmt_ms(repl.avg_stop),
                ],
            );
        }
        t.emit();
    }
}
