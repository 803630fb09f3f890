//! §VII-C scalability: overhead vs thread count (streamcluster), client
//! count (Lighttpd, 4 processes), and process count (Lighttpd).
//!
//! Paper anchors: streamcluster 1→32 threads: 23%→52%; Lighttpd 2→128
//! clients: ~34%→45%; Lighttpd 1→8 processes: 23%→63%.

use nilicon::harness::RunMode;
use nilicon::OptimizationConfig;
use nilicon_bench::{fmt_ms, Cli, Flags, PerfSummary, Slot, Table};
use nilicon_workloads::{streamcluster, Scale, Workload};
use std::collections::HashMap;

/// A workload configuration: (workload, procs/threads, clients).
type Config = (&'static str, usize, usize);

/// One §VII-C sweep: the paper's overhead anchors along its axis, and the
/// workload configuration at each point.
struct Sweep {
    /// The axis, as the command line and the table's first column name it.
    axis: &'static str,
    title: &'static str,
    /// (point, paper overhead %) pairs.
    paper: &'static [(usize, f64)],
    /// Points whose paper value is interpolated from the figure.
    interpolated: &'static [usize],
    config: fn(usize) -> Config,
}

const SWEEPS: [Sweep; 3] = [
    Sweep {
        axis: "threads",
        title: "§VII-C — streamcluster overhead vs thread count (paper: 23% @1 → 52% @32)",
        paper: &[(1, 23.0), (4, 31.8), (8, 36.0), (16, 43.0), (32, 52.0)],
        interpolated: &[4, 8, 16],
        config: |threads| ("streamcluster", threads, 0),
    },
    Sweep {
        axis: "clients",
        title:
            "§VII-C — Lighttpd (4 processes) overhead vs client count (paper: ~34% ≤32 → 45% @128)",
        paper: &[(2, 34.0), (8, 34.0), (32, 34.0), (128, 45.0)],
        interpolated: &[],
        config: |clients| ("lighttpd", 4, clients),
    },
    Sweep {
        axis: "processes",
        title: "§VII-C — Lighttpd overhead vs process count (paper: 23% @1 → 63% @8)",
        paper: &[(1, 23.0), (2, 33.0), (4, 45.0), (8, 63.0)],
        interpolated: &[2, 4],
        // Clients scale with processes, as in the paper (2 → 8 clients
        // needed to saturate 1 → 8 processes; we use 8× headroom).
        config: |procs| ("lighttpd", procs, 8 * procs),
    },
];

/// A fresh workload of configuration `config`.
fn workload(scale: Scale, (name, procs, clients): Config) -> Workload {
    match name {
        "streamcluster" => streamcluster(scale, procs),
        _ => nilicon_workloads::lighttpd(procs, clients),
    }
}

/// Stock (unreplicated) baselines, keyed by configuration. Identical
/// configurations appear in more than one sweep — e.g. Lighttpd (4 procs,
/// 32 clients) sits in both the client and the process sweeps — so each
/// stock baseline runs exactly once per invocation.
struct StockCache(HashMap<Config, PerfSummary>);

impl StockCache {
    fn get_or_run(&mut self, cli: &Cli, scale: Scale, key: Config, epochs: u64) -> PerfSummary {
        if let Some(s) = self.0.get(&key) {
            eprintln!("  [stock {key:?}] cached");
            return s.clone();
        }
        let s = cli.run_server(workload(scale, key), RunMode::Unreplicated, epochs, "stock");
        self.0.insert(key, s.clone());
        s
    }
}

fn main() {
    let cli = Cli::parse(
        &[
            Slot::Word(&["threads", "clients", "processes", "all"]),
            Slot::Count("EPOCHS", 60),
        ],
        Flags::Runs,
    );
    let which = cli.words[0].as_deref().unwrap_or("all");
    let epochs = cli.counts[0];
    let scale = Scale::bench();
    let mut stock_cache = StockCache(HashMap::new());

    for sweep in SWEEPS.iter().filter(|s| which == "all" || which == s.axis) {
        let mut t = Table::new(
            sweep.title,
            vec![sweep.axis, "paper", "measured", "avg stop"],
        );
        for &(x, p) in sweep.paper {
            eprintln!("[{}={x}] stock + NiLiCon...", sweep.axis);
            let config = (sweep.config)(x);
            let stock = stock_cache.get_or_run(&cli, scale, config, epochs);
            let repl = cli.run_server(
                workload(scale, config),
                cli.nilicon_mode(OptimizationConfig::nilicon()),
                epochs,
                "NiLiCon",
            );
            let overhead = repl.overhead_vs(stock.throughput) * 100.0;
            let interp = sweep.interpolated.contains(&x).then_some(" (interp.)");
            t.push(
                format!("{x}"),
                vec![
                    format!("{p:.0}%{}", interp.unwrap_or_default()),
                    format!("{overhead:.0}%"),
                    fmt_ms(repl.avg_stop),
                ],
            );
        }
        t.emit();
    }
}
