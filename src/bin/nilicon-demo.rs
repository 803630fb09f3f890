//! `nilicon-demo` — drive any benchmark under any engine from the command
//! line.
//!
//! ```sh
//! cargo run --release --bin nilicon-demo -- --workload redis --epochs 60
//! cargo run --release --bin nilicon-demo -- --workload node --engine mc
//! cargo run --release --bin nilicon-demo -- --workload ssdb --fault-at-ms 500
//! cargo run --release --bin nilicon-demo -- --workload streamcluster --engine stock
//! cargo run --release --bin nilicon-demo -- --list
//! ```
//!
//! Every other argument goes to the bench binaries' one parse
//! (`nilicon_bench::Cli`, no positionals): the EXTENSION overlay (`--delta`,
//! `--cow`, `--rearm`, `--replay`, `--pipeline`, `--backups N`, `--quorum
//! K`, for the `nilicon` engine only) and `--trace FILE.jsonl`; an argument
//! neither knows fails the run before it starts. The run itself is the
//! bench runner's.

use nilicon_bench::{mc_mode, Cli, Flags};
use nilicon_repro::colo::ColoEngine;
use nilicon_repro::core::harness::RunMode;
use nilicon_repro::core::{OptimizationConfig, ReplicationConfig};
use nilicon_repro::sim::CostModel;
use nilicon_repro::workloads::{self, Scale, Workload};

const WORKLOADS: &[&str] = &[
    "redis",
    "ssdb",
    "node",
    "lighttpd",
    "djcms",
    "streamcluster",
    "swaptions",
    "net",
    "stress-fs",
];

struct Args {
    workload: String,
    engine: String,
    epochs: u64,
    clients: usize,
    fault_at_ms: Vec<u64>,
    scale: String,
}

/// The demo's own flags, and the shared parse of the rest.
fn parse_args() -> Result<(Args, Cli), String> {
    let mut args = Args {
        workload: "redis".into(),
        engine: "nilicon".into(),
        epochs: 60,
        clients: 4,
        fault_at_ms: Vec::new(),
        scale: "small".into(),
    };
    let mut rest = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" | "-w" => args.workload = value(&mut it, "--workload")?,
            "--engine" | "-e" => args.engine = value(&mut it, "--engine")?,
            "--epochs" | "-n" => args.epochs = value(&mut it, "--epochs")?,
            "--clients" | "-c" => args.clients = value(&mut it, "--clients")?,
            "--fault-at-ms" | "-f" => args.fault_at_ms.push(value(&mut it, "--fault-at-ms")?),
            "--scale" | "-s" => args.scale = value(&mut it, "--scale")?,
            "--list" => {
                println!("workloads: {}", WORKLOADS.join(", "));
                println!("engines  : nilicon, mc, colo, stock");
                println!("scales   : small, bench, paper");
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!(
                    "usage: nilicon-demo [--workload NAME] [--engine nilicon|mc|colo|stock] \
                     [--epochs N] [--clients N] [--fault-at-ms T]... \
                     [--scale small|bench|paper] [--list]\n\
                     \x20      [--delta] [--cow] [--rearm] [--replay] [--pipeline] \
                     [--backups N] [--quorum K] [--trace FILE.jsonl]\n\
                     short forms: -w -e -n -c -f -s -h (the table binaries' flags have none)"
                );
                std::process::exit(0);
            }
            _ => rest.push(flag),
        }
    }
    let cli = Cli::parse_from(&[], Flags::Runs, rest)?;
    if cli.overlaid() && args.engine != "nilicon" {
        return Err("the extension flags need --engine nilicon".into());
    }
    Ok((args, cli))
}

/// The value after `flag`, parsed.
fn value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let v = it
        .next()
        .ok_or_else(|| format!("missing value for {flag}"))?;
    v.parse().map_err(|e| format!("{flag}: {e}"))
}

fn build_workload(name: &str, scale: Scale, clients: usize) -> Result<Workload, String> {
    if matches!(name, "redis" | "ssdb") && clients > scale.kv_records {
        return Err(format!(
            "{clients} YCSB clients exceed the {} KV records: each client needs a slot of its own",
            scale.kv_records
        ));
    }
    Ok(match name {
        "redis" => workloads::redis(scale, clients),
        "ssdb" => workloads::ssdb(scale, clients),
        "node" => workloads::node(scale, clients.max(16)),
        "lighttpd" => workloads::lighttpd(4, clients.max(8)),
        "djcms" => workloads::djcms(clients.max(8)),
        "streamcluster" => workloads::streamcluster(scale, 4),
        "swaptions" => workloads::swaptions(scale, 4),
        "net" => workloads::net_echo(clients),
        "stress-fs" => workloads::stress_fs(256 * 1024),
        other => {
            return Err(format!(
                "unknown workload {other}; known: {}",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// The parsed arguments, with their workload and run mode.
fn setup((args, cli): (Args, Cli)) -> Result<(Args, Cli, Workload, RunMode), String> {
    let scale = match args.scale.as_str() {
        "small" => Scale::small(),
        "bench" => Scale::bench(),
        "paper" => Scale::paper(),
        other => return Err(format!("unknown scale {other}")),
    };
    let w = build_workload(&args.workload, scale, args.clients)?;
    let mode = match args.engine.as_str() {
        "nilicon" => cli.nilicon_mode(OptimizationConfig::nilicon()),
        "mc" => mc_mode(),
        "colo" => RunMode::Replicated(Box::new(ColoEngine::new(CostModel::default(), 0.05))),
        "stock" => RunMode::Unreplicated,
        other => return Err(format!("unknown engine {other} (nilicon|mc|colo|stock)")),
    };
    Ok((args, cli, w, mode))
}

fn main() {
    let (args, cli, w, mode) = parse_args().and_then(setup).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });

    println!(
        "running {} under {} for {} epochs (scale {}, {} clients)...",
        args.workload, args.engine, args.epochs, args.scale, args.clients
    );
    let name = w.name;
    for &ms in &args.fault_at_ms {
        println!("fail-stop fault scheduled at t={ms}ms");
    }
    let faults: Vec<u64> = args.fault_at_ms.iter().map(|ms| ms * 1_000_000).collect();
    let cfg = ReplicationConfig::default();
    let r = cli.run_workload(w, mode, cfg, &faults, args.epochs, &args.engine);

    println!("\n== {name} results ==");
    println!(
        "virtual time        : {:.2} s",
        r.metrics.elapsed as f64 / 1e9
    );
    println!(
        "requests / steps    : {} / {}",
        r.metrics.requests_total, r.metrics.steps_total
    );
    println!(
        "avg stop time       : {:.2} ms",
        r.metrics.avg_stop() as f64 / 1e6
    );
    println!("avg dirty pages     : {:.0}", r.metrics.avg_dirty_pages());
    println!(
        "mean latency        : {:.2} ms",
        r.metrics.mean_latency() as f64 / 1e6
    );
    println!(
        "backup core util    : {:.2}",
        r.metrics.backup_utilization()
    );
    if r.failovers > 0 {
        let fo = r.failover.expect("failover report");
        println!(
            "failover            : detected in {:.0} ms, recovered in {:.0} ms \
             (restore {:.0} + arp {:.0} + tcp {:.0} + misc {:.0})",
            r.detection_latency.unwrap_or(0) as f64 / 1e6,
            fo.total() as f64 / 1e6,
            fo.restore as f64 / 1e6,
            fo.arp as f64 / 1e6,
            fo.tcp as f64 / 1e6,
            fo.others as f64 / 1e6,
        );
        if r.failovers > 1 {
            println!(
                "failovers survived  : {} (re-replication kept the run fault-tolerant)",
                r.failovers
            );
        }
    }
    if r.unrecovered_faults > 0 {
        println!("unrecovered faults  : {}", r.unrecovered_faults);
    }
    println!("broken connections  : {}", r.broken_connections);
    match r.verify {
        Ok(()) => println!("consistency         : OK"),
        Err(e) => {
            println!("consistency         : FAILED — {e}");
            std::process::exit(1);
        }
    }
}
