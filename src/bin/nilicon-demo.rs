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

use nilicon_repro::core::harness::{RunHarness, RunMode};
use nilicon_repro::core::{NiLiConEngine, OptimizationConfig, ReplicationConfig};
use nilicon_repro::mc::McEngine;
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
    rearm: bool,
    scale: String,
    trace: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "redis".into(),
        engine: "nilicon".into(),
        epochs: 60,
        clients: 4,
        fault_at_ms: Vec::new(),
        rearm: false,
        scale: "small".into(),
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--workload" | "-w" => args.workload = val("--workload")?,
            "--engine" | "-e" => args.engine = val("--engine")?,
            "--epochs" | "-n" => {
                args.epochs = val("--epochs")?
                    .parse()
                    .map_err(|e| format!("--epochs: {e}"))?
            }
            "--clients" | "-c" => {
                args.clients = val("--clients")?
                    .parse()
                    .map_err(|e| format!("--clients: {e}"))?
            }
            "--fault-at-ms" | "-f" => args.fault_at_ms.push(
                val("--fault-at-ms")?
                    .parse()
                    .map_err(|e| format!("--fault-at-ms: {e}"))?,
            ),
            "--rearm" => args.rearm = true,
            "--scale" | "-s" => args.scale = val("--scale")?,
            "--trace" | "-t" => args.trace = Some(val("--trace")?),
            "--list" => {
                println!("workloads: {}", WORKLOADS.join(", "));
                println!("engines  : nilicon, mc, colo, stock");
                println!("scales   : small, bench, paper");
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!(
                    "usage: nilicon-demo [--workload NAME] [--engine nilicon|mc|colo|stock] \
                     [--epochs N] [--clients N] [--fault-at-ms T]... [--rearm] \
                     [--scale small|bench|paper] [--trace FILE.jsonl] [--list]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(args)
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

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let scale = match args.scale.as_str() {
        "small" => Scale::small(),
        "bench" => Scale::bench(),
        "paper" => Scale::paper(),
        other => {
            eprintln!("error: unknown scale {other}");
            std::process::exit(2);
        }
    };
    let w = match build_workload(&args.workload, scale, args.clients) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mode = match args.engine.as_str() {
        "nilicon" => {
            let mut opts = OptimizationConfig::nilicon();
            opts.rearm = args.rearm;
            RunMode::Replicated(Box::new(NiLiConEngine::new(opts, CostModel::default())))
        }
        "mc" => RunMode::Replicated(Box::new(McEngine::new(CostModel::default()))),
        "colo" => RunMode::Replicated(Box::new(nilicon_repro::colo::ColoEngine::new(
            CostModel::default(),
            0.05,
        ))),
        "stock" => RunMode::Unreplicated,
        other => {
            eprintln!("error: unknown engine {other} (nilicon|mc|colo|stock)");
            std::process::exit(2);
        }
    };

    println!(
        "running {} under {} for {} epochs (scale {}, {} clients)...",
        args.workload, args.engine, args.epochs, args.scale, args.clients
    );
    let name = w.name;
    let mut h = RunHarness::new(
        w.spec,
        w.app,
        w.behavior,
        mode,
        ReplicationConfig::default(),
        w.parallelism,
    )
    .expect("harness construction");
    if let Some(path) = &args.trace {
        let tracer =
            nilicon_repro::core::trace::Tracer::to_file(path).expect("create trace file");
        tracer.event_at(
            nilicon_repro::core::trace::TraceEvent::RunStart {
                name: name.to_string(),
                mode: args.engine.clone(),
            },
            0,
        );
        h.set_tracer(tracer);
        println!("tracing epoch phases to {path} (see OBSERVABILITY.md)");
    }
    for &ms in &args.fault_at_ms {
        h.inject_fault_at(ms * 1_000_000);
        println!("fail-stop fault scheduled at t={ms}ms");
    }
    h.run_epochs(args.epochs).expect("run");
    let failed_over = h.on_backup();
    let r = h.finish();

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
    if failed_over {
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
