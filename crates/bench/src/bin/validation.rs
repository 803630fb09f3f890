//! §VII-A validation campaign: fault injection with recovery-rate and
//! consistency checking.
//!
//! For each benchmark (the seven §VI benchmarks plus the two §VII-A
//! microbenchmarks), runs `RUNS` executions (paper: 50). Each run lasts at
//! least 60 virtual seconds' worth of epochs scaled down to `EPOCHS`, with
//! a fail-stop fault injected at a uniformly random time inside the middle
//! 80% of the run. A run passes if the failover succeeds, no client
//! connection is broken by an RST, and the workload's own validator reports
//! no inconsistency (value mismatches, lost updates, corrupted echoes).

use nilicon::{OptimizationConfig, ReplicationConfig};
use nilicon_bench::{Cli, Flags, Slot, Table};
use nilicon_workloads::Scale;

fn builders(scale: Scale) -> Vec<(&'static str, nilicon_bench::comparison::WorkloadBuilder)> {
    vec![
        (
            "Redis",
            Box::new(move || nilicon_workloads::redis(scale, 4)),
        ),
        ("SSDB", Box::new(move || nilicon_workloads::ssdb(scale, 4))),
        ("Node", Box::new(move || nilicon_workloads::node(scale, 16))),
        ("Lighttpd", Box::new(|| nilicon_workloads::lighttpd(4, 8))),
        ("DJCMS", Box::new(|| nilicon_workloads::djcms(8))),
        (
            "Swaptions",
            Box::new(move || nilicon_workloads::swaptions(scale, 4)),
        ),
        (
            "Streamcluster",
            Box::new(move || nilicon_workloads::streamcluster(scale, 4)),
        ),
        (
            "StressFs (micro)",
            Box::new(|| nilicon_workloads::stress_fs(128 * 1024)),
        ),
        (
            "StackEcho (micro)",
            Box::new(|| nilicon_workloads::stack_echo(4, 16_000)),
        ),
    ]
}

fn main() {
    let cli = Cli::parse(
        &[Slot::Count("RUNS", 10), Slot::Count("EPOCHS", 40)],
        Flags::Runs,
    );
    let (runs, epochs) = (cli.counts[0], cli.counts[1]);
    // Small scale keeps 50-run campaigns tractable; consistency checking is
    // scale-independent.
    let scale = Scale::small();

    let mut t = Table::new(
        format!("§VII-A validation — {runs} fault injections per benchmark"),
        vec![
            "benchmark",
            "recovered",
            "broken conns",
            "consistency",
            "verdict",
        ],
    );
    let mut all_ok = true;
    let mut rng: u64 = 0x0123_4567_89AB_CDEF;
    let cfg = ReplicationConfig::default();
    let span = epochs * cfg.epoch_exec;

    for (name, build) in builders(scale) {
        eprintln!("[{name}] {runs} fault injections...");
        let mut recovered = 0u64;
        let mut broken = 0u64;
        let mut inconsistent = 0u64;
        for _ in 0..runs {
            // Fault at a uniform-random time in the middle 80% of the run.
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let fault_at = span / 10 + (rng >> 16) % (span * 8 / 10);
            let mode = cli.nilicon_mode(OptimizationConfig::nilicon());
            let r = cli.run_workload(build(), mode, cfg, &[fault_at], epochs, "NiLiCon");
            if r.recovered {
                recovered += 1;
            }
            broken += r.broken_connections;
            if r.verify.is_err() {
                inconsistent += 1;
            }
        }
        let ok = recovered == runs && broken == 0 && inconsistent == 0;
        all_ok &= ok;
        t.push(
            name,
            vec![
                format!("{recovered}/{runs}"),
                format!("{broken}"),
                if inconsistent == 0 {
                    "OK".into()
                } else {
                    format!("{inconsistent} FAILED")
                },
                if ok { "PASS".into() } else { "FAIL".into() },
            ],
        );
    }
    t.emit();
    println!(
        "Recovery rate: {} (paper §VII-A: 100% over 50 runs/benchmark, no broken connections)",
        if all_ok {
            "100% — PASS"
        } else {
            "FAILURES PRESENT"
        }
    );
    if !all_ok {
        std::process::exit(1);
    }
}
