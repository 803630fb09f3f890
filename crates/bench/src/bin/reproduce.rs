//! Reproduce every table and figure in sequence (the EXPERIMENTS.md driver).
//!
//! `cargo run -p nilicon-bench --release --bin reproduce [-- [quick] [--trace PREFIX]]`
//!
//! `quick` trims run lengths (useful for CI smoke); the default settings are
//! the ones EXPERIMENTS.md records. With `--trace PREFIX`, each of the eight
//! children that run epochs (all but `anchors`) records its epoch-phase
//! trace to `PREFIX.<bin>.jsonl`, one file per binary, every run in it
//! behind the bench runner's `RunStart` marker (see OBSERVABILITY.md), ready
//! for `trace-report`.

use nilicon_bench::{Cli, Flags, Slot};
use std::process::Command;

fn run(bin: &str, args: &[&str], trace_prefix: Option<&str>) {
    let mut args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    if let Some(prefix) = trace_prefix {
        args.push("--trace".into());
        args.push(format!("{prefix}.{bin}.jsonl"));
    }
    eprintln!("\n##### {bin} {} #####", args.join(" "));
    let status = Command::new(std::env::current_exe().unwrap().parent().unwrap().join(bin))
        .args(&args)
        .status()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(status.success(), "{bin} failed");
}

fn main() {
    let cli = Cli::parse(&[Slot::Word(&["quick"])], Flags::TracePrefix);
    let (t1, cmp, t6, val_runs, val_epochs, scal) = if cli.words[0].is_some() {
        ("60", "30", "120", "3", "30", "30")
    } else {
        ("300", "120", "400", "50", "40", "60")
    };
    let tp = cli.trace.as_deref();

    run("anchors", &[], None); // no epoch runs to trace
    run("table1", &[t1], tp);
    run("table2", &[], tp);
    // Fig. 3 + Tables III/IV/V derive from one set of comparison runs.
    run("comparison_report", &[cmp], tp);
    run("table6", &[t6], tp);
    run("validation", &[val_runs, val_epochs], tp);
    run("scalability", &["all", scal], tp);
    // Extensions: the §VIII active-replication trade-off and the epoch knee.
    run("colo_divergence", &[scal], tp);
    run("epoch_sweep", &["2"], tp);
    eprintln!("\nAll experiments completed.");
}
