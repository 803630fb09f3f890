//! The binaries' one command line, end to end: every bench binary refuses a
//! flag it does not honour before anything runs, a positional is honoured
//! wherever it stands, and `--trace` reaches the runs of the binaries whose
//! runs go through the bench runner.

use nilicon::trace::{TraceEvent, TraceRecord};
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn")
}

/// All sixteen bench binaries.
const BINS: [&str; 16] = [
    env!("CARGO_BIN_EXE_anchors"),
    env!("CARGO_BIN_EXE_chaos"),
    env!("CARGO_BIN_EXE_colo_divergence"),
    env!("CARGO_BIN_EXE_comparison_report"),
    env!("CARGO_BIN_EXE_epoch_sweep"),
    env!("CARGO_BIN_EXE_fleet_bench"),
    env!("CARGO_BIN_EXE_pipeline_bench"),
    env!("CARGO_BIN_EXE_placement"),
    env!("CARGO_BIN_EXE_replay_latency"),
    env!("CARGO_BIN_EXE_reproduce"),
    env!("CARGO_BIN_EXE_scalability"),
    env!("CARGO_BIN_EXE_table1"),
    env!("CARGO_BIN_EXE_table2"),
    env!("CARGO_BIN_EXE_table6"),
    env!("CARGO_BIN_EXE_trace-report"),
    env!("CARGO_BIN_EXE_validation"),
];

/// A refusal before the first run: a non-zero exit, nothing on stdout, and
/// on stderr only the reason, containing `needle` (no progress line).
fn assert_refused(bin: &str, args: &[&str], needle: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{bin} {args:?} ran");
    assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} printed on stdout");
    assert!(
        stderr.lines().all(|l| l.starts_with("error: ")),
        "{bin} {args:?} started: {stderr}"
    );
}

#[test]
fn a_misspelt_flag_fails_the_run() {
    for bin in BINS {
        assert_refused(bin, &["--dleta"], "unknown flag --dleta");
    }
    // Wherever the flag stands, and also after good positionals.
    let validation = env!("CARGO_BIN_EXE_validation");
    assert_refused(validation, &["1", "1", "--dleta"], "unknown flag --dleta");
    assert_refused(
        env!("CARGO_BIN_EXE_table1"),
        &["300", "--dleta"],
        "unknown flag --dleta",
    );
}

#[test]
fn an_unknown_sweep_or_a_bad_positional_is_refused() {
    let scalability = env!("CARGO_BIN_EXE_scalability");
    assert_refused(scalability, &["thread"], "unknown argument thread");
    assert_refused(
        env!("CARGO_BIN_EXE_table1"),
        &["40", "50"],
        "unexpected argument 50",
    );
    assert_refused(
        env!("CARGO_BIN_EXE_table6"),
        &["x"],
        "EPOCHS must be a count, not x",
    );
    assert_refused(
        env!("CARGO_BIN_EXE_fleet_bench"),
        &["--trace", "t"],
        "unknown flag --trace",
    );
    assert_refused(env!("CARGO_BIN_EXE_trace-report"), &[], "missing TRACE");
}

/// A positional after a flag is honoured, not dropped for the default.
#[test]
fn a_positional_after_a_flag_is_honoured() {
    let out = run(env!("CARGO_BIN_EXE_validation"), &["--cow", "1", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("§VII-A validation — 1 fault injections per benchmark"),
        "{stdout}"
    );
}

/// The campaign's first run opens its trace with the runner's marker. One
/// epoch is too short for the fault to find a committed checkpoint, so
/// every run ends unrecovered: the campaign completes, prints FAIL rows and
/// exits 1.
#[test]
fn validation_takes_trace() {
    let path = format!("{}/validation.jsonl", env!("CARGO_TARGET_TMPDIR"));
    let out = run(
        env!("CARGO_BIN_EXE_validation"),
        &["1", "1", "--trace", &path],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(
        stdout.contains("FAIL") && stdout.contains("FAILURES PRESENT"),
        "{stdout}"
    );
    let trace = std::fs::read_to_string(&path).expect("trace written");
    let first: TraceRecord = serde_json::from_str(trace.lines().next().expect("a record")).unwrap();
    assert!(
        matches!(first.kind, TraceEvent::RunStart { ref name, .. } if name == "Redis"),
        "{first:?}"
    );
}
