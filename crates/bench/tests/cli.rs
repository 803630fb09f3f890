//! The table binaries' command line, end to end: the extension overlay
//! refuses a flag it does not know before any run starts, and `--trace`
//! reaches the binaries whose runs go through the bench runner.

use nilicon::trace::{TraceEvent, TraceRecord};
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn")
}

#[test]
fn a_misspelt_flag_fails_the_run() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_table2"), &["--dleta"][..]),
        (env!("CARGO_BIN_EXE_validation"), &["1", "1", "--dleta"][..]),
    ] {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{bin} {args:?} ran");
        assert!(
            stderr.contains("unknown flag --dleta"),
            "{bin} {args:?}: {stderr}"
        );
    }
}

/// The campaign's first run opens its trace with the runner's marker. (One
/// epoch is too short for the fault to find a committed checkpoint, so this
/// campaign aborts; the trace up to the abort is still written.)
#[test]
fn validation_takes_trace() {
    let path = format!("{}/validation.jsonl", env!("CARGO_TARGET_TMPDIR"));
    run(
        env!("CARGO_BIN_EXE_validation"),
        &["1", "1", "--trace", &path],
    );
    let trace = std::fs::read_to_string(&path).expect("trace written");
    let first: TraceRecord = serde_json::from_str(trace.lines().next().expect("a record")).unwrap();
    assert!(
        matches!(first.kind, TraceEvent::RunStart { ref name, .. } if name == "Redis"),
        "{first:?}"
    );
}
