//! Shared command-line parsing for every table/figure binary.
//!
//! Each binary historically hand-rolled the same three fragments: the
//! positional epoch count, the `--trace <path>` tracer flag, and the
//! EXTENSION-knob overlay (`--delta`, `--cow`, ...). They live here once so
//! a new knob lands in every binary by construction.

use nilicon::trace::Tracer;
use nilicon::OptimizationConfig;

/// The `n`-th positional argument as a `u64`, or `default` when absent or
/// non-numeric (flags passed in the same position fall through to the
/// default rather than erroring — binaries accept `table1 --delta`).
pub fn positional_u64(n: usize, default: u64) -> u64 {
    std::env::args()
        .nth(n)
        .and_then(|a| a.parse().ok())
        .unwrap_or(default)
}

/// Overlay EXTENSION flags onto a paper-faithful optimization row:
/// `--delta` enables delta-encoded checkpoint transfer, `--cow` switches to
/// copy-on-write checkpointing (dirty pages are write-protected at pause and
/// copied out in the background — the stop phase shrinks, the copy moves to
/// the ack path),
/// `--rearm` re-establishes redundancy after a failover by bootstrapping
/// a replacement backup (the run then survives a second primary fault),
/// `--backups N`/`--quorum K` replace the single warm backup with a k-of-n
/// erasure-coded placement (epochs ack on the quorum; a lost replica is
/// regenerated by coded repair while the primary keeps serving),
/// `--replay` enables HyCoR-style hybrid checkpoint + replay (outputs
/// release when their nondeterminism-log chunk commits on the backup
/// instead of waiting for the epoch ack; failover replays the sealed tail),
/// and `--pipeline` runs the checkpoint's dump-drain → delta-encode →
/// transfer → backup-ingest sequence as a staged pipeline overlapped with
/// the next execution phase (bounded peek-before-commit queues; a slow link
/// backpressures into the stop phase). The fleet has a driver of its own,
/// `fleet_bench`, which parses its own arguments.
/// With no flags present the row is returned untouched, so every table
/// binary stays paper-faithful by default but can demo the extensions
/// (visible in `trace-report`'s DeltaEncode/CowCopy/Backpressure phases and
/// summary lines). Positional arguments pass through and `--trace <path>` is
/// [`cli_tracer`]'s; any other `--` flag is an error, not a run without it.
pub fn apply_cli_extensions(
    mut opts: OptimizationConfig,
    mut args: impl Iterator<Item = String>,
) -> Result<OptimizationConfig, String> {
    while let Some(a) = args.next() {
        let mut count = || {
            args.next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("{a} requires a count"))
        };
        match a.as_str() {
            "--delta" => opts.delta_transfer = true,
            "--cow" => opts.cow_checkpoint = true,
            "--rearm" => opts.rearm = true,
            "--replay" => opts.hybrid_replay = true,
            "--pipeline" => opts.pipeline = true,
            "--backups" => opts.backups = count()?,
            "--quorum" => opts.quorum = count()?,
            "--trace" => {
                args.next();
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => {}
        }
    }
    Ok(opts)
}

thread_local! {
    static CLI_TRACER: std::cell::OnceCell<Tracer> = const { std::cell::OnceCell::new() };
}

/// The process-wide tracer selected by a `--trace <path>` CLI flag
/// (disabled when the flag is absent), shared by every run the binary
/// performs. Each run opens with a [`TraceEvent::RunStart`] marker so
/// `trace-report` can attribute records to runs; see `OBSERVABILITY.md`.
///
/// [`TraceEvent::RunStart`]: nilicon::trace::TraceEvent::RunStart
pub fn cli_tracer() -> Tracer {
    CLI_TRACER.with(|c| {
        c.get_or_init(|| {
            let mut args = std::env::args();
            while let Some(a) = args.next() {
                if a == "--trace" {
                    let path = args.next().expect("--trace requires a path");
                    return Tracer::to_file(&path)
                        .unwrap_or_else(|e| panic!("cannot create trace file {path}: {e}"));
                }
            }
            Tracer::disabled()
        })
        .clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{nilicon_mode_from, replicated_engine};
    use nilicon::harness::RunMode;

    #[test]
    fn cli_extensions_overlay_flags() {
        let base = OptimizationConfig::nilicon();
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let overlay = |v: &[&str]| apply_cli_extensions(base, args(v).into_iter()).unwrap();

        assert_eq!(overlay(&["table1", "30"]), base, "no flags -> paper-faithful row");
        let traced = overlay(&["table1", "40", "--trace", "/tmp/t.jsonl"]);
        assert_eq!(traced, base, "--trace is the tracer's flag");

        let extended = overlay(&["table1", "--delta", "--cow", "--rearm"]);
        assert!(extended.delta_transfer);
        assert!(extended.cow_checkpoint);
        assert!(extended.rearm);

        assert!(overlay(&["table6", "--replay"]).hybrid_replay);
        assert!(overlay(&["table1", "--pipeline"]).pipeline);
        assert!(!base.pipeline, "paper row untouched");

        let placed = overlay(&["table1", "--backups", "3", "--quorum", "2"]);
        assert_eq!(placed.backups, 3);
        assert_eq!(placed.quorum, 2);
        let engine = replicated_engine(placed).unwrap();
        assert_eq!(engine.placement(), (2, 3));
        assert!(engine.supports_placement());
        let striped = overlay(&["table1", "--backups", "3", "--quorum", "2", "--cow"]);
        assert_eq!(replicated_engine(striped).unwrap().placement(), (2, 3));

        // `--backups` with `--delta` (or a quorum no codec has) is the
        // placement engine's error, not a silent single-backup run; a
        // quorum without backups is `validate`'s.
        for (flags, needle) in [
            (&["--backups", "3", "--delta"][..], "delta_transfer"),
            (&["--backups", "3", "--quorum", "4"][..], "k=4, n=3"),
            (&["--quorum", "2"][..], "opts.quorum"),
        ] {
            let err = match replicated_engine(overlay(flags)) {
                Err(e) => e.to_string(),
                Ok(e) => panic!("{flags:?} ran as {}", e.name()),
            };
            assert!(err.contains(needle), "{flags:?}: {err}");
        }
        // Staircase rows below the staging buffer keep the paper's engine
        // (and its synchronous path under `--pipeline`); the rows from it
        // on host the placement.
        for (label, row) in OptimizationConfig::table1_rows() {
            let flags = args(&["table1", "--backups", "3", "--quorum", "2", "--pipeline"]);
            let RunMode::Replicated(engine) = nilicon_mode_from(row, flags.into_iter()).unwrap()
            else {
                panic!("{label}: unreplicated");
            };
            assert_eq!(engine.supports_placement(), row.staging_buffer, "{label}");
        }
    }

    /// A flag the table binaries cannot honour fails the run instead of
    /// printing a paper-faithful table under it: the fleet flags belong to
    /// `fleet_bench`, whose lanes the single-container harness never builds.
    #[test]
    fn cli_extensions_reject_flags_they_cannot_honour() {
        let base = OptimizationConfig::nilicon();
        for (flags, needle) in [
            (&["table1", "3", "--fleet", "8"][..], "unknown flag --fleet"),
            (&["fleet_bench", "--aligned"][..], "unknown flag --aligned"),
            (&["table1", "--dleta"][..], "unknown flag --dleta"),
            (&["table1", "--backups"][..], "--backups requires a count"),
        ] {
            let args = flags.iter().map(|s| s.to_string());
            let err = apply_cli_extensions(base, args).unwrap_err();
            assert!(err.contains(needle), "{flags:?}: {err}");
        }
    }
}
