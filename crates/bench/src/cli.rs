//! The one parse of every binary's command line (the grammar is in the
//! crate docs): typed positionals, the EXTENSION overlay and the `--trace`
//! tracer, read once at the top of `main`. A non-numeric count, a word
//! outside its set, a surplus positional, a flag the binary does not
//! honour, an overlay no engine accepts and a trace file that cannot be
//! created are all refused: the binary names the argument on stderr and
//! exits 2 before it runs anything.

use crate::runner::nilicon_mode_from;
use nilicon::trace::Tracer;
use nilicon::OptimizationConfig;

/// One positional slot of a command line.
#[derive(Clone, Copy)]
pub enum Slot {
    /// A count, named for the error messages; the default when absent.
    Count(&'static str, u64),
    /// One of these words, or absent.
    Word(&'static [&'static str]),
    /// A path, named for the error messages; required.
    Path(&'static str),
}

/// The flags a binary honours besides its positionals.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Flags {
    /// No flag at all.
    None,
    /// `--trace FILE`: every run records its epoch phases into `FILE`.
    Trace,
    /// The EXTENSION overlay on the NiLiCon runs, and `--trace FILE`:
    /// `--delta` (delta-encoded transfer), `--cow` (copy-on-write
    /// checkpointing), `--rearm` (re-replication after a failover),
    /// `--replay` (hybrid checkpoint + replay), `--pipeline` (the staged
    /// checkpoint pipeline), `--backups N` / `--quorum K` (a k-of-n
    /// erasure-coded placement). Without them a run is paper-faithful.
    Runs,
    /// `--trace PREFIX`: a file-name prefix, handed on (`reproduce`).
    TracePrefix,
}

/// An EXTENSION flag: the setter of its field, and its count (1 for a
/// switch).
type Knob = (fn(&mut OptimizationConfig, u32), u32);

/// A binary's parsed command line.
pub struct Cli {
    /// The [`Slot::Count`]s, in slot order.
    pub counts: Vec<u64>,
    /// The [`Slot::Word`]s and [`Slot::Path`]s, in slot order (`None` where
    /// a word is absent).
    pub words: Vec<Option<String>>,
    /// `--trace`'s value as given (`reproduce`'s prefix).
    pub trace: Option<String>,
    knobs: Vec<Knob>,
    /// The tracer `--trace FILE` opened (disabled without it), shared by
    /// every run behind a `RunStart` marker; see `OBSERVABILITY.md`.
    pub(crate) tracer: Tracer,
}

impl Cli {
    /// This process's command line under `slots` and `flags`. A refusal
    /// prints the reason on stderr and exits with status 2.
    pub fn parse(slots: &[Slot], flags: Flags) -> Cli {
        Cli::parse_from(slots, flags, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// [`Cli::parse`] over `args` (the program name left out), with the
    /// refusal as the error.
    pub fn parse_from(
        slots: &[Slot],
        flags: Flags,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Cli, String> {
        let (overlay, traced) = (flags == Flags::Runs, flags != Flags::None);
        let mut args = args.into_iter();
        let (mut words, mut knobs, mut trace) = (Vec::new(), Vec::new(), None);
        while let Some(a) = args.next() {
            let mut count = || {
                args.next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("{a} requires a count"))
            };
            let knob: Knob = match a.as_str() {
                "--delta" if overlay => (|o, _| o.delta_transfer = true, 1),
                "--cow" if overlay => (|o, _| o.cow_checkpoint = true, 1),
                "--rearm" if overlay => (|o, _| o.rearm = true, 1),
                "--replay" if overlay => (|o, _| o.hybrid_replay = true, 1),
                "--pipeline" if overlay => (|o, _| o.pipeline = true, 1),
                "--backups" if overlay => (|o, n| o.backups = n, count()?),
                "--quorum" if overlay => (|o, k| o.quorum = k, count()?),
                "--trace" if traced => {
                    let value = args.next().ok_or("--trace requires a path")?;
                    if trace.replace(value).is_some() {
                        return Err("--trace given twice".into());
                    }
                    continue;
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
                _ => {
                    words.push(a);
                    continue;
                }
            };
            knobs.push(knob);
        }
        if let Some(surplus) = words.get(slots.len()) {
            return Err(format!("unexpected argument {surplus}"));
        }
        let mut cli = Cli {
            counts: Vec::new(),
            words: Vec::new(),
            trace,
            knobs,
            tracer: Tracer::disabled(),
        };
        let mut given = words.into_iter();
        for &slot in slots {
            match (slot, given.next()) {
                (Slot::Count(_, default), None) => cli.counts.push(default),
                (Slot::Count(name, _), Some(w)) => cli.counts.push(
                    w.parse()
                        .map_err(|_| format!("{name} must be a count, not {w}"))?,
                ),
                (Slot::Word(set), Some(w)) if !set.contains(&w.as_str()) => {
                    return Err(format!("unknown argument {w} (one of {})", set.join(", ")))
                }
                (Slot::Path(name), None) => return Err(format!("missing {name}")),
                (_, w) => cli.words.push(w),
            }
        }
        // The overlay on the paper row passes exactly when it passes on
        // every Table I row (those below the staging buffer drop what they
        // cannot host), so this one mode build refuses it for all of them.
        if cli.overlaid() {
            nilicon_mode_from(OptimizationConfig::nilicon(), &cli)?;
        }
        if let (Some(path), true) = (&cli.trace, flags != Flags::TracePrefix) {
            cli.tracer = Tracer::to_file(path)
                .map_err(|e| format!("cannot create trace file {path}: {e}"))?;
        }
        Ok(cli)
    }

    /// Whether any EXTENSION flag was given.
    pub fn overlaid(&self) -> bool {
        !self.knobs.is_empty()
    }

    /// `opts` with the EXTENSION flags overlaid.
    pub(crate) fn overlay(&self, mut opts: OptimizationConfig) -> OptimizationConfig {
        for (set, n) in &self.knobs {
            set(&mut opts, *n);
        }
        opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::replicated_engine;
    use nilicon::harness::RunMode;

    fn parse(slots: &[Slot], flags: Flags, v: &[&str]) -> Result<Cli, String> {
        Cli::parse_from(slots, flags, v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn cli_extensions_overlay_flags() {
        let base = OptimizationConfig::nilicon();
        let epochs = [Slot::Count("EPOCHS", 300)];
        let overlay = |v: &[&str]| parse(&epochs, Flags::Runs, v).unwrap().overlay(base);

        assert_eq!(overlay(&["30"]), base, "no flags -> paper-faithful row");
        let traced = parse(&epochs, Flags::Runs, &["40", "--trace", "/dev/null"]).unwrap();
        assert_eq!(traced.overlay(base), base, "--trace is the tracer's flag");
        assert!(traced.tracer.enabled());
        assert_eq!(traced.counts, [40]);

        let extended = overlay(&["--delta", "--cow", "--rearm"]);
        assert!(extended.delta_transfer);
        assert!(extended.cow_checkpoint);
        assert!(extended.rearm);

        assert!(overlay(&["--replay"]).hybrid_replay);
        assert!(overlay(&["--pipeline"]).pipeline);
        assert!(!base.pipeline, "paper row untouched");

        let placed = overlay(&["--backups", "3", "--quorum", "2"]);
        assert_eq!(placed.backups, 3);
        assert_eq!(placed.quorum, 2);
        let engine = replicated_engine(placed).unwrap();
        assert_eq!(engine.placement(), (2, 3));
        assert!(engine.supports_placement());
        let striped = overlay(&["--backups", "3", "--quorum", "2", "--cow"]);
        assert_eq!(replicated_engine(striped).unwrap().placement(), (2, 3));

        // Staircase rows below the staging buffer keep the paper's engine
        // (and its synchronous path under `--pipeline`); the rows from it
        // on host the placement.
        let flags = ["--backups", "3", "--quorum", "2", "--pipeline"];
        let cli = parse(&[], Flags::Runs, &flags).unwrap();
        for (label, row) in OptimizationConfig::table1_rows() {
            let RunMode::Replicated(engine) = nilicon_mode_from(row, &cli).unwrap() else {
                panic!("{label}: unreplicated");
            };
            assert_eq!(engine.supports_placement(), row.staging_buffer, "{label}");
        }
    }

    /// A positional is honoured wherever it stands; a count that is not
    /// one, a word outside its set and a surplus positional are refused.
    #[test]
    fn positionals_are_typed_and_counted() {
        let slots = [Slot::Word(&["threads", "all"]), Slot::Count("EPOCHS", 60)];
        let cli = parse(&slots, Flags::Runs, &["--cow", "threads", "--delta", "7"]).unwrap();
        assert_eq!(
            (cli.words[0].as_deref(), cli.counts[0]),
            (Some("threads"), 7)
        );
        assert!(cli.overlaid());
        let cli = parse(&slots, Flags::Runs, &[]).unwrap();
        assert_eq!((cli.words[0].as_deref(), cli.counts[0]), (None, 60));
        for (args, needle) in [
            (
                &["thread"][..],
                "unknown argument thread (one of threads, all)",
            ),
            (&["all", "x"][..], "EPOCHS must be a count, not x"),
            (&["all", "1", "2"][..], "unexpected argument 2"),
        ] {
            let err = parse(&slots, Flags::Runs, args).err().unwrap();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
        let path = [Slot::Path("TRACE")];
        assert_eq!(
            parse(&path, Flags::None, &["t.jsonl"]).unwrap().words,
            [Some("t.jsonl".into())]
        );
        assert_eq!(
            parse(&path, Flags::None, &[]).err().unwrap(),
            "missing TRACE"
        );
        let prefix = parse(&[], Flags::TracePrefix, &["--trace", "/nonexistent/p"]).unwrap();
        assert_eq!(
            prefix.trace.as_deref(),
            Some("/nonexistent/p"),
            "a prefix opens no file"
        );
        assert!(!prefix.tracer.enabled());
    }

    /// A flag a binary cannot honour fails the parse instead of a run
    /// without it: the fleet flags belong to no binary (`fleet_bench` runs
    /// both fleet modes itself), `--trace` only to the binaries whose runs
    /// record one, and an overlay only where NiLiCon runs take it. A
    /// combination the engines refuse is `validate`'s message.
    #[test]
    fn cli_extensions_reject_flags_they_cannot_honour() {
        for (flags, args, needle) in [
            (
                Flags::Runs,
                &["3", "--fleet", "8"][..],
                "unknown flag --fleet",
            ),
            (Flags::Runs, &["--aligned"][..], "unknown flag --aligned"),
            (Flags::Runs, &["--dleta"][..], "unknown flag --dleta"),
            (Flags::Runs, &["-t", "x"][..], "unknown flag -t"),
            (
                Flags::Runs,
                &["--backups"][..],
                "--backups requires a count",
            ),
            (Flags::Runs, &["--trace"][..], "--trace requires a path"),
            (
                Flags::Runs,
                &["--trace", "a", "--trace", "b"][..],
                "--trace given twice",
            ),
            (
                Flags::Runs,
                &["--trace", "/nonexistent/t.jsonl"][..],
                "cannot create trace file",
            ),
            (Flags::Trace, &["--delta"][..], "unknown flag --delta"),
            (
                Flags::None,
                &["--trace", "t.jsonl"][..],
                "unknown flag --trace",
            ),
            (
                Flags::Runs,
                &["--backups", "3", "--delta"][..],
                "delta_transfer",
            ),
            (
                Flags::Runs,
                &["--backups", "3", "--quorum", "4"][..],
                "k=4, n=3",
            ),
            (Flags::Runs, &["--quorum", "2"][..], "opts.quorum"),
        ] {
            let err = parse(&[Slot::Count("EPOCHS", 1)], flags, args)
                .err()
                .unwrap();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}
