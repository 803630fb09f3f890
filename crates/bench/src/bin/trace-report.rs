//! `trace-report` — summarize a JSONL epoch-phase trace.
//!
//! Reads a trace produced by any binary's `--trace <path>` flag (see
//! `OBSERVABILITY.md` for the event schema) and renders, per traced run (one
//! section per `RunStart`):
//!
//! * per-span duration statistics (count, p50, p99, mean): spans on no
//!   reconciled path (`Exec`) first, then the stop phases, the ack path and
//!   the log path, each group in first-seen order;
//! * a Table-I-style attribution of where the stop time and the ack delay
//!   go, as a share of the mean epoch overhead;
//! * one row per event kind: its count, each integer field's sum with
//!   p50 / p99, and a tally of each other field's values.
//!
//! The grouping comes from `TraceEvent::is_stop_phase` / `is_ack_phase` /
//! `is_log_phase`, the predicates the tracer's reconciliation sums use, and
//! the fields from each event's serialized form, so a new event or field
//! needs no code here. A line that does not parse is an error: the reader
//! and the writer share one derived format, so it means they drifted.
//!
//! ```sh
//! cargo run --release --bin table1 -- 40 --trace /tmp/t.jsonl
//! cargo run --release --bin trace-report -- /tmp/t.jsonl
//! ```

use nilicon::metrics::percentile;
use nilicon::trace::{TraceEvent, TraceRecord};
use nilicon_bench::{Cli, Flags, Slot};
use nilicon_sim::time::Nanos;
use serde::{Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Which reconciled path a span is charged to, in report order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Path {
    /// A span on none of them (the execution phase).
    Other,
    /// The container's stop time.
    Stop,
    /// The post-resume ack path.
    Ack,
    /// The log-ship path, which overlaps execution.
    Log,
}

impl Path {
    /// The path `rec` is a span of, or `None` for a marker.
    fn of(rec: &TraceRecord) -> Option<Path> {
        let k = &rec.kind;
        [
            (k.is_stop_phase(), Path::Stop),
            (k.is_ack_phase(), Path::Ack),
            (k.is_log_phase(), Path::Log),
            (rec.dur > 0, Path::Other),
        ]
        .into_iter()
        .find_map(|(is, path)| is.then_some(path))
    }
}

/// Everything a section saw of one event kind.
#[derive(Default)]
struct Row {
    count: usize,
    /// The path of the kind's spans, and their durations (markers add none).
    path: Option<Path>,
    durs: Vec<Nanos>,
    /// Each field's values, fields in declaration order.
    fields: Vec<(String, Vec<Value>)>,
}

impl Row {
    fn sum(&self) -> Nanos {
        self.durs.iter().sum()
    }

    fn mean(&self) -> f64 {
        self.sum() as f64 / self.durs.len().max(1) as f64
    }
}

#[derive(Default)]
struct Section {
    title: String,
    epochs: BTreeSet<u64>,
    /// One per event kind, in first-seen order.
    rows: Vec<(&'static str, Row)>,
}

impl Section {
    fn new(title: String) -> Self {
        Section {
            title,
            ..Default::default()
        }
    }

    fn add(&mut self, rec: &TraceRecord) {
        self.epochs.insert(rec.epoch);
        let name = rec.kind.name();
        let i = match self.rows.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.rows.push((name, Row::default()));
                self.rows.len() - 1
            }
        };
        let row = &mut self.rows[i].1;
        row.count += 1;
        if let Some(path) = Path::of(rec) {
            row.path = Some(path);
            row.durs.push(rec.dur);
        }
        // `{"Name":{"field":value,..}}`; a variant without fields
        // serializes as a bare string.
        let value = rec.kind.to_value();
        let fields = value
            .as_object()
            .and_then(|o| o.first())
            .and_then(|(_, v)| v.as_object())
            .unwrap_or_default();
        row.fields.resize_with(fields.len(), Default::default);
        for ((key, vals), (k, v)) in row.fields.iter_mut().zip(fields) {
            key.clone_from(k);
            vals.push(v.clone());
        }
    }

    /// The span row of `name`, if the section has spans of it.
    fn span(&self, name: &str) -> Option<&Row> {
        let (_, row) = self.rows.iter().find(|(n, _)| *n == name)?;
        row.path.map(|_| row)
    }
}

const EVENT_HEADER: &str =
    "event              count  field                         sum          p50          p99\n";

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n_epochs = self.epochs.len().max(1) as f64;
        let per_epoch = |r: &Row| r.sum() as f64 / n_epochs;
        writeln!(f, "\n== {} — {} epochs ==", self.title, self.epochs.len())?;
        f.write_str("phase            count          p50          p99         mean\n")?;
        let mut spans: Vec<(Path, &str, &Row)> = self
            .rows
            .iter()
            .filter_map(|(name, r)| Some((r.path?, *name, r)))
            .collect();
        spans.sort_by_key(|&(path, _, _)| path);
        for (_, name, r) in &spans {
            let ((p50, p99), n) = (p50_p99(&r.durs), r.durs.len());
            let (p50, p99, mean) = (fmt_ns(p50), fmt_ns(p99), fmt_ns(r.mean() as Nanos));
            writeln!(f, "{name:<14} {n:>7} {p50:>12} {p99:>12} {mean:>12}")?;
        }

        // Table-I-style attribution: the mean per-epoch cost of each stop
        // and ack span as a share of their sum. The log path is left out —
        // it overlaps execution instead of extending the epoch (its cost is
        // the release wait, `LogCommit.commit_latency`).
        let overhead: Vec<(Path, f64, &str)> = spans
            .iter()
            .filter(|(p, _, _)| matches!(p, Path::Stop | Path::Ack))
            .map(|&(p, name, r)| (p, per_epoch(r), name))
            .collect();
        let total: f64 = overhead.iter().map(|o| o.1).sum();
        if total > 0.0 {
            writeln!(f, "overhead attribution (per epoch, Table-I style):")?;
            let mut stop = 0.0;
            for (path, v, name) in &overhead {
                let (cost, share) = (fmt_ns(*v as Nanos), 100.0 * v / total);
                writeln!(f, "  {name:<14} {cost:>12} {share:>6.1}%")?;
                stop += if *path == Path::Stop { *v } else { 0.0 };
            }
            let ack = total - stop;
            let (stop_ns, ack_ns) = (fmt_ns(stop as Nanos), fmt_ns(ack as Nanos));
            let total_ns = fmt_ns(total as Nanos);
            writeln!(
                f,
                "  mean stop time {stop_ns} + ack path {ack_ns} = {total_ns} per epoch"
            )?;

            // Overlap-aware critical path (`--pipeline`, or a fleet's dump
            // queue): the ack path runs concurrently with the next execution
            // phase, so only the part the exec window cannot absorb lands on
            // the critical path — as the next epoch's `Backpressure` stall.
            // Naive stop + ack double-counts the hidden portion.
            let backpressure = self.span("Backpressure");
            if backpressure.is_some() || self.rows.iter().any(|(n, _)| *n == "StageEnqueue") {
                let exec = self.span("Exec").map_or(0.0, Row::mean);
                let exec_ns = fmt_ns(exec as Nanos);
                let hidden = fmt_ns(ack.min(exec) as Nanos);
                let exposed = fmt_ns(backpressure.map_or(0.0, per_epoch) as Nanos);
                writeln!(f, "pipeline overlap (critical path, per epoch):")?;
                writeln!(f, "  ack path {ack_ns} overlaps a {exec_ns} exec window: {hidden} hidden, {exposed} exposed as backpressure")?;
                writeln!(
                    f,
                    "  critical path = exec {exec_ns} + stop {stop_ns} per epoch (the exposed ack is the \
                     backpressure already folded into stop; the hidden ack adds nothing)"
                )?;
            }
        }

        f.write_str(EVENT_HEADER)?;
        for (name, r) in &self.rows {
            let mut head = format!("{name:<16} {:>7}", r.count);
            if r.fields.is_empty() {
                writeln!(f, "{head}")?;
            }
            for (key, vals) in &r.fields {
                writeln!(f, "{head}  {key:<18} {}", cells(vals))?;
                head = " ".repeat(head.len());
            }
        }
        Ok(())
    }
}

/// A field's cells in its event row: sum, p50 and p99 when every value is
/// an integer, else a tally of the values.
fn cells(vals: &[Value]) -> String {
    if let Some(ints) = vals
        .iter()
        .map(Value::as_int)
        .collect::<Option<Vec<i128>>>()
    {
        let (p50, p99) = p50_p99(&ints);
        return format!("{:>14} {p50:>12} {p99:>12}", ints.iter().sum::<i128>());
    }
    let mut tally = BTreeMap::<String, u64>::new();
    for v in vals {
        *tally.entry(serde_json::value_to_string(v)).or_default() += 1;
    }
    let tally: Vec<String> = tally.iter().map(|(v, n)| format!("{v}: {n}")).collect();
    tally.join(", ")
}

fn p50_p99<T: Ord + Copy + Default>(v: &[T]) -> (T, T) {
    (percentile(v.to_vec(), 50.0), percentile(v.to_vec(), 99.0))
}

/// The report over `records`: one section per `RunStart` (records before
/// the first one open an untitled section).
fn report(records: &[TraceRecord]) -> String {
    let mut sections: Vec<Section> = Vec::new();
    for rec in records {
        if let TraceEvent::RunStart { name, mode } = &rec.kind {
            sections.push(Section::new(format!("{name} [{mode}]")));
            continue;
        }
        if sections.is_empty() {
            sections.push(Section::new("(trace) [?]".into()));
        }
        sections.last_mut().expect("a section is open").add(rec);
    }
    sections.iter().map(Section::to_string).collect()
}

/// The records of a JSONL trace, or one message per line that does not
/// parse.
fn parse(content: &str) -> Result<Vec<TraceRecord>, Vec<String>> {
    let mut errors = Vec::new();
    let records = content
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .filter_map(|(i, line)| {
            serde_json::from_str(line)
                .map_err(|e| errors.push(format!("line {}: unparseable record: {e}", i + 1)))
                .ok()
        })
        .collect();
    errors.is_empty().then_some(records).ok_or(errors)
}

/// Virtual nanoseconds, human-readable.
fn fmt_ns(ns: Nanos) -> String {
    if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn main() {
    let cli = Cli::parse(&[Slot::Path("TRACE.jsonl")], Flags::None);
    let path = cli.words[0].as_deref().expect("a required slot");
    let content =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read trace {path}: {e}"));
    let records = parse(&content).unwrap_or_else(|errors| {
        for e in &errors {
            eprintln!("error: {e}");
        }
        eprintln!("{path}: {} unparseable lines", errors.len());
        std::process::exit(1);
    });
    if records.is_empty() {
        println!("no records in {path}");
        return;
    }
    print!("trace: {path}\n{}", report(&records));
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon::fleet::{FleetScheduler, LaneSpec};
    use nilicon::harness::{RunHarness, RunMode};
    use nilicon::trace::Tracer;
    use nilicon::{NiLiConEngine, OptimizationConfig, ReplicationConfig};
    use nilicon_sim::net::{ChaosSchedule, FaultKind};
    use nilicon_sim::{CostModel, MILLISECOND as MS};
    use nilicon_workloads::net_echo;
    use std::sync::OnceLock;

    fn run_start(tracer: &Tracer, name: &str) {
        let kind = TraceEvent::RunStart {
            name: name.into(),
            mode: "test".into(),
        };
        tracer.event_at(kind, 0);
    }

    /// Two aligned fleet lanes (their transfers queue on the shared link,
    /// so `FairShareWait` spans appear) with lane 0's container faulted
    /// mid-run; one section per lane.
    fn fleet_records() -> &'static [TraceRecord] {
        static RECORDS: OnceLock<Vec<TraceRecord>> = OnceLock::new();
        RECORDS.get_or_init(|| {
            let mut cfg = ReplicationConfig {
                opts: OptimizationConfig::nilicon(),
                ..Default::default()
            };
            cfg.opts.fleet = 2;
            cfg.opts.fleet_aligned = true;
            let lanes = (0..2)
                .map(|i| {
                    let w = net_echo(2);
                    let mut spec = w.spec;
                    spec.name = format!("net{i}");
                    spec.addr += i;
                    LaneSpec {
                        spec,
                        app: w.app,
                        behavior: w.behavior,
                    }
                })
                .collect();
            let mut fleet = FleetScheduler::new(cfg, lanes).unwrap();
            let rings: Vec<_> = (0..2)
                .map(|i| {
                    let (tracer, ring) = Tracer::in_memory(1 << 16);
                    run_start(&tracer, &format!("lane{i}"));
                    fleet.set_tracer(i, tracer);
                    ring
                })
                .collect();
            fleet.inject_lane_fault_at(0, 310 * MS);
            fleet.run_epochs(20).unwrap();
            rings.iter().flat_map(|r| r.snapshot()).collect()
        })
    }

    /// A replicated `net_echo` run under a chaos schedule with a partition
    /// and a delay spike (the spike stretches acks: `ChaosDelay` spans).
    fn chaos_run(tracer: &Tracer) {
        let w = net_echo(4);
        let engine = NiLiConEngine::new(OptimizationConfig::nilicon(), CostModel::default());
        let mut h = RunHarness::new(
            w.spec,
            w.app,
            w.behavior,
            RunMode::Replicated(Box::new(engine)),
            ReplicationConfig::default(),
            w.parallelism,
        )
        .unwrap();
        run_start(tracer, "chaos");
        h.set_tracer(tracer.clone());
        h.run_epochs(1).unwrap();
        let schedule = ChaosSchedule::default()
            .window(400 * MS, 460 * MS, FaultKind::Partition)
            .window(600 * MS, 800 * MS, FaultKind::DelaySpike { extra: 20 * MS });
        h.set_chaos(schedule);
        h.run_epochs(25).unwrap();
        tracer.flush().unwrap();
    }

    fn chaos_records() -> &'static [TraceRecord] {
        static RECORDS: OnceLock<Vec<TraceRecord>> = OnceLock::new();
        RECORDS.get_or_init(|| {
            let (tracer, ring) = Tracer::in_memory(1 << 16);
            chaos_run(&tracer);
            ring.snapshot()
        })
    }

    /// `records` split at each `RunStart`.
    fn sections(records: &[TraceRecord]) -> Vec<&[TraceRecord]> {
        records
            .split(|r| matches!(r.kind, TraceEvent::RunStart { .. }))
            .skip(1)
            .collect()
    }

    #[test]
    fn every_event_kind_reaches_the_report() {
        for records in [fleet_records(), chaos_records()] {
            let text = report(records);
            for rec in records {
                let name = rec.kind.name();
                // `RunStart` is the section header, not a row.
                if matches!(rec.kind, TraceEvent::RunStart { .. }) {
                    continue;
                }
                assert!(
                    text.lines()
                        .any(|l| l.split_whitespace().next() == Some(name)),
                    "{name} has no row in\n{text}"
                );
            }
        }
    }

    #[test]
    fn attribution_sums_every_stop_and_ack_span() {
        let mut seen = Vec::new();
        for records in [fleet_records(), chaos_records()] {
            let text = report(records);
            let printed: Vec<&str> = text
                .lines()
                .filter(|l| l.starts_with("  mean stop time"))
                .collect();
            let sections = sections(records);
            assert_eq!(printed.len(), sections.len(), "{text}");
            for (line, recs) in printed.iter().zip(sections) {
                let epochs: BTreeSet<u64> = recs.iter().map(|r| r.epoch).collect();
                let mean = |phase: fn(&TraceEvent) -> bool| {
                    let sum: Nanos = recs.iter().filter(|r| phase(&r.kind)).map(|r| r.dur).sum();
                    fmt_ns((sum as f64 / epochs.len() as f64) as Nanos)
                };
                let want = format!(
                    "  mean stop time {} + ack path {} =",
                    mean(TraceEvent::is_stop_phase),
                    mean(TraceEvent::is_ack_phase)
                );
                assert!(line.starts_with(&want), "{line:?} vs {want:?}");
                seen.extend(recs.iter().filter(|r| r.dur > 0).map(|r| r.kind.name()));
            }
        }
        // The two ack-path spans only a fleet or a chaos run emits are in
        // the sums above.
        for name in ["FairShareWait", "ChaosDelay"] {
            assert!(seen.contains(&name), "no {name} span recorded");
        }
    }

    #[test]
    fn jsonl_round_trip_gives_the_same_report() {
        let path = std::env::temp_dir().join(format!("trace-report-{}.jsonl", std::process::id()));
        chaos_run(&Tracer::to_file(&path).unwrap());
        let content = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let records = parse(&content).unwrap();
        assert_eq!(records, chaos_records());
        assert_eq!(report(&records), report(chaos_records()));
        let err = parse(&format!("{content}{{\"epoch\":0}}\n")).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(
            err[0].starts_with(&format!("line {}:", content.lines().count() + 1)),
            "{err:?}"
        );
    }
}
