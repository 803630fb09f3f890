//! The parent side: spawns one child process per repetition, checks that
//! repetitions agree, pools their samples into the reported metrics, and
//! prints them.

use crate::calib;
use crate::defs::{self, Clock, EndToEnd};
use crate::run::Mode;
use crate::spans::{self, Span};
use crate::stats;
use crate::workloads::{Job, Workload};
use nilicon::trace::TraceRecord;
use nilicon_sim::{SimError, SimResult};
use serde::ser::Serialize;
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Where the traced pass leaves its span files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write `out/<workload>.spans.json`: the decorators' host-clock spans and
/// the tracer's virtual-clock records of one traced repetition.
pub fn write_spans(
    workload: Workload,
    host_spans: &[Span],
    records: &[TraceRecord],
) -> SimResult<()> {
    let doc = Value::Object(vec![
        ("workload".into(), Value::Str(workload.name().into())),
        ("host_spans".into(), spans::to_json(host_spans)),
        (
            "virtual_records".into(),
            Value::Array(records.iter().map(Serialize::to_value).collect()),
        ),
    ]);
    let dir = out_dir();
    let path = dir.join(format!("{}.spans.json", workload.name()));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, serde_json::value_to_string(&doc)))
        .map_err(|e| SimError::Invalid(format!("writing {}: {e}", path.display())))
}

/// One repetition as read back from a child process.
#[derive(Debug, Clone, Default)]
pub struct RepData {
    /// See [`crate::workloads::Rep`].
    pub setup_s: f64,
    /// Host ns of each timed epoch.
    pub epoch_host_ns: Vec<u64>,
    /// Calibration-kernel ns beside each timed epoch.
    pub kernel_ns: Vec<u64>,
    /// Host seconds the timed calls took in all, as measured.
    pub timed_s: f64,
    /// Virtual end-to-end metrics by name.
    pub virt: Vec<(String, f64)>,
    /// Sample counts behind the percentile families.
    pub samples: Vec<(String, u64)>,
    /// Requests issued.
    pub ops_attempted: u64,
    /// Requests failed.
    pub ops_failed: u64,
    /// Failure descriptions.
    pub failures: Vec<String>,
    /// Per-layer figures (traced only).
    pub layer: Vec<(String, f64)>,
    /// Peak resident set, KiB.
    pub peak_rss_kb: u64,
}

fn floats(v: Option<&Value>) -> Vec<(String, f64)> {
    v.and_then(Value::as_object)
        .map(|o| {
            o.iter()
                .filter_map(|(k, x)| Some((k.clone(), x.as_float()?)))
                .collect()
        })
        .unwrap_or_default()
}

impl RepData {
    fn parse(line: &str) -> Result<Self, String> {
        let v = serde_json::value_from_str(line).map_err(|e| e.to_string())?;
        let int = |k: &str| {
            v.get(k)
                .and_then(Value::as_int)
                .map(|i| i as u64)
                .ok_or_else(|| format!("child result lacks `{k}`"))
        };
        let float = |k: &str| {
            v.get(k)
                .and_then(Value::as_float)
                .ok_or_else(|| format!("child result lacks `{k}`"))
        };
        let ints = |k: &str| -> Result<Vec<u64>, String> {
            Ok(v.get(k)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("child result lacks `{k}`"))?
                .iter()
                .filter_map(|x| x.as_int().map(|i| i as u64))
                .collect())
        };
        let (epoch_host_ns, kernel_ns) = (ints("epoch_host_ns")?, ints("kernel_ns")?);
        if epoch_host_ns.len() != kernel_ns.len() {
            return Err("child result: one kernel sample per timed epoch expected".into());
        }
        Ok(RepData {
            setup_s: float("setup_s")?,
            timed_s: float("timed_s")?,
            epoch_host_ns,
            kernel_ns,
            virt: floats(v.get("virt")),
            samples: floats(v.get("samples"))
                .into_iter()
                .map(|(k, n)| (k, n as u64))
                .collect(),
            ops_attempted: int("ops_attempted")?,
            ops_failed: int("ops_failed")?,
            failures: v
                .get("failures")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|s| s.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default(),
            layer: floats(v.get("layer")),
            peak_rss_kb: int("peak_rss_kb")?,
        })
    }

    fn host_us_per_epoch(&self, nominal_ns: f64) -> f64 {
        calib::normalized_median_ns(&self.epoch_host_ns, &self.kernel_ns, nominal_ns).unwrap_or(0.0)
            / 1e3
    }
}

/// Run one repetition in a child process of this same executable, so that
/// its peak RSS and allocator state are its own, and wait for it to end.
pub fn spawn_rep(job: Job) -> Result<RepData, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "child",
            "--workload",
            job.workload.name(),
            "--seed",
            &job.seed.to_string(),
            "--mode",
            job.mode.as_str(),
            "--divisor",
            &job.divisor.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the repetition: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} repetition ({}) exited with {}",
            job.workload.name(),
            job.mode.as_str(),
            out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .last()
        .ok_or("the repetition printed nothing")?;
    RepData::parse(line)
}

/// How many repetitions a plain pass makes.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// At least this many (two, so that determinism can be checked).
    pub min_reps: usize,
    /// Keep repeating until the timed epochs add up to this many host
    /// seconds (the driver's `--seconds`).
    pub seconds: f64,
}

impl Budget {
    /// The fixed two repetitions of `run` and `check`.
    pub const TWO: Budget = Budget {
        min_reps: 2,
        seconds: 0.0,
    };
    /// Repetitions stop here even if the time budget asks for more.
    const MAX_REPS: usize = 12;
    /// No further repetition starts once a pass has run this long, so that
    /// a large `--seconds` cannot push a run past the driver's time limit.
    const MAX_WALL: Duration = Duration::from_secs(90);
}

/// One workload's metrics, aggregated over its repetitions.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Repetitions run.
    pub reps: usize,
    /// Timed epochs pooled into `host_us_per_epoch`.
    pub epochs: usize,
    /// Median calibration-kernel time beside the timed epochs over its
    /// nominal time: above 1, this machine ran slower than the reference.
    pub machine_speed: f64,
    /// End-to-end metrics defined on the workload, in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts behind the percentile families.
    pub samples: Vec<(String, u64)>,
    /// Requests issued in one repetition.
    pub ops_attempted: u64,
    /// Failures summed over repetitions, determinism mismatches included.
    pub ops_failed: u64,
    /// Failure descriptions.
    pub failures: Vec<String>,
    /// Per-layer figures of the traced pass, when one ran.
    pub layer: BTreeMap<String, f64>,
}

impl Outcome {
    /// Value of an end-to-end metric, if defined here.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }

    fn fail(&mut self, why: String) {
        self.ops_failed += 1;
        self.failures.push(why);
    }
}

fn same_virtual(a: &[(String, f64)], b: &[(String, f64)]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} metrics against {}", a.len(), b.len()));
    }
    for ((ka, va), (kb, vb)) in a.iter().zip(b) {
        if ka != kb || va.to_bits() != vb.to_bits() {
            return Err(format!("{ka} = {va} against {kb} = {vb}"));
        }
    }
    Ok(())
}

/// The plain pass: repetitions without tracer or decorators, which must
/// agree bit for bit on every virtual metric.
pub fn plain_pass(workload: Workload, seed: u64, divisor: u64, budget: Budget) -> Outcome {
    let mut out = Outcome::default();
    let job = Job {
        workload,
        seed,
        mode: Mode::Plain,
        divisor,
    };
    let mut reps: Vec<RepData> = Vec::new();
    let mut timed_s = 0.0;
    let started = Instant::now();
    while reps.len() < budget.min_reps
        || (timed_s < budget.seconds
            && reps.len() < Budget::MAX_REPS
            && started.elapsed() < Budget::MAX_WALL)
    {
        match spawn_rep(job) {
            Ok(rep) => {
                timed_s += rep.timed_s;
                reps.push(rep);
            }
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
    }
    let first = &reps[0];
    for (i, rep) in reps.iter().enumerate() {
        if let Err(e) = same_virtual(&first.virt, &rep.virt) {
            out.fail(format!(
                "repetition {i} disagrees with repetition 0 on a virtual metric: {e}"
            ));
        }
        out.ops_failed += rep.ops_failed;
        out.failures.extend(rep.failures.iter().cloned());
    }
    let pool = |f: fn(&RepData) -> &Vec<u64>| -> Vec<u64> {
        reps.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let (pooled, pooled_kernel) = (pool(|r| &r.epoch_host_ns), pool(|r| &r.kernel_ns));
    let nominal_ns = workload.kernel_mix().nominal_ns();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let rss: Vec<f64> = reps.iter().map(|r| r.peak_rss_kb as f64 / 1024.0).collect();
    out.reps = reps.len();
    out.epochs = pooled.len();
    out.machine_speed = stats::median_u64(&pooled_kernel).map_or(1.0, |k| k / nominal_ns);
    out.ops_attempted = first.ops_attempted;
    out.samples = first.samples.clone();
    for m in defs::END_TO_END.iter().filter(|m| m.on(workload)) {
        let v = match m.name {
            "setup_s" => stats::median(&setups),
            "host_us_per_epoch" => {
                calib::normalized_median_ns(&pooled, &pooled_kernel, nominal_ns).map(|ns| ns / 1e3)
            }
            "peak_rss_mb" => stats::median(&rss),
            name => first.virt.iter().find(|(k, _)| k == name).map(|(_, v)| *v),
        };
        match v {
            Some(v) => out.metrics.push((m.name, v)),
            None => out.fail(format!(
                "{} is defined on {} but was not measured",
                m.name,
                workload.name()
            )),
        }
    }
    out
}

/// The traced pass: one repetition with the tracer, the recording
/// decorators and the probes. Its virtual metrics must equal the plain
/// pass's; its per-layer figures are added to `plain`.
pub fn traced_pass(workload: Workload, seed: u64, divisor: u64, plain: &mut Outcome) {
    let rep = match spawn_rep(Job {
        workload,
        seed,
        mode: Mode::Traced,
        divisor,
    }) {
        Ok(rep) => rep,
        Err(e) => return plain.fail(e),
    };
    let plain_virt: Vec<(String, f64)> = plain
        .metrics
        .iter()
        .filter(|(k, _)| defs::end_to_end(k).is_some_and(|m| m.clock == Clock::Virtual))
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    let traced_virt: Vec<(String, f64)> = defs::END_TO_END
        .iter()
        .filter_map(|m| {
            let v = rep.virt.iter().find(|(k, _)| k == m.name)?;
            m.on(workload).then(|| v.clone())
        })
        .collect();
    if let Err(e) = same_virtual(&plain_virt, &traced_virt) {
        plain.fail(format!("the traced pass moved a virtual metric: {e}"));
    }
    plain.ops_failed += rep.ops_failed;
    plain.failures.extend(rep.failures.iter().cloned());
    let traced_host = rep.host_us_per_epoch(workload.kernel_mix().nominal_ns());
    plain.layer = rep.layer.into_iter().collect();
    if let Some(base) = plain.metric("host_us_per_epoch") {
        plain.layer.insert(
            "core_trace.host_overhead_pct".into(),
            (traced_host / base - 1.0) * 100.0,
        );
    }
    for m in defs::PER_LAYER {
        plain.layer.entry(m.name.to_string()).or_insert(0.0);
    }
    let must_be_zero = [
        "core_trace.unattributed_us",
        "core_detector.false_suspicions",
    ];
    for name in must_be_zero {
        let v = plain.layer[name];
        if v != 0.0 {
            plain.fail(format!("{name} = {v}, must be 0"));
        }
    }
    if plain.layer["core_harness.self_host_us"] < 0.0 {
        plain.fail("core_harness.self_host_us is negative".into());
    }
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 || (0.01..1e7).contains(&v.abs()) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

/// Print one workload's metrics by name, with unit and clock.
pub fn print_outcome(workload: Workload, o: &Outcome, comparable: bool) {
    println!(
        "\n== {} ==  {} repetition(s), {} timed epoch(s), calibration kernel at {:.2}x nominal{}",
        workload.name(),
        o.reps,
        o.epochs,
        o.machine_speed,
        if comparable {
            ""
        } else {
            "  [--quick: NOT COMPARABLE]"
        }
    );
    println!("   {}", workload.what());
    for m in defs::END_TO_END.iter().filter(|m| m.on(workload)) {
        let Some(v) = o.metric(m.name) else { continue };
        let note = percentile_note(m, o);
        println!(
            "  {:<24} {:>14} {:<6} {:<8}{}",
            m.name,
            fmt_value(v),
            m.unit,
            m.clock.as_str(),
            note
        );
    }
    println!("  {:<24} {:>14}", "ops_attempted", o.ops_attempted);
    println!("  {:<24} {:>14}", "ops_failed", o.ops_failed);
    for f in &o.failures {
        println!("  FAILED: {f}");
    }
    if !o.layer.is_empty() {
        println!("  -- per layer (traced pass) --");
        for m in defs::PER_LAYER {
            println!(
                "  {:<42} {:>14} {:<8} {:?}  -> {}",
                m.name,
                fmt_value(o.layer.get(m.name).copied().unwrap_or(0.0)),
                m.unit,
                m.source,
                m.moves
            );
        }
    }
}

/// A remark when a tail percentile has fewer samples beyond it than the
/// reporting rule asks for (only happens at `--quick` sizes).
fn percentile_note(m: &EndToEnd, o: &Outcome) -> String {
    let Some(family) = m.name.strip_suffix("_p90") else {
        return String::new();
    };
    let n = o
        .samples
        .iter()
        .find(|(k, _)| k == family)
        .map_or(0, |(_, n)| *n as usize);
    if stats::supports(n, 90.0) {
        format!("  n={n}")
    } else {
        format!(
            "  n={n}: too few for a p90 (supports p{})",
            stats::highest_supported_percentile(n)
        )
    }
}

/// The driver's one-line result for a `--trace 0` run.
pub fn contract_line_plain(o: &Outcome) -> String {
    let metrics = defs::contract_end_to_end()
        .into_iter()
        .map(|m| (m.name, m.unit, o.metric(m.name).unwrap_or(0.0)))
        .collect::<Vec<_>>();
    contract_line(o, &metrics)
}

/// The driver's one-line result for a `--trace 1` run: every per-layer
/// metric, then the end-to-end metrics only some workloads define.
pub fn contract_line_traced(o: &Outcome) -> String {
    let metrics = defs::contract_per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let v = o
                .layer
                .get(name)
                .copied()
                .or_else(|| o.metric(name))
                .unwrap_or(0.0);
            (name, unit, v)
        })
        .collect::<Vec<_>>();
    contract_line(o, &metrics)
}

fn contract_line(o: &Outcome, metrics: &[(&str, &str, f64)]) -> String {
    let doc = Value::Object(vec![
        ("correct".into(), Value::Bool(o.ops_failed == 0)),
        (
            "attempted".into(),
            Value::Int(o.ops_attempted.max(1) as i128),
        ),
        ("failed".into(), Value::Int(o.ops_failed as i128)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .iter()
                    .map(|(name, unit, v)| {
                        (
                            name.to_string(),
                            Value::Object(vec![
                                ("value".into(), Value::Float(*v)),
                                ("unit".into(), Value::Str(unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::value_to_string(&doc)
}

/// Compare two full sets run on the same code and seed; prints one row per
/// metric and workload and returns how many pairs disagree beyond the bound.
pub fn print_check(first: &[(Workload, Outcome)], second: &[(Workload, Outcome)]) -> usize {
    println!(
        "\n{:<14} {:<24} {:>14} {:>14} {:>10} {:>8}  verdict",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    let mut bad = 0;
    for ((w, a), (_, b)) in first.iter().zip(second) {
        for m in defs::END_TO_END.iter().filter(|m| m.on(*w)) {
            let (Some(x), Some(y)) = (a.metric(m.name), b.metric(m.name)) else {
                println!("{:<14} {:<24} missing", w.name(), m.name);
                bad += 1;
                continue;
            };
            let rel = if x == y {
                0.0
            } else {
                (x - y).abs() / x.abs().max(y.abs())
            };
            let ok = rel <= m.same_seed_bound;
            bad += usize::from(!ok);
            let bound = if m.clock == Clock::Virtual {
                "exact".to_string()
            } else {
                format!("{:.0}%", m.same_seed_bound * 100.0)
            };
            println!(
                "{:<14} {:<24} {:>14} {:>14} {:>10.2e} {:>8}  {}",
                w.name(),
                m.name,
                fmt_value(x),
                fmt_value(y),
                rel,
                bound,
                if ok { "ok" } else { "DISAGREE" }
            );
        }
    }
    bad
}
