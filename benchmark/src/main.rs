//! Command line of the system benchmark.
//!
//! ```text
//! nilicon-benchmark run   [--seed N] [--quick] [--traced] [--workload W]
//! nilicon-benchmark check [--seed N] [--quick]
//! nilicon-benchmark --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` prints every end-to-end metric of every workload by name (and, with
//! `--traced`, every per-layer metric); `check` runs the set twice and
//! compares; the flag-only form is the driver's contract: one workload, one
//! JSON object as the last line. All three exit non-zero when an output is
//! wrong.

use nilicon_benchmark::report::{self, Budget, Outcome};
use nilicon_benchmark::run::Mode;
use nilicon_benchmark::workloads::{self, Job, Workload};
use std::process::ExitCode;

/// Divisor applied to every epoch and run count by `--quick`.
const QUICK_DIVISOR: u64 = 8;

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u64>,
    mode: Option<Mode>,
    divisor: Option<u64>,
    quick: bool,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().is_some_and(|s| !s.starts_with("--")) {
        a.command = it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |what: &str, v: &str| format!("{flag}: `{v}` is not {what}");
        match flag.as_str() {
            "--quick" => a.quick = true,
            "--traced" => a.traced = true,
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or_else(|| bad("a workload", &v))?);
            }
            "--seed" => {
                let v = value()?;
                a.seed = Some(v.parse().map_err(|_| bad("a whole number", &v))?);
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = Some(v.parse().map_err(|_| bad("a number", &v))?);
            }
            "--trace" => {
                let v = value()?;
                a.trace = Some(v.parse().map_err(|_| bad("0 or 1", &v))?);
            }
            "--mode" => {
                let v = value()?;
                a.mode = Some(Mode::parse(&v).ok_or_else(|| bad("a mode", &v))?);
            }
            "--divisor" => {
                let v = value()?;
                a.divisor = Some(v.parse().map_err(|_| bad("a whole number", &v))?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// One repetition in this process; the result goes to the parent as one
/// line of JSON.
fn child(a: &Args) -> Result<ExitCode, String> {
    let job = Job {
        workload: a.workload.ok_or("child needs --workload")?,
        seed: a.seed.unwrap_or(1),
        mode: a.mode.unwrap_or(Mode::Plain),
        divisor: a.divisor.unwrap_or(1),
    };
    let rep = workloads::run(job).map_err(|e| format!("{}: {e}", job.workload.name()))?;
    println!("{}", serde_json::value_to_string(&rep.to_json()));
    Ok(ExitCode::SUCCESS)
}

fn full_set(a: &Args, traced: bool) -> Vec<(Workload, Outcome)> {
    let divisor = if a.quick { QUICK_DIVISOR } else { 1 };
    let seed = a.seed.unwrap_or(1);
    Workload::ALL
        .into_iter()
        .filter(|w| a.workload.is_none_or(|only| only == *w))
        .map(|w| {
            eprintln!("[{}] seed {seed} ...", w.name());
            let mut o = report::plain_pass(w, seed, divisor, Budget::TWO);
            if traced && o.ops_failed == 0 {
                report::traced_pass(w, seed, divisor, &mut o);
            }
            report::print_outcome(w, &o, !a.quick);
            (w, o)
        })
        .collect()
}

fn failed(set: &[(Workload, Outcome)]) -> u64 {
    set.iter().map(|(_, o)| o.ops_failed).sum()
}

fn run(a: &Args) -> ExitCode {
    let set = full_set(a, a.traced);
    let bad = failed(&set);
    if a.traced {
        println!("\nspans written under {}", report::out_dir().display());
    }
    println!("\nops_failed over all workloads: {bad}");
    if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn check(a: &Args) -> ExitCode {
    let first = full_set(a, false);
    let second = full_set(a, false);
    let disagree = report::print_check(&first, &second);
    let bad = failed(&first) + failed(&second);
    println!("\n{disagree} pair(s) beyond their bound, {bad} failed operation(s)");
    if disagree == 0 && bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The driver's contract: one workload, one JSON object as the last line.
fn contract(a: &Args) -> Result<ExitCode, String> {
    let workload = a.workload.ok_or("--workload is required")?;
    let seed = a.seed.ok_or("--seed is required")?;
    let seconds = a.seconds.ok_or("--seconds is required")?;
    let traced = match a.trace.ok_or("--trace is required")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let budget = if traced {
        // The per-layer figures come from the single traced repetition; the
        // two plain ones are its reference for virtual equality and host cost.
        Budget::TWO
    } else {
        Budget {
            min_reps: 2,
            seconds,
        }
    };
    let mut o = report::plain_pass(workload, seed, 1, budget);
    if traced && o.ops_failed == 0 {
        report::traced_pass(workload, seed, 1, &mut o);
    }
    for f in &o.failures {
        eprintln!("FAILED: {f}");
    }
    if o.reps == 0 {
        return Err("no repetition completed".into());
    }
    println!(
        "{}",
        if traced {
            report::contract_line_traced(&o)
        } else {
            report::contract_line_plain(&o)
        }
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| match a.command.as_deref() {
        Some("child") => child(&a),
        Some("run") => Ok(run(&a)),
        Some("check") => Ok(check(&a)),
        Some(other) => Err(format!("unknown command `{other}` (run, check)")),
        None => contract(&a),
    });
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}
