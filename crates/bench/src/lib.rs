//! # nilicon-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§VII), except that
//! the four exhibits the paper derives from one run set share one; each
//! prints the paper's reported values next to this reproduction's
//! measurements and emits machine-readable JSON records (consumed by
//! EXPERIMENTS.md).
//!
//! | Binary              | Regenerates |
//! |---------------------|-------------|
//! | `table1`            | Table I — optimization impact on streamcluster |
//! | `table2`            | Table II — recovery latency breakdown |
//! | `comparison_report` | Fig. 3 and Tables III–V — one set of stock / NiLiCon / MC runs |
//! | `table6`            | Table VI — single-client response latency |
//! | `validation`        | §VII-A — fault-injection recovery-rate campaign |
//! | `scalability`       | §VII-C — thread/client/process sweeps |
//! | `anchors`           | §V/§VI — paper-stated cost anchors vs the model |
//! | `reproduce`         | everything above, in sequence |
//!
//! Every binary reads its command line once, at the top of `main`, through
//! [`Cli::parse`]:
//!
//! ```text
//! BIN [POSITIONAL]... [--delta] [--cow] [--rearm] [--replay] [--pipeline]
//!     [--backups N] [--quorum K] [--trace FILE]
//! ```
//!
//! Positionals come first in every documented invocation, but may stand
//! anywhere; each binary takes its own (`table1 [EPOCHS=300]`, `validation
//! [RUNS=10] [EPOCHS=40]`, `scalability [threads|clients|processes|all]
//! [EPOCHS=60]`, `fleet_bench [scale]`, `reproduce [quick]`, `trace-report
//! TRACE.jsonl`, ...). The EXTENSION overlay is taken where NiLiCon runs are
//! built from the command line (`table1`, `table2`, `comparison_report`,
//! `table6`, `validation`, `scalability`, `colo_divergence`, `epoch_sweep`
//! and `nilicon-demo`) and `--trace FILE` there and by `pipeline_bench` and
//! `replay_latency`; `reproduce --trace PREFIX` hands each child
//! `PREFIX.<bin>.jsonl`. Anything else — a misspelt flag, a non-numeric or
//! surplus positional, an overlay the engines refuse — exits 2 naming it,
//! before the first run.
//!
//! Criterion microbenches (`cargo bench`) measure the *real* data structures
//! in wall-clock time. EXPERIMENTS.md's "Measurement apparatus" table says
//! what each binary, bench and `BENCH_*.json` alone measures.

#![deny(unsafe_code)]

pub mod chaos;
pub mod cli;
pub mod comparison;
pub mod report;
pub mod runner;

pub use cli::{Cli, Flags, Slot};
pub use comparison::{fig3_workloads, run_comparisons, Comparison};
pub use report::{fmt_mib, fmt_ms, Row, Table};
pub use runner::{mc_mode, summarize, PerfSummary, WARMUP_EPOCHS};
