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
//! Criterion microbenches (`cargo bench`) measure the *real* data structures
//! in wall-clock time. EXPERIMENTS.md's "Measurement apparatus" table says
//! what each binary, bench and `BENCH_*.json` alone measures.

pub mod chaos;
pub mod cli;
pub mod comparison;
pub mod report;
pub mod runner;

pub use cli::{apply_cli_extensions, cli_tracer, positional_u64};
pub use comparison::{fig3_workloads, run_comparisons, Comparison};
pub use report::{fmt_mib, fmt_ms, Row, Table};
pub use runner::{
    mc_mode, nilicon_mode, run_batch, run_server, summarize, PerfSummary, WARMUP_EPOCHS,
};
