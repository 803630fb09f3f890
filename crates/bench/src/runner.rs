//! Shared run-and-summarize machinery for the table binaries.

pub use crate::cli::{apply_cli_extensions, cli_tracer};
use nilicon::harness::{RunHarness, RunMode};
use nilicon::metrics::{percentile, RunMetrics};
use nilicon::trace::TraceEvent;
use nilicon::{
    Checkpointer, NiLiConEngine, OptimizationConfig, PlacementEngine, ReplicationConfig,
};
use nilicon_mc::McEngine;
use nilicon_sim::time::Nanos;
use nilicon_sim::{CostModel, SimResult};
use nilicon_workloads::Workload;
use serde::Serialize;

/// Epochs discarded before aggregating (initial full sync + cold
/// infrequent-state cache; the paper's 100-run averages are warm).
pub const WARMUP_EPOCHS: usize = 4;

/// The engine an optimization set calls for: the k-of-n placement engine
/// when `backups > 1`, else the paper's single-backup engine.
///
/// A placement needs the staged ack path, so a Table I staircase row below
/// "+ Add memory staging buffer" keeps the single-backup engine under
/// `--backups`. Every other combination is judged by
/// [`OptimizationConfig::validate`], which both engine constructors go
/// through: `--backups` with `--delta`, or with a shape outside
/// `1 <= k <= n <= 128`, is its error — numbers under a placement label
/// come from a placement — and so is `--quorum` without `--backups`;
/// `--backups` with `--cow` stripes the COW drain's pages.
pub fn replicated_engine(opts: OptimizationConfig) -> SimResult<Box<dyn Checkpointer>> {
    let costs = CostModel::default();
    if opts.backups > 1 && opts.staging_buffer {
        return Ok(Box::new(PlacementEngine::new(opts, costs)?));
    }
    if opts.backups == 1 {
        opts.validate()?; // an error here, where the constructor would panic
    }
    Ok(Box::new(NiLiConEngine::new(opts, costs)))
}

/// A NiLiCon run mode with the given optimization set, plus any EXTENSION
/// knobs passed on the command line (see [`apply_cli_extensions`]). An
/// unknown flag, or a combination the engines refuse, ends the run with its
/// message — except that a Table I staircase row below the staging buffer
/// keeps the synchronous path under `--pipeline` (unless `--cow` stages
/// it), and the single-backup engine under `--backups`, and says so on
/// stderr.
pub fn nilicon_mode(row: OptimizationConfig) -> RunMode {
    let mut opts = apply_cli_extensions(row, std::env::args()).unwrap_or_else(|e| panic!("{e}"));
    let rows = OptimizationConfig::table1_rows();
    let label = rows.iter().find(|(_, r)| *r == row).map_or("this row", |(l, _)| l);
    if opts.pipeline && !opts.staging_buffer && !opts.cow_checkpoint {
        opts.pipeline = false;
        eprintln!("--pipeline: \"{label}\" has no staging buffer; it keeps the synchronous path");
    }
    let engine = replicated_engine(opts).unwrap_or_else(|e| panic!("{e}"));
    if opts.backups > 1 && !engine.supports_placement() {
        eprintln!(
            "--backups {}: \"{label}\" has no staging buffer; it keeps the single-backup engine",
            opts.backups
        );
    }
    RunMode::Replicated(engine)
}

/// The MC baseline run mode.
pub fn mc_mode() -> RunMode {
    RunMode::Replicated(Box::new(McEngine::new(CostModel::default())))
}

/// Post-warmup aggregate of one run.
#[derive(Debug, Clone, Serialize)]
pub struct PerfSummary {
    /// Workload name.
    pub name: String,
    /// Mode label ("stock", "NiLiCon", "MC", or a Table-I row).
    pub mode: String,
    /// Requests (or steps) per virtual second, post-warmup.
    pub throughput: f64,
    /// Mean stop time (ns).
    pub avg_stop: Nanos,
    /// Mean dirty pages per epoch.
    pub avg_dirty: f64,
    /// Stop-time percentiles p10/p50/p90 (ns).
    pub stop_p: [Nanos; 3],
    /// State-size percentiles p10/p50/p90 (bytes).
    pub state_p: [u64; 3],
    /// Active-host core utilization (cores).
    pub active_util: f64,
    /// Backup-host core utilization (cores).
    pub backup_util: f64,
    /// Mean response latency (ns; server workloads).
    pub mean_latency: Nanos,
    /// Fraction of post-warmup wall time spent stopped.
    pub stop_frac: f64,
    /// Fraction of exec CPU burned on tracking faults.
    pub tracking_frac: f64,
}

impl PerfSummary {
    /// Relative reduction in maximum throughput vs stock — the Fig. 3
    /// metric for *server* applications (§VII-C).
    pub fn overhead_vs(&self, stock_throughput: f64) -> f64 {
        if stock_throughput <= 0.0 {
            return 0.0;
        }
        1.0 - self.throughput / stock_throughput
    }

    /// Relative increase in execution time vs stock — the Fig. 3 metric for
    /// *non-interactive* applications (§VII-C): same work, longer time.
    pub fn time_overhead_vs(&self, stock_throughput: f64) -> f64 {
        if self.throughput <= 0.0 {
            return 0.0;
        }
        stock_throughput / self.throughput - 1.0
    }
}

/// Aggregate `metrics` of a run with `epoch_exec`-long execution phases,
/// skipping `warmup` epochs.
pub fn summarize(
    name: &str,
    mode: &str,
    metrics: &RunMetrics,
    epoch_exec: Nanos,
    warmup: usize,
) -> PerfSummary {
    let epochs = if metrics.epochs.len() > warmup {
        &metrics.epochs[warmup..]
    } else {
        &metrics.epochs[..]
    };
    let n = epochs.len().max(1) as f64;
    let wall: Nanos = epochs.iter().map(|e| epoch_exec + e.stop_time).sum();
    let wall_s = (wall as f64 / 1e9).max(1e-12);
    let work: u64 = epochs.iter().map(|e| e.requests_done + e.steps_done).sum();
    let stops: Vec<Nanos> = epochs.iter().map(|e| e.stop_time).collect();
    let states: Vec<u64> = epochs.iter().map(|e| e.state_bytes).collect();
    let stop_total: Nanos = stops.iter().sum();
    let exec_total: Nanos = epochs.iter().map(|e| e.exec_cpu).sum();
    let tracking_total: Nanos = epochs.iter().map(|e| e.tracking_overhead).sum();
    let backup_total: Nanos = epochs.iter().map(|e| e.backup_cpu).sum();

    PerfSummary {
        name: name.to_string(),
        mode: mode.to_string(),
        throughput: work as f64 / wall_s,
        avg_stop: stop_total / epochs.len().max(1) as u64,
        avg_dirty: epochs.iter().map(|e| e.dirty_pages).sum::<u64>() as f64 / n,
        stop_p: [
            percentile(stops.clone(), 10.0),
            percentile(stops.clone(), 50.0),
            percentile(stops, 90.0),
        ],
        state_p: [
            percentile(states.clone(), 10.0),
            percentile(states.clone(), 50.0),
            percentile(states, 90.0),
        ],
        active_util: exec_total as f64 / wall as f64,
        backup_util: backup_total as f64 / wall as f64,
        mean_latency: metrics.mean_latency(),
        stop_frac: stop_total as f64 / wall as f64,
        tracking_frac: tracking_total as f64 / wall as f64,
    }
}

/// Run a server workload for `epochs` epochs under `mode`.
pub fn run_server(w: Workload, mode: RunMode, epochs: u64, label: &str) -> PerfSummary {
    let name = w.name;
    let cfg = ReplicationConfig::default();
    let mut h =
        RunHarness::new(w.spec, w.app, w.behavior, mode, cfg, w.parallelism).expect("harness");
    let tracer = cli_tracer();
    tracer.event_at(
        TraceEvent::RunStart {
            name: name.to_string(),
            mode: label.to_string(),
        },
        0,
    );
    h.set_tracer(tracer);
    h.run_epochs(epochs).expect("run");
    let r = h.finish();
    r.verify.expect("workload validated");
    assert_eq!(r.broken_connections, 0, "{name}: broken connections");
    summarize(name, label, &r.metrics, cfg.epoch_exec, WARMUP_EPOCHS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon::metrics::EpochRecord;

    const E: Nanos = 30_000_000;

    fn metrics(stops: &[Nanos], reqs: &[u64]) -> RunMetrics {
        let mut m = RunMetrics::default();
        for (i, (&stop, &req)) in stops.iter().zip(reqs).enumerate() {
            m.push(EpochRecord {
                epoch: i as u64,
                stop_time: stop,
                dirty_pages: 10,
                state_bytes: 4096 * 10,
                exec_cpu: 30_000_000,
                backup_cpu: 1_000_000,
                requests_done: req,
                ..Default::default()
            });
        }
        m.elapsed = stops.iter().map(|s| 30_000_000 + s).sum();
        m
    }

    #[test]
    fn summarize_skips_warmup() {
        // Two cold epochs with huge stops, then steady state.
        let stops = [200_000_000, 150_000_000, 5_000_000, 5_000_000, 5_000_000, 5_000_000];
        let reqs = [1, 1, 10, 10, 10, 10];
        let m = metrics(&stops, &reqs);
        let s = summarize("x", "y", &m, E, 2);
        assert_eq!(s.avg_stop, 5_000_000, "warmup epochs excluded");
        let per_epoch_wall = 35_000_000.0;
        let expect = 10.0 / (per_epoch_wall / 1e9);
        assert!((s.throughput - expect).abs() < 1.0, "{} vs {expect}", s.throughput);
        // A 120 ms epoch run does the same work in 125 ms per epoch.
        let long = summarize("x", "y", &m, 4 * E, 2);
        let expect = 10.0 / (125_000_000.0 / 1e9);
        assert!((long.throughput - expect).abs() < 1.0, "{} vs {expect}", long.throughput);
    }

    #[test]
    fn summarize_handles_short_runs() {
        let m = metrics(&[1_000_000], &[5]);
        let s = summarize("x", "y", &m, E, 4); // warmup longer than the run
        assert_eq!(s.avg_stop, 1_000_000);
        assert!(s.throughput > 0.0);
    }

    #[test]
    fn overhead_metrics() {
        let m = metrics(&[10_000_000; 10], &[8; 10]);
        let s = summarize("x", "y", &m, E, 2);
        // Server metric: throughput reduction.
        let o = s.overhead_vs(s.throughput * 2.0);
        assert!((o - 0.5).abs() < 1e-9);
        // Batch metric: time increase.
        let t = s.time_overhead_vs(s.throughput * 2.0);
        assert!((t - 1.0).abs() < 1e-9);
        assert_eq!(s.overhead_vs(0.0), 0.0, "degenerate baseline");
    }

    /// The engines behind both modes construct. (`nilicon_mode` itself reads
    /// the process's arguments, which under the test harness are its own.)
    #[test]
    fn modes_construct() {
        let engine = replicated_engine(OptimizationConfig::nilicon()).unwrap();
        assert_eq!(engine.placement(), (1, 1));
        let _ = mc_mode();
    }
}
