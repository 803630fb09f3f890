//! Shared run-and-summarize machinery for the table binaries.

use crate::cli::Cli;
use nilicon::harness::{RunHarness, RunMode, RunResult};
use nilicon::metrics::{percentile, RunMetrics};
use nilicon::trace::TraceEvent;
use nilicon::{
    Checkpointer, NiLiConEngine, OptimizationConfig, PlacementEngine, ReplicationConfig,
};
use nilicon_mc::McEngine;
use nilicon_sim::time::Nanos;
use nilicon_sim::{CostModel, SimResult};
use nilicon_workloads::Workload;

/// Epochs discarded before aggregating (initial full sync + cold
/// infrequent-state cache; the paper's 100-run averages are warm).
pub const WARMUP_EPOCHS: usize = 4;

/// The engine an optimization set calls for: the k-of-n placement engine
/// when `backups > 1`, else the paper's single-backup engine. The set is
/// judged by [`OptimizationConfig::validate`] first, so a combination the
/// chosen layout refuses is an error here, not a panic in its constructor:
/// `--backups` without the staging buffer or with `--delta`, or with a
/// shape outside `1 <= k <= n <= 128` — numbers under a placement label
/// come from a placement — and `--quorum` without `--backups`;
/// `--backups` with `--cow` stripes the COW drain's pages.
pub fn replicated_engine(opts: OptimizationConfig) -> SimResult<Box<dyn Checkpointer>> {
    opts.validate()?;
    let costs = CostModel::default();
    Ok(if opts.backups > 1 {
        Box::new(PlacementEngine::new(opts, costs)?)
    } else {
        Box::new(NiLiConEngine::new(opts, costs))
    })
}

/// The one NiLiCon mode builder, [`Cli::nilicon_mode`] with a combination
/// the engines refuse as the error (the parse's check).
pub(crate) fn nilicon_mode_from(row: OptimizationConfig, cli: &Cli) -> Result<RunMode, String> {
    let mut opts = cli.overlay(row);
    let rows = OptimizationConfig::table1_rows();
    let label = rows.iter().find(|(_, r)| *r == row).map_or("this row", |(l, _)| l);
    if opts.pipeline && !opts.staging_buffer && !opts.cow_checkpoint {
        opts.pipeline = false;
        eprintln!("--pipeline: \"{label}\" has no staging buffer; it keeps the synchronous path");
    }
    if opts.backups > 1 && !opts.staging_buffer {
        eprintln!(
            "--backups {}: \"{label}\" has no staging buffer; it keeps the single-backup engine",
            opts.backups
        );
        (opts.backups, opts.quorum) = (1, 1);
    }
    Ok(RunMode::Replicated(
        replicated_engine(opts).map_err(|e| e.to_string())?,
    ))
}

/// The MC baseline run mode.
pub fn mc_mode() -> RunMode {
    RunMode::Replicated(Box::new(McEngine::new(CostModel::default())))
}

/// Post-warmup aggregate of one run.
#[derive(Debug, Clone)]
pub struct PerfSummary {
    /// Whether the workload is a batch job rather than a server: it picks
    /// the Fig. 3 overhead metric ([`PerfSummary::overhead_vs`]).
    pub batch: bool,
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
}

impl PerfSummary {
    /// The Fig. 3 overhead vs a stock run of the same workload (§VII-C):
    /// for a batch job the relative increase in execution time (same work,
    /// longer time), for a server the relative reduction in maximum
    /// throughput.
    pub fn overhead_vs(&self, stock_throughput: f64) -> f64 {
        let (base, overhead) = if self.batch {
            (self.throughput, stock_throughput / self.throughput - 1.0)
        } else {
            (stock_throughput, 1.0 - self.throughput / stock_throughput)
        };
        if base <= 0.0 {
            0.0
        } else {
            overhead
        }
    }
}

/// Aggregate `metrics` of a run (of a batch job if `batch`) with
/// `epoch_exec`-long execution phases, skipping `warmup` epochs.
pub fn summarize(
    batch: bool,
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
    let backup_total: Nanos = epochs.iter().map(|e| e.backup_cpu).sum();

    PerfSummary {
        batch,
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
    }
}

impl Cli {
    /// A NiLiCon run mode: `row` under this command line's EXTENSION
    /// overlay — except that a Table I staircase row below the staging
    /// buffer keeps the synchronous path under `--pipeline` (unless `--cow`
    /// stages it), and the single-backup engine under `--backups`, and says
    /// so on stderr. The parse built the paper row's mode, so an overlay
    /// the engines refuse never gets this far.
    pub fn nilicon_mode(&self, row: OptimizationConfig) -> RunMode {
        nilicon_mode_from(row, self).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run `w` for `epochs` epochs under `mode` and `cfg`, with a fail-stop
    /// fault of the primary at each virtual time in `faults`, traced into
    /// this command line's tracer behind a `RunStart` marker labelled
    /// `label`. The one run path of every binary that drives the
    /// single-container harness (the chaos cells, which arm schedules
    /// mid-run, aside); the result comes back unchecked, for the caller's
    /// own verdict.
    pub fn run_workload(
        &self,
        w: Workload,
        mode: RunMode,
        cfg: ReplicationConfig,
        faults: &[Nanos],
        epochs: u64,
        label: &str,
    ) -> RunResult {
        let mut h =
            RunHarness::new(w.spec, w.app, w.behavior, mode, cfg, w.parallelism).expect("harness");
        self.tracer.event_at(
            TraceEvent::RunStart {
                name: w.name.to_string(),
                mode: label.to_string(),
            },
            0,
        );
        h.set_tracer(self.tracer.clone());
        for &t in faults {
            h.inject_fault_at(t);
        }
        h.run_epochs(epochs).expect("run");
        h.finish()
    }

    /// Run a server workload for `epochs` epochs under `mode`, check it,
    /// and summarize it.
    pub fn run_server(&self, w: Workload, mode: RunMode, epochs: u64, label: &str) -> PerfSummary {
        let (name, batch) = (w.name, !w.app.is_server());
        let cfg = ReplicationConfig::default();
        let r = self.run_workload(w, mode, cfg, &[], epochs, label);
        r.verify.expect("workload validated");
        assert_eq!(r.broken_connections, 0, "{name}: broken connections");
        summarize(batch, &r.metrics, cfg.epoch_exec, WARMUP_EPOCHS)
    }
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
        let s = summarize(false, &m, E, 2);
        assert_eq!(s.avg_stop, 5_000_000, "warmup epochs excluded");
        let per_epoch_wall = 35_000_000.0;
        let expect = 10.0 / (per_epoch_wall / 1e9);
        assert!((s.throughput - expect).abs() < 1.0, "{} vs {expect}", s.throughput);
        // A 120 ms epoch run does the same work in 125 ms per epoch.
        let long = summarize(false, &m, 4 * E, 2);
        let expect = 10.0 / (125_000_000.0 / 1e9);
        assert!((long.throughput - expect).abs() < 1.0, "{} vs {expect}", long.throughput);
    }

    #[test]
    fn summarize_handles_short_runs() {
        let m = metrics(&[1_000_000], &[5]);
        let s = summarize(false, &m, E, 4); // warmup longer than the run
        assert_eq!(s.avg_stop, 1_000_000);
        assert!(s.throughput > 0.0);
    }

    #[test]
    fn overhead_metrics() {
        let m = metrics(&[10_000_000; 10], &[8; 10]);
        let s = summarize(false, &m, E, 2);
        // Server metric: throughput reduction.
        let o = s.overhead_vs(s.throughput * 2.0);
        assert!((o - 0.5).abs() < 1e-9);
        assert_eq!(s.overhead_vs(0.0), 0.0, "degenerate baseline");
        // Batch metric: time increase.
        let batch = summarize(true, &m, E, 2);
        let t = batch.overhead_vs(batch.throughput * 2.0);
        assert!((t - 1.0).abs() < 1e-9);
        let idle = summarize(true, &metrics(&[0; 4], &[0; 4]), E, 0);
        assert_eq!(idle.overhead_vs(1.0), 0.0, "degenerate run");
    }

    /// The engines behind both modes construct.
    #[test]
    fn modes_construct() {
        let engine = replicated_engine(OptimizationConfig::nilicon()).unwrap();
        assert_eq!(engine.placement(), (1, 1));
        let _ = mc_mode();
    }

    /// A placement without the staging buffer is `validate`'s error from
    /// `replicated_engine`, not a panic in the single-backup constructor,
    /// whatever other knob rides along.
    #[test]
    fn replicated_engine_refuses_what_validate_refuses() {
        let mut opts = OptimizationConfig::nilicon();
        (opts.backups, opts.staging_buffer, opts.pipeline) = (3, false, true);
        let rule = opts.validate().unwrap_err().to_string();
        match replicated_engine(opts) {
            Err(e) => assert_eq!(e.to_string(), rule),
            Ok(e) => panic!("ran as {}", e.name()),
        }
    }
}
