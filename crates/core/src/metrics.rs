//! Per-epoch metrics and aggregation — the raw material of Tables III-VI.

use nilicon_sim::time::Nanos;
use serde::Serialize;

/// One epoch's measurements.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct EpochRecord {
    /// Epoch number.
    pub epoch: u64,
    /// Container/VM stop time (freeze + dump + local copy).
    pub stop_time: Nanos,
    /// Dirty pages captured.
    pub dirty_pages: u64,
    /// Bytes transferred to the backup for this epoch.
    pub state_bytes: u64,
    /// Time from resume until the backup's ack (output-release delay beyond
    /// the stop).
    pub ack_delay: Nanos,
    /// CPU the container actually consumed during the execution phase.
    pub exec_cpu: Nanos,
    /// Runtime overhead charged to page-tracking faults during execution.
    pub tracking_overhead: Nanos,
    /// Backup CPU spent ingesting this epoch's state.
    pub backup_cpu: Nanos,
    /// Requests completed this epoch (server workloads).
    pub requests_done: u64,
    /// Batch steps completed this epoch (batch workloads).
    pub steps_done: u64,
}

/// Aggregated metrics over a run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunMetrics {
    /// All epoch records, in order.
    pub epochs: Vec<EpochRecord>,
    /// Total virtual run time.
    pub elapsed: Nanos,
    /// Total requests completed.
    pub requests_total: u64,
    /// Total batch steps completed.
    pub steps_total: u64,
    /// Total backup CPU.
    pub backup_cpu_total: Nanos,
    /// Total primary exec CPU.
    pub exec_cpu_total: Nanos,
    /// Per-response client latencies (server workloads).
    pub response_latencies: Vec<Nanos>,
    /// Per-response output-release waits: time from a response being ready
    /// until it is externalizable. Epoch-ack release waits for the next
    /// checkpoint commit (~tens of ms); hybrid-replay release waits only for
    /// the response's log chunk to commit (~tens of µs).
    pub release_waits: Vec<Nanos>,
}

impl RunMetrics {
    /// Record one epoch.
    pub fn push(&mut self, r: EpochRecord) {
        self.requests_total += r.requests_done;
        self.steps_total += r.steps_done;
        self.backup_cpu_total += r.backup_cpu;
        self.exec_cpu_total += r.exec_cpu;
        self.epochs.push(r);
    }

    /// Average stop time (Table III).
    pub fn avg_stop(&self) -> Nanos {
        avg(self.epochs.iter().map(|e| e.stop_time))
    }

    /// Average dirty pages per epoch (Table III).
    pub fn avg_dirty_pages(&self) -> f64 {
        if self.epochs.is_empty() {
            return 0.0;
        }
        self.epochs.iter().map(|e| e.dirty_pages).sum::<u64>() as f64 / self.epochs.len() as f64
    }

    /// Stop-time percentile (Table IV).
    pub fn stop_percentile(&self, p: f64) -> Nanos {
        percentile(self.epochs.iter().map(|e| e.stop_time).collect(), p)
    }

    /// State-size percentile in bytes (Table IV).
    pub fn state_percentile(&self, p: f64) -> u64 {
        percentile(self.epochs.iter().map(|e| e.state_bytes).collect(), p)
    }

    /// Requests per virtual second (server throughput).
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed == 0 {
            return 0.0;
        }
        self.requests_total as f64 / (self.elapsed as f64 / 1e9)
    }

    /// Mean response latency (Table VI).
    pub fn mean_latency(&self) -> Nanos {
        avg(self.response_latencies.iter().copied())
    }

    /// Mean output-release wait (the Table-VI latency component that hybrid
    /// replay attacks).
    pub fn mean_release_wait(&self) -> Nanos {
        avg(self.release_waits.iter().copied())
    }

    /// Output-release-wait percentile.
    pub fn release_wait_percentile(&self, p: f64) -> Nanos {
        percentile(self.release_waits.clone(), p)
    }

    /// Backup core utilization: backup CPU / elapsed (Table V).
    pub fn backup_utilization(&self) -> f64 {
        if self.elapsed == 0 {
            return 0.0;
        }
        self.backup_cpu_total as f64 / self.elapsed as f64
    }

    /// Active (primary) core utilization: exec CPU / elapsed (Table V).
    pub fn active_utilization(&self) -> f64 {
        if self.elapsed == 0 {
            return 0.0;
        }
        self.exec_cpu_total as f64 / self.elapsed as f64
    }

    /// Fraction of total overhead attributable to stop time vs runtime
    /// tracking: `(stop_total, tracking_total)` (Fig. 3 breakdown).
    pub fn overhead_split(&self) -> (Nanos, Nanos) {
        (
            self.epochs.iter().map(|e| e.stop_time).sum(),
            self.epochs.iter().map(|e| e.tracking_overhead).sum(),
        )
    }
}

fn avg(it: impl Iterator<Item = Nanos>) -> Nanos {
    let mut sum = 0u128;
    let mut n = 0u128;
    for v in it {
        sum += v as u128;
        n += 1;
    }
    sum.checked_div(n).unwrap_or(0) as Nanos
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample.
pub fn percentile<T: Ord + Copy + Default>(mut v: Vec<T>, p: f64) -> T {
    if v.is_empty() {
        return T::default();
    }
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(v.clone(), 10.0), 10);
        assert_eq!(percentile(v.clone(), 50.0), 50);
        assert_eq!(percentile(v.clone(), 90.0), 90);
        assert_eq!(percentile(v, 100.0), 100);
        assert_eq!(percentile(vec![42u64], 10.0), 42);
        assert_eq!(percentile(Vec::<u64>::new(), 50.0), 0);
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty sample: the type's default, at any p.
        assert_eq!(percentile(Vec::<u64>::new(), 0.0), 0);
        assert_eq!(percentile(Vec::<u64>::new(), 100.0), 0);
        // Single element: that element, at any p.
        assert_eq!(percentile(vec![7u64], 0.0), 7);
        assert_eq!(percentile(vec![7u64], 50.0), 7);
        assert_eq!(percentile(vec![7u64], 100.0), 7);
        // p0 clamps to the minimum, p100 to the maximum (nearest-rank).
        let v = vec![30u64, 10, 20];
        assert_eq!(percentile(v.clone(), 0.0), 10);
        assert_eq!(percentile(v, 100.0), 30);
        // Two elements: p50 is the lower, anything above is the upper.
        assert_eq!(percentile(vec![1u64, 2], 50.0), 1);
        assert_eq!(percentile(vec![1u64, 2], 51.0), 2);
    }

    #[test]
    fn aggregation() {
        let mut m = RunMetrics::default();
        for i in 1..=4u64 {
            m.push(EpochRecord {
                epoch: i,
                stop_time: i * 1000,
                dirty_pages: 10 * i,
                state_bytes: 4096 * i,
                exec_cpu: 30_000_000,
                backup_cpu: 1_000_000,
                requests_done: 5,
                ..Default::default()
            });
        }
        m.elapsed = 4 * 40_000_000;
        assert_eq!(m.avg_stop(), 2500);
        assert_eq!(m.avg_dirty_pages(), 25.0);
        assert_eq!(m.requests_total, 20);
        assert_eq!(m.stop_percentile(50.0), 2000);
        assert_eq!(m.state_percentile(90.0), 4096 * 4);
        assert!((m.throughput_rps() - 125.0).abs() < 1e-9);
        assert!((m.backup_utilization() - 0.025).abs() < 1e-9);
        assert!((m.active_utilization() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn latency_mean() {
        let m = RunMetrics {
            response_latencies: vec![10, 20, 30],
            ..Default::default()
        };
        assert_eq!(m.mean_latency(), 20);
        let empty = RunMetrics::default();
        assert_eq!(empty.mean_latency(), 0);
    }

    #[test]
    fn overhead_split_sums() {
        let mut m = RunMetrics::default();
        m.push(EpochRecord {
            stop_time: 100,
            tracking_overhead: 7,
            ..Default::default()
        });
        m.push(EpochRecord {
            stop_time: 50,
            tracking_overhead: 3,
            ..Default::default()
        });
        assert_eq!(m.overhead_split(), (150, 10));
    }
}
