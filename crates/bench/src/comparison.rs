//! The Fig. 3 / Tables III-V comparison runs: every benchmark under stock,
//! NiLiCon, and MC, from which four of the paper's exhibits derive.

use crate::runner::{mc_mode, nilicon_mode, run_server, PerfSummary};
use nilicon::harness::RunMode;
use nilicon::{OptimizationConfig, ReplicationConfig};
use nilicon_workloads::{Scale, Workload};
use serde::Serialize;

/// Paper Fig. 3: (benchmark, MC %, NiLiCon %). The values follow the
/// DESIGN.md reconstruction of the figure's OCR-garbled labels (anchored on
/// the stated 19-67% NiLiCon range and Table I's 31% streamcluster).
pub const PAPER_FIG3: [(&str, f64, f64); 7] = [
    ("Swaptions", 12.54, 19.48),
    ("Streamcluster", 25.96, 31.83),
    ("Redis", 71.85, 67.32),
    ("SSDB", 32.44, 33.71),
    ("Node", 38.97, 58.32),
    ("Lighttpd", 30.18, 37.67),
    ("DJCMS", 52.66, 54.67),
];

/// Paper Table III: (benchmark, MC stop ms, NiLiCon stop ms, MC dirty,
/// NiLiCon dirty).
pub const PAPER_TABLE3: [(&str, f64, f64, f64, f64); 7] = [
    ("Swaptions", 2.4, 5.1, 212.0, 46.0),
    ("Streamcluster", 3.0, 7.4, 462.0, 303.0),
    ("Redis", 9.3, 18.9, 6200.0, 6300.0),
    ("SSDB", 3.0, 10.4, 1107.0, 590.0),
    ("Node", 9.4, 38.2, 6400.0, 5400.0),
    ("Lighttpd", 4.8, 25.0, 2900.0, 1600.0),
    ("DJCMS", 4.5, 19.1, 2800.0, 3000.0),
];

/// Paper Table IV: (benchmark, stop p10/p50/p90 in ms, state p10/p50/p90).
pub const PAPER_TABLE4: [(&str, [f64; 3], [&str; 3]); 7] = [
    ("Swaptions", [5.1, 5.1, 5.2], ["189K", "193K", "201K"]),
    ("Streamcluster", [6.3, 6.4, 13.1], ["257K", "269K", "306K"]),
    ("Redis", [15.0, 18.0, 20.0], ["17.9M", "24.2M", "30.0M"]),
    ("SSDB", [9.0, 10.0, 11.0], ["1.43M", "2.88M", "3.41M"]),
    ("Node", [38.0, 41.0, 46.0], ["22.7M", "24.2M", "25.2M"]),
    ("Lighttpd", [20.0, 25.0, 35.0], ["2.05M", "7.17M", "14.65M"]),
    ("DJCMS", [16.0, 18.0, 21.0], ["53.1K", "9.5M", "13.3M"]),
];

/// Paper Table V: (benchmark, active cores, backup cores).
pub const PAPER_TABLE5: [(&str, f64, f64); 7] = [
    ("Swaptions", 3.96, 0.07),
    ("Streamcluster", 3.91, 0.08),
    ("Redis", 0.98, 0.28),
    ("SSDB", 1.70, 0.12),
    ("Node", 1.01, 0.40),
    ("Lighttpd", 3.95, 0.18),
    ("DJCMS", 1.41, 0.26),
];

/// One benchmark's triple of runs.
#[derive(Debug, Clone, Serialize)]
pub struct Comparison {
    /// Benchmark name.
    pub name: String,
    /// Unreplicated run.
    pub stock: PerfSummary,
    /// NiLiCon run.
    pub nilicon: PerfSummary,
    /// MC run.
    pub mc: PerfSummary,
    /// True for the non-interactive (execution-time-metric) benchmarks.
    pub batch: bool,
}

impl Comparison {
    /// Fig. 3 overhead (%): throughput reduction for servers, execution-time
    /// increase for batch.
    pub fn overhead_pct(&self, s: &PerfSummary) -> f64 {
        if self.batch {
            s.time_overhead_vs(self.stock.throughput) * 100.0
        } else {
            s.overhead_vs(self.stock.throughput) * 100.0
        }
    }

    /// Fig. 3 breakdown: `(stopped%, runtime%)` components of the overhead.
    pub fn breakdown_pct(&self, s: &PerfSummary) -> (f64, f64) {
        let total = self.overhead_pct(s);
        // Stop time adds dead time per epoch: avg_stop/epoch_exec.
        let epoch = ReplicationConfig::default().epoch_exec as f64;
        let stopped = (s.avg_stop as f64 / epoch * 100.0).min(total.max(0.0));
        (stopped, (total - stopped).max(0.0))
    }
}

/// A boxed workload factory (each run needs a fresh instance).
pub type WorkloadBuilder = Box<dyn Fn() -> Workload>;

/// The Fig. 3 benchmark list (paper order) as workload builders.
pub fn fig3_workloads(scale: Scale) -> Vec<(&'static str, bool, WorkloadBuilder)> {
    vec![
        (
            "Swaptions",
            true,
            Box::new(move || nilicon_workloads::swaptions(scale, 4)),
        ),
        (
            "Streamcluster",
            true,
            Box::new(move || nilicon_workloads::streamcluster(scale, 4)),
        ),
        (
            "Redis",
            false,
            Box::new(move || nilicon_workloads::redis(scale, 8)),
        ),
        (
            "SSDB",
            false,
            Box::new(move || nilicon_workloads::ssdb(scale, 8)),
        ),
        (
            "Node",
            false,
            Box::new(move || nilicon_workloads::node(scale, 128)),
        ),
        (
            "Lighttpd",
            false,
            Box::new(move || nilicon_workloads::lighttpd(4, 32)),
        ),
        (
            "DJCMS",
            false,
            Box::new(move || nilicon_workloads::djcms(16)),
        ),
    ]
}

/// Run the full three-way comparison over all seven benchmarks.
pub fn run_comparisons(scale: Scale, epochs: u64) -> Vec<Comparison> {
    fig3_workloads(scale)
        .into_iter()
        .map(|(name, batch, build)| {
            eprintln!("[{name}] stock...");
            let stock = run_server(build(), RunMode::Unreplicated, epochs, "stock");
            eprintln!("[{name}] NiLiCon...");
            let nilicon = run_server(
                build(),
                nilicon_mode(OptimizationConfig::nilicon()),
                epochs,
                "NiLiCon",
            );
            eprintln!("[{name}] MC...");
            let mc = run_server(build(), mc_mode(), epochs, "MC");
            Comparison {
                name: name.to_string(),
                stock,
                nilicon,
                mc,
                batch,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `comparison_report` looks each benchmark up by name in these tables,
    /// so a renamed or reordered workload must fail here, not panic there.
    #[test]
    fn paper_constants_name_the_comparison_set_in_order() {
        let workloads: Vec<&str> = fig3_workloads(Scale::small())
            .into_iter()
            .map(|(name, ..)| name)
            .collect();
        assert_eq!(workloads, PAPER_FIG3.map(|r| r.0));
        assert_eq!(workloads, PAPER_TABLE3.map(|r| r.0));
        assert_eq!(workloads, PAPER_TABLE4.map(|r| r.0));
        assert_eq!(workloads, PAPER_TABLE5.map(|r| r.0));
    }

    #[test]
    fn bundles_are_consistent() {
        for (name, batch, build) in fig3_workloads(Scale::small()) {
            let w = build();
            assert!(w.parallelism > 0.5, "{name}");
            assert_eq!(batch, !w.app.is_server(), "{name}");
            assert_eq!(w.behavior.is_some(), w.app.is_server(), "{name}");
            if w.app.is_server() {
                assert!(w.spec.listen_port.is_some(), "{name}");
            }
            assert!(w.spec.heap_pages > 0, "{name}");
        }
    }
}
