//! The metric catalogue: every end-to-end and per-layer metric by name, with
//! its unit, clock, direction and bound, the workloads it is defined on, and
//! (per layer) the end-to-end metric it is expected to move.

use crate::workloads::Workload::{self, *};

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of the Rust code, calibrated against the reference kernel
    /// where it is a duration: noisy, compared within a bound.
    Host,
    /// The simulation's clock: a function of the seed, compared exactly.
    Virtual,
}

impl Clock {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Virtual => "virtual",
        }
    }
}

/// Relative difference below which two runs of one seed count as identical
/// on a virtual metric (float formatting only; the simulation is exact).
pub const EXACT: f64 = 1e-6;

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Fixed name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Clock it is read from.
    pub clock: Clock,
    /// True when a larger value is better.
    pub higher_is_better: bool,
    /// Share by which two runs of the same code and seed may differ
    /// (`check`): [`EXACT`] for virtual metrics, and for host metrics the
    /// regression bound `BENCHMARK.json` states.
    pub same_seed_bound: f64,
    /// Workloads the metric is defined on; elsewhere it is left out.
    pub defined_on: &'static [Workload],
}

const SERVERS: &[Workload] = &[RedisPaper, RedisStaged, KnRepair];
const WITH_OVERHEAD: &[Workload] = &[RedisPaper, RedisStaged, StormSync, StormStaged, KnRepair];
const WITH_LATENCY: &[Workload] = &[RedisPaper, RedisStaged, KnRepair, Fleet8];
const WITH_FAULT: &[Workload] = &[FailoverSsdb, KnRepair];

const fn host(name: &'static str, unit: &'static str, same_seed_bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        clock: Clock::Host,
        higher_is_better: false,
        same_seed_bound,
        defined_on: &Workload::ALL,
    }
}

const fn virt(name: &'static str, unit: &'static str, defined_on: &'static [Workload]) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        clock: Clock::Virtual,
        higher_is_better: false,
        same_seed_bound: EXACT,
        defined_on,
    }
}

/// The 15 end-to-end metrics, in report order; `README.md` defines each.
pub const END_TO_END: [EndToEnd; 15] = [
    // The issue's 15 % and 10 % did not hold on this box, whose speed drifts
    // by tens of percent: host times are calibrated against a reference kernel
    // (`crate::calib`), which brought ten-run spreads from 4-26 % to 2-9 %.
    host("setup_s", "s", 0.25),
    host("host_us_per_epoch", "us", 0.25),
    host("peak_rss_mb", "MiB", 0.10),
    virt("overhead_pct", "%", WITH_OVERHEAD),
    EndToEnd {
        higher_is_better: true,
        ..virt("throughput_rps", "1/s", &Workload::ALL)
    },
    virt("stop_ms_p50", "ms", &Workload::ALL),
    virt("stop_ms_p90", "ms", &Workload::ALL),
    virt("latency_ms_p50", "ms", WITH_LATENCY),
    virt("latency_ms_p90", "ms", WITH_LATENCY),
    virt("release_wait_ms_p50", "ms", SERVERS),
    virt("wire_mb_per_epoch", "MB", &Workload::ALL),
    virt("backup_cores", "cores", &Workload::ALL),
    virt("recovery_ms_p50", "ms", WITH_FAULT),
    // kn_repair's dozen runs support a median, not a p90.
    virt("recovery_ms_p90", "ms", &[FailoverSsdb]),
    virt("redundancy_gap_ms_p50", "ms", &[KnRepair]),
];

/// Look an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

impl EndToEnd {
    /// Whether the metric is defined on `w`.
    pub fn on(&self, w: Workload) -> bool {
        self.defined_on.contains(&w)
    }

    /// Whether it is defined on every workload, which is what the driver's
    /// contract asks of an `end_to_end` entry of `BENCHMARK.json`.
    pub fn universal(&self) -> bool {
        Workload::ALL.iter().all(|w| self.on(*w))
    }
}

/// Where a per-layer figure comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Virtual span from the repo's public in-memory tracer.
    V,
    /// Host `Instant` in a benchmark-owned decorator around a trait call.
    H,
    /// Host time of a direct call into the layer's public function.
    P,
    /// A count.
    C,
}

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<metric>`; the layer is the module's name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Where the figure comes from.
    pub source: Source,
    /// Which end-to-end metric it should move, and on which workloads.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    source: Source,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        source,
        moves,
    }
}

use Source::{C, H, P, V};

const HOST_STORM: &str = "host_us_per_epoch on storm_* (most of it), less on redis_*";
const HOST_STAGED: &str = "host_us_per_epoch on *_staged only";
const HOST_FAULT: &str = "host_us_per_epoch and recovery_ms_* on failover_ssdb and kn_repair";

/// Every per-layer metric, grouped by layer.
pub const PER_LAYER: [PerLayer; 65] = [
    layer("core_engine.checkpoint_host_us", "us", H, HOST_STORM),
    layer("core_engine.commit_host_us", "us", H, HOST_STORM),
    layer("core_engine.pipeline_advance_host_us", "us", H, HOST_STAGED),
    layer(
        "core_engine.log_ship_host_us",
        "us",
        H,
        "host_us_per_epoch on redis_staged",
    ),
    layer(
        "core_engine.failover_host_ms",
        "ms",
        H,
        "host_us_per_epoch on failover_ssdb",
    ),
    layer("core_engine.freeze_us", "us", V, "stop_ms_p50 everywhere"),
    layer(
        "core_engine.local_copy_us",
        "us",
        V,
        "stop_ms_p50 on sync workloads (~0 staged)",
    ),
    layer(
        "core_engine.backpressure_us",
        "us",
        V,
        "stop_ms_p90 on *_staged and fleet_8",
    ),
    layer(
        "core_engine.stalled_epochs",
        "count",
        C,
        "stop_ms_p90 on *_staged",
    ),
    layer(
        "core_engine.transfer_us",
        "us",
        V,
        "release_wait_ms_p50, latency_ms_* on redis_paper",
    ),
    layer(
        "core_engine.ack_us",
        "us",
        V,
        "release_wait_ms_p50, latency_ms_* on redis_paper",
    ),
    layer(
        "core_engine.cow_copy_us",
        "us",
        V,
        "nothing on redis_staged (hidden behind log commit); ack path of storm_staged",
    ),
    layer(
        "core_engine.stage_wait_us",
        "us",
        V,
        "nothing on redis_staged (hidden behind log commit)",
    ),
    layer(
        "criu_dump.dump_us",
        "us",
        V,
        "stop_ms_p50, wire_mb_per_epoch everywhere",
    ),
    layer(
        "criu_dump.dirty_pages",
        "count",
        C,
        "stop_ms_p50, wire_mb_per_epoch everywhere",
    ),
    layer(
        "criu_dump.host_ns_per_page",
        "ns/page",
        P,
        "host_us_per_epoch on storm_sync",
    ),
    layer(
        "criu_delta.encode_us",
        "us",
        V,
        "backup_cores and the ack path on *_staged",
    ),
    layer(
        "criu_delta.wire_ratio",
        "ratio",
        C,
        "wire_mb_per_epoch on *_staged",
    ),
    layer(
        "criu_delta.zero_share",
        "ratio",
        C,
        "wire_mb_per_epoch on *_staged",
    ),
    layer(
        "criu_delta.full_share",
        "ratio",
        C,
        "wire_mb_per_epoch on *_staged",
    ),
    layer(
        "criu_delta.encode_host_ns_per_page",
        "ns/page",
        P,
        "host_us_per_epoch on storm_staged",
    ),
    layer(
        "criu_delta.apply_host_ns_per_page",
        "ns/page",
        P,
        "host_us_per_epoch on storm_staged",
    ),
    layer(
        "core_backup.ingest_us",
        "us",
        V,
        "backup_cores, release_wait_ms_p50",
    ),
    layer(
        "core_backup.ingest_host_ns_per_page",
        "ns/page",
        P,
        "host_us_per_epoch on storm_*",
    ),
    layer("core_backup.stored_pages", "count", C, "peak_rss_mb"),
    layer(
        "criu_pagestore.commit_host_ns_per_page",
        "ns/page",
        P,
        "host_us_per_epoch on storm_*",
    ),
    layer(
        "sim_mem.write_host_ns_per_page",
        "ns/page",
        P,
        "host_us_per_epoch on redis_* and storm_*",
    ),
    layer(
        "sim_mem.scan_host_ns_per_page",
        "ns/page",
        P,
        "host_us_per_epoch on redis_* and storm_*",
    ),
    layer(
        "sim_mem.cow_protect_host_ns_per_page",
        "ns/page",
        P,
        HOST_STAGED,
    ),
    layer(
        "sim_mem.cow_drain_host_ns_per_page",
        "ns/page",
        P,
        HOST_STAGED,
    ),
    layer(
        "sim_mem.cow_faults_per_epoch",
        "count",
        C,
        "overhead_pct on *_staged",
    ),
    layer("sim_mem.tracking_overhead_us", "us", V, "overhead_pct"),
    layer(
        "sim_net.send_recv_host_ns_per_kb",
        "ns/KiB",
        P,
        "host_us_per_epoch on redis_* and fleet_8; nothing on storm_*",
    ),
    layer(
        "sim_net.sock_ckpt_host_ns_per_sock",
        "ns/sock",
        P,
        "host_us_per_epoch on fleet_8 (512 sockets dumped per round) and redis_*",
    ),
    layer(
        "sim_net.held_packets_per_epoch",
        "count",
        C,
        "release_wait_ms_p50",
    ),
    layer(
        "workloads.app_host_us",
        "us",
        H,
        "host_us_per_epoch on redis_*",
    ),
    layer(
        "bench_gen.client_host_us",
        "us",
        H,
        "host_us_per_epoch on redis_*; the load generator's own cost, never the program's",
    ),
    layer(
        "core_harness.self_host_us",
        "us",
        H,
        "host_us_per_epoch on redis_* (core::traffic, sim::net pumping, detector, metrics)",
    ),
    layer(
        "core_harness.sim_speed",
        "x",
        H,
        "derived: virtual seconds per host second",
    ),
    layer(
        "core_replay.log_ship_us",
        "us",
        V,
        "release_wait_ms_p50 on redis_staged",
    ),
    layer(
        "core_replay.events_per_epoch",
        "count",
        C,
        "release_wait_ms_p50 on redis_staged",
    ),
    layer(
        "core_placement.shard_commit_us",
        "us",
        V,
        "release_wait_ms_p50, wire_mb_per_epoch on kn_repair",
    ),
    layer(
        "core_placement.storage_ratio",
        "ratio",
        C,
        "wire_mb_per_epoch on kn_repair",
    ),
    layer(
        "core_placement.repair_stream_ms",
        "ms",
        V,
        "redundancy_gap_ms_p50",
    ),
    layer(
        "core_placement.repair_chunks",
        "count",
        C,
        "redundancy_gap_ms_p50",
    ),
    layer(
        "criu_shard.encode_host_ns_per_page",
        "ns/page",
        P,
        "host_us_per_epoch on kn_repair",
    ),
    layer(
        "criu_shard.decode_host_ns_per_page",
        "ns/page",
        P,
        "host_us_per_epoch on kn_repair",
    ),
    layer("core_detector.detection_ms_p50", "ms", V, "recovery_ms_*"),
    layer(
        "core_detector.missed_beats",
        "count",
        C,
        "recovery_ms_* (beats missed per failover)",
    ),
    layer("core_detector.false_suspicions", "count", C, "must be 0"),
    layer("criu_restore.restore_ms", "ms", V, "recovery_ms_*"),
    layer("core_harness.arp_ms", "ms", V, "recovery_ms_*"),
    layer("core_harness.tcp_ms", "ms", V, "recovery_ms_*"),
    layer("core_harness.others_ms", "ms", V, "recovery_ms_*"),
    layer("criu_restore.host_ms", "ms", P, HOST_FAULT),
    layer(
        "criu_imgfile.roundtrip_host_ns_per_page",
        "ns/page",
        P,
        HOST_FAULT,
    ),
    layer("drbd.ship_us", "us", V, "stop_ms_* on failover_ssdb only"),
    layer(
        "drbd.pages_committed_on_failover",
        "count",
        C,
        "recovery_ms_* on failover_ssdb only",
    ),
    layer(
        "core_fleet.queue_wait_ms_p50",
        "ms",
        V,
        "stop_ms_p90, latency_ms_p90 on fleet_8",
    ),
    layer(
        "core_fleet.fair_wait_ms_p50",
        "ms",
        V,
        "latency_ms_p90 on fleet_8",
    ),
    layer(
        "core_fleet.min_live_bits",
        "count",
        C,
        "liveness bits in the sparsest heartbeat interval; a drop means a lane stopped beating",
    ),
    layer(
        "core_trace.host_overhead_pct",
        "%",
        H,
        "reported, not gated: traced vs plain host_us_per_epoch",
    ),
    layer(
        "core_trace.events_per_epoch",
        "count",
        C,
        "reported, not gated",
    ),
    layer(
        "core_trace.unattributed_us",
        "us",
        V,
        "must be 0: stop/ack time not covered by spans",
    ),
    layer(
        "paper.redis_stop_gap_pct",
        "%",
        V,
        "reported, not gated: redis_paper mean stop vs Table III's 18.9 ms",
    ),
];

/// End-to-end metrics the driver's contract can carry as `end_to_end`: the
/// ones defined on all seven workloads.
pub fn contract_end_to_end() -> Vec<&'static EndToEnd> {
    END_TO_END.iter().filter(|m| m.universal()).collect()
}

/// `(name, unit)` of everything a `--trace 1` run prints: the per-layer
/// metrics, then the end-to-end metrics that only some workloads define
/// (0 where undefined, since the contract wants every name on every run).
pub fn contract_per_layer() -> Vec<(&'static str, &'static str)> {
    PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(
            END_TO_END
                .iter()
                .filter(|m| !m.universal())
                .map(|m| (m.name, m.unit)),
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} [{unit}]");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert_eq!(contract_end_to_end().len(), 8);
        assert!(contract_end_to_end().iter().any(|m| m.name == "setup_s"));
        assert_eq!(contract_per_layer().len(), 65 + 7);
    }

    #[test]
    fn tail_percentiles_are_defined_only_where_the_sample_supports_them() {
        // kn_repair has 12 recovery samples: a median, never a p90.
        assert!(end_to_end("recovery_ms_p50").unwrap().on(KnRepair));
        assert!(!end_to_end("recovery_ms_p90").unwrap().on(KnRepair));
        assert!(end_to_end("recovery_ms_p90").unwrap().on(FailoverSsdb));
    }
}
