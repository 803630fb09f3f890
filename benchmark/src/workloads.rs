//! The seven named workloads. Each function runs one repetition — set-up,
//! warm-up, the timed epochs, the correctness checks — and returns a [`Rep`].
//!
//! Sizes below are the ISSUE's prototype sizes cut to fit the driver's total
//! run-time cap; `benchmark/README.md` records both. `Job::divisor` divides
//! every count once more for `--quick` smoke runs.

use crate::calib::Mix;
use crate::defs::Source;
use crate::gen::{ClientStats, DirtyEcho, Rng, SeededEcho, SeededYcsb, StormApp, StormShadow};
use crate::probes::{self, Shape};
use crate::run::{
    host_layers, peak_rss_kb, EpochTimer, Layer, Mark, Mode, Tooling, TracePool, Virt, VirtPool,
    WARMUP_EPOCHS,
};
use nilicon::fleet::{FleetScheduler, LaneSpec};
use nilicon::harness::{RunMode, RunResult};
use nilicon::trace::{RingHandle, TraceRecord};
use nilicon::{
    EpochRecord, NiLiConEngine, OptimizationConfig, PlacementEngine, ReplicationConfig, RunHarness,
};
use nilicon_container::{Application, ContainerSpec};
use nilicon_sim::time::{Nanos, MILLISECOND};
use nilicon_sim::{CostModel, SimError, SimResult, PAGE_SIZE};
use nilicon_workloads::{RedisApp, Scale, SsdbApp};
use serde::Value;
use std::rc::Rc;

/// A benchmark workload. The names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-configuration Redis under the plain engine.
    RedisPaper,
    /// The same traffic with delta, COW, pipeline and replay on.
    RedisStaged,
    /// Engine-dominated page storm, paper engine.
    StormSync,
    /// The same write script with delta, COW and pipeline on.
    StormStaged,
    /// Many short SSDB runs, one primary fault each.
    FailoverSsdb,
    /// Replica loss, coded repair, then a primary fault under (2,3) placement.
    KnRepair,
    /// Eight staggered echo lanes on one primary/backup pair.
    Fleet8,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 7] = [
        Workload::RedisPaper,
        Workload::RedisStaged,
        Workload::StormSync,
        Workload::StormStaged,
        Workload::FailoverSsdb,
        Workload::KnRepair,
        Workload::Fleet8,
    ];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RedisPaper => "redis_paper",
            Workload::RedisStaged => "redis_staged",
            Workload::StormSync => "storm_sync",
            Workload::StormStaged => "storm_staged",
            Workload::FailoverSsdb => "failover_ssdb",
            Workload::KnRepair => "kn_repair",
            Workload::Fleet8 => "fleet_8",
        }
    }

    /// Look a workload up by name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The part of the calibration kernel whose time tracks this workload's
    /// (measured; see [`Mix`]).
    pub fn kernel_mix(self) -> Mix {
        match self {
            Workload::StormSync | Workload::StormStaged => Mix::Large,
            Workload::Fleet8 => Mix::Small,
            _ => Mix::Both,
        }
    }

    /// What runs, with its closed-loop client count and timed size.
    pub fn what(self) -> &'static str {
        match self {
            Workload::RedisPaper => {
                "RedisApp at Scale::bench (30K x 1 KiB), 8 closed-loop YCSB clients, \
                 1000-op batches, 50% writes, paper engine; 100 timed epochs"
            }
            Workload::RedisStaged => {
                "redis_paper's traffic and seed with delta + cow + pipeline + replay on; \
                 100 timed epochs"
            }
            Workload::StormSync => {
                "batch app touching ~3000 distinct pages/epoch of a 16384-page heap \
                 (1/4 whole-page, 3/4 64-byte writes), no clients, paper engine; 200 timed epochs"
            }
            Workload::StormStaged => {
                "storm_sync's write script and seed with delta + cow + pipeline on; \
                 200 timed epochs"
            }
            Workload::FailoverSsdb => {
                "100 short runs of SsdbApp at Scale::small, 4 closed-loop YCSB clients, paper \
                 engine, one primary fault per run at a seed-drawn instant inside an epoch"
            }
            Workload::KnRepair => {
                "12 runs of small Redis, 4 closed-loop clients, PlacementEngine (2,3): replica \
                 loss, coded repair, then a primary fault; both instants seed-drawn"
            }
            Workload::Fleet8 => {
                "FleetScheduler, 8 staggered echo lanes, 120 ms epoch, 256-page dirty footprint, \
                 40 to 104 closed-loop clients per lane (512 in all); 64 warm-up rounds to drain the initial syncs, 240 timed rounds"
            }
        }
    }

    /// Why the workload is in the set (one line, also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::RedisPaper => {
                "paper's memory-stressing server row; host time spread over engine, app and \
                 harness; every extension off, so its virtual numbers anchor paper fidelity"
            }
            Workload::RedisStaged => {
                "same layers used through COW drain, delta encode, staged channels and log \
                 commit; splits from redis_paper when a change helps one path and costs the other"
            }
            Workload::StormSync => {
                "engine-dominated host time at 3000 dirty pages per epoch, where a dump, local \
                 copy or page-store change shows; byte-compares the backup image"
            }
            Workload::StormStaged => {
                "mechanism/bypass pair of storm_sync: a COW-drain or delta change should move \
                 this one and leave storm_sync flat"
            }
            Workload::FailoverSsdb => {
                "time without service is why the system exists; SSDB is the only persistent \
                 app, so this alone exercises drbd and sim::fs; 100 samples support a p90"
            }
            Workload::KnRepair => {
                "only coverage of the placement engine and shard codec: striping cost, the \
                 window without full redundancy, recovery from decoded fragments"
            }
            Workload::Fleet8 => {
                "second epoch driver with the shared dump service and fair-share link, below \
                 the saturation knee so queue and convoy waits are small but non-zero"
            }
        }
    }
}

/// One repetition to run.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the benchmark's generators.
    pub seed: u64,
    /// Instrumentation.
    pub mode: Mode,
    /// Every epoch and run count is divided by this (1 = comparable sizes).
    pub divisor: u64,
}

impl Job {
    fn count(&self, full: u64, floor: u64) -> u64 {
        (full / self.divisor.max(1)).max(floor)
    }
}

/// What one repetition measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Host seconds of construction, preload, stock baseline, initial sync
    /// and warm-up (summed over runs for the multi-run workloads), at the
    /// reference machine's speed (see [`crate::calib`]).
    pub setup_s: f64,
    /// Host ns of each timed `run_epochs(1)` (fleet: one round / lanes).
    pub epoch_host_ns: Vec<u64>,
    /// Calibration-kernel ns beside each timed call.
    pub kernel_ns: Vec<u64>,
    /// Host seconds the timed calls took in all, as measured.
    pub timed_s: f64,
    /// End-to-end virtual metrics that are defined on this workload.
    pub virt: Virt,
    /// Sample counts behind the percentile families.
    pub samples: Vec<(&'static str, usize)>,
    /// Requests issued (storm: steps run).
    pub ops_attempted: u64,
    /// Requests lost or wrong, broken connections, unrecovered faults,
    /// split-brain promotions and image mismatches.
    pub ops_failed: u64,
    /// One line per kind of failure seen.
    pub failures: Vec<String>,
    /// Per-layer figures (traced repetitions only).
    pub layer: Layer,
    /// `VmHWM` of the process at the end of the repetition, KiB.
    pub peak_rss_kb: u64,
    /// Wrong responses already counted, so that the harness's summary
    /// `verify` error for the same responses is not counted again.
    client_errors: u64,
}

impl Rep {
    fn fail(&mut self, n: u64, why: String) {
        if n > 0 {
            self.ops_failed += n;
            self.failures.push(why);
        }
    }

    /// Count a closed-loop generator's requests: a client may have one
    /// request in flight when the run ends; anything beyond that is lost.
    fn count_clients(&mut self, stats: &ClientStats, clients: u64) {
        let (issued, responded) = (stats.issued.get(), stats.responded.get());
        self.ops_attempted += issued;
        let lost = issued.saturating_sub(responded).saturating_sub(clients);
        self.fail(lost, format!("{lost} request(s) never answered"));
        let bad = stats.errors.get();
        self.client_errors += bad;
        self.fail(bad, format!("{bad} response(s) failed the client's check"));
    }

    fn count_verify(&mut self, verify: &Result<(), String>) {
        if let (Err(e), 0) = (verify, self.client_errors) {
            self.fail(1, format!("verify: {e}"));
        }
    }

    /// The harness's own verdicts: client verify, RSTs, unrecovered faults.
    fn count_result(&mut self, r: &RunResult, want_failovers: u64) {
        self.count_verify(&r.verify);
        self.fail(
            r.broken_connections,
            format!("{} broken connection(s)", r.broken_connections),
        );
        self.fail(
            r.unrecovered_faults,
            format!("{} unrecovered fault(s)", r.unrecovered_faults),
        );
        if r.failovers != want_failovers {
            self.fail(
                1,
                format!("{} failover(s), expected {want_failovers}", r.failovers),
            );
        }
    }

    /// Take the timer's samples; one timed call advances `epochs_per_call`
    /// container epochs (the fleet's lane count, 1 elsewhere).
    fn set_timing(&mut self, timer: EpochTimer, epochs_per_call: u64) {
        self.setup_s = timer.setup_s();
        self.timed_s = timer.total_s();
        self.epoch_host_ns = timer
            .host_ns
            .iter()
            .map(|ns| ns / epochs_per_call)
            .collect();
        self.kernel_ns = timer.kernel_ns.clone();
        // Host figures of the traced pass, at the reference machine's speed.
        let speed = timer.speed_factor();
        for m in crate::defs::PER_LAYER {
            let Some(v) = self.layer.get_mut(m.name) else {
                continue;
            };
            match (m.source, m.name) {
                (_, "core_harness.sim_speed") => *v /= speed,
                (Source::H | Source::P, _) => *v *= speed,
                _ => {}
            }
        }
    }

    /// JSON form handed from the child process to its parent.
    pub fn to_json(&self) -> Value {
        let pairs = |v: &[(&'static str, f64)]| {
            Value::Object(
                v.iter()
                    .map(|(k, x)| (k.to_string(), Value::Float(*x)))
                    .collect(),
            )
        };
        let ints = |v: &[u64]| Value::Array(v.iter().map(|&x| Value::Int(x as i128)).collect());
        let layer: Vec<(&'static str, f64)> = self.layer.iter().map(|(k, v)| (*k, *v)).collect();
        Value::Object(vec![
            ("setup_s".into(), Value::Float(self.setup_s)),
            ("timed_s".into(), Value::Float(self.timed_s)),
            ("epoch_host_ns".into(), ints(&self.epoch_host_ns)),
            ("kernel_ns".into(), ints(&self.kernel_ns)),
            ("virt".into(), pairs(&self.virt)),
            (
                "samples".into(),
                Value::Object(
                    self.samples
                        .iter()
                        .map(|(k, n)| (k.to_string(), Value::Int(*n as i128)))
                        .collect(),
                ),
            ),
            (
                "ops_attempted".into(),
                Value::Int(self.ops_attempted as i128),
            ),
            ("ops_failed".into(), Value::Int(self.ops_failed as i128)),
            (
                "failures".into(),
                Value::Array(self.failures.iter().cloned().map(Value::Str).collect()),
            ),
            ("layer".into(), pairs(&layer)),
            ("peak_rss_kb".into(), Value::Int(self.peak_rss_kb as i128)),
        ])
    }
}

/// Run one repetition of `job.workload` in this process.
pub fn run(job: Job) -> SimResult<Rep> {
    let mut rep = match job.workload {
        Workload::RedisPaper => redis(job, false),
        Workload::RedisStaged => redis(job, true),
        Workload::StormSync => storm(job, false),
        Workload::StormStaged => storm(job, true),
        Workload::FailoverSsdb => failover_ssdb(job),
        Workload::KnRepair => kn_repair(job),
        Workload::Fleet8 => fleet_8(job),
    }?;
    // A metric the catalogue does not define on this workload is left out
    // even when the run happens to have samples for it.
    rep.virt
        .retain(|(name, _)| crate::defs::end_to_end(name).is_some_and(|m| m.on(job.workload)));
    rep.peak_rss_kb = peak_rss_kb();
    Ok(rep)
}

fn staged_opts(replay: bool) -> OptimizationConfig {
    let mut o = OptimizationConfig::nilicon();
    o.delta_transfer = true;
    o.cow_checkpoint = true;
    o.pipeline = true;
    o.hybrid_replay = replay;
    o
}

/// Throughput of an unreplicated run after warm-up (the Fig. 3 baseline).
fn stock_throughput(
    spec: ContainerSpec,
    app: Box<dyn Application>,
    behavior: Option<Box<dyn nilicon::ClientBehavior>>,
    parallelism: f64,
    epochs: u64,
) -> SimResult<f64> {
    let mut h = RunHarness::new(
        spec,
        app,
        behavior,
        RunMode::Unreplicated,
        ReplicationConfig::default(),
        parallelism,
    )?;
    h.run_epochs(WARMUP_EPOCHS)?;
    let from = Mark::at(&h);
    h.run_epochs(epochs)?;
    let to = Mark::at(&h);
    let mut pool = VirtPool::default();
    pool.add_window(h.metrics(), &from, &to);
    Ok(pool.throughput())
}

/// What a traced repetition accumulates over its runs, and the common tail
/// that turns it into per-layer figures and the spans file.
#[derive(Default)]
struct Traced {
    trace: TracePool,
    records: Vec<TraceRecord>,
    failovers: FailoverParts,
}

impl Traced {
    /// Pool one run's (or one fleet lane's) tracer records over its timed
    /// epochs.
    fn add_run(&mut self, ring: &RingHandle, timed: &[EpochRecord]) {
        let records = ring.snapshot();
        self.trace.add(&records, timed);
        self.records.extend(records);
    }

    /// Tracer-derived figures, decorator host time, simulation speed, spans
    /// file. `epochs_per_call` is how many container epochs one timed call
    /// advances (the fleet's lane count, 1 elsewhere).
    fn finish(
        self,
        workload: Workload,
        tooling: &Tooling,
        timer: &EpochTimer,
        pool: &VirtPool,
        epochs_per_call: u64,
        layer: &mut Layer,
    ) -> SimResult<()> {
        self.trace.finalize(layer);
        self.failovers.finalize(layer);
        layer.insert("criu_dump.dirty_pages", pool.mean_dirty_pages());
        layer.insert("sim_mem.tracking_overhead_us", pool.mean_tracking_us());
        let rec = tooling.rec.as_ref().expect("traced tooling records");
        let host_spans = host_layers(rec, timer.host_ns.len() as u64, epochs_per_call, layer);
        layer.insert(
            "core_harness.sim_speed",
            pool.elapsed_s() / timer.total_s().max(1e-9),
        );
        crate::report::write_spans(workload, &host_spans, &self.records)
    }
}

// ----------------------------------------------------------------------
// redis_paper / redis_staged
// ----------------------------------------------------------------------

const REDIS_CLIENTS: usize = 8;
/// Timed epochs of the unreplicated baseline. An unreplicated epoch serves
/// more requests than a replicated one and costs as much host time, so the
/// baseline is kept short: it only has to fix one throughput figure.
const REDIS_STOCK_EPOCHS: u64 = 24;

fn redis_spec(app: &RedisApp) -> ContainerSpec {
    let mut spec = ContainerSpec::server("redis", 10, 6379);
    spec.threads_per_process = 4;
    spec.mapped_files = 28;
    spec.heap_pages = app.heap_pages();
    spec
}

fn redis(job: Job, staged: bool) -> SimResult<Rep> {
    let tooling = Tooling::new(job.mode);
    let mut timer = EpochTimer::new(&tooling, job.workload.kernel_mix());
    timer.setup_begin();
    let scale = Scale::bench();
    let epochs = job.count(100, 12);
    let mut rep = Rep::default();

    let stock = {
        let app = RedisApp::new(scale, true);
        let (client, _) = SeededYcsb::new(job.seed, REDIS_CLIENTS, scale);
        stock_throughput(
            redis_spec(&app),
            Box::new(app),
            Some(Box::new(client)),
            1.0,
            job.count(REDIS_STOCK_EPOCHS, 8),
        )?
    };
    timer.setup_lap();

    let opts = if staged {
        staged_opts(true)
    } else {
        OptimizationConfig::nilicon()
    };
    let app = RedisApp::new(scale, true);
    let spec = redis_spec(&app);
    let footprint = spec.heap_pages;
    let (client, stats) = SeededYcsb::new(job.seed, REDIS_CLIENTS, scale);
    let (engine, handle) = tooling.engine(NiLiConEngine::new(opts, CostModel::default()));
    let mut h = RunHarness::new(
        spec,
        tooling.app(Box::new(app)),
        Some(tooling.client(Box::new(client))),
        RunMode::Replicated(engine),
        ReplicationConfig {
            opts,
            ..Default::default()
        },
        1.0,
    )?;
    let ring = attach_tracer(&tooling, &mut h);
    h.run_epochs(WARMUP_EPOCHS)?;
    let from = Mark::at(&h);
    timer.setup_end();

    timer.run(&mut h, epochs)?;
    let to = Mark::at(&h);
    let r = h.finish();

    let mut pool = VirtPool::default();
    pool.add_window(&r.metrics, &from, &to);
    rep.virt = pool.finalize(Some(stock), false);
    rep.samples = pool.sample_counts();
    rep.count_clients(&stats, REDIS_CLIENTS as u64);
    rep.count_result(&r, 0);

    if let Some(ring) = ring {
        let mut traced = Traced::default();
        traced.add_run(&ring, &r.metrics.epochs[from.epochs()..to.epochs()]);
        traced.finish(job.workload, &tooling, &timer, &pool, 1, &mut rep.layer)?;
        let engine = handle.expect("traced engine handle");
        rep.layer.insert(
            "core_backup.stored_pages",
            engine.borrow().agent.stored_pages() as f64,
        );
        if !staged {
            // Table III reports 18.9 ms mean stop for Redis under NiLiCon.
            rep.layer.insert(
                "paper.redis_stop_gap_pct",
                (pool.mean_stop_ms() / 18.9 - 1.0) * 100.0,
            );
        }
        probes::run(
            &Shape {
                dirty_pages: pool.mean_dirty_pages() as u64,
                footprint_pages: footprint,
                whole_page_share: 0.0,
                sparse_bytes: scale.value_size + 16,
                sockets: REDIS_CLIENTS as u64,
                staged,
                ..Shape::default()
            },
            &mut rep.layer,
        )?;
    }
    rep.set_timing(timer, 1);
    Ok(rep)
}

fn attach_tracer(tooling: &Tooling, h: &mut RunHarness) -> Option<RingHandle> {
    tooling.tracer().map(|(tracer, ring)| {
        h.set_tracer(tracer);
        ring
    })
}

// ----------------------------------------------------------------------
// storm_sync / storm_staged
// ----------------------------------------------------------------------

const STORM_PAGES: u64 = 16_384;
/// Virtual CPU charged per step on top of the metered writes; sized so that
/// about a hundred 32-draw steps fit in a 30 ms epoch (≈ 3000 distinct pages).
const STORM_CPU_PER_STEP: Nanos = 220_000;

fn storm_spec() -> ContainerSpec {
    let mut spec = ContainerSpec::batch("storm", 10);
    spec.heap_pages = STORM_PAGES + 64;
    spec
}

/// Byte-compare the state a failover restores from the backup's committed
/// image against the application's own copy of what it wrote.
fn storm_image_mismatches(h: &mut RunHarness, shadow: &StormShadow) -> SimResult<u64> {
    // A fault at the current instant lands before the next epoch executes a
    // single step, so the restored state is exactly the last committed epoch,
    // which is also the last thing the application wrote.
    h.inject_fault_at(h.cluster.clock.now());
    h.run_epochs(1)?;
    let restored = h.snapshot_heap(STORM_PAGES);
    let heap = shadow.heap.borrow();
    Ok(restored
        .chunks(PAGE_SIZE)
        .zip(heap.chunks(PAGE_SIZE))
        .filter(|(a, b)| a != b)
        .count() as u64
        + restored.len().abs_diff(heap.len()) as u64)
}

fn storm(job: Job, staged: bool) -> SimResult<Rep> {
    let tooling = Tooling::new(job.mode);
    let mut timer = EpochTimer::new(&tooling, job.workload.kernel_mix());
    timer.setup_begin();
    let epochs = job.count(200, 12);
    let mut rep = Rep::default();

    let stock = {
        let (app, _) = StormApp::new(job.seed, STORM_PAGES, STORM_CPU_PER_STEP);
        stock_throughput(storm_spec(), Box::new(app), None, 1.0, job.count(60, 8))?
    };
    timer.setup_lap();

    let opts = if staged {
        staged_opts(false)
    } else {
        OptimizationConfig::nilicon()
    };
    let (app, shadow) = StormApp::new(job.seed, STORM_PAGES, STORM_CPU_PER_STEP);
    let (engine, handle) = tooling.engine(NiLiConEngine::new(opts, CostModel::default()));
    let mut h = RunHarness::new(
        storm_spec(),
        tooling.app(Box::new(app)),
        None,
        RunMode::Replicated(engine),
        ReplicationConfig {
            opts,
            ..Default::default()
        },
        1.0,
    )?;
    let ring = attach_tracer(&tooling, &mut h);
    h.run_epochs(WARMUP_EPOCHS)?;
    let from = Mark::at(&h);
    timer.setup_end();

    timer.run(&mut h, epochs)?;
    let to = Mark::at(&h);
    let stored = handle
        .as_ref()
        .map(|e| e.borrow().agent.stored_pages() as f64);
    let mismatched = storm_image_mismatches(&mut h, &shadow)?;
    let r = h.finish();

    let mut pool = VirtPool::default();
    pool.add_window(&r.metrics, &from, &to);
    rep.virt = pool.finalize(Some(stock), true);
    rep.samples = pool.sample_counts();
    rep.ops_attempted = shadow.steps.get();
    rep.fail(
        mismatched,
        format!("{mismatched} page(s) of the restored image differ from what the app wrote"),
    );
    rep.count_result(&r, 1);

    if let Some(ring) = ring {
        let mut traced = Traced::default();
        traced.add_run(&ring, &r.metrics.epochs[from.epochs()..to.epochs()]);
        traced.finish(job.workload, &tooling, &timer, &pool, 1, &mut rep.layer)?;
        rep.layer
            .insert("core_backup.stored_pages", stored.unwrap_or(0.0));
        probes::run(
            &Shape {
                dirty_pages: pool.mean_dirty_pages() as u64,
                footprint_pages: STORM_PAGES,
                whole_page_share: 0.25,
                sparse_bytes: 64,
                staged,
                ..Shape::default()
            },
            &mut rep.layer,
        )?;
    }
    rep.set_timing(timer, 1);
    Ok(rep)
}

// ----------------------------------------------------------------------
// failover_ssdb
// ----------------------------------------------------------------------

const SSDB_CLIENTS: usize = 4;
/// Epochs served on the backup after the failover, proving service resumed.
/// They run unreplicated and much faster than the rest, so they are left out
/// of the timed sample: mixed in, they would pull its median between two modes.
const POST_FAULT_EPOCHS: u64 = 5;

/// Fault-to-service-restored time of a finished run, checked against the
/// virtual clock so that no part of the outage goes unreported.
fn recovery_ns(rep: &mut Rep, r: &RunResult, clock_outage: Nanos) -> Option<Nanos> {
    let (Some(det), Some(f)) = (r.detection_latency, r.failover) else {
        rep.fail(1, "fault injected but no failover report".into());
        return None;
    };
    let total = det + f.total();
    if total != clock_outage {
        rep.fail(
            1,
            format!(
                "detection + restore + arp + tcp + others = {total} ns but the clock moved \
                 {clock_outage} ns across the failover"
            ),
        );
    }
    Some(total)
}

/// Failover-report parts pooled over runs, for the traced pass.
#[derive(Default)]
struct FailoverParts {
    detection: Vec<Nanos>,
    restore: Vec<Nanos>,
    arp: Vec<Nanos>,
    tcp: Vec<Nanos>,
    others: Vec<Nanos>,
    disk_pages: Vec<u64>,
}

impl FailoverParts {
    fn add(&mut self, r: &RunResult) {
        if let (Some(det), Some(f)) = (r.detection_latency, r.failover) {
            self.detection.push(det);
            self.restore.push(f.restore);
            self.arp.push(f.arp);
            self.tcp.push(f.tcp);
            self.others.push(f.others);
            self.disk_pages.push(f.disk_pages_committed);
        }
    }

    fn finalize(&self, layer: &mut Layer) {
        let mean_ms = |v: &[Nanos]| crate::stats::mean_u64(v).unwrap_or(0.0) / 1e6;
        layer.insert(
            "core_detector.detection_ms_p50",
            crate::stats::percentile(&self.detection, 50.0).unwrap_or(0) as f64 / 1e6,
        );
        layer.insert("criu_restore.restore_ms", mean_ms(&self.restore));
        layer.insert("core_harness.arp_ms", mean_ms(&self.arp));
        layer.insert("core_harness.tcp_ms", mean_ms(&self.tcp));
        layer.insert("core_harness.others_ms", mean_ms(&self.others));
        layer.insert(
            "drbd.pages_committed_on_failover",
            crate::stats::mean_u64(&self.disk_pages).unwrap_or(0.0),
        );
    }
}

fn failover_ssdb(job: Job) -> SimResult<Rep> {
    let tooling = Tooling::new(job.mode);
    let runs = job.count(100, 6);
    let scale = Scale::small();
    let mut rep = Rep::default();
    let mut pool = VirtPool::default();
    let mut timer = EpochTimer::new(&tooling, job.workload.kernel_mix());
    let mut traced = Traced::default();
    let footprint = SsdbApp::new(scale).heap_pages();
    let mut draws = Rng::new(job.seed, 0x4000);

    for _ in 0..runs {
        timer.setup_begin();
        let run_seed = draws.next_u64();
        let app = SsdbApp::new(scale);
        let mut spec = ContainerSpec::server("ssdb", 10, 8888);
        spec.threads_per_process = 8;
        spec.mapped_files = 32;
        spec.heap_pages = footprint;
        spec.threads_in_syscall = 4;
        let (client, stats) = SeededYcsb::new(run_seed, SSDB_CLIENTS, scale);
        let opts = OptimizationConfig::nilicon();
        let (engine, _) = tooling.engine(NiLiConEngine::new(opts, CostModel::default()));
        let mut h = RunHarness::new(
            spec,
            tooling.app(Box::new(app)),
            Some(tooling.client(Box::new(client))),
            RunMode::Replicated(engine),
            ReplicationConfig::default(),
            1.7,
        )?;
        let ring = attach_tracer(&tooling, &mut h);
        h.run_epochs(WARMUP_EPOCHS)?;
        let from = Mark::at(&h);
        timer.setup_end();

        timer.run(&mut h, draws.between(4, 8))?;
        let to = Mark::at(&h);
        // The fault lands inside the next epoch's execution phase.
        let fault_at = to.now() + draws.between(1, 30 * MILLISECOND);
        h.inject_fault_at(fault_at);
        timer.run(&mut h, 1)?;
        let outage = h.cluster.clock.now() - fault_at;
        timer.run_untimed(&mut h, POST_FAULT_EPOCHS)?;
        let r = h.finish();

        pool.add_window(&r.metrics, &from, &to);
        if let Some(ns) = recovery_ns(&mut rep, &r, outage) {
            pool.add_recovery(ns);
        }
        rep.count_clients(&stats, SSDB_CLIENTS as u64);
        rep.count_result(&r, 1);
        if let Some(ring) = ring {
            traced.add_run(&ring, &r.metrics.epochs[from.epochs()..to.epochs()]);
            traced.failovers.add(&r);
        }
    }
    rep.virt = pool.finalize(None, false);
    rep.samples = pool.sample_counts();

    if tooling.rec.is_some() {
        traced.finish(job.workload, &tooling, &timer, &pool, 1, &mut rep.layer)?;
        probes::run(
            &Shape {
                dirty_pages: pool.mean_dirty_pages() as u64,
                footprint_pages: footprint,
                whole_page_share: 0.0,
                sparse_bytes: scale.value_size + 16,
                sockets: SSDB_CLIENTS as u64,
                failover: true,
                ..Shape::default()
            },
            &mut rep.layer,
        )?;
    }
    rep.set_timing(timer, 1);
    Ok(rep)
}

// ----------------------------------------------------------------------
// kn_repair
// ----------------------------------------------------------------------

const KN_CLIENTS: usize = 4;
const KN: (u32, u32) = (2, 3);
/// Bound on the epochs a run may spend waiting for a repair to finish.
const KN_REPAIR_EPOCH_LIMIT: u64 = 150;

fn kn_repair(job: Job) -> SimResult<Rep> {
    let tooling = Tooling::new(job.mode);
    let runs = job.count(12, 2);
    let scale = Scale::small();
    let mut rep = Rep::default();
    let mut pool = VirtPool::default();
    let mut timer = EpochTimer::new(&tooling, job.workload.kernel_mix());
    let mut traced = Traced::default();
    let footprint = RedisApp::new(scale, true).heap_pages();
    let mut stored_pages = 0.0;
    let mut draws = Rng::new(job.seed, 0x5000);
    let mut opts = OptimizationConfig::nilicon();
    opts.quorum = KN.0;
    opts.backups = KN.1;

    timer.setup_begin();
    let stock = {
        let app = RedisApp::new(scale, true);
        let (client, _) = SeededYcsb::new(job.seed, KN_CLIENTS, scale);
        stock_throughput(
            redis_spec(&app),
            Box::new(app),
            Some(Box::new(client)),
            1.0,
            job.count(60, 8),
        )?
    };
    timer.setup_end();

    for _ in 0..runs {
        timer.setup_begin();
        let run_seed = draws.next_u64();
        let app = RedisApp::new(scale, true);
        let spec = redis_spec(&app);
        let (client, stats) = SeededYcsb::new(run_seed, KN_CLIENTS, scale);
        let (engine, handle) = tooling.engine(PlacementEngine::new(opts, CostModel::default())?);
        let mut h = RunHarness::new(
            spec,
            tooling.app(Box::new(app)),
            Some(tooling.client(Box::new(client))),
            RunMode::Replicated(engine),
            ReplicationConfig {
                opts,
                ..Default::default()
            },
            1.0,
        )?;
        let ring = attach_tracer(&tooling, &mut h);
        h.run_epochs(WARMUP_EPOCHS)?;
        let from = Mark::at(&h);
        timer.setup_end();

        // Replica loss, then epochs until the coded repair has restored full
        // redundancy (polled at every epoch boundary).
        let lost_at = from.now() + draws.between(60 * MILLISECOND, 180 * MILLISECOND);
        h.inject_backup_fault_at(lost_at);
        let mut degraded = false;
        let mut repaired_at = None;
        for _ in 0..KN_REPAIR_EPOCH_LIMIT {
            timer.run(&mut h, 1)?;
            if h.repair_active() {
                degraded = true;
            } else if degraded {
                repaired_at = Some(h.cluster.clock.now());
                break;
            }
        }
        match repaired_at {
            Some(t) => pool.add_gap(t - lost_at),
            None => rep.fail(1, "the coded repair never completed".into()),
        }
        timer.run(&mut h, draws.between(3, 8))?;
        let to = Mark::at(&h);

        // Primary fault: failover from the reconstructed image.
        let fault_at = to.now() + draws.between(1, 30 * MILLISECOND);
        h.inject_fault_at(fault_at);
        timer.run(&mut h, 1)?;
        let outage = h.cluster.clock.now() - fault_at;
        if let Some(e) = &handle {
            let e = e.borrow();
            stored_pages = (e.stored_fragment_bytes() / e.frag_len() as u64) as f64;
        }
        timer.run_untimed(&mut h, POST_FAULT_EPOCHS)?;
        let r = h.finish();

        pool.add_window(&r.metrics, &from, &to);
        if let Some(ns) = recovery_ns(&mut rep, &r, outage) {
            pool.add_recovery(ns);
        }
        rep.count_clients(&stats, KN_CLIENTS as u64);
        rep.count_result(&r, 1);
        if let Some(ring) = ring {
            traced.add_run(&ring, &r.metrics.epochs[from.epochs()..to.epochs()]);
            traced.failovers.add(&r);
        }
    }
    rep.virt = pool.finalize(Some(stock), false);
    rep.samples = pool.sample_counts();

    if tooling.rec.is_some() {
        traced.finish(job.workload, &tooling, &timer, &pool, 1, &mut rep.layer)?;
        rep.layer.insert("core_backup.stored_pages", stored_pages);
        rep.layer.insert(
            "core_placement.storage_ratio",
            nilicon_criu::ShardCodec::new(KN.0, KN.1)?.overhead(),
        );
        probes::run(
            &Shape {
                dirty_pages: pool.mean_dirty_pages() as u64,
                footprint_pages: footprint,
                whole_page_share: 0.0,
                sparse_bytes: scale.value_size + 16,
                sockets: KN_CLIENTS as u64,
                failover: true,
                shard: Some(KN),
                ..Shape::default()
            },
            &mut rep.layer,
        )?;
    }
    rep.set_timing(timer, 1);
    Ok(rep)
}

// ----------------------------------------------------------------------
// fleet_8
// ----------------------------------------------------------------------

const FLEET_LANES: u32 = 8;
const FLEET_EPOCH: Nanos = 120 * MILLISECOND;
const FLEET_FOOTPRINT: u64 = 256;
/// Closed-loop clients per lane: 64 on average (512 sockets dumped per
/// round), spread unevenly. A lane's dump time grows with its sockets, and a
/// stagger slot is 15 ms: the 104-client lane overruns its slot by about a
/// millisecond, so the lane behind it queues briefly on the dump service
/// while the fleet as a whole stays below the saturation knee.
const FLEET_CLIENTS: [usize; FLEET_LANES as usize] = [104, 40, 88, 48, 72, 56, 64, 40];
/// Rounds run before timing. Every lane's first epoch ships its whole image;
/// the eight of them queue on the one dump service, and with the service
/// four-fifths busy the backlog takes just under sixty rounds to drain.
const FLEET_WARMUP_ROUNDS: u64 = 64;
/// Timed rounds. A round costs a few host milliseconds, so there are many:
/// short repetitions made the host median swing from process to process.
const FLEET_ROUNDS: u64 = 240;

fn fleet_8(job: Job) -> SimResult<Rep> {
    let tooling = Tooling::new(job.mode);
    let mut timer = EpochTimer::new(&tooling, job.workload.kernel_mix());
    timer.setup_begin();
    let rounds = job.count(FLEET_ROUNDS, 8) as usize;
    let warm = FLEET_WARMUP_ROUNDS as usize;
    let mut rep = Rep::default();

    let mut cfg = ReplicationConfig {
        epoch_exec: FLEET_EPOCH,
        ..Default::default()
    };
    cfg.opts.fleet = FLEET_LANES;
    let mut stats: Vec<Rc<ClientStats>> = Vec::new();
    let lanes = (0..FLEET_LANES)
        .map(|i| {
            let mut spec = ContainerSpec::server(&format!("f{i}"), 16 + i, 7000);
            spec.threads_per_process = 2;
            spec.threads_in_syscall = 1;
            spec.mapped_files = 4;
            spec.heap_pages = FLEET_FOOTPRINT + 64;
            let (client, s) = SeededEcho::new(job.seed, i as u64, FLEET_CLIENTS[i as usize]);
            stats.push(s);
            LaneSpec {
                spec,
                app: tooling.app(Box::new(DirtyEcho::new(
                    job.seed,
                    i as u64,
                    FLEET_FOOTPRINT,
                ))),
                behavior: Some(tooling.client(Box::new(client))),
            }
        })
        .collect();
    let mut fleet = FleetScheduler::new(cfg, lanes)?;
    let rings: Vec<RingHandle> = (0..FLEET_LANES as usize)
        .filter_map(|lane| {
            tooling.tracer().map(|(tracer, ring)| {
                fleet.set_tracer(lane, tracer);
                ring
            })
        })
        .collect();
    fleet.run_epochs(FLEET_WARMUP_ROUNDS)?;
    timer.setup_end();

    for _ in 0..rounds {
        timer.time(|| fleet.run_epochs(1))?;
    }
    let r = fleet.finish();

    let mut pool = VirtPool::default();
    let window = warm..warm + rounds;
    for (i, (lane, s)) in r.lanes.iter().zip(&stats).enumerate() {
        let m = &lane.metrics;
        if m.epochs.len() != warm + rounds {
            return Err(SimError::Invalid(format!(
                "fleet lane ran {} epochs, expected {}",
                m.epochs.len(),
                warm + rounds
            )));
        }
        // Every lane's boundaries are one fixed period apart, so each window
        // spans the same virtual time: work sums over lanes, time does not.
        pool.add_epochs(&m.epochs[window.clone()], 0);
        // A lane's responses are delivered epoch by epoch, in order: the
        // window's samples are the last ones.
        let served: u64 = m.epochs[window.clone()]
            .iter()
            .map(|e| e.requests_done)
            .sum();
        let cut = |v: &[Nanos]| v[v.len().saturating_sub(served as usize)..].to_vec();
        pool.add_client_samples(&cut(&m.response_latencies), &cut(&m.release_waits));
        rep.count_clients(s, FLEET_CLIENTS[i] as u64);
        rep.count_verify(&lane.verify);
        rep.fail(
            lane.broken_connections,
            format!("{} broken connection(s)", lane.broken_connections),
        );
        rep.fail(lane.unrecovered as u64, "lane lost with no backup".into());
        rep.fail(lane.failovers, "unexpected failover".into());
    }
    pool.add_epochs(&[], rounds as Nanos * FLEET_EPOCH);
    rep.fail(r.split_brains(), "split-brain promotion".into());
    rep.virt = pool.finalize(None, false);
    rep.samples = pool.sample_counts();

    if tooling.rec.is_some() {
        let mut traced = Traced::default();
        for (lane, ring) in r.lanes.iter().zip(&rings) {
            traced.add_run(ring, &lane.metrics.epochs[window.clone()]);
        }
        traced.trace.fleet_waits(&mut rep.layer);
        let lanes = FLEET_LANES as u64;
        traced.finish(job.workload, &tooling, &timer, &pool, lanes, &mut rep.layer)?;
        rep.layer
            .insert("core_fleet.min_live_bits", r.min_live_bits as f64);
        probes::run(
            &Shape {
                dirty_pages: pool.mean_dirty_pages() as u64,
                footprint_pages: FLEET_FOOTPRINT,
                whole_page_share: 0.0,
                sparse_bytes: 72,
                sockets: FLEET_CLIENTS.iter().sum::<usize>() as u64 / FLEET_LANES as u64,
                ..Shape::default()
            },
            &mut rep.layer,
        )?;
    }
    rep.set_timing(timer, FLEET_LANES as u64);
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon::traffic::ClientBehavior;

    /// Echo client that (wrongly) rejects every third echo it gets back.
    struct Distrustful {
        inner: SeededEcho,
        stats: Rc<ClientStats>,
        seen: u64,
    }

    impl ClientBehavior for Distrustful {
        fn client_count(&self) -> usize {
            self.inner.client_count()
        }
        fn next_request(&mut self, idx: usize, now: Nanos) -> Option<Vec<u8>> {
            self.inner.next_request(idx, now)
        }
        fn on_response(&mut self, idx: usize, resp: &[u8], now: Nanos, latency: Nanos) {
            self.seen += 1;
            if self.seen.is_multiple_of(3) {
                self.inner
                    .on_response(idx, b"not what was sent", now, latency);
            } else {
                self.inner.on_response(idx, resp, now, latency);
            }
        }
        fn verify(&self) -> Result<(), String> {
            self.inner.verify().and_then(|()| {
                if self.stats.responded.get() == 0 {
                    Err("nothing came back".into())
                } else {
                    Ok(())
                }
            })
        }
    }

    fn echo_run(client: Box<dyn ClientBehavior>, epochs: u64) -> RunResult {
        let mut spec = ContainerSpec::server("echo", 10, 7000);
        spec.heap_pages = 64;
        let mut h = RunHarness::new(
            spec,
            Box::new(DirtyEcho::new(1, 0, 16)),
            Some(client),
            RunMode::Unreplicated,
            ReplicationConfig::default(),
            1.0,
        )
        .unwrap();
        h.run_epochs(epochs).unwrap();
        h.finish()
    }

    #[test]
    fn lost_and_wrong_responses_count_as_failed_operations() {
        let mut rep = Rep::default();
        let stats = ClientStats::default();
        stats.issued.set(10);
        stats.responded.set(7);
        stats.errors.set(2);
        // Two clients may each have one request in flight: 10 - 7 - 2 = 1 lost.
        rep.count_clients(&stats, 2);
        assert_eq!((rep.ops_attempted, rep.ops_failed), (10, 3));
        assert_eq!(rep.failures.len(), 2);
    }

    #[test]
    fn a_failing_client_fails_the_run_once_per_wrong_response() {
        let (inner, stats) = SeededEcho::new(1, 0, 4);
        let client = Distrustful {
            inner,
            stats: Rc::clone(&stats),
            seen: 0,
        };
        let r = echo_run(Box::new(client), 6);
        assert!(r.verify.is_err(), "the harness sees the client's verdict");
        let mut rep = Rep::default();
        rep.count_clients(&stats, 4);
        rep.count_result(&r, 0);
        let wrong = stats.responded.get() / 3;
        assert!(wrong > 0);
        // Counted per response, and the summary verify error adds nothing.
        assert_eq!(rep.ops_failed, wrong, "{:?}", rep.failures);
        assert_eq!(rep.ops_attempted, stats.issued.get());
    }

    #[test]
    fn a_verify_error_with_no_wrong_response_counts_once() {
        let (inner, stats) = SeededEcho::new(1, 0, 2);
        // Zero epochs: nothing is ever sent, so `verify` complains on its own.
        let client = Distrustful {
            inner,
            stats: Rc::clone(&stats),
            seen: 0,
        };
        let r = echo_run(Box::new(client), 0);
        let mut rep = Rep::default();
        rep.count_clients(&stats, 2);
        rep.count_result(&r, 0);
        assert_eq!(rep.ops_failed, 1, "{:?}", rep.failures);
    }

    #[test]
    fn an_unexpected_failover_count_is_a_failure() {
        let (client, stats) = SeededEcho::new(1, 0, 2);
        let r = echo_run(Box::new(client), 3);
        let mut rep = Rep::default();
        rep.count_clients(&stats, 2);
        rep.count_result(&r, 1);
        assert_eq!(rep.ops_failed, 1);
    }

    #[test]
    fn names_round_trip_and_quick_sizes_keep_a_floor() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::parse("redis"), None);
        let job = Job {
            workload: Workload::StormSync,
            seed: 1,
            mode: Mode::Plain,
            divisor: 8,
        };
        assert_eq!(job.count(200, 12), 25);
        assert_eq!(job.count(60, 12), 12);
    }
}
