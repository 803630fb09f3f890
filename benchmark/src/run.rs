//! What the seven workloads share: the run modes, the per-epoch host timer,
//! the pooling of virtual metrics over timed windows, and the per-layer
//! virtual figures derived from the repo's in-memory tracer.

use crate::calib::{Calibrator, Mix};
use crate::decor::{TimedApp, TimedClient, TimedEngine};
use crate::spans::{self, Recorder};
use crate::stats;
use nilicon::trace::{RingHandle, TraceEvent, TraceRecord, Tracer};
use nilicon::traffic::ClientBehavior;
use nilicon::{Checkpointer, EpochRecord, RunHarness, RunMetrics};
use nilicon_container::Application;
use nilicon_sim::time::Nanos;
use nilicon_sim::{CostModel, SimResult};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Epochs run and discarded before timing starts (initial full sync, cold
/// infrequent-state cache, clients settling into the closed loop).
pub const WARMUP_EPOCHS: u64 = 8;

/// How a repetition is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No tracer, no decorators: the source of every end-to-end metric.
    Plain,
    /// In-memory tracer, recording decorators, then the direct-call probes.
    Traced,
}

impl Mode {
    /// Command-line spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
        }
    }

    /// Parse the command-line spelling.
    pub fn parse(s: &str) -> Option<Self> {
        [Mode::Plain, Mode::Traced]
            .into_iter()
            .find(|m| m.as_str() == s)
    }
}

/// One repetition's instrumentation: nothing in a plain repetition, a host
/// span recorder (and, through [`Tooling::tracer`], the repo's tracer) in a
/// traced one.
pub struct Tooling {
    /// Host-span recorder (traced repetitions only).
    pub rec: Option<Recorder>,
}

/// Ring capacity per tracer: far above any workload's record count, so no
/// span is ever evicted before it is read.
const RING_CAP: usize = 1 << 20;

impl Tooling {
    /// Tooling for `mode`.
    pub fn new(mode: Mode) -> Self {
        Tooling {
            rec: (mode == Mode::Traced).then(Recorder::new),
        }
    }

    /// A fresh in-memory tracer in a traced repetition, `None` otherwise.
    pub fn tracer(&self) -> Option<(Tracer, RingHandle)> {
        self.rec.as_ref().map(|_| Tracer::in_memory(RING_CAP))
    }

    /// The application, decorated in a traced repetition.
    pub fn app(&self, app: Box<dyn Application>) -> Box<dyn Application> {
        match &self.rec {
            None => app,
            Some(rec) => Box::new(TimedApp::new(app, rec.clone())),
        }
    }

    /// The client generator, decorated in a traced repetition.
    pub fn client(&self, c: Box<dyn ClientBehavior>) -> Box<dyn ClientBehavior> {
        match &self.rec {
            None => c,
            Some(rec) => Box::new(TimedClient::new(c, rec.clone())),
        }
    }

    /// The engine, decorated in a traced repetition; a decorated engine
    /// stays reachable through the returned handle.
    pub fn engine<E: Checkpointer + 'static>(
        &self,
        engine: E,
    ) -> (Box<dyn Checkpointer>, Option<Rc<RefCell<E>>>) {
        match &self.rec {
            None => (Box::new(engine), None),
            Some(rec) => {
                let (timed, handle) = TimedEngine::new(engine, rec.clone());
                (Box::new(timed), Some(handle))
            }
        }
    }
}

/// Kernel samples taken at each end of a set-up segment.
const SETUP_SAMPLES: usize = 4;

/// The host clock of one repetition: times set-up and each `run_epochs(1)`
/// call, and runs the calibration kernel next to both (see [`crate::calib`]).
pub struct EpochTimer {
    /// Host ns of every timed call, in order.
    pub host_ns: Vec<u64>,
    /// Calibration-kernel ns beside each timed call: the mean of the sample
    /// taken just before it and the one taken just after.
    pub kernel_ns: Vec<u64>,
    kernel: Calibrator,
    mix: Mix,
    /// The sample taken after the previous timed call, while nothing else
    /// has run since.
    last_sample: Option<u64>,
    setup_from: Option<Instant>,
    setup_ns: u64,
    setup_kernel_ns: Vec<u64>,
    rec: Option<Recorder>,
    next_id: u64,
}

impl EpochTimer {
    /// Timer recording epoch spans into `tooling`'s recorder, if any, and
    /// calibrating against the `mix` part of the kernel. The kernel's buffers
    /// are allocated here, outside any set-up segment.
    pub fn new(tooling: &Tooling, mix: Mix) -> Self {
        EpochTimer {
            host_ns: Vec::new(),
            kernel_ns: Vec::new(),
            kernel: Calibrator::new(),
            mix,
            last_sample: None,
            setup_from: None,
            setup_ns: 0,
            setup_kernel_ns: Vec::new(),
            rec: tooling.rec.clone(),
            next_id: 0,
        }
    }

    fn sample(&mut self) -> u64 {
        self.mix.of(self.kernel.sample())
    }

    fn sample_setup(&mut self) {
        for _ in 0..SETUP_SAMPLES {
            let ns = self.sample();
            self.setup_kernel_ns.push(ns);
        }
    }

    /// Start a set-up segment (a workload with many runs has one per run).
    pub fn setup_begin(&mut self) {
        self.sample_setup();
        self.setup_from = Some(Instant::now());
    }

    /// End the set-up segment started by [`EpochTimer::setup_begin`].
    pub fn setup_end(&mut self) {
        let from = self.setup_from.take().expect("setup_begin came first");
        self.setup_ns += from.elapsed().as_nanos() as u64;
        self.sample_setup();
        self.last_sample = None;
    }

    /// Split a long set-up segment in two, for kernel samples between its
    /// parts (taken with the set-up clock stopped).
    pub fn setup_lap(&mut self) {
        self.setup_end();
        self.setup_begin();
    }

    /// Set-up host seconds over all segments, scaled to the reference
    /// machine by the median kernel sample taken around them.
    pub fn setup_s(&self) -> f64 {
        let nominal = self.mix.nominal_ns();
        let kernel = stats::median_u64(&self.setup_kernel_ns).unwrap_or(nominal);
        self.setup_ns as f64 / 1e9 * nominal / kernel
    }

    /// Time one call. Every call gets a fresh epoch id, which the spans
    /// recorded inside it share.
    pub fn time(&mut self, f: impl FnOnce() -> SimResult<()>) -> SimResult<()> {
        self.next_id += 1;
        let before = match self.last_sample {
            Some(ns) => ns,
            None => self.sample(),
        };
        let t = Instant::now();
        let out = match &self.rec {
            Some(rec) => {
                rec.set_epoch(self.next_id);
                rec.time(spans::EPOCH, f)
            }
            None => f(),
        };
        self.host_ns.push(t.elapsed().as_nanos() as u64);
        let after = self.sample();
        self.kernel_ns.push((before + after) / 2);
        self.last_sample = Some(after);
        out
    }

    /// Time `n` single-epoch steps of a harness.
    pub fn run(&mut self, h: &mut RunHarness, n: u64) -> SimResult<()> {
        for _ in 0..n {
            self.time(|| h.run_epochs(1))?;
        }
        Ok(())
    }

    /// Host seconds the timed calls took in all, as measured.
    pub fn total_s(&self) -> f64 {
        self.host_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Reference-machine speed over this machine's during the timed calls:
    /// what a host time measured beside them is multiplied by.
    pub fn speed_factor(&self) -> f64 {
        stats::median_u64(&self.kernel_ns).map_or(1.0, |k| self.mix.nominal_ns() / k)
    }

    /// Run `n` epochs that are not part of the timed sample. Spans recorded
    /// meanwhile carry epoch id 0, which no timed epoch has.
    pub fn run_untimed(&mut self, h: &mut RunHarness, n: u64) -> SimResult<()> {
        if let Some(rec) = &self.rec {
            rec.set_epoch(0);
        }
        self.last_sample = None;
        h.run_epochs(n)
    }
}

/// A position in a harness's metric streams, used to cut timed windows.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    epochs: usize,
    lats: usize,
    waits: usize,
    now: Nanos,
}

impl Mark {
    /// The harness's current position.
    pub fn at(h: &RunHarness) -> Self {
        let m = h.metrics();
        Mark {
            epochs: m.epochs.len(),
            lats: m.response_latencies.len(),
            waits: m.release_waits.len(),
            now: h.cluster.clock.now(),
        }
    }

    /// Epoch records before this mark.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Virtual time at this mark.
    pub fn now(&self) -> Nanos {
        self.now
    }
}

/// End-to-end virtual metrics by name, in report order.
pub type Virt = Vec<(&'static str, f64)>;

/// Virtual measurements pooled over one or more timed windows.
#[derive(Debug, Default)]
pub struct VirtPool {
    stops: Vec<Nanos>,
    state_bytes: Vec<u64>,
    dirty_pages: Vec<u64>,
    tracking: Vec<Nanos>,
    backup_cpu: u128,
    elapsed: u128,
    work: u64,
    lats: Vec<Nanos>,
    waits: Vec<Nanos>,
    recoveries: Vec<Nanos>,
    gaps: Vec<Nanos>,
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

impl VirtPool {
    /// Pool the harness records between two marks.
    pub fn add_window(&mut self, m: &RunMetrics, from: &Mark, to: &Mark) {
        self.add_epochs(&m.epochs[from.epochs..to.epochs], to.now - from.now);
        self.lats
            .extend_from_slice(&m.response_latencies[from.lats..to.lats]);
        self.waits
            .extend_from_slice(&m.release_waits[from.waits..to.waits]);
    }

    /// Pool a slice of epoch records spanning `elapsed` virtual ns.
    pub fn add_epochs(&mut self, epochs: &[EpochRecord], elapsed: Nanos) {
        for e in epochs {
            self.stops.push(e.stop_time);
            self.state_bytes.push(e.state_bytes);
            self.dirty_pages.push(e.dirty_pages);
            self.tracking.push(e.tracking_overhead);
            self.backup_cpu += e.backup_cpu as u128;
            self.work += e.requests_done + e.steps_done;
        }
        self.elapsed += elapsed as u128;
    }

    /// Pool response latencies and release waits cut by the caller.
    pub fn add_client_samples(&mut self, lats: &[Nanos], waits: &[Nanos]) {
        self.lats.extend_from_slice(lats);
        self.waits.extend_from_slice(waits);
    }

    /// Record one fault-to-service-restored time.
    pub fn add_recovery(&mut self, ns: Nanos) {
        self.recoveries.push(ns);
    }

    /// Record one window without full redundancy.
    pub fn add_gap(&mut self, ns: Nanos) {
        self.gaps.push(ns);
    }

    /// Virtual seconds the pooled windows span.
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed as f64 / 1e9
    }

    /// Requests (or steps) per virtual second over the pooled windows.
    pub fn throughput(&self) -> f64 {
        self.work as f64 / self.elapsed_s()
    }

    /// Mean stop time in ms.
    pub fn mean_stop_ms(&self) -> f64 {
        ms(stats::mean_u64(&self.stops).unwrap_or(0.0))
    }

    /// Mean dirty pages per epoch.
    pub fn mean_dirty_pages(&self) -> f64 {
        stats::mean_u64(&self.dirty_pages).unwrap_or(0.0)
    }

    /// Mean page-tracking overhead per epoch, virtual µs.
    pub fn mean_tracking_us(&self) -> f64 {
        stats::mean_u64(&self.tracking).unwrap_or(0.0) / 1e3
    }

    /// Timed epochs pooled so far.
    pub fn epochs(&self) -> usize {
        self.stops.len()
    }

    /// Sample counts behind each percentile family, for the report.
    pub fn sample_counts(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("stop_ms", self.stops.len()),
            ("latency_ms", self.lats.len()),
            ("release_wait_ms", self.waits.len()),
            ("recovery_ms", self.recoveries.len()),
            ("redundancy_gap_ms", self.gaps.len()),
        ]
    }

    /// The end-to-end virtual metrics these samples define. A metric with no
    /// samples behind it is left out, never reported as 0; `overhead_pct`
    /// appears when a stock baseline is given (`batch` picks the time-increase
    /// form over the throughput-loss form).
    pub fn finalize(&self, stock_throughput: Option<f64>, batch: bool) -> Virt {
        let mut out: Virt = Vec::new();
        let mut pct = |name: &'static str, v: &[Nanos], p: f64| {
            if let Some(x) = stats::percentile(v, p) {
                out.push((name, ms(x as f64)));
            }
        };
        pct("stop_ms_p50", &self.stops, 50.0);
        pct("stop_ms_p90", &self.stops, 90.0);
        pct("latency_ms_p50", &self.lats, 50.0);
        pct("latency_ms_p90", &self.lats, 90.0);
        pct("release_wait_ms_p50", &self.waits, 50.0);
        pct("recovery_ms_p50", &self.recoveries, 50.0);
        pct("recovery_ms_p90", &self.recoveries, 90.0);
        pct("redundancy_gap_ms_p50", &self.gaps, 50.0);
        if self.elapsed > 0 {
            let thr = self.throughput();
            out.push(("throughput_rps", thr));
            out.push(("backup_cores", self.backup_cpu as f64 / self.elapsed as f64));
            if let Some(stock) = stock_throughput {
                let overhead = if batch {
                    stock / thr - 1.0
                } else {
                    1.0 - thr / stock
                };
                out.push(("overhead_pct", overhead * 100.0));
            }
        }
        if let Some(b) = stats::mean_u64(&self.state_bytes) {
            out.push(("wire_mb_per_epoch", b / 1e6));
        }
        out
    }
}

/// Per-layer figures by name.
pub type Layer = BTreeMap<&'static str, f64>;

/// Per-layer virtual time and counts, pooled from tracer records.
#[derive(Debug, Default)]
pub struct TracePool {
    /// Prices the work that the trace reports as a count rather than a span.
    costs: CostModel,
    epochs: u64,
    records: u64,
    span_ns: BTreeMap<&'static str, u128>,
    stage_wait: u128,
    stalled_epochs: u64,
    delta: [u64; 5],
    cow_faults: u64,
    released_packets: u64,
    log_events: u64,
    drbd_wire_ns: u128,
    shard_pages: u64,
    repair_chunks: u64,
    repair_ns: u128,
    repairs: u64,
    missed_beats: u64,
    failovers: u64,
    false_suspicions: u64,
    unattributed: u128,
    queue_waits: Vec<Nanos>,
    fair_waits: Vec<Nanos>,
}

impl TracePool {
    /// Pool the records of the harness epochs in `[from, to)`, reconciling
    /// their stop- and ack-phase spans against the matching epoch records.
    /// Fault handling (`Failover`, `HeartbeatMiss`, repair markers) is pooled
    /// from every record, since it happens outside the timed epochs.
    pub fn add(&mut self, records: &[TraceRecord], epochs: &[EpochRecord]) {
        self.records += records.len() as u64;
        let mut phase: BTreeMap<u64, (u128, u128)> = BTreeMap::new();
        let wanted: BTreeMap<u64, &EpochRecord> = epochs.iter().map(|e| (e.epoch, e)).collect();
        let mut repair_started: Option<Nanos> = None;
        for r in records {
            match &r.kind {
                TraceEvent::HeartbeatMiss { .. } => self.missed_beats += 1,
                TraceEvent::Failover { .. } => self.failovers += 1,
                TraceEvent::FalseSuspicion { .. } => self.false_suspicions += 1,
                TraceEvent::RepairStart { .. } => repair_started = Some(r.t),
                TraceEvent::RepairChunk { .. } => self.repair_chunks += 1,
                TraceEvent::RepairComplete { .. } => {
                    if let Some(t0) = repair_started.take() {
                        self.repair_ns += (r.t - t0) as u128;
                        self.repairs += 1;
                    }
                }
                _ => {}
            }
            if !wanted.contains_key(&r.epoch) {
                continue;
            }
            let dur = r.dur as u128;
            if r.kind.is_stop_phase() {
                phase.entry(r.epoch).or_default().0 += dur;
            } else if r.kind.is_ack_phase() {
                phase.entry(r.epoch).or_default().1 += dur;
            }
            if r.dur > 0 {
                *self.span_ns.entry(r.kind.name()).or_default() += dur;
            }
            match &r.kind {
                TraceEvent::Backpressure { stalled } => {
                    self.stalled_epochs += 1;
                    self.queue_waits.push(*stalled);
                }
                TraceEvent::FairShareWait { waited, .. } => self.fair_waits.push(*waited),
                TraceEvent::StageDequeue { wait, .. } => self.stage_wait += *wait as u128,
                TraceEvent::DeltaEncode {
                    zero_pages,
                    delta_pages,
                    full_pages,
                    raw_bytes,
                    encoded_bytes,
                } => {
                    for (acc, v) in self.delta.iter_mut().zip([
                        zero_pages,
                        delta_pages,
                        full_pages,
                        raw_bytes,
                        encoded_bytes,
                    ]) {
                        *acc += *v;
                    }
                }
                TraceEvent::CowFault { faults } => self.cow_faults += faults,
                TraceEvent::OutputRelease { packets } => self.released_packets += packets,
                TraceEvent::LogShip { events, .. } => self.log_events += events,
                TraceEvent::DrbdShip { writes, bytes } if *writes > 0 => {
                    self.drbd_wire_ns += self.costs.repl_wire(*bytes) as u128
                }
                TraceEvent::ShardCommit { pages, .. } => self.shard_pages += pages,
                _ => {}
            }
        }
        for e in epochs {
            self.epochs += 1;
            let (stop, ack) = phase.get(&e.epoch).copied().unwrap_or((0, 0));
            if stop + ack == 0 {
                // No phase spans: an unreplicated or stalled epoch.
                continue;
            }
            let reported = e.stop_time as u128 + e.ack_delay as u128;
            self.unattributed += reported.abs_diff(stop + ack);
        }
    }

    /// The fleet's shared-resource waits inside the pooled epochs: median
    /// non-zero wait on the dump service and on the fair-share link.
    pub fn fleet_waits(&self, out: &mut Layer) {
        let p50_ms = |v: &[Nanos]| stats::percentile(v, 50.0).unwrap_or(0) as f64 / 1e6;
        out.insert("core_fleet.queue_wait_ms_p50", p50_ms(&self.queue_waits));
        out.insert("core_fleet.fair_wait_ms_p50", p50_ms(&self.fair_waits));
    }

    /// Write the pooled figures into `out`.
    pub fn finalize(&self, out: &mut Layer) {
        let costs = &self.costs;
        let n = self.epochs.max(1) as f64;
        let us = |ns: u128| ns as f64 / 1e3 / n;
        let span = |name: &str| us(self.span_ns.get(name).copied().unwrap_or(0));
        out.insert("core_engine.freeze_us", span("Freeze"));
        out.insert("core_engine.local_copy_us", span("LocalCopy"));
        out.insert("core_engine.backpressure_us", span("Backpressure"));
        out.insert("core_engine.stalled_epochs", self.stalled_epochs as f64);
        out.insert("core_engine.transfer_us", span("Transfer"));
        out.insert("core_engine.ack_us", span("Ack"));
        out.insert("core_engine.cow_copy_us", span("CowCopy"));
        out.insert("core_engine.stage_wait_us", us(self.stage_wait));
        out.insert("criu_dump.dump_us", span("Dump"));
        let [zero, delta, full, raw, enc] = self.delta;
        let encoded_pages = zero + delta + full;
        out.insert(
            "criu_delta.encode_us",
            us(encoded_pages as u128 * costs.delta_encode_per_page as u128),
        );
        let share = |x: u64, of: u64| if of == 0 { 0.0 } else { x as f64 / of as f64 };
        out.insert("criu_delta.wire_ratio", share(enc, raw));
        out.insert("criu_delta.zero_share", share(zero, encoded_pages));
        out.insert("criu_delta.full_share", share(full, encoded_pages));
        out.insert("core_backup.ingest_us", span("BackupIngest"));
        out.insert("sim_mem.cow_faults_per_epoch", self.cow_faults as f64 / n);
        out.insert(
            "sim_net.held_packets_per_epoch",
            self.released_packets as f64 / n,
        );
        out.insert("core_replay.log_ship_us", span("LogShip"));
        out.insert("core_replay.events_per_epoch", self.log_events as f64 / n);
        out.insert(
            "core_placement.shard_commit_us",
            us(self.shard_pages as u128 * costs.shard_encode_per_page as u128),
        );
        out.insert(
            "core_placement.repair_stream_ms",
            if self.repairs == 0 {
                0.0
            } else {
                self.repair_ns as f64 / 1e6 / self.repairs as f64
            },
        );
        out.insert("core_placement.repair_chunks", self.repair_chunks as f64);
        out.insert(
            "core_detector.missed_beats",
            self.missed_beats as f64 / self.failovers.max(1) as f64,
        );
        out.insert(
            "core_detector.false_suspicions",
            self.false_suspicions as f64,
        );
        out.insert("drbd.ship_us", us(self.drbd_wire_ns));
        out.insert("core_trace.events_per_epoch", self.records as f64 / n);
        out.insert("core_trace.unattributed_us", self.unattributed as f64 / 1e3);
    }
}

/// Per-epoch host time spent under each decorator, from the recorder's spans
/// of the timed calls (ids `1..=timed_calls`, each advancing
/// `epochs_per_call` container epochs): engine, application, generator, and
/// the harness's own remainder.
pub fn host_layers(
    rec: &Recorder,
    timed_calls: u64,
    epochs_per_call: u64,
    out: &mut Layer,
) -> Vec<spans::Span> {
    let all = rec.snapshot();
    let totals = spans::totals_by_name(&all, |e| (1..=timed_calls).contains(&e));
    let n = (timed_calls * epochs_per_call).max(1) as f64;
    let us = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e3 / n);
    out.insert(
        "core_engine.checkpoint_host_us",
        us("core_engine.checkpoint"),
    );
    out.insert("core_engine.commit_host_us", us("core_engine.commit"));
    out.insert(
        "core_engine.pipeline_advance_host_us",
        us("core_engine.pipeline_advance"),
    );
    out.insert("core_engine.log_ship_host_us", us("core_engine.log_ship"));
    out.insert("workloads.app_host_us", us("workloads.app"));
    out.insert("bench_gen.client_host_us", us("bench_gen.client"));
    // The epoch span's self time: what is left once the engine, the
    // application and the generator are taken out.
    out.insert(
        "core_harness.self_host_us",
        totals
            .get(spans::EPOCH)
            .map_or(0.0, |t| t.1 as f64 / 1e3 / n),
    );
    // Failovers are rare and long: a mean over the failovers seen, in ms.
    let failovers: Vec<u64> = all
        .iter()
        .filter(|s| s.name == "core_engine.failover")
        .map(spans::Span::dur)
        .collect();
    out.insert(
        "core_engine.failover_host_ms",
        stats::mean_u64(&failovers).unwrap_or(0.0) / 1e6,
    );
    all
}

/// Resident-set high-water mark of this process in KiB (`VmHWM`), without
/// the calibration kernel's buffers.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0_u64)
        .saturating_sub(crate::calib::RESIDENT_KB)
}
