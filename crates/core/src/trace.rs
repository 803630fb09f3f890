//! Epoch-phase tracing: typed spans and events over the replication pipeline.
//!
//! Every phase of the Fig. 1 epoch loop — execute, freeze, dump, local copy,
//! transfer, backup ingest, ack, output release — can emit a [`TraceRecord`]
//! into a [`TraceSink`]: a no-op (the default), an in-memory ring buffer
//! ([`RingSink`]), or a JSONL file ([`JsonlSink`]). All timestamps and
//! durations are **virtual nanoseconds** from the simulation clock/meter, so
//! traces are bit-for-bit deterministic across runs.
//!
//! The full event schema (every variant, units, and the reconciliation
//! invariants) is documented in `OBSERVABILITY.md` at the repository root;
//! `trace-report` in `nilicon-bench` renders per-phase percentiles and a
//! Table-I-style attribution from a JSONL trace.
//!
//! ## Reconciliation invariant
//!
//! The phase spans of an epoch are not free-floating: they must sum to the
//! engine-reported [`CheckpointOutcome`](crate::engine::CheckpointOutcome)
//! components. With a staging buffer (§V-D(2)):
//!
//! ```text
//! Freeze + Dump + [DeltaEncode] + LocalCopy   == stop_time
//! [CowCopy] + Transfer + BackupIngest + Ack   == ack_delay
//! ```
//!
//! Without one, every phase sits on the stop critical path:
//!
//! ```text
//! Freeze + Dump + [DeltaEncode] + LocalCopy + Transfer + BackupIngest + Ack == stop_time
//! ack_delay == 0
//! ```
//!
//! (`DeltaEncode` appears only when `delta_transfer` is enabled; `CowCopy` —
//! the background drain of write-protected pages — only when `cow_checkpoint`
//! is. COW moves the page copy *and* any delta encoding off the stop phase,
//! so with `--cow` the `Dump` span shrinks to the protect cost and the copy
//! shows up on the ack path instead.)
//!
//! [`Tracer::reconcile`] checks this once per epoch; the harness turns a
//! mismatch into a hard [`SimError::Invalid`](nilicon_sim::SimError) — an
//! instrumented run cannot silently misattribute time.
//!
//! ## Example
//!
//! ```
//! use nilicon::trace::{TraceEvent, Tracer};
//!
//! let (tracer, ring) = Tracer::in_memory(64);
//! tracer.begin_epoch(1, 0);
//! tracer.span(TraceEvent::Freeze, 10);
//! tracer.span(TraceEvent::Dump { dirty_pages: 3 }, 90);
//! tracer.span(TraceEvent::LocalCopy, 5);
//! tracer.span(TraceEvent::Transfer { bytes: 12_288 }, 40);
//! tracer.span(TraceEvent::BackupIngest { probes: 12 }, 20);
//! tracer.span(TraceEvent::Ack, 30);
//! tracer.reconcile(1, 105, 90, 0).unwrap();
//! let recs = ring.snapshot();
//! assert_eq!(recs.len(), 6);
//! assert_eq!(recs[1].t, 10, "spans are laid out contiguously");
//! ```

use nilicon_sim::time::Nanos;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write;
use std::rc::Rc;

/// One typed span or event in the epoch pipeline.
///
/// Variants with a natural duration are emitted as *spans* (`dur > 0`);
/// instantaneous markers are emitted with `dur == 0`. See `OBSERVABILITY.md`
/// for the full schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A new run begins: everything that follows (until the next `RunStart`)
    /// belongs to this workload/mode pair. Epoch numbers restart at 0.
    RunStart {
        /// Workload name (e.g. "redis").
        name: String,
        /// Mode label (e.g. "NiLiCon", "MC", "stock", a Table-I row).
        mode: String,
    },
    /// The execution phase of an epoch (wall duration = configured
    /// `epoch_exec`).
    Exec {
        /// Server requests completed this epoch.
        requests: u64,
        /// Batch steps completed this epoch.
        steps: u64,
    },
    /// Cgroup freeze plus network-input blocking (§V-A, §V-C).
    Freeze,
    /// The incremental CRIU dump (§V-B, §V-D).
    Dump {
        /// Dirty pages captured by this dump.
        dirty_pages: u64,
    },
    /// Per-stage breakdown of the preceding [`TraceEvent::Dump`] span
    /// (marker, `dur == 0`). The five fields sum to the `Dump` duration.
    DumpDetail {
        /// VMA/thread/fd collection cost (ns).
        processes: Nanos,
        /// Dirty-page identification + page copy cost (ns).
        pages: Nanos,
        /// TCP repair-mode socket checkpoint cost (ns).
        sockets: Nanos,
        /// File-system cache capture cost (ns, §III).
        fs_cache: Nanos,
        /// Infrequently-modified state collection cost (ns, §V-B).
        infrequent: Nanos,
    },
    /// Delta-encoding of the epoch's dirty pages against the last shipped
    /// epoch (HyCoR extension; emitted only when `delta_transfer` is on).
    /// Part of the stop phase — encoding happens before the container
    /// resumes.
    DeltaEncode {
        /// Pages elided as all-zero (1 marker word each).
        zero_pages: u64,
        /// Pages shipped as sparse XOR deltas.
        delta_pages: u64,
        /// Pages shipped in full (first touch / dense churn).
        full_pages: u64,
        /// Bytes the full-page path would have shipped (pages × 4 KiB).
        raw_bytes: u64,
        /// Bytes actually put on the wire after encoding.
        encoded_bytes: u64,
    },
    /// DRBD ship + epoch barrier + container resume — the tail of the stop
    /// phase after the dump proper.
    LocalCopy,
    /// DRBD messages put on the replication link this epoch (marker).
    DrbdShip {
        /// Replicated disk writes shipped.
        writes: u64,
        /// Wire bytes including the barrier.
        bytes: u64,
    },
    /// Background copy-out of the pages write-protected at pause (COW
    /// extension; emitted only when `cow_checkpoint` is on). Runs during the
    /// next execution phase, so it sits on the *ack* path, not the stop
    /// phase.
    CowCopy {
        /// Pages drained (protected set + fault-staged copies).
        pages: u64,
        /// Bytes handed to the transfer path (encoded bytes under `--delta`).
        bytes: u64,
    },
    /// Container writes that hit a still-protected page and triggered an
    /// eager copy-before-write (marker; emitted only when `faults > 0`). The
    /// fault cost is charged to the container's runtime tracking overhead.
    CowFault {
        /// Write faults taken on protected pages this epoch.
        faults: u64,
    },
    /// Wire transfer of the epoch's state to the backup.
    Transfer {
        /// Bytes transferred (container state + DRBD traffic).
        bytes: u64,
    },
    /// Backup-side receive (plus inline commit when there is no staging
    /// buffer).
    BackupIngest {
        /// Page-store insertion probes performed (0 in staging mode, where
        /// the commit — and its probes — happens after the ack).
        probes: u64,
    },
    /// Ack propagation back to the primary (one replication-link latency).
    Ack,
    /// The deferred backup commit after the ack (staging mode; marker —
    /// this work is off the client-visible critical path).
    BackupCommit {
        /// Page-store insertion probes performed.
        probes: u64,
        /// DRBD-buffered disk pages applied to the backup disk.
        disk_pages: u64,
    },
    /// The epoch's buffered network output was released (output commit,
    /// §II-A). Emitted at the *release* time.
    OutputRelease {
        /// Packets released from the plugged qdisc.
        packets: u64,
    },
    /// Responses logically delivered to clients (closed-loop collection).
    ClientDeliver {
        /// Responses handed to client behaviors this collection.
        responses: u64,
    },
    /// A heartbeat interval elapsed with no beat (failure suspected).
    HeartbeatMiss {
        /// Consecutive misses so far (detection fires at the configured
        /// allowance, 3 in the paper).
        misses: u32,
    },
    /// Buffered output discarded at failover (output commit, §II-A: packets
    /// not yet released when the primary died must never reach clients, since
    /// the state that produced them was lost). Emitted at the fault time,
    /// before the failover record.
    OutputDiscard {
        /// Buffered packets dropped.
        packets: u64,
    },
    /// Re-replication bootstrap started toward a freshly provisioned
    /// replacement backup (`rearm` extension; `attempt > 0` after a
    /// fault-during-bootstrap retry).
    RearmStart {
        /// Zero-based bootstrap attempt number.
        attempt: u32,
    },
    /// One bounded background chunk of the bootstrap image streamed to the
    /// replacement backup (`rearm` extension; marker — the stream overlaps
    /// execution and is not an epoch phase).
    BootstrapChunk {
        /// Deferred pages drained and shipped this epoch.
        pages: u64,
        /// Bytes those pages carried on the wire.
        bytes: u64,
    },
    /// The bootstrap image is fully streamed and committed: incremental
    /// epochs, output commit, heartbeats, and DRBD replication are re-armed
    /// toward the replacement backup (`rearm` extension).
    RearmComplete {
        /// Total deferred pages streamed by the bootstrap.
        pages: u64,
        /// Total bytes the bootstrap stream put on the wire.
        bytes: u64,
    },
    /// Failure declared and failover executed (Table II breakdown).
    Failover {
        /// Fault-to-detection latency (ns).
        detection_latency: Nanos,
        /// Container restore time on the backup (ns).
        restore: Nanos,
        /// Gratuitous-ARP broadcast time (ns).
        arp: Nanos,
        /// Non-overlapped TCP retransmission delay (ns).
        tcp: Nanos,
        /// Remaining recovery bookkeeping (ns).
        others: Nanos,
    },
    /// A chaos-schedule fault window opened a partition of the replication/
    /// heartbeat link (chaos extension; marker at the first epoch boundary
    /// inside the window).
    PartitionStart,
    /// The partition healed: link-held traffic flushes in FIFO order (chaos
    /// extension; marker at the first epoch boundary past the window).
    PartitionHeal,
    /// The backup's epoch ack granted (renewed) the primary's output-release
    /// lease (chaos extension; emitted at the ack's arrival time).
    LeaseAcquire {
        /// The *primary's* conservative expiry — anchored at its own
        /// checkpoint-start time, so always ≤ the backup's granted expiry.
        until: Nanos,
    },
    /// The primary's lease lapsed un-renewed: output release fences until a
    /// later ack renews it (chaos extension).
    LeaseExpire {
        /// The expiry instant that passed.
        at: Nanos,
    },
    /// An output release was withheld because the lease had expired — the
    /// exactly-one-owner fence in action (chaos extension). The packets stay
    /// plugged and ride the next valid release.
    FencedOutput {
        /// Packets withheld.
        packets: u64,
    },
    /// A failure suspicion was cancelled by a late heartbeat before the
    /// lease gate allowed promotion: a detector false positive under
    /// delay/loss (chaos extension).
    FalseSuspicion {
        /// How long the suspicion stood before the rescinding beat (ns).
        suspected_for: Nanos,
    },
    /// Extra replication-link delay the chaos schedule injected into this
    /// epoch's ack round-trip (chaos extension; an ack-phase *span* — it
    /// participates in the ack reconciliation identity, see
    /// OBSERVABILITY.md).
    ChaosDelay {
        /// Added round-trip delay (ns).
        extra: Nanos,
    },
    /// Erasure-coding of the epoch's dirty pages into n shard fragments
    /// (placement extension; emitted only when `backups > 1`). An ack-phase
    /// *span*: encoding happens after the container resumes, before the
    /// fragments fan out to the replicas.
    ShardCommit {
        /// Fragments produced per page (= configured `backups` n).
        shards: u32,
        /// Dirty pages encoded this epoch.
        pages: u64,
        /// Bytes of one fragment set shipped per replica
        /// (`pages × ceil(4 KiB / k)` + metadata).
        frag_bytes: u64,
    },
    /// A stream-while-serving placement flow started (placement extension;
    /// marker). `kind` is `"repair"` (coded repair of a lost replica) or
    /// `"migration"` (planned move); `attempt > 0` after a
    /// fault-during-repair retry. Rearm keeps its own `RearmStart`.
    RepairStart {
        /// Which placement flow: `"repair"` or `"migration"`.
        kind: String,
        /// Zero-based attempt number.
        attempt: u32,
    },
    /// One bounded background chunk of a repair/migration stream: fragments
    /// regenerated from k surviving peers (decode + re-encode) or pages
    /// streamed to the destination (placement extension; marker — the
    /// stream overlaps execution and is not an epoch phase).
    RepairChunk {
        /// Pages whose fragment/body was regenerated or streamed this chunk.
        pages: u64,
        /// Wire bytes the chunk put on the links (repair reads k fragments
        /// per regenerated page — the RS repair read amplification).
        bytes: u64,
    },
    /// The repair/migration stream finished and the replica committed: the
    /// placement is back at full redundancy (placement extension; marker).
    RepairComplete {
        /// Total pages regenerated/streamed.
        pages: u64,
        /// Total wire bytes of the stream.
        bytes: u64,
    },
    /// A replica was lost but the quorum still holds: epochs keep acking
    /// with `alive ≥ k` fragment sets durable while repair is pending
    /// (placement extension; marker at the fault's epoch boundary).
    DegradedMode {
        /// Replicas still alive.
        alive: u32,
        /// Quorum k required to ack (and to repair).
        need: u32,
    },
    /// The epoch's nondeterminism-log chunks shipped to the backup (hybrid
    /// replay extension; a *log-path* span — it participates in the log
    /// reconciliation identity `LogShip == log_total`, see OBSERVABILITY.md).
    /// Shipping overlaps execution; the duration is the summed commit
    /// round-trips the released outputs waited on.
    LogShip {
        /// Events shipped this epoch.
        events: u64,
        /// Wire bytes those events carried.
        bytes: u64,
    },
    /// The epoch's log sealed and committed on the backup — the new output
    /// release point (hybrid replay extension; marker). From here the epoch's
    /// buffered output is safe to release even though its checkpoint has not
    /// acked yet.
    LogCommit {
        /// Events in the sealed epoch log.
        events: u64,
        /// One log-chunk commit round-trip (ns) — the client-visible release
        /// wait that replaces the epoch ack.
        commit_latency: Nanos,
    },
    /// Failover replay began: the backup restored the last committed
    /// checkpoint and starts re-executing the sealed log tail (hybrid replay
    /// extension; marker).
    ReplayStart {
        /// Sealed epoch logs in the tail.
        epochs: u64,
        /// Total events to re-execute.
        events: u64,
    },
    /// Failover replay finished: re-executed state and output stream verified
    /// byte-identical against the recorded hashes (hybrid replay extension;
    /// marker).
    ReplayComplete {
        /// Events re-executed.
        events: u64,
        /// Virtual time the replay took (ns; added to the failover outage).
        replay_time: Nanos,
    },
    /// Failover replay was abandoned — log gap, partial (unsealed) tail, or
    /// a re-execution hash mismatch — and recovery fell back to the plain
    /// NiLiCon last-checkpoint path (hybrid replay extension; marker).
    ReplayDiverge {
        /// Why: `"gap"`, `"partial"`, or `"mismatch"`.
        reason: String,
    },
    /// A pipeline stage accepted a chunk into its bounded input queue
    /// (staged-pipeline extension; marker). The chunk stays in the upstream
    /// queue until the downstream stage durably accepts it
    /// (peek-before-commit), so a stage restart replays it.
    StageEnqueue {
        /// Stage name: `"encode"`, `"transfer"`, or `"ingest"`.
        stage: String,
        /// Zero-based chunk index within the epoch.
        chunk: u64,
    },
    /// A pipeline stage finished a chunk and the downstream stage accepted
    /// it — the chunk is now removed from the upstream queue
    /// (staged-pipeline extension; marker).
    StageDequeue {
        /// Stage name: `"encode"`, `"transfer"`, or `"ingest"`.
        stage: String,
        /// Zero-based chunk index within the epoch.
        chunk: u64,
        /// Virtual ns the chunk waited in the queue before the stage could
        /// start it (queueing delay — the pipeline's internal backpressure).
        wait: Nanos,
    },
    /// A pipeline stage crashed mid-chunk and was restarted by its
    /// supervisor; the in-flight chunk is replayed from the upstream queue
    /// — charged twice in time, applied once in state (staged-pipeline
    /// extension; marker).
    StageRestart {
        /// Stage name: `"encode"`, `"transfer"`, or `"ingest"`.
        stage: String,
        /// Zero-based chunk index that was replayed.
        chunk: u64,
    },
    /// The previous epoch's pipeline had not fully drained when this epoch's
    /// checkpoint began: the stop phase stalls until the backlog clears
    /// (staged-pipeline extension; a *stop-phase* span). Persistent
    /// backpressure degrades the pipeline toward the paper's synchronous
    /// behavior.
    Backpressure {
        /// Virtual ns the stop phase stalled waiting for the pipeline.
        stalled: Nanos,
    },
    /// A fleet member's epoch began at its staggered phase offset (fleet
    /// extension; marker at the member's epoch boundary). Under `--aligned`
    /// every lane's offset is 0 — the convoy configuration.
    FleetEpochStart {
        /// Fleet lane (container index within the pair).
        lane: u32,
        /// This lane's phase offset within the epoch period (`i·epoch/N` ns).
        offset: Nanos,
    },
    /// Extra time this lane's transfer waited behind other lanes on the
    /// shared FIFO replication link, beyond its own wire time (fleet
    /// extension; an ack-phase *span* — it participates in the per-lane ack
    /// reconciliation identity, see OBSERVABILITY.md).
    FairShareWait {
        /// Fleet lane (container index within the pair).
        lane: u32,
        /// Virtual ns waited for other lanes' transfers on the shared link.
        waited: Nanos,
    },
}

impl TraceEvent {
    /// Stable name of this variant (the JSONL tag; used for report grouping).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "RunStart",
            TraceEvent::Exec { .. } => "Exec",
            TraceEvent::Freeze => "Freeze",
            TraceEvent::Dump { .. } => "Dump",
            TraceEvent::DumpDetail { .. } => "DumpDetail",
            TraceEvent::DeltaEncode { .. } => "DeltaEncode",
            TraceEvent::LocalCopy => "LocalCopy",
            TraceEvent::DrbdShip { .. } => "DrbdShip",
            TraceEvent::CowCopy { .. } => "CowCopy",
            TraceEvent::CowFault { .. } => "CowFault",
            TraceEvent::Transfer { .. } => "Transfer",
            TraceEvent::BackupIngest { .. } => "BackupIngest",
            TraceEvent::Ack => "Ack",
            TraceEvent::BackupCommit { .. } => "BackupCommit",
            TraceEvent::OutputRelease { .. } => "OutputRelease",
            TraceEvent::ClientDeliver { .. } => "ClientDeliver",
            TraceEvent::HeartbeatMiss { .. } => "HeartbeatMiss",
            TraceEvent::OutputDiscard { .. } => "OutputDiscard",
            TraceEvent::RearmStart { .. } => "RearmStart",
            TraceEvent::BootstrapChunk { .. } => "BootstrapChunk",
            TraceEvent::RearmComplete { .. } => "RearmComplete",
            TraceEvent::Failover { .. } => "Failover",
            TraceEvent::PartitionStart => "PartitionStart",
            TraceEvent::PartitionHeal => "PartitionHeal",
            TraceEvent::LeaseAcquire { .. } => "LeaseAcquire",
            TraceEvent::LeaseExpire { .. } => "LeaseExpire",
            TraceEvent::FencedOutput { .. } => "FencedOutput",
            TraceEvent::FalseSuspicion { .. } => "FalseSuspicion",
            TraceEvent::ChaosDelay { .. } => "ChaosDelay",
            TraceEvent::ShardCommit { .. } => "ShardCommit",
            TraceEvent::RepairStart { .. } => "RepairStart",
            TraceEvent::RepairChunk { .. } => "RepairChunk",
            TraceEvent::RepairComplete { .. } => "RepairComplete",
            TraceEvent::DegradedMode { .. } => "DegradedMode",
            TraceEvent::LogShip { .. } => "LogShip",
            TraceEvent::LogCommit { .. } => "LogCommit",
            TraceEvent::ReplayStart { .. } => "ReplayStart",
            TraceEvent::ReplayComplete { .. } => "ReplayComplete",
            TraceEvent::ReplayDiverge { .. } => "ReplayDiverge",
            TraceEvent::StageEnqueue { .. } => "StageEnqueue",
            TraceEvent::StageDequeue { .. } => "StageDequeue",
            TraceEvent::StageRestart { .. } => "StageRestart",
            TraceEvent::Backpressure { .. } => "Backpressure",
            TraceEvent::FleetEpochStart { .. } => "FleetEpochStart",
            TraceEvent::FairShareWait { .. } => "FairShareWait",
        }
    }

    /// Phase spans charged to the container's *stop* time.
    pub fn is_stop_phase(&self) -> bool {
        matches!(
            self,
            TraceEvent::Freeze
                | TraceEvent::Dump { .. }
                | TraceEvent::DeltaEncode { .. }
                | TraceEvent::LocalCopy
                | TraceEvent::Backpressure { .. }
        )
    }

    /// Phase spans charged to the post-resume *ack* path.
    pub fn is_ack_phase(&self) -> bool {
        matches!(
            self,
            TraceEvent::CowCopy { .. }
                | TraceEvent::ShardCommit { .. }
                | TraceEvent::Transfer { .. }
                | TraceEvent::BackupIngest { .. }
                | TraceEvent::Ack
                | TraceEvent::ChaosDelay { .. }
                | TraceEvent::FairShareWait { .. }
        )
    }

    /// Phase spans charged to the continuous log-ship path (hybrid replay).
    pub fn is_log_phase(&self) -> bool {
        matches!(self, TraceEvent::LogShip { .. })
    }
}

/// One record in a trace: an epoch-attributed span or marker in virtual time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Epoch the record belongs to (restarts at 0 per `RunStart`).
    pub epoch: u64,
    /// Start time (virtual ns).
    pub t: Nanos,
    /// Duration (virtual ns; 0 for markers/events).
    pub dur: Nanos,
    /// What happened.
    pub kind: TraceEvent,
}

/// Where trace records go. Implementations must be cheap: the pipeline emits
/// up to ~10 records per epoch.
pub trait TraceSink {
    /// Accept one record.
    fn record(&mut self, rec: &TraceRecord);
    /// Flush buffered output (file sinks). Default: nothing to do.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The default sink: discards everything.
#[derive(Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&mut self, _rec: &TraceRecord) {}
}

/// Bounded in-memory sink: keeps the most recent `cap` records. Read the
/// contents back through the [`RingHandle`] from [`RingSink::handle`] (or
/// [`Tracer::in_memory`]).
pub struct RingSink {
    cap: usize,
    buf: Rc<RefCell<VecDeque<TraceRecord>>>,
}

impl RingSink {
    /// New ring buffer holding at most `cap` records.
    pub fn new(cap: usize) -> Self {
        RingSink {
            cap: cap.max(1),
            buf: Rc::new(RefCell::new(VecDeque::new())),
        }
    }

    /// A read handle sharing this sink's buffer.
    pub fn handle(&self) -> RingHandle {
        RingHandle(Rc::clone(&self.buf))
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, rec: &TraceRecord) {
        let mut buf = self.buf.borrow_mut();
        if buf.len() == self.cap {
            buf.pop_front();
        }
        buf.push_back(rec.clone());
    }
}

/// Read handle over a [`RingSink`]'s buffer.
#[derive(Clone)]
pub struct RingHandle(Rc<RefCell<VecDeque<TraceRecord>>>);

impl RingHandle {
    /// Copy of the buffered records, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.0.borrow().iter().cloned().collect()
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// True if nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }
}

/// JSONL file sink: one [`TraceRecord`] per line. The first write error is
/// kept and returned by the next [`TraceSink::flush`], so a trace that could
/// not be written fails the run instead of ending short.
pub struct JsonlSink {
    out: std::io::BufWriter<std::fs::File>,
    error: Option<std::io::Error>,
}

impl JsonlSink {
    /// Create (truncate) `path` and stream records into it.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(JsonlSink {
            out: std::io::BufWriter::new(std::fs::File::create(path)?),
            error: None,
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&mut self, rec: &TraceRecord) {
        // Serialization of a TraceRecord cannot fail; a full disk surfaces
        // on flush.
        if let Ok(line) = serde_json::to_string(rec) {
            if let Err(e) = writeln!(self.out, "{line}") {
                self.error.get_or_insert(e);
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => self.out.flush(),
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

struct TracerInner {
    sink: Box<dyn TraceSink>,
    epoch: u64,
    /// Where the next contiguous span starts.
    cursor: Nanos,
    /// Running sum of stop-phase span durations this epoch.
    stop_sum: Nanos,
    /// Running sum of ack-path span durations this epoch.
    ack_sum: Nanos,
    /// Running sum of log-ship span durations this epoch (hybrid replay).
    log_sum: Nanos,
    /// Whether any phase span was emitted this epoch (uninstrumented engines
    /// emit none, and then reconciliation is vacuous).
    saw_phase: bool,
}

/// Shared handle to a trace in progress. Cloning is cheap (`Rc`); the
/// harness, lane, engine and client pool all hold clones of one tracer.
/// A disabled tracer ([`Tracer::disabled`], also [`Default`]) makes every
/// operation a no-op.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TracerInner>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Tracer(disabled)"),
            Some(i) => write!(f, "Tracer(epoch={})", i.borrow().epoch),
        }
    }
}

impl Tracer {
    /// A tracer that records nothing (the default everywhere).
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer feeding `sink`.
    pub fn new(sink: Box<dyn TraceSink>) -> Self {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TracerInner {
                sink,
                epoch: 0,
                cursor: 0,
                stop_sum: 0,
                ack_sum: 0,
                log_sum: 0,
                saw_phase: false,
            }))),
        }
    }

    /// A tracer writing JSONL to `path`.
    pub fn to_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Tracer::new(Box::new(JsonlSink::create(path)?)))
    }

    /// A tracer over a fresh ring buffer, plus the read handle.
    pub fn in_memory(cap: usize) -> (Self, RingHandle) {
        let sink = RingSink::new(cap);
        let handle = sink.handle();
        (Tracer::new(Box::new(sink)), handle)
    }

    /// Whether records are being kept. Use to skip costly argument
    /// computation at call sites.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a new epoch: spans emitted via [`Tracer::span`] are laid out
    /// contiguously from `start`.
    pub fn begin_epoch(&self, epoch: u64, start: Nanos) {
        if let Some(inner) = &self.inner {
            let mut i = inner.borrow_mut();
            i.epoch = epoch;
            i.cursor = start;
            i.stop_sum = 0;
            i.ack_sum = 0;
            i.log_sum = 0;
            i.saw_phase = false;
        }
    }

    /// Emit a span of `dur` at the cursor and advance the cursor past it.
    /// Phase spans also feed the reconciliation sums.
    pub fn span(&self, kind: TraceEvent, dur: Nanos) {
        if let Some(inner) = &self.inner {
            let mut i = inner.borrow_mut();
            if kind.is_stop_phase() {
                i.stop_sum += dur;
                i.saw_phase = true;
            } else if kind.is_ack_phase() {
                i.ack_sum += dur;
                i.saw_phase = true;
            } else if kind.is_log_phase() {
                i.log_sum += dur;
                i.saw_phase = true;
            }
            let rec = TraceRecord {
                epoch: i.epoch,
                t: i.cursor,
                dur,
                kind,
            };
            i.cursor += dur;
            i.sink.record(&rec);
        }
    }

    /// Emit a zero-duration marker at the cursor (breakdowns, commit notes).
    pub fn mark(&self, kind: TraceEvent) {
        if let Some(inner) = &self.inner {
            let mut i = inner.borrow_mut();
            let rec = TraceRecord {
                epoch: i.epoch,
                t: i.cursor,
                dur: 0,
                kind,
            };
            i.sink.record(&rec);
        }
    }

    /// Emit a zero-duration event at an explicit time `t` (releases,
    /// heartbeat misses, failover) without moving the cursor.
    pub fn event_at(&self, kind: TraceEvent, t: Nanos) {
        if let Some(inner) = &self.inner {
            let mut i = inner.borrow_mut();
            let rec = TraceRecord {
                epoch: i.epoch,
                t,
                dur: 0,
                kind,
            };
            i.sink.record(&rec);
        }
    }

    /// Check the epoch's phase spans against the engine-reported
    /// `stop_time`/`ack_delay` (see the module docs for the exact identity)
    /// and its log-ship spans against `log_total` (the hybrid-replay axis:
    /// the cumulative log commit latency this epoch; 0 without a log), then
    /// reset the sums. Vacuously `Ok` if no phase spans were emitted.
    pub fn reconcile(
        &self,
        epoch: u64,
        stop_time: Nanos,
        ack_delay: Nanos,
        log_total: Nanos,
    ) -> Result<(), String> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let mut i = inner.borrow_mut();
        let (stop_sum, ack_sum, log_sum, saw) = (i.stop_sum, i.ack_sum, i.log_sum, i.saw_phase);
        i.stop_sum = 0;
        i.ack_sum = 0;
        i.log_sum = 0;
        i.saw_phase = false;
        if !saw {
            return Ok(());
        }
        let ok = log_sum == log_total
            && if ack_delay > 0 {
                stop_sum == stop_time && ack_sum == ack_delay
            } else {
                stop_sum + ack_sum == stop_time
            };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "trace reconciliation failed for epoch {epoch}: stop spans {stop_sum}ns + ack \
                 spans {ack_sum}ns + log spans {log_sum}ns vs stop_time {stop_time}ns / \
                 ack_delay {ack_delay}ns / log_total {log_total}ns"
            ))
        }
    }

    /// Flush the underlying sink (file sinks buffer).
    pub fn flush(&self) -> std::io::Result<()> {
        match &self.inner {
            Some(inner) => inner.borrow_mut().sink.flush(),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.begin_epoch(1, 0);
        t.span(TraceEvent::Freeze, 100);
        t.reconcile(1, 999, 999, 0).unwrap(); // never fails when disabled
        t.flush().unwrap();
    }

    #[test]
    fn spans_are_contiguous_and_epoch_tagged() {
        let (t, ring) = Tracer::in_memory(16);
        t.begin_epoch(7, 1000);
        t.span(
            TraceEvent::Exec {
                requests: 3,
                steps: 0,
            },
            500,
        );
        t.span(TraceEvent::Freeze, 10);
        t.span(TraceEvent::Dump { dirty_pages: 2 }, 40);
        let recs = ring.snapshot();
        assert_eq!(recs.len(), 3);
        assert!(recs.iter().all(|r| r.epoch == 7));
        assert_eq!((recs[0].t, recs[0].dur), (1000, 500));
        assert_eq!((recs[1].t, recs[1].dur), (1500, 10));
        assert_eq!((recs[2].t, recs[2].dur), (1510, 40));
    }

    #[test]
    fn reconcile_staging_and_inline_modes() {
        let (t, _ring) = Tracer::in_memory(16);
        // Staging: stop spans == stop_time, ack spans == ack_delay.
        t.begin_epoch(1, 0);
        t.span(TraceEvent::Freeze, 10);
        t.span(TraceEvent::Dump { dirty_pages: 0 }, 20);
        t.span(TraceEvent::LocalCopy, 5);
        t.span(TraceEvent::Transfer { bytes: 1 }, 7);
        t.span(TraceEvent::BackupIngest { probes: 0 }, 3);
        t.span(TraceEvent::Ack, 2);
        t.reconcile(1, 35, 12, 0).unwrap();
        // Inline (no staging): everything inside stop_time.
        t.begin_epoch(2, 0);
        t.span(TraceEvent::Freeze, 10);
        t.span(TraceEvent::Dump { dirty_pages: 0 }, 20);
        t.span(TraceEvent::LocalCopy, 5);
        t.span(TraceEvent::Transfer { bytes: 1 }, 7);
        t.span(TraceEvent::BackupIngest { probes: 0 }, 3);
        t.span(TraceEvent::Ack, 2);
        t.reconcile(2, 47, 0, 0).unwrap();
    }

    #[test]
    fn cow_copy_counts_toward_ack_sum() {
        let (t, _ring) = Tracer::in_memory(16);
        t.begin_epoch(1, 0);
        t.span(TraceEvent::Freeze, 10);
        t.span(TraceEvent::Dump { dirty_pages: 8 }, 20);
        t.span(TraceEvent::LocalCopy, 5);
        t.span(
            TraceEvent::CowCopy {
                pages: 8,
                bytes: 32_768,
            },
            40,
        );
        t.mark(TraceEvent::CowFault { faults: 2 }); // marker: no sum impact
        t.span(TraceEvent::Transfer { bytes: 32_768 }, 7);
        t.span(TraceEvent::BackupIngest { probes: 0 }, 3);
        t.span(TraceEvent::Ack, 2);
        t.reconcile(1, 35, 52, 0).unwrap();
    }

    #[test]
    fn log_ship_counts_toward_log_sum() {
        let (t, _ring) = Tracer::in_memory(16);
        t.begin_epoch(1, 0);
        t.span(TraceEvent::Freeze, 10);
        t.span(TraceEvent::Dump { dirty_pages: 1 }, 20);
        t.span(TraceEvent::LocalCopy, 5);
        t.span(
            TraceEvent::LogShip {
                events: 6,
                bytes: 900,
            },
            68,
        );
        t.span(TraceEvent::Transfer { bytes: 4096 }, 7);
        t.span(TraceEvent::BackupIngest { probes: 1 }, 3);
        t.span(TraceEvent::Ack, 2);
        t.reconcile(1, 35, 12, 68).unwrap();
        // A missing log total is a reconciliation failure, not a silent pass.
        t.begin_epoch(2, 0);
        t.span(TraceEvent::Freeze, 35);
        t.span(
            TraceEvent::LogShip {
                events: 1,
                bytes: 50,
            },
            9,
        );
        let err = t.reconcile(2, 35, 0, 0).unwrap_err();
        assert!(err.contains("log spans 9ns"), "{err}");
    }

    #[test]
    fn reconcile_detects_missing_span() {
        let (t, _ring) = Tracer::in_memory(16);
        t.begin_epoch(1, 0);
        t.span(TraceEvent::Freeze, 10);
        let err = t.reconcile(1, 35, 0, 0).unwrap_err();
        assert!(err.contains("epoch 1"), "{err}");
        // Sums reset: the next epoch starts clean.
        t.begin_epoch(2, 0);
        t.span(TraceEvent::Freeze, 35);
        t.reconcile(2, 35, 0, 0).unwrap();
    }

    #[test]
    fn reconcile_vacuous_without_phase_spans() {
        let (t, _ring) = Tracer::in_memory(16);
        t.begin_epoch(1, 0);
        t.span(
            TraceEvent::Exec {
                requests: 1,
                steps: 0,
            },
            30,
        );
        t.event_at(TraceEvent::OutputRelease { packets: 4 }, 99);
        t.reconcile(1, 123, 456, 0).unwrap();
    }

    #[test]
    fn ring_sink_evicts_oldest() {
        let (t, ring) = Tracer::in_memory(2);
        t.begin_epoch(1, 0);
        t.span(TraceEvent::Freeze, 1);
        t.span(TraceEvent::LocalCopy, 1);
        t.span(TraceEvent::Ack, 1);
        let recs = ring.snapshot();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].kind, TraceEvent::LocalCopy);
        assert_eq!(recs[1].kind, TraceEvent::Ack);
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        let variants = vec![
            TraceEvent::RunStart {
                name: "redis".into(),
                mode: "NiLiCon".into(),
            },
            TraceEvent::Exec {
                requests: 5,
                steps: 6,
            },
            TraceEvent::Freeze,
            TraceEvent::Dump { dirty_pages: 99 },
            TraceEvent::DumpDetail {
                processes: 1,
                pages: 2,
                sockets: 3,
                fs_cache: 4,
                infrequent: 5,
            },
            TraceEvent::DeltaEncode {
                zero_pages: 4,
                delta_pages: 80,
                full_pages: 15,
                raw_bytes: 405_504,
                encoded_bytes: 71_300,
            },
            TraceEvent::LocalCopy,
            TraceEvent::DrbdShip {
                writes: 7,
                bytes: 4120,
            },
            TraceEvent::CowCopy {
                pages: 300,
                bytes: 1_228_800,
            },
            TraceEvent::CowFault { faults: 12 },
            TraceEvent::Transfer { bytes: 12345 },
            TraceEvent::BackupIngest { probes: 44 },
            TraceEvent::Ack,
            TraceEvent::BackupCommit {
                probes: 8,
                disk_pages: 2,
            },
            TraceEvent::OutputRelease { packets: 3 },
            TraceEvent::ClientDeliver { responses: 2 },
            TraceEvent::HeartbeatMiss { misses: 2 },
            TraceEvent::OutputDiscard { packets: 4 },
            TraceEvent::RearmStart { attempt: 1 },
            TraceEvent::BootstrapChunk {
                pages: 256,
                bytes: 1_048_576,
            },
            TraceEvent::RearmComplete {
                pages: 4096,
                bytes: 16_777_216,
            },
            TraceEvent::Failover {
                detection_latency: 90,
                restore: 218,
                arp: 28,
                tcp: 54,
                others: 7,
            },
            TraceEvent::PartitionStart,
            TraceEvent::PartitionHeal,
            TraceEvent::LeaseAcquire { until: 550_000_000 },
            TraceEvent::LeaseExpire { at: 550_000_000 },
            TraceEvent::FencedOutput { packets: 9 },
            TraceEvent::FalseSuspicion {
                suspected_for: 20_000_000,
            },
            TraceEvent::ChaosDelay { extra: 160_000_000 },
            TraceEvent::ShardCommit {
                shards: 3,
                pages: 120,
                frag_bytes: 245_760,
            },
            TraceEvent::RepairStart {
                kind: "repair".into(),
                attempt: 1,
            },
            TraceEvent::RepairChunk {
                pages: 256,
                bytes: 2_097_152,
            },
            TraceEvent::RepairComplete {
                pages: 4096,
                bytes: 33_554_432,
            },
            TraceEvent::DegradedMode { alive: 2, need: 2 },
            TraceEvent::LogShip {
                events: 42,
                bytes: 13_456,
            },
            TraceEvent::LogCommit {
                events: 42,
                commit_latency: 68_000,
            },
            TraceEvent::ReplayStart {
                epochs: 1,
                events: 42,
            },
            TraceEvent::ReplayComplete {
                events: 42,
                replay_time: 900_000,
            },
            TraceEvent::ReplayDiverge {
                reason: "partial".into(),
            },
            TraceEvent::StageEnqueue {
                stage: "encode".into(),
                chunk: 7,
            },
            TraceEvent::StageDequeue {
                stage: "transfer".into(),
                chunk: 7,
                wait: 12_000,
            },
            TraceEvent::StageRestart {
                stage: "ingest".into(),
                chunk: 3,
            },
            TraceEvent::Backpressure { stalled: 2_500_000 },
            TraceEvent::FleetEpochStart {
                lane: 5,
                offset: 1_875_000,
            },
            TraceEvent::FairShareWait {
                lane: 5,
                waited: 430_000,
            },
        ];
        for kind in variants {
            let rec = TraceRecord {
                epoch: 3,
                t: 100,
                dur: 50,
                kind: kind.clone(),
            };
            let line = serde_json::to_string(&rec).unwrap();
            let back: TraceRecord = serde_json::from_str(&line)
                .unwrap_or_else(|e| panic!("{}: {e:?} in {line}", kind.name()));
            assert_eq!(back, rec, "{line}");
        }
    }

    /// The exact JSONL text of one record per encoding shape: three readers
    /// (`trace-report`, the benchmark's span files, OBSERVABILITY.md) parse
    /// this format, so a changed field order or tag is a test failure.
    #[test]
    fn wire_format_is_pinned_per_encoding_shape() {
        let cases = [
            (TraceEvent::Freeze, r#""Freeze""#),
            (
                TraceEvent::Dump { dirty_pages: 99 },
                r#"{"Dump":{"dirty_pages":99}}"#,
            ),
            (
                TraceEvent::HeartbeatMiss { misses: 2 },
                r#"{"HeartbeatMiss":{"misses":2}}"#,
            ),
            (
                TraceEvent::RunStart {
                    name: "redis".into(),
                    mode: "NiLiCon".into(),
                },
                r#"{"RunStart":{"name":"redis","mode":"NiLiCon"}}"#,
            ),
            (
                TraceEvent::StageDequeue {
                    stage: "transfer".into(),
                    chunk: 7,
                    wait: 12_000,
                },
                r#"{"StageDequeue":{"stage":"transfer","chunk":7,"wait":12000}}"#,
            ),
            (
                TraceEvent::Failover {
                    detection_latency: 90,
                    restore: 218,
                    arp: 28,
                    tcp: 54,
                    others: 7,
                },
                r#"{"Failover":{"detection_latency":90,"restore":218,"arp":28,"tcp":54,"others":7}}"#,
            ),
        ];
        for (kind, text) in cases {
            let rec = TraceRecord {
                epoch: 3,
                t: 100,
                dur: 50,
                kind,
            };
            let line = format!(r#"{{"epoch":3,"t":100,"dur":50,"kind":{text}}}"#);
            assert_eq!(serde_json::to_string(&rec).unwrap(), line);
            assert_eq!(serde_json::from_str::<TraceRecord>(&line).unwrap(), rec);
        }
        let err = |line: &str| {
            serde_json::from_str::<TraceRecord>(line)
                .unwrap_err()
                .to_string()
        };
        for kind in [r#""Nope""#, r#"{"Nope":{"x":1}}"#] {
            let e = err(&format!(r#"{{"epoch":0,"t":0,"dur":0,"kind":{kind}}}"#));
            assert!(e.contains("Nope"), "{e}");
        }
        let e = err(r#"{"epoch":0,"t":0,"dur":0,"kind":{"Dump":{}}}"#);
        assert!(e.contains("dirty_pages"), "{e}");
        let e = err(r#"{"epoch":0,"t":0,"kind":"Freeze"}"#);
        assert!(e.contains("dur"), "{e}");
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let path = std::env::temp_dir().join("nilicon-trace-test.jsonl");
        let t = Tracer::to_file(&path).unwrap();
        t.begin_epoch(0, 0);
        t.span(TraceEvent::Freeze, 5);
        t.span(TraceEvent::Dump { dirty_pages: 1 }, 10);
        t.flush().unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        let first: TraceRecord = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.kind, TraceEvent::Freeze);
        let _ = std::fs::remove_file(&path);
    }
}
