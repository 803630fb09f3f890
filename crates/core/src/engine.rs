//! The [`Checkpointer`] seam between the epoch-loop harness and a
//! replication engine: the one NiLiCon engine here
//! ([`Engine`](crate::nilicon_engine::Engine), whose `supports_*` answers
//! come from its knobs and replica count), MC in `nilicon-mc`, COLO in
//! `nilicon-colo` (which keep the `false` defaults).

use nilicon_container::Container;
use nilicon_criu::RestoredContainer;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::replay::{ReplayEvent, ReplayLog};
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimError, SimResult};

/// What one stop-phase checkpoint produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointOutcome {
    /// Virtual time the container/VM was stopped.
    pub stop_time: Nanos,
    /// Bytes shipped to the backup for this epoch (container state + disk).
    pub state_bytes: u64,
    /// Dirty pages captured.
    pub dirty_pages: u64,
    /// Delay from resume until the backup's ack arrives (release point of
    /// this epoch's buffered output). Zero if the transfer completed inside
    /// the stop phase (no staging buffer).
    pub ack_delay: Nanos,
    /// Backup CPU consumed ingesting this epoch.
    pub backup_cpu: Nanos,
}

/// Recovery-latency breakdown (Table II).
#[derive(Debug, Clone, Copy, Default)]
pub struct FailoverReport {
    /// Time to restore the container state on the backup.
    pub restore: Nanos,
    /// Gratuitous-ARP broadcast + propagation.
    pub arp: Nanos,
    /// Packet-retransmission delay not overlapped with other recovery
    /// actions (§V-E).
    pub tcp: Nanos,
    /// Everything else (bookkeeping, reconnecting the bridge).
    pub others: Nanos,
    /// Disk pages committed from the DRBD buffer during failover.
    pub disk_pages_committed: u64,
}

impl FailoverReport {
    /// Total recovery latency (excludes detection).
    pub fn total(&self) -> Nanos {
        self.restore + self.arp + self.tcp + self.others
    }
}

/// What starting a re-replication bootstrap produced
/// ([`Checkpointer::bootstrap_begin`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BootstrapBegin {
    /// Virtual time the container was stopped to write-protect its full
    /// resident set (the COW protect pass — roughly one epoch's stop time,
    /// not footprint-proportional).
    pub stop_time: Nanos,
    /// Deferred pages awaiting the background stream to the new backup.
    pub total_pages: u64,
    /// Metadata bytes of the full image (excluding the deferred pages).
    pub state_bytes: u64,
}

/// One bounded streaming step of a re-replication bootstrap
/// ([`Checkpointer::bootstrap_step`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BootstrapStep {
    /// Pages drained and shipped this step.
    pub pages: u64,
    /// Bytes those pages carried on the wire.
    pub bytes: u64,
    /// Backup CPU consumed ingesting this step's chunks.
    pub backup_cpu: Nanos,
    /// Deferred pages still awaiting a later step (0 means the bootstrap
    /// image is fully streamed and may be finished).
    pub remaining: u64,
}

fn no_rearm<T>() -> SimResult<T> {
    Err(SimError::Invalid(
        "engine does not support re-replication".into(),
    ))
}

/// What starting a coded repair produced ([`Checkpointer::repair_begin`]).
///
/// Unlike [`BootstrapBegin`] there is no `stop_time`: repair reads the
/// *committed* fragment stores of the surviving replicas, so the primary
/// container is never stopped.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairBegin {
    /// Committed pages whose missing fragment must be regenerated onto the
    /// replacement replica.
    pub total_pages: u64,
    /// Metadata bytes of the committed image (shipped with the base
    /// assembly, not per-page).
    pub state_bytes: u64,
}

pub(crate) fn no_placement<T>() -> SimResult<T> {
    Err(SimError::Invalid(
        "engine does not support k-of-n placement".into(),
    ))
}

/// What shipping one batch of nondeterminism-log events produced
/// ([`Checkpointer::ship_log`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct LogShipOutcome {
    /// Wire bytes the events carried.
    pub bytes: u64,
    /// Chunks (messages) the batch was shipped as.
    pub chunks: u64,
    /// Round-trip from handing the batch to the link until the backup's
    /// log-commit confirmation — the client-visible release wait under
    /// hybrid replay (replaces the epoch ack).
    pub commit_latency: Nanos,
    /// Backup CPU consumed receiving and storing the batch.
    pub backup_cpu: Nanos,
}

/// The sealed-log tail available for failover replay
/// ([`Checkpointer::take_replay_tail`]): every *sealed* epoch log past the
/// last committed checkpoint, stopping at the first gap or unsealed log.
#[derive(Debug, Clone, Default)]
pub struct ReplayTail {
    /// Contiguous sealed logs, ascending epoch order, all `> committed`.
    pub logs: Vec<ReplayLog>,
    /// True if an unsealed (partial) or missing epoch log truncated the tail
    /// — the divergence signal that forces the last-checkpoint fallback when
    /// it cuts the tail short of the fault epoch.
    pub dropped_partial: bool,
}

impl ReplayTail {
    /// Total events across the tail.
    pub fn events(&self) -> u64 {
        self.logs.iter().map(|l| l.len() as u64).sum()
    }
}

fn no_replay<T>() -> SimResult<T> {
    Err(SimError::Invalid(
        "engine does not support hybrid replay".into(),
    ))
}

/// A replication engine driven by the harness once per epoch.
pub trait Checkpointer {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Attach a [`Tracer`](crate::trace::Tracer): subsequent checkpoints
    /// should emit their phase spans into it. The default ignores the tracer
    /// (engines without instrumentation stay valid — the harness's
    /// reconciliation check is vacuous for them).
    fn set_tracer(&mut self, _tracer: crate::trace::Tracer) {}

    /// One-time setup on the primary (arm page tracking, initial full sync
    /// of memory and disk to the backup).
    fn prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()>;

    /// Execute one stop-phase checkpoint: freeze/pause, capture state,
    /// resume. Reports the stop time, the ack delay, and the transfer stats
    /// in the outcome. Without a staging buffer the transfer and the
    /// backup's inline ingest sit on the stop critical path (§V-D (2));
    /// with one, they overlap the next execution phase.
    fn checkpoint(
        &mut self,
        primary: &mut Kernel,
        backup: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<CheckpointOutcome>;

    /// The backup acked `epoch` (called at ack time): commit buffered disk
    /// writes and image state. Returns backup CPU consumed by the commit.
    fn commit(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos>;

    /// Staged-pipeline engines only ([`pipeline`]: the harness grants the
    /// engine's background stages `elapsed` nanoseconds of overlap (one
    /// execution phase) so the pipeline can drain its backlog. Engines
    /// without a pipeline ignore it.
    ///
    /// [`pipeline`]: crate::OptimizationConfig::pipeline
    fn pipeline_advance(&mut self, _elapsed: Nanos) {}

    /// Chaos hook: arm a one-shot pipeline-stage crash. The next checkpoint
    /// whose staged transfer reaches `chunk` loses that stage mid-chunk; the
    /// peek-before-commit channel holds the chunk until the stage's commit,
    /// so the restarted stage replays it exactly once (`StageRestart` in the
    /// trace). Engines without staged transfer ignore the hook.
    fn inject_stage_fail(&mut self, _chunk: u64) {}

    /// The primary failed: restore on `backup` from the last committed
    /// state. Returns the restored container and the latency breakdown.
    fn failover(&mut self, backup: &mut Kernel) -> SimResult<(RestoredContainer, FailoverReport)>;

    /// Highest committed epoch (None before the first commit).
    fn committed_epoch(&self) -> Option<u64>;

    /// Whether this engine can re-establish redundancy after a failover
    /// (the `rearm` extension: [`Engine`](crate::nilicon_engine::Engine) on
    /// either layout, iff `opts.rearm`). Engines that return `false` keep
    /// the paper's behavior: one failover permanently exhausts fault
    /// tolerance.
    fn supports_rearm(&self) -> bool {
        false
    }

    /// Reset replica-side state (the old backup died with its buffers) and
    /// re-arm page tracking / output plugging on the promoted container, in
    /// preparation for bootstrapping a replacement backup.
    fn rearm_prepare(&mut self, _primary: &mut Kernel, _container: &Container) -> SimResult<()> {
        no_rearm()
    }

    /// Start a re-replication bootstrap: take a *full* checkpoint of the
    /// promoted container with the page copies deferred via COW, so the
    /// container resumes after ~one epoch's stop time and the image streams
    /// to the new backup in the background.
    fn bootstrap_begin(
        &mut self,
        _primary: &mut Kernel,
        _container: &Container,
        _epoch: u64,
    ) -> SimResult<BootstrapBegin> {
        no_rearm()
    }

    /// Stream at most `max_pages` deferred pages of the bootstrap image to
    /// the new backup. Called once per epoch while the bootstrap is active.
    fn bootstrap_step(
        &mut self,
        _primary: &mut Kernel,
        _epoch: u64,
        _max_pages: u64,
    ) -> SimResult<BootstrapStep> {
        no_rearm()
    }

    /// All deferred pages arrived: seal and commit the bootstrap image on
    /// the new backup. Returns backup CPU consumed by the commit. After this
    /// the engine is ready for incremental [`Checkpointer::checkpoint`]
    /// epochs again.
    fn bootstrap_finish(&mut self, _backup: &mut Kernel, _epoch: u64) -> SimResult<Nanos> {
        no_rearm()
    }

    /// The replacement backup died mid-bootstrap: unwind the COW protect set
    /// on the primary and discard the half-assembled image so the promoted
    /// container can continue unreplicated (the harness retries later).
    fn bootstrap_abort(&mut self, _primary: &mut Kernel, _container: &Container) -> SimResult<()> {
        no_rearm()
    }

    /// Whether this engine stripes committed state across k-of-n replicas
    /// (the `placement` extension: [`PlacementEngine`](crate::PlacementEngine)
    /// with more than one replica). When `false`, the remaining methods in
    /// this block error — by default, and on the mirror layout — and the
    /// harness never calls them.
    fn supports_placement(&self) -> bool {
        false
    }

    /// The placement parameters `(quorum k, backups n)`. Engines without
    /// placement report the paper's implicit `(1, 1)` single warm backup.
    fn placement(&self) -> (u32, u32) {
        (1, 1)
    }

    /// The designated replica (the one backed by the harness's real backup
    /// kernel) was lost. Marks it dead and returns the number of replicas
    /// still alive; the caller decides whether the quorum still holds.
    fn replica_fault(&mut self) -> SimResult<u32> {
        no_placement()
    }

    /// Start a coded repair: regenerate the lost replica's fragment store
    /// from k surviving peers onto a fresh agent. The primary keeps serving
    /// — repair never stops the container.
    fn repair_begin(&mut self, _epoch: u64) -> SimResult<RepairBegin> {
        no_placement()
    }

    /// Stream at most `max_pages` base pages, regenerating each one's
    /// missing fragment from k surviving peers (modelled as decode +
    /// re-encode) unless a later epoch committed it, which leaves it to the
    /// seal's top-up. Called once per epoch while the repair is active;
    /// reuses [`BootstrapStep`] for accounting.
    fn repair_step(&mut self, _epoch: u64, _max_pages: u64) -> SimResult<BootstrapStep> {
        no_placement()
    }

    /// All fragments regenerated: seal and commit the repaired replica
    /// (including pages re-dirtied during the repair and a full disk resync
    /// onto `backup`). Returns backup CPU consumed by the commit.
    fn repair_finish(&mut self, _backup: &mut Kernel, _epoch: u64) -> SimResult<Nanos> {
        no_placement()
    }

    /// The replacement replica died mid-repair: discard the half-regenerated
    /// fragment store (the harness retries later with backoff).
    fn repair_abort(&mut self) -> SimResult<()> {
        no_placement()
    }

    /// Whether this engine ships a nondeterminism log and can replay it at
    /// failover (the `hybrid_replay` extension:
    /// [`Engine`](crate::nilicon_engine::Engine) on either layout, iff
    /// `opts.hybrid_replay`). When `false`, the remaining methods in this
    /// block error and the harness keeps the paper's release-at-epoch-ack
    /// behavior.
    fn supports_replay(&self) -> bool {
        false
    }

    /// Ship a batch of recorded nondeterministic events for `epoch` to the
    /// backup's log store. Called continuously during the execution phase —
    /// the returned `commit_latency` is what released output waits on
    /// instead of the epoch ack.
    fn ship_log(
        &mut self,
        _primary: &mut Kernel,
        _epoch: u64,
        _events: &[ReplayEvent],
    ) -> SimResult<LogShipOutcome> {
        no_replay()
    }

    /// Mark `epoch`'s log complete on the backup. Only sealed logs are
    /// eligible for failover replay; an unsealed log is a partial tail.
    fn seal_log(&mut self, _epoch: u64) -> SimResult<()> {
        no_replay()
    }

    /// At failover: take the contiguous sealed-log tail past the last
    /// committed checkpoint (see [`ReplayTail`]). Logs for committed epochs
    /// are dropped — their effects are already in the checkpoint.
    fn take_replay_tail(&mut self) -> SimResult<ReplayTail> {
        no_replay()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_report_total() {
        let r = FailoverReport {
            restore: 218,
            arp: 28,
            tcp: 54,
            others: 7,
            disk_pages_committed: 0,
        };
        assert_eq!(r.total(), 307, "Table II Net row");
    }
}
