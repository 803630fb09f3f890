//! # nilicon-colo — COLO-style active replication baseline
//!
//! COLO (Dong et al., SoCC'13) is the paper's §VIII design alternative to
//! Remus-style passive replication: the backup **actively executes** the same
//! inputs as the primary; outgoing packets from the two replicas are
//! *compared*, and
//!
//! * on a **match**, one copy is released immediately — the only delay is the
//!   comparison itself (far below Remus/NiLiCon's buffering delay);
//! * on a **mismatch**, the replicas have diverged and a full state
//!   synchronization (a Remus-style checkpoint) is forced before release.
//!
//! The paper's two criticisms, both reproduced by this model:
//!
//! 1. *"As with all active replication schemes, the resource overheads (CPU
//!    cycles and memory) of COLO and PLOVER is more than 100%"* — the backup
//!    burns a full copy of the primary's execution CPU
//!    ([`nilicon::metrics::RunMetrics::backup_utilization`] ≈ active).
//! 2. *"For largely non-deterministic workloads, mismatches are frequent,
//!    resulting in prohibitive overhead"* — [`ColoEngine::new`] takes a
//!    `divergence` rate (expected fraction of comparison intervals whose
//!    outputs differ); each divergent interval pays a full synchronization.
//!    The `colo_divergence` bench binary sweeps it.
//!
//! Output divergence is *modeled* (deterministically, from a hash of the
//! epoch) rather than emergent: our simulated applications are deterministic,
//! whereas real-world divergence comes from scheduling, timestamps, and TCP
//! segmentation differences between replicas.
//!
//! ## Observability
//!
//! Like the MC baseline, `ColoEngine` keeps the default no-op
//! `Checkpointer::set_tracer`: traced COLO runs carry harness-level spans
//! only, and phase reconciliation is vacuous (see `OBSERVABILITY.md`).

#![warn(missing_docs)]
#![deny(unsafe_code)]

use nilicon::backup::BackupAgent;
use nilicon::engine::{CheckpointOutcome, Checkpointer, FailoverReport};
use nilicon_container::Container;
use nilicon_criu::{dump_container, DumpConfig, RestoreConfig, RestoredContainer};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::mem::TrackingMode;
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimError, SimResult};

/// The COLO engine.
pub struct ColoEngine {
    /// Backup-side state store (used only for forced synchronizations and
    /// failover bookkeeping — the backup replica is live).
    pub agent: BackupAgent,
    /// Expected fraction of comparison intervals with divergent output
    /// (0.0 = fully deterministic workload, 1.0 = every interval diverges).
    divergence: f64,
    /// Per-epoch CPU the backup burns mirroring the primary's execution.
    /// Modeled as one full epoch of a saturated core — the defining cost of
    /// active replication.
    last_exec_cpu: Nanos,
    prepared: bool,
    syncs: u64,
    matches: u64,
}

impl std::fmt::Debug for ColoEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColoEngine")
            .field("divergence", &self.divergence)
            .field("syncs", &self.syncs)
            .field("matches", &self.matches)
            .finish()
    }
}

impl ColoEngine {
    /// New engine with the given expected output-divergence rate.
    pub fn new(costs: nilicon_sim::CostModel, divergence: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&divergence),
            "divergence is a probability"
        );
        ColoEngine {
            agent: BackupAgent::new(costs, true),
            divergence,
            last_exec_cpu: 30_000_000,
            prepared: false,
            syncs: 0,
            matches: 0,
        }
    }

    /// `(forced synchronizations, matched intervals)` so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.syncs, self.matches)
    }

    /// Deterministic divergence decision for `epoch`.
    fn diverges(&self, epoch: u64) -> bool {
        if self.divergence <= 0.0 {
            return false;
        }
        let h = epoch
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(0xD1B54A32D192ED03);
        let u = ((h >> 11) as f64) / ((1u64 << 53) as f64);
        u < self.divergence
    }
}

impl Checkpointer for ColoEngine {
    fn name(&self) -> &'static str {
        "COLO"
    }

    fn prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        // Dirty tracking is still needed for the forced synchronizations.
        for pid in container.all_pids() {
            primary.mm_mut(pid)?.set_tracking(TrackingMode::SoftDirty);
        }
        // COLO holds output only for the comparison window, not an epoch —
        // but output still flows through the plug so the engine controls
        // release timing uniformly.
        primary.stack_mut(container.ns.net)?.plugged = true;
        self.prepared = true;
        Ok(())
    }

    fn checkpoint(
        &mut self,
        primary: &mut Kernel,
        backup: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<CheckpointOutcome> {
        if !self.prepared {
            return Err(SimError::Invalid("engine not prepared".into()));
        }
        let c = primary.costs.clone();
        primary.meter.take();

        // The backup actively re-executes the interval's inputs: a full copy
        // of the primary's execution CPU (the >100% resource cost).
        let mirror_cpu = self.last_exec_cpu;

        if self.diverges(epoch) {
            // Mismatch: full Remus-style synchronization before release.
            self.syncs += 1;
            primary.freeze_cgroup(
                container.cgroup,
                nilicon_sim::proc::FreezeStrategy::BusyPoll,
            )?;
            primary.meter.charge(c.plug_block_cycle);
            primary.stack_mut(container.ns.net)?.block_input();
            let img = dump_container(primary, container, &DumpConfig::nilicon(), None, epoch)?;
            let dirty_pages = img.stats.dirty_pages;
            let state_bytes = img.state_bytes();
            let chunks = img.transfer_chunks();
            primary.stack_mut(container.ns.net)?.unblock_input();
            primary.thaw_cgroup(container.cgroup)?;
            // Synchronization is synchronous: outputs held until the backup
            // has applied the state.
            let transfer =
                c.repl_link_latency + c.repl_wire(state_bytes) + chunks * c.repl_msg_overhead;
            let mut backup_cpu = self.agent.ingest(img);
            self.agent.drbd.receive(nilicon_drbd_barrier(epoch));
            backup_cpu += self.agent.commit(epoch, &mut backup.vfs.disk)?;
            let stop_time = primary.meter.take() + transfer + backup_cpu;
            Ok(CheckpointOutcome {
                stop_time,
                state_bytes,
                dirty_pages,
                ack_delay: 0,
                backup_cpu: backup_cpu + mirror_cpu,
            })
        } else {
            // Match: release after the comparison delay only. Clear the
            // dirty-tracking generation so divergent intervals dump only
            // their own delta.
            self.matches += 1;
            for pid in container.all_pids() {
                primary.clear_refs(pid)?;
            }
            let compare = c.packet_process * 4; // compare + checksum both copies
            primary.meter.charge(compare);
            let stop_time = primary.meter.take();
            // Keep the failover story sound: a matched interval means the
            // live backup replica has equivalent state; record the epoch as
            // committed without shipping anything.
            self.agent.drbd.receive(nilicon_drbd_barrier(epoch));
            Ok(CheckpointOutcome {
                stop_time,
                state_bytes: 0,
                dirty_pages: 0,
                ack_delay: c.repl_link_latency * 2,
                backup_cpu: mirror_cpu,
            })
        }
    }

    fn commit(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        let _ = (backup, epoch);
        Ok(0)
    }

    fn failover(&mut self, backup: &mut Kernel) -> SimResult<(RestoredContainer, FailoverReport)> {
        // The backup replica is live: failover is nearly instantaneous.
        // Mechanically we rebuild from the last synchronized image when one
        // exists; a fully-matched history means the replica state equals the
        // primary's, which our single-app-object harness already embodies.
        self.agent.discard_uncommitted();
        let img = self.agent.materialize()?;
        backup.meter.take();
        let mut restored =
            nilicon_criu::restore_container(backup, &img, &RestoreConfig::default())?;
        backup.meter.take();
        restored.restore_time = backup.costs.vm_resume_at_failover / 4;
        let c = &backup.costs;
        let report = FailoverReport {
            restore: restored.restore_time,
            arp: c.gratuitous_arp,
            tcp: 0, // the live replica's sockets are current
            others: c.recovery_misc,
            disk_pages_committed: 0,
        };
        Ok((restored, report))
    }

    fn committed_epoch(&self) -> Option<u64> {
        self.agent.committed_epoch()
    }
}

/// The backup agent's ack condition requires a disk barrier per epoch; COLO
/// runs the replicas' disks independently, so the barrier is synthetic.
fn nilicon_drbd_barrier(epoch: u64) -> nilicon_drbd::DrbdMsg {
    nilicon_drbd::DrbdMsg::Barrier(epoch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_container::{ContainerRuntime, ContainerSpec, MemLayout};
    use nilicon_sim::time::MILLISECOND;
    use nilicon_sim::CostModel;

    fn setup(divergence: f64) -> (Kernel, Kernel, Container, ColoEngine) {
        let mut p = Kernel::default();
        let b = Kernel::default();
        let spec = ContainerSpec::server("colo", 10, 80);
        let c = ContainerRuntime::create(&mut p, &spec).unwrap();
        let mut e = ColoEngine::new(CostModel::default(), divergence);
        e.prepare(&mut p, &c).unwrap();
        (p, b, c, e)
    }

    #[test]
    fn deterministic_workload_pays_almost_nothing() {
        let (mut p, mut b, c, mut e) = setup(0.0);
        let mut total_stop = 0;
        for epoch in 1..=50 {
            p.mem_write(c.init_pid(), MemLayout::heap(0), &[epoch as u8])
                .unwrap();
            let o = e.checkpoint(&mut p, &mut b, &c, epoch as u64).unwrap();
            total_stop += o.stop_time;
            assert_eq!(o.state_bytes, 0, "matched interval ships nothing");
        }
        assert!(
            total_stop < MILLISECOND,
            "50 matched comparisons cost <1ms total, got {total_stop}ns"
        );
        assert_eq!(e.counters(), (0, 50));
    }

    #[test]
    fn divergent_workload_pays_full_synchronizations() {
        let (mut p, mut b, c, mut e) = setup(1.0);
        let mut total_stop = 0;
        for epoch in 1..=10 {
            p.mem_write(c.init_pid(), MemLayout::heap(0), &[epoch as u8])
                .unwrap();
            let o = e.checkpoint(&mut p, &mut b, &c, epoch as u64).unwrap();
            total_stop += o.stop_time;
        }
        let (syncs, matches) = e.counters();
        assert_eq!(syncs, 10);
        assert_eq!(matches, 0);
        assert!(
            total_stop > 10 * MILLISECOND,
            "§VIII: frequent mismatches are prohibitive, got {total_stop}ns"
        );
    }

    #[test]
    fn divergence_rate_is_respected_statistically() {
        let e = ColoEngine::new(CostModel::default(), 0.3);
        let hits = (0..10_000).filter(|&i| e.diverges(i)).count();
        assert!((2_500..3_500).contains(&hits), "≈30%: {hits}");
    }

    #[test]
    fn backup_cpu_exceeds_passive_schemes() {
        // The >100% resource claim: backup CPU ≈ primary exec CPU even with
        // zero divergence.
        let (mut p, mut b, c, mut e) = setup(0.0);
        let o = e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        assert!(o.backup_cpu >= 30 * MILLISECOND, "full mirror execution");
    }

    #[test]
    fn failover_after_sync_restores_state() {
        let (mut p, mut b, c, mut e) = setup(1.0);
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"colo-state")
            .unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        let (restored, report) = e.failover(&mut b).unwrap();
        restored.finish(&mut b).unwrap();
        let mut buf = [0u8; 10];
        b.mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"colo-state");
        assert_eq!(report.tcp, 0, "live replica: no retransmission wait");
        assert!(report.total() < 100 * MILLISECOND, "near-instant failover");
    }

    #[test]
    fn invalid_divergence_rejected() {
        let r = std::panic::catch_unwind(|| ColoEngine::new(CostModel::default(), 1.5));
        assert!(r.is_err());
    }
}
