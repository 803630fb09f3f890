//! # nilicon-mc — the MC (KVM MicroCheckpointing) comparison baseline
//!
//! The paper compares NiLiCon against MC, KVM/QEMU's implementation of
//! Remus-style whole-VM replication (§VI: QEMU 2.3.50, the last version with
//! MicroCheckpointing). This crate models MC as a [`Checkpointer`] over the
//! same simulated substrate, with the baseline's characteristic cost
//! structure:
//!
//! * **Page tracking by hypervisor write protection**: the first write to a
//!   page each epoch takes a VM exit/entry pair — much more expensive than
//!   NiLiCon's soft-dirty minor fault. This is why MC's *runtime* overhead
//!   component exceeds NiLiCon's for every benchmark (Fig. 3, §VII-C).
//! * **Cheap stop phase**: a VM's state is self-contained — there is no
//!   in-kernel container state to collect through slow proc/sys interfaces.
//!   MC pauses the VM, reads the KVM dirty log, copies dirty pages and a
//!   small device/vCPU blob, and resumes. Hence Table III's MC stop times
//!   (2.4-9.4 ms) sit well below NiLiCon's (5.1-38.2 ms).
//! * **Ready-to-go backup VM**: state changes are committed directly into a
//!   live backup VM each epoch, so failover is a resume, not a restore
//!   (§II-A, §III).
//! * **No disk replication**: the paper runs MC with a local disk because MC
//!   only supports disk I/O over networked file systems ("this does not
//!   provide correct handling of disk state", §VII-C). We model the same:
//!   primary disk writes are dropped from the replication stream, and the
//!   backup disk is stale at failover — the documented correctness caveat.
//!
//! ## Observability
//!
//! `McEngine` keeps the default no-op [`Checkpointer::set_tracer`], so a
//! traced MC run records the harness-level spans (`Exec`, `OutputRelease`,
//! detector events) but no engine phase breakdown; the per-epoch
//! reconciliation check is then vacuous by design (see `OBSERVABILITY.md`).

#![warn(missing_docs)]
#![deny(unsafe_code)]

use nilicon::backup::BackupAgent;
use nilicon::engine::{CheckpointOutcome, Checkpointer, FailoverReport};
use nilicon_container::Container;
use nilicon_criu::{RestoreConfig, RestoredContainer};
use nilicon_drbd::DrbdMsg;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::mem::TrackingMode;
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimError, SimResult};

/// The MC engine: whole-VM micro-checkpointing.
pub struct McEngine {
    /// Backup-side buffered VM state. MC applies each epoch directly (the
    /// "ready-to-go backup VM"), which we model by committing at ack with a
    /// constant-time store.
    pub agent: BackupAgent,
    prepared: bool,
}

impl std::fmt::Debug for McEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McEngine")
            .field("agent", &self.agent)
            .finish()
    }
}

impl McEngine {
    /// New MC engine.
    pub fn new(costs: nilicon_sim::CostModel) -> Self {
        McEngine {
            agent: BackupAgent::new(costs, true),
            prepared: false,
        }
    }
}

impl Checkpointer for McEngine {
    fn name(&self) -> &'static str {
        "MC"
    }

    fn prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        // Hypervisor write protection on all guest memory.
        for pid in container.all_pids() {
            primary
                .mm_mut(pid)?
                .set_tracking(TrackingMode::WriteProtect);
        }
        // Remus output commit applies to MC as well.
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
        primary.meter.take();

        // --- Pause the VM -------------------------------------------------
        primary.meter.charge(primary.costs.vm_pause_resume);
        // A paused VM processes no RX traffic; the gate models the
        // host-side queueing of packets during the pause.
        primary.stack_mut(container.ns.net)?.block_input();

        // --- Collect dirty pages via the KVM dirty log --------------------
        let mut img = nilicon_criu::CheckpointImage {
            epoch,
            name: container.spec.name.clone(),
            addr: container.spec.addr,
            ns: Some(container.ns),
            ..Default::default()
        };
        for &pid in &container.all_pids() {
            let mapped = primary.mm(pid)?.mapped_pages();
            primary
                .meter
                .charge(mapped * primary.costs.hv_dirty_log_per_page);
            let dirty = primary.mm(pid)?.soft_dirty_vpns();
            primary.mm_mut(pid)?.clear_refs();
            // The hypervisor copies guest pages directly (no parasite):
            // cheaper per page than the container path (§V-D vs KVM).
            primary
                .meter
                .charge(dirty.len() as Nanos * primary.costs.hv_page_copy);
            img.stats.dirty_pages += dirty.len() as u64;
            for vpn in dirty {
                let data = primary.mm(pid)?.snapshot_page(vpn)?;
                img.pages.push((pid, vpn, data));
            }
        }
        // VM device + vCPU state (small, self-contained).
        let device_bytes = primary.costs.vm_device_state_bytes;

        // MC snapshots full VM socket state implicitly (it lives in guest
        // memory); nothing to collect through repair mode. For failover
        // mechanics we still carry the socket images (the guest kernel's
        // state, which for a VM rides in the dirtied pages for free).
        let (listeners, sockets) = {
            let stack = primary.stack_mut(container.ns.net)?;
            stack.checkpoint_sockets()
        };
        img.listeners = listeners;
        img.sockets = sockets;
        img.processes = container
            .all_pids()
            .iter()
            .map(|&pid| {
                let p = primary.proc(pid).expect("container pid");
                nilicon_criu::ProcessImage {
                    pid,
                    ppid: p.ppid,
                    mm: p.mm,
                    exe: p.exe.clone(),
                    threads: p.threads.clone(),
                    fds: p.fds.iter().map(|(fd, e)| (*fd, e.clone())).collect(),
                    vmas: primary.mm(pid).expect("mm").vmas().cloned().collect(),
                }
            })
            .collect();
        img.cgroups = primary.cgroups.snapshot();
        img.namespaces = primary.namespaces.snapshot_set(&container.ns);
        img.paths = primary.vfs.paths().map(|(p, &i)| (p.clone(), i)).collect();
        let (fs_pages, fs_inodes) = primary.vfs.fgetfc();
        img.fs_pages = fs_pages;
        img.fs_inodes = fs_inodes;

        // --- Resume -------------------------------------------------------
        primary.stack_mut(container.ns.net)?.unblock_input();
        let stop_time = primary.meter.take();

        // --- Transfer (buffered at backup, applied on ack) ----------------
        let state_bytes = img.state_bytes() + device_bytes;
        let chunks = img.transfer_chunks();
        let dirty_pages = img.stats.dirty_pages;
        let c = &primary.costs;
        let transfer =
            c.repl_link_latency + c.repl_wire(state_bytes) + chunks * c.repl_msg_overhead;
        let backup_cpu = self.agent.ingest(img);
        // MC runs without disk replication (§VII-C): drop the write log.
        primary.vfs.disk.take_writes();
        // The disk barrier condition is satisfied vacuously.
        self.agent.drbd.receive(DrbdMsg::Barrier(epoch));

        let ack_delay = transfer + backup_cpu + c.repl_link_latency;
        let _ = backup;
        Ok(CheckpointOutcome {
            stop_time,
            state_bytes,
            dirty_pages,
            ack_delay,
            backup_cpu,
        })
    }

    fn commit(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        // Ready-to-go backup: the epoch is applied to the live backup VM at
        // ack time.
        self.agent.commit(epoch, &mut backup.vfs.disk)
    }

    fn failover(&mut self, backup: &mut Kernel) -> SimResult<(RestoredContainer, FailoverReport)> {
        self.agent.discard_uncommitted();
        let img = self.agent.materialize()?;
        // Mechanically rebuild the container; latency-wise this is a VM
        // *resume*, not a restore (the backup VM is ready to go).
        backup.meter.take();
        let mut restored =
            nilicon_criu::restore_container(backup, &img, &RestoreConfig::default())?;
        backup.meter.take();
        restored.restore_time = backup.costs.vm_resume_at_failover;
        let c = &backup.costs;
        let tcp = c
            .tcp_rto_default
            .saturating_sub(restored.restore_time / 2 + c.gratuitous_arp);
        let report = FailoverReport {
            restore: restored.restore_time,
            arp: c.gratuitous_arp,
            tcp,
            others: c.recovery_misc,
            disk_pages_committed: 0,
        };
        Ok((restored, report))
    }

    fn committed_epoch(&self) -> Option<u64> {
        self.agent.committed_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_container::{ContainerRuntime, ContainerSpec, MemLayout};
    use nilicon_sim::time::MILLISECOND;

    fn setup() -> (Kernel, Kernel, Container, McEngine) {
        let mut primary = Kernel::default();
        let backup = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut primary, &spec).unwrap();
        let e = McEngine::new(primary.costs.clone());
        (primary, backup, c, e)
    }

    #[test]
    fn mc_stop_time_is_low_and_dirty_driven() {
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        let o0 = e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        assert!(
            o0.stop_time >= 2 * MILLISECOND && o0.stop_time < 4 * MILLISECOND,
            "pause-dominated stop for a near-empty dirty set, got {}us",
            o0.stop_time / 1000
        );

        // Dirty 1000 pages: stop grows by ~1.15us each.
        for page in 0..1000u64 {
            p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[1])
                .unwrap();
        }
        let o = e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
        assert_eq!(o.dirty_pages, 1000);
        let delta = o.stop_time - o0.stop_time;
        assert!(
            (900_000..1_600_000).contains(&delta),
            "1000 pages ≈ 1.15ms extra, got {}us",
            delta / 1000
        );
    }

    #[test]
    fn mc_runtime_overhead_exceeds_nilicon() {
        // The vmexit fault is several times costlier than soft-dirty.
        let (mut p, _b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        p.clear_refs(c.init_pid()).unwrap();
        p.meter.take();
        p.fault_meter.take();
        p.mem_write(c.init_pid(), MemLayout::heap_page(0), &[1])
            .unwrap();
        let mc_fault = p.fault_meter.take();
        assert_eq!(mc_fault, p.costs.vmexit_fault);
        assert!(mc_fault > p.costs.soft_dirty_fault);
    }

    #[test]
    fn mc_failover_is_a_fast_resume() {
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"vmstate")
            .unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        let (restored, report) = e.failover(&mut b).unwrap();
        restored.finish(&mut b).unwrap();
        assert_eq!(report.restore, b.costs.vm_resume_at_failover);
        assert!(
            report.restore < 100 * MILLISECOND,
            "ready-to-go backup resumes fast"
        );
        let mut buf = [0u8; 7];
        b.mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"vmstate");
    }

    #[test]
    fn mc_drops_disk_replication() {
        // The paper's documented MC caveat: local disk, no replication.
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        let pid = c.init_pid();
        let fd = p.create_file(pid, "/data/f", 0).unwrap();
        p.pwrite(pid, fd, 0, b"x", 1).unwrap();
        p.fsync(pid, fd).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        assert_ne!(
            p.vfs.disk.digest(),
            b.vfs.disk.digest(),
            "backup disk is stale under MC — the §VII-C caveat"
        );
    }

    #[test]
    fn no_container_state_collection_costs() {
        // MC never pays the 100ms namespace walk: its stop must stay in the
        // single-digit milliseconds even on the first checkpoint.
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        let o = e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        assert!(o.stop_time < 10 * MILLISECOND);
    }
}
