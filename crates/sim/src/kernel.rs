//! The kernel facade: owns all subsystems and exposes the syscall surface.
//!
//! Every operation charges its modeled cost to [`Kernel::meter`]; the caller
//! (container runtime, CRIU engine, replication agent, benchmark driver)
//! decides which timeline the metered time lands on. See
//! [`crate::time::CostMeter`] for why.

use crate::cgroup::CgroupTree;
use crate::costs::CostModel;
use crate::error::{SimError, SimResult};
use crate::fs::{InodeKind, Vfs};
use crate::ftrace::{FtraceHooks, KernelFn};
use crate::ids::*;
use crate::mem::{AddressSpace, MappedFile, Perms, TrackingMode, Vma, VmaKind, WriteOutcome};
use crate::net::{InputMode, NetStack, RepairState};
use crate::ns::NsRegistry;
use crate::proc::{freeze, thaw, FdEntry, FreezeReport, FreezeStrategy, Process};
use crate::time::{CostMeter, Nanos};

/// How VMA information is collected (§V-D deficiency (1)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmaCollectVia {
    /// `/proc/pid/smaps`: formatted text incl. unneeded page statistics.
    Smaps,
    /// The task-diag netlink patch: binary, no statistics.
    Netlink,
}

/// How the parasite transfers dirty-page contents (§V-D deficiency (3)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageTransferVia {
    /// Pipe between parasite and agent: multiple syscalls per chunk.
    Pipe,
    /// Shared memory region: direct copy.
    SharedMem,
}

/// One simulated kernel (one host).
#[derive(Debug)]
pub struct Kernel {
    /// Cost model (shared constants; copy per kernel so experiments can
    /// perturb one host).
    pub costs: CostModel,
    /// Virtual-time meter for everything this kernel does.
    pub meter: CostMeter,
    /// Side-meter counting only page-tracking fault costs (also included in
    /// `meter`) — lets drivers split runtime overhead into "tracking" vs
    /// "useful work" for the Fig. 3 breakdown.
    pub fault_meter: CostMeter,
    /// The VFS (page cache, inodes, mounts, block device).
    pub vfs: Vfs,
    /// Control groups.
    pub cgroups: CgroupTree,
    /// Namespaces.
    pub namespaces: NsRegistry,
    /// ftrace hook registry.
    pub ftrace: FtraceHooks,
    procs: IdMap<Pid, Process>,
    spaces: IdMap<AsId, AddressSpace>,
    stacks: std::collections::BTreeMap<NsId, NetStack>,
    pid_alloc: IdAlloc,
    tid_alloc: IdAlloc,
    as_alloc: IdAlloc,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new(CostModel::default())
    }
}

impl Kernel {
    /// New kernel with the given cost model.
    pub fn new(costs: CostModel) -> Self {
        Kernel {
            costs,
            meter: CostMeter::new(),
            fault_meter: CostMeter::new(),
            vfs: Vfs::new(DevId(0)),
            cgroups: CgroupTree::new(),
            namespaces: NsRegistry::new(),
            ftrace: FtraceHooks::with_default_hooks(),
            procs: IdMap::default(),
            spaces: IdMap::default(),
            stacks: std::collections::BTreeMap::new(),
            pid_alloc: IdAlloc::starting_at(100),
            tid_alloc: IdAlloc::starting_at(10_000),
            as_alloc: IdAlloc::default(),
        }
    }

    #[inline]
    fn charge(&self, ns: Nanos) {
        self.meter.charge(ns);
    }

    // ==================================================================
    // Processes
    // ==================================================================

    /// Spawn a process in `cgroup`/`netns` with a fresh address space.
    pub fn spawn_process(&mut self, ppid: Pid, cgroup: CgroupId, netns: NsId, exe: &str) -> Pid {
        let pid = Pid(self.pid_alloc.alloc() as u32);
        let mm = AsId(self.as_alloc.alloc() as u32);
        self.spaces.insert(mm, AddressSpace::new());
        self.procs
            .insert(pid, Process::new(pid, ppid, mm, cgroup, netns, exe));
        self.charge(self.costs.syscall_base * 10); // fork+exec flavor
        pid
    }

    /// Spawn a process at a *specific* pid with a specific mm (restore path).
    pub fn restore_process(&mut self, proc: Process) -> SimResult<()> {
        if self.procs.contains_key(&proc.pid) {
            return Err(SimError::Invalid(format!("{} already exists", proc.pid)));
        }
        self.spaces.entry(proc.mm).or_default();
        self.procs.insert(proc.pid, proc);
        Ok(())
    }

    /// Add a thread to `pid`.
    pub fn spawn_thread(&mut self, pid: Pid) -> SimResult<Tid> {
        let tid = Tid(self.tid_alloc.alloc() as u32);
        self.proc_mut(pid)?.spawn_thread(tid);
        self.charge(self.costs.syscall_base * 4);
        Ok(tid)
    }

    /// Remove a process (container teardown / fail-stop emulation).
    pub fn kill_process(&mut self, pid: Pid) -> SimResult<Process> {
        let p = self
            .procs
            .remove(&pid)
            .ok_or(SimError::NoSuchProcess(pid))?;
        // Drop the address space if no other process shares it (an
        // existence test: order-free).
        if !self.procs.values().any(|q| q.mm == p.mm) {
            self.spaces.remove(&p.mm);
        }
        Ok(p)
    }

    /// Immutable process access.
    pub fn proc(&self, pid: Pid) -> SimResult<&Process> {
        self.procs.get(&pid).ok_or(SimError::NoSuchProcess(pid))
    }

    /// Mutable process access.
    pub fn proc_mut(&mut self, pid: Pid) -> SimResult<&mut Process> {
        self.procs.get_mut(&pid).ok_or(SimError::NoSuchProcess(pid))
    }

    /// All pids, sorted.
    pub fn pids(&self) -> Vec<Pid> {
        let mut v: Vec<Pid> = self.procs.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Pids belonging to `cgroup`, sorted (the container's process set).
    pub fn pids_in_cgroup(&self, cgroup: CgroupId) -> Vec<Pid> {
        let mut v: Vec<Pid> = self
            .procs
            .values()
            .filter(|p| p.cgroup == cgroup)
            .map(|p| p.pid)
            .collect();
        v.sort_unstable();
        v
    }

    // ==================================================================
    // Memory
    // ==================================================================

    /// Address-space access for a pid.
    pub fn mm(&self, pid: Pid) -> SimResult<&AddressSpace> {
        let mm = self.proc(pid)?.mm;
        Ok(self.spaces.get(&mm).expect("process mm exists"))
    }

    /// Mutable address-space access for a pid.
    pub fn mm_mut(&mut self, pid: Pid) -> SimResult<&mut AddressSpace> {
        let mm = self.proc(pid)?.mm;
        Ok(self.spaces.get_mut(&mm).expect("process mm exists"))
    }

    /// mmap an anonymous region.
    pub fn mmap_anon(&mut self, pid: Pid, start: u64, len: u64, heap: bool) -> SimResult<()> {
        self.charge(self.costs.syscall_base);
        self.mm_mut(pid)?.mmap(Vma {
            start,
            len,
            perms: Perms::RW,
            kind: VmaKind::Anon,
            is_heap: heap,
            is_stack: false,
        })
    }

    /// mmap a file (fires the MappedFiles ftrace hook).
    pub fn mmap_file(
        &mut self,
        pid: Pid,
        start: u64,
        len: u64,
        ino: Ino,
        perms: Perms,
    ) -> SimResult<()> {
        self.charge(self.costs.syscall_base);
        self.ftrace.hit(KernelFn::MmapFile);
        self.mm_mut(pid)?
            .mmap_file(start, len, MappedFile { ino, file_off: 0 }, perms)
    }

    /// Write guest memory, charging copy + tracking-fault costs.
    pub fn mem_write(&mut self, pid: Pid, addr: u64, data: &[u8]) -> SimResult<WriteOutcome> {
        let len = data.len() as u64;
        let mm = self.mm_mut(pid)?;
        let mode = mm.tracking();
        let out = mm.write(addr, data)?;
        let fault_cost = match mode {
            TrackingMode::None => 0,
            TrackingMode::SoftDirty => self.costs.soft_dirty_fault,
            TrackingMode::WriteProtect => self.costs.vmexit_fault,
        };
        // COW write-protect faults (eager copy-before-write of pages a
        // deferred checkpoint still holds) are runtime overhead too.
        let fault_total = out.tracking_faults as u64 * fault_cost
            + out.cow_faults as u64 * self.costs.cow_fault;
        self.charge(len * self.costs.copy_per_byte + fault_total);
        self.fault_meter.charge(fault_total);
        Ok(out)
    }

    /// Read guest memory.
    pub fn mem_read(&mut self, pid: Pid, addr: u64, buf: &mut [u8]) -> SimResult<()> {
        self.charge(buf.len() as u64 * self.costs.copy_per_byte);
        self.mm(pid)?.read(addr, buf)
    }

    // ==================================================================
    // Files
    // ==================================================================

    /// Create + open a regular file.
    pub fn create_file(&mut self, pid: Pid, path: &str, now: Nanos) -> SimResult<Fd> {
        self.charge(self.costs.syscall_base * 2);
        let ino = self.vfs.create(path, InodeKind::Regular, now)?;
        Ok(self.proc_mut(pid)?.install_fd(FdEntry::File {
            ino,
            offset: 0,
            flags: 0,
        }))
    }

    /// Open an existing file.
    pub fn open(&mut self, pid: Pid, path: &str) -> SimResult<Fd> {
        self.charge(self.costs.syscall_base * 2);
        let ino = self.vfs.lookup(path)?;
        Ok(self.proc_mut(pid)?.install_fd(FdEntry::File {
            ino,
            offset: 0,
            flags: 0,
        }))
    }

    /// Positional write through an fd.
    pub fn pwrite(
        &mut self,
        pid: Pid,
        fd: Fd,
        offset: u64,
        data: &[u8],
        now: Nanos,
    ) -> SimResult<usize> {
        self.charge(self.costs.syscall_base + data.len() as u64 * self.costs.copy_per_byte);
        let ino = self.file_ino(pid, fd)?;
        self.vfs.pwrite(ino, offset, data, now)
    }

    /// Positional read through an fd.
    pub fn pread(&mut self, pid: Pid, fd: Fd, offset: u64, buf: &mut [u8]) -> SimResult<usize> {
        self.charge(self.costs.syscall_base + buf.len() as u64 * self.costs.copy_per_byte);
        let ino = self.file_ino(pid, fd)?;
        self.vfs.pread(ino, offset, buf)
    }

    /// fsync an fd: dirty cache pages hit the (replicated) block device.
    pub fn fsync(&mut self, pid: Pid, fd: Fd) -> SimResult<usize> {
        let ino = self.file_ino(pid, fd)?;
        let pages = self.vfs.fsync(ino)?;
        self.charge(self.costs.syscall_base + pages as u64 * self.costs.fs_flush_per_page);
        Ok(pages)
    }

    fn file_ino(&self, pid: Pid, fd: Fd) -> SimResult<Ino> {
        match self.proc(pid)?.fd(fd)? {
            FdEntry::File { ino, .. } => Ok(*ino),
            FdEntry::Socket(_) => Err(SimError::Invalid(format!("{fd} is a socket"))),
        }
    }

    /// Mount (fires ftrace).
    pub fn mount(&mut self, source: &str, target: &str, fstype: &str) -> MountId {
        self.charge(self.costs.syscall_base * 3);
        self.ftrace.hit(KernelFn::Mount);
        self.vfs.mount(source, target, fstype)
    }

    /// mknod (fires ftrace).
    pub fn mknod(&mut self, path: &str, now: Nanos) -> SimResult<Ino> {
        self.charge(self.costs.syscall_base * 2);
        self.ftrace.hit(KernelFn::Mknod);
        self.vfs.create(path, InodeKind::Device, now)
    }

    /// `sethostname`-style namespace config update (fires the ftrace
    /// NsModify hook — invalidates the §V-B namespace cache entry).
    pub fn set_ns_config(&mut self, ns: NsId, config: Vec<u8>) -> SimResult<()> {
        self.charge(self.costs.syscall_base);
        self.ftrace.hit(KernelFn::NsModify);
        if self.namespaces.set_config(ns, config) {
            Ok(())
        } else {
            Err(SimError::Invalid(format!("no namespace {ns}")))
        }
    }

    /// Cgroup limit/weight update (fires the ftrace CgroupModify hook).
    pub fn set_cgroup_limits(
        &mut self,
        cg: CgroupId,
        cpu_shares: u32,
        memory_limit: u64,
    ) -> SimResult<()> {
        self.charge(self.costs.syscall_base);
        self.ftrace.hit(KernelFn::CgroupModify);
        let g = self
            .cgroups
            .get_mut(cg)
            .ok_or_else(|| SimError::Invalid(format!("no cgroup {cg}")))?;
        g.cpu_shares = cpu_shares;
        g.memory_limit = memory_limit;
        Ok(())
    }

    // ==================================================================
    // Network
    // ==================================================================

    /// Create a network stack for a namespace at `addr`.
    pub fn create_stack(&mut self, ns: NsId, addr: u32, input_mode: InputMode) {
        let rto = self.costs.tcp_rto_default;
        self.stacks.insert(ns, NetStack::new(addr, rto, input_mode));
    }

    /// Stack access.
    pub fn stack(&self, ns: NsId) -> SimResult<&NetStack> {
        self.stacks
            .get(&ns)
            .ok_or_else(|| SimError::Invalid(format!("no stack for {ns}")))
    }

    /// Mutable stack access.
    pub fn stack_mut(&mut self, ns: NsId) -> SimResult<&mut NetStack> {
        self.stacks
            .get_mut(&ns)
            .ok_or_else(|| SimError::Invalid(format!("no stack for {ns}")))
    }

    /// Every stack, in namespace order (cluster routing drains them in a
    /// deterministic order).
    pub fn stacks_mut(&mut self) -> impl Iterator<Item = &mut NetStack> {
        self.stacks.values_mut()
    }

    /// Socket create within `pid`'s netns; installs an fd.
    pub fn socket(&mut self, pid: Pid) -> SimResult<(Fd, SockId)> {
        self.charge(self.costs.syscall_base);
        let ns = self.proc(pid)?.netns;
        let sid = self.stack_mut(ns)?.socket();
        let fd = self.proc_mut(pid)?.install_fd(FdEntry::Socket(sid));
        Ok((fd, sid))
    }

    // ==================================================================
    // Checkpoint surface
    // ==================================================================

    /// Freeze every process in `cgroup` (§II-B), charging the elapsed time.
    pub fn freeze_cgroup(
        &mut self,
        cgroup: CgroupId,
        strategy: FreezeStrategy,
    ) -> SimResult<FreezeReport> {
        let pids = self.pids_in_cgroup(cgroup);
        if pids.is_empty() {
            return Err(SimError::FreezerState("no processes in cgroup"));
        }
        let costs = self.costs.clone();
        // Table order: `freeze` and `thaw` count threads, take a maximum and
        // set every run state — order-free.
        let mut procs: Vec<&mut Process> = self
            .procs
            .values_mut()
            .filter(|p| p.cgroup == cgroup)
            .collect();
        let report = freeze(&mut procs, strategy, &costs);
        if let Some(g) = self.cgroups.get_mut(cgroup) {
            g.frozen = true;
        }
        self.charge(report.elapsed);
        Ok(report)
    }

    /// Thaw `cgroup`.
    pub fn thaw_cgroup(&mut self, cgroup: CgroupId) -> SimResult<()> {
        let costs = self.costs.clone();
        // Table order, as in `freeze_cgroup`: order-free.
        let mut procs: Vec<&mut Process> = self
            .procs
            .values_mut()
            .filter(|p| p.cgroup == cgroup)
            .collect();
        if procs.is_empty() {
            return Err(SimError::FreezerState("no processes in cgroup"));
        }
        let t = thaw(&mut procs, &costs);
        if let Some(g) = self.cgroups.get_mut(cgroup) {
            g.frozen = false;
        }
        self.charge(t);
        Ok(())
    }

    /// `clear_refs` for a pid: re-arm soft-dirty tracking.
    pub fn clear_refs(&mut self, pid: Pid) -> SimResult<u64> {
        let walked = self.mm_mut(pid)?.clear_refs();
        self.charge(self.costs.syscall_base + walked * self.costs.clear_refs_per_page);
        Ok(walked)
    }

    /// `pagemap` scan: soft-dirty vpns. Charges per *mapped* page (§VII-C).
    pub fn pagemap_dirty(&mut self, pid: Pid) -> SimResult<Vec<u64>> {
        let mapped = self.mm(pid)?.mapped_pages();
        self.charge(self.costs.syscall_base + mapped * self.costs.pagemap_scan_per_page);
        Ok(self.mm(pid)?.soft_dirty_vpns())
    }

    /// Collect VMA information via smaps or netlink (§V-D), charging
    /// accordingly. Returns VMAs in address order.
    pub fn collect_vmas(&mut self, pid: Pid, via: VmaCollectVia) -> SimResult<Vec<Vma>> {
        let mm = self.mm(pid)?;
        let nvmas = mm.vma_count() as u64;
        let npages = mm.mapped_pages();
        let cost = match via {
            VmaCollectVia::Smaps => {
                nvmas * self.costs.smaps_per_vma + npages * self.costs.smaps_per_page_stats
            }
            VmaCollectVia::Netlink => nvmas * self.costs.netlink_per_vma,
        };
        self.charge(cost);
        Ok(self.mm(pid)?.vmas().cloned().collect())
    }

    /// `stat` every memory-mapped file of `pid` (§V cause (1)); returns the
    /// count. Skipped entirely when the mapped-files cache is valid.
    pub fn stat_mapped_files(&mut self, pid: Pid) -> SimResult<u64> {
        let n = self.mm(pid)?.mapped_file_count() as u64;
        self.charge(n * self.costs.stat_per_file);
        Ok(n)
    }

    /// Copy out page contents for a set of vpns via the parasite (§V-D),
    /// charging per the transfer mechanism. The copy is charged, not made:
    /// each page shares its frame's buffer, and the frame's next write
    /// copies it.
    pub fn read_pages(
        &mut self,
        pid: Pid,
        vpns: &[u64],
        via: PageTransferVia,
    ) -> SimResult<Vec<(u64, crate::mem::PageBuf)>> {
        let per_page = match via {
            PageTransferVia::SharedMem => self.costs.page_copy,
            PageTransferVia::Pipe => self.costs.page_copy + self.costs.parasite_pipe_per_page,
        };
        self.charge(vpns.len() as u64 * per_page);
        let mm = self.mm(pid)?;
        let mut out = Vec::with_capacity(vpns.len());
        for &vpn in vpns {
            out.push((vpn, mm.snapshot_page(vpn)?));
        }
        Ok(out)
    }

    /// Copy-on-write checkpoint pause: write-protect `vpns` instead of
    /// copying them, charging only the cheap per-page PTE work. The pages
    /// are copied out after resume by [`Self::cow_drain_with`] (or eagerly
    /// by a write fault), moving the dominant stop-phase cost into the next
    /// execution phase.
    pub fn cow_protect_pages(&mut self, pid: Pid, vpns: &[u64]) -> SimResult<()> {
        self.charge(self.costs.syscall_base + vpns.len() as u64 * self.costs.cow_protect_per_page);
        self.mm_mut(pid)?.cow_protect(vpns);
        Ok(())
    }

    /// Background-copier step: lend `lend` the fault-staged pages (already
    /// paid for at fault time) and then up to `max` still-protected pages
    /// (charged per page), in that order, without copying any of them.
    /// The third argument is the page's written-line set (see
    /// [`crate::mem::AddressSpace::cow_drain_with`]); a fault-staged copy is
    /// lent with every line. Returns the number of pages lent.
    pub fn cow_drain_with(
        &mut self,
        pid: Pid,
        max: usize,
        mut lend: impl FnMut(u64, &crate::mem::PageBuf, u64),
    ) -> SimResult<usize> {
        let mm = self.mm_mut(pid)?;
        let staged = mm.take_cow_staged();
        for (vpn, page) in &staged {
            lend(*vpn, page, crate::mem::ALL_LINES);
        }
        let drained = mm.cow_drain_with(max, lend);
        self.charge(drained as u64 * self.costs.cow_drain_per_page);
        Ok(staged.len() + drained)
    }

    /// [`Self::cow_drain_with`], keeping every page lent: the combined
    /// `(vpn, contents)` batch, each drained page sharing its frame's buffer.
    pub fn cow_drain_pages(
        &mut self,
        pid: Pid,
        max: usize,
    ) -> SimResult<Vec<(u64, crate::mem::PageBuf)>> {
        let mut out = Vec::new();
        self.cow_drain_with(pid, max, |vpn, page, _| out.push((vpn, page.clone())))?;
        Ok(out)
    }

    /// Pages a deferred checkpoint still owes for `pid`: protected and not
    /// yet drained or faulted. (Fault-staged copies are collected by the
    /// next [`Self::cow_drain_with`] call regardless of this count.)
    pub fn cow_pending(&self, pid: Pid) -> SimResult<usize> {
        Ok(self.mm(pid)?.cow_protected_count())
    }

    /// COW write-protect faults taken by `pid` since the last call.
    pub fn take_cow_faults(&mut self, pid: Pid) -> SimResult<u64> {
        Ok(self.mm_mut(pid)?.take_cow_faults())
    }

    /// Install pages at restore time. A page outside every VMA is skipped:
    /// the container unmapped it (`munmap`, a `brk` shrink) after the
    /// checkpoint that carried it, and the backup's store still holds it.
    /// Returns the number of pages skipped.
    pub fn install_pages(
        &mut self,
        pid: Pid,
        pages: &[(u64, crate::mem::PageBuf)],
    ) -> SimResult<u64> {
        self.charge(pages.len() as u64 * self.costs.page_restore);
        let mm = self.mm_mut(pid)?;
        let mut skipped = 0;
        for (vpn, data) in pages {
            match mm.install_page(*vpn, data) {
                Err(SimError::Segfault { .. }) => skipped += 1,
                other => other?,
            }
        }
        Ok(skipped)
    }

    /// Per-thread state collection cost (registers, sigmask, timers, sched —
    /// §VII-C). The state itself is read from the process struct by CRIU.
    pub fn charge_thread_state(&mut self, threads: u64) {
        self.charge(threads * self.costs.thread_state);
    }

    /// Per-process base collection cost (fd walk, proc metadata — §VII-C).
    pub fn charge_process_state(&mut self, fds: u64) {
        self.charge(self.costs.process_state_base + fds * self.costs.fd_state);
    }

    /// Dump a namespace's sockets via repair mode, charging per socket.
    pub fn checkpoint_sockets(&mut self, ns: NsId) -> SimResult<(Vec<u16>, Vec<RepairState>)> {
        let per = self.costs.socket_repair_dump;
        let stack = self.stack_mut(ns)?;
        let (ports, states) = stack.checkpoint_sockets();
        self.charge(states.len() as u64 * per);
        Ok((ports, states))
    }

    /// Restore sockets into a namespace via repair mode, charging per socket.
    /// `optimized_rto` selects the §V-E 200 ms minimum vs the 1 s default.
    pub fn restore_sockets(
        &mut self,
        ns: NsId,
        listeners: &[u16],
        states: &[RepairState],
        optimized_rto: bool,
    ) -> SimResult<Vec<SockId>> {
        let rto = if optimized_rto {
            self.costs.tcp_rto_repair_min
        } else {
            self.costs.tcp_rto_default
        };
        let per = self.costs.socket_repair_restore;
        self.charge(states.len() as u64 * per);
        let stack = self.stack_mut(ns)?;
        stack.restore_sockets(listeners, states, rto)
    }

    /// `fgetfc` (§III): DNC page-cache + inode entries, charged per entry.
    pub fn fgetfc(&mut self) -> (crate::fs::FsCacheCheckpoint, Vec<crate::fs::Inode>) {
        let (pages, inodes) = self.vfs.fgetfc();
        self.charge(
            self.costs.syscall_base
                + pages.pages.len() as u64 * self.costs.fgetfc_per_page
                + inodes.len() as u64 * self.costs.fgetfc_per_inode,
        );
        (pages, inodes)
    }

    /// Collect namespace state (uncached cost: up to 100 ms, §I).
    pub fn collect_namespaces(&mut self, set: &crate::ns::NsSet) -> Vec<crate::ns::Namespace> {
        self.charge(self.costs.ns_collect);
        self.namespaces.snapshot_set(set)
    }

    /// Collect cgroup state (uncached).
    pub fn collect_cgroups(&mut self) -> Vec<crate::cgroup::Cgroup> {
        self.charge(self.costs.cgroup_collect);
        self.cgroups.snapshot()
    }

    /// Collect the mount table (uncached).
    pub fn collect_mounts(&mut self) -> Vec<crate::fs::Mount> {
        self.charge(self.costs.mounts_collect);
        self.vfs.mounts().to_vec()
    }

    /// Collect device files (uncached).
    pub fn collect_devfiles(&mut self) -> Vec<crate::fs::Inode> {
        self.charge(self.costs.devfiles_collect);
        let mut v: Vec<crate::fs::Inode> = self
            .vfs
            .paths()
            .filter_map(|(_, &ino)| self.vfs.inode(ino).ok())
            .filter(|i| i.kind == InodeKind::Device)
            .cloned()
            .collect();
        v.sort_by_key(|i| i.ino);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::TrackingMode;
    use crate::time::{MICROSECOND, MILLISECOND};

    fn kernel_with_container() -> (Kernel, Pid, CgroupId, NsId) {
        let mut k = Kernel::default();
        let cg = k.cgroups.create("/docker/c1");
        let ns = k.namespaces.create_set("c1").net;
        k.create_stack(ns, 10, InputMode::Buffer);
        let pid = k.spawn_process(Pid(1), cg, ns, "/bin/server");
        k.mmap_anon(pid, 0x10000, 0x40000, true).unwrap();
        (k, pid, cg, ns)
    }

    #[test]
    fn spawn_and_memory_roundtrip() {
        let (mut k, pid, _, _) = kernel_with_container();
        k.mem_write(pid, 0x10000, b"state").unwrap();
        let mut buf = [0u8; 5];
        k.mem_read(pid, 0x10000, &mut buf).unwrap();
        assert_eq!(&buf, b"state");
        assert!(k.meter.peek() > 0, "operations charge time");
    }

    #[test]
    fn tracking_fault_costs_differ_by_mode() {
        let (mut k, pid, _, _) = kernel_with_container();
        k.mm_mut(pid).unwrap().set_tracking(TrackingMode::SoftDirty);
        k.clear_refs(pid).unwrap();
        k.meter.take();
        k.mem_write(pid, 0x10000, b"x").unwrap();
        let soft = k.meter.take();

        let (mut k2, pid2, _, _) = kernel_with_container();
        k2.mm_mut(pid2)
            .unwrap()
            .set_tracking(TrackingMode::WriteProtect);
        k2.clear_refs(pid2).unwrap();
        k2.meter.take();
        k2.mem_write(pid2, 0x10000, b"x").unwrap();
        let wp = k2.meter.take();
        assert!(
            wp > soft,
            "VM-exit tracking ({wp}) must cost more than soft-dirty ({soft})"
        );
    }

    #[test]
    fn vma_collection_costs_smaps_vs_netlink() {
        let (mut k, pid, _, _) = kernel_with_container();
        k.meter.take();
        let v1 = k.collect_vmas(pid, VmaCollectVia::Smaps).unwrap();
        let smaps_cost = k.meter.take();
        let v2 = k.collect_vmas(pid, VmaCollectVia::Netlink).unwrap();
        let netlink_cost = k.meter.take();
        assert_eq!(v1, v2, "both interfaces return the same VMAs");
        assert!(
            smaps_cost > 5 * netlink_cost,
            "smaps ({smaps_cost}) must dwarf netlink ({netlink_cost}) — §V-D"
        );
    }

    #[test]
    fn page_transfer_pipe_vs_shm() {
        let (mut k, pid, _, _) = kernel_with_container();
        k.mem_write(pid, 0x10000, b"page").unwrap();
        let vpns = [0x10u64];
        k.meter.take();
        let p1 = k.read_pages(pid, &vpns, PageTransferVia::Pipe).unwrap();
        let pipe_cost = k.meter.take();
        let p2 = k
            .read_pages(pid, &vpns, PageTransferVia::SharedMem)
            .unwrap();
        let shm_cost = k.meter.take();
        assert_eq!(p1[0].1, p2[0].1);
        assert_eq!(pipe_cost - shm_cost, k.costs.parasite_pipe_per_page);
    }

    #[test]
    fn freeze_thaw_through_kernel() {
        let (mut k, pid, cg, _) = kernel_with_container();
        k.spawn_thread(pid).unwrap();
        k.meter.take();
        let r = k.freeze_cgroup(cg, FreezeStrategy::BusyPoll).unwrap();
        assert_eq!(r.threads, 2);
        assert!(k.cgroups.get(cg).unwrap().frozen);
        assert!(k.meter.take() >= r.elapsed);
        k.thaw_cgroup(cg).unwrap();
        assert!(!k.cgroups.get(cg).unwrap().frozen);
    }

    #[test]
    fn freeze_empty_cgroup_errors() {
        let mut k = Kernel::default();
        let cg = k.cgroups.create("/empty");
        assert!(k.freeze_cgroup(cg, FreezeStrategy::BusyPoll).is_err());
    }

    #[test]
    fn soft_dirty_cycle_via_syscalls() {
        let (mut k, pid, _, _) = kernel_with_container();
        k.mm_mut(pid).unwrap().set_tracking(TrackingMode::SoftDirty);
        k.mem_write(pid, 0x10000, b"seed").unwrap();
        k.clear_refs(pid).unwrap();
        assert!(k.pagemap_dirty(pid).unwrap().is_empty());
        k.mem_write(pid, 0x12000, b"dirty").unwrap();
        assert_eq!(k.pagemap_dirty(pid).unwrap(), vec![0x12]);
    }

    #[test]
    fn pagemap_charges_by_footprint_not_dirty_count() {
        let (mut k, pid, _, _) = kernel_with_container();
        k.meter.take();
        k.pagemap_dirty(pid).unwrap();
        let cost = k.meter.take();
        let mapped = k.mm(pid).unwrap().mapped_pages();
        assert_eq!(
            cost,
            k.costs.syscall_base + mapped * k.costs.pagemap_scan_per_page
        );
    }

    #[test]
    fn file_io_through_fds() {
        let (mut k, pid, _, _) = kernel_with_container();
        let fd = k.create_file(pid, "/data/log", 0).unwrap();
        k.pwrite(pid, fd, 0, b"entry", 1).unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(k.pread(pid, fd, 0, &mut buf).unwrap(), 5);
        assert_eq!(&buf, b"entry");
        assert_eq!(k.vfs.disk.pending_writes(), 0);
        let flushed = k.fsync(pid, fd).unwrap();
        assert_eq!(flushed, 1);
        assert_eq!(
            k.vfs.disk.pending_writes(),
            1,
            "fsync reaches the replicated device"
        );
    }

    #[test]
    fn socket_via_fds_and_checkpoint() {
        let (mut k, pid, _, ns) = kernel_with_container();
        let (_, sid) = k.socket(pid).unwrap();
        // Bind+listen through the stack directly (the runtime does this).
        k.stack_mut(ns).unwrap().bind(sid, 80).unwrap();
        k.stack_mut(ns).unwrap().listen(sid).unwrap();
        let (ports, states) = k.checkpoint_sockets(ns).unwrap();
        assert_eq!(ports, vec![80]);
        assert!(states.is_empty(), "listener is not an established socket");
    }

    #[test]
    fn ftrace_fires_on_ns_and_cgroup_mutation() {
        let (mut k, _, cg, ns) = kernel_with_container();
        k.ftrace.drain_signals();
        k.set_ns_config(ns, b"renamed-host".to_vec()).unwrap();
        k.set_cgroup_limits(cg, 512, 1 << 30).unwrap();
        let sigs = k.ftrace.drain_signals();
        assert!(sigs.contains(&crate::ftrace::StateComponent::Namespaces));
        assert!(sigs.contains(&crate::ftrace::StateComponent::Cgroups));
        assert_eq!(k.namespaces.get(ns).unwrap().config, b"renamed-host");
        assert_eq!(k.cgroups.get(cg).unwrap().cpu_shares, 512);
        // Error paths.
        assert!(k.set_ns_config(NsId(9999), vec![]).is_err());
        assert!(k.set_cgroup_limits(CgroupId(9999), 1, 1).is_err());
    }

    #[test]
    fn ftrace_fires_on_mount_and_mmap() {
        let (mut k, pid, _, _) = kernel_with_container();
        k.ftrace.drain_signals();
        k.mount("tmpfs", "/tmp", "tmpfs");
        let ino = k.vfs.create("/lib/libc.so", InodeKind::Regular, 0).unwrap();
        k.mmap_file(pid, 0x7f00_0000_0000, 0x2000, ino, Perms::RX)
            .unwrap();
        let sigs = k.ftrace.drain_signals();
        assert!(sigs.contains(&crate::ftrace::StateComponent::Mounts));
        assert!(sigs.contains(&crate::ftrace::StateComponent::MappedFiles));
    }

    #[test]
    fn infrequent_collection_costs_match_paper() {
        let (mut k, _, _, _) = kernel_with_container();
        let set = crate::ns::NsSet {
            pid: NsId(1),
            net: NsId(2),
            mnt: NsId(3),
            uts: NsId(4),
            ipc: NsId(5),
            user: NsId(6),
        };
        k.meter.take();
        k.collect_namespaces(&set);
        assert_eq!(
            k.meter.take(),
            100 * MILLISECOND,
            "§I: ns collection up to 100ms"
        );
        k.collect_cgroups();
        k.collect_mounts();
        k.collect_devfiles();
        let rest = k.meter.take();
        assert_eq!(rest, 55 * MILLISECOND, "cgroups+mounts+devfiles");
    }

    #[test]
    fn fgetfc_charges_per_entry() {
        let (mut k, pid, _, _) = kernel_with_container();
        let fd = k.create_file(pid, "/f", 0).unwrap();
        k.pwrite(pid, fd, 0, &vec![7u8; 3 * crate::PAGE_SIZE], 1)
            .unwrap();
        k.meter.take();
        let (pages, inodes) = k.fgetfc();
        assert_eq!(pages.pages.len(), 3);
        assert!(!inodes.is_empty());
        let cost = k.meter.take();
        assert!(cost < MILLISECOND, "fgetfc is cheap ({cost}ns)");
    }

    #[test]
    fn kill_process_cleans_up() {
        let (mut k, pid, cg, _) = kernel_with_container();
        let mm = k.proc(pid).unwrap().mm;
        k.kill_process(pid).unwrap();
        assert!(k.proc(pid).is_err());
        assert!(!k.spaces.contains_key(&mm));
        assert!(k.pids_in_cgroup(cg).is_empty());
        assert!(k.kill_process(pid).is_err());
    }

    #[test]
    fn cow_protect_is_cheaper_than_copy_and_drain_pays_later() {
        let (mut k, pid, _, _) = kernel_with_container();
        k.mm_mut(pid).unwrap().set_tracking(TrackingMode::SoftDirty);
        let vpns: Vec<u64> = (0x10..0x20).collect();
        for &v in &vpns {
            k.mem_write(pid, v * crate::PAGE_SIZE as u64, &[v as u8; 8])
                .unwrap();
        }
        k.meter.take();
        k.read_pages(pid, &vpns, PageTransferVia::SharedMem).unwrap();
        let eager = k.meter.take();
        k.cow_protect_pages(pid, &vpns).unwrap();
        let protect = k.meter.take();
        assert!(
            protect * 5 < eager,
            "protect ({protect}) must be far cheaper than eager copy ({eager})"
        );
        assert_eq!(k.cow_pending(pid).unwrap(), vpns.len());
        let batch = k.cow_drain_pages(pid, 100).unwrap();
        let drain = k.meter.take();
        assert_eq!(batch.len(), vpns.len());
        assert_eq!(batch[0].1[0], 0x10, "drained contents are real");
        assert_eq!(drain, vpns.len() as u64 * k.costs.cow_drain_per_page);
        assert_eq!(k.cow_pending(pid).unwrap(), 0);
    }

    #[test]
    fn cow_fault_charges_runtime_overhead_and_drain_skips_it() {
        let (mut k, pid, _, _) = kernel_with_container();
        k.cow_protect_pages(pid, &[0x10]).unwrap();
        k.meter.take();
        k.fault_meter.take();
        k.mem_write(pid, 0x10000, b"race").unwrap();
        assert!(k.meter.take() >= k.costs.cow_fault);
        assert!(
            k.fault_meter.take() >= k.costs.cow_fault,
            "COW faults count as runtime tracking overhead"
        );
        assert_eq!(k.take_cow_faults(pid).unwrap(), 1);
        k.meter.take();
        let batch = k.cow_drain_pages(pid, 100).unwrap();
        assert_eq!(batch.len(), 1, "fault-staged page is handed over");
        assert_eq!(k.meter.take(), 0, "its copy was already paid at fault time");
    }

    #[test]
    fn thread_and_process_state_charges() {
        let (mut k, _, _, _) = kernel_with_container();
        k.meter.take();
        k.charge_thread_state(32);
        let t = k.meter.take();
        assert!(
            (3 * MILLISECOND..5 * MILLISECOND).contains(&t),
            "§VII-C: 32 threads ≈ 4ms, got {}us",
            t / MICROSECOND
        );
    }
}
