//! The restore pipeline: [`CheckpointImage`] → a running container.
//!
//! At failover the backup agent materializes a *merged* image (latest
//! metadata + the full accumulated page set + latest socket state) and calls
//! [`restore_container`]. Network input must be blocked for the whole window
//! between network-namespace creation and socket restoration, or the kernel
//! will answer mid-restore packets with RSTs and break client connections
//! (§III) — the restore does this itself and leaves the gate blocked until
//! [`RestoredContainer::finish`].

use crate::image::CheckpointImage;
use nilicon_container::{Container, ContainerSpec};
use nilicon_sim::ids::{Pid, SockId};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::net::InputMode;
use nilicon_sim::proc::Process;
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimError, SimResult};

/// Restore options.
#[derive(Debug, Clone, Copy)]
pub struct RestoreConfig {
    /// Apply the §V-E repair-mode minimum RTO (200 ms) instead of the stock
    /// ≥1 s default — the recovery-latency optimization.
    pub optimized_rto: bool,
    /// Block network input during the restore window (§III). Disabling this
    /// reproduces the broken-connection failure mode in ablation tests.
    pub block_input: bool,
}

impl Default for RestoreConfig {
    fn default() -> Self {
        RestoreConfig {
            optimized_rto: true,
            block_input: true,
        }
    }
}

/// A container rebuilt from a checkpoint, plus restoration bookkeeping.
#[derive(Debug)]
pub struct RestoredContainer {
    /// The rebuilt container handle (usable by the same driver code that
    /// drove the original).
    pub container: Container,
    /// New socket ids, parallel to the image's `sockets` vector.
    pub restored_sockets: Vec<SockId>,
    /// Virtual time the restore itself took (Table II "Restore" component).
    pub restore_time: Nanos,
    /// Committed pages left out because no VMA of the image covers them
    /// (unmapped on the primary after the checkpoint that shipped them).
    pub skipped_pages: u64,
}

impl RestoredContainer {
    /// Unblock network input — call after the address has been re-bound via
    /// gratuitous ARP (the driver reconnects the namespace to the bridge,
    /// §IV). Replays anything buffered during the window.
    pub fn finish(&self, kernel: &mut Kernel) -> SimResult<()> {
        kernel.stack_mut(self.container.ns.net)?.unblock_input();
        Ok(())
    }
}

/// Restore a container from `img` onto `kernel`.
pub fn restore_container(
    kernel: &mut Kernel,
    img: &CheckpointImage,
    cfg: &RestoreConfig,
) -> SimResult<RestoredContainer> {
    let t0 = kernel.meter.lifetime_total();
    let ns = img
        .ns
        .ok_or_else(|| SimError::ImageCorrupt("image missing namespace set".into()))?;

    // Base cost: fork CRIU, parse images, rebuild the container skeleton.
    kernel.meter.charge(kernel.costs.restore_base);

    // Kernel-side container state.
    kernel.namespaces.install(&img.namespaces);
    kernel.cgroups.install(&img.cgroups);
    for m in &img.mounts {
        kernel.vfs.mount(&m.source, &m.target, &m.fstype);
    }
    kernel.vfs.install_fs_state(&img.fs_pages, &img.fs_inodes);
    for inode in &img.devfiles {
        let mut i = inode.clone();
        i.dnc = false;
        kernel.vfs.install_fs_state(&Default::default(), &[i]);
    }
    for (path, ino) in &img.paths {
        kernel.vfs.install_path(path, *ino);
    }

    // Network namespace first, with input blocked (§III).
    kernel.create_stack(ns.net, img.addr, InputMode::Buffer);
    if cfg.block_input {
        kernel.stack_mut(ns.net)?.block_input();
    }

    // Processes: recreate with original pids, VMAs, page contents, fds.
    let mut workers = Vec::new();
    let mut keepalive = Pid(0);
    for pimg in &img.processes {
        let cgroup = img.cgroups.first().map(|g| g.id).unwrap_or_default();
        let mut proc = Process::new(pimg.pid, pimg.ppid, pimg.mm, cgroup, ns.net, &pimg.exe);
        proc.threads = pimg.threads.clone();
        for (fd, entry) in &pimg.fds {
            proc.install_fd_at(*fd, entry.clone());
        }
        kernel.restore_process(proc)?;
        kernel.meter.charge(
            kernel.costs.restore_per_process
                + pimg.threads.len() as Nanos * kernel.costs.restore_per_thread
                + pimg.fds.len() as Nanos * kernel.costs.restore_per_fd,
        );
        let mm_exists = kernel.mm(pimg.pid)?.vma_count() > 0;
        if !mm_exists {
            for vma in &pimg.vmas {
                kernel.mm_mut(pimg.pid)?.mmap(vma.clone())?;
            }
        }
        if pimg.exe.ends_with("keepalive") {
            keepalive = pimg.pid;
        } else {
            workers.push(pimg.pid);
        }
    }
    if workers.is_empty() {
        return Err(SimError::ImageCorrupt(
            "no worker processes in image".into(),
        ));
    }

    // Pages (grouped per pid to amortize lookups).
    let mut skipped_pages = 0;
    {
        type PageList = Vec<(u64, nilicon_sim::PageBuf)>;
        let mut by_pid: std::collections::BTreeMap<Pid, PageList> =
            std::collections::BTreeMap::new();
        for (pid, vpn, data) in &img.pages {
            by_pid.entry(*pid).or_default().push((*vpn, data.clone()));
        }
        for (pid, pages) in by_pid {
            skipped_pages += kernel.install_pages(pid, &pages)?;
        }
    }

    // Sockets last, via repair mode (still under input blocking).
    let restored_sockets =
        kernel.restore_sockets(ns.net, &img.listeners, &img.sockets, cfg.optimized_rto)?;
    let listener = img.listeners.first().and_then(|_| {
        // The first restored listener id: restore_sockets creates listeners
        // before established sockets, so it is the lowest allocated id.
        kernel
            .stack_mut(ns.net)
            .ok()
            .map(|s| SockId(s.socket_count() as u32 - img.sockets.len() as u32))
    });

    let restore_time = kernel.meter.lifetime_total() - t0;
    let spec = ContainerSpec {
        name: img.name.clone(),
        hostname: img.name.clone(),
        addr: img.addr,
        exe: img.processes[0].exe.clone(),
        processes: workers.len(),
        threads_per_process: img.processes[0].threads.len(),
        mapped_files: img.processes[0]
            .vmas
            .iter()
            .filter(|v| matches!(v.kind, nilicon_sim::mem::VmaKind::File(_)))
            .count()
            .saturating_sub(1),
        heap_pages: img.processes[0]
            .vmas
            .iter()
            .find(|v| v.is_heap)
            .map(|v| v.pages())
            .unwrap_or(0),
        listen_port: img.listeners.first().copied(),
        threads_in_syscall: 0,
    };
    let cgroup = img.cgroups.first().map(|g| g.id).unwrap_or_default();

    Ok(RestoredContainer {
        container: Container {
            spec,
            cgroup,
            ns,
            workers,
            keepalive,
            listener,
            mounts: Vec::new(),
            lib_inos: Vec::new(),
        },
        restored_sockets,
        restore_time,
        skipped_pages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::{full_dump, DumpConfig};
    use nilicon_container::{ContainerRuntime, ContainerSpec, MemLayout};
    use nilicon_sim::time::MILLISECOND;

    fn primary_with_state() -> (Kernel, Container) {
        let mut k = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut k, &spec).unwrap();
        let pid = c.init_pid();
        k.mem_write(pid, MemLayout::heap(0), b"key=value").unwrap();
        k.mem_write(pid, MemLayout::heap_page(7), b"seven").unwrap();
        let fd = k.create_file(pid, "/data/aof", 0).unwrap();
        k.pwrite(pid, fd, 0, b"appendonly", 1).unwrap();
        (k, c)
    }

    #[test]
    fn dump_restore_preserves_memory_and_files() {
        let (mut primary, c) = primary_with_state();
        let img = full_dump(&mut primary, &c, &DumpConfig::nilicon()).unwrap();

        let mut backup = Kernel::default();
        let r = restore_container(&mut backup, &img, &RestoreConfig::default()).unwrap();
        r.finish(&mut backup).unwrap();

        let pid = r.container.init_pid();
        let mut buf = [0u8; 9];
        backup.mem_read(pid, MemLayout::heap(0), &mut buf).unwrap();
        assert_eq!(&buf, b"key=value");
        let mut buf7 = [0u8; 5];
        backup
            .mem_read(pid, MemLayout::heap_page(7), &mut buf7)
            .unwrap();
        assert_eq!(&buf7, b"seven");

        // File data restored through the fs-cache checkpoint.
        let fd = backup.open(pid, "/data/aof").unwrap();
        let mut fbuf = [0u8; 10];
        assert_eq!(backup.pread(pid, fd, 0, &mut fbuf).unwrap(), 10);
        assert_eq!(&fbuf, b"appendonly");
    }

    #[test]
    fn restore_preserves_pids_threads_and_fds() {
        let (mut primary, c) = primary_with_state();
        let img = full_dump(&mut primary, &c, &DumpConfig::nilicon()).unwrap();
        let mut backup = Kernel::default();
        let r = restore_container(&mut backup, &img, &RestoreConfig::default()).unwrap();

        assert_eq!(r.container.workers, c.workers, "pids restored verbatim");
        assert_eq!(r.container.keepalive, c.keepalive);
        let orig = primary.proc(c.init_pid()).unwrap();
        let rest = backup.proc(c.init_pid()).unwrap();
        assert_eq!(rest.thread_count(), orig.thread_count());
        assert_eq!(rest.fd_count(), orig.fd_count());
        assert_eq!(rest.threads[0].regs, orig.threads[0].regs);
    }

    #[test]
    fn restore_time_shape_matches_table2() {
        // Net-like (tiny memory): restore dominated by the base cost, ~218ms
        // in Table II. Redis-like (100MB): proportionally longer.
        let (mut primary, c) = primary_with_state();
        let small_img = full_dump(&mut primary, &c, &DumpConfig::nilicon()).unwrap();
        let mut b1 = Kernel::default();
        let small = restore_container(&mut b1, &small_img, &RestoreConfig::default()).unwrap();
        assert!(
            (100 * MILLISECOND..350 * MILLISECOND).contains(&small.restore_time),
            "small restore ≈ Table II Net (218ms), got {}ms",
            small.restore_time / MILLISECOND
        );

        // Bulk memory: +25k pages (~100MB).
        let (mut p2, c2) = primary_with_state();
        let pid = c2.init_pid();
        p2.mm_mut(pid)
            .unwrap()
            .brk(MemLayout::HEAP_BASE + 30_000 * 4096)
            .unwrap();
        for page in 0..25_000u64 {
            p2.mem_write(pid, MemLayout::heap_page(page), &[1]).unwrap();
        }
        let big_img = full_dump(&mut p2, &c2, &DumpConfig::nilicon()).unwrap();
        let mut b2 = Kernel::default();
        let big = restore_container(&mut b2, &big_img, &RestoreConfig::default()).unwrap();
        assert!(
            big.restore_time > small.restore_time + 40 * MILLISECOND,
            "Redis-like restore is visibly longer (Table II: 314 vs 218ms): {}ms vs {}ms",
            big.restore_time / MILLISECOND,
            small.restore_time / MILLISECOND
        );
    }

    #[test]
    fn input_blocked_until_finish() {
        let (mut primary, c) = primary_with_state();
        let img = full_dump(&mut primary, &c, &DumpConfig::nilicon()).unwrap();
        let mut backup = Kernel::default();
        let r = restore_container(&mut backup, &img, &RestoreConfig::default()).unwrap();
        assert!(backup
            .stack(r.container.ns.net)
            .unwrap()
            .input_gate
            .is_blocked());
        r.finish(&mut backup).unwrap();
        assert!(!backup
            .stack(r.container.ns.net)
            .unwrap()
            .input_gate
            .is_blocked());
    }

    #[test]
    fn optimized_rto_applied_to_restored_sockets() {
        let (mut primary, c) = primary_with_state();
        // Fabricate an established socket.
        let stack = primary.stack_mut(c.ns.net).unwrap();
        let sid = stack.socket();
        let s = stack.sock_mut(sid).unwrap();
        s.state = nilicon_sim::net::TcpState::Established;
        s.local = nilicon_sim::ids::Endpoint::new(10, 6379);
        s.remote = Some(nilicon_sim::ids::Endpoint::new(5, 50000));
        let img = full_dump(&mut primary, &c, &DumpConfig::nilicon()).unwrap();

        let mut b1 = Kernel::default();
        let r1 = restore_container(&mut b1, &img, &RestoreConfig::default()).unwrap();
        let rto1 = b1
            .stack(r1.container.ns.net)
            .unwrap()
            .sock(r1.restored_sockets[0])
            .unwrap()
            .rto;
        assert_eq!(rto1, 200 * MILLISECOND, "§V-E optimization");

        let mut b2 = Kernel::default();
        let cfg = RestoreConfig {
            optimized_rto: false,
            block_input: true,
        };
        let r2 = restore_container(&mut b2, &img, &cfg).unwrap();
        let rto2 = b2
            .stack(r2.container.ns.net)
            .unwrap()
            .sock(r2.restored_sockets[0])
            .unwrap()
            .rto;
        assert_eq!(rto2, 1_000 * MILLISECOND, "stock kernel: ≥1s");
    }

    #[test]
    fn committed_pages_without_a_vma_are_skipped_and_counted() {
        // A backup's store keeps every page it was ever sent; the metadata
        // it restores from is the latest. A heap that shrank in between
        // leaves pages no VMA of the image covers.
        let (mut primary, c) = primary_with_state();
        let pid = c.init_pid();
        let heap_pages = c.spec.heap_pages;
        primary
            .mem_write(pid, MemLayout::heap_page(heap_pages - 1), b"tail")
            .unwrap();
        let stale = full_dump(&mut primary, &c, &DumpConfig::nilicon()).unwrap();
        primary
            .mm_mut(pid)
            .unwrap()
            .brk(MemLayout::heap_page(heap_pages / 2))
            .unwrap();
        let mut img = full_dump(&mut primary, &c, &DumpConfig::nilicon()).unwrap();
        let kept = img.pages.len();
        img.pages = stale.pages;
        assert_eq!(img.pages.len(), kept + 1);

        let mut backup = Kernel::default();
        let r = restore_container(&mut backup, &img, &RestoreConfig::default()).unwrap();
        assert_eq!(r.skipped_pages, 1);
        let mut buf = [0u8; 9];
        backup.mem_read(pid, MemLayout::heap(0), &mut buf).unwrap();
        assert_eq!(&buf, b"key=value");
        assert!(backup
            .mem_read(pid, MemLayout::heap_page(heap_pages - 1), &mut buf)
            .is_err());
    }

    #[test]
    fn image_without_ns_is_rejected() {
        let img = CheckpointImage::default();
        let mut k = Kernel::default();
        assert!(matches!(
            restore_container(&mut k, &img, &RestoreConfig::default()),
            Err(SimError::ImageCorrupt(_))
        ));
    }
}
