//! Container creation and lifecycle (the runC-equivalent).

use crate::layout::MemLayout;
use crate::spec::ContainerSpec;
use nilicon_sim::fs::InodeKind;
use nilicon_sim::ids::{CgroupId, Ino, MountId, Pid, SockId};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::mem::Perms;
use nilicon_sim::net::InputMode;
use nilicon_sim::ns::NsSet;
use nilicon_sim::proc::ThreadRunState;
use nilicon_sim::{SimResult, PAGE_SIZE};

/// A running container.
#[derive(Debug, Clone)]
pub struct Container {
    /// The spec it was created from.
    pub spec: ContainerSpec,
    /// Its cgroup (freezer + cpuacct).
    pub cgroup: CgroupId,
    /// Its namespace set.
    pub ns: NsSet,
    /// Worker process pids (process 0 is the leader/init).
    pub workers: Vec<Pid>,
    /// The keep-alive process (§IV: wakes every 30 ms, executes ~1000
    /// instructions so `cpuacct` advances even when the app is idle).
    pub keepalive: Pid,
    /// Listening socket, if the spec requested one.
    pub listener: Option<SockId>,
    /// Mount ids created for the rootfs.
    pub mounts: Vec<MountId>,
    /// Inos of the mapped "shared libraries".
    pub lib_inos: Vec<Ino>,
}

impl Container {
    /// The leader (init) process.
    pub fn init_pid(&self) -> Pid {
        self.workers[0]
    }

    /// All pids including the keep-alive.
    pub fn all_pids(&self) -> Vec<Pid> {
        let mut v = self.workers.clone();
        v.push(self.keepalive);
        v
    }
}

/// Creates containers on a kernel.
#[derive(Debug, Default)]
pub struct ContainerRuntime;

impl ContainerRuntime {
    /// Create a container per `spec`: namespaces, cgroup, rootfs mounts,
    /// device files, network stack, worker processes with full VMA layouts,
    /// keep-alive process, and (for servers) a listening socket.
    ///
    /// The returned container is *not yet routed* — callers register
    /// `spec.addr → (host, ns.net)` with their [`nilicon_sim::cluster::Cluster`].
    pub fn create(kernel: &mut Kernel, spec: &ContainerSpec) -> SimResult<Container> {
        let cgroup = kernel.cgroups.create(&format!("/docker/{}", spec.name));
        let ns = kernel.namespaces.create_set(&spec.hostname);
        kernel.create_stack(ns.net, spec.addr, InputMode::Buffer);

        // Rootfs mounts (the usual Docker set).
        let mounts = vec![
            kernel.mount("overlay", "/", "overlay"),
            kernel.mount("proc", "/proc", "proc"),
            kernel.mount("sysfs", "/sys", "sysfs"),
            kernel.mount("tmpfs", "/dev", "tmpfs"),
            kernel.mount("tmpfs", "/tmp", "tmpfs"),
        ];
        // Device files.
        for dev in ["null", "zero", "urandom", "tty"] {
            let path = format!("/containers/{}/dev/{dev}", spec.name);
            kernel.mknod(&path, 0)?;
        }
        // The executable and shared libraries live in the image.
        let exe_path = format!("/containers/{}{}", spec.name, spec.exe);
        let exe_ino = kernel.vfs.create(&exe_path, InodeKind::Regular, 0)?;
        let mut lib_inos = Vec::with_capacity(spec.mapped_files);
        for i in 0..spec.mapped_files {
            let path = format!("/containers/{}/lib/lib{i}.so", spec.name);
            lib_inos.push(kernel.vfs.create(&path, InodeKind::Regular, 0)?);
        }

        // Worker processes.
        let mut workers = Vec::with_capacity(spec.processes);
        for p in 0..spec.processes {
            let ppid = workers.first().copied().unwrap_or(Pid(1));
            let pid = kernel.spawn_process(ppid, cgroup, ns.net, &spec.exe);
            Self::build_address_space(kernel, pid, spec, exe_ino, &lib_inos)?;
            // Threads beyond the leader.
            for _ in 1..spec.threads_per_process {
                kernel.spawn_thread(pid)?;
            }
            // Mark the configured number of threads as blocked in syscalls.
            let proc = kernel.proc_mut(pid)?;
            for t in proc.threads.iter_mut().take(spec.threads_in_syscall) {
                t.run_state = ThreadRunState::Syscall;
            }
            let _ = p;
            workers.push(pid);
        }

        // Keep-alive process (§IV): trivial address space.
        let keepalive = kernel.spawn_process(workers[0], cgroup, ns.net, "/bin/keepalive");
        kernel.mmap_anon(keepalive, MemLayout::HEAP_BASE, PAGE_SIZE as u64, true)?;

        // Listener.
        let listener = match spec.listen_port {
            Some(port) => {
                let sid = kernel.stack_mut(ns.net)?.socket();
                kernel.stack_mut(ns.net)?.bind(sid, port)?;
                kernel.stack_mut(ns.net)?.listen(sid)?;
                // The listener fd belongs to the leader.
                kernel
                    .proc_mut(workers[0])?
                    .install_fd(nilicon_sim::proc::FdEntry::Socket(sid));
                Some(sid)
            }
            None => None,
        };

        Ok(Container {
            spec: spec.clone(),
            cgroup,
            ns,
            workers,
            keepalive,
            listener,
            mounts,
            lib_inos,
        })
    }

    fn build_address_space(
        kernel: &mut Kernel,
        pid: Pid,
        spec: &ContainerSpec,
        exe_ino: Ino,
        lib_inos: &[Ino],
    ) -> SimResult<()> {
        let ps = PAGE_SIZE as u64;
        // Text.
        kernel.mmap_file(
            pid,
            MemLayout::TEXT_BASE,
            MemLayout::TEXT_PAGES * ps,
            exe_ino,
            Perms::RX,
        )?;
        // Libraries.
        for (i, &ino) in lib_inos.iter().enumerate() {
            kernel.mmap_file(
                pid,
                MemLayout::lib(i as u64),
                MemLayout::LIB_PAGES * ps,
                ino,
                Perms::RX,
            )?;
        }
        // Heap.
        kernel.mmap_anon(pid, MemLayout::HEAP_BASE, spec.heap_pages * ps, true)?;
        // Stacks, one per thread.
        for t in 0..spec.threads_per_process as u64 {
            kernel.mmap_anon(pid, MemLayout::stack(t), MemLayout::STACK_PAGES * ps, false)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_sim::ftrace::StateComponent;

    #[test]
    fn create_server_container() {
        let mut k = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut k, &spec).unwrap();

        assert_eq!(c.workers.len(), 1);
        assert!(c.listener.is_some());
        assert_eq!(k.pids_in_cgroup(c.cgroup).len(), 2, "worker + keepalive");
        let mm = k.mm(c.init_pid()).unwrap();
        // text + libs + heap + stacks
        assert_eq!(
            mm.vma_count(),
            1 + spec.mapped_files + 1 + spec.threads_per_process
        );
        assert_eq!(mm.mapped_file_count(), 1 + spec.mapped_files);
        assert_eq!(k.proc(c.init_pid()).unwrap().thread_count(), 4);
        // The listener answers SYNs.
        let stats = k.stack(c.ns.net).unwrap().queue_stats();
        assert_eq!(stats.listeners, 1);
    }

    #[test]
    fn create_multiprocess_container() {
        let mut k = Kernel::default();
        let mut spec = ContainerSpec::server("lighttpd", 10, 80);
        spec.processes = 4;
        spec.threads_per_process = 1;
        let c = ContainerRuntime::create(&mut k, &spec).unwrap();
        assert_eq!(c.workers.len(), 4);
        // Each worker has its own address space.
        let mms: std::collections::HashSet<_> =
            c.workers.iter().map(|&p| k.proc(p).unwrap().mm).collect();
        assert_eq!(mms.len(), 4);
    }

    #[test]
    fn threads_in_syscall_marked() {
        let mut k = Kernel::default();
        let spec = ContainerSpec::server("node", 10, 3000); // 2 in syscall
        let c = ContainerRuntime::create(&mut k, &spec).unwrap();
        let p = k.proc(c.init_pid()).unwrap();
        let n = p
            .threads
            .iter()
            .filter(|t| t.run_state == ThreadRunState::Syscall)
            .count();
        assert_eq!(n, 2);
    }

    #[test]
    fn creation_fires_ftrace_hooks() {
        let mut k = Kernel::default();
        k.ftrace.drain_signals();
        let spec = ContainerSpec::batch("swaptions", 11);
        ContainerRuntime::create(&mut k, &spec).unwrap();
        let sigs = k.ftrace.drain_signals();
        assert!(sigs.contains(&StateComponent::Mounts));
        assert!(sigs.contains(&StateComponent::DeviceFiles));
        assert!(sigs.contains(&StateComponent::MappedFiles));
    }

    #[test]
    fn keepalive_has_minimal_footprint() {
        let mut k = Kernel::default();
        let spec = ContainerSpec::batch("streamcluster", 11);
        let c = ContainerRuntime::create(&mut k, &spec).unwrap();
        assert_eq!(k.mm(c.keepalive).unwrap().vma_count(), 1);
    }
}
