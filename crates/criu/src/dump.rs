//! The dump pipeline: container state → [`CheckpointImage`].

use crate::cache::InfrequentCache;
use crate::image::{CheckpointImage, ProcessImage};
use nilicon_container::Container;
use nilicon_sim::kernel::{Kernel, PageTransferVia, VmaCollectVia};
use nilicon_sim::proc::FreezeStrategy;
use nilicon_sim::SimResult;

/// How dirty pages are identified at dump time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirtySource {
    /// Linux soft-dirty PTEs via `clear_refs`/`pagemap` (the paper's
    /// mechanism, §II-B): scan cost proportional to the mapped footprint.
    SoftDirty,
    /// Hardware page-modification log (PML extension, §VIII/Phantasy):
    /// drain cost proportional to the *dirty* set only, and no per-write
    /// runtime faults.
    Pml,
}

/// How file-system cache state is checkpointed (§III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsCacheMode {
    /// NiLiCon: collect DNC entries with the new `fgetfc` syscall.
    Fgetfc,
    /// Stock CRIU: flush the cache to (network-attached) storage after the
    /// checkpoint — prohibitive at 30 ms epochs for disk-heavy apps.
    FlushAll,
}

/// Dump configuration: each field is one of the paper's §V toggles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DumpConfig {
    /// Freeze waiting strategy (§V-A).
    pub freeze: FreezeStrategy,
    /// VMA collection interface (§V-D (1)).
    pub vma_via: VmaCollectVia,
    /// Parasite page-transfer mechanism (§V-D (3)).
    pub page_via: PageTransferVia,
    /// Route the state transfer through the stock proxy processes (§V-A).
    /// Consumed by the transfer layer in the `nilicon` crate; carried here so
    /// one config object describes a full Table-I row.
    pub via_proxy: bool,
    /// Incremental dump (soft-dirty) vs full dump of resident pages.
    pub incremental: bool,
    /// Dirty-page identification mechanism.
    pub dirty_source: DirtySource,
    /// File-system cache handling (§III).
    pub fs_cache: FsCacheMode,
    /// Dump shards: the per-process loop is split round-robin across this
    /// many worker threads and stop time charged as the *max* of per-shard
    /// costs instead of their sum (the concurrency opportunity §VIII points
    /// at — processes dump independently). `1` = serial stock behavior.
    pub workers: u32,
    /// Copy-on-write dump: write-protect dirty pages instead of copying them
    /// while frozen, recording them in `CheckpointImage::deferred_vpns` for
    /// the engine's background copier. Off in every paper-faithful row.
    pub cow: bool,
}

impl DumpConfig {
    /// Stock CRIU as the paper found it (the "Basic implementation" row of
    /// Table I, minus replication-level choices).
    pub fn stock() -> Self {
        DumpConfig {
            freeze: FreezeStrategy::Stock,
            vma_via: VmaCollectVia::Smaps,
            page_via: PageTransferVia::Pipe,
            via_proxy: true,
            incremental: true,
            dirty_source: DirtySource::SoftDirty,
            fs_cache: FsCacheMode::FlushAll,
            workers: 1,
            cow: false,
        }
    }

    /// NiLiCon with every optimization enabled (the final Table I row).
    pub fn nilicon() -> Self {
        DumpConfig {
            freeze: FreezeStrategy::BusyPoll,
            vma_via: VmaCollectVia::Netlink,
            page_via: PageTransferVia::SharedMem,
            via_proxy: false,
            incremental: true,
            dirty_source: DirtySource::SoftDirty,
            fs_cache: FsCacheMode::Fgetfc,
            workers: 1,
            cow: false,
        }
    }
}

impl Default for DumpConfig {
    fn default() -> Self {
        Self::nilicon()
    }
}

/// Dump a (frozen) container into a checkpoint image.
///
/// The caller is responsible for freezing the container and blocking network
/// input first — the replication agent orchestrates that (§IV); `criu dump`
/// for one-shot migration does it via [`full_dump`].
///
/// With `cache = Some(..)`, infrequently-modified state is served from the
/// §V-B cache; with `None`, every component is re-collected (stock behavior).
pub fn dump_container(
    kernel: &mut Kernel,
    container: &Container,
    cfg: &DumpConfig,
    cache: Option<&mut InfrequentCache>,
    epoch: u64,
) -> SimResult<CheckpointImage> {
    let t0 = kernel.meter.lifetime_total();
    let mut img = CheckpointImage {
        epoch,
        name: container.spec.name.clone(),
        addr: container.spec.addr,
        ns: Some(container.ns),
        ..Default::default()
    };

    // ------------------------------------------------------------------
    // Per-process state: VMAs, pages, threads, fds.
    // ------------------------------------------------------------------
    // Per-pid (processes-stage, pages-stage) costs, for shard accounting.
    let mut per_pid_costs: Vec<(u64, u64)> = Vec::new();
    for &pid in &container.all_pids() {
        let s_proc = kernel.meter.lifetime_total();
        let vmas = kernel.collect_vmas(pid, cfg.vma_via)?;
        let proc = kernel.proc(pid)?;
        let threads = proc.threads.clone();
        let fds: Vec<_> = proc.fds.iter().map(|(fd, e)| (*fd, e.clone())).collect();
        let (ppid, mm, exe) = (proc.ppid, proc.mm, proc.exe.clone());

        kernel.charge_thread_state(threads.len() as u64);
        kernel.charge_process_state(fds.len() as u64);
        let s_pages = kernel.meter.lifetime_total();
        img.stats.phases.processes += s_pages - s_proc;

        // Dirty (or all resident) pages.
        let vpns = if cfg.incremental {
            let dirty = match cfg.dirty_source {
                DirtySource::SoftDirty => kernel.pagemap_dirty(pid)?,
                DirtySource::Pml => kernel.pml_drain(pid)?,
            };
            kernel.clear_refs(pid)?; // re-arm tracking for the next epoch
            dirty
        } else {
            kernel.mm(pid)?.resident_vpns()
        };
        if cfg.cow {
            // Defer the dominant copy: write-protect the dirty set and hand
            // it to the engine's background copier via the image.
            kernel.cow_protect_pages(pid, &vpns)?;
            img.stats.dirty_pages += vpns.len() as u64;
            img.deferred_vpns.extend(vpns.iter().map(|&vpn| (pid, vpn)));
        } else {
            let pages = kernel.read_pages(pid, &vpns, cfg.page_via)?;
            img.stats.dirty_pages += pages.len() as u64;
            for (vpn, data) in pages {
                img.pages.push((pid, vpn, data));
            }
        }
        let e_pages = kernel.meter.lifetime_total();
        img.stats.phases.pages += e_pages - s_pages;
        per_pid_costs.push((s_pages - s_proc, e_pages - s_pages));

        img.processes.push(ProcessImage {
            pid,
            ppid,
            mm,
            exe,
            threads,
            fds,
            vmas,
        });
    }

    // ------------------------------------------------------------------
    // Sharded dump: model `cfg.workers` dump threads walking the process
    // list round-robin. The kernel metered the loop serially; wall-clock
    // stop time is the *critical* (max-cost) shard, so the cost of every
    // other shard is refunded, and the phase breakdown is re-attributed to
    // the critical shard so the stage deltas still telescope to stop_time.
    // ------------------------------------------------------------------
    let workers = cfg.workers.max(1) as usize;
    if workers > 1 && per_pid_costs.len() > 1 {
        let mut shard_proc = vec![0u64; workers];
        let mut shard_pages = vec![0u64; workers];
        for (i, &(p, g)) in per_pid_costs.iter().enumerate() {
            shard_proc[i % workers] += p;
            shard_pages[i % workers] += g;
        }
        let critical = (0..workers)
            .max_by_key(|&i| shard_proc[i] + shard_pages[i])
            .expect("workers > 1");
        let serial: u64 = per_pid_costs.iter().map(|&(p, g)| p + g).sum();
        let parallel = shard_proc[critical] + shard_pages[critical];
        kernel.meter.refund(serial - parallel);
        img.stats.phases.processes = shard_proc[critical];
        img.stats.phases.pages = shard_pages[critical];
    }

    // ------------------------------------------------------------------
    // Sockets (repair mode).
    // ------------------------------------------------------------------
    let s_sock = kernel.meter.lifetime_total();
    let (listeners, sockets) = kernel.checkpoint_sockets(container.ns.net)?;
    img.stats.phases.sockets += kernel.meter.lifetime_total() - s_sock;
    img.stats.sockets = sockets.len() as u64;
    img.stats.socket_queue_bytes = sockets
        .iter()
        .map(|s| (s.write_queue.len() + s.read_queue.len()) as u64)
        .sum();
    img.listeners = listeners;
    img.sockets = sockets;

    // ------------------------------------------------------------------
    // File-system cache (§III).
    // ------------------------------------------------------------------
    let s_fs = kernel.meter.lifetime_total();
    match cfg.fs_cache {
        FsCacheMode::Fgetfc => {
            let (pages, inodes) = kernel.fgetfc();
            img.stats.fs_cache_pages = pages.pages.len() as u64;
            img.fs_pages = pages;
            img.fs_inodes = inodes;
        }
        FsCacheMode::FlushAll => {
            // Committed to (shared) storage instead of the image.
            img.stats.fs_cache_pages = kernel.flush_fs_cache() as u64;
        }
    }
    img.paths = kernel.vfs.paths().map(|(p, &i)| (p.clone(), i)).collect();
    let s_inf = kernel.meter.lifetime_total();
    img.stats.phases.fs_cache += s_inf - s_fs;

    // ------------------------------------------------------------------
    // Infrequently-modified state (§V-B).
    // ------------------------------------------------------------------
    match cache {
        Some(c) => c.collect_into(kernel, container, &mut img)?,
        None => {
            img.namespaces = kernel.collect_namespaces(&container.ns);
            img.cgroups = kernel.collect_cgroups();
            img.mounts = kernel.collect_mounts();
            img.devfiles = kernel.collect_devfiles();
            for &pid in &container.workers {
                kernel.stat_mapped_files(pid)?;
            }
            img.stats.infrequent_recollections += 4 + container.workers.len() as u32;
        }
    }

    let end = kernel.meter.lifetime_total();
    img.stats.phases.infrequent += end - s_inf;
    img.stats.stop_time = end - t0;
    Ok(img)
}

/// Full-image *copy-on-write* dump for online re-replication: capture the
/// container's complete resident set, but defer every page copy through the
/// COW machinery (`CheckpointImage::deferred_vpns`) so the stop time stays at
/// the protect cost — roughly one incremental epoch — instead of growing with
/// the footprint. The caller freezes/thaws and streams the deferred pages.
///
/// Unlike the incremental path, a non-incremental [`dump_container`] does not
/// clear the soft-dirty bits; this helper does, while the container is still
/// frozen, so every write after the resume is dirty again and lands in the
/// first incremental epoch toward the new backup.
pub fn bootstrap_dump(
    kernel: &mut Kernel,
    container: &Container,
    cfg: &DumpConfig,
    cache: Option<&mut InfrequentCache>,
    epoch: u64,
) -> SimResult<CheckpointImage> {
    let mut full_cfg = *cfg;
    full_cfg.incremental = false;
    full_cfg.cow = true;
    let img = dump_container(kernel, container, &full_cfg, cache, epoch)?;
    for &pid in &container.all_pids() {
        kernel.clear_refs(pid)?;
    }
    Ok(img)
}

/// One-shot migration-style dump: freeze → dump → thaw.
pub fn full_dump(
    kernel: &mut Kernel,
    container: &Container,
    cfg: &DumpConfig,
) -> SimResult<CheckpointImage> {
    kernel.freeze_cgroup(container.cgroup, cfg.freeze)?;
    let mut full_cfg = *cfg;
    full_cfg.incremental = false;
    full_cfg.cow = false; // one-shot migration needs the pages in the image
    let img = dump_container(kernel, container, &full_cfg, None, 0)?;
    kernel.thaw_cgroup(container.cgroup)?;
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_container::{ContainerRuntime, ContainerSpec};
    use nilicon_sim::mem::TrackingMode;
    use nilicon_sim::time::MILLISECOND;

    fn setup() -> (Kernel, Container) {
        let mut k = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut k, &spec).unwrap();
        for &pid in &c.workers {
            k.mm_mut(pid).unwrap().set_tracking(TrackingMode::SoftDirty);
        }
        (k, c)
    }

    #[test]
    fn incremental_dump_captures_only_dirty_pages() {
        let (mut k, c) = setup();
        let pid = c.init_pid();
        k.mem_write(pid, nilicon_container::MemLayout::heap(0), b"v1")
            .unwrap();
        k.freeze_cgroup(c.cgroup, FreezeStrategy::BusyPoll).unwrap();
        let img1 = dump_container(&mut k, &c, &DumpConfig::nilicon(), None, 1).unwrap();
        assert_eq!(img1.stats.dirty_pages, 1);
        k.thaw_cgroup(c.cgroup).unwrap();

        // Nothing written: next incremental dump has zero pages.
        k.freeze_cgroup(c.cgroup, FreezeStrategy::BusyPoll).unwrap();
        let img2 = dump_container(&mut k, &c, &DumpConfig::nilicon(), None, 2).unwrap();
        assert_eq!(img2.stats.dirty_pages, 0);
        k.thaw_cgroup(c.cgroup).unwrap();

        // Two pages written -> two pages dumped, with real contents.
        k.mem_write(pid, nilicon_container::MemLayout::heap_page(5), b"five")
            .unwrap();
        k.mem_write(pid, nilicon_container::MemLayout::heap_page(9), b"nine")
            .unwrap();
        k.freeze_cgroup(c.cgroup, FreezeStrategy::BusyPoll).unwrap();
        let img3 = dump_container(&mut k, &c, &DumpConfig::nilicon(), None, 3).unwrap();
        assert_eq!(img3.stats.dirty_pages, 2);
        let five = img3
            .pages
            .iter()
            .find(|(_, vpn, _)| *vpn == 0x10005)
            .unwrap();
        assert_eq!(&five.2[..4], b"five");
    }

    #[test]
    fn full_dump_captures_resident_set() {
        let (mut k, c) = setup();
        let pid = c.init_pid();
        k.mem_write(pid, nilicon_container::MemLayout::heap(0), b"a")
            .unwrap();
        k.mem_write(pid, nilicon_container::MemLayout::heap_page(3), b"b")
            .unwrap();
        let img = full_dump(&mut k, &c, &DumpConfig::nilicon()).unwrap();
        assert_eq!(img.stats.dirty_pages, 2);
        assert_eq!(img.processes.len(), 2, "worker + keepalive");
        assert!(
            !k.cgroups.get(c.cgroup).unwrap().frozen,
            "thawed after full_dump"
        );
    }

    #[test]
    fn stock_vs_nilicon_dump_cost_gap() {
        let (mut k, c) = setup();
        k.mem_write(c.init_pid(), nilicon_container::MemLayout::heap(0), b"x")
            .unwrap();
        k.freeze_cgroup(c.cgroup, FreezeStrategy::BusyPoll).unwrap();

        k.meter.take();
        let _ = dump_container(&mut k, &c, &DumpConfig::stock(), None, 1).unwrap();
        let stock_cost = k.meter.take();

        let mut cache = InfrequentCache::new();
        // Warm the cache (first fill is the expensive one).
        let _ = dump_container(&mut k, &c, &DumpConfig::nilicon(), Some(&mut cache), 2).unwrap();
        k.meter.take();
        k.mem_write(c.init_pid(), nilicon_container::MemLayout::heap(0), b"y")
            .unwrap();
        k.meter.take();
        let _ = dump_container(&mut k, &c, &DumpConfig::nilicon(), Some(&mut cache), 3).unwrap();
        let nilicon_cost = k.meter.take();

        assert!(
            stock_cost > 10 * nilicon_cost,
            "stock {}ms vs optimized {}ms — the Table I gap",
            stock_cost / MILLISECOND,
            nilicon_cost / MILLISECOND
        );
    }

    #[test]
    fn socket_state_rides_in_the_image() {
        let (mut k, c) = setup();
        // Fabricate an established connection with queued bytes.
        let ns = c.ns.net;
        let stack = k.stack_mut(ns).unwrap();
        let sid = stack.socket();
        let s = stack.sock_mut(sid).unwrap();
        s.state = nilicon_sim::net::TcpState::Established;
        s.local = nilicon_sim::ids::Endpoint::new(10, 6379);
        s.remote = Some(nilicon_sim::ids::Endpoint::new(77, 40000));
        s.read_queue.extend(b"pending request");
        k.freeze_cgroup(c.cgroup, FreezeStrategy::BusyPoll).unwrap();
        let img = dump_container(&mut k, &c, &DumpConfig::nilicon(), None, 1).unwrap();
        assert_eq!(img.stats.sockets, 1);
        assert_eq!(img.stats.socket_queue_bytes, 15);
        assert_eq!(img.listeners, vec![6379]);
        assert_eq!(img.sockets[0].read_queue, b"pending request"[..]);
    }

    #[test]
    fn fgetfc_vs_flush_modes() {
        let (mut k, c) = setup();
        let pid = c.init_pid();
        let fd = k.create_file(pid, "/data/db", 0).unwrap();
        k.pwrite(pid, fd, 0, &vec![1u8; 8192], 1).unwrap();
        k.freeze_cgroup(c.cgroup, FreezeStrategy::BusyPoll).unwrap();

        let img = dump_container(&mut k, &c, &DumpConfig::nilicon(), None, 1).unwrap();
        assert_eq!(img.stats.fs_cache_pages, 2);
        assert_eq!(
            img.fs_pages.pages.len(),
            2,
            "fgetfc puts pages in the image"
        );
        assert_eq!(k.vfs.disk.pending_writes(), 0, "nothing flushed");

        k.pwrite(pid, fd, 0, &vec![2u8; 8192], 2).unwrap();
        let mut cfg = DumpConfig::nilicon();
        cfg.fs_cache = FsCacheMode::FlushAll;
        let img2 = dump_container(&mut k, &c, &cfg, None, 2).unwrap();
        assert!(
            img2.fs_pages.pages.is_empty(),
            "flush mode commits to storage instead"
        );
        assert_eq!(k.vfs.disk.pending_writes(), 2);
    }

    #[test]
    fn dump_phase_breakdown_sums_to_stop_time() {
        let (mut k, c) = setup();
        k.mem_write(c.init_pid(), nilicon_container::MemLayout::heap(0), b"x")
            .unwrap();
        k.freeze_cgroup(c.cgroup, FreezeStrategy::BusyPoll).unwrap();
        for (cfg, label) in [
            (DumpConfig::nilicon(), "nilicon"),
            (DumpConfig::stock(), "stock"),
        ] {
            k.mem_write(c.init_pid(), nilicon_container::MemLayout::heap(0), b"y")
                .unwrap();
            let img = dump_container(&mut k, &c, &cfg, None, 1).unwrap();
            let ph = img.stats.phases;
            assert_eq!(
                ph.total(),
                img.stats.stop_time,
                "{label}: stage deltas must telescope to the dump total"
            );
            assert!(ph.processes > 0, "{label}: processes stage metered");
            assert!(ph.infrequent > 0, "{label}: infrequent stage metered");
        }
    }

    #[test]
    fn sharded_dump_cuts_stop_time_and_phases_still_telescope() {
        let mut spec = ContainerSpec::server("httpd", 64, 80);
        spec.processes = 4; // multi-process container: shardable work
        let run = |workers: u32| {
            let mut k = Kernel::default();
            let c = ContainerRuntime::create(&mut k, &spec).unwrap();
            for &pid in &c.workers {
                k.mm_mut(pid).unwrap().set_tracking(TrackingMode::SoftDirty);
                k.mem_write(pid, nilicon_container::MemLayout::heap(0), b"w")
                    .unwrap();
            }
            k.freeze_cgroup(c.cgroup, FreezeStrategy::BusyPoll).unwrap();
            let mut cfg = DumpConfig::nilicon();
            cfg.workers = workers;
            k.meter.take();
            let img = dump_container(&mut k, &c, &cfg, None, 1).unwrap();
            let metered = k.meter.take();
            assert_eq!(
                img.stats.phases.total(),
                img.stats.stop_time,
                "workers={workers}: stage deltas telescope to stop_time"
            );
            assert_eq!(
                metered, img.stats.stop_time,
                "workers={workers}: meter agrees with stop_time"
            );
            img.stats.stop_time
        };
        let serial = run(1);
        let sharded = run(4);
        assert!(
            sharded < serial,
            "workers=4 ({sharded}ns) must beat workers=1 ({serial}ns)"
        );
    }

    #[test]
    fn sharding_is_a_noop_for_single_process() {
        let (mut k, c) = setup();
        k.freeze_cgroup(c.cgroup, FreezeStrategy::BusyPoll).unwrap();
        let mut cfg = DumpConfig::nilicon();
        cfg.workers = 8;
        let img = dump_container(&mut k, &c, &cfg, None, 1).unwrap();
        // server() spec = worker + keepalive: 2 pids, so sharding engages,
        // but phases must still telescope and stop_time stay positive.
        assert_eq!(img.stats.phases.total(), img.stats.stop_time);
        assert!(img.stats.stop_time > 0);
    }

    #[test]
    fn cow_dump_defers_pages_and_shrinks_stop_time() {
        let run = |cow: bool| {
            let (mut k, c) = setup();
            let pid = c.init_pid();
            for p in 0..200u64 {
                k.mem_write(pid, nilicon_container::MemLayout::heap_page(p), b"d")
                    .unwrap();
            }
            k.freeze_cgroup(c.cgroup, FreezeStrategy::BusyPoll).unwrap();
            let mut cfg = DumpConfig::nilicon();
            cfg.cow = cow;
            k.meter.take();
            let img = dump_container(&mut k, &c, &cfg, None, 1).unwrap();
            let metered = k.meter.take();
            assert_eq!(
                img.stats.phases.total(),
                img.stats.stop_time,
                "cow={cow}: stage deltas telescope to stop_time"
            );
            assert_eq!(metered, img.stats.stop_time);
            (img, k, c)
        };
        let (eager, _, _) = run(false);
        let (cow, mut k, c) = run(true);
        assert_eq!(cow.stats.dirty_pages, eager.stats.dirty_pages);
        assert!(cow.pages.is_empty(), "no pages copied while frozen");
        assert_eq!(cow.deferred_vpns.len() as u64, cow.stats.dirty_pages);
        assert!(
            cow.stats.stop_time < eager.stats.stop_time,
            "cow stop {} must beat eager stop {}",
            cow.stats.stop_time,
            eager.stats.stop_time
        );
        // The deferred set is drainable with the real contents.
        let pid = c.init_pid();
        assert_eq!(k.cow_pending(pid).unwrap(), 200);
        let batch = k.cow_drain_pages(pid, 1000).unwrap();
        assert_eq!(batch.len(), 200);
        assert_eq!(&batch[0].1[..1], b"d");
    }

    #[test]
    fn bootstrap_dump_defers_full_resident_set_and_rearms_tracking() {
        let (mut k, c) = setup();
        let pid = c.init_pid();
        k.mem_write(pid, nilicon_container::MemLayout::heap(0), b"a")
            .unwrap();
        k.mem_write(pid, nilicon_container::MemLayout::heap_page(3), b"b")
            .unwrap();
        k.freeze_cgroup(c.cgroup, FreezeStrategy::BusyPoll).unwrap();
        let img = bootstrap_dump(&mut k, &c, &DumpConfig::nilicon(), None, 7).unwrap();
        k.thaw_cgroup(c.cgroup).unwrap();
        // Full resident set deferred, nothing copied while frozen.
        assert!(img.pages.is_empty());
        let full = full_dump(&mut k, &c, &DumpConfig::nilicon()).unwrap();
        assert_eq!(img.deferred_vpns.len() as u64, full.stats.dirty_pages);
        // Deferred pages drain with real contents.
        let drained = k.cow_drain_pages(pid, 1000).unwrap();
        assert!(drained.iter().any(|(_, d)| &d[..1] == b"a"));
        // Soft-dirty was re-armed: a post-resume write is dirty again.
        k.mem_write(pid, nilicon_container::MemLayout::heap_page(9), b"c")
            .unwrap();
        let dirty = k.pagemap_dirty(pid).unwrap();
        let vpn = nilicon_container::MemLayout::heap_page(9) / nilicon_sim::PAGE_SIZE as u64;
        assert!(dirty.contains(&vpn));
    }

    #[test]
    fn stats_stop_time_is_positive_and_bounded() {
        let (mut k, c) = setup();
        k.freeze_cgroup(c.cgroup, FreezeStrategy::BusyPoll).unwrap();
        let mut cache = InfrequentCache::new();
        let _ = dump_container(&mut k, &c, &DumpConfig::nilicon(), Some(&mut cache), 1).unwrap();
        // Warm dump:
        let img = dump_container(&mut k, &c, &DumpConfig::nilicon(), Some(&mut cache), 2).unwrap();
        assert!(img.stats.stop_time > 0);
        assert!(
            img.stats.stop_time < 30 * MILLISECOND,
            "warm optimized dump fits well inside an epoch, got {}ms",
            img.stats.stop_time / MILLISECOND
        );
    }
}
