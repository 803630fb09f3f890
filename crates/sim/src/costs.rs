//! The calibrated virtual-time cost model.
//!
//! Every simulated kernel operation charges a cost from this table to the
//! kernel's [`crate::time::CostMeter`]. Constants are sourced from the paper
//! wherever it states a number (cited inline below); the rest are set so the
//! reproduction lands within tolerance of the paper's tables and are marked
//! `calibrated`. The `bench` crate's `anchors` binary prints the paper-stated
//! anchors next to what the model produces.

use crate::time::Nanos;
use serde::{Deserialize, Serialize};

/// Convenience: microseconds.
const fn us(v: u64) -> Nanos {
    v * 1_000
}
/// Convenience: milliseconds.
const fn ms(v: u64) -> Nanos {
    v * 1_000_000
}

/// Latency/cost constants for the simulated kernel.
///
/// All fields are public so experiments can perturb individual costs
/// (sensitivity studies / ablations); [`CostModel::default`] is the calibrated
/// configuration used for every headline experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    // ------------------------------------------------------------------
    // Generic syscall surface
    // ------------------------------------------------------------------
    /// Base cost of entering and leaving any system call (`calibrated`,
    /// typical for the paper's Xeon-class hosts).
    pub syscall_base: Nanos,
    /// Cost of copying one byte between user and kernel space.
    pub copy_per_byte: Nanos,

    // ------------------------------------------------------------------
    // Memory subsystem
    // ------------------------------------------------------------------
    /// Soft-dirty write-protect fault on first write to a page after
    /// `clear_refs` (NiLiCon's runtime page-tracking overhead). `calibrated`
    /// so streamcluster's runtime component of the 31% total overhead is ~7%
    /// (Fig. 3 breakdown).
    pub soft_dirty_fault: Nanos,
    /// VM-exit + VM-entry pair for MC/KVM write-protect page tracking. The
    /// paper attributes MC's higher runtime overhead to this (§VII-C,
    /// "high overhead of VM exit and entry operations").
    pub vmexit_fault: Nanos,
    /// Scanning one page-table entry of `/proc/pid/pagemap` to find
    /// soft-dirty pages. Paper §VII-C: identifying dirty pages over a 49 K
    /// page footprint costs 1441 µs → ~29 ns per page.
    pub pagemap_scan_per_page: Nanos,
    /// Writing `/proc/pid/clear_refs` — per mapped page walked.
    pub clear_refs_per_page: Nanos,
    /// memcpy of one 4 KiB page (local copy into a staging buffer).
    /// §VII-C: copying 121 pages costs 263 µs → ~2.2 µs/page.
    pub page_copy: Nanos,
    /// Extra per-page cost when the parasite transfers page *contents over a
    /// pipe* (multiple syscalls per chunk) instead of shared memory.
    /// `calibrated` against Table I: the shared-memory optimization takes
    /// streamcluster from 37% to 31% (saves ~6 µs/page on ~300 pages).
    pub parasite_pipe_per_page: Nanos,
    /// Reading one VMA's entry from `/proc/pid/smaps` (formatted text,
    /// includes per-VMA stat generation).
    pub smaps_per_vma: Nanos,
    /// Per-page cost of the page statistics `smaps` generates that
    /// checkpointing does not need (§V cause (2)).
    pub smaps_per_page_stats: Nanos,
    /// Reading one VMA via the task-diag/netlink patch (binary format;
    /// §V-D deficiency (1) resolved).
    pub netlink_per_vma: Nanos,
    /// `stat` on one memory-mapped file (§V cause (1): dynamically linked
    /// libraries make this frequent).
    pub stat_per_file: Nanos,
    /// Materializing (restoring) one page's contents at restore time.
    pub page_restore: Nanos,
    /// Write-protecting one dirty page at a copy-on-write checkpoint pause:
    /// a PTE flag flip plus its share of the TLB shootdown, no data copy.
    /// `calibrated` ~15x below `page_copy` — deferring the copy out of the
    /// frozen window is the entire point of the COW mode (§VIII names
    /// shrinking the pause as future work; HyCoR defers the same way).
    pub cow_protect_per_page: Nanos,
    /// Write-protect fault taken when the container touches a
    /// still-protected page after resume: fault entry/exit (like
    /// `soft_dirty_fault`) plus an eager copy-before-write of the old
    /// contents into staging (one `page_copy`). Charged to the container's
    /// *runtime* overhead, not the stop phase.
    pub cow_fault: Nanos,
    /// Background copier draining one protected page into staging during
    /// the next execution phase: one `page_copy` plus un-protecting the PTE.
    pub cow_drain_per_page: Nanos,

    // ------------------------------------------------------------------
    // Freezer
    // ------------------------------------------------------------------
    /// Delivering the freezer virtual signal to one thread.
    pub freeze_signal_per_thread: Nanos,
    /// Latency for a thread *inside a system call* to notice the virtual
    /// signal and return (worst case per thread).
    pub freeze_syscall_interrupt: Nanos,
    /// Stock CRIU's fixed sleep between issuing virtual signals and checking
    /// thread state (§V-A: "sleeps for 100ms").
    pub freeze_stock_sleep: Nanos,
    /// Busy-poll iteration granularity for NiLiCon's optimized freeze
    /// (§V-A: average busy looping < 1 ms even for syscall-intensive loads).
    pub freeze_poll_interval: Nanos,
    /// Thawing one thread.
    pub thaw_per_thread: Nanos,

    // ------------------------------------------------------------------
    // In-kernel container state collection
    // ------------------------------------------------------------------
    /// Collecting all namespace state, uncached (§I: "collecting container
    /// namespace information may take up to 100 ms").
    pub ns_collect: Nanos,
    /// Collecting cgroup state, uncached. Together with namespaces, mounts,
    /// device files and mapped files this forms the paper's ~160 ms
    /// infrequently-modified set (§V-B, streamcluster).
    pub cgroup_collect: Nanos,
    /// Collecting the mount table, uncached.
    pub mounts_collect: Nanos,
    /// Collecting device-file state, uncached.
    pub devfiles_collect: Nanos,
    /// Per-thread state retrieval: registers, signal mask, timers, sched
    /// policy (§VII-C: 148 µs at 1 thread, ~linear to 4 ms at 32).
    pub thread_state: Nanos,
    /// Per-process base state retrieval: fd table walk, VMA bookkeeping,
    /// proc metadata (§VII-C lighttpd: 6.5 ms at 1 process).
    pub process_state_base: Nanos,
    /// Per-open-fd cost within a process dump.
    pub fd_state: Nanos,
    /// Dumping one TCP socket via repair mode (§VII-C: 1.2 ms for ~8
    /// sockets to 13 ms for 128 sockets → ~100 µs each).
    pub socket_repair_dump: Nanos,
    /// Restoring one TCP socket via repair mode.
    pub socket_repair_restore: Nanos,
    /// `fgetfc`: per DNC page-cache entry collected.
    pub fgetfc_per_page: Nanos,
    /// `fgetfc`: per DNC inode entry collected.
    pub fgetfc_per_inode: Nanos,
    /// Flushing the file-system cache to backing store, per dirty page
    /// (the CRIU-stock alternative NiLiCon avoids; §III: "up to hundreds of
    /// milliseconds" for disk-intensive applications).
    pub fs_flush_per_page: Nanos,

    // ------------------------------------------------------------------
    // Networking
    // ------------------------------------------------------------------
    /// Installing + removing firewall rules to block input (stock CRIU;
    /// §V-C: "adds a 7 ms delay during each epoch").
    pub firewall_block_cycle: Nanos,
    /// Plug/unplug of the buffering qdisc (NiLiCon; §V-C: 43 µs).
    pub plug_block_cycle: Nanos,
    /// Per-packet cost of traversing the stack (either direction).
    pub packet_process: Nanos,
    /// Gratuitous ARP broadcast at failover (Table II: 28 ms including
    /// propagation/update).
    pub gratuitous_arp: Nanos,
    /// Default TCP retransmission timeout for a fresh socket (§V-E:
    /// "at least one second").
    pub tcp_rto_default: Nanos,
    /// Minimum RTO applied when the socket is restored in repair mode —
    /// the paper's 2-LOC kernel change (§V-E: 200 ms).
    pub tcp_rto_repair_min: Nanos,

    // ------------------------------------------------------------------
    // Replication transport (dedicated 10 GbE link, §VI)
    // ------------------------------------------------------------------
    /// One-way propagation + switching latency of the replication link.
    pub repl_link_latency: Nanos,
    /// Transfer cost per byte on the replication link (10 Gb/s → 0.8 ns/B).
    pub repl_link_per_byte_ns_x1000: u64,
    /// Per-message (send syscall + NIC doorbell) overhead on the link.
    pub repl_msg_overhead: Nanos,
    /// Client-facing link one-way latency.
    pub client_link_latency: Nanos,

    // ------------------------------------------------------------------
    // Backup-side processing
    // ------------------------------------------------------------------
    /// Backup CPU cost to receive + buffer one byte of checkpoint state.
    pub backup_recv_per_byte_ns_x1000: u64,
    /// Backup CPU cost per received message/chunk (read syscall). Table V
    /// explains Node's high backup utilization by fine-grained arrival of
    /// socket state — per-chunk costs dominate for small chunks.
    pub backup_recv_per_msg: Nanos,
    /// Committing one page into the backup's radix-tree store.
    pub radix_insert: Nanos,
    /// Base cost of one linked-list directory probe in stock CRIU's
    /// incremental-image store (per previous checkpoint in the chain,
    /// per page; §V-A).
    pub list_probe_per_ckpt: Nanos,
    /// Primary CPU cost to delta-encode one dirty page against the backup's
    /// committed copy (word-level XOR scan of 4 KiB;
    /// HyCoR-style wire reduction). Charged inside the stop phase.
    pub delta_encode_per_page: Nanos,
    /// Backup CPU cost to apply one delta-encoded page against its stored
    /// base at commit time (decode side of `delta_encode_per_page`).
    pub delta_apply_per_page: Nanos,
    /// Primary CPU cost to erasure-code one dirty page into its n shard
    /// fragments (GF(2⁸) systematic Reed–Solomon; the `placement`
    /// extension). Charged on the ack path, after the container resumes.
    pub shard_encode_per_page: Nanos,
    /// CPU cost to reconstruct one page from k shard fragments (Gaussian
    /// decode; charged during failover reconstruction and coded repair).
    pub shard_decode_per_page: Nanos,
    /// Backup CPU cost to apply one logged event during failover replay
    /// (decode + dispatch into the re-executing container).
    pub log_replay_per_event: Nanos,

    // ------------------------------------------------------------------
    // Restore / recovery
    // ------------------------------------------------------------------
    /// Fixed restore overhead: fork CRIU, parse images, recreate the
    /// container skeleton (namespaces, cgroups, mounts). `calibrated`
    /// against Table II (Net restore = 218 ms with ~trivial memory).
    pub restore_base: Nanos,
    /// Recreating one process (fork + basic setup) at restore.
    pub restore_per_process: Nanos,
    /// Recreating one thread at restore.
    pub restore_per_thread: Nanos,
    /// Restoring one fd at restore.
    pub restore_per_fd: Nanos,
    /// Writing DRBD-buffered disk pages at failover, per page.
    pub restore_disk_per_page: Nanos,
    /// Miscellaneous recovery actions not in restore/ARP/TCP: reconnecting
    /// the bridge, detector bookkeeping (Table II "Others": 7 ms).
    pub recovery_misc: Nanos,

    // ------------------------------------------------------------------
    // MC / KVM baseline (whole-VM replication, §VI-§VII)
    // ------------------------------------------------------------------
    /// Pausing + resuming the VM around a micro-checkpoint (vCPU kick,
    /// quiesce, resume). `calibrated` against Table III's MC stop floor
    /// (~2.4 ms for swaptions' tiny dirty set).
    pub vm_pause_resume: Nanos,
    /// Hypervisor-side copy of one dirty guest page (direct access — no
    /// parasite); cheaper than the container path. `calibrated` against
    /// Table III (MC Redis: 6.2 K pages in a 9.3 ms stop).
    pub hv_page_copy: Nanos,
    /// Scanning one page of the KVM dirty log/bitmap.
    pub hv_dirty_log_per_page: Nanos,
    /// Device + vCPU state shipped per MC epoch, bytes.
    pub vm_device_state_bytes: u64,
    /// Resuming the ready-to-go backup VM at failover (Remus §II-A:
    /// "minimal delay").
    pub vm_resume_at_failover: Nanos,

    // ------------------------------------------------------------------
    // Proxy (stock CRIU state-transfer intermediary, §V-A)
    // ------------------------------------------------------------------
    /// Extra per-byte cost when state flows through the proxy processes
    /// (one extra copy on each host).
    pub proxy_per_byte_ns_x1000: u64,
    /// Extra per-message cost through the proxies.
    pub proxy_per_msg: Nanos,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            syscall_base: 300,
            copy_per_byte: 1, // ~1 GB/s effective for small copies incl. overheads

            soft_dirty_fault: 2_500,
            vmexit_fault: us(5),
            pagemap_scan_per_page: 29,
            clear_refs_per_page: 8,
            page_copy: 2_170, // 263 µs / 121 pages (§VII-C)
            parasite_pipe_per_page: us(6),
            smaps_per_vma: us(30),
            smaps_per_page_stats: 70,
            netlink_per_vma: us(2),
            stat_per_file: us(25),
            page_restore: 3_500,
            cow_protect_per_page: 150,
            cow_fault: 4_700, // soft_dirty_fault + page_copy, rounded
            cow_drain_per_page: 2_300, // page_copy + PTE un-protect

            freeze_signal_per_thread: us(15),
            freeze_syscall_interrupt: us(60),
            freeze_stock_sleep: ms(100),
            freeze_poll_interval: us(50),
            thaw_per_thread: us(10),

            ns_collect: ms(100),    // §I: "up to 100ms"
            cgroup_collect: ms(25), // remainder of the ~160 ms set (§V-B)
            mounts_collect: ms(20),
            devfiles_collect: ms(10),
            thread_state: us(130), // §VII-C: 148 µs @1 thread → 4 ms @32
            process_state_base: us(2600),
            fd_state: us(18),
            socket_repair_dump: us(100), // §VII-C: 13 ms @128 sockets
            socket_repair_restore: us(140),
            fgetfc_per_page: 900,
            fgetfc_per_inode: us(3),
            fs_flush_per_page: us(45), // §III: flush = 100s of ms for disk-heavy apps

            firewall_block_cycle: ms(7), // §V-C
            plug_block_cycle: us(43),    // §V-C
            packet_process: us(4),
            gratuitous_arp: ms(28),         // Table II
            tcp_rto_default: 1_000 * ms(1), // §V-E: "at least one second"
            tcp_rto_repair_min: ms(200),    // §V-E

            repl_link_latency: us(15),
            repl_link_per_byte_ns_x1000: 800, // 0.8 ns/B = 10 Gb/s
            repl_msg_overhead: us(4),
            client_link_latency: us(80),

            backup_recv_per_byte_ns_x1000: 900,
            backup_recv_per_msg: us(20),
            radix_insert: 450,
            list_probe_per_ckpt: 4_000, // fs directory probe (images live in files)
            delta_encode_per_page: 650, // one 4 KiB XOR scan ≈ ⅓ of a page copy
            delta_apply_per_page: 500,
            shard_encode_per_page: 900, // GF(2⁸) table-lookup pass over 4 KiB
            shard_decode_per_page: 1100, // matrix solve + k-way combine
            log_replay_per_event: 400,  // decode + dispatch at replay

            restore_base: ms(190),
            restore_per_process: ms(9),
            restore_per_thread: us(450),
            restore_per_fd: us(60),
            restore_disk_per_page: us(9),
            recovery_misc: ms(7), // Table II "Others"

            vm_pause_resume: ms(2),
            hv_page_copy: 1_150,
            hv_dirty_log_per_page: 5,
            vm_device_state_bytes: 80 * 1024,
            vm_resume_at_failover: ms(60),

            proxy_per_byte_ns_x1000: 700,
            proxy_per_msg: us(10),
        }
    }
}

impl CostModel {
    /// Wire time for `bytes` on the replication link (excluding latency).
    #[inline]
    pub fn repl_wire(&self, bytes: u64) -> Nanos {
        bytes * self.repl_link_per_byte_ns_x1000 / 1_000
    }

    /// Backup CPU time to receive `bytes` split into `msgs` chunks.
    #[inline]
    pub fn backup_recv(&self, bytes: u64, msgs: u64) -> Nanos {
        bytes * self.backup_recv_per_byte_ns_x1000 / 1_000 + msgs * self.backup_recv_per_msg
    }

    /// Extra cost of routing `bytes` in `msgs` chunks through the stock
    /// CRIU proxy pair.
    #[inline]
    pub fn proxy_overhead(&self, bytes: u64, msgs: u64) -> Nanos {
        bytes * self.proxy_per_byte_ns_x1000 / 1_000 + msgs * self.proxy_per_msg
    }

    /// The infrequently-modified in-kernel state collection cost, uncached
    /// (namespaces + cgroups + mounts + device files; mapped-file stats are
    /// charged per file elsewhere). §V-B's ~160 ms for streamcluster is this
    /// plus the mapped-file stats.
    #[inline]
    pub fn infrequent_state_collect(&self) -> Nanos {
        self.ns_collect + self.cgroup_collect + self.mounts_collect + self.devfiles_collect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MICROSECOND, MILLISECOND};

    #[test]
    fn paper_stated_anchors_hold() {
        let c = CostModel::default();
        // §V-C: firewall 7 ms vs plug 43 µs.
        assert_eq!(c.firewall_block_cycle, 7 * MILLISECOND);
        assert_eq!(c.plug_block_cycle, 43 * MICROSECOND);
        // §I: namespace collection up to 100 ms.
        assert_eq!(c.ns_collect, 100 * MILLISECOND);
        // §V-E: RTO 1 s default, 200 ms repair minimum.
        assert_eq!(c.tcp_rto_default, 1_000 * MILLISECOND);
        assert_eq!(c.tcp_rto_repair_min, 200 * MILLISECOND);
        // §VII-C: pagemap scan ≈ 1441 µs over 49 K pages.
        let scan = 49_000 * c.pagemap_scan_per_page;
        assert!((1_200 * MICROSECOND..1_700 * MICROSECOND).contains(&scan));
        // §VII-C: copying 121 pages ≈ 263 µs.
        let copy = 121 * c.page_copy;
        assert!((230 * MICROSECOND..300 * MICROSECOND).contains(&copy));
        // §V-B: infrequently-modified set ≈ 160 ms incl. mapped-file stats;
        // the fixed components alone are 100+25+20+10 = 155 ms.
        assert_eq!(c.infrequent_state_collect(), 155 * MILLISECOND);
        // §VII-C: 128 sockets ≈ 13 ms.
        assert!((10 * MILLISECOND..16 * MILLISECOND).contains(&(128 * c.socket_repair_dump)));
    }

    #[test]
    fn cow_constants_are_consistent() {
        let c = CostModel::default();
        assert!(
            c.cow_protect_per_page * 10 < c.page_copy,
            "protecting must be far cheaper than the copy it defers"
        );
        assert!(
            c.cow_fault >= c.soft_dirty_fault + c.page_copy,
            "a COW fault is a tracking fault plus an eager page copy"
        );
        assert!(c.cow_drain_per_page >= c.page_copy);
    }

    #[test]
    fn wire_math() {
        let c = CostModel::default();
        // 10 Gb/s: 1.25 GB/s → 1 MiB in ~0.84 ms.
        let t = c.repl_wire(1024 * 1024);
        assert!((700 * MICROSECOND..1_000 * MICROSECOND).contains(&t));
    }

    #[test]
    fn helper_compositions() {
        let c = CostModel::default();
        assert_eq!(
            c.backup_recv(1000, 2),
            1000 * c.backup_recv_per_byte_ns_x1000 / 1000 + 2 * c.backup_recv_per_msg
        );
        assert!(c.proxy_overhead(4096, 1) > 0);
    }
}
