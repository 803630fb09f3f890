//! Checkpoint images: the in-memory equivalent of CRIU's image files.

use crate::delta::{DeltaStats, PageEncoding, ShadowStore};
use crate::pagestore::PageKey;
use nilicon_sim::cgroup::Cgroup;
use nilicon_sim::fs::{FsCacheCheckpoint, Inode, Mount};
use nilicon_sim::ids::{AsId, Fd, Ino, Pid};
use nilicon_sim::mem::{PageBuf, Vma};
use nilicon_sim::net::RepairState;
use nilicon_sim::ns::{Namespace, NsSet};
use nilicon_sim::proc::{FdEntry, Thread};
use nilicon_sim::time::Nanos;
use nilicon_sim::PAGE_SIZE;

/// Image of one process.
#[derive(Debug, Clone)]
pub struct ProcessImage {
    /// Original pid (restored verbatim — namespaces make this safe, which is
    /// exactly the Zap/namespace argument of §VIII).
    pub pid: Pid,
    /// Parent pid.
    pub ppid: Pid,
    /// Address-space id (processes sharing an mm share it in the image too).
    pub mm: AsId,
    /// Executable path.
    pub exe: String,
    /// Threads with registers, sigmasks, timers, sched policies.
    pub threads: Vec<Thread>,
    /// Fd table.
    pub fds: Vec<(Fd, FdEntry)>,
    /// VMA list.
    pub vmas: Vec<Vma>,
}

/// The page ranges `prev` mapped, per process, that no VMA of `now` covers any
/// more (`munmap`, a `brk` shrink, a process that exited). Whoever holds
/// contents for the previous image — the backup's page store, the primary's
/// delta shadow — forgets these pages at the same epoch boundary: mapped
/// again later and not written, they read as zeros on the primary, and must
/// not come back with their old bytes at failover. Empty on all but the rare
/// epoch whose VMAs changed; both VMA lists are in address order.
pub fn unmapped_since<'a>(
    prev: impl IntoIterator<Item = (Pid, &'a [Vma])>,
    now: &[ProcessImage],
) -> Vec<(Pid, std::ops::Range<u64>)> {
    let mut gone = Vec::new();
    for (pid, was) in prev {
        let is = now
            .iter()
            .find(|p| p.pid == pid)
            .map_or(&[][..], |p| &p.vmas[..]);
        if was == is {
            continue;
        }
        let vpn_end = |v: &Vma| v.first_vpn() + v.pages();
        let mut is = is.iter().peekable();
        for vma in was {
            let (mut from, end) = (vma.first_vpn(), vpn_end(vma));
            while from < end {
                // A VMA of `now` that ends at or below `from` covers nothing
                // from here on; the next one covers `from` or bounds its gap.
                while is.peek().is_some_and(|v| vpn_end(v) <= from) {
                    is.next();
                }
                from = match is.peek() {
                    Some(v) if v.first_vpn() <= from => vpn_end(v),
                    Some(v) if v.first_vpn() < end => {
                        gone.push((pid, from..v.first_vpn()));
                        v.first_vpn()
                    }
                    _ => {
                        gone.push((pid, from..end));
                        end
                    }
                };
            }
        }
    }
    gone
}

/// Per-stage cost breakdown of one dump, sampled off the kernel's lifetime
/// meter. The five fields sum to [`DumpStats::stop_time`] — code outside the
/// sampled stages charges nothing, so the telescoped stage deltas cover the
/// whole dump.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DumpPhases {
    /// VMA, thread, and fd-table collection.
    pub processes: Nanos,
    /// Dirty-page identification, `clear_refs` re-arm, and page copy.
    pub pages: Nanos,
    /// TCP repair-mode socket checkpointing.
    pub sockets: Nanos,
    /// File-system cache capture (fgetfc or flush) and the path table.
    pub fs_cache: Nanos,
    /// Infrequently-modified state (§V-B cache hit or full re-collect).
    pub infrequent: Nanos,
}

impl DumpPhases {
    /// Sum of all stages (equals [`DumpStats::stop_time`]).
    pub fn total(&self) -> Nanos {
        self.processes + self.pages + self.sockets + self.fs_cache + self.infrequent
    }
}

/// Dump statistics (drives Tables III & IV).
#[derive(Debug, Clone, Copy, Default)]
pub struct DumpStats {
    /// Dirty pages captured in this (incremental) dump.
    pub dirty_pages: u64,
    /// Bytes of socket read/write queues captured.
    pub socket_queue_bytes: u64,
    /// Established sockets dumped.
    pub sockets: u64,
    /// Virtual time the dump spent while the container was stopped.
    pub stop_time: Nanos,
    /// Components re-collected because the cache was invalid (or absent).
    pub infrequent_recollections: u32,
    /// File-cache pages captured via fgetfc (or flushed, in stock mode).
    pub fs_cache_pages: u64,
    /// Per-stage cost breakdown (feeds the `DumpDetail` trace event).
    pub phases: DumpPhases,
    /// Delta-encoding classification and byte accounting, present when
    /// [`CheckpointImage::encode_pages`] ran (feeds the `DeltaEncode` span).
    pub delta: Option<DeltaStats>,
}

/// A complete (possibly incremental) checkpoint of a container.
#[derive(Debug, Clone, Default)]
pub struct CheckpointImage {
    /// Epoch number this image corresponds to.
    pub epoch: u64,
    /// Container name.
    pub name: String,
    /// Network address of the container's netns (for failover re-binding).
    pub addr: u32,
    /// Namespace ids (restored verbatim).
    pub ns: Option<NsSet>,
    /// Process images.
    pub processes: Vec<ProcessImage>,
    /// Incremental page dump: `(pid, vpn, contents)`. Only pages dirtied
    /// since the previous checkpoint appear here.
    pub pages: Vec<(Pid, u64, PageBuf)>,
    /// Delta-encoded page dump: `(pid, vpn, encoding)`. Populated by
    /// [`CheckpointImage::encode_pages`] (which drains [`pages`] into it) on
    /// the wire path when delta transfer is enabled; the backup reconstructs
    /// full pages via `PageStore::apply_delta`. Transient wire form — never
    /// serialized by `imgfile` (a materialized failover image always carries
    /// full pages).
    ///
    /// [`pages`]: CheckpointImage::pages
    pub page_deltas: Vec<(Pid, u64, PageEncoding)>,
    /// Copy-on-write dump: dirty pages that were *write-protected* instead
    /// of copied while the container was frozen. The engine's background
    /// copier drains their contents into [`pages`]/[`page_deltas`] (clearing
    /// this list) during the next execution phase; the epoch may only be
    /// acked once every deferred page has reached the backup.
    ///
    /// [`pages`]: CheckpointImage::pages
    /// [`page_deltas`]: CheckpointImage::page_deltas
    pub deferred_vpns: Vec<(Pid, u64)>,
    /// Listening ports.
    pub listeners: Vec<u16>,
    /// Established-socket repair dumps.
    pub sockets: Vec<RepairState>,
    /// Namespace state (None when served from cache upstream).
    pub namespaces: Vec<Namespace>,
    /// Cgroup state.
    pub cgroups: Vec<Cgroup>,
    /// Mount table.
    pub mounts: Vec<Mount>,
    /// Device-file inodes.
    pub devfiles: Vec<Inode>,
    /// DNC page-cache entries (§III).
    pub fs_pages: FsCacheCheckpoint,
    /// DNC inode entries (§III).
    pub fs_inodes: Vec<Inode>,
    /// Path map entries for restored inodes.
    pub paths: Vec<(String, Ino)>,
    /// Statistics.
    pub stats: DumpStats,
}

impl CheckpointImage {
    /// Total bytes this image contributes to the epoch state transfer
    /// (Table IV's "State" rows). Dirty pages plus socket queues dominate
    /// (the paper: pages are 85-95%); metadata is counted at a flat estimate
    /// per record.
    pub fn state_bytes(&self) -> u64 {
        let page_bytes = self.pages.len() as u64 * PAGE_SIZE as u64;
        let delta_bytes: u64 = self
            .page_deltas
            .iter()
            .map(|(_, _, e)| e.encoded_bytes())
            .sum();
        let sock_bytes: u64 = self.sockets.iter().map(RepairState::state_bytes).sum();
        let fs_bytes = self.fs_pages.bytes();
        let meta = self.metadata_records() * 96;
        page_bytes + delta_bytes + sock_bytes + fs_bytes + meta
    }

    /// Number of metadata records (processes, threads, fds, VMAs, ns,
    /// cgroups, mounts, devfiles, inodes, listeners).
    pub fn metadata_records(&self) -> u64 {
        let proc_recs: u64 = self
            .processes
            .iter()
            .map(|p| 1 + p.threads.len() as u64 + p.fds.len() as u64 + p.vmas.len() as u64)
            .sum();
        proc_recs
            + self.listeners.len() as u64
            + self.namespaces.len() as u64
            + self.cgroups.len() as u64
            + self.mounts.len() as u64
            + self.devfiles.len() as u64
            + self.fs_inodes.len() as u64
            + self.paths.len() as u64
    }

    /// Number of distinct messages/chunks this image arrives in at the
    /// backup (Table V: finer-grained arrival → more read syscalls →
    /// higher backup CPU). Pages arrive in batches; each socket's queues
    /// arrive as their own small chunks; metadata arrives in one chunk per
    /// category.
    pub fn transfer_chunks(&self) -> u64 {
        let n_pages = (self.pages.len() + self.page_deltas.len()) as u64;
        let page_chunks = n_pages.div_ceil(64).max(1);
        let sock_chunks = self.sockets.len() as u64 * 2;
        page_chunks + sock_chunks + 8
    }

    /// Delta-encode the dirty-page payload for the wire (HyCoR-style):
    /// drain [`CheckpointImage::pages`] into
    /// [`CheckpointImage::page_deltas`], classifying each page against
    /// `shadow` (the contents as of the last shipped epoch). After this,
    /// [`CheckpointImage::state_bytes`] counts *encoded* bytes for the page
    /// payload. Returns the per-epoch classification stats (also recorded in
    /// `stats.delta`).
    pub fn encode_pages(&mut self, shadow: &mut ShadowStore) -> DeltaStats {
        let mut stats = DeltaStats::default();
        for (pid, vpn, data) in self.pages.drain(..) {
            let enc = shadow.encode(PageKey { pid, vpn }, &data, &mut stats);
            self.page_deltas.push((pid, vpn, enc));
        }
        self.stats.delta = Some(stats);
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_sim::ids::Endpoint;

    fn repair(wq: usize, rq: usize) -> RepairState {
        RepairState {
            local: Endpoint::new(1, 80),
            remote: Endpoint::new(2, 999),
            snd_nxt: 0,
            snd_una: 0,
            rcv_nxt: 0,
            write_queue: vec![0; wq].into(),
            read_queue: vec![0; rq].into(),
        }
    }

    #[test]
    fn unmapped_since_is_the_set_difference_of_the_two_vma_lists() {
        use nilicon_sim::mem::{Perms, VmaKind};
        let vma = |first: u64, pages: u64| Vma {
            start: first * PAGE_SIZE as u64,
            len: pages * PAGE_SIZE as u64,
            perms: Perms::RW,
            kind: VmaKind::Anon,
            is_heap: false,
            is_stack: false,
        };
        let proc_of = |pid: u32, vmas: Vec<Vma>| ProcessImage {
            pid: Pid(pid),
            ppid: Pid(0),
            mm: AsId(pid),
            exe: String::new(),
            threads: Vec::new(),
            fds: Vec::new(),
            vmas,
        };
        let was = [
            (
                Pid(1),
                vec![vma(10, 10), vma(30, 10), vma(50, 10), vma(70, 2)],
            ),
            (Pid(2), vec![vma(10, 10)]),
            (Pid(3), vec![vma(5, 1), vma(8, 1)]),
        ];
        let gone =
            |now: &[ProcessImage]| unmapped_since(was.iter().map(|(pid, v)| (*pid, &v[..])), now);
        let same: Vec<ProcessImage> = was.iter().map(|(p, v)| proc_of(p.0, v.clone())).collect();
        assert!(gone(&same).is_empty());
        // Pid 1: the first VMA shrunk from the top, the second split by a
        // hole with a new VMA reaching in from below, the third replaced by
        // one that covers it and more, the fourth gone. Pid 2 grew. Pid 3
        // exited.
        let now = [
            proc_of(1, vec![vma(10, 4), vma(25, 8), vma(36, 2), vma(45, 30)]),
            proc_of(2, vec![vma(10, 20)]),
        ];
        assert_eq!(
            gone(&now),
            [
                (Pid(1), 14..20),
                (Pid(1), 33..36),
                (Pid(1), 38..40),
                (Pid(3), 5..6),
                (Pid(3), 8..9),
            ]
        );
    }

    #[test]
    fn state_bytes_dominated_by_pages() {
        let mut img = CheckpointImage::default();
        for vpn in 0..100u64 {
            img.pages.push((Pid(1), vpn, nilicon_sim::zero_page()));
        }
        img.sockets.push(repair(1000, 500));
        let total = img.state_bytes();
        let pages = 100 * PAGE_SIZE as u64;
        assert!(total > pages);
        assert!(
            pages as f64 / total as f64 > 0.85,
            "pages are 85%+ of state (§VII-C), got {:.2}",
            pages as f64 / total as f64
        );
    }

    #[test]
    fn transfer_chunks_scale_with_sockets() {
        let mut few = CheckpointImage::default();
        few.pages.push((Pid(1), 0, nilicon_sim::zero_page()));
        let mut many = few.clone();
        for _ in 0..128 {
            many.sockets.push(repair(10, 10));
        }
        assert!(
            many.transfer_chunks() > 20 * few.transfer_chunks(),
            "socket-heavy state arrives in many more chunks (Table V, Node)"
        );
    }

    #[test]
    fn encode_pages_shrinks_wire_bytes_for_sparse_epochs() {
        let mut shadow = ShadowStore::new();
        // Epoch 1: first touch — everything ships full (plus zero elision).
        let mut img1 = CheckpointImage::default();
        let mut raw = [0u8; PAGE_SIZE];
        raw[0] = 1;
        img1.pages.push((Pid(1), 0x10, std::rc::Rc::new(raw)));
        img1.pages.push((Pid(1), 0x11, nilicon_sim::zero_page()));
        let raw1 = img1.state_bytes();
        let stats1 = img1.encode_pages(&mut shadow);
        assert!(img1.pages.is_empty(), "pages drained into deltas");
        assert_eq!(img1.page_deltas.len(), 2);
        assert_eq!((stats1.full_pages, stats1.zero_pages), (1, 1));
        assert!(img1.state_bytes() < raw1, "zero elision already pays");

        // Epoch 2: one word changed — ships as a tiny delta.
        let mut img2 = CheckpointImage::default();
        raw[0] = 2;
        img2.pages.push((Pid(1), 0x10, std::rc::Rc::new(raw)));
        let raw2 = img2.state_bytes();
        let stats2 = img2.encode_pages(&mut shadow);
        assert_eq!(stats2.delta_pages, 1);
        assert!(
            img2.state_bytes() < raw2 / 10,
            "sparse epoch: encoded ({}) ≪ raw ({raw2})",
            img2.state_bytes()
        );
        assert_eq!(img2.stats.delta, Some(stats2));
        assert_eq!(img2.transfer_chunks(), 1 + 8, "deltas still count as pages");
    }

    #[test]
    fn metadata_record_count() {
        let mut img = CheckpointImage::default();
        img.processes.push(ProcessImage {
            pid: Pid(1),
            ppid: Pid(0),
            mm: AsId(1),
            exe: "/bin/x".into(),
            threads: vec![Thread::new(nilicon_sim::ids::Tid(1))],
            fds: vec![],
            vmas: vec![],
        });
        img.listeners.push(80);
        assert_eq!(img.metadata_records(), 3);
    }
}
