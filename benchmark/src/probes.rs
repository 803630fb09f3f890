//! Direct-call probes: host time of one layer's public function, called
//! outside the epoch loop at the shape the workload just measured (its mean
//! dirty pages per epoch, footprint, write mix and socket count).
//!
//! A probe runs only for a layer the workload exercises, so the figures of
//! a bypassed layer (COW and delta on the sync workloads, the shard codec
//! anywhere but `kn_repair`) read 0 there.

use crate::gen::Rng;
use crate::run::Layer;
use nilicon::backup::BackupAgent;
use nilicon_container::{Container, ContainerRuntime, ContainerSpec, MemLayout};
use nilicon_criu::delta::{DeltaStats, ShadowStore};
use nilicon_criu::{
    decode_image, dump_container, encode_image, full_dump, restore_container, CheckpointImage,
    DumpConfig, PageKey, PageStore, RadixTreeStore, RestoreConfig, ShardCodec,
};
use nilicon_sim::block::BlockDevice;
use nilicon_sim::ids::{Endpoint, Pid};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::mem::TrackingMode;
use nilicon_sim::net::{InputMode, NetStack, TcpState};
use nilicon_sim::proc::FreezeStrategy;
use nilicon_sim::{CostModel, PageBuf, SimResult, PAGE_SIZE};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Repetitions of each probe; the median is reported.
const ROUNDS: usize = 5;

/// The measured shape a workload hands to its probes.
#[derive(Debug, Clone, Default)]
pub struct Shape {
    /// Mean dirty pages per timed epoch.
    pub dirty_pages: u64,
    /// Resident heap pages of the container.
    pub footprint_pages: u64,
    /// Share of dirty pages rewritten whole (the rest get a sparse write).
    pub whole_page_share: f64,
    /// Bytes of a sparse write.
    pub sparse_bytes: usize,
    /// Established client sockets dumped with each checkpoint.
    pub sockets: u64,
    /// COW and delta are on (the `*_staged` workloads).
    pub staged: bool,
    /// The workload fails over (restore and image-file probes apply).
    pub failover: bool,
    /// `(k, n)` when the workload stripes state over a placement.
    pub shard: Option<(u32, u32)>,
}

fn median_ns(mut f: impl FnMut() -> SimResult<u64>) -> SimResult<f64> {
    let mut v = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        v.push(f()? as f64);
    }
    Ok(crate::stats::median(&v).unwrap_or(0.0))
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A container with `footprint` resident heap pages under soft-dirty
/// tracking, and the draws that dirty it in the workload's mix.
struct Guest {
    k: Kernel,
    cont: Container,
    pid: Pid,
    rng: Rng,
    dirty: u64,
    footprint: u64,
    whole_share_256: u64,
    sparse: Vec<u8>,
    page: Vec<u8>,
}

impl Guest {
    fn new(shape: &Shape) -> SimResult<Self> {
        let mut k = Kernel::default();
        let mut spec = ContainerSpec::server("probe", 10, 80);
        spec.heap_pages = shape.footprint_pages + 64;
        let cont = ContainerRuntime::create(&mut k, &spec)?;
        let pid = cont.init_pid();
        for p in 0..shape.footprint_pages {
            k.mem_write(pid, MemLayout::heap_page(p), &[p as u8 | 1; 64])?;
        }
        k.mm_mut(pid)?.set_tracking(TrackingMode::SoftDirty);
        k.clear_refs(pid)?;
        k.meter.take();
        Ok(Guest {
            k,
            cont,
            pid,
            rng: Rng::new(0x5EED, 0x6000),
            dirty: shape.dirty_pages.clamp(1, shape.footprint_pages.max(1)),
            footprint: shape.footprint_pages.max(1),
            whole_share_256: (shape.whole_page_share * 256.0) as u64,
            sparse: vec![0xA5; shape.sparse_bytes.clamp(1, PAGE_SIZE)],
            page: vec![0x5A; PAGE_SIZE],
        })
    }

    /// Dirty `self.dirty` randomly chosen pages in the workload's mix;
    /// returns the host ns the writes took.
    fn dirty_epoch(&mut self) -> SimResult<u64> {
        let stamp = self.rng.next_u64() as u8 | 1;
        self.page.fill(stamp);
        self.sparse.fill(stamp);
        let t = Instant::now();
        for _ in 0..self.dirty {
            let r = self.rng.next_u64();
            let addr = MemLayout::heap_page((r >> 16) % self.footprint);
            let data = if r & 0xFF < self.whole_share_256 {
                &self.page
            } else {
                &self.sparse
            };
            self.k.mem_write(self.pid, addr, data)?;
        }
        Ok(ns(t))
    }
}

/// Page contents in the workload's mix: a base page and a rewrite of it.
fn page_pair(rng: &mut Rng, shape: &Shape) -> (PageBuf, PageBuf) {
    let mut base = [0u8; PAGE_SIZE];
    for chunk in base.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    let mut next = base;
    let whole = (rng.next_u64() & 0xFF) < (shape.whole_page_share * 256.0) as u64;
    let span = if whole {
        0..PAGE_SIZE
    } else {
        let len = shape.sparse_bytes.clamp(1, PAGE_SIZE);
        let off = rng.below((PAGE_SIZE - len + 1) as u64) as usize;
        off..off + len
    };
    for b in &mut next[span] {
        *b = b.wrapping_add(0x3D) | 1;
    }
    (Rc::new(base), Rc::new(next))
}

fn key(vpn: u64) -> PageKey {
    PageKey { pid: Pid(1), vpn }
}

fn probe_mem(shape: &Shape, out: &mut Layer) -> SimResult<()> {
    let mut g = Guest::new(shape)?;
    let dirty = g.dirty as f64;
    out.insert(
        "sim_mem.write_host_ns_per_page",
        median_ns(|| g.dirty_epoch())? / dirty,
    );
    let footprint = g.footprint as f64;
    out.insert(
        "sim_mem.scan_host_ns_per_page",
        median_ns(|| {
            g.dirty_epoch()?;
            let t = Instant::now();
            black_box(g.k.pagemap_dirty(g.pid)?.len());
            black_box(g.k.clear_refs(g.pid)?);
            Ok(ns(t))
        })? / footprint,
    );

    // Dump of a frozen container holding one epoch's dirty set.
    g.k.freeze_cgroup(g.cont.cgroup, FreezeStrategy::BusyPoll)?;
    let mut epoch = 0;
    out.insert(
        "criu_dump.host_ns_per_page",
        median_ns(|| {
            g.dirty_epoch()?;
            epoch += 1;
            let t = Instant::now();
            let img = dump_container(&mut g.k, &g.cont, &DumpConfig::nilicon(), None, epoch)?;
            black_box(img.pages.len());
            Ok(ns(t))
        })? / dirty,
    );
    g.k.thaw_cgroup(g.cont.cgroup)?;

    let (mut protect, mut drain) = (0.0, 0.0);
    if shape.staged {
        protect = median_ns(|| {
            g.dirty_epoch()?;
            let vpns = g.k.pagemap_dirty(g.pid)?;
            g.k.clear_refs(g.pid)?;
            let t = Instant::now();
            g.k.cow_protect_pages(g.pid, &vpns)?;
            let spent = ns(t);
            while !g.k.cow_drain_pages(g.pid, 512)?.is_empty() {}
            Ok(spent / vpns.len().max(1) as u64)
        })?;
        drain = median_ns(|| {
            g.dirty_epoch()?;
            let vpns = g.k.pagemap_dirty(g.pid)?;
            g.k.clear_refs(g.pid)?;
            g.k.cow_protect_pages(g.pid, &vpns)?;
            let t = Instant::now();
            // 64-page chunks, as the engine's background copier drains.
            while !g.k.cow_drain_pages(g.pid, 64)?.is_empty() {}
            Ok(ns(t) / vpns.len().max(1) as u64)
        })?;
    }
    out.insert("sim_mem.cow_protect_host_ns_per_page", protect);
    out.insert("sim_mem.cow_drain_host_ns_per_page", drain);
    Ok(())
}

fn probe_delta(shape: &Shape, out: &mut Layer) {
    let (mut encode, mut apply) = (0.0, 0.0);
    if shape.staged {
        let n = shape.dirty_pages.max(1);
        let mut rng = Rng::new(0x5EED, 0x6001);
        let pairs: Vec<(PageBuf, PageBuf)> = (0..n).map(|_| page_pair(&mut rng, shape)).collect();
        let mut enc_ns = Vec::new();
        let mut app_ns = Vec::new();
        for _ in 0..ROUNDS {
            let mut shadow = ShadowStore::new();
            let mut store = RadixTreeStore::new();
            let mut stats = DeltaStats::default();
            for (vpn, (base, _)) in pairs.iter().enumerate() {
                shadow.encode(key(vpn as u64), base, &mut stats);
                store.insert(key(vpn as u64), base.clone());
            }
            let t = Instant::now();
            let encs: Vec<_> = pairs
                .iter()
                .enumerate()
                .map(|(vpn, (_, next))| shadow.encode(key(vpn as u64), next, &mut stats))
                .collect();
            enc_ns.push(ns(t) as f64 / n as f64);
            let t = Instant::now();
            for (vpn, e) in encs.iter().enumerate() {
                black_box(store.apply_delta(key(vpn as u64), e));
            }
            app_ns.push(ns(t) as f64 / n as f64);
        }
        encode = crate::stats::median(&enc_ns).unwrap_or(0.0);
        apply = crate::stats::median(&app_ns).unwrap_or(0.0);
    }
    out.insert("criu_delta.encode_host_ns_per_page", encode);
    out.insert("criu_delta.apply_host_ns_per_page", apply);
}

/// An incremental image of `pages` heap pages for epoch `epoch`.
fn page_image(epoch: u64, pages: impl Iterator<Item = (u64, PageBuf)>) -> CheckpointImage {
    CheckpointImage {
        epoch,
        name: "probe".into(),
        pages: pages.map(|(vpn, p)| (Pid(1), vpn, p)).collect(),
        ..Default::default()
    }
}

fn probe_backup(shape: &Shape, out: &mut Layer) -> SimResult<()> {
    let n = shape.dirty_pages.max(1);
    let mut rng = Rng::new(0x5EED, 0x6002);
    let mut agent = BackupAgent::new(CostModel::default(), true);
    let mut disk = BlockDevice::default();
    // Initial full sync: the store holds the whole footprint.
    let blank: PageBuf = Rc::new([1u8; PAGE_SIZE]);
    agent.ingest(page_image(
        1,
        (0..shape.footprint_pages).map(|vpn| (vpn, blank.clone())),
    ));
    agent.commit(1, &mut disk)?;
    let mut epoch = 1;
    let mut ingest_ns = Vec::new();
    let mut commit_ns = Vec::new();
    for _ in 0..ROUNDS {
        epoch += 1;
        let pages: Vec<(u64, PageBuf)> = (0..n)
            .map(|_| {
                (
                    rng.below(shape.footprint_pages.max(1)),
                    page_pair(&mut rng, shape).1,
                )
            })
            .collect();
        let img = page_image(epoch, pages.into_iter());
        let t = Instant::now();
        black_box(agent.ingest(img));
        ingest_ns.push(ns(t) as f64 / n as f64);
        let t = Instant::now();
        black_box(agent.commit(epoch, &mut disk)?);
        commit_ns.push(ns(t) as f64 / n as f64);
    }
    out.insert(
        "core_backup.ingest_host_ns_per_page",
        crate::stats::median(&ingest_ns).unwrap_or(0.0),
    );
    out.insert(
        "criu_pagestore.commit_host_ns_per_page",
        crate::stats::median(&commit_ns).unwrap_or(0.0),
    );
    Ok(())
}

fn established(stack: &mut NetStack, port: u16) -> SimResult<nilicon_sim::ids::SockId> {
    let id = stack.socket();
    let s = stack.sock_mut(id)?;
    s.state = TcpState::Established;
    s.local = Endpoint::new(1, 80);
    s.remote = Some(Endpoint::new(2, port));
    Ok(id)
}

fn probe_net(shape: &Shape, out: &mut Layer) -> SimResult<()> {
    let (mut per_kb, mut per_sock) = (0.0, 0.0);
    if shape.sockets > 0 {
        let mut stack = NetStack::new(1, 1_000_000_000, InputMode::Buffer);
        let sid = established(&mut stack, 4000)?;
        let payload = vec![7u8; 1024];
        per_kb = median_ns(|| {
            let t = Instant::now();
            for _ in 0..256 {
                stack.send(sid, &payload)?;
                stack.take_ready();
                // Self-deliver so the receive path runs too.
                stack
                    .sock_mut(sid)?
                    .read_queue
                    .extend(payload.iter().copied());
                black_box(stack.recv(sid, 1024)?.len());
            }
            Ok(ns(t) / 256)
        })?;

        let mut stack = NetStack::new(1, 1_000_000_000, InputMode::Buffer);
        for i in 0..shape.sockets {
            let id = established(&mut stack, 40_000 + i as u16)?;
            stack
                .sock_mut(id)?
                .read_queue
                .extend(std::iter::repeat_n(1u8, 256));
        }
        per_sock = median_ns(|| {
            let t = Instant::now();
            black_box(stack.checkpoint_sockets().1.len());
            Ok(ns(t))
        })? / shape.sockets as f64;
    }
    out.insert("sim_net.send_recv_host_ns_per_kb", per_kb);
    out.insert("sim_net.sock_ckpt_host_ns_per_sock", per_sock);
    Ok(())
}

fn probe_shard(shape: &Shape, out: &mut Layer) -> SimResult<()> {
    let (mut encode, mut decode) = (0.0, 0.0);
    if let Some((k, n)) = shape.shard {
        let pages = shape.dirty_pages.max(1);
        let mut codec = ShardCodec::new(k, n)?;
        let mut rng = Rng::new(0x5EED, 0x6003);
        let page = page_pair(&mut rng, shape).1;
        encode = median_ns(|| {
            let t = Instant::now();
            for _ in 0..pages {
                black_box(codec.encode(&page).len());
            }
            Ok(ns(t) / pages)
        })?;
        // Decode from the last k fragments, so that parity is involved.
        let frags: Vec<Vec<u8>> = codec.encode(&page).to_vec();
        let picks: Vec<(usize, &[u8])> = ((n - k) as usize..n as usize)
            .map(|i| (i, frags[i].as_slice()))
            .collect();
        let mut back = [0u8; PAGE_SIZE];
        decode = median_ns(|| {
            let t = Instant::now();
            for _ in 0..pages {
                codec.decode(&picks, &mut back)?;
            }
            Ok(ns(t) / pages)
        })?;
        if back != *page {
            return Err(nilicon_sim::SimError::Invalid(
                "shard probe: decode did not reproduce the page".into(),
            ));
        }
    }
    out.insert("criu_shard.encode_host_ns_per_page", encode);
    out.insert("criu_shard.decode_host_ns_per_page", decode);
    Ok(())
}

fn probe_restore(shape: &Shape, out: &mut Layer) -> SimResult<()> {
    let (mut restore_ms, mut roundtrip) = (0.0, 0.0);
    if shape.failover {
        let mut g = Guest::new(shape)?;
        let img = full_dump(&mut g.k, &g.cont, &DumpConfig::nilicon())?;
        let pages = img.pages.len().max(1) as u64;
        restore_ms = median_ns(|| {
            let mut backup = Kernel::default();
            let t = Instant::now();
            let r = restore_container(&mut backup, &img, &RestoreConfig::default())?;
            black_box(r.restore_time);
            Ok(ns(t))
        })? / 1e6;
        roundtrip = median_ns(|| {
            let t = Instant::now();
            let bytes = encode_image(&img);
            black_box(decode_image(&bytes)?.pages.len());
            Ok(ns(t) / pages)
        })?;
    }
    out.insert("criu_restore.host_ms", restore_ms);
    out.insert("criu_imgfile.roundtrip_host_ns_per_page", roundtrip);
    Ok(())
}

/// Run every probe at `shape`, writing one figure per probe into `out`.
pub fn run(shape: &Shape, out: &mut Layer) -> SimResult<()> {
    probe_mem(shape, out)?;
    probe_delta(shape, out);
    probe_backup(shape, out)?;
    probe_net(shape, out)?;
    probe_shard(shape, out)?;
    probe_restore(shape, out)
}
