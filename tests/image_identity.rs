//! Image identity: the committed image, and the state a failover restores,
//! are byte-identical whichever path produced them (NiLiCon §VII-A).
//!
//! One rig drives either engine layout, the paper's mirror or the k-of-n
//! coded placement, through a write script, checkpoint and commit, and a
//! failover. Each suite varies one path against its reference: COW changes
//! *when* pages are copied, delta transfer the wire format (every delta
//! against the backup's committed store, patched in place), placement
//! *where* committed state lives, the staged pipeline the order of work
//! (through stage crashes and backpressure), and replay how a failover
//! recovers the tail. `mod written_lines` checks the written-line hint below
//! the engine, on the dump and the backup agent directly.

use nilicon::harness::{RunHarness, RunMode, RunResult};
use nilicon::nilicon_engine::{Engine, Layout, Mirror};
use nilicon::placement::Coded;
use nilicon::trace::{RingHandle, Tracer};
use nilicon::{
    replay_tail, CheckpointOutcome, Checkpointer, NiLiConEngine, OptimizationConfig,
    PlacementEngine, ReplicationConfig, TraceEvent, TraceRecord,
};
use nilicon_container::{
    Application, Container, ContainerRuntime, ContainerSpec, GuestCtx, MemLayout, RequestOutcome,
};
use nilicon_criu::{CheckpointImage, RestoredContainer};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::replay::{content_hash, response_digest, ReplayEvent};
use nilicon_sim::{CostModel, PageBuf, SimResult, MILLISECOND, PAGE_SIZE};
use nilicon_workloads::{self as workloads, Scale};
use proptest::prelude::*;

// ----------------------------------------------------------------------
// The rig
// ----------------------------------------------------------------------

/// The guest writes of one epoch, by epoch number.
type Script<'a> = &'a dyn Fn(&mut Kernel, &Container, u64);

/// An engine layout as the rig drives it: its engine built from an option
/// set, and its committed image read back from a set of replicas.
trait Side: Layout + Sized {
    fn build(opts: OptimizationConfig) -> Engine<Self>;
    fn image(e: &mut Engine<Self>, replicas: &[usize]) -> CheckpointImage;
}

impl Side for Mirror {
    fn build(opts: OptimizationConfig) -> NiLiConEngine {
        NiLiConEngine::new(opts, CostModel::default())
    }

    /// The one backup's image, materialized (a mirror has no other replica).
    fn image(e: &mut NiLiConEngine, _: &[usize]) -> CheckpointImage {
        e.agent.materialize().unwrap()
    }
}

impl Side for Coded {
    fn build(opts: OptimizationConfig) -> PlacementEngine {
        PlacementEngine::new(opts, CostModel::default()).unwrap()
    }

    fn image(e: &mut PlacementEngine, replicas: &[usize]) -> CheckpointImage {
        e.reconstruct_committed(replicas).unwrap()
    }
}

/// The paper's option set with `tweak` applied.
fn opts(tweak: impl FnOnce(&mut OptimizationConfig)) -> OptimizationConfig {
    let mut opts = OptimizationConfig::nilicon();
    tweak(&mut opts);
    opts
}

/// A redis-like server container of `processes` processes.
fn redis(processes: usize) -> ContainerSpec {
    let mut spec = ContainerSpec::server("redis", 10, 6379);
    spec.processes = processes;
    spec
}

/// A primary and a backup kernel, a container on the primary, and the engine
/// replicating it.
struct Rig<L: Side> {
    p: Kernel,
    b: Kernel,
    c: Container,
    e: Engine<L>,
    /// Grant the pipeline one execution phase of overlap before each
    /// checkpoint, as the harness does; without it every epoch's backlog
    /// surfaces as backpressure.
    advance: bool,
    tracer: Tracer,
    /// State bytes of the committed epochs.
    wire: u64,
}

impl<L: Side> Rig<L> {
    fn new(opts: OptimizationConfig, spec: &ContainerSpec) -> Self {
        let mut p = Kernel::default();
        let c = ContainerRuntime::create(&mut p, spec).unwrap();
        let mut e = L::build(opts);
        e.prepare(&mut p, &c).unwrap();
        let (b, tracer) = (Kernel::default(), Tracer::disabled());
        Rig { p, b, c, e, advance: false, tracer, wire: 0 }
    }

    /// Record every later epoch in memory, each reconciled against its
    /// outcome.
    fn traced(&mut self) -> RingHandle {
        let (tracer, ring) = Tracer::in_memory(4096);
        self.e.set_tracer(tracer.clone());
        self.tracer = tracer;
        ring
    }

    /// Run `script` for `epoch` and checkpoint it.
    fn checkpoint(&mut self, script: Script, epoch: u64) -> CheckpointOutcome {
        script(&mut self.p, &self.c, epoch);
        if self.advance {
            self.e.pipeline_advance(30 * MILLISECOND);
        }
        self.tracer.begin_epoch(epoch, 0);
        let o = self.e.checkpoint(&mut self.p, &mut self.b, &self.c, epoch).unwrap();
        self.tracer.reconcile(epoch, o.stop_time, o.ack_delay, 0).unwrap();
        o
    }

    fn commit(&mut self, epoch: u64) {
        self.e.commit(&mut self.b, epoch).unwrap();
    }

    /// One committed epoch of `script`.
    fn epoch(&mut self, script: Script, epoch: u64) -> CheckpointOutcome {
        let o = self.checkpoint(script, epoch);
        self.commit(epoch);
        self.wire += o.state_bytes;
        o
    }

    /// Epochs `1..=epochs` of `script`, each committed.
    fn run(&mut self, script: Script, epochs: u64) -> &mut Self {
        for epoch in 1..=epochs {
            self.epoch(script, epoch);
        }
        self
    }

    /// The committed image, read from `replicas`.
    fn image(&mut self, replicas: &[usize]) -> CheckpointImage {
        L::image(&mut self.e, replicas)
    }

    /// Fail over to the backup: the container restored there.
    fn failover(&mut self) -> RestoredContainer {
        let (restored, _report) = self.e.failover(&mut self.b).unwrap();
        restored.finish(&mut self.b).unwrap();
        restored
    }

    /// Fail over: the restored heap.
    fn restored_heap(&mut self) -> Vec<u8> {
        let restored = self.failover();
        heap(&mut self.b, &restored.container)
    }
}

/// The first 64 heap pages of every worker that has them, back to back.
fn heap(k: &mut Kernel, c: &Container) -> Vec<u8> {
    let mut out = Vec::new();
    for &pid in &c.workers {
        for page in 0..64u64 {
            let mut buf = vec![0u8; PAGE_SIZE];
            if k.mem_read(pid, MemLayout::heap_page(page), &mut buf).is_ok() {
                out.extend_from_slice(&buf);
            }
        }
    }
    out
}

/// Whether `recs` holds an event of the variant named `name`.
fn has(recs: &[TraceRecord], name: &str) -> bool {
    recs.iter().any(|r| r.kind.name() == name)
}

/// Whether `recs` holds a restart of the ingest stage with `at` in flight.
fn ingest_restart(recs: &[TraceRecord], at: u64) -> bool {
    recs.iter().any(|r| match &r.kind {
        TraceEvent::StageRestart { stage, chunk } => stage == "ingest" && *chunk == at,
        _ => false,
    })
}

fn assert_same_image(a: &CheckpointImage, b: &CheckpointImage, what: &str) {
    assert_eq!(a.pages.len(), b.pages.len(), "{what}: page counts");
    for (x, y) in a.pages.iter().zip(b.pages.iter()) {
        assert_eq!((x.0, x.1), (y.0, y.1), "{what}: page keys");
        assert_eq!(x.2, y.2, "{what}: page {:?}/{:#x} bytes", x.0, x.1);
    }
}

/// Every page class each epoch: sparse, first touch, dense, zero.
fn mixed_script(k: &mut Kernel, c: &Container, epoch: u64) {
    let pid = c.init_pid();
    // Sparse churn: one counter word on a hot page, every epoch.
    k.mem_write(pid, MemLayout::heap(8), &epoch.to_le_bytes()).unwrap();
    // Growth: one brand-new page per epoch (ships full once).
    k.mem_write(pid, MemLayout::heap_page(10 + epoch), &[epoch as u8; 128]).unwrap();
    // Dense churn: rewrite a whole buffer page.
    k.mem_write(pid, MemLayout::heap_page(2), &vec![epoch as u8 | 1; PAGE_SIZE]).unwrap();
    // Scrub: page 3 alternates between data and all-zeros.
    let fill = if epoch.is_multiple_of(2) { 0u8 } else { 0xAB };
    k.mem_write(pid, MemLayout::heap_page(3), &vec![fill; PAGE_SIZE]).unwrap();
}

/// One epoch's worth of guest writes: (heap page, byte value).
type EpochWrites = Vec<(u64, u8)>;

/// Epoch `e` writes `history[e - 1]`.
fn history(history: &[EpochWrites]) -> impl Fn(&mut Kernel, &Container, u64) + '_ {
    |p, c, epoch| {
        for &(page, val) in &history[epoch as usize - 1] {
            p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[val]).unwrap();
        }
    }
}

/// `epochs` committed epochs of `script` on a three-process server, one more
/// checkpointed and never acked, then a failover: the committed epochs' wire
/// bytes and the restored heap. With `cow_fail_after`, the tail epoch's COW
/// drain dies after that many chunks (no effect on eager runs), and the
/// container keeps writing pages the dead copier left protected.
fn fail_over_tail(
    opts: OptimizationConfig,
    script: Script,
    epochs: u64,
    cow_fail_after: Option<u64>,
) -> (u64, Vec<u8>) {
    let mut rig = Rig::<Mirror>::new(opts, &redis(3));
    rig.run(script, epochs);
    rig.e.cow_fail_after_chunks = cow_fail_after;
    rig.checkpoint(script, epochs + 1);
    if cow_fail_after.is_some() {
        // The eager copy-before-write faults must not corrupt what the
        // backup holds.
        for page in 0..8u64 {
            let pid = rig.c.init_pid();
            rig.p.mem_write(pid, MemLayout::heap_page(page), &[0xEE; 32]).unwrap();
        }
    }
    (rig.wire, rig.restored_heap())
}

/// [`fail_over_tail`] on the paper's eager full-page path and on `path`,
/// which must restore the same, non-empty heap (`what` if it does not): the
/// two runs' wire bytes. `cow_fail_after` applies to `path` only.
fn eager_and(
    path: OptimizationConfig,
    script: Script,
    epochs: u64,
    cow_fail_after: Option<u64>,
    what: &str,
) -> (u64, u64) {
    let (eager_bytes, eager_mem) = fail_over_tail(opts(|_| ()), script, epochs, None);
    let (bytes, mem) = fail_over_tail(path, script, epochs, cow_fail_after);
    assert!(!eager_mem.is_empty(), "snapshot captured restored memory");
    assert_eq!(eager_mem, mem, "{what}");
    (eager_bytes, bytes)
}

// ----------------------------------------------------------------------
// Copy-on-write
// ----------------------------------------------------------------------

#[test]
fn cow_committed_state_is_byte_identical_across_ten_epochs_and_failover() {
    let cow = opts(|o| o.cow_checkpoint = true);
    let what = "restored memory must be bit-for-bit identical across copy modes";
    let (eager_bytes, cow_bytes) = eager_and(cow, &mixed_script, 10, None, what);
    assert_eq!(eager_bytes, cow_bytes, "deferring the copy must not change what crosses the wire");
}

#[test]
fn cow_composes_with_delta() {
    let staged = opts(|o| (o.cow_checkpoint, o.delta_transfer) = (true, true));
    let what = "cow + delta diverged from the eager path";
    let (eager_bytes, cow_bytes) = eager_and(staged, &mixed_script, 12, None, what);
    assert!(
        cow_bytes < eager_bytes,
        "drain-time delta encoding still compresses: {cow_bytes} vs {eager_bytes}"
    );
}

#[test]
fn mid_copy_failover_falls_back_to_last_fully_assembled_epoch() {
    // The eager run discards its uncommitted tail at failover; the COW run
    // dies after a single streamed chunk of the tail epoch (pages 0..8 are
    // then overwritten by racing container writes). Both must restore the
    // same state: epoch 10's.
    let cow = opts(|o| o.cow_checkpoint = true);
    let what = "a mid-copy failure must fall back to the last fully-assembled epoch";
    eager_and(cow, &mixed_script, 10, Some(1), what);
}

// ----------------------------------------------------------------------
// Delta transfer
// ----------------------------------------------------------------------

#[test]
fn delta_committed_state_is_byte_identical_across_ten_epochs_and_failover() {
    let delta = opts(|o| o.delta_transfer = true);
    let what = "restored memory must be bit-for-bit identical across wire formats";
    let (full_bytes, delta_bytes) = eager_and(delta, &mixed_script, 10, None, what);
    assert!(
        delta_bytes < full_bytes,
        "delta path ships fewer wire bytes: {delta_bytes} vs {full_bytes}"
    );
}

#[test]
fn delta_equivalence_holds_under_randomized_multi_pid_writes() {
    // A deterministic LCG scatters writes of varied sizes over all pids and
    // the first 32 heap pages — no page-class structure, just noise.
    let script = |k: &mut Kernel, c: &Container, epoch: u64| {
        let mut state = epoch.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let pids = &c.workers;
        for _ in 0..24 {
            let pid = pids[next() as usize % pids.len()];
            let page = next() % 32;
            let off = next() % (PAGE_SIZE as u64 - 64);
            let len = 1 + next() as usize % 64;
            let byte = next() as u8;
            k.mem_write(pid, MemLayout::heap_page(page) + off, &vec![byte; len]).unwrap();
        }
    };

    let delta = opts(|o| o.delta_transfer = true);
    let what = "random write pattern diverged";
    let (full_bytes, delta_bytes) = eager_and(delta, &script, 12, None, what);
    assert!(delta_bytes < full_bytes, "re-dirtied pages compress: {delta_bytes} vs {full_bytes}");
}

#[test]
fn in_place_patching_never_writes_a_buffer_someone_else_holds() {
    // Both backup page stores (`optimize_criu` picks radix tree or linked
    // list), staged path against the eager full-page path.
    for radix in [true, false] {
        let full = opts(|o| o.optimize_criu = radix);
        let (_, full_mem) = fail_over_tail(full, &mixed_script, 14, None);

        // Every third epoch the committed image is materialized and its
        // buffers kept, with the bytes they held, and a copy of it is
        // ingested as a far-future epoch and discarded again, as a failover
        // would. The tail epoch's COW drain dies after one chunk, leaving a
        // half-assembled epoch to discard.
        let staged =
            opts(|o| (o.optimize_criu, o.delta_transfer, o.cow_checkpoint) = (radix, true, true));
        let mut rig = Rig::<Mirror>::new(staged, &redis(3));
        let mut held: Vec<(PageBuf, Box<[u8; PAGE_SIZE]>)> = Vec::new();
        for epoch in 1..=14 {
            rig.epoch(&mixed_script, epoch);
            if epoch.is_multiple_of(3) {
                let mut img = rig.image(&[0]);
                held.extend(img.pages.iter().map(|(_, _, p)| (p.clone(), Box::new(**p))));
                img.epoch = u64::MAX;
                rig.e.agent.ingest(img);
                assert_eq!(rig.e.agent.discard_uncommitted().epochs, 1);
            }
        }
        rig.e.cow_fail_after_chunks = Some(1);
        rig.checkpoint(&mixed_script, 15);
        let staged_mem = rig.restored_heap();

        assert!(!full_mem.is_empty());
        assert_eq!(
            full_mem, staged_mem,
            "radix={radix}: mid-copy failover restores the last complete epoch"
        );
        // Images materialized at epochs 3..12 were kept through up to
        // eleven further epochs of in-place commits.
        assert!(held.len() >= 4 * 4, "holders were taken: {}", held.len());
        for (i, (buf, original)) in held.iter().enumerate() {
            assert!(**buf == **original, "radix={radix}: held buffer {i} was written through");
        }
    }
}

/// A mapping to `munmap` and `mmap` again at the same address.
const ARENA: u64 = 0x6000_0000_0000;

/// Every page class, plus the three ways a page can lose its committed copy
/// or keep it across an unmap: a `brk` shrink at epoch 3 (its commit prunes
/// the top of the heap) undone at epoch 5 (the top page comes back with no
/// base), and the arena unmapped and mapped again within epoch 4 (same
/// VMAs: nothing is pruned, the written page is a delta against the old
/// bytes, the unwritten one reads as zeros).
fn remap_script(k: &mut Kernel, c: &Container, epoch: u64) {
    let pid = c.init_pid();
    let top = c.spec.heap_pages - 1;
    let mm = k.mm_mut(pid).unwrap();
    match epoch {
        1 => mm.mmap_anon(ARENA, 2 * PAGE_SIZE as u64).unwrap(),
        3 => drop(mm.brk(MemLayout::heap_page(top / 2)).unwrap()),
        4 => {
            mm.munmap(ARENA).unwrap();
            mm.mmap_anon(ARENA, 2 * PAGE_SIZE as u64).unwrap();
            k.mem_write(pid, ARENA + 8, b"back").unwrap();
        }
        5 => drop(mm.brk(MemLayout::heap_page(top + 1)).unwrap()),
        _ => {}
    }
    if epoch == 1 {
        for addr in [ARENA, ARENA + PAGE_SIZE as u64, MemLayout::heap_page(top)] {
            k.mem_write(pid, addr, &[0x5A; 256]).unwrap();
        }
    }
    if epoch >= 5 {
        k.mem_write(pid, MemLayout::heap_page(top) + epoch, b"top").unwrap();
    }
    mixed_script(k, c, epoch);
}

/// The engine — delta alone on the stop phase, off the COW drain, and
/// through the staged pipeline — beside a [`ShadowStore`] receiver model fed
/// the pages each epoch shipped, pruned where the commit pruned. For every
/// epoch each page's class and encoded bytes are the model's, and the
/// committed image is the model's; after a failover the restored memory is.
///
/// [`ShadowStore`]: nilicon_criu::ShadowStore
#[test]
fn the_delta_base_is_the_committed_image() {
    use nilicon_criu::{unmapped_since, DeltaStats, PageKey, ShadowStore};
    use nilicon_sim::mem::Vma;
    use std::collections::BTreeMap;

    for (cow, pipeline) in [(false, false), (true, false), (false, true)] {
        let name = format!("delta cow={cow} pipeline={pipeline}");
        let delta =
            opts(|o| (o.delta_transfer, o.cow_checkpoint, o.pipeline) = (true, cow, pipeline));
        let mut rig = Rig::<Mirror>::new(delta, &redis(1));
        let mut model = ShadowStore::new();
        let mut stats = DeltaStats::default();
        let mut mapped: Vec<(nilicon_sim::ids::Pid, Vec<Vma>)> = Vec::new();
        let mut classes = BTreeMap::<&str, u64>::new();
        let mut keys = Vec::new();
        for epoch in 1..=7u64 {
            rig.checkpoint(&remap_script, epoch);
            let encs = rig.e.agent.pending_encodings(epoch).unwrap().to_vec();
            rig.commit(epoch);
            let img = rig.image(&[0]);
            let was = mapped.iter().map(|(pid, v)| (*pid, &v[..]));
            for (pid, vpns) in unmapped_since(was, &img.processes) {
                model.remove_range(pid, vpns);
            }
            mapped = img.processes.iter().map(|p| (p.pid, p.vmas.clone())).collect();
            let committed: BTreeMap<_, _> =
                img.pages.iter().map(|(pid, vpn, page)| ((*pid, *vpn), page)).collect();
            for (pid, vpn, enc) in &encs {
                // A copy, so the model patches buffers of its own.
                let page = std::rc::Rc::new(**committed[&(*pid, *vpn)]);
                let want = model.encode(PageKey { pid: *pid, vpn: *vpn }, &page, &mut stats);
                assert_eq!(
                    (enc.class(), enc.encoded_bytes()),
                    (want.class(), want.encoded_bytes()),
                    "{name}: epoch {epoch}, page {pid:?}/{vpn:#x}"
                );
                *classes.entry(enc.class()).or_default() += 1;
            }
            assert_eq!(model.len(), img.pages.len(), "{name}: epoch {epoch}");
            keys = img.pages.iter().map(|&(pid, vpn, _)| (pid, vpn)).collect();
            for (pid, vpn, page) in &img.pages {
                let key = PageKey { pid: *pid, vpn: *vpn };
                assert_eq!(model.get(key), Some(page), "{name}: epoch {epoch}, {vpn:#x}");
            }
        }
        assert_eq!(classes.len(), 3, "{name}: every class shipped: {classes:?}");

        // An epoch that never commits, then the failover.
        rig.checkpoint(&remap_script, 8);
        let restored = rig.failover();
        assert_eq!(restored.skipped_pages, 0);
        for (pid, vpn) in keys {
            let mut page = [0u8; PAGE_SIZE];
            rig.b.mem_read(pid, vpn * PAGE_SIZE as u64, &mut page).unwrap();
            let want = model.get(PageKey { pid, vpn }).unwrap();
            assert!(page == **want, "{name}: restored page {pid:?}/{vpn:#x}");
        }
    }
}

// ----------------------------------------------------------------------
// Placement: any k of n fragment stores
// ----------------------------------------------------------------------

/// Deterministic write script: six page writes per epoch, page index and
/// value derived from (seed, epoch, i).
fn seeded(seed: u64) -> impl Fn(&mut Kernel, &Container, u64) {
    move |p, c, epoch| {
        for i in 0..6 {
            let x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(epoch * 131 + i * 17);
            let page = x % 40;
            let val = (x >> 8) as u8;
            p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[val, val ^ 0x5A]).unwrap();
        }
    }
}

/// `epochs` committed epochs of the seeded script under a (k,n) placement.
fn placement(k: u32, n: u32, seed: u64, epochs: u64) -> Rig<Coded> {
    let mut rig = Rig::<Coded>::new(opts(|o| (o.backups, o.quorum) = (n, k)), &redis(1));
    rig.run(&seeded(seed), epochs);
    rig
}

/// Reference committed image: the same script under the paper's
/// single-backup engine.
fn single_backup(seed: u64, epochs: u64) -> CheckpointImage {
    Rig::<Mirror>::new(opts(|_| ()), &redis(1)).run(&seeded(seed), epochs).image(&[0])
}

/// All k-subsets of 0..n (n ≤ 5 here, so the counts stay tiny).
fn k_subsets(n: u32, k: u32) -> Vec<Vec<usize>> {
    let members = |set: u32| (0..n as usize).filter(|i| set >> i & 1 == 1).collect();
    (0u32..1 << n).filter(|set| set.count_ones() == k).map(members).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any k of the n fragment stores reconstruct the same committed image,
    /// byte-identical to the single-backup reference, across ≥10 epochs.
    #[test]
    fn any_k_subset_matches_single_backup(
        seed in 0u64..1_000_000,
        epochs in 10u64..16,
        placement_index in 0usize..3,
    ) {
        let (k, n) = [(1u32, 2u32), (2, 3), (3, 5)][placement_index];
        let mut rig = placement(k, n, seed, epochs);
        let reference = single_backup(seed, epochs);
        prop_assert!(!reference.pages.is_empty());
        for subset in k_subsets(n, k) {
            let img = rig.image(&subset);
            assert_same_image(&img, &reference, &format!("(k={k},n={n}) subset {subset:?}"));
        }
    }
}

/// Losing n-k replicas (any of them) never loses committed state.
#[test]
fn max_tolerated_loss_still_reconstructs() {
    let mut rig = placement(2, 3, 7, 12);
    let reference = rig.image(&[0, 1]);
    rig.e.fail_replica(0).unwrap();
    assert_same_image(&rig.image(&[1, 2]), &reference, "after replica-0 loss");
}

/// The (1,2) placement is exactly the paper's mirrored warm backup: both
/// replicas hold full page copies.
#[test]
fn mirroring_degenerate_holds_full_copies() {
    let mut rig = placement(1, 2, 3, 10);
    let a = rig.image(&[0]);
    assert_same_image(&a, &rig.image(&[1]), "(1,2) mirrors");
    assert_same_image(&a, &single_backup(3, 10), "(1,2) vs single backup");
}

// ----------------------------------------------------------------------
// Staged pipeline
// ----------------------------------------------------------------------

/// The committed image after `history` under `opts` on a fresh container,
/// with or without overlap credit between epochs.
fn history_image(o: OptimizationConfig, writes: &[EpochWrites], advance: bool) -> CheckpointImage {
    let mut rig = Rig::<Mirror>::new(o, &redis(1));
    rig.advance = advance;
    rig.run(&history(writes), writes.len() as u64).image(&[0])
}

/// Randomized epoch histories: 10–14 epochs, each dirtying 0–40 pages in a
/// 300-page heap window (overlapping pages across epochs exercise the
/// delta encoder's incremental path against the committed store).
fn arb_history() -> impl Strategy<Value = Vec<EpochWrites>> {
    use proptest::collection::vec;
    vec(vec((0u64..300, any::<u8>()), 0..40), 10..15)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `--pipeline` with `--delta` and `--replay` commits byte-identical
    /// images to the synchronous engine, with and without inter-epoch
    /// overlap credit (the latter drives the backpressure path every epoch).
    #[test]
    fn pipelined_delta_replay_images_match_sync(history in arb_history()) {
        let sync = opts(|o| (o.delta_transfer, o.hybrid_replay) = (true, true));
        let piped = OptimizationConfig { pipeline: true, ..sync };

        let base = history_image(sync, &history, true);
        let overlapped = history_image(piped, &history, true);
        assert_same_image(&base, &overlapped, "delta+replay overlapped");
        let stalled = history_image(piped, &history, false);
        assert_same_image(&base, &stalled, "delta+replay backpressured");
    }

    /// `--cow --pipeline`: the COW drain is already a streamed stage, so the
    /// pipeline knob only adds overlap accounting — committed bytes are
    /// untouched.
    #[test]
    fn pipelined_cow_images_match_sync(history in arb_history()) {
        let sync = opts(|o| (o.cow_checkpoint, o.hybrid_replay) = (true, true));
        let piped = OptimizationConfig { pipeline: true, ..sync };

        let base = history_image(sync, &history, true);
        let overlapped = history_image(piped, &history, true);
        assert_same_image(&base, &overlapped, "cow overlapped");
    }
}

/// (2,3) placement: the chunked stripe pipeline stores the same fragments
/// and reconstructs the same image as the whole-epoch synchronous fan-out —
/// including when the first replica's ingest stage crashes mid-chunk and
/// replays (peek-before-commit: no chunk lost, none double-committed).
#[test]
fn placement_pipelined_matches_sync_including_stage_crash() {
    let writes: Vec<EpochWrites> = (1..=10u64)
        .map(|e| (0..e + 4).map(|i| ((i * 7 + e) % 120, (e * 31 + i) as u8)).collect())
        .collect();
    let run = |pipeline: bool, fail_at: Option<u64>| {
        let coded = opts(|o| (o.backups, o.quorum, o.pipeline) = (3, 2, pipeline));
        let mut rig = Rig::<Coded>::new(coded, &redis(1));
        let ring = rig.traced();
        rig.advance = true;
        for epoch in 1..=writes.len() as u64 {
            if fail_at == Some(epoch) {
                rig.e.stage_fail_at_chunk = Some(0);
            }
            rig.epoch(&history(&writes), epoch);
        }
        let stored = rig.e.stored_fragment_bytes();
        (rig.image(&[0, 1]), stored, ring.snapshot())
    };

    let (sync_img, sync_stored, _) = run(false, None);
    let (pipe_img, pipe_stored, _) = run(true, None);
    assert_same_image(&sync_img, &pipe_img, "placement (2,3)");
    assert_eq!(sync_stored, pipe_stored, "identical fragment bytes stored");

    let (crash_img, crash_stored, recs) = run(true, Some(6));
    assert_same_image(&sync_img, &crash_img, "placement stage crash");
    assert_eq!(sync_stored, crash_stored, "replayed chunk not duplicated");
    assert!(ingest_restart(&recs, 0), "stage crash surfaced as a StageRestart mark");
}

/// `--delta --pipeline`.
fn delta_pipeline() -> OptimizationConfig {
    opts(|o| (o.delta_transfer, o.pipeline) = (true, true))
}

/// NiLiCon engine stage crash mid-chunk: the in-flight chunk is re-ingested
/// (peek-before-commit), the committed image is unchanged, and the restart
/// costs real ack time.
#[test]
fn stage_crash_replays_chunk_without_loss_or_duplication() {
    // 150 dirty pages in epoch 2 -> 3 chunks of 64; the crash lands
    // mid-stream.
    let writes = [vec![], (0..150u64).map(|page| (page, page as u8)).collect()];
    let run = |fail: Option<u64>| {
        let mut rig = Rig::<Mirror>::new(delta_pipeline(), &redis(1));
        let ring = rig.traced();
        rig.epoch(&history(&writes), 1);
        rig.advance = true;
        rig.e.stage_fail_at_chunk = fail;
        let o = rig.epoch(&history(&writes), 2);
        assert_eq!(rig.e.stage_fail_at_chunk, None, "injection fires exactly once");
        (rig.image(&[0]), o, ring.snapshot())
    };

    let (clean_img, clean, clean_recs) = run(None);
    let (crash_img, crash, crash_recs) = run(Some(1));
    assert_same_image(&clean_img, &crash_img, "mid-chunk stage crash");
    let (crash_ack, clean_ack) = (crash.ack_delay, clean.ack_delay);
    assert!(crash_ack > clean_ack, "the replayed chunk costs ack time: {crash_ack} vs {clean_ack}");
    assert!(!has(&clean_recs, "StageRestart"), "no restart on the clean run");
    assert!(ingest_restart(&crash_recs, 1), "restart mark names the replayed chunk");
}

/// A primary fault while the pipeline is stalled on backpressure (epoch
/// checkpointed but its ack never drained, so it was never committed) must
/// fail over to the last *committed* epoch — in-flight pipeline state is
/// discarded, not promoted.
#[test]
fn fault_during_backpressure_falls_back_to_committed_epoch() {
    let mut rig = Rig::<Mirror>::new(delta_pipeline(), &redis(1));
    let text = |epoch: u64| if epoch == 1 { b"committed" } else { b"uncommitt" };
    let script = |p: &mut Kernel, c: &Container, epoch: u64| {
        p.mem_write(c.init_pid(), MemLayout::heap(0), text(epoch)).unwrap();
    };
    rig.epoch(&script, 1);

    // Epoch 2 enters the pipeline but the ack stalls (no overlap credit,
    // no commit) — then the primary dies.
    let o = rig.checkpoint(&script, 2);
    assert!(o.ack_delay > 0, "epoch 2 ack is in flight, not delivered");

    let restored = rig.failover();
    let mut buf = [0u8; 9];
    rig.b.mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf).unwrap();
    assert_eq!(&buf, b"committed", "fell back to the last committed epoch");
    assert_eq!(rig.e.committed_epoch(), Some(1));
}

/// Backpressure accounting: with zero overlap credit the previous epoch's
/// ack backlog stalls the next stop phase (a `Backpressure` span tiles into
/// stop_time); a full execution phase of credit drains it.
#[test]
fn backpressure_stalls_stop_phase_and_drains_with_overlap() {
    let mut rig = Rig::<Mirror>::new(opts(|o| o.pipeline = true), &redis(1));
    let ring = rig.traced();
    let writes = [(0..100u64).map(|page| (page, 1)).collect(), vec![(0, 2)], vec![(0, 3)]];
    let o1 = rig.epoch(&history(&writes), 1);

    // No pipeline_advance: epoch 1's entire ack backlog hits epoch 2's stop.
    let o2 = rig.epoch(&history(&writes), 2);
    let stalled = ring.snapshot().iter().find_map(|r| match r.kind {
        TraceEvent::Backpressure { stalled } if r.epoch == 2 => Some(stalled),
        _ => None,
    });
    let stalled = stalled.expect("Backpressure span on the stalled epoch");
    assert_eq!(stalled, o1.ack_delay, "the whole undrained backlog stalls");
    assert!(o2.stop_time > stalled, "stall tiles into stop_time");

    // Epoch 3 gets a full execution phase of overlap: backlog gone.
    rig.advance = true;
    rig.checkpoint(&history(&writes), 3);
    let epoch_3 = ring.snapshot().into_iter().filter(|r| r.epoch == 3).collect::<Vec<_>>();
    assert!(!has(&epoch_3, "Backpressure"), "drained pipeline exerts no backpressure");
}

// ----------------------------------------------------------------------
// Checkpoint + replay (`hybrid_replay`, DESIGN.md §11)
// ----------------------------------------------------------------------

/// Heap pages the replay server touches.
const HEAP_PAGES: u64 = 16;

/// Deterministic hash-chain server: every byte of state lives in the guest
/// heap, so re-executing the same payloads on a restored checkpoint must
/// reproduce the same responses (replay verifies each against the recorded
/// hash) and the same memory.
struct MixServer;

impl Application for MixServer {
    fn name(&self) -> &str {
        "mix"
    }

    fn init(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        ctx.heap_write(0, &0u64.to_le_bytes())
    }

    fn handle_request(&mut self, ctx: &mut GuestCtx<'_>, req: &[u8]) -> SimResult<RequestOutcome> {
        ctx.cpu(40_000);
        let mut buf = [0u8; 8];
        ctx.heap_read(0, &mut buf)?;
        let n = u64::from_le_bytes(buf).wrapping_mul(0x0000_0100_0000_01b3);
        let n = n.wrapping_add(content_hash(req));
        ctx.heap_write(0, &n.to_le_bytes())?;
        // Dirty a payload-dependent page so delta/COW/fragment encoding all
        // have real work to get wrong.
        let page = 1 + n % (HEAP_PAGES - 1);
        ctx.heap_write(page * PAGE_SIZE as u64, &[n as u8; 512])?;
        Ok(RequestOutcome { response: n.to_le_bytes().to_vec() })
    }
}

/// Pseudo-random request payload for `(seed, epoch, i)` — pure, so every
/// engine run sees the identical stream.
fn payload(seed: u64, epoch: u64, i: u64) -> Vec<u8> {
    let x = seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let len = 1 + (x % 24) as usize;
    (0..len).map(|j| (x >> (j % 8)) as u8).collect()
}

/// Everything one record/failover/replay run produced.
struct ReplayRun {
    /// Primary heap right after the last *committed* checkpoint.
    committed: Vec<u8>,
    /// Primary heap after the uncheckpointed tail epochs (the state a
    /// successful replay must reproduce).
    live: Vec<u8>,
    /// Backup heap after failover (+ replay, if the tail survived).
    recovered: Vec<u8>,
    /// Divergence reason, if replay fell back.
    diverged: Option<String>,
    /// Events re-executed by the replay.
    events: u64,
}

/// Record `epochs` committed epochs plus `tail_epochs` sealed-but-never-
/// checkpointed epochs of `reqs` requests each, fail over, replay. With
/// `log_fail_after` the log link dies after that many shipped chunks (one
/// chunk per request here), losing the rest of the tail and its seal.
fn run_replay<L: Side>(
    opts: OptimizationConfig,
    (seed, epochs, reqs, tail_epochs): (u64, u64, u64, u64),
    log_fail_after: Option<u64>,
) -> ReplayRun {
    let mut spec = ContainerSpec::server("mix", 10, 7100);
    spec.heap_pages = HEAP_PAGES;
    let mut rig = Rig::<L>::new(opts, &spec);
    let worker = rig.c.workers[0];
    MixServer.init(&mut GuestCtx::new(&mut rig.p, worker, 0)).unwrap();
    rig.e.log_fail_after_chunks = log_fail_after;

    // The record half, in harness order: ship each request's event as its
    // own chunk while the epoch runs, checkpoint at the boundary, seal,
    // commit (which prunes the logs the checkpoint now covers).
    let ship = |rig: &mut Rig<L>, epoch: u64| {
        for i in 0..reqs {
            let req = payload(seed, epoch, i);
            let at = (epoch - 1) * reqs + i + 1;
            let mut ctx = GuestCtx::new(&mut rig.p, worker, at);
            let outcome = MixServer.handle_request(&mut ctx, &req).unwrap();
            let ev = ReplayEvent::Request {
                pid: worker,
                at,
                payload: req.into(),
                response_hash: response_digest(&outcome.response),
                response_len: outcome.response.len() as u32,
            };
            rig.e.ship_log(&mut rig.p, epoch, &[ev]).unwrap();
        }
    };
    for epoch in 1..=epochs {
        ship(&mut rig, epoch);
        rig.checkpoint(&|_, _, _| (), epoch);
        rig.e.seal_log(epoch).unwrap();
        rig.commit(epoch);
    }
    let committed = heap(&mut rig.p, &rig.c);

    // The tail: sealed logs past the last checkpoint — the primary dies
    // before the next checkpoint ever ships.
    for epoch in epochs + 1..=epochs + tail_epochs {
        ship(&mut rig, epoch);
        rig.e.seal_log(epoch).unwrap();
    }
    let live = heap(&mut rig.p, &rig.c);

    let restored = rig.failover();
    let mut rapp = MixServer;
    let mut ctx = GuestCtx::new(&mut rig.b, restored.container.workers[0], 0);
    rapp.recover(&mut ctx).unwrap();
    let tail = rig.e.take_replay_tail().unwrap();
    let out = replay_tail(&mut rig.b, &restored.container, &mut rapp, &tail).unwrap();
    let recovered = heap(&mut rig.b, &restored.container);

    ReplayRun { committed, live, recovered, diverged: out.diverged, events: out.events }
}

/// [`run_replay`] on both log-carrying engines: the single backup composed
/// with `--delta --cow`, and a `--backups 3 --quorum 2` placement.
fn replay_on_both(run: (u64, u64, u64, u64), log_fail_after: Option<u64>) -> [ReplayRun; 2] {
    let delta_cow =
        opts(|o| (o.hybrid_replay, o.delta_transfer, o.cow_checkpoint) = (true, true, true));
    let coded = opts(|o| (o.hybrid_replay, o.backups, o.quorum) = (true, 3, 2));
    [
        run_replay::<Mirror>(delta_cow, run, log_fail_after),
        run_replay::<Coded>(coded, run, log_fail_after),
    ]
}

proptest! {
    // Each case is two full record/failover/replay runs; keep it moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any request stream, replaying the sealed tail reproduces the live
    /// primary byte-for-byte — output equality is enforced inside
    /// `replay_tail` (every re-executed response must hash to the recorded
    /// value), state equality here — on both log-carrying engines.
    #[test]
    fn replayed_state_is_byte_identical_to_live_execution(
        seed in any::<u64>(),
        epochs in 10u64..13,
        reqs in 1u64..5,
        tail_epochs in 1u64..4,
    ) {
        let [a, b] = replay_on_both((seed, epochs, reqs, tail_epochs), None);
        prop_assert!(a.diverged.is_none(), "delta+cow diverged: {:?}", a.diverged);
        prop_assert_eq!(a.events, tail_epochs * reqs, "whole tail re-executed");
        prop_assert!(!a.live.is_empty());
        prop_assert_eq!(&a.recovered, &a.live, "delta+cow replay != live primary");
        prop_assert!(a.committed != a.live, "the tail must change state");

        prop_assert!(b.diverged.is_none(), "placement diverged: {:?}", b.diverged);
        prop_assert_eq!(&b.recovered, &a.live, "3-of-2 placement replay != live primary");
    }
}

/// Failover mid-log: the link dies one chunk into the tail epoch, so the
/// backup holds an unsealed prefix. The seal is the completeness marker —
/// without it the replay must refuse the whole epoch (`"partial"`) and the
/// failover degrades to the plain NiLiCon last-checkpoint path.
#[test]
fn partial_tail_falls_back_to_the_last_committed_checkpoint() {
    // 10 committed epochs × 3 chunks land; the link dies after the tail's
    // first chunk (chunk 31), losing chunks 32, 33 and the seal.
    for r in replay_on_both((0xFEED, 10, 3, 1), Some(31)) {
        assert_eq!(r.diverged.as_deref(), Some("partial"));
        assert_eq!(r.events, 0, "a partial tail is rejected without executing");
        let why = "fallback must restore exactly the last committed checkpoint";
        assert_eq!(r.recovered, r.committed, "{why}");
    }
}

/// A redis run under `--replay` with a primary fault at 415 ms: its result
/// and its trace. `log_fail_after` kills the log link after that many
/// chunks.
fn replay_harness(log_fail_after: Option<u64>) -> (RunResult, Vec<TraceRecord>) {
    let w = workloads::redis(Scale::small(), 4);
    let mut engine = Mirror::build(opts(|o| o.hybrid_replay = true));
    engine.log_fail_after_chunks = log_fail_after;
    let mode = RunMode::Replicated(Box::new(engine));
    let config = ReplicationConfig::default();
    let mut h = RunHarness::new(w.spec, w.app, w.behavior, mode, config, w.parallelism).unwrap();
    let (tracer, ring) = Tracer::in_memory(8192);
    h.set_tracer(tracer);
    h.inject_fault_at(415 * MILLISECOND);
    h.run_epochs(40).unwrap();
    (h.finish(), ring.snapshot())
}

/// Harness e2e: a primary fault mid-epoch under `--replay`. The truncated
/// fault epoch's log is shipped and sealed up to the fault, the backup
/// replays it, and the service continues with read-your-writes intact — the
/// fault no longer rounds recovery down to the previous checkpoint.
#[test]
fn harness_fault_mid_epoch_replays_the_sealed_tail() {
    let (r, recs) = replay_harness(None);
    assert!(r.recovered, "failover must succeed");
    assert_eq!(r.failovers, 1);
    assert_eq!(r.broken_connections, 0, "no RST may reach a client");
    r.verify.expect("read-your-writes across the replayed failover");

    let replayed = recs.iter().find_map(|rec| match &rec.kind {
        TraceEvent::ReplayComplete { events, .. } => Some(*events),
        _ => None,
    });
    assert!(has(&recs, "ReplayStart"), "failover must attempt the replay path");
    assert!(
        replayed.is_some_and(|ev| ev > 0),
        "the sealed mid-epoch tail must replay events: {replayed:?}"
    );
    assert!(!has(&recs, "ReplayDiverge"), "a cleanly sealed tail must not diverge");
}

/// Harness e2e for the fallback: the log link dies mid-run (engine loss
/// injection), so the fault epoch's log on the backup is a seal-less
/// partial prefix and the failover must take the last-checkpoint path,
/// announced by `ReplayDiverge("partial")`.
///
/// The run deliberately does NOT assert workload verification: between the
/// link death and the fault the primary keeps releasing output against
/// commit confirmations that can no longer arrive — the bounded
/// release/ack race window HyCoR accepts (DESIGN.md §11) — so a client may
/// hold responses the fallback state never re-serves. Recovery itself must
/// still be clean: one failover, no broken connections.
#[test]
fn harness_partial_log_falls_back_and_recovers() {
    // Tuned so the link dies inside the fault epoch (which ships chunks
    // 25–27 of this deterministic run): 25 and 26 land, 27 and the seal are
    // lost → the backup holds a seal-less partial prefix.
    let (r, recs) = replay_harness(Some(26));
    assert!(r.recovered, "fallback recovery must succeed");
    assert_eq!(r.failovers, 1);
    assert_eq!(r.broken_connections, 0);

    let reason = recs.iter().find_map(|rec| match &rec.kind {
        TraceEvent::ReplayDiverge { reason } => Some(reason.clone()),
        _ => None,
    });
    let why = "the seal-less tail must force the last-checkpoint fallback";
    assert_eq!(reason.as_deref(), Some("partial"), "{why}");
    assert!(!has(&recs, "ReplayComplete"), "nothing may be replayed past a partial tail");
}

// ----------------------------------------------------------------------
// Written-line sets: the hint is exact under every way a page can change
// ----------------------------------------------------------------------

mod written_lines {
    use nilicon::backup::BackupAgent;
    use nilicon_container::{Container, ContainerRuntime, ContainerSpec, MemLayout};
    use nilicon_criu::{
        bootstrap_dump, dump_container, encode_against, restore_container, DeltaStats,
        DumpConfig, PageKey,
    };
    use nilicon_drbd::DrbdMsg;
    use nilicon_sim::block::BlockDevice;
    use nilicon_sim::ids::Pid;
    use nilicon_sim::kernel::Kernel;
    use nilicon_sim::mem::{TrackingMode, ALL_LINES};
    use nilicon_sim::proc::FreezeStrategy;
    use nilicon_sim::PAGE_SIZE;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const PS: u64 = PAGE_SIZE as u64;
    /// A heap small enough that shrinks, regrowths and writes collide.
    const HEAP_PAGES: u64 = 12;
    /// A second mapping, to `munmap` and `mmap` again at the same address.
    const ARENA: u64 = 0x6000_0000_0000;
    const ARENA_PAGES: u64 = 3;

    /// A write of `len` copies of `byte` at byte `at` of the watched pages:
    /// the heap first, the arena after it.
    type Poke = (u64, usize, u8);

    #[derive(Debug, Clone)]
    enum Op {
        Write(Poke),
        /// Write back the bytes that are there: dirty, every line marked,
        /// nothing changed.
        Rewrite(u64, usize),
        Zero(u64),
        Touch(u64),
        Brk(u64),
        /// `munmap` the arena if it is mapped, `mmap` it if not.
        Arena,
        /// COW + delta checkpoint: drain `first` pages, let `racing` writes
        /// fault on what is still protected, drain the rest, commit.
        Checkpoint(usize, Vec<Poke>),
        /// The backup is lost: the whole image streamed to a new one through
        /// the protect queue while `racing` writes fault.
        Rearm(usize, Vec<Poke>),
        Failover,
    }

    fn poke() -> impl Strategy<Value = Poke> {
        (
            0..(HEAP_PAGES + ARENA_PAGES) * PS,
            prop_oneof![1..65usize, 1..2 * PAGE_SIZE + 1],
            any::<u8>(),
        )
    }

    fn op() -> impl Strategy<Value = Op> {
        let page = 0..HEAP_PAGES + ARENA_PAGES;
        let racing = || proptest::collection::vec(poke(), 0..6);
        prop_oneof![
            8 => poke().prop_map(Op::Write),
            2 => (0..(HEAP_PAGES + ARENA_PAGES) * PS, 1..2 * PAGE_SIZE + 1)
                .prop_map(|(at, len)| Op::Rewrite(at, len)),
            1 => page.clone().prop_map(Op::Zero),
            1 => page.prop_map(Op::Touch),
            2 => (1..HEAP_PAGES + 1).prop_map(Op::Brk),
            1 => Just(Op::Arena),
            5 => (0..20usize, racing()).prop_map(|(first, r)| Op::Checkpoint(first, r)),
            1 => (0..40usize, racing()).prop_map(|(first, r)| Op::Rearm(first, r)),
            1 => Just(Op::Failover),
        ]
    }

    /// Watched guest memory, page by page: `vpn → bytes` for what is mapped.
    type Memory = BTreeMap<u64, Box<[u8; PAGE_SIZE]>>;

    /// One primary with the staged path's parts wired as the engine's COW
    /// drain wires them: each lent page encoded against the agent's
    /// committed store with its written-line set, and beside it with every
    /// line.
    struct Rig {
        k: Kernel,
        c: Container,
        pid: Pid,
        agent: BackupAgent,
        disk: BlockDevice,
        epoch: u64,
        /// Guest memory at the last committed checkpoint.
        committed: Memory,
        encoded: u64,
    }

    fn err<E: std::fmt::Debug>(e: E) -> String {
        format!("{e:?}")
    }

    impl Rig {
        fn new() -> Result<Rig, String> {
            let mut k = Kernel::default();
            let mut spec = ContainerSpec::server("lines", 10, 6379);
            spec.heap_pages = HEAP_PAGES;
            let c = ContainerRuntime::create(&mut k, &spec).map_err(err)?;
            let pid = c.init_pid();
            k.mm_mut(pid)
                .map_err(err)?
                .mmap_anon(ARENA, ARENA_PAGES * PS)
                .map_err(err)?;
            let agent = BackupAgent::new(k.costs.clone(), true);
            let mut rig = Rig {
                k,
                c,
                pid,
                agent,
                disk: BlockDevice::default(),
                epoch: 0,
                committed: Memory::new(),
                encoded: 0,
            };
            rig.arm()?;
            Ok(rig)
        }

        fn arm(&mut self) -> Result<(), String> {
            for pid in self.c.all_pids() {
                self.k
                    .mm_mut(pid)
                    .map_err(err)?
                    .set_tracking(TrackingMode::SoftDirty);
            }
            Ok(())
        }

        /// Address of watched byte `at`, and how many bytes from there are
        /// mapped (0: `at` lies above the break or in the unmapped arena).
        fn resolve(&self, at: u64) -> (u64, u64) {
            let mm = self.k.mm(self.pid).expect("init process");
            let heap = mm.current_brk().expect("heap") - MemLayout::HEAP_BASE;
            if at < HEAP_PAGES * PS {
                (MemLayout::heap(at), heap.saturating_sub(at))
            } else {
                let off = at - HEAP_PAGES * PS;
                let len = if mm.vma_at(ARENA).is_some() {
                    ARENA_PAGES * PS - off
                } else {
                    0
                };
                (ARENA + off, len)
            }
        }

        fn write(&mut self, (at, len, byte): Poke) -> Result<(), String> {
            let (addr, room) = self.resolve(at);
            let len = len.min(room as usize);
            self.k
                .mem_write(self.pid, addr, &vec![byte; len])
                .map_err(err)?;
            Ok(())
        }

        fn apply(&mut self, op: &Op) -> Result<(), String> {
            match op {
                Op::Write(p) => self.write(*p)?,
                Op::Rewrite(at, len) => {
                    let (addr, room) = self.resolve(*at);
                    let mut same = vec![0u8; (*len).min(room as usize)];
                    self.k.mem_read(self.pid, addr, &mut same).map_err(err)?;
                    self.k.mem_write(self.pid, addr, &same).map_err(err)?;
                }
                Op::Zero(page) => self.write((page * PS, PAGE_SIZE, 0))?,
                Op::Touch(page) => {
                    let (addr, room) = self.resolve(page * PS);
                    if room > 0 {
                        self.k
                            .mm_mut(self.pid)
                            .map_err(err)?
                            .touch(addr)
                            .map_err(err)?;
                    }
                }
                Op::Brk(pages) => {
                    let mm = self.k.mm_mut(self.pid).map_err(err)?;
                    mm.brk(MemLayout::heap_page(*pages)).map_err(err)?;
                }
                Op::Arena => {
                    let mm = self.k.mm_mut(self.pid).map_err(err)?;
                    if mm.vma_at(ARENA).is_some() {
                        mm.munmap(ARENA).map_err(err)?;
                    } else {
                        mm.mmap_anon(ARENA, ARENA_PAGES * PS).map_err(err)?;
                    }
                }
                Op::Checkpoint(first, racing) => self.checkpoint(*first, racing, false)?,
                Op::Rearm(first, racing) => self.checkpoint(*first, racing, true)?,
                Op::Failover => self.failover()?,
            }
            Ok(())
        }

        /// The watched pages as the guest reads them now.
        fn memory(k: &Kernel, pid: Pid) -> Memory {
            let mm = k.mm(pid).expect("init process");
            let heap = MemLayout::HEAP_BASE / PS..MemLayout::heap_page(HEAP_PAGES) / PS;
            let arena = ARENA / PS..ARENA / PS + ARENA_PAGES;
            let mut mem = Memory::new();
            for vpn in heap.chain(arena) {
                let mut page = Box::new([0u8; PAGE_SIZE]);
                if mm.read(vpn * PS, &mut page[..]).is_ok() {
                    mem.insert(vpn, page);
                }
            }
            mem
        }

        /// Lend up to `max` deferred pages. An incremental epoch encodes each
        /// against the committed store with its written-line set and, beside
        /// it, with every line; a bootstrap keeps them whole.
        fn drain(&mut self, max: usize, whole: bool) -> Result<(), String> {
            let mut left = max;
            for pid in self.c.all_pids() {
                while left > 0 {
                    let want = left.min(7);
                    let (mut pages, mut deltas, mut diverged) =
                        (Vec::new(), Vec::new(), Vec::new());
                    let store = self.agent.delta_base(self.epoch).map_err(err)?;
                    let mut stats = DeltaStats::default();
                    let n = self
                        .k
                        .cow_drain_with(pid, want, |vpn, page, lines| {
                            if whole {
                                pages.push((pid, vpn, page.clone()));
                                return;
                            }
                            let base = store.get(PageKey { pid, vpn }).map(|p| &**p);
                            let hinted =
                                encode_against(base, page, lines, || page.clone(), &mut stats);
                            let all =
                                encode_against(base, page, ALL_LINES, || page.clone(), &mut stats);
                            if hinted != all {
                                diverged.push((vpn, lines, hinted.class(), all.class()));
                            }
                            deltas.push((pid, vpn, hinted));
                        })
                        .map_err(err)?;
                    prop_assert!(
                        diverged.is_empty(),
                        "epoch {}: hinted and all-lines encodings differ: {diverged:x?}",
                        self.epoch
                    );
                    if n == 0 {
                        break;
                    }
                    self.encoded += deltas.len() as u64;
                    self.agent
                        .ingest_chunk(self.epoch, pages, deltas)
                        .map_err(err)?;
                    left = left.saturating_sub(n);
                }
            }
            Ok(())
        }

        fn checkpoint(&mut self, first: usize, racing: &[Poke], rearm: bool) -> Result<(), String> {
            self.epoch += 1;
            let mut cfg = DumpConfig::nilicon();
            cfg.cow = true;
            self.k
                .freeze_cgroup(self.c.cgroup, FreezeStrategy::BusyPoll)
                .map_err(err)?;
            let mut img = if rearm {
                self.agent = BackupAgent::new(self.k.costs.clone(), true);
                bootstrap_dump(&mut self.k, &self.c, &cfg, None, self.epoch)
            } else {
                dump_container(&mut self.k, &self.c, &cfg, None, self.epoch)
            }
            .map_err(err)?;
            let at_checkpoint = Self::memory(&self.k, self.pid);
            self.k.thaw_cgroup(self.c.cgroup).map_err(err)?;

            let deferred = std::mem::take(&mut img.deferred_vpns);
            self.agent.begin_assembly(img, deferred.len() as u64);
            self.drain(first, rearm)?;
            for p in racing {
                self.write(*p)?;
            }
            self.drain(usize::MAX, rearm)?;
            for pid in self.c.all_pids() {
                prop_assert_eq!(self.k.cow_pending(pid).map_err(err)?, 0);
                self.k.take_cow_faults(pid).map_err(err)?;
            }
            self.agent.finish_assembly(self.epoch).map_err(err)?;
            self.agent.ingest_drbd(vec![DrbdMsg::Barrier(self.epoch)]);
            self.agent.commit(self.epoch, &mut self.disk).map_err(err)?;

            // The committed image is guest memory at the checkpoint: every
            // mapped page (absent = zeros), and nothing outside the mapping.
            let img = self.agent.materialize().map_err(err)?;
            let mut stored: BTreeMap<u64, &[u8; PAGE_SIZE]> = BTreeMap::new();
            for (pid, vpn, page) in &img.pages {
                if *pid == self.pid && Self::watched(*vpn) {
                    stored.insert(*vpn, page);
                }
            }
            for (vpn, want) in &at_checkpoint {
                let got = stored.remove(vpn).unwrap_or(&[0u8; PAGE_SIZE]);
                prop_assert!(
                    got == &**want,
                    "epoch {}: page {vpn:#x} differs",
                    self.epoch
                );
            }
            prop_assert!(
                stored.is_empty(),
                "epoch {}: stale pages outside the mapping: {:x?}",
                self.epoch,
                stored.keys().collect::<Vec<_>>()
            );
            self.committed = at_checkpoint;
            Ok(())
        }

        fn watched(vpn: u64) -> bool {
            let heap = MemLayout::HEAP_BASE / PS;
            (heap..heap + HEAP_PAGES).contains(&vpn)
                || (ARENA / PS..ARENA / PS + ARENA_PAGES).contains(&vpn)
        }

        /// Restore the committed image on a new host, check it, and carry on
        /// from there: installed frames say every line, and the next backup
        /// starts from a bootstrap.
        fn failover(&mut self) -> Result<(), String> {
            if self.agent.committed_epoch().is_none() {
                return Ok(());
            }
            let img = self.agent.materialize().map_err(err)?;
            let mut k = Kernel::default();
            let restored = restore_container(&mut k, &img, &Default::default()).map_err(err)?;
            prop_assert_eq!(restored.skipped_pages, 0);
            restored.finish(&mut k).map_err(err)?;
            prop_assert!(
                Self::memory(&k, self.pid) == self.committed,
                "restored memory is not the committed checkpoint"
            );
            self.k = k;
            self.c = restored.container;
            self.arm()?;
            self.checkpoint(0, &[], true)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn hinted_encodings_equal_all_lines_encodings_and_commit_guest_memory(
            script in proptest::collection::vec(op(), 1..60),
        ) {
            let mut rig = Rig::new()?;
            for (i, op) in script.iter().enumerate() {
                rig.apply(op).map_err(|e| format!("op {i} {op:?}: {e}"))?;
            }
            // Every script ends on a checkpoint of whatever it left dirty.
            rig.checkpoint(3, &[(0, 1, 1)], false)?;
            rig.failover()?;
        }
    }
}
