//! End-to-end equivalence of the delta-encoded transfer path.
//!
//! The wire format is an optimization, not a semantic: with
//! `delta_transfer` enabled the backup's committed image must be
//! byte-identical to the full-page path after every epoch, and the state a
//! failover restores must match bit-for-bit — including an uncommitted
//! tail epoch that both paths have to discard. The staged path patches the
//! primary's shadow and the backup's store in place; nothing that still
//! holds one of those buffers may ever see it change.

use nilicon::{Checkpointer, NiLiConEngine, OptimizationConfig};
use nilicon_container::{Container, ContainerRuntime, ContainerSpec, MemLayout};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::{PageBuf, PAGE_SIZE};

/// A page buffer someone kept, with the bytes it held when they took it.
type Held = (PageBuf, Box<[u8; PAGE_SIZE]>);

/// Drive `epochs` checkpoint/commit cycles of a fixed write script, fail
/// over, and return (total wire bytes, restored memory snapshot).
///
/// The script exercises every page class each run: a hot page taking
/// single-byte edits (sparse deltas), fresh pages (full), a page rewritten
/// densely, and a page scrubbed back to zeros (zero elision).
fn run_script(delta: bool, epochs: u64, script: &dyn Fn(&mut Kernel, &Container, u64)) -> (u64, Vec<u8>) {
    let (wire_bytes, snapshot, _) = run(&|o| o.delta_transfer = delta, epochs, None, script);
    (wire_bytes, snapshot)
}

/// [`run_script`] under any option set. With `hold_every`, every that many
/// epochs the committed image is materialized and its buffers kept (third
/// return value), and a copy of it is ingested as a far-future epoch and
/// discarded again, as a failover would; the tail epoch's COW drain then
/// dies after one chunk, leaving a half-assembled epoch to discard.
fn run(
    tweak: &dyn Fn(&mut OptimizationConfig),
    epochs: u64,
    hold_every: Option<u64>,
    script: &dyn Fn(&mut Kernel, &Container, u64),
) -> (u64, Vec<u8>, Vec<Held>) {
    let mut p = Kernel::default();
    let mut b = Kernel::default();
    let mut spec = ContainerSpec::server("redis", 10, 6379);
    spec.processes = 3;
    let c = ContainerRuntime::create(&mut p, &spec).unwrap();
    let mut opts = OptimizationConfig::nilicon();
    tweak(&mut opts);
    let mut e = NiLiConEngine::new(opts, p.costs.clone());
    e.prepare(&mut p, &c).unwrap();

    let mut wire_bytes = 0u64;
    let mut held: Vec<Held> = Vec::new();
    for epoch in 1..=epochs {
        script(&mut p, &c, epoch);
        let o = e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
        wire_bytes += o.state_bytes;
        e.commit(&mut b, epoch).unwrap();
        if hold_every.is_some_and(|n| epoch.is_multiple_of(n)) {
            let mut img = e.agent.materialize().unwrap();
            held.extend(img.pages.iter().map(|(_, _, p)| (p.clone(), Box::new(**p))));
            img.epoch = u64::MAX;
            e.agent.ingest(img);
            assert_eq!(e.agent.discard_uncommitted().epochs, 1);
        }
    }
    // One more checkpoint that never gets acked: the failover must discard
    // it identically on both paths.
    script(&mut p, &c, epochs + 1);
    if hold_every.is_some() {
        e.cow_fail_after_chunks = Some(1);
    }
    e.checkpoint(&mut p, &mut b, &c, epochs + 1).unwrap();

    let (restored, _report) = e.failover(&mut b).unwrap();
    restored.finish(&mut b).unwrap();

    // Snapshot every heap page the script can have touched, across all
    // worker pids (the keep-alive process maps a single page and is never
    // written by the scripts).
    let mut snapshot = Vec::new();
    for pid in restored.container.workers.clone() {
        for page in 0..64u64 {
            let mut buf = vec![0u8; PAGE_SIZE];
            if b.mem_read(pid, MemLayout::heap_page(page), &mut buf).is_ok() {
                snapshot.extend_from_slice(&buf);
            }
        }
    }
    (wire_bytes, snapshot, held)
}

/// Every page class each epoch: sparse, first touch, dense, zero.
fn mixed_script(k: &mut Kernel, c: &Container, epoch: u64) {
    let pid = c.init_pid();
    // Sparse churn: one counter word on a hot page, every epoch.
    k.mem_write(pid, MemLayout::heap(8), &epoch.to_le_bytes()).unwrap();
    // Growth: one brand-new page per epoch (ships full once).
    k.mem_write(pid, MemLayout::heap_page(10 + epoch), &[epoch as u8; 128])
        .unwrap();
    // Dense churn: rewrite a whole buffer page.
    k.mem_write(pid, MemLayout::heap_page(2), &vec![epoch as u8 | 1; PAGE_SIZE])
        .unwrap();
    // Scrub: page 3 alternates between data and all-zeros.
    let fill = if epoch.is_multiple_of(2) { 0u8 } else { 0xAB };
    k.mem_write(pid, MemLayout::heap_page(3), &vec![fill; PAGE_SIZE])
        .unwrap();
}

#[test]
fn delta_committed_state_is_byte_identical_across_ten_epochs_and_failover() {
    let script = mixed_script;

    let (full_bytes, full_mem) = run_script(false, 10, &script);
    let (delta_bytes, delta_mem) = run_script(true, 10, &script);

    assert!(!full_mem.is_empty(), "snapshot captured restored memory");
    assert_eq!(
        full_mem, delta_mem,
        "restored memory must be bit-for-bit identical across wire formats"
    );
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
            k.mem_write(pid, MemLayout::heap_page(page) + off, &vec![byte; len])
                .unwrap();
        }
    };

    let (full_bytes, full_mem) = run_script(false, 12, &script);
    let (delta_bytes, delta_mem) = run_script(true, 12, &script);

    assert!(!full_mem.is_empty());
    assert_eq!(full_mem, delta_mem, "random write pattern diverged");
    assert!(
        delta_bytes < full_bytes,
        "re-dirtied pages compress: {delta_bytes} vs {full_bytes}"
    );
}

#[test]
fn in_place_patching_never_writes_a_buffer_someone_else_holds() {
    // Both backup page stores (`optimize_criu` picks radix tree or linked
    // list), staged path against the eager full-page path.
    for radix in [true, false] {
        let staged = |o: &mut OptimizationConfig| {
            o.optimize_criu = radix;
            o.delta_transfer = true;
            o.cow_checkpoint = true;
        };
        let (_, full_mem, _) = run(&|o| o.optimize_criu = radix, 14, None, &mixed_script);
        let (_, staged_mem, held) = run(&staged, 14, Some(3), &mixed_script);

        assert!(!full_mem.is_empty());
        assert_eq!(
            full_mem, staged_mem,
            "radix={radix}: mid-copy failover restores the last complete epoch"
        );
        // Images materialized at epochs 3..12 were kept through up to
        // eleven further epochs of in-place commits.
        assert!(held.len() >= 4 * 4, "holders were taken: {}", held.len());
        for (i, (buf, original)) in held.iter().enumerate() {
            assert!(
                **buf == **original,
                "radix={radix}: held buffer {i} was written through"
            );
        }
    }
}

// ----------------------------------------------------------------------
// Written-line sets: the hint is exact under every way a page can change
// ----------------------------------------------------------------------

mod written_lines {
    use nilicon::backup::BackupAgent;
    use nilicon_container::{Container, ContainerRuntime, ContainerSpec, MemLayout};
    use nilicon_criu::{
        bootstrap_dump, dump_container, restore_container, unmapped_since, CheckpointImage,
        DeltaStats, DumpConfig, PageKey, ShadowStore,
    };
    use nilicon_drbd::DrbdMsg;
    use nilicon_sim::block::BlockDevice;
    use nilicon_sim::ids::Pid;
    use nilicon_sim::kernel::Kernel;
    use nilicon_sim::mem::{TrackingMode, Vma};
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
        /// The backup is lost: shadow cleared, whole image streamed to a new
        /// one through the protect queue while `racing` writes fault.
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

    /// One primary with the staged path's parts wired as `cow_stream` wires
    /// them, plus a second shadow that is always encoded with every line.
    struct Rig {
        k: Kernel,
        c: Container,
        pid: Pid,
        /// Encoded with the drain's written-line sets.
        shadow: ShadowStore,
        /// Encoded with `ALL_LINES` from the same pages in the same order.
        reference: ShadowStore,
        mapped: Vec<(Pid, Vec<Vma>)>,
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
                shadow: ShadowStore::new(),
                reference: ShadowStore::new(),
                mapped: Vec::new(),
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
        /// with its written-line set and, beside it, with every line against
        /// the reference shadow; a bootstrap keeps them whole.
        fn drain(&mut self, max: usize, whole: bool) -> Result<(), String> {
            let mut left = max;
            for pid in self.c.all_pids() {
                while left > 0 {
                    let want = left.min(7);
                    let (mut pages, mut deltas, mut diverged) =
                        (Vec::new(), Vec::new(), Vec::new());
                    let (shadow, reference) = (&mut self.shadow, &mut self.reference);
                    let mut stats = DeltaStats::default();
                    let n = self
                        .k
                        .cow_drain_with(pid, want, |vpn, page, lines| {
                            if whole {
                                pages.push((pid, vpn, page.clone()));
                                return;
                            }
                            let key = PageKey { pid, vpn };
                            let hinted =
                                shadow.encode_with(key, page, lines, || page.clone(), &mut stats);
                            let all = reference.encode(key, page, &mut stats);
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

        /// What `NiLiConEngine::forget_unmapped` does, for both shadows.
        fn forget_unmapped(&mut self, img: &CheckpointImage) {
            let was = self.mapped.iter().map(|(pid, v)| (*pid, &v[..]));
            for (pid, vpns) in unmapped_since(was, &img.processes) {
                self.shadow.forget(pid, vpns.clone());
                self.reference.forget(pid, vpns);
            }
            self.mapped = img
                .processes
                .iter()
                .map(|p| (p.pid, p.vmas.clone()))
                .collect();
        }

        fn checkpoint(&mut self, first: usize, racing: &[Poke], rearm: bool) -> Result<(), String> {
            self.epoch += 1;
            let mut cfg = DumpConfig::nilicon();
            cfg.cow = true;
            self.k
                .freeze_cgroup(self.c.cgroup, FreezeStrategy::BusyPoll)
                .map_err(err)?;
            let mut img = if rearm {
                self.shadow = ShadowStore::new();
                self.reference = ShadowStore::new();
                self.mapped.clear();
                self.agent = BackupAgent::new(self.k.costs.clone(), true);
                bootstrap_dump(&mut self.k, &self.c, &cfg, None, self.epoch)
            } else {
                dump_container(&mut self.k, &self.c, &cfg, None, self.epoch)
            }
            .map_err(err)?;
            let at_checkpoint = Self::memory(&self.k, self.pid);
            self.k.thaw_cgroup(self.c.cgroup).map_err(err)?;

            let deferred = std::mem::take(&mut img.deferred_vpns);
            if !rearm {
                self.forget_unmapped(&img);
            }
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
