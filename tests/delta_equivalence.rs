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
