//! Staged-pipeline equivalence suite (EXTENSION, `--pipeline`).
//!
//! The pipelined checkpoint path reorders *when* work happens — dump-drain,
//! delta-encode, transfer, and backup-ingest overlap across bounded
//! peek-before-commit queues — but must never change *what* the backup
//! commits. These tests pin the bar from ISSUE/DESIGN §12: committed images
//! byte-identical to the synchronous engine over randomized multi-epoch
//! histories (including `--delta`, `--cow`, `--replay`, and a (2,3)
//! placement), a mid-chunk stage crash replays the in-flight chunk without
//! loss or duplication, and a fault during a backpressure stall falls back
//! to the last committed epoch.

use nilicon::trace::{TraceEvent, Tracer};
use nilicon::{Checkpointer, NiLiConEngine, OptimizationConfig, PlacementEngine};
use nilicon_container::{Container, ContainerRuntime, ContainerSpec, MemLayout};
use nilicon_criu::CheckpointImage;
use nilicon_sim::kernel::Kernel;
use proptest::prelude::*;

/// One epoch's worth of guest writes: (heap page, byte value).
type EpochWrites = Vec<(u64, u8)>;

fn apply(p: &mut Kernel, c: &Container, writes: &EpochWrites) {
    for &(page, val) in writes {
        p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[val])
            .unwrap();
    }
}

fn assert_images_identical(a: &CheckpointImage, b: &CheckpointImage, what: &str) {
    assert_eq!(a.pages.len(), b.pages.len(), "{what}: page-set size");
    for (x, y) in a.pages.iter().zip(b.pages.iter()) {
        assert_eq!((x.0, x.1), (y.0, y.1), "{what}: page identity");
        assert_eq!(x.2, y.2, "{what}: page {:?}/{:#x} bytes diverged", x.0, x.1);
    }
}

/// Run `history` epoch-by-epoch under `opts` on a fresh container and
/// return the final committed backup image. `advance` grants the pipeline
/// one execution phase of overlap between epochs (the harness does this);
/// without it every epoch's backlog surfaces as backpressure, which must
/// still not change the committed bytes.
fn run_history(
    opts: OptimizationConfig,
    history: &[EpochWrites],
    advance: bool,
) -> CheckpointImage {
    let mut p = Kernel::default();
    let mut b = Kernel::default();
    let spec = ContainerSpec::server("redis", 10, 6379);
    let c = ContainerRuntime::create(&mut p, &spec).unwrap();
    let mut e = NiLiConEngine::new(opts, p.costs.clone());
    e.prepare(&mut p, &c).unwrap();
    for (i, writes) in history.iter().enumerate() {
        let epoch = i as u64 + 1;
        apply(&mut p, &c, writes);
        if advance {
            e.pipeline_advance(30_000_000);
        }
        e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
        e.commit(&mut b, epoch).unwrap();
    }
    e.agent.materialize().unwrap()
}

/// Randomized epoch histories: 10–14 epochs, each dirtying 0–40 pages in a
/// 300-page heap window (overlapping pages across epochs exercise the
/// delta encoder's incremental path against the committed store).
fn arb_history() -> impl Strategy<Value = Vec<EpochWrites>> {
    proptest::collection::vec(
        proptest::collection::vec((0u64..300, any::<u8>()), 0..40),
        10..15,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole equivalence bar: `--pipeline` with `--delta` and `--replay`
    /// commits byte-identical images to the synchronous engine, with and
    /// without inter-epoch overlap credit (the latter drives the
    /// backpressure path every epoch).
    #[test]
    fn pipelined_delta_replay_images_match_sync(history in arb_history()) {
        let mut sync = OptimizationConfig::nilicon();
        sync.delta_transfer = true;
        sync.hybrid_replay = true;
        let mut piped = sync;
        piped.pipeline = true;

        let base = run_history(sync, &history, true);
        let overlapped = run_history(piped, &history, true);
        assert_images_identical(&base, &overlapped, "delta+replay overlapped");
        let stalled = run_history(piped, &history, false);
        assert_images_identical(&base, &stalled, "delta+replay backpressured");
    }

    /// `--cow --pipeline`: the COW drain is already a streamed stage, so the
    /// pipeline knob only adds overlap accounting — committed bytes are
    /// untouched.
    #[test]
    fn pipelined_cow_images_match_sync(history in arb_history()) {
        let mut sync = OptimizationConfig::nilicon();
        sync.cow_checkpoint = true;
        sync.hybrid_replay = true;
        let mut piped = sync;
        piped.pipeline = true;

        let base = run_history(sync, &history, true);
        let overlapped = run_history(piped, &history, true);
        assert_images_identical(&base, &overlapped, "cow overlapped");
    }
}

fn placement_history(
    pipeline: bool,
    history: &[EpochWrites],
    fail_at: Option<u64>,
) -> (CheckpointImage, u64, Vec<nilicon::TraceRecord>) {
    let mut opts = OptimizationConfig::nilicon();
    opts.backups = 3;
    opts.quorum = 2;
    opts.pipeline = pipeline;
    let mut p = Kernel::default();
    let mut b = Kernel::default();
    let spec = ContainerSpec::server("redis", 10, 6379);
    let c = ContainerRuntime::create(&mut p, &spec).unwrap();
    let mut e = PlacementEngine::new(opts, p.costs.clone()).unwrap();
    let (tracer, ring) = Tracer::in_memory(4096);
    e.set_tracer(tracer.clone());
    e.prepare(&mut p, &c).unwrap();
    for (i, writes) in history.iter().enumerate() {
        let epoch = i as u64 + 1;
        apply(&mut p, &c, writes);
        e.pipeline_advance(30_000_000);
        if fail_at == Some(epoch) {
            e.stage_fail_at_chunk = Some(0);
        }
        tracer.begin_epoch(epoch, 0);
        let o = e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
        tracer
            .reconcile(epoch, o.stop_time, o.ack_delay, 0)
            .unwrap();
        e.commit(&mut b, epoch).unwrap();
    }
    let stored = e.stored_fragment_bytes();
    let img = e.reconstruct_committed(&[0, 1]).unwrap();
    (img, stored, ring.snapshot())
}

/// (2,3) placement: the chunked stripe pipeline stores the same fragments
/// and reconstructs the same image as the whole-epoch synchronous fan-out —
/// including when the first replica's ingest stage crashes mid-chunk and
/// replays (peek-before-commit: no chunk lost, none double-committed).
#[test]
fn placement_pipelined_matches_sync_including_stage_crash() {
    let history: Vec<EpochWrites> = (1..=10u64)
        .map(|e| {
            (0..e + 4)
                .map(|i| ((i * 7 + e) % 120, (e * 31 + i) as u8))
                .collect()
        })
        .collect();

    let (sync_img, sync_stored, _) = placement_history(false, &history, None);
    let (pipe_img, pipe_stored, _) = placement_history(true, &history, None);
    assert_images_identical(&sync_img, &pipe_img, "placement (2,3)");
    assert_eq!(sync_stored, pipe_stored, "identical fragment bytes stored");

    let (crash_img, crash_stored, recs) = placement_history(true, &history, Some(6));
    assert_images_identical(&sync_img, &crash_img, "placement stage crash");
    assert_eq!(sync_stored, crash_stored, "replayed chunk not duplicated");
    assert!(
        recs.iter().any(|r| matches!(
            &r.kind,
            TraceEvent::StageRestart { stage, chunk: 0 } if stage == "ingest"
        )),
        "stage crash surfaced as a StageRestart mark"
    );
}

/// NiLiCon engine stage crash mid-chunk: the in-flight chunk is re-ingested
/// (peek-before-commit), the committed image is unchanged, and the restart
/// costs real ack time.
#[test]
fn stage_crash_replays_chunk_without_loss_or_duplication() {
    let run = |fail: Option<u64>| {
        let mut opts = OptimizationConfig::nilicon();
        opts.delta_transfer = true;
        opts.pipeline = true;
        let mut p = Kernel::default();
        let mut b = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut p, &spec).unwrap();
        let mut e = NiLiConEngine::new(opts, p.costs.clone());
        let (tracer, ring) = Tracer::in_memory(4096);
        e.set_tracer(tracer.clone());
        e.prepare(&mut p, &c).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        // 150 dirty pages -> 3 chunks of 64; crash lands mid-stream.
        for page in 0..150u64 {
            p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[page as u8])
                .unwrap();
        }
        e.pipeline_advance(30_000_000);
        e.stage_fail_at_chunk = fail;
        tracer.begin_epoch(2, 0);
        let o = e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
        tracer.reconcile(2, o.stop_time, o.ack_delay, 0).unwrap();
        e.commit(&mut b, 2).unwrap();
        assert_eq!(e.stage_fail_at_chunk, None, "injection fires exactly once");
        (e.agent.materialize().unwrap(), o, ring.snapshot())
    };

    let (clean_img, clean, clean_recs) = run(None);
    let (crash_img, crash, crash_recs) = run(Some(1));
    assert_images_identical(&clean_img, &crash_img, "mid-chunk stage crash");
    assert!(
        crash.ack_delay > clean.ack_delay,
        "the replayed chunk costs ack time: {} vs {}",
        crash.ack_delay,
        clean.ack_delay
    );
    assert!(
        !clean_recs
            .iter()
            .any(|r| matches!(r.kind, TraceEvent::StageRestart { .. })),
        "no restart on the clean run"
    );
    assert!(
        crash_recs.iter().any(|r| matches!(
            &r.kind,
            TraceEvent::StageRestart { stage, chunk: 1 } if stage == "ingest"
        )),
        "restart mark names the replayed chunk"
    );
}

/// A primary fault while the pipeline is stalled on backpressure (epoch
/// checkpointed but its ack never drained, so it was never committed) must
/// fail over to the last *committed* epoch — in-flight pipeline state is
/// discarded, not promoted.
#[test]
fn fault_during_backpressure_falls_back_to_committed_epoch() {
    let mut opts = OptimizationConfig::nilicon();
    opts.delta_transfer = true;
    opts.pipeline = true;
    let mut p = Kernel::default();
    let mut b = Kernel::default();
    let spec = ContainerSpec::server("redis", 10, 6379);
    let c = ContainerRuntime::create(&mut p, &spec).unwrap();
    let mut e = NiLiConEngine::new(opts, p.costs.clone());
    e.prepare(&mut p, &c).unwrap();
    p.mem_write(c.init_pid(), MemLayout::heap(0), b"committed")
        .unwrap();
    e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
    e.commit(&mut b, 1).unwrap();

    // Epoch 2 enters the pipeline but the ack stalls (no overlap credit,
    // no commit) — then the primary dies.
    p.mem_write(c.init_pid(), MemLayout::heap(0), b"uncommitt")
        .unwrap();
    let o = e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
    assert!(o.ack_delay > 0, "epoch 2 ack is in flight, not delivered");

    let (restored, _) = e.failover(&mut b).unwrap();
    restored.finish(&mut b).unwrap();
    let mut buf = [0u8; 9];
    b.mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf)
        .unwrap();
    assert_eq!(&buf, b"committed", "fell back to the last committed epoch");
    assert_eq!(e.committed_epoch(), Some(1));
}

/// Backpressure accounting: with zero overlap credit the previous epoch's
/// ack backlog stalls the next stop phase (a `Backpressure` span tiles into
/// stop_time); a full execution phase of credit drains it.
#[test]
fn backpressure_stalls_stop_phase_and_drains_with_overlap() {
    let mut opts = OptimizationConfig::nilicon();
    opts.pipeline = true;
    let mut p = Kernel::default();
    let mut b = Kernel::default();
    let spec = ContainerSpec::server("redis", 10, 6379);
    let c = ContainerRuntime::create(&mut p, &spec).unwrap();
    let mut e = NiLiConEngine::new(opts, p.costs.clone());
    let (tracer, ring) = Tracer::in_memory(4096);
    e.set_tracer(tracer.clone());
    e.prepare(&mut p, &c).unwrap();
    for page in 0..100u64 {
        p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[1])
            .unwrap();
    }
    tracer.begin_epoch(1, 0);
    let o1 = e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
    tracer.reconcile(1, o1.stop_time, o1.ack_delay, 0).unwrap();
    e.commit(&mut b, 1).unwrap();

    // No pipeline_advance: epoch 1's entire ack backlog hits epoch 2's stop.
    p.mem_write(c.init_pid(), MemLayout::heap_page(0), &[2])
        .unwrap();
    tracer.begin_epoch(2, 0);
    let o2 = e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
    tracer.reconcile(2, o2.stop_time, o2.ack_delay, 0).unwrap();
    e.commit(&mut b, 2).unwrap();
    let stalled = ring
        .snapshot()
        .iter()
        .find_map(|r| match r.kind {
            TraceEvent::Backpressure { stalled } if r.epoch == 2 => Some(stalled),
            _ => None,
        })
        .expect("Backpressure span on the stalled epoch");
    assert_eq!(stalled, o1.ack_delay, "the whole undrained backlog stalls");
    assert!(o2.stop_time > stalled, "stall tiles into stop_time");

    // Epoch 3 gets a full execution phase of overlap: backlog gone.
    e.pipeline_advance(30_000_000);
    p.mem_write(c.init_pid(), MemLayout::heap_page(0), &[3])
        .unwrap();
    tracer.begin_epoch(3, 0);
    let o3 = e.checkpoint(&mut p, &mut b, &c, 3).unwrap();
    tracer.reconcile(3, o3.stop_time, o3.ack_delay, 0).unwrap();
    assert!(
        !ring
            .snapshot()
            .iter()
            .any(|r| r.epoch == 3 && matches!(r.kind, TraceEvent::Backpressure { .. })),
        "drained pipeline exerts no backpressure"
    );
}
