//! End-to-end equivalence of the hybrid checkpoint + replay path
//! (`OptimizationConfig::hybrid_replay`, DESIGN.md §11).
//!
//! Replay changes *when* output is released (log commit instead of epoch
//! ack) and *how* a failover recovers the tail (re-execution instead of
//! rollback), never *what* state the service ends in: replaying the sealed
//! log tail onto the last committed checkpoint must reproduce the live
//! primary byte-for-byte — across randomized request streams, composed with
//! `--delta --cow` on the single-backup engine and with a `--backups 3
//! --quorum 2` placement — and a failover that catches the log mid-ship
//! (partial tail) must fall back to the plain last-checkpoint path.

use nilicon::harness::{RunHarness, RunMode};
use nilicon::trace::Tracer;
use nilicon::{
    replay_tail, Checkpointer, NiLiConEngine, OptimizationConfig, PlacementEngine,
    ReplicationConfig, TraceEvent,
};
use nilicon_container::{
    Application, Container, ContainerRuntime, ContainerSpec, GuestCtx, MemLayout, RequestOutcome,
};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::replay::{content_hash, response_digest, ReplayEvent};
use nilicon_sim::{CostModel, SimResult, MILLISECOND, PAGE_SIZE};
use nilicon_workloads::{self as workloads, Scale};
use proptest::prelude::*;

/// Heap pages the server touches (and the snapshots cover).
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
        let n = u64::from_le_bytes(buf)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .wrapping_add(content_hash(req));
        ctx.heap_write(0, &n.to_le_bytes())?;
        // Dirty a payload-dependent page so delta/COW/fragment encoding all
        // have real work to get wrong.
        let page = 1 + n % (HEAP_PAGES - 1);
        ctx.heap_write(page * PAGE_SIZE as u64, &[n as u8; 512])?;
        Ok(RequestOutcome {
            response: n.to_le_bytes().to_vec(),
        })
    }
}

/// Pseudo-random request payload for `(seed, epoch, i)` — pure, so both
/// engine runs see the identical stream.
fn payload(seed: u64, epoch: u64, i: u64) -> Vec<u8> {
    let x = seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
    let len = 1 + (x % 24) as usize;
    (0..len).map(|j| (x >> (j % 8)) as u8).collect()
}

/// Byte snapshot of every worker heap (the cow_equivalence.rs pattern).
fn snapshot(k: &mut Kernel, c: &Container) -> Vec<u8> {
    let mut out = Vec::new();
    for &pid in &c.workers {
        for page in 0..HEAP_PAGES {
            let mut buf = vec![0u8; PAGE_SIZE];
            if k.mem_read(pid, MemLayout::heap_page(page), &mut buf).is_ok() {
                out.extend_from_slice(&buf);
            }
        }
    }
    out
}

/// Which engine carries the log.
#[derive(Clone, Copy)]
enum Engine {
    /// Single warm backup, composed with `--delta --cow`.
    NiliconDeltaCow,
    /// Erasure-coded `--backups 3 --quorum 2` placement.
    Placement3of2,
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
/// checkpointed epochs of the request stream, fail over, replay. With
/// `fail_after_chunks` the log link dies after that many shipped chunks
/// (one chunk per request here), losing the rest of the tail and its seal.
fn run_replay(
    engine: Engine,
    seed: u64,
    epochs: u64,
    reqs: u64,
    tail_epochs: u64,
    fail_after_chunks: Option<u64>,
) -> ReplayRun {
    let mut p = Kernel::default();
    let mut b = Kernel::default();
    let mut spec = ContainerSpec::server("mix", 10, 7100);
    spec.heap_pages = HEAP_PAGES;
    let c = ContainerRuntime::create(&mut p, &spec).unwrap();
    let mut app = MixServer;
    {
        let mut ctx = GuestCtx::new(&mut p, c.workers[0], 0);
        app.init(&mut ctx).unwrap();
    }

    let mut opts = OptimizationConfig::nilicon();
    opts.hybrid_replay = true;
    let mut e: Box<dyn Checkpointer> = match engine {
        Engine::NiliconDeltaCow => {
            opts.delta_transfer = true;
            opts.cow_checkpoint = true;
            let mut e = NiLiConEngine::new(opts, p.costs.clone());
            e.log_fail_after_chunks = fail_after_chunks;
            Box::new(e)
        }
        Engine::Placement3of2 => {
            opts.backups = 3;
            opts.quorum = 2;
            let mut e = PlacementEngine::new(opts, p.costs.clone()).unwrap();
            e.log_fail_after_chunks = fail_after_chunks;
            Box::new(e)
        }
    };
    e.prepare(&mut p, &c).unwrap();

    // The record half, exactly in harness order: ship each request's event
    // as its own chunk while the epoch runs, checkpoint at the boundary,
    // seal, commit (which prunes the logs the checkpoint now covers).
    let mut at = 0u64;
    let mut exec = |p: &mut Kernel, app: &mut MixServer, epoch: u64| -> Vec<ReplayEvent> {
        (0..reqs)
            .map(|i| {
                let req = payload(seed, epoch, i);
                at += 1;
                let outcome = {
                    let mut ctx = GuestCtx::new(p, c.workers[0], at);
                    app.handle_request(&mut ctx, &req).unwrap()
                };
                ReplayEvent::Request {
                    pid: c.workers[0],
                    at,
                    payload: req.into(),
                    response_hash: response_digest(&outcome.response),
                    response_len: outcome.response.len() as u32,
                }
            })
            .collect()
    };
    for epoch in 1..=epochs {
        for ev in exec(&mut p, &mut app, epoch) {
            e.ship_log(&mut p, epoch, std::slice::from_ref(&ev)).unwrap();
        }
        e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
        e.seal_log(epoch).unwrap();
        e.commit(&mut b, epoch).unwrap();
    }
    let committed = snapshot(&mut p, &c);

    // The tail: sealed logs past the last checkpoint — the primary dies
    // before the next checkpoint ever ships.
    for te in 1..=tail_epochs {
        let epoch = epochs + te;
        for ev in exec(&mut p, &mut app, epoch) {
            e.ship_log(&mut p, epoch, std::slice::from_ref(&ev)).unwrap();
        }
        e.seal_log(epoch).unwrap();
    }
    let live = snapshot(&mut p, &c);

    let (restored, _report) = e.failover(&mut b).unwrap();
    restored.finish(&mut b).unwrap();
    let mut rapp = MixServer;
    {
        let mut ctx = GuestCtx::new(&mut b, restored.container.workers[0], 0);
        rapp.recover(&mut ctx).unwrap();
    }
    let tail = e.take_replay_tail().unwrap();
    let out = replay_tail(&mut b, &restored.container, &mut rapp, &tail).unwrap();
    let recovered = snapshot(&mut b, &restored.container);

    ReplayRun {
        committed,
        live,
        recovered,
        diverged: out.diverged,
        events: out.events,
    }
}

proptest! {
    // Each case is two full record/failover/replay runs; keep it moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole equivalence property: for any request stream, replaying
    /// the sealed tail reproduces the live primary byte-for-byte — output
    /// equality is enforced inside `replay_tail` (every re-executed response
    /// must hash to the recorded value), state equality here — on both
    /// log-carrying engines.
    #[test]
    fn replayed_state_is_byte_identical_to_live_execution(
        seed in any::<u64>(),
        epochs in 10u64..13,
        reqs in 1u64..5,
        tail_epochs in 1u64..4,
    ) {
        let a = run_replay(Engine::NiliconDeltaCow, seed, epochs, reqs, tail_epochs, None);
        prop_assert!(a.diverged.is_none(), "delta+cow diverged: {:?}", a.diverged);
        prop_assert_eq!(a.events, tail_epochs * reqs, "whole tail re-executed");
        prop_assert!(!a.live.is_empty());
        prop_assert_eq!(&a.recovered, &a.live, "delta+cow replay != live primary");
        prop_assert!(a.committed != a.live, "the tail must change state");

        let b = run_replay(Engine::Placement3of2, seed, epochs, reqs, tail_epochs, None);
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
    for engine in [Engine::NiliconDeltaCow, Engine::Placement3of2] {
        // 10 committed epochs × 3 chunks land; the link dies after the
        // tail's first chunk (chunk 31), losing chunks 32, 33 and the seal.
        let r = run_replay(engine, 0xFEED, 10, 3, 1, Some(31));
        assert_eq!(r.diverged.as_deref(), Some("partial"));
        assert_eq!(r.events, 0, "a partial tail is rejected without executing");
        assert_eq!(
            r.recovered, r.committed,
            "fallback must restore exactly the last committed checkpoint"
        );
    }
}

/// Harness e2e: a primary fault mid-epoch under `--replay`. The truncated
/// fault epoch's log is shipped and sealed up to the fault, the backup
/// replays it, and the service continues with read-your-writes intact — the
/// fault no longer rounds recovery down to the previous checkpoint.
#[test]
fn harness_fault_mid_epoch_replays_the_sealed_tail() {
    let w = workloads::redis(Scale::small(), 4, None);
    let mut opts = OptimizationConfig::nilicon();
    opts.hybrid_replay = true;
    let mode = RunMode::Replicated(Box::new(NiLiConEngine::new(opts, CostModel::default())));
    let mut h = RunHarness::new(
        w.spec,
        w.app,
        w.behavior,
        mode,
        ReplicationConfig::default(),
        w.parallelism,
    )
    .unwrap();
    let (tracer, ring) = Tracer::in_memory(8192);
    h.set_tracer(tracer);
    h.inject_fault_at(415 * MILLISECOND);
    h.run_epochs(40).unwrap();
    let r = h.finish();
    assert!(r.recovered, "failover must succeed");
    assert_eq!(r.failovers, 1);
    assert_eq!(r.broken_connections, 0, "no RST may reach a client");
    r.verify.expect("read-your-writes across the replayed failover");

    let recs = ring.snapshot();
    let replayed = recs.iter().find_map(|rec| match &rec.kind {
        TraceEvent::ReplayComplete { events, .. } => Some(*events),
        _ => None,
    });
    assert!(
        recs.iter()
            .any(|rec| matches!(rec.kind, TraceEvent::ReplayStart { .. })),
        "failover must attempt the replay path"
    );
    assert!(
        replayed.is_some_and(|ev| ev > 0),
        "the sealed mid-epoch tail must replay events: {replayed:?}"
    );
    assert!(
        !recs
            .iter()
            .any(|rec| matches!(rec.kind, TraceEvent::ReplayDiverge { .. })),
        "a cleanly sealed tail must not diverge"
    );
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
    let w = workloads::redis(Scale::small(), 4, None);
    let mut opts = OptimizationConfig::nilicon();
    opts.hybrid_replay = true;
    let mut engine = NiLiConEngine::new(opts, CostModel::default());
    // Tuned so the link dies inside the fault epoch (which ships chunks
    // 25–27 of this deterministic run): 25 and 26 land, 27 and the seal are
    // lost → the backup holds a seal-less partial prefix.
    engine.log_fail_after_chunks = Some(26);
    let mode = RunMode::Replicated(Box::new(engine));
    let mut h = RunHarness::new(
        w.spec,
        w.app,
        w.behavior,
        mode,
        ReplicationConfig::default(),
        w.parallelism,
    )
    .unwrap();
    let (tracer, ring) = Tracer::in_memory(8192);
    h.set_tracer(tracer);
    h.inject_fault_at(415 * MILLISECOND);
    h.run_epochs(40).unwrap();
    let r = h.finish();
    assert!(r.recovered, "fallback recovery must succeed");
    assert_eq!(r.failovers, 1);
    assert_eq!(r.broken_connections, 0);

    let recs = ring.snapshot();
    let reason = recs.iter().find_map(|rec| match &rec.kind {
        TraceEvent::ReplayDiverge { reason } => Some(reason.clone()),
        _ => None,
    });
    assert_eq!(
        reason.as_deref(),
        Some("partial"),
        "the seal-less tail must force the last-checkpoint fallback"
    );
    assert!(
        !recs
            .iter()
            .any(|rec| matches!(rec.kind, TraceEvent::ReplayComplete { .. })),
        "nothing may be replayed past a partial tail"
    );
}
