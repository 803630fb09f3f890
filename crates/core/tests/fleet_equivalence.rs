//! Fleet-scale extension equivalence + fault isolation (EXTENSION,
//! `--fleet N`).
//!
//! * `--fleet 1` is the identity: a one-lane fleet runs the same per-epoch
//!   stop/ack outcomes — and hence the same reconciliation identities — as
//!   a plain single-engine loop over the same write history. Its committed
//!   and restored heap under every knob it composes with is
//!   `tests/lattice.rs`'s fleet axis.
//! * Faults are lane-scoped: failing container A's processes promotes only
//!   A to the backup; container B keeps serving on the primary with zero
//!   broken connections and no output discarded.

use nilicon::fleet::{FleetScheduler, LaneSpec};
use nilicon::trace::{TraceEvent, Tracer};
use nilicon::traffic::ClientBehavior;
use nilicon::{Checkpointer, NiLiConEngine, OptimizationConfig, ReplicationConfig};
use nilicon_container::{
    Application, ContainerRuntime, ContainerSpec, GuestCtx, MemLayout, RequestOutcome,
};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::time::Nanos;
use nilicon_sim::SimResult;
use proptest::prelude::*;

/// One epoch's worth of guest writes: (heap page, byte value).
type EpochWrites = Vec<(u64, u8)>;

/// Per-epoch `(stop_time, ack_delay, state_bytes, dirty_pages)`.
type Outcomes = Vec<(Nanos, Nanos, u64, u64)>;

/// An application that does nothing by itself (the test scripts guest
/// writes directly, exactly like the plain engine-loop histories).
struct Inert;
impl Application for Inert {
    fn name(&self) -> &str {
        "inert"
    }
    fn init(&mut self, _ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        Ok(())
    }
}

/// Plain single-engine loop over `history`.
fn run_plain(opts: OptimizationConfig, history: &[EpochWrites]) -> Outcomes {
    let mut p = Kernel::default();
    let mut b = Kernel::default();
    let spec = ContainerSpec::server("redis", 10, 6379);
    let c = ContainerRuntime::create(&mut p, &spec).unwrap();
    let mut e = NiLiConEngine::new(opts, p.costs.clone());
    e.prepare(&mut p, &c).unwrap();
    let mut outcomes = Vec::new();
    for (i, writes) in history.iter().enumerate() {
        let epoch = i as u64 + 1;
        for &(page, val) in writes {
            p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[val])
                .unwrap();
        }
        e.pipeline_advance(30_000_000);
        let o = e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
        e.commit(&mut b, epoch).unwrap();
        outcomes.push((o.stop_time, o.ack_delay, o.state_bytes, o.dirty_pages));
    }
    outcomes
}

/// The same history through a one-lane fleet.
fn run_fleet1(opts: OptimizationConfig, history: &[EpochWrites]) -> Outcomes {
    let mut cfg = ReplicationConfig { opts, ..Default::default() };
    cfg.opts.fleet = 1;
    let mut fleet = FleetScheduler::new(
        cfg,
        vec![LaneSpec {
            spec: ContainerSpec::server("redis", 10, 6379),
            app: Box::new(Inert),
            behavior: None,
        }],
    )
    .unwrap();
    fleet.script_writes(0, history.to_vec());
    fleet.run_epochs(history.len() as u64).unwrap();
    let r = fleet.finish();
    r.lanes[0]
        .metrics
        .epochs
        .iter()
        .map(|e| (e.stop_time, e.ack_delay, e.state_bytes, e.dirty_pages))
        .collect()
}

fn arb_history() -> impl Strategy<Value = Vec<EpochWrites>> {
    proptest::collection::vec(
        proptest::collection::vec((0u64..300, any::<u8>()), 0..40),
        8..13,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `--fleet 1` is the identity, under the paper config and with the
    /// delta shadow store on: the same per-epoch stop/ack/bytes/pages (so
    /// the reconciliation identities, which the fleet checks internally
    /// every epoch, match too).
    #[test]
    fn one_lane_fleet_matches_the_plain_engine_loop_epoch_by_epoch(history in arb_history()) {
        for (label, opts) in [
            ("nilicon", OptimizationConfig::nilicon()),
            ("nilicon+delta", OptimizationConfig {
                delta_transfer: true,
                ..OptimizationConfig::nilicon()
            }),
        ] {
            prop_assert_eq!(
                run_plain(opts, &history),
                run_fleet1(opts, &history),
                "{}: per-epoch outcomes",
                label
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Two-container fault isolation
// ---------------------------------------------------------------------------

/// In-guest key/value-ish app: stages each request through guest heap and
/// echoes it back (so committed state actually covers served requests).
struct EchoApp;
impl Application for EchoApp {
    fn name(&self) -> &str {
        "echo"
    }
    fn init(&mut self, _ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        Ok(())
    }
    fn handle_request(&mut self, ctx: &mut GuestCtx<'_>, req: &[u8]) -> SimResult<RequestOutcome> {
        ctx.cpu(40_000);
        ctx.heap_write(0, req)?;
        let mut back = vec![0u8; req.len()];
        ctx.heap_read(0, &mut back)?;
        Ok(RequestOutcome { response: back })
    }
}

/// Closed-loop clients issuing tagged payloads and verifying every echo.
struct TaggedClients {
    n: usize,
    tag: u8,
    issued: u64,
    got: u64,
    bad: u64,
}

impl ClientBehavior for TaggedClients {
    fn client_count(&self) -> usize {
        self.n
    }
    fn next_request(&mut self, idx: usize, _now: Nanos) -> Option<Vec<u8>> {
        self.issued += 1;
        Some(vec![self.tag, idx as u8, (self.issued % 251) as u8])
    }
    fn on_response(&mut self, idx: usize, resp: &[u8], _now: Nanos, _latency: Nanos) {
        self.got += 1;
        if resp.len() != 3 || resp[0] != self.tag || resp[1] != idx as u8 {
            self.bad += 1;
        }
    }
    fn verify(&self) -> Result<(), String> {
        if self.bad > 0 {
            return Err(format!("{} corrupted echoes (tag {})", self.bad, self.tag));
        }
        if self.got == 0 {
            return Err(format!("no responses completed (tag {})", self.tag));
        }
        Ok(())
    }
}

fn lane(i: u32, clients: usize) -> LaneSpec {
    let mut spec = ContainerSpec::server(&format!("svc{i}"), 10 + i, 6379);
    spec.heap_pages = 64;
    LaneSpec {
        spec,
        app: Box::new(EchoApp),
        behavior: Some(Box::new(TaggedClients {
            n: clients,
            tag: 0x40 + i as u8,
            issued: 0,
            got: 0,
            bad: 0,
        })),
    }
}

/// Fault container A mid-run: A fails over to the backup and recovers; B
/// never notices — it stays on the primary, all its clients' connections
/// survive, and no B output is ever discarded.
#[test]
fn lane_fault_promotes_only_that_lane() {
    let mut cfg = ReplicationConfig {
        opts: OptimizationConfig::nilicon(),
        ..Default::default()
    };
    cfg.opts.fleet = 2;
    let mut fleet = FleetScheduler::new(cfg, vec![lane(0, 2), lane(1, 2)]).unwrap();
    let (tracer_b, ring_b) = Tracer::in_memory(4096);
    fleet.set_tracer(1, tracer_b);

    fleet.run_epochs(10).unwrap();
    // Fault A's container between epoch boundaries.
    fleet.inject_lane_fault_at(0, 310_000_000);
    fleet.run_epochs(30).unwrap();
    let r = fleet.finish();

    let a = &r.lanes[0];
    assert_eq!(a.failovers, 1, "lane A failed over once");
    assert!(a.on_backup, "lane A now owned by the backup");
    assert!(a.failover.as_ref().is_some_and(|f| f.total() > 0));
    assert!(a.detection_latency.is_some());
    assert!(!a.split_brain);
    assert_eq!(a.broken_connections, 0, "A's clients reconnect-free: {:?}", a.verify);
    a.verify.as_ref().expect("lane A verifies after failover");

    let b = &r.lanes[1];
    assert_eq!(b.failovers, 0, "lane B untouched");
    assert!(!b.on_backup, "lane B still on the primary");
    assert_eq!(b.broken_connections, 0, "B's clients see zero broken connections");
    b.verify.as_ref().expect("lane B verifies");
    assert!(
        b.metrics.requests_total > 0,
        "B kept serving through A's failover"
    );
    let discards: Vec<_> = ring_b
        .snapshot()
        .into_iter()
        .filter(|rec| matches!(rec.kind, TraceEvent::OutputDiscard { .. }))
        .collect();
    assert!(discards.is_empty(), "no B output discarded: {discards:?}");

    assert_eq!(r.split_brains(), 0);
}

/// A second fault on a lane that already failed over finds no backup: the
/// lane is lost, and its neighbour still never notices.
#[test]
fn second_lane_fault_leaves_the_lane_unrecovered() {
    let mut cfg = ReplicationConfig {
        opts: OptimizationConfig::nilicon(),
        ..Default::default()
    };
    cfg.opts.fleet = 2;
    let mut fleet = FleetScheduler::new(cfg, vec![lane(0, 2), lane(1, 2)]).unwrap();
    fleet.inject_lane_fault_at(0, 310_000_000);
    fleet.run_epochs(30).unwrap();
    fleet.inject_lane_fault_at(0, 1_600_000_000);
    fleet.run_epochs(30).unwrap();
    let r = fleet.finish();

    let a = &r.lanes[0];
    assert_eq!(a.failovers, 1, "nothing left to fail over to");
    assert!(a.unrecovered, "the second fault takes lane A down");

    let b = &r.lanes[1];
    assert_eq!(b.failovers, 0, "lane B untouched");
    assert!(!b.unrecovered);
    assert_eq!(b.broken_connections, 0);
    b.verify.as_ref().expect("lane B verifies");
    assert_eq!(r.split_brains(), 0);
}

/// A fleet run with no faults: every lane verifies, zero broken
/// connections, and the consolidated heartbeat channel saw every lane's
/// liveness bit each interval.
#[test]
fn staggered_fleet_steady_state_serves_all_lanes() {
    let mut cfg = ReplicationConfig {
        opts: OptimizationConfig::nilicon(),
        ..Default::default()
    };
    cfg.opts.fleet = 4;
    let mut fleet =
        FleetScheduler::new(cfg, (0..4).map(|i| lane(i, 2)).collect()).unwrap();
    fleet.run_epochs(20).unwrap();
    let r = fleet.finish();
    for (i, l) in r.lanes.iter().enumerate() {
        assert_eq!(l.failovers, 0);
        assert_eq!(l.broken_connections, 0, "lane {i}");
        l.verify.as_ref().unwrap_or_else(|e| panic!("lane {i}: {e}"));
        assert!(l.metrics.requests_total > 0, "lane {i} served requests");
    }
    assert!(r.heartbeat_intervals > 0);
    assert_eq!(r.min_live_bits, 4, "all four liveness bits in every interval");
    assert_eq!(r.split_brains(), 0);
}
