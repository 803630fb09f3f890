//! Tier-1 chaos coverage: the partition-brief cell (short partition + heal →
//! recovered, byte-identical committed state) and the fencing guarantees —
//! a false suspicion under delay spikes must not promote while the lease
//! holder is alive, and a fenced promotion must never overlap a valid lease.

use nilicon::harness::{RunHarness, RunMode};
use nilicon::{NiLiConEngine, OptimizationConfig, ReplicationConfig};
use nilicon_bench::chaos::{run_cell, run_state_cell, scenarios, Outcome, Scenario};
use nilicon_sim::net::{ChaosSchedule, FaultKind};
use nilicon_sim::{CostModel, MILLISECOND};
use nilicon_workloads::{redis, Scale};

const MS: u64 = MILLISECOND;

fn catalog(name: &str) -> Scenario {
    scenarios(0)
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("catalog misses {name}"))
}

/// The partition-brief cell: a 60 ms partition heals, the stalled epochs catch up,
/// and the final heap replays byte-identically.
#[test]
fn smoke_partition_heal_recovers_byte_identical() {
    let cell = run_state_cell(&catalog("partition-brief"), 30);
    assert_eq!(cell.outcome, Outcome::Recovered, "err: {:?}", cell.error);
    assert!(cell.state_ok, "committed state must replay byte-identically");
    assert!(
        cell.stats.stalled_epochs > 0,
        "the partition must have cut at least one transfer"
    );
    assert!(!cell.stats.split_brain);
}

/// Delay spikes long enough to trip the 90 ms detector but not kill the
/// primary: the suspicion must be rescinded by the late heartbeat (the lease
/// gate buys the time), with zero failovers.
#[test]
fn false_suspicion_under_delay_does_not_promote_a_live_primary() {
    let sc = Scenario {
        name: "delay-suspicion",
        // One-way 120 ms spike for a single beat interval: the delivery gap
        // exceeds the 90 ms detection threshold, then beats resume.
        schedule: ChaosSchedule::default().window(
            400 * MS,
            430 * MS,
            FaultKind::DelaySpike { extra: 120 * MS },
        ),
        ..Default::default()
    };
    let cell = run_state_cell(&sc, 40);
    assert_eq!(cell.outcome, Outcome::Recovered, "err: {:?}", cell.error);
    assert_eq!(cell.failovers, 0, "a live primary must not be demoted");
    assert!(
        cell.stats.false_suspicions >= 1,
        "the 100ms delay must trip (and rescind) a suspicion: {:?}",
        cell.stats
    );
    assert!(cell.state_ok);
}

/// A partition outliving the lease promotes the backup exactly once, fenced:
/// no split-brain, state intact.
#[test]
fn long_partition_promotes_fenced_without_split_brain() {
    let cell = run_cell(&catalog("partition-long"), 0, 75);
    assert_eq!(cell.outcome, Outcome::Recovered, "err: {:?}", cell.state.error);
    assert_eq!(cell.state.failovers, 1, "fenced promotion must have happened");
    assert!(!cell.state.stats.split_brain);
    assert!(!cell.service.stats.split_brain);
    assert!(cell.state.state_ok && cell.service.service_ok);
}

/// Arming chaos with an empty schedule changes nothing a run measures: the
/// release deferred to the next epoch boundary records the same release
/// waits, latencies and epoch records as the paper path's release at the
/// ack.
#[test]
fn empty_chaos_schedule_leaves_every_metric_unchanged() {
    let run = |armed: bool| {
        let w = redis(Scale::small(), 4);
        let engine = NiLiConEngine::new(OptimizationConfig::nilicon(), CostModel::default());
        let mode = RunMode::Replicated(Box::new(engine));
        let cfg = ReplicationConfig::default();
        let mut h = RunHarness::new(w.spec, w.app, w.behavior, mode, cfg, w.parallelism).unwrap();
        h.run_epochs(1).unwrap();
        if armed {
            h.set_chaos(ChaosSchedule::default());
        }
        h.run_epochs(60).unwrap();
        h.finish().metrics
    };
    let (armed, plain) = (run(true), run(false));
    assert_eq!(armed.release_waits.len(), plain.release_waits.len());
    assert_eq!(format!("{armed:?}"), format!("{plain:?}"));
}
