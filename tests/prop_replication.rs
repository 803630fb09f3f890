//! Property test of the fundamental Remus/NiLiCon invariant (DESIGN.md
//! invariant 1): **output commit** — any response a client received reflects
//! state that survives failover — across randomized fault times, client
//! counts, and workloads.

use nilicon::harness::{RunHarness, RunMode};
use nilicon::{NiLiConEngine, OptimizationConfig, ReplicationConfig};
use nilicon_sim::time::MILLISECOND;
use nilicon_sim::CostModel;
use nilicon_workloads::{self as workloads, Scale};
use proptest::prelude::*;

fn run_with_fault(
    which: u8,
    clients: usize,
    fault_ms: u64,
    opts: OptimizationConfig,
) -> nilicon::harness::RunResult {
    let scale = Scale::small();
    let w = match which % 3 {
        0 => workloads::redis(scale, clients),
        1 => workloads::ssdb(scale, clients),
        _ => workloads::stack_echo(clients, 4000),
    };
    let mode = RunMode::Replicated(Box::new(NiLiConEngine::new(opts, CostModel::default())));
    let mut h = RunHarness::new(
        w.spec,
        w.app,
        w.behavior,
        mode,
        ReplicationConfig::default(),
        w.parallelism,
    )
    .expect("harness");
    h.inject_fault_at(fault_ms * MILLISECOND);
    h.run_epochs(30).expect("run");
    h.finish()
}

proptest! {
    // Each case is a full replication run; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn output_commit_holds_for_any_fault_time(
        which in 0u8..3,
        clients in 1usize..6,
        fault_ms in 80u64..700,
    ) {
        let r = run_with_fault(which, clients, fault_ms, OptimizationConfig::nilicon());
        prop_assert!(r.recovered, "failover must succeed");
        prop_assert_eq!(r.broken_connections, 0, "no RST may reach a client");
        prop_assert!(r.verify.is_ok(), "consistency: {:?}", r.verify);
        prop_assert!(r.detection_latency.unwrap() <= 150 * MILLISECOND);
    }

    #[test]
    fn output_commit_holds_without_rto_optimization(
        fault_ms in 100u64..600,
    ) {
        // §V-E only affects recovery LATENCY, never correctness.
        let mut opts = OptimizationConfig::nilicon();
        opts.optimized_rto = false;
        let r = run_with_fault(0, 3, fault_ms, opts);
        prop_assert!(r.recovered);
        prop_assert_eq!(r.broken_connections, 0);
        prop_assert!(r.verify.is_ok(), "consistency: {:?}", r.verify);
        // Recovery is slower with the 1s stock RTO.
        let fo = r.failover.unwrap();
        prop_assert!(fo.tcp >= 400 * MILLISECOND, "stock RTO leaves a long TCP tail");
    }

    #[test]
    fn basic_config_is_slower_but_still_correct(
        fault_ms in 150u64..400,
    ) {
        // Every §V optimization is a performance change; none may alter
        // failover correctness.
        let r = run_with_fault(2, 2, fault_ms, OptimizationConfig::basic());
        prop_assert!(r.recovered);
        prop_assert_eq!(r.broken_connections, 0);
        prop_assert!(r.verify.is_ok(), "consistency: {:?}", r.verify);
    }
}
