//! Failover demo: kill the primary mid-run and watch NiLiCon recover —
//! the §VII-A validation experiment, end to end.
//!
//! ```sh
//! cargo run --release --example failover_demo
//! ```

use nilicon_repro::core::harness::{RunHarness, RunMode};
use nilicon_repro::core::{NiLiConEngine, OptimizationConfig, ReplicationConfig};
use nilicon_repro::sim::time::MILLISECOND;
use nilicon_repro::sim::CostModel;
use nilicon_repro::workloads::{self, Scale};

fn main() {
    let workload = workloads::redis(Scale::small(), 4);
    let engine = NiLiConEngine::new(OptimizationConfig::nilicon(), CostModel::default());
    let mut harness = RunHarness::new(
        workload.spec,
        workload.app,
        workload.behavior,
        RunMode::Replicated(Box::new(engine)),
        ReplicationConfig::default(),
        workload.parallelism,
    )
    .expect("harness");

    // Fail-stop fault at t=500ms: all primary traffic blocked, as if the
    // cable were pulled (§VII-A's sch_plug emulation).
    let fault_at = 500 * MILLISECOND;
    harness.inject_fault_at(fault_at);
    println!("running with a fail-stop fault scheduled at t=500ms...");

    harness.run_epochs(60).expect("run with failover");
    assert!(harness.on_backup(), "service moved to the backup");

    let r = harness.finish();
    r.verify.expect("no lost updates, no corrupt values");
    assert!(r.recovered);
    assert_eq!(r.broken_connections, 0);

    let detect = r.detection_latency.expect("fault injected");
    let fo = r.failover.expect("failover report");
    println!("\nTimeline (virtual time):");
    println!(
        "  t={:>6.1}ms  fault: primary partitioned",
        fault_at as f64 / 1e6
    );
    println!(
        "  t={:>6.1}ms  detector fires ({} missed 30ms heartbeats; latency {:.0}ms — paper avg: 90ms)",
        (fault_at + detect) as f64 / 1e6,
        3,
        detect as f64 / 1e6
    );
    println!("\nRecovery breakdown (paper Table II, Redis row: 314/28/23/7 = 372ms):");
    println!(
        "  restore  : {:>6.1} ms  (discard uncommitted, materialize images, CRIU restore)",
        fo.restore as f64 / 1e6
    );
    println!(
        "  ARP      : {:>6.1} ms  (gratuitous ARP moves the address to the backup)",
        fo.arp as f64 / 1e6
    );
    println!(
        "  TCP      : {:>6.1} ms  (un-overlapped retransmission wait, 200ms repair RTO)",
        fo.tcp as f64 / 1e6
    );
    println!("  others   : {:>6.1} ms", fo.others as f64 / 1e6);
    println!("  total    : {:>6.1} ms", fo.total() as f64 / 1e6);
    println!("\nAfter failover:");
    println!(
        "  requests served (incl. on backup): {}",
        r.metrics.requests_total
    );
    println!(
        "  broken client connections        : {}",
        r.broken_connections
    );
    println!("  client consistency check         : OK (every acked write survived)");
}
