//! The instrumentation must not change what it measures: a traced repetition
//! (tracer attached; engine, application and client decorated) gives the same
//! virtual metrics, bit for bit, as a plain one, and two plain repetitions of
//! one seed agree with each other.
//!
//! Sizes are the `--quick` ones (every count divided by 8).

use nilicon_benchmark::run::Mode;
use nilicon_benchmark::workloads::{self, Job, Rep, Workload};

fn rep(workload: Workload, seed: u64, mode: Mode) -> Rep {
    let rep = workloads::run(Job {
        workload,
        seed,
        mode,
        divisor: 8,
    })
    .unwrap_or_else(|e| panic!("{} ({}): {e}", workload.name(), mode.as_str()));
    assert_eq!(
        rep.ops_failed,
        0,
        "{} ({}): {:?}",
        workload.name(),
        mode.as_str(),
        rep.failures
    );
    assert!(rep.ops_attempted > 0);
    rep
}

fn bits(rep: &Rep) -> Vec<(&'static str, u64)> {
    rep.virt.iter().map(|(k, v)| (*k, v.to_bits())).collect()
}

/// A `Checkpointer` method left at its default in the decorator would turn
/// an extension off without an error; `redis_staged` and `kn_repair` between
/// them use every optional family (pipeline, log, placement, repair), so a
/// dropped method moves their virtual metrics.
#[test]
fn traced_pass_leaves_virtual_metrics_alone_and_attributes_every_span() {
    for w in Workload::ALL {
        let plain = rep(w, 2, Mode::Plain);
        let traced = rep(w, 2, Mode::Traced);
        assert_eq!(bits(&plain), bits(&traced), "{}", w.name());
        assert_eq!(
            traced.layer["core_trace.unattributed_us"],
            0.0,
            "{}",
            w.name()
        );
        assert!(traced.layer["core_harness.self_host_us"] >= 0.0);
        let staged = matches!(w, Workload::RedisStaged | Workload::StormStaged);
        for name in [
            "sim_mem.cow_protect_host_ns_per_page",
            "sim_mem.cow_drain_host_ns_per_page",
            "criu_delta.encode_host_ns_per_page",
            "criu_delta.wire_ratio",
        ] {
            assert_eq!(traced.layer[name] != 0.0, staged, "{name} on {}", w.name());
        }
        let spans = nilicon_benchmark::report::out_dir().join(format!("{}.spans.json", w.name()));
        assert!(spans.is_file(), "{} not written", spans.display());
    }
}

#[test]
fn equal_seeds_agree_and_different_seeds_differ() {
    let a = rep(Workload::StormSync, 3, Mode::Plain);
    let b = rep(Workload::StormSync, 3, Mode::Plain);
    let c = rep(Workload::StormSync, 4, Mode::Plain);
    assert_eq!(bits(&a), bits(&b));
    assert_ne!(bits(&a), bits(&c));
}
