//! Property tests of the chaos link's partition/heal model: no message is
//! ever delivered while a partition covering its send time is still open,
//! and healing flushes held messages in FIFO send order — the `sch_plug`
//! semantics the split-brain fencing argument (DESIGN.md §9) rests on.

use nilicon_sim::net::{ChaosLink, ChaosSchedule, FaultKind, LinkDir};
use nilicon_sim::time::Nanos;
use proptest::prelude::*;

const MS: Nanos = 1_000_000;

/// Random partition windows (possibly overlapping / back-to-back) plus
/// random send times, all within a 100 ms horizon.
fn scenario() -> impl Strategy<Value = (Vec<(Nanos, Nanos)>, Vec<Nanos>, Nanos)> {
    let windows = proptest::collection::vec(
        (0u64..90, 1u64..40).prop_map(|(from, len)| (from * MS, (from + len) * MS)),
        0..4,
    );
    let sends = proptest::collection::vec((0u64..100_000).prop_map(|t| t * (MS / 1000)), 1..40);
    let latency = 1u64..200_000;
    (windows, sends, latency)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn nothing_crosses_an_open_partition_and_heal_flushes_in_order(
        (windows, mut sends, latency) in scenario()
    ) {
        let mut sched = ChaosSchedule::default();
        for &(from, until) in &windows {
            sched = sched.window(from, until, FaultKind::Partition);
        }
        sends.sort_unstable();
        let mut link: ChaosLink<usize> = ChaosLink::new(LinkDir::AtoB, latency, sched.clone());
        for (i, &t) in sends.iter().enumerate() {
            link.send(t, i);
        }
        // Drain far past every window.
        let horizon = windows.iter().map(|w| w.1).max().unwrap_or(0) + 200 * MS;
        let delivered = link.poll(horizon);

        // Every message arrives exactly once (partitions hold, never drop)…
        let ids: Vec<usize> = delivered.iter().map(|&(_, m)| m).collect();
        prop_assert_eq!(ids.len(), sends.len());

        for &(at, m) in &delivered {
            let sent = sends[m];
            // …never before its send time plus base latency…
            prop_assert!(at >= sent + latency);
            // …and never while any partition covering its send time is
            // still open: delivery happens at/after the healed instant.
            prop_assert!(
                at >= sched.partition_release(sent) + latency,
                "msg sent at {} delivered at {} inside a partition", sent, at
            );
            prop_assert!(!sched.partitioned(at - latency), "departed mid-partition");
        }

        // FIFO: send order == delivery order (delivery times tie-broken by
        // send order in poll, and the clamp forbids overtaking).
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&ids, &sorted, "heal must flush in send order");

        // Delivery times are monotonic in send order.
        for pair in delivered.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0);
        }
    }

    #[test]
    fn incremental_polling_matches_one_shot_drain(
        (windows, mut sends, latency) in scenario()
    ) {
        let mut sched = ChaosSchedule::default();
        for &(from, until) in &windows {
            sched = sched.window(from, until, FaultKind::Partition);
        }
        sends.sort_unstable();
        let mut eager: ChaosLink<usize> = ChaosLink::new(LinkDir::AtoB, latency, sched.clone());
        let mut lazy: ChaosLink<usize> = ChaosLink::new(LinkDir::AtoB, latency, sched.clone());
        let horizon = windows.iter().map(|w| w.1).max().unwrap_or(0) + 200 * MS;

        // Eager: poll after every send (a harness polling each epoch).
        let mut eager_out = Vec::new();
        for (i, &t) in sends.iter().enumerate() {
            eager.send(t, i);
            eager_out.extend(eager.poll(t));
        }
        eager_out.extend(eager.poll(horizon));

        // Lazy: single drain at the end.
        for (i, &t) in sends.iter().enumerate() {
            lazy.send(t, i);
        }
        let lazy_out = lazy.poll(horizon);

        prop_assert_eq!(eager_out, lazy_out, "poll cadence must not change delivery");
    }
}
