//! Adversarial fault injection on the replication/heartbeat link.
//!
//! The paper's evaluation (§VII) only ever fail-stops the primary; the
//! failure modes that actually break primary-backup replication are link
//! partitions, asymmetric loss, and delay-induced detector false positives.
//! This module models those faults on the *replication link* — the dedicated
//! interface carrying checkpoint transfers (primary → backup), epoch acks
//! (backup → primary), and heartbeats — as a schedule of timed fault windows
//! plus a per-direction [`ChaosLink`] message channel that applies them.
//!
//! Semantics, chosen to mirror what the real interconnect does:
//!
//! * **Partition** — bidirectional. Messages sent while the partition is open
//!   are *held* (switch-buffer / retransmission-queue emulation, the same
//!   `sch_plug` idea as [`super::PlugQdisc`]) and flush in FIFO order when
//!   the window closes. Nothing is ever delivered across an open partition.
//! * **Asymmetric loss** — directional. `drop_nth == 1` is a blackout of that
//!   direction; `drop_nth == n > 1` drops every n-th message (heartbeat loss
//!   below the detector threshold, dropped acks).
//! * **Delay spike** — adds `extra` one-way latency in both directions while
//!   active (congestion, a misbehaving switch).
//! * **Reorder** — adjacent live sends within the window swap delivery
//!   order (multipath reordering).
//!
//! Outside reorder windows delivery is FIFO: each message's delivery time is
//! clamped to be no earlier than the previously scheduled one.

use crate::time::Nanos;

/// Direction over the two-endpoint replication link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDir {
    /// Primary → backup: checkpoint transfer and heartbeats.
    AtoB,
    /// Backup → primary: epoch acknowledgments.
    BtoA,
}

/// One kind of injected link fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Bidirectional partition: hold while open, FIFO flush at heal.
    Partition,
    /// Directional loss: drop every `drop_nth`-th message sent in `dir`
    /// (`drop_nth == 1` blacks the direction out entirely).
    AsymLoss {
        /// Affected direction.
        dir: LinkDir,
        /// Drop period (1 = every message).
        drop_nth: u64,
    },
    /// Extra one-way latency in both directions while active.
    DelaySpike {
        /// Added one-way delay.
        extra: Nanos,
    },
    /// Adjacent sends within the window swap delivery order.
    Reorder,
}

/// A fault active over the half-open virtual-time window `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// Window start (inclusive).
    pub from: Nanos,
    /// Window end (exclusive) — the heal instant for partitions.
    pub until: Nanos,
    /// The fault in effect.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether `t` falls inside the window.
    pub fn covers(&self, t: Nanos) -> bool {
        self.from <= t && t < self.until
    }
}

/// A timed schedule of fault windows — the injectable chaos configuration.
///
/// Windows may overlap; queries combine all windows active at `t`.
#[derive(Debug, Clone, Default)]
pub struct ChaosSchedule {
    /// The fault windows, in no particular order.
    pub windows: Vec<FaultWindow>,
}

impl ChaosSchedule {
    /// Builder: append a window.
    pub fn window(mut self, from: Nanos, until: Nanos, kind: FaultKind) -> Self {
        assert!(from < until, "empty fault window");
        self.windows.push(FaultWindow { from, until, kind });
        self
    }

    /// Whether any partition window covers `t`.
    pub fn partitioned(&self, t: Nanos) -> bool {
        self.windows
            .iter()
            .any(|w| w.kind == FaultKind::Partition && w.covers(t))
    }

    /// Earliest time `>= t` not covered by any partition window (the instant
    /// a message sent at `t` can depart). Walks chained windows to a
    /// fixpoint, so back-to-back partitions compose.
    pub fn partition_release(&self, t: Nanos) -> Nanos {
        let mut t = t;
        loop {
            let next = self
                .windows
                .iter()
                .filter(|w| w.kind == FaultKind::Partition && w.covers(t))
                .map(|w| w.until)
                .max();
            match next {
                Some(until) => t = until,
                None => return t,
            }
        }
    }

    /// Whether direction `dir` is fully cut at `t`: partitioned, or blacked
    /// out by an `AsymLoss { drop_nth: 1 }` window.
    pub fn blocked(&self, t: Nanos, dir: LinkDir) -> bool {
        self.partitioned(t)
            || self.windows.iter().any(|w| {
                w.covers(t) && w.kind == FaultKind::AsymLoss { dir, drop_nth: 1 }
            })
    }

    /// Partial-loss period active in `dir` at `t` (`drop_nth >= 2`), if any.
    pub fn loss_period(&self, t: Nanos, dir: LinkDir) -> Option<u64> {
        self.windows.iter().find_map(|w| match w.kind {
            FaultKind::AsymLoss { dir: d, drop_nth } if d == dir && drop_nth >= 2 && w.covers(t) => {
                Some(drop_nth)
            }
            _ => None,
        })
    }

    /// Sum of extra one-way delay active at `t`.
    pub fn delay_extra(&self, t: Nanos) -> Nanos {
        self.windows
            .iter()
            .filter_map(|w| match w.kind {
                FaultKind::DelaySpike { extra } if w.covers(t) => Some(extra),
                _ => None,
            })
            .sum()
    }

    /// Whether a reorder window covers `t`.
    pub fn reordering(&self, t: Nanos) -> bool {
        self.windows
            .iter()
            .any(|w| w.kind == FaultKind::Reorder && w.covers(t))
    }
}

/// One direction of the replication link under a chaos schedule.
///
/// `send(t, msg)` stamps the message with a delivery time derived from the
/// schedule (held across partitions, dropped by loss, stretched by spikes,
/// swapped by reorder); `poll(now)` drains everything due by `now` in
/// delivery order. Both endpoints share virtual time, so the link is just a
/// delay line with faults.
#[derive(Debug)]
pub struct ChaosLink<T> {
    dir: LinkDir,
    latency: Nanos,
    schedule: ChaosSchedule,
    sent: u64,
    dropped: u64,
    delivered: u64,
    /// In flight: `(delivery_time, seq, msg)` — seq breaks ties stably.
    in_flight: Vec<(Nanos, u64, T)>,
    /// FIFO clamp: no later message schedules before this.
    last_sched: Nanos,
    /// Reorder buddy awaiting its swap partner: `(natural_delivery, msg)`.
    swap_pending: Option<(Nanos, T)>,
}

impl<T> ChaosLink<T> {
    /// A link direction with base one-way `latency` under `schedule`.
    pub fn new(dir: LinkDir, latency: Nanos, schedule: ChaosSchedule) -> Self {
        ChaosLink {
            dir,
            latency,
            schedule,
            sent: 0,
            dropped: 0,
            delivered: 0,
            in_flight: Vec::new(),
            last_sched: 0,
            swap_pending: None,
        }
    }

    fn enqueue(&mut self, delivery: Nanos, msg: T) {
        let seq = self.sent;
        self.in_flight.push((delivery, seq, msg));
    }

    /// Send `msg` at virtual time `t`.
    pub fn send(&mut self, t: Nanos, msg: T) {
        self.sent += 1;
        // Directional blackout: silently gone.
        if !self.schedule.partitioned(t)
            && self.schedule.blocked(t, self.dir)
        {
            self.dropped += 1;
            return;
        }
        // Partial loss: drop every n-th message while the window is active.
        if let Some(n) = self.schedule.loss_period(t, self.dir) {
            if self.sent.is_multiple_of(n) {
                self.dropped += 1;
                return;
            }
        }
        // Partition: the message departs only at heal, then travels the
        // (possibly still delayed) link.
        let depart = self.schedule.partition_release(t);
        let natural = depart + self.latency + self.schedule.delay_extra(depart);

        if depart == t && self.schedule.reordering(t) {
            // Live traffic inside a reorder window: pair up adjacent sends
            // and swap their delivery order.
            match self.swap_pending.take() {
                None => {
                    self.swap_pending = Some((natural, msg));
                    return;
                }
                Some((d0, m0)) => {
                    let first = natural.min(d0);
                    let second = natural.max(d0).max(first + 1);
                    self.enqueue(first, msg); // later send delivers first
                    self.enqueue(second, m0);
                    self.last_sched = self.last_sched.max(second);
                    return;
                }
            }
        }
        self.flush_swap();
        // FIFO outside reorder windows: never overtake an earlier message.
        let delivery = natural.max(self.last_sched);
        self.last_sched = delivery;
        self.enqueue(delivery, msg);
    }

    fn flush_swap(&mut self) {
        if let Some((d, m)) = self.swap_pending.take() {
            let delivery = d.max(self.last_sched);
            self.last_sched = delivery;
            let seq = self.sent;
            self.in_flight.push((delivery, seq, m));
        }
    }

    /// Drain every message due by `now`, in `(delivery_time, send order)`
    /// order. Returns `(delivery_time, msg)` pairs.
    pub fn poll(&mut self, now: Nanos) -> Vec<(Nanos, T)> {
        // An unpaired reorder buddy whose window has closed travels normally.
        if self.swap_pending.is_some() && !self.schedule.reordering(now) {
            self.flush_swap();
        }
        let mut due: Vec<(Nanos, u64, T)> = Vec::new();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 <= now {
                due.push(self.in_flight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by_key(|&(d, seq, _)| (d, seq));
        self.delivered += due.len() as u64;
        due.into_iter().map(|(d, _, m)| (d, m)).collect()
    }

    /// Lifetime counters `(sent, delivered, dropped)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        (self.sent, self.delivered, self.dropped)
    }

    /// The schedule this link runs under.
    pub fn schedule(&self) -> &ChaosSchedule {
        &self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MILLISECOND;

    const MS: Nanos = MILLISECOND;
    const LAT: Nanos = 15_000; // 15 µs base latency

    fn link(schedule: ChaosSchedule) -> ChaosLink<u64> {
        ChaosLink::new(LinkDir::AtoB, LAT, schedule)
    }

    #[test]
    fn clean_link_is_a_fifo_delay_line() {
        let mut l = link(ChaosSchedule::default());
        l.send(0, 1);
        l.send(10 * MS, 2);
        assert!(l.poll(LAT - 1).is_empty());
        let got = l.poll(20 * MS);
        assert_eq!(got, vec![(LAT, 1), (10 * MS + LAT, 2)]);
        assert_eq!(l.totals(), (2, 2, 0));
    }

    #[test]
    fn partition_holds_and_heals_in_fifo_order() {
        let sched = ChaosSchedule::default().window(5 * MS, 20 * MS, FaultKind::Partition);
        let mut l = link(sched);
        l.send(6 * MS, 1);
        l.send(12 * MS, 2);
        // Nothing crosses while the partition is open.
        assert!(l.poll(19 * MS).is_empty());
        // Heal: both flush, FIFO, delivered at heal + latency.
        let got = l.poll(21 * MS);
        assert_eq!(got, vec![(20 * MS + LAT, 1), (20 * MS + LAT, 2)]);
    }

    #[test]
    fn back_to_back_partitions_compose() {
        let sched = ChaosSchedule::default()
            .window(5 * MS, 10 * MS, FaultKind::Partition)
            .window(10 * MS, 30 * MS, FaultKind::Partition);
        let mut l = link(sched);
        l.send(6 * MS, 1);
        assert!(l.poll(29 * MS).is_empty());
        assert_eq!(l.poll(31 * MS), vec![(30 * MS + LAT, 1)]);
    }

    #[test]
    fn asym_blackout_drops_one_direction_only() {
        let sched = ChaosSchedule::default().window(
            0,
            10 * MS,
            FaultKind::AsymLoss {
                dir: LinkDir::BtoA,
                drop_nth: 1,
            },
        );
        let mut fwd = ChaosLink::new(LinkDir::AtoB, LAT, sched.clone());
        let mut rev = ChaosLink::new(LinkDir::BtoA, LAT, sched);
        fwd.send(MS, 1);
        rev.send(MS, 1);
        assert_eq!(fwd.poll(10 * MS).len(), 1, "forward direction unaffected");
        assert!(rev.poll(10 * MS).is_empty(), "reverse blacked out");
        assert_eq!(rev.totals(), (1, 0, 1));
    }

    #[test]
    fn partial_loss_drops_every_nth() {
        let sched = ChaosSchedule::default().window(
            0,
            100 * MS,
            FaultKind::AsymLoss {
                dir: LinkDir::AtoB,
                drop_nth: 2,
            },
        );
        let mut l = link(sched);
        for i in 1..=6u64 {
            l.send(i * MS, i);
        }
        let got: Vec<u64> = l.poll(200 * MS).into_iter().map(|(_, m)| m).collect();
        assert_eq!(got, vec![1, 3, 5]);
        assert_eq!(l.totals(), (6, 3, 3));
    }

    #[test]
    fn delay_spike_stretches_latency() {
        let sched =
            ChaosSchedule::default().window(5 * MS, 10 * MS, FaultKind::DelaySpike { extra: 3 * MS });
        let mut l = link(sched);
        l.send(MS, 1); // before the spike: base latency
        l.send(6 * MS, 2); // inside: +3 ms
        let got = l.poll(20 * MS);
        assert_eq!(got, vec![(MS + LAT, 1), (6 * MS + LAT + 3 * MS, 2)]);
    }

    #[test]
    fn reorder_swaps_adjacent_sends() {
        let sched = ChaosSchedule::default().window(0, 10 * MS, FaultKind::Reorder);
        let mut l = link(sched);
        l.send(MS, 1);
        l.send(2 * MS, 2);
        let got: Vec<u64> = l.poll(20 * MS).into_iter().map(|(_, m)| m).collect();
        assert_eq!(got, vec![2, 1], "adjacent pair delivered swapped");
    }

    #[test]
    fn unpaired_reorder_buddy_flushes_after_window() {
        let sched = ChaosSchedule::default().window(0, 10 * MS, FaultKind::Reorder);
        let mut l = link(sched);
        l.send(MS, 1);
        let got: Vec<u64> = l.poll(20 * MS).into_iter().map(|(_, m)| m).collect();
        assert_eq!(got, vec![1], "lone message still arrives");
    }

    #[test]
    fn schedule_queries_compose() {
        let sched = ChaosSchedule::default()
            .window(0, 10 * MS, FaultKind::Partition)
            .window(5 * MS, 20 * MS, FaultKind::DelaySpike { extra: MS });
        assert!(sched.partitioned(0));
        assert!(!sched.partitioned(10 * MS), "until is exclusive");
        assert!(sched.blocked(9 * MS, LinkDir::AtoB));
        assert!(sched.blocked(9 * MS, LinkDir::BtoA));
        assert!(!sched.blocked(10 * MS, LinkDir::AtoB));
        assert_eq!(sched.delay_extra(15 * MS), MS);
        assert_eq!(sched.partition_release(3 * MS), 10 * MS);
    }
}
