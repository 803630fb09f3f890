//! The failure detector (§IV).
//!
//! The primary agent sends a heartbeat to the backup agent every 30 ms — but
//! only if the container's `cpuacct.usage` has advanced, so a wedged
//! container is detected even when its host is healthy. A keep-alive process
//! in the container wakes every 30 ms and executes ~1000 instructions to keep
//! `cpuacct` moving when the application is idle. The backup initiates
//! recovery after three consecutive missed 30 ms intervals; the paper reports
//! an average detection latency of 90 ms.

use crate::trace::{TraceEvent, Tracer};
use nilicon_sim::time::{Nanos, MILLISECOND};
use nilicon_sim::{SimError, SimResult};

/// Heartbeat interval (§IV: 30 ms).
pub(crate) const HEARTBEAT_INTERVAL: Nanos = 30 * MILLISECOND;
/// Consecutive missed heartbeats before failover (§IV: 3).
pub(crate) const HEARTBEAT_MISSES: u32 = 3;

/// Primary-side heartbeat gate: emit a beat only if cpuacct advanced.
#[derive(Debug, Default)]
pub struct HeartbeatSender {
    last_cpuacct: Nanos,
    beats_sent: u64,
    beats_suppressed: u64,
}

impl HeartbeatSender {
    /// New sender.
    pub fn new() -> Self {
        Self::default()
    }

    /// Called every heartbeat interval with the current `cpuacct.usage`.
    /// Returns true if a beat should be sent.
    pub fn tick(&mut self, cpuacct_usage: Nanos) -> bool {
        if cpuacct_usage > self.last_cpuacct {
            self.last_cpuacct = cpuacct_usage;
            self.beats_sent += 1;
            true
        } else {
            self.beats_suppressed += 1;
            false
        }
    }

    /// `(sent, suppressed)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.beats_sent, self.beats_suppressed)
    }
}

/// Backup-side detector: 3 consecutive missed intervals ⇒ failure.
#[derive(Debug)]
pub struct FailureDetector {
    last_beat: Nanos,
    /// Latest beat heard, suspicion or not: one after `detected_at` proves
    /// the suspicion false.
    heard: Nanos,
    detected_at: Option<Nanos>,
    /// Missed intervals already traced since the last beat (dedupes
    /// `HeartbeatMiss` events across repeated `check` calls).
    misses_traced: u32,
    tracer: Tracer,
}

impl FailureDetector {
    /// New detector; `start` anchors the first interval.
    pub fn new(start: Nanos) -> Self {
        FailureDetector {
            last_beat: start,
            heard: start,
            detected_at: None,
            misses_traced: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a [`Tracer`]: each missed interval emits one
    /// [`TraceEvent::HeartbeatMiss`] at the interval boundary where the
    /// backup noticed the silence.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// A heartbeat arrived at time `t`.
    pub fn on_beat(&mut self, t: Nanos) {
        self.heard = self.heard.max(t);
        if self.detected_at.is_none() {
            self.last_beat = self.last_beat.max(t);
            self.misses_traced = 0;
        }
    }

    /// Evaluate at time `now`: has a failure been detected?
    pub fn check(&mut self, now: Nanos) -> bool {
        if self.detected_at.is_some() {
            return true;
        }
        if self.tracer.enabled() && now > self.last_beat {
            // Trace each interval boundary that elapsed beat-less, capped at
            // the detection threshold.
            let elapsed =
                (((now - self.last_beat) / HEARTBEAT_INTERVAL) as u32).min(HEARTBEAT_MISSES);
            for k in (self.misses_traced + 1)..=elapsed {
                self.tracer.event_at(
                    TraceEvent::HeartbeatMiss { misses: k },
                    self.last_beat + k as Nanos * HEARTBEAT_INTERVAL,
                );
            }
            self.misses_traced = self.misses_traced.max(elapsed);
        }
        let threshold = self.last_beat + HEARTBEAT_MISSES as Nanos * HEARTBEAT_INTERVAL;
        if now >= threshold {
            // The detector notices at the interval boundary following the
            // third miss.
            self.detected_at = Some(threshold);
            return true;
        }
        false
    }

    /// When detection fired (after [`FailureDetector::check`] returned true).
    pub fn detected_at(&self) -> Option<Nanos> {
        self.detected_at
    }

    /// The latest beat heard, including those after detection fired.
    pub(crate) fn heard(&self) -> Nanos {
        self.heard
    }

    /// The first heartbeat-interval boundary at or after `t`, and after the
    /// last beat — the earliest instant the backup can notice silence that
    /// began at `t`; a poll that just asked at a boundary asks next at
    /// `next_boundary(t + 1)`. Detection polling must walk these boundaries:
    /// the detector only ever changes state on its own beat grid, so
    /// probing on a grid offset from it (e.g. stepping from the fault time)
    /// asks about instants where nothing can happen.
    pub fn next_boundary(&self, t: Nanos) -> Nanos {
        if t <= self.last_beat {
            return self.last_beat + HEARTBEAT_INTERVAL;
        }
        let intervals = (t - self.last_beat).div_ceil(HEARTBEAT_INTERVAL).max(1);
        self.last_beat + intervals * HEARTBEAT_INTERVAL
    }

    /// Cancel a standing detection at time `t`: a late heartbeat proved the
    /// suspicion false before promotion went through. Only meaningful when
    /// promotion is gated on something slower than detection (a lease, or a
    /// first commit still to come); the lane's owner rule calls it, and on
    /// the paper path, where detection promotes at once, it never fires.
    /// Re-anchors the silence window at `t`.
    pub fn rescind(&mut self, t: Nanos) {
        self.detected_at = None;
        self.last_beat = self.last_beat.max(t);
        self.misses_traced = 0;
    }

    /// Detection latency for a fault at `fault_time` (None before
    /// detection). A detection time *earlier* than the fault means the
    /// detector carries stale state (e.g. it was not reset after a previous
    /// failover) — that is a simulation bug, reported as a hard error rather
    /// than silently clamped to zero.
    pub fn detection_latency(&self, fault_time: Nanos) -> SimResult<Option<Nanos>> {
        match self.detected_at {
            None => Ok(None),
            Some(d) if d < fault_time => Err(SimError::Invalid(format!(
                "detection at {d}ns precedes the fault at {fault_time}ns: stale detector state"
            ))),
            Some(d) => Ok(Some(d - fault_time)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS30: Nanos = HEARTBEAT_INTERVAL;

    #[test]
    fn sender_gates_on_cpuacct_progress() {
        let mut s = HeartbeatSender::new();
        assert!(s.tick(100), "progress -> beat");
        assert!(!s.tick(100), "no progress -> suppressed");
        assert!(s.tick(150));
        assert_eq!(s.counters(), (2, 1));
    }

    #[test]
    fn detector_fires_after_three_misses() {
        let mut d = FailureDetector::new(0);
        // Healthy beats.
        for i in 1..=5u64 {
            d.on_beat(i * MS30);
            assert!(!d.check(i * MS30 + MILLISECOND));
        }
        // Fault at t=150ms: no more beats.
        let fault = 5 * MS30;
        assert!(!d.check(fault + 2 * MS30), "two misses: not yet");
        assert!(d.check(fault + 3 * MS30), "three misses: detected");
        assert_eq!(d.detected_at(), Some(fault + 3 * MS30));
        assert_eq!(
            d.detection_latency(fault).unwrap(),
            Some(90 * MILLISECOND),
            "§VII-B: ~90ms"
        );
    }

    #[test]
    fn beats_after_detection_are_ignored() {
        let mut d = FailureDetector::new(0);
        assert!(d.check(3 * MS30));
        d.on_beat(4 * MS30);
        assert!(d.check(4 * MS30), "detection is sticky");
        assert_eq!(d.detected_at(), Some(3 * MS30));
    }

    #[test]
    fn no_false_positive_while_beating() {
        let mut d = FailureDetector::new(0);
        let mut t = 0;
        for _ in 0..1000 {
            t += MS30;
            d.on_beat(t);
            assert!(!d.check(t + MS30 / 2));
        }
    }

    #[test]
    fn missed_intervals_emit_deduplicated_trace_events() {
        let (tracer, ring) = crate::trace::Tracer::in_memory(16);
        let mut d = FailureDetector::new(0);
        d.set_tracer(tracer);
        d.on_beat(MS30);
        // Repeated checks within the same silence window: one event per
        // missed interval, no duplicates.
        assert!(!d.check(2 * MS30 + MILLISECOND));
        assert!(!d.check(2 * MS30 + 2 * MILLISECOND));
        assert!(!d.check(3 * MS30 + MILLISECOND));
        assert!(d.check(4 * MS30));
        let misses: Vec<_> = ring
            .snapshot()
            .into_iter()
            .filter_map(|r| match r.kind {
                TraceEvent::HeartbeatMiss { misses } => Some((misses, r.t)),
                _ => None,
            })
            .collect();
        assert_eq!(misses, vec![(1, 2 * MS30), (2, 3 * MS30), (3, 4 * MS30)]);
        // A beat resets the miss counter.
        let mut d2 = FailureDetector::new(0);
        let (tr2, ring2) = crate::trace::Tracer::in_memory(16);
        d2.set_tracer(tr2);
        assert!(!d2.check(MS30 + MILLISECOND));
        d2.on_beat(2 * MS30);
        assert!(!d2.check(3 * MS30 + MILLISECOND));
        assert_eq!(ring2.len(), 2, "one miss before the beat, one after");
    }

    #[test]
    fn mid_interval_fault_detection_latency_bounds() {
        // Fault lands mid-interval: latency between 90 and 120 ms.
        let mut d = FailureDetector::new(0);
        d.on_beat(MS30);
        let fault = MS30 + 17 * MILLISECOND;
        // Poll on the detector's own beat grid.
        let mut t = d.next_boundary(fault);
        while !d.check(t) {
            t += MS30;
        }
        let lat = d.detection_latency(fault).unwrap().unwrap();
        assert!(
            (73 * MILLISECOND..=120 * MILLISECOND).contains(&lat),
            "latency {}ms",
            lat / MILLISECOND
        );
    }

    #[test]
    fn next_boundary_lands_on_the_beat_grid() {
        let mut d = FailureDetector::new(0);
        d.on_beat(5 * MS30);
        // At or before the last beat: the following boundary.
        assert_eq!(d.next_boundary(0), 6 * MS30);
        assert_eq!(d.next_boundary(5 * MS30), 6 * MS30);
        // Mid-interval: rounds up to the next boundary, never past it.
        assert_eq!(d.next_boundary(5 * MS30 + 1), 6 * MS30);
        assert_eq!(d.next_boundary(6 * MS30 - 1), 6 * MS30);
        // Exactly on a later boundary: stays there.
        assert_eq!(d.next_boundary(7 * MS30), 7 * MS30);
    }

    #[test]
    fn rescind_cancels_detection_and_reanchors() {
        let mut d = FailureDetector::new(0);
        assert!(d.check(3 * MS30), "silence from t=0 detects at 90ms");
        // A late beat arrives at 95ms; the owner rule rescinds the suspicion.
        d.rescind(95 * MILLISECOND);
        assert_eq!(d.detected_at(), None);
        assert!(!d.check(95 * MILLISECOND + 2 * MS30), "window re-anchored");
        assert!(d.check(95 * MILLISECOND + 3 * MS30), "silence detects again");
    }

    #[test]
    fn detection_before_fault_is_a_hard_error() {
        let mut d = FailureDetector::new(0);
        assert!(d.check(3 * MS30));
        // Asking about a fault *after* the (stale) detection must error, not
        // silently report a 0ns latency.
        assert!(d.detection_latency(4 * MS30).is_err());
        assert_eq!(d.detection_latency(0).unwrap(), Some(3 * MS30));
        // Undetected: no latency, no error.
        let d2 = FailureDetector::new(0);
        assert_eq!(d2.detection_latency(0).unwrap(), None);
    }
}
