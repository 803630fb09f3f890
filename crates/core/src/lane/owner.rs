//! The owner rule (§IV, `DESIGN.md` §9.2), pure: time and the two facts the
//! lane knows come in as arguments, what the lane must do goes out as a
//! [`Decision`]. No cluster, container, engine or tracer is reachable from
//! here, so a test can drive [`Rule::decide`] over every event order.
//!
//! The primary agent beats every 30 ms — only if the container's
//! `cpuacct.usage` advanced, so a wedged container is detected even when its
//! host is healthy (the lane keeps that gate). The backup initiates recovery
//! after three consecutive missed 30 ms intervals; the paper reports an
//! average detection latency of 90 ms.

use nilicon_sim::time::{Nanos, MILLISECOND};
use nilicon_sim::{SimError, SimResult};
use std::ops::Range;

/// Heartbeat interval (§IV: 30 ms).
pub(crate) const HEARTBEAT_INTERVAL: Nanos = 30 * MILLISECOND;
/// Consecutive missed heartbeats before failover (§IV: 3).
pub(crate) const HEARTBEAT_MISSES: u32 = 3;

/// Term of both drivers' output-release leases: two heartbeat intervals
/// past the detection threshold (150 ms), so a false suspicion under delay
/// can resolve before the promotion gate opens. The price of the fence is
/// promotion latency: the backup waits out the granted lease even when the
/// primary is truly dead.
pub(crate) const LEASE_TERM: Nanos = (HEARTBEAT_MISSES as Nanos + 2) * HEARTBEAT_INTERVAL;

/// Who holds the service ([`Rule::decide`], [`Lane::owner`]).
///
/// [`Lane::owner`]: super::Lane::owner
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Owner {
    /// The instance keeps the service.
    Serves,
    /// A beat heard at `heard`, after the suspicion, cancelled it
    /// (`FalseSuspicion`): the instance keeps the service.
    Rescinded { heard: Nanos, suspected_for: Nanos },
    /// The backup waits, and nothing changes before this instant: the next
    /// detector boundary, or the end of the granted lease.
    Waits(Nanos),
    /// The backup takes over from the committed image; the detection
    /// latency.
    Promote(Nanos),
    /// The service died with the instance (`OutputDiscard`).
    Lost,
}

/// What the lane must do at one instant: trace the heartbeat misses newly
/// crossed, then act on `owner`.
pub(crate) struct Decision {
    /// Miss counts not reported before, counted from the beat at `beat`.
    misses: Range<u32>,
    beat: Nanos,
    pub owner: Owner,
}

impl Decision {
    /// Each newly crossed `HeartbeatMiss`: its count and the interval
    /// boundary at which the backup noticed the silence.
    pub fn misses(&self) -> impl Iterator<Item = (u32, Nanos)> {
        let beat = self.beat;
        self.misses
            .clone()
            .map(move |k| (k, beat + k as Nanos * HEARTBEAT_INTERVAL))
    }
}

/// One container's failure detector and lease pair: the whole state the
/// owner rule reads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Rule {
    last_beat: Nanos,
    /// Latest beat heard, suspicion or not: one after `detected_at` proves
    /// the suspicion false.
    heard: Nanos,
    pub(super) detected_at: Option<Nanos>,
    /// Missed intervals already reported since the last beat.
    misses_reported: u32,
    /// The lease pair: every fleet lane holds one, the harness only under
    /// chaos.
    pub fence: Option<Fence>,
}

impl Rule {
    /// A detector whose first interval starts at `start`.
    pub fn new(start: Nanos, fence: Option<Fence>) -> Self {
        Rule {
            last_beat: start,
            heard: start,
            detected_at: None,
            misses_reported: 0,
            fence,
        }
    }

    /// A fresh pair at `now` (a rearm completed): re-anchor the detector and
    /// both leases, so a grant left over from before the fault cannot
    /// green-light an instant promotion.
    pub fn restart(&mut self, now: Nanos) {
        let mut fence = self.fence.take();
        if let Some(fence) = fence.as_mut() {
            fence.on_ack(now, now);
        }
        *self = Rule::new(now, fence);
    }

    /// A heartbeat arrived at `t`. Once detection fired it no longer moves
    /// the silence window; the rule reads it as proof of a false suspicion.
    pub fn on_beat(&mut self, t: Nanos) {
        self.heard = self.heard.max(t);
        if self.detected_at.is_none() {
            self.last_beat = self.last_beat.max(t);
            self.misses_reported = 0;
        }
    }

    /// Whether a promotion was ever attempted under a valid holder lease.
    pub fn split_brain(&self) -> bool {
        self.fence.as_ref().is_some_and(Fence::split_brain)
    }

    /// Who holds the service at `now`. `down` is when the instance died
    /// (`None` while it lives, reachable or not); `image` whether a backup
    /// holds a committed image.
    /// * With no committed image a dead instance takes the service with it
    ///   and a live one keeps it: the backup waits, as NiLiCon starts
    ///   detection once replication is up.
    /// * A beat that arrived after a suspicion of a live instance cancels
    ///   it (a dead one's suspicion is never false).
    /// * Otherwise the backup takes over once detection fired and, under a
    ///   fence, the granted lease ran out.
    pub fn decide(&mut self, now: Nanos, down: Option<Nanos>, image: bool) -> SimResult<Decision> {
        let (beat, lost) = (self.last_beat, down.is_some() && !image);
        let misses = if lost { 0..0 } else { self.check(now) };
        let owner = match self.detected_at {
            _ if lost => Owner::Lost,
            // A dead instance waits for the first detector boundary after
            // `now`.
            None => down.map_or(Owner::Serves, |_| Owner::Waits(self.next_boundary(now + 1))),
            Some(detected) if down.is_none() && self.heard > detected => {
                let heard = self.heard;
                self.detected_at = None;
                self.last_beat = self.last_beat.max(heard);
                self.misses_reported = 0;
                let suspected_for = heard - detected;
                Owner::Rescinded {
                    heard,
                    suspected_for,
                }
            }
            Some(_) if !image => Owner::Serves,
            Some(detected) => match self.fence.as_mut() {
                Some(fence) if now < fence.promotable_at() => Owner::Waits(fence.promotable_at()),
                fence => {
                    if let Some(fence) = fence {
                        fence.authorize_promotion(now)?;
                    }
                    // Latency runs from the death (a suspicion standing at
                    // the death detected it at once) or, for a live
                    // instance, from the last beat the backup heard.
                    let since = down.unwrap_or(self.heard);
                    Owner::Promote(detected.max(since) - since)
                }
            },
        };
        Ok(Decision {
            misses,
            beat,
            owner,
        })
    }

    /// Evaluate the silence at `now`: fire detection at the interval
    /// boundary following the third miss, and return the miss counts
    /// crossed since the last report (capped at the threshold).
    fn check(&mut self, now: Nanos) -> Range<u32> {
        if self.detected_at.is_some() {
            return 0..0;
        }
        let elapsed = (now.saturating_sub(self.last_beat) / HEARTBEAT_INTERVAL)
            .min(HEARTBEAT_MISSES as Nanos) as u32;
        let misses = self.misses_reported + 1..elapsed + 1;
        self.misses_reported = self.misses_reported.max(elapsed);
        let threshold = self.last_beat + HEARTBEAT_MISSES as Nanos * HEARTBEAT_INTERVAL;
        if now >= threshold {
            self.detected_at = Some(threshold);
        }
        misses
    }

    /// The first heartbeat-interval boundary at or after `t`, and after the
    /// last beat — the earliest instant the backup can notice silence that
    /// began at `t`. The detector only ever changes state on its own beat
    /// grid, so a poll walks these boundaries.
    fn next_boundary(&self, t: Nanos) -> Nanos {
        let intervals = t
            .saturating_sub(self.last_beat)
            .div_ceil(HEARTBEAT_INTERVAL);
        self.last_beat + intervals.max(1) * HEARTBEAT_INTERVAL
    }
}

/// The output-release lease pair of one container. The ack of an epoch
/// doubles as a lease grant for `term` past its anchor. The primary anchors
/// its (conservative) view at the epoch's end, the backup anchors the
/// granted view at the ack's completion, so the holder always expires
/// first:
///
/// ```text
/// holder expiry = epoch_end + term  ≤  ack_time + term = granted expiry
/// ```
///
/// Output may be released only under the holder's lease and only at an
/// instant an observed ack covers; promotion only once the grant has run
/// out. Exactly-one-owner is the ordering of the two expiries (DESIGN.md
/// §9).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Fence {
    term: Nanos,
    /// The primary's lease: valid strictly before this instant.
    holder_until: Nanos,
    /// The backup's grant: promotion may not happen before this instant.
    grant_until: Nanos,
    /// Latest ack instant observed: a release may name no later one.
    acked_at: Option<Nanos>,
    holder_was_valid: bool,
    split_brain: bool,
}

impl Fence {
    /// Both leases start with the implicit grant of replication handoff.
    pub fn new(term: Nanos, start: Nanos) -> Self {
        Fence {
            term,
            holder_until: start + term,
            grant_until: start + term,
            acked_at: None,
            holder_was_valid: true,
            split_brain: false,
        }
    }

    /// The epoch that ended at `epoch_end` committed on the backup and its
    /// ack arrived at `ack_at`: renew both views. A renewal never shortens a
    /// lease (a reordered stale ack must not revoke a newer grant).
    pub fn on_ack(&mut self, epoch_end: Nanos, ack_at: Nanos) {
        debug_assert!(epoch_end <= ack_at, "an ack precedes its epoch's end");
        self.holder_until = self.holder_until.max(epoch_end + self.term);
        self.grant_until = self.grant_until.max(ack_at + self.term);
        self.acked_at = self.acked_at.max(Some(ack_at));
        self.holder_was_valid = true;
        debug_assert!(
            self.holder_until <= self.grant_until,
            "exactly-one-owner: the holder must expire before the grant"
        );
    }

    /// Whether output may be released at `at`: an observed ack covers the
    /// instant and the holder's lease is still valid there.
    pub fn may_release(&self, at: Nanos) -> bool {
        let ok = self.acked_at.is_some_and(|acked| at <= acked) && at < self.holder_until;
        debug_assert!(
            !ok || at < self.grant_until,
            "exactly-one-owner: release at {at}ns after the grant ran out"
        );
        ok
    }

    /// When the primary's own lease runs out.
    pub fn holder_expiry(&self) -> Nanos {
        self.holder_until
    }

    /// Earliest instant the backup may promote (the granted lease's end).
    pub fn promotable_at(&self) -> Nanos {
        self.grant_until
    }

    /// `Some(expiry)` once per lapse of the holder's lease (edge-triggered;
    /// re-armed by the next ack).
    pub fn lapsed(&mut self, now: Nanos) -> Option<Nanos> {
        (self.holder_was_valid && now >= self.holder_until).then(|| {
            self.holder_was_valid = false;
            self.holder_until
        })
    }

    /// Gate a promotion at `now`. Safe only because the primary's own lease
    /// expired strictly earlier, so it is already fenced — checked, not
    /// assumed: a violation is recorded as split-brain *and* fails the run.
    pub fn authorize_promotion(&mut self, now: Nanos) -> SimResult<()> {
        if now < self.holder_until {
            self.split_brain = true;
            return Err(SimError::Invalid(format!(
                "split-brain: promoting at {now}ns while the primary's output lease is \
                 valid until {}ns",
                self.holder_until
            )));
        }
        Ok(())
    }

    /// Whether a promotion was ever attempted under a valid holder lease.
    pub fn split_brain(&self) -> bool {
        self.split_brain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS30: Nanos = HEARTBEAT_INTERVAL;

    /// The rule's answer for an instance that died at `down`, or lives.
    fn ask(r: &mut Rule, now: Nanos, down: Option<Nanos>) -> Owner {
        r.decide(now, down, true).unwrap().owner
    }

    #[test]
    fn detector_fires_after_three_misses() {
        let mut r = Rule::new(0, None);
        // Healthy beats.
        for i in 1..=5u64 {
            r.on_beat(i * MS30);
            assert_eq!(ask(&mut r, i * MS30 + MILLISECOND, None), Owner::Serves);
        }
        // Fault at t=150ms: no more beats.
        let fault = 5 * MS30;
        let next = ask(&mut r, fault + 2 * MS30, Some(fault));
        assert_eq!(next, Owner::Waits(fault + 3 * MS30), "two misses: not yet");
        assert_eq!(
            ask(&mut r, fault + 3 * MS30, Some(fault)),
            Owner::Promote(90 * MILLISECOND),
            "three misses: detected, §VII-B: ~90ms"
        );
    }

    #[test]
    fn beats_after_detection_are_ignored() {
        let mut r = Rule::new(0, None);
        assert_eq!(ask(&mut r, 3 * MS30, Some(0)), Owner::Promote(3 * MS30));
        r.on_beat(4 * MS30);
        // A dead instance's suspicion is never false: detection is sticky.
        assert_eq!(ask(&mut r, 4 * MS30, Some(0)), Owner::Promote(3 * MS30));
        assert_eq!(r.detected_at, Some(3 * MS30));
    }

    #[test]
    fn no_false_positive_while_beating() {
        let mut r = Rule::new(0, None);
        let mut t = 0;
        for _ in 0..1000 {
            t += MS30;
            r.on_beat(t);
            let d = r.decide(t + MS30 / 2, None, true).unwrap();
            assert_eq!((d.owner, d.misses().count()), (Owner::Serves, 0));
        }
    }

    #[test]
    fn missed_intervals_are_reported_once() {
        let mut r = Rule::new(0, None);
        r.on_beat(MS30);
        // Repeated asks within the same silence window: one miss per
        // interval, no duplicates.
        let mut misses = Vec::new();
        for now in [2 * MS30 + 1, 2 * MS30 + 2, 3 * MS30 + 1, 4 * MS30] {
            misses.extend(r.decide(now, None, true).unwrap().misses());
        }
        assert_eq!(misses, [(1, 2 * MS30), (2, 3 * MS30), (3, 4 * MS30)]);
        // A beat resets the miss counter.
        let mut r = Rule::new(0, None);
        let first = r.decide(MS30 + 1, None, true).unwrap().misses().count();
        r.on_beat(2 * MS30);
        let second: Vec<_> = r
            .decide(3 * MS30 + 1, None, true)
            .unwrap()
            .misses()
            .collect();
        assert_eq!(
            (first, second),
            (1, vec![(1, 3 * MS30)]),
            "one miss before the beat, one after"
        );
    }

    #[test]
    fn mid_interval_fault_detection_latency_bounds() {
        // Fault lands mid-interval: latency between 73 and 120 ms.
        let mut r = Rule::new(0, None);
        r.on_beat(MS30);
        let fault = MS30 + 17 * MILLISECOND;
        // Poll at each instant the rule names.
        let mut t = fault;
        let lat = loop {
            match ask(&mut r, t, Some(fault)) {
                Owner::Waits(next) => t = next,
                Owner::Promote(lat) => break lat,
                other => panic!("a dead instance answered {other:?}"),
            }
        };
        assert!(
            (73 * MILLISECOND..=120 * MILLISECOND).contains(&lat),
            "latency {}ms",
            lat / MILLISECOND
        );
    }

    #[test]
    fn next_boundary_lands_on_the_beat_grid() {
        let mut r = Rule::new(0, None);
        r.on_beat(5 * MS30);
        // At or before the last beat: the following boundary.
        assert_eq!(r.next_boundary(0), 6 * MS30);
        assert_eq!(r.next_boundary(5 * MS30), 6 * MS30);
        // Mid-interval: rounds up to the next boundary, never past it.
        assert_eq!(r.next_boundary(5 * MS30 + 1), 6 * MS30);
        assert_eq!(r.next_boundary(6 * MS30 - 1), 6 * MS30);
        // Exactly on a later boundary: stays there, so the rule asks past
        // it.
        assert_eq!(r.next_boundary(7 * MS30), 7 * MS30);
        assert_eq!(
            ask(&mut r, 7 * MS30, Some(7 * MS30)),
            Owner::Waits(8 * MS30)
        );
    }

    #[test]
    fn rescind_cancels_detection_and_reanchors() {
        let mut r = Rule::new(0, None);
        assert_eq!(ask(&mut r, 3 * MS30, None), Owner::Promote(3 * MS30));
        // A late beat arrives at 95ms: the rule rescinds the suspicion.
        let late = 95 * MILLISECOND;
        r.on_beat(late);
        let rescinded = Owner::Rescinded {
            heard: late,
            suspected_for: 5 * MILLISECOND,
        };
        assert_eq!(ask(&mut r, late, None), rescinded);
        assert_eq!(r.detected_at, None);
        assert_eq!(
            ask(&mut r, late + 2 * MS30, None),
            Owner::Serves,
            "window re-anchored"
        );
        assert_eq!(ask(&mut r, late + 3 * MS30, None), Owner::Promote(3 * MS30));
    }
}
