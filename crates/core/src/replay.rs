//! Failover-time replay executor — the backup half of the hybrid
//! checkpoint + replay extension (`OptimizationConfig::hybrid_replay`).
//!
//! The record half lives on the primary: the harness appends one
//! [`ReplayEvent`] per nondeterministic input (request dispatches and batch
//! steps) to a per-epoch log and ships it to the backup continuously,
//! releasing client output as soon as the covering log chunk commits —
//! link-scale latency instead of the epoch-scale ack wait (the HyCoR
//! release rule).
//!
//! This module is the replay half: after the backup restores the last
//! *committed* checkpoint, [`replay_tail`] re-executes the sealed log tail
//! on top of it, feeding each recorded event back through the same
//! application entry points the primary used. Determinism is checked per
//! event — every replayed response must hash to the recorded
//! `response_hash`. On any divergence (log gap, unsealed tail, response
//! mismatch) the guest heap is rolled back to its pre-replay bytes and the
//! failover degrades to the plain NiLiCon last-checkpoint path.

use crate::engine::ReplayTail;
use nilicon_container::{Application, Container, GuestCtx, MemLayout};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::replay::{response_digest, ReplayEvent};
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimResult, PAGE_SIZE};

/// What happened when a log tail was replayed onto a restored checkpoint.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// Epochs whose logs were fully replayed.
    pub epochs: u64,
    /// Events dispatched (counted even when a later event diverges).
    pub events: u64,
    /// Backup CPU consumed by the replay (guest work metered by the kernel
    /// plus the per-event decode/dispatch cost).
    pub replay_cpu: Nanos,
    /// `None` if the tail replayed byte-identically; otherwise the
    /// divergence reason (`"partial"` for a gapped/unsealed tail rejected
    /// up front, `"mismatch"` for a response that hashed differently) and
    /// the guest heap has been rolled back to the restored checkpoint.
    pub diverged: Option<String>,
}

/// Byte snapshot of every worker's guest heap (unmapped pages read as
/// zeros) — the rollback image for divergence handling, and the harness's
/// committed-state probe.
pub(crate) fn heap_snapshot(kernel: &mut Kernel, container: &Container, pages: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for &pid in &container.workers {
        for page in 0..pages {
            let mut buf = vec![0u8; PAGE_SIZE];
            let _ = kernel.mem_read(pid, MemLayout::heap_page(page), &mut buf);
            out.extend_from_slice(&buf);
        }
    }
    out
}

/// Write a [`heap_snapshot`] back over the workers' heaps.
fn heap_rollback(kernel: &mut Kernel, container: &Container, pages: u64, snap: &[u8]) {
    let mut off = 0usize;
    for &pid in &container.workers {
        for page in 0..pages {
            let chunk = &snap[off..off + PAGE_SIZE];
            let _ = kernel.mem_write(pid, MemLayout::heap_page(page), chunk);
            off += PAGE_SIZE;
        }
    }
}

/// Replay a sealed log tail on top of a just-restored checkpoint.
///
/// `container` and `app` must already be through restore + recover (the
/// replayed events go through the same [`Application`] entry points the
/// primary used, so the app's Rust-side state must be live). On a
/// `"mismatch"` divergence the heap is rolled back and the caller must run
/// [`Application::recover`] again before serving.
pub fn replay_tail(
    kernel: &mut Kernel,
    container: &Container,
    app: &mut dyn Application,
    tail: &ReplayTail,
) -> SimResult<ReplayOutcome> {
    let mut out = ReplayOutcome::default();
    if tail.dropped_partial {
        // A gap or unsealed epoch anywhere in the tail poisons the whole
        // replay: released outputs past the break cannot be reproduced, so
        // nothing is executed and the restored checkpoint stands as-is.
        out.diverged = Some("partial".into());
        return Ok(out);
    }
    if tail.logs.is_empty() {
        return Ok(out); // normal case: commit caught up with the log
    }

    let pages = container.spec.heap_pages;
    let snap = heap_snapshot(kernel, container, pages);
    let per_event = kernel.costs.log_replay_per_event;
    let pid = container.workers[0];

    kernel.meter.take();
    let mut diverged: Option<String> = None;

    'epochs: for log in &tail.logs {
        for ev in &log.events {
            out.events += 1;
            kernel.meter.charge(per_event);
            match ev {
                ReplayEvent::Request {
                    at,
                    payload,
                    response_hash,
                    response_len,
                    ..
                } => {
                    let outcome = {
                        let mut ctx = GuestCtx::new(kernel, pid, *at);
                        app.handle_request(&mut ctx, payload)?
                    };
                    if outcome.response.len() as u32 != *response_len
                        || response_digest(&outcome.response) != *response_hash
                    {
                        diverged = Some("mismatch".into());
                        break 'epochs;
                    }
                }
                ReplayEvent::Step { at, done, .. } => {
                    let outcome = {
                        let mut ctx = GuestCtx::new(kernel, pid, *at);
                        app.step(&mut ctx)?
                    };
                    if outcome.done != *done {
                        diverged = Some("mismatch".into());
                        break 'epochs;
                    }
                }
            }
        }
        out.epochs += 1;
    }

    out.replay_cpu = kernel.meter.take();
    if let Some(reason) = diverged {
        heap_rollback(kernel, container, pages, &snap);
        out.diverged = Some(reason);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_container::{ContainerRuntime, ContainerSpec, RequestOutcome};
    use nilicon_sim::replay::ReplayLog;

    /// Deterministic counter app: state lives in guest heap, so replaying
    /// the same requests reproduces the same responses byte-for-byte.
    struct CounterApp;
    impl Application for CounterApp {
        fn name(&self) -> &str {
            "counter"
        }
        fn init(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
            ctx.heap_write(0, &[0u8; 8])
        }
        fn handle_request(
            &mut self,
            ctx: &mut GuestCtx<'_>,
            req: &[u8],
        ) -> SimResult<RequestOutcome> {
            let mut buf = [0u8; 8];
            ctx.heap_read(0, &mut buf)?;
            let n = u64::from_le_bytes(buf) + req.len() as u64;
            ctx.heap_write(0, &n.to_le_bytes())?;
            Ok(RequestOutcome {
                response: n.to_le_bytes().to_vec(),
            })
        }
    }

    /// Cheating app: its response depends on Rust-side state that no
    /// checkpoint covers, so a restored backup replays different bytes.
    struct LeakyApp {
        calls: u64,
    }
    impl Application for LeakyApp {
        fn name(&self) -> &str {
            "leaky"
        }
        fn init(&mut self, _ctx: &mut GuestCtx<'_>) -> SimResult<()> {
            Ok(())
        }
        fn handle_request(
            &mut self,
            ctx: &mut GuestCtx<'_>,
            _req: &[u8],
        ) -> SimResult<RequestOutcome> {
            self.calls += 1;
            ctx.heap_write(0, &self.calls.to_le_bytes())?;
            Ok(RequestOutcome {
                response: self.calls.to_le_bytes().to_vec(),
            })
        }
    }

    fn setup() -> (Kernel, Container) {
        let mut k = Kernel::default();
        let mut spec = ContainerSpec::server("t", 10, 9000);
        spec.heap_pages = 4;
        let c = ContainerRuntime::create(&mut k, &spec).unwrap();
        (k, c)
    }

    fn request_event(k: &mut Kernel, c: &Container, app: &mut dyn Application, payload: &[u8]) -> ReplayEvent {
        let outcome = {
            let mut ctx = GuestCtx::new(k, c.workers[0], 0);
            app.handle_request(&mut ctx, payload).unwrap()
        };
        ReplayEvent::Request {
            pid: c.workers[0],
            at: 0,
            payload: payload.into(),
            response_hash: response_digest(&outcome.response),
            response_len: outcome.response.len() as u32,
        }
    }

    #[test]
    fn deterministic_tail_replays_byte_identically() {
        // Record on one kernel...
        let (mut rec_k, rec_c) = setup();
        let mut app = CounterApp;
        {
            let mut ctx = GuestCtx::new(&mut rec_k, rec_c.workers[0], 0);
            app.init(&mut ctx).unwrap();
        }
        let mut log = ReplayLog::new(1);
        for payload in [&b"abc"[..], b"defgh", b"i"] {
            log.events
                .push(request_event(&mut rec_k, &rec_c, &mut app, payload));
        }
        log.sealed = true;
        let mut want = [0u8; 8];
        rec_k
            .mem_read(rec_c.workers[0], MemLayout::heap(0), &mut want)
            .unwrap();

        // ...replay on a fresh one (the "restored checkpoint": init state).
        let (mut rep_k, rep_c) = setup();
        let mut rep_app = CounterApp;
        {
            let mut ctx = GuestCtx::new(&mut rep_k, rep_c.workers[0], 0);
            rep_app.init(&mut ctx).unwrap();
        }
        let tail = ReplayTail {
            logs: vec![log],
            dropped_partial: false,
        };
        let out = replay_tail(&mut rep_k, &rep_c, &mut rep_app, &tail).unwrap();
        assert!(out.diverged.is_none(), "diverged: {:?}", out.diverged);
        assert_eq!(out.epochs, 1);
        assert_eq!(out.events, 3);
        assert!(out.replay_cpu >= 3 * rep_k.costs.log_replay_per_event);
        let mut got = [0u8; 8];
        rep_k
            .mem_read(rep_c.workers[0], MemLayout::heap(0), &mut got)
            .unwrap();
        assert_eq!(got, want, "replayed heap state is byte-identical");
    }

    #[test]
    fn partial_tail_is_rejected_without_executing() {
        let (mut k, c) = setup();
        let mut app = CounterApp;
        let tail = ReplayTail {
            logs: vec![ReplayLog::new(2)],
            dropped_partial: true,
        };
        let out = replay_tail(&mut k, &c, &mut app, &tail).unwrap();
        assert_eq!(out.diverged.as_deref(), Some("partial"));
        assert_eq!(out.events, 0);
        assert_eq!(out.replay_cpu, 0);
    }

    #[test]
    fn untracked_nondeterminism_diverges_and_rolls_back() {
        let (mut rec_k, rec_c) = setup();
        let mut app = LeakyApp { calls: 0 };
        let mut log = ReplayLog::new(1);
        log.events
            .push(request_event(&mut rec_k, &rec_c, &mut app, b"x"));
        log.events
            .push(request_event(&mut rec_k, &rec_c, &mut app, b"y"));
        log.sealed = true;

        // The "restored" app is a fresh struct: its hidden counter restarts
        // at 5 (not the recorded 0/1), so the second response can't match.
        let (mut rep_k, rep_c) = setup();
        rep_k
            .mem_write(rep_c.workers[0], MemLayout::heap(0), b"SNAPSHOT")
            .unwrap();
        let mut rep_app = LeakyApp { calls: 5 };
        let tail = ReplayTail {
            logs: vec![log],
            dropped_partial: false,
        };
        let out = replay_tail(&mut rep_k, &rep_c, &mut rep_app, &tail).unwrap();
        assert_eq!(out.diverged.as_deref(), Some("mismatch"));
        assert_eq!(out.epochs, 0, "the diverging epoch does not count");
        let mut buf = [0u8; 8];
        rep_k
            .mem_read(rep_c.workers[0], MemLayout::heap(0), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"SNAPSHOT", "heap rolled back to pre-replay bytes");
    }

    #[test]
    fn empty_tail_is_a_clean_noop() {
        let (mut k, c) = setup();
        let mut app = CounterApp;
        let tail = ReplayTail::default();
        let out = replay_tail(&mut k, &c, &mut app, &tail).unwrap();
        assert!(out.diverged.is_none());
        assert_eq!(out.events, 0);
    }
}
