//! Host-clock decorators around the three public seams the harness calls
//! through: [`Checkpointer`], [`Application`] and [`ClientBehavior`].
//!
//! Each wrapper forwards every trait method to the wrapped value and times,
//! into a [`Recorder`], the calls that run once per epoch or more. They
//! change nothing the wrapped value sees, so a decorated run must give the
//! same virtual metrics as a plain one (tested in `tests/`).

use crate::spans::Recorder;
use nilicon::engine::{BootstrapBegin, BootstrapStep, RepairBegin};
use nilicon::trace::Tracer;
use nilicon::traffic::ClientBehavior;
use nilicon::{CheckpointOutcome, Checkpointer, FailoverReport, LogShipOutcome, ReplayTail};
use nilicon_container::{Application, Container, GuestCtx, RequestOutcome, StepOutcome};
use nilicon_criu::RestoredContainer;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::replay::ReplayEvent;
use nilicon_sim::time::Nanos;
use nilicon_sim::SimResult;
use std::cell::RefCell;
use std::rc::Rc;

/// [`Checkpointer`] wrapper. The engine stays reachable through the shared
/// handle returned by [`TimedEngine::new`], which is how the traced pass
/// reads engine-side counters after the harness has consumed the box.
pub struct TimedEngine<E: Checkpointer> {
    inner: Rc<RefCell<E>>,
    rec: Recorder,
}

impl<E: Checkpointer> TimedEngine<E> {
    /// Wrap `engine`, timing its calls into `rec`.
    pub fn new(engine: E, rec: Recorder) -> (Self, Rc<RefCell<E>>) {
        let inner = Rc::new(RefCell::new(engine));
        (
            TimedEngine {
                inner: Rc::clone(&inner),
                rec,
            },
            inner,
        )
    }
}

// Every method of the trait is forwarded, defaults included: a default left
// in place here would silently answer for the engine (`supports_replay`
// false, `pipeline_advance` a no-op) and turn an extension off.
impl<E: Checkpointer> Checkpointer for TimedEngine<E> {
    fn name(&self) -> &'static str {
        self.inner.borrow().name()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.borrow_mut().set_tracer(tracer)
    }

    fn prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        self.inner.borrow_mut().prepare(primary, container)
    }

    fn checkpoint(
        &mut self,
        primary: &mut Kernel,
        backup: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<CheckpointOutcome> {
        self.rec.time("core_engine.checkpoint", || {
            self.inner
                .borrow_mut()
                .checkpoint(primary, backup, container, epoch)
        })
    }

    fn commit(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        self.rec.time("core_engine.commit", || {
            self.inner.borrow_mut().commit(backup, epoch)
        })
    }

    fn pipeline_advance(&mut self, elapsed: Nanos) {
        self.rec.time("core_engine.pipeline_advance", || {
            self.inner.borrow_mut().pipeline_advance(elapsed)
        })
    }

    fn inject_stage_fail(&mut self, chunk: u64) {
        self.inner.borrow_mut().inject_stage_fail(chunk)
    }

    fn failover(&mut self, backup: &mut Kernel) -> SimResult<(RestoredContainer, FailoverReport)> {
        self.rec.time("core_engine.failover", || {
            self.inner.borrow_mut().failover(backup)
        })
    }

    fn committed_epoch(&self) -> Option<u64> {
        self.inner.borrow().committed_epoch()
    }

    fn supports_rearm(&self) -> bool {
        self.inner.borrow().supports_rearm()
    }

    fn rearm_prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        self.inner.borrow_mut().rearm_prepare(primary, container)
    }

    fn bootstrap_begin(
        &mut self,
        primary: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<BootstrapBegin> {
        self.inner
            .borrow_mut()
            .bootstrap_begin(primary, container, epoch)
    }

    fn bootstrap_step(
        &mut self,
        primary: &mut Kernel,
        epoch: u64,
        max_pages: u64,
    ) -> SimResult<BootstrapStep> {
        self.inner
            .borrow_mut()
            .bootstrap_step(primary, epoch, max_pages)
    }

    fn bootstrap_finish(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        self.inner.borrow_mut().bootstrap_finish(backup, epoch)
    }

    fn bootstrap_abort(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        self.inner.borrow_mut().bootstrap_abort(primary, container)
    }

    fn supports_placement(&self) -> bool {
        self.inner.borrow().supports_placement()
    }

    fn placement(&self) -> (u32, u32) {
        self.inner.borrow().placement()
    }

    fn replica_fault(&mut self) -> SimResult<u32> {
        self.inner.borrow_mut().replica_fault()
    }

    fn repair_begin(&mut self, epoch: u64) -> SimResult<RepairBegin> {
        self.rec.time("core_engine.repair", || {
            self.inner.borrow_mut().repair_begin(epoch)
        })
    }

    fn repair_step(&mut self, epoch: u64, max_pages: u64) -> SimResult<BootstrapStep> {
        self.rec.time("core_engine.repair", || {
            self.inner.borrow_mut().repair_step(epoch, max_pages)
        })
    }

    fn repair_finish(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        self.rec.time("core_engine.repair", || {
            self.inner.borrow_mut().repair_finish(backup, epoch)
        })
    }

    fn repair_abort(&mut self) -> SimResult<()> {
        self.inner.borrow_mut().repair_abort()
    }

    fn supports_replay(&self) -> bool {
        self.inner.borrow().supports_replay()
    }

    fn ship_log(
        &mut self,
        primary: &mut Kernel,
        epoch: u64,
        events: &[ReplayEvent],
    ) -> SimResult<LogShipOutcome> {
        self.rec.time("core_engine.log_ship", || {
            self.inner.borrow_mut().ship_log(primary, epoch, events)
        })
    }

    fn seal_log(&mut self, epoch: u64) -> SimResult<()> {
        self.inner.borrow_mut().seal_log(epoch)
    }

    fn take_replay_tail(&mut self) -> SimResult<ReplayTail> {
        self.inner.borrow_mut().take_replay_tail()
    }
}

/// [`Application`] wrapper: times request handling and batch steps.
pub struct TimedApp {
    inner: Box<dyn Application>,
    rec: Recorder,
}

impl TimedApp {
    /// Wrap `inner`, timing its calls into `rec`.
    pub fn new(inner: Box<dyn Application>, rec: Recorder) -> Self {
        TimedApp { inner, rec }
    }
}

impl Application for TimedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        self.inner.init(ctx)
    }

    fn handle_request(&mut self, ctx: &mut GuestCtx<'_>, req: &[u8]) -> SimResult<RequestOutcome> {
        self.rec
            .time("workloads.app", || self.inner.handle_request(ctx, req))
    }

    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<StepOutcome> {
        self.rec.time("workloads.app", || self.inner.step(ctx))
    }

    fn recover(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        self.inner.recover(ctx)
    }

    fn is_server(&self) -> bool {
        self.inner.is_server()
    }
}

/// [`ClientBehavior`] wrapper: times the load generator, so that a slow
/// generator is never charged to the program.
pub struct TimedClient {
    inner: Box<dyn ClientBehavior>,
    rec: Recorder,
}

impl TimedClient {
    /// Wrap `inner`, timing its calls into `rec`.
    pub fn new(inner: Box<dyn ClientBehavior>, rec: Recorder) -> Self {
        TimedClient { inner, rec }
    }
}

impl ClientBehavior for TimedClient {
    fn client_count(&self) -> usize {
        self.inner.client_count()
    }

    fn next_request(&mut self, idx: usize, now: Nanos) -> Option<Vec<u8>> {
        self.rec
            .time("bench_gen.client", || self.inner.next_request(idx, now))
    }

    fn on_response(&mut self, idx: usize, resp: &[u8], now: Nanos, latency: Nanos) {
        self.rec.time("bench_gen.client", || {
            self.inner.on_response(idx, resp, now, latency)
        })
    }

    fn verify(&self) -> Result<(), String> {
        self.inner.verify()
    }
}
