//! The lane core: everything the two epoch drivers know about *one*
//! replicated container that does not depend on when its epochs run.
//!
//! [`RunHarness`](crate::harness::RunHarness) owns one [`Lane`] and advances
//! the clock by each stop; [`FleetScheduler`](crate::fleet::FleetScheduler)
//! owns N and runs them on a fixed grid through a shared dump service and
//! link. Both call the same execution phase ([`Lane::serve`]), the same
//! output release ([`Lane::release`]), the same lease pair ([`Fence`]), the
//! same promotion tail ([`Lane::promote`]) and — the harness only — the same
//! stream-while-serving driver ([`Stream`]) for rearm and coded repair. See
//! `DESIGN.md` §8.2.

use crate::config::ReplicationConfig;
use crate::detector::{FailureDetector, HeartbeatSender, Lease};
use crate::engine::{Checkpointer, FailoverReport, LogShipOutcome};
use crate::metrics::{EpochRecord, RunMetrics};
use crate::replay::replay_tail;
use crate::trace::{TraceEvent, Tracer};
use crate::traffic::{ClientBehavior, ClientPool};
use bytes::Bytes;
use nilicon_container::{
    send_frame, take_frame, Application, Container, ContainerRuntime, ContainerSpec, GuestCtx,
};
use nilicon_sim::cluster::Cluster;
use nilicon_sim::ids::{Endpoint, HostId, IdMap, Pid};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::net::InputMode;
use nilicon_sim::replay::{response_digest, ReplayEvent};
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimError, SimResult};
use std::collections::VecDeque;

/// CPU cost of the keep-alive process per 30 ms interval (§IV: ~1000
/// instructions).
const KEEPALIVE_COST: Nanos = 300;

/// Deterministic SplitMix64 jitter in `[0, range)`.
fn jitter(state: &mut u64, range: Nanos) -> Nanos {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)) % range.max(1)
}

/// A served request whose response rides the epoch ack: (client endpoint,
/// service-done time).
pub(crate) type Completion = (Endpoint, Nanos);

/// The per-completion log hook of [`Lane::serve`] (hybrid replay): ship
/// `events`, produced at the given instant, to the backup's log store.
/// `Ok(None)` means the log link is cut there — the chunk cannot commit.
pub(crate) type ShipLog<'a> =
    &'a mut dyn FnMut(&mut Cluster, Nanos, &[ReplayEvent]) -> SimResult<Option<LogShipOutcome>>;

/// Per-epoch log traffic, shipped as the execution phase produced it.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LogTotals {
    pub events: u64,
    pub bytes: u64,
    /// Sum of the chunks' commit latencies (the `LogShip` span).
    pub time: Nanos,
    pub commit_max: Nanos,
    pub backup_cpu: Nanos,
}

impl LogTotals {
    fn add(&mut self, events: u64, ship: &LogShipOutcome) {
        self.events += events;
        self.bytes += ship.bytes;
        self.time += ship.commit_latency;
        self.commit_max = self.commit_max.max(ship.commit_latency);
        self.backup_cpu += ship.backup_cpu;
    }

    /// Emit the epoch's `LogShip` span and `LogCommit` mark (nothing for an
    /// epoch that shipped no events).
    pub fn trace(&self, tracer: &Tracer) {
        if self.events > 0 {
            tracer.span(
                TraceEvent::LogShip {
                    events: self.events,
                    bytes: self.bytes,
                },
                self.time,
            );
            tracer.mark(TraceEvent::LogCommit {
                events: self.events,
                commit_latency: self.commit_max,
            });
        }
    }
}

/// What one execution phase produced.
#[derive(Debug, Default)]
pub(crate) struct Served {
    /// CPU the container was charged (capped at the phase's budget).
    pub consumed: Nanos,
    /// Page-tracking fault time inside the phase.
    pub tracking: Nanos,
    pub requests: u64,
    pub steps: u64,
    /// Completions that ride the epoch ack.
    pub completions: Vec<Completion>,
    /// Completions externalised at log commit: (client endpoint, receipt
    /// time, release wait Δ).
    pub committed: Vec<(Endpoint, Nanos, Nanos)>,
    pub log: LogTotals,
    /// A log chunk met a cut link (its completion fell back to the ack).
    pub blocked: bool,
}

impl Served {
    /// The epoch's record as far as the execution phase knows it; callers
    /// that ran a checkpoint fill in the rest by struct update.
    pub fn record(&self, epoch: u64) -> EpochRecord {
        EpochRecord {
            epoch,
            exec_cpu: self.consumed,
            tracking_overhead: self.tracking,
            requests_done: self.requests,
            steps_done: self.steps,
            ..Default::default()
        }
    }
}

/// One container's protocol state, owned once by the harness and once per
/// lane by the fleet.
pub(crate) struct Lane {
    pub container: Container,
    app: Box<dyn Application>,
    behavior: Option<Box<dyn ClientBehavior>>,
    pool: Option<ClientPool>,
    /// Request frames awaiting service: (client endpoint, payload, arrival),
    /// sorted by arrival at every turnaround.
    pub pending: VecDeque<(Endpoint, Bytes, Nanos)>,
    /// Per-connection queue of logical response receipt times.
    receipts: IdMap<Endpoint, VecDeque<Nanos>>,
    /// Completions whose responses sit in the plugged qdisc past their own
    /// epoch (stalled or un-acked epoch, bootstrap in progress): they ride
    /// the next release, or are discarded at failover.
    pub held: Vec<Completion>,
    pub metrics: RunMetrics,
    jitter_state: u64,
    /// CPU consumed beyond the previous epoch's budget (a request larger
    /// than one epoch's budget keeps the cores busy into the next epoch).
    pub cpu_debt: Nanos,
    /// Previous epoch's stop time — the steady-state duty-cycle stretch for
    /// service-time accounting (a C-ms request takes C·(E+stop)/E of wall
    /// time under replication because the container freezes every epoch).
    pub last_stop: Nanos,
    epoch_exec: Nanos,
    /// Usable core count (the exec CPU budget is `window × parallelism`).
    parallelism: f64,
    client_link: Nanos,
    /// Emit `OutputRelease` only when packets were actually unplugged.
    quiet_release: bool,
    sender: HeartbeatSender,
    pub detector: FailureDetector,
    pub failover_report: Option<FailoverReport>,
    pub detection_latency: Option<Nanos>,
    pub failovers: u64,
    /// The batch workload reported completion.
    pub batch_done: bool,
    pub tracer: Tracer,
}

/// Where a lane's clients live and how its driver differs in data.
pub(crate) struct LaneSetup<'a> {
    pub client_host: HostId,
    /// Client netns name and bridge address.
    pub client: (&'a str, u32),
    pub parallelism: f64,
    pub jitter_seed: u64,
    /// Start of the failure detector's heartbeat grid.
    pub detector_start: Nanos,
    pub quiet_release: bool,
}

impl Lane {
    /// Create the container on `host`, initialise the workload and connect
    /// the clients (handshakes flow freely: nothing is plugged yet).
    pub fn create(
        cluster: &mut Cluster,
        host: HostId,
        spec: &ContainerSpec,
        mut app: Box<dyn Application>,
        behavior: Option<Box<dyn ClientBehavior>>,
        cfg: &ReplicationConfig,
        setup: LaneSetup<'_>,
    ) -> SimResult<Self> {
        let container = ContainerRuntime::create(cluster.host_mut(host), spec)?;
        cluster.bind_addr(spec.addr, host, container.ns.net);
        let client_link = {
            let k = cluster.host_mut(host);
            let mut ctx = GuestCtx::new(k, container.workers[0], 0);
            app.init(&mut ctx)?;
            k.meter.take();
            k.fault_meter.take();
            k.costs.client_link_latency
        };
        let pool = match (&behavior, spec.listen_port) {
            (Some(b), Some(port)) => {
                let (name, addr) = setup.client;
                let k = cluster.host_mut(setup.client_host);
                let ns = k.namespaces.create_set(name).net;
                k.create_stack(ns, addr, InputMode::Buffer);
                cluster.bind_addr(addr, setup.client_host, ns);
                Some(ClientPool::connect(
                    cluster,
                    setup.client_host,
                    ns,
                    b.client_count(),
                    Endpoint::new(spec.addr, port),
                )?)
            }
            _ => None,
        };
        Ok(Lane {
            container,
            app,
            behavior,
            pool,
            pending: VecDeque::new(),
            receipts: IdMap::default(),
            held: Vec::new(),
            metrics: RunMetrics::default(),
            jitter_state: setup.jitter_seed,
            cpu_debt: 0,
            last_stop: 0,
            epoch_exec: cfg.epoch_exec,
            parallelism: setup.parallelism,
            client_link,
            quiet_release: setup.quiet_release,
            sender: HeartbeatSender::new(),
            detector: FailureDetector::new(
                cfg.heartbeat_interval,
                cfg.heartbeat_misses,
                setup.detector_start,
            ),
            failover_report: None,
            detection_latency: None,
            failovers: 0,
            batch_done: false,
            tracer: Tracer::disabled(),
        })
    }

    /// Attach a tracer (the detector shares it; the caller hands the same
    /// tracer to the engine).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.detector.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    // ------------------------------------------------------------------
    // Execution phase
    // ------------------------------------------------------------------

    /// Issue requests from idle clients, pump the wire, and harvest complete
    /// frames into `pending` (with jittered arrival times — real clients are
    /// not phase-locked to the epoch clock).
    fn turnaround(&mut self, cluster: &mut Cluster, host: HostId, base: Nanos) -> SimResult<()> {
        let (Some(pool), Some(behavior)) = (self.pool.as_mut(), self.behavior.as_mut()) else {
            return Ok(());
        };
        pool.issue(cluster, behavior.as_mut(), base, self.epoch_exec)?;
        cluster.pump();
        let stack = cluster.host_mut(host).stack_mut(self.container.ns.net)?;
        for (sid, remote) in stack.established_ids() {
            while let Some(frame) = take_frame(stack, sid, false)? {
                let arrival =
                    base + jitter(&mut self.jitter_state, self.epoch_exec) + 2 * self.client_link;
                self.pending.push_back((remote, frame, arrival));
            }
        }
        self.pending
            .make_contiguous()
            .sort_by_key(|(_, _, arrival)| *arrival);
        Ok(())
    }

    /// One execution phase on `host`, starting at `exec_start`: client
    /// turnaround, then either the server loop (requests that arrived by
    /// `window_end`) or the batch `step` loop, inside a CPU budget of
    /// `exec_window × parallelism`; then the debt carry, the cgroup charge
    /// and the `Exec` span. A full epoch passes the epoch's end and length;
    /// an epoch cut short by a fault passes the fault instant.
    ///
    /// With `ship` (hybrid replay) every completion's log chunk — and a
    /// batch phase's step log, as one chunk at `window_end` — is shipped as
    /// it is produced: a committed chunk externalises its completion at log
    /// commit + Δ ([`Served::committed`]); a chunk that met a cut link leaves
    /// it riding the epoch ack and sets [`Served::blocked`].
    pub fn serve(
        &mut self,
        cluster: &mut Cluster,
        host: HostId,
        exec_start: Nanos,
        window_end: Nanos,
        exec_window: Nanos,
        mut ship: Option<ShipLog<'_>>,
    ) -> SimResult<Served> {
        self.turnaround(cluster, host, exec_start)?;
        let budget = (exec_window as f64 * self.parallelism) as Nanos;
        let mut used: Nanos = KEEPALIVE_COST + self.cpu_debt;
        let mut s = Served::default();
        {
            let k = cluster.host_mut(host);
            k.meter.take();
            k.fault_meter.take();
        }
        // Requests are handled in the leader's context: application fds are
        // opened there, and concentrating guest state in one address space
        // is checkpoint-equivalent (the dump walks every process either
        // way). Multi-process CPU capacity is modeled by `parallelism`.
        let pid = self.container.workers[0];
        if self.app.is_server() {
            while used < budget
                && self
                    .pending
                    .front()
                    .is_some_and(|(_, _, arrival)| *arrival <= window_end)
            {
                let (remote, req, arrival) = self.pending.pop_front().expect("front checked");
                let k = cluster.host_mut(host);
                let mut ctx = GuestCtx::new(k, pid, exec_start + used);
                let response = self.app.handle_request(&mut ctx, &req)?.response;
                used += k.meter.take().max(100);
                // Wall time to completion: queueing + service, stretched by
                // the epoch duty cycle (the container is frozen for
                // `last_stop` out of every `epoch_exec + last_stop`).
                let wall = used.saturating_mul(self.epoch_exec + self.last_stop) / self.epoch_exec;
                let t_done = arrival.max(exec_start) + wall;
                // The connection is looked up fresh so it works across
                // failovers; the response enters the (plugged, if
                // replicated) stack.
                let stack = k.stack_mut(self.container.ns.net)?;
                let sid = self
                    .pool
                    .as_ref()
                    .and_then(|pool| stack.sock_to(pool.server, remote))
                    .ok_or_else(|| SimError::Invalid(format!("no connection to {remote}")))?;
                // What the log records of the response, taken before the
                // stack takes the buffer.
                let logged = ship.is_some().then(|| (response_digest(&response), response.len() as u32));
                send_frame(stack, sid, response)?;
                s.requests += 1;
                let (Some(ship), Some((response_hash, response_len))) = (ship.as_mut(), logged) else {
                    s.completions.push((remote, t_done));
                    continue;
                };
                // Ship this completion's log chunk immediately; once the
                // backup acks the chunk the response is externalizable — it
                // does not wait for the epoch checkpoint.
                let ev = ReplayEvent::Request {
                    pid,
                    at: arrival,
                    payload: req,
                    response_hash,
                    response_len,
                };
                match ship(cluster, exec_start + used, &[ev])? {
                    Some(o) => {
                        s.log.add(1, &o);
                        let receipt = t_done + o.commit_latency + self.client_link;
                        s.committed.push((remote, receipt, o.commit_latency));
                    }
                    None => {
                        s.blocked = true;
                        s.completions.push((remote, t_done));
                    }
                }
            }
        } else {
            // Batch workloads have no per-request output to release early,
            // so their step log ships as one aggregate chunk at the end.
            let mut step_events: Vec<ReplayEvent> = Vec::new();
            while used < budget && !self.batch_done {
                let k = cluster.host_mut(host);
                let outcome = {
                    let mut ctx = GuestCtx::new(k, pid, exec_start + used);
                    self.app.step(&mut ctx)?
                };
                used += k.meter.take().max(100);
                s.steps += 1;
                if ship.is_some() {
                    step_events.push(ReplayEvent::Step {
                        pid,
                        at: exec_start + used,
                        done: outcome.done,
                    });
                }
                self.batch_done = outcome.done;
            }
            if let (Some(ship), false) = (ship.as_mut(), step_events.is_empty()) {
                match ship(cluster, window_end, &step_events)? {
                    Some(o) => s.log.add(step_events.len() as u64, &o),
                    None => s.blocked = true,
                }
            }
        }
        self.cpu_debt = used.saturating_sub(budget);
        s.consumed = used.min(budget);
        let k = cluster.host_mut(host);
        s.tracking = k.fault_meter.take();
        k.cgroups.charge_cpu(self.container.cgroup, s.consumed);
        self.tracer.span(
            TraceEvent::Exec {
                requests: s.requests,
                steps: s.steps,
            },
            exec_window,
        );
        Ok(s)
    }

    /// Whether the primary agent beats this interval: only if the
    /// container's `cpuacct.usage` advanced (§IV).
    pub fn beat_due(&mut self, cluster: &mut Cluster, host: HostId) -> bool {
        let cpuacct = cluster
            .host_mut(host)
            .cgroups
            .cpuacct_usage(self.container.cgroup);
        self.sender.tick(cpuacct)
    }

    // ------------------------------------------------------------------
    // Output release
    // ------------------------------------------------------------------

    /// Unplug the container's qdisc on `host`, logically at `at`, and put
    /// the released packets on the wire.
    pub fn unplug(&mut self, cluster: &mut Cluster, host: HostId, at: Nanos) -> SimResult<()> {
        let released = cluster
            .host_mut(host)
            .stack_mut(self.container.ns.net)?
            .release_output();
        if released > 0 || !self.quiet_release {
            self.tracer.event_at(
                TraceEvent::OutputRelease {
                    packets: released as u64,
                },
                at,
            );
        }
        cluster.pump();
        Ok(())
    }

    /// Stamp the logical receipt time of each completion: service-done or
    /// `floor` (the release instant), whichever is later, plus the client
    /// link. `record_waits` also records the release waits.
    pub fn stamp(
        &mut self,
        floor: Nanos,
        completions: impl IntoIterator<Item = Completion>,
        record_waits: bool,
    ) {
        for (remote, t_done) in completions {
            if record_waits {
                self.metrics
                    .release_waits
                    .push(floor.saturating_sub(t_done));
            }
            let receipt = t_done.max(floor) + self.client_link;
            self.receipts.entry(remote).or_default().push_back(receipt);
        }
    }

    /// Stamp completions that were granted release at log commit.
    pub fn stamp_committed(&mut self, committed: Vec<(Endpoint, Nanos, Nanos)>) {
        for (remote, receipt, wait) in committed {
            self.metrics.release_waits.push(wait);
            self.receipts.entry(remote).or_default().push_back(receipt);
        }
    }

    /// Deliver released responses to clients at their logical receipt times;
    /// record latencies.
    pub fn collect(&mut self, cluster: &mut Cluster, fallback_now: Nanos) -> SimResult<()> {
        if let (Some(pool), Some(behavior)) = (self.pool.as_mut(), self.behavior.as_mut()) {
            pool.collect_into(
                cluster,
                behavior.as_mut(),
                &mut self.receipts,
                fallback_now,
                &self.tracer,
                &mut self.metrics.response_latencies,
            )?;
        }
        Ok(())
    }

    /// Release the plugged output at logical time `at`: unplug, stamp
    /// `t_done.max(at) + client_link` per completion, deliver.
    pub fn release(
        &mut self,
        cluster: &mut Cluster,
        host: HostId,
        at: Nanos,
        completions: impl IntoIterator<Item = Completion>,
        record_waits: bool,
    ) -> SimResult<()> {
        self.unplug(cluster, host, at)?;
        self.stamp(at, completions, record_waits);
        self.collect(cluster, at)
    }

    // ------------------------------------------------------------------
    // Promotion tail
    // ------------------------------------------------------------------

    /// The failover tail: restore on `backup` from `engine`'s committed
    /// state, move the address (gratuitous ARP), rebuild the application,
    /// replay the sealed log tail if the engine keeps one, discard
    /// uncommitted output (`voided` counts receipts of a deferred release
    /// that died with the primary), retransmit both sides, deliver. The
    /// caller has already advanced the clock to the promotion instant and
    /// authorised it ([`Fence::authorize_promotion`]).
    pub fn promote(
        &mut self,
        cluster: &mut Cluster,
        backup: HostId,
        engine: &mut dyn Checkpointer,
        latency: Option<Nanos>,
        voided: usize,
    ) -> SimResult<()> {
        let (restored, report) = engine.failover(cluster.host_mut(backup))?;
        cluster.clock.advance(report.total());
        cluster.bind_addr(
            restored.container.spec.addr,
            backup,
            restored.container.ns.net,
        );
        restored.finish(cluster.host_mut(backup))?;
        let pid = restored.container.workers[0];
        self.recover_app(cluster, backup, pid)?;

        // Hybrid replay: re-execute the sealed log tail on top of the
        // restored checkpoint, recovering the post-checkpoint execution
        // whose outputs were already released at log commit. A divergence
        // (gap, partial tail, hash mismatch) falls back to the plain
        // last-checkpoint state just restored.
        if engine.supports_replay() {
            let tail = engine.take_replay_tail()?;
            if !tail.logs.is_empty() || tail.dropped_partial {
                self.tracer.event_at(
                    TraceEvent::ReplayStart {
                        epochs: tail.logs.len() as u64,
                        events: tail.events(),
                    },
                    cluster.clock.now(),
                );
                let out = replay_tail(
                    cluster.host_mut(backup),
                    &restored.container,
                    self.app.as_mut(),
                    &tail,
                )?;
                cluster.clock.advance(out.replay_cpu);
                let done = cluster.clock.now();
                match out.diverged {
                    Some(reason) => {
                        self.tracer
                            .event_at(TraceEvent::ReplayDiverge { reason }, done);
                        // The executor rolled guest memory back; re-derive
                        // the app's working state from the checkpoint too.
                        self.recover_app(cluster, backup, pid)?;
                    }
                    None => self.tracer.event_at(
                        TraceEvent::ReplayComplete {
                            events: out.events,
                            replay_time: out.replay_cpu,
                        },
                        done,
                    ),
                }
            }
        }

        // Uncommitted driver-side buffers are garbage now: the clients will
        // retransmit anything the committed state has not consumed. Held
        // completions were never released — discarded too.
        let now = cluster.clock.now();
        let discarded = (self.pending.len() + self.held.len() + voided) as u64;
        self.tracer
            .event_at(TraceEvent::OutputDiscard { packets: discarded }, now);
        self.pending.clear();
        self.held.clear();
        if let Some(detection_latency) = latency {
            self.tracer.event_at(
                TraceEvent::Failover {
                    detection_latency,
                    restore: report.restore,
                    arp: report.arp,
                    tcp: report.tcp,
                    others: report.others,
                },
                now,
            );
        }
        self.container = restored.container;
        self.failover_report = Some(report);
        self.detection_latency = latency;
        self.failovers += 1;
        // The promoted host's cgroup accounting starts from zero: without a
        // fresh sender, `tick` would never see progress and a re-armed
        // detector would starve.
        self.sender = HeartbeatSender::new();

        // Retransmissions: restored server sockets re-send unacked
        // responses (§V-E); clients re-send their unacked request backlog.
        cluster
            .host_mut(backup)
            .stack_mut(self.container.ns.net)?
            .retransmit_all();
        if let Some(pool) = self.pool.as_mut() {
            pool.retransmit(cluster)?;
        }
        cluster.pump();
        self.collect(cluster, now)
    }

    /// Rebuild the application's working state from restored guest memory.
    fn recover_app(&mut self, cluster: &mut Cluster, host: HostId, pid: Pid) -> SimResult<()> {
        let now = cluster.clock.now();
        let k = cluster.host_mut(host);
        let mut ctx = GuestCtx::new(k, pid, now);
        self.app.recover(&mut ctx)?;
        k.meter.take();
        k.fault_meter.take();
        Ok(())
    }

    /// End of run: flush the trace and fold the §VII-A checks. A failed
    /// client-stack lookup must fail the run, not count as zero broken
    /// connections — it is folded into `verify` so the gate cannot pass
    /// vacuously. Returns `(broken connections, verify)`.
    pub fn finish(&mut self, cluster: &mut Cluster) -> (u64, Result<(), String>) {
        let _ = self.tracer.flush();
        let broken = self
            .pool
            .as_ref()
            .map_or(Ok(0), |p| p.broken_connections(cluster));
        match broken {
            Ok(n) => (n, self.behavior.as_ref().map_or(Ok(()), |b| b.verify())),
            Err(e) => (u64::MAX, Err(format!("broken_connections: {e}"))),
        }
    }
}

// ----------------------------------------------------------------------
// Fence
// ----------------------------------------------------------------------

/// The output-release lease pair of one container — pure: time comes in as
/// arguments. The ack of an epoch doubles as a lease grant; the primary
/// anchors its (conservative) view at the epoch's end, the backup anchors
/// the granted view at the ack's completion, so the holder always expires
/// first. Output may be released only under the holder's lease and only at
/// an instant an observed ack covers; promotion only once the grant has run
/// out. Exactly-one-owner is the ordering of the two expiries.
#[derive(Debug, Clone)]
pub(crate) struct Fence {
    holder: Lease,
    grant: Lease,
    /// Latest ack instant observed: a release may name no later one.
    acked_at: Option<Nanos>,
    holder_was_valid: bool,
    split_brain: bool,
}

impl Fence {
    /// Both leases start with the implicit grant of replication handoff.
    pub fn new(term: Nanos, start: Nanos) -> Self {
        Fence {
            holder: Lease::new(term, start),
            grant: Lease::new(term, start),
            acked_at: None,
            holder_was_valid: true,
            split_brain: false,
        }
    }

    /// The epoch that ended at `epoch_end` committed on the backup and its
    /// ack arrived at `ack_at`: renew both views.
    pub fn on_ack(&mut self, epoch_end: Nanos, ack_at: Nanos) {
        debug_assert!(epoch_end <= ack_at, "an ack precedes its epoch's end");
        self.holder.grant(epoch_end);
        self.grant.grant(ack_at);
        self.acked_at = self.acked_at.max(Some(ack_at));
        self.holder_was_valid = true;
        debug_assert!(
            self.holder.expires_at() <= self.grant.expires_at(),
            "exactly-one-owner: the holder must expire before the grant"
        );
    }

    /// Whether output may be released at `at`: an observed ack covers the
    /// instant and the holder's lease is still valid there.
    pub fn may_release(&self, at: Nanos) -> bool {
        let ok = self.acked_at.is_some_and(|acked| at <= acked) && self.holder.valid_at(at);
        debug_assert!(
            !ok || self.grant.valid_at(at),
            "exactly-one-owner: release at {at}ns after the grant ran out"
        );
        ok
    }

    /// When the primary's own lease runs out.
    pub fn holder_expiry(&self) -> Nanos {
        self.holder.expires_at()
    }

    /// Earliest instant the backup may promote (the granted lease's end).
    pub fn promotable_at(&self) -> Nanos {
        self.grant.expires_at()
    }

    /// `Some(expiry)` once per lapse of the holder's lease (edge-triggered;
    /// re-armed by the next ack).
    pub fn lapsed(&mut self, now: Nanos) -> Option<Nanos> {
        (self.holder_was_valid && !self.holder.valid_at(now)).then(|| {
            self.holder_was_valid = false;
            self.holder.expires_at()
        })
    }

    /// Gate a promotion at `now`. Safe only because the primary's own lease
    /// expired strictly earlier, so it is already fenced — checked, not
    /// assumed: a violation is recorded as split-brain *and* fails the run.
    pub fn authorize_promotion(&mut self, now: Nanos) -> SimResult<()> {
        if self.holder.valid_at(now) {
            self.split_brain = true;
            return Err(SimError::Invalid(format!(
                "split-brain: promoting at {now}ns while the primary's output lease is \
                 valid until {}ns",
                self.holder.expires_at()
            )));
        }
        Ok(())
    }

    /// Whether a promotion was ever attempted under a valid holder lease.
    pub fn split_brain(&self) -> bool {
        self.split_brain
    }
}

// ----------------------------------------------------------------------
// Stream-while-serving
// ----------------------------------------------------------------------

/// Which image stream: a full bootstrap of a replacement backup after a
/// failover or backup loss (the container runs unreplicated meanwhile), or
/// a coded repair of one lost replica (epochs keep committing on the
/// quorum). The kind selects the [`Checkpointer`] method family, the trace
/// event names and what the caller does on completion — nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamKind {
    Rearm,
    Repair,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StreamPhase {
    Idle,
    /// The stream starts once the clock reaches `at`.
    Scheduled {
        at: Nanos,
        attempt: u32,
    },
    /// Streaming in bounded per-epoch chunks; `epoch` is the epoch the
    /// image was taken at.
    Streaming {
        attempt: u32,
        epoch: u64,
        pages: u64,
        bytes: u64,
    },
}

/// One image stream to a replacement host while the container keeps
/// serving. At most one is in flight: a failover or a below-quorum loss
/// ends a repair before it schedules a rearm.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stream {
    pub kind: StreamKind,
    pub phase: StreamPhase,
}

impl Stream {
    pub fn idle() -> Self {
        Stream {
            kind: StreamKind::Rearm,
            phase: StreamPhase::Idle,
        }
    }

    /// Whether a stream of `kind` is scheduled or streaming.
    pub fn active(&self, kind: StreamKind) -> bool {
        self.kind == kind && self.phase != StreamPhase::Idle
    }

    /// Whether a stream of `kind` is streaming.
    pub fn streaming(&self, kind: StreamKind) -> bool {
        self.kind == kind && matches!(self.phase, StreamPhase::Streaming { .. })
    }

    pub fn schedule(&mut self, kind: StreamKind, at: Nanos, attempt: u32) {
        *self = Stream {
            kind,
            phase: StreamPhase::Scheduled { at, attempt },
        };
    }

    pub fn reset(&mut self) {
        self.phase = StreamPhase::Idle;
    }

    /// Whether a scheduled stream's start time has come.
    pub fn due(&self, now: Nanos) -> bool {
        matches!(self.phase, StreamPhase::Scheduled { at, .. } if at <= now)
    }

    /// Start the scheduled stream. A rearm takes the full COW-deferred
    /// bootstrap checkpoint of the promoted container and returns its stop
    /// time (roughly an incremental epoch's); a repair reads committed
    /// fragment stores only, so the container never stops (returns 0).
    pub fn begin(
        &mut self,
        now: Nanos,
        engine: &mut dyn Checkpointer,
        primary: &mut Kernel,
        container: &Container,
        epoch: u64,
        tracer: &Tracer,
    ) -> SimResult<Nanos> {
        let StreamPhase::Scheduled { attempt, .. } = self.phase else {
            return Ok(0);
        };
        let stop = match self.kind {
            StreamKind::Rearm => {
                engine.rearm_prepare(primary, container)?;
                primary.meter.take();
                tracer.event_at(TraceEvent::RearmStart { attempt }, now);
                engine.bootstrap_begin(primary, container, epoch)?.stop_time
            }
            StreamKind::Repair => {
                let kind = "repair".into();
                tracer.event_at(TraceEvent::RepairStart { kind, attempt }, now);
                engine.repair_begin(epoch)?;
                0
            }
        };
        self.phase = StreamPhase::Streaming {
            attempt,
            epoch,
            pages: 0,
            bytes: 0,
        };
        Ok(stop)
    }

    /// One bounded chunk (at most `max_pages`), run at the end of each epoch
    /// while streaming. When the last page lands the image seals and commits
    /// on `backup` and the stream goes idle; returns whether that happened.
    /// A repair steps and seals at the current epoch `epoch_now` (mid-repair
    /// commits are folded in); a bootstrap at the epoch its image was taken.
    #[allow(clippy::too_many_arguments)]
    pub fn step(
        &mut self,
        now: Nanos,
        engine: &mut dyn Checkpointer,
        primary: &mut Kernel,
        backup: &mut Kernel,
        epoch_now: u64,
        max_pages: u64,
        tracer: &Tracer,
    ) -> SimResult<bool> {
        let StreamPhase::Streaming {
            attempt,
            epoch,
            pages,
            bytes,
        } = self.phase
        else {
            return Ok(false);
        };
        let rearm = self.kind == StreamKind::Rearm;
        let step = if rearm {
            engine.bootstrap_step(primary, epoch, max_pages)?
        } else {
            engine.repair_step(epoch_now, max_pages)?
        };
        if step.pages > 0 {
            let (pages, bytes) = (step.pages, step.bytes);
            let chunk = if rearm {
                TraceEvent::BootstrapChunk { pages, bytes }
            } else {
                TraceEvent::RepairChunk { pages, bytes }
            };
            tracer.event_at(chunk, now);
        }
        let (pages, bytes) = (pages + step.pages, bytes + step.bytes);
        if step.remaining > 0 {
            self.phase = StreamPhase::Streaming {
                attempt,
                epoch,
                pages,
                bytes,
            };
            return Ok(false);
        }
        let complete = if rearm {
            engine.bootstrap_finish(backup, epoch)?;
            TraceEvent::RearmComplete { pages, bytes }
        } else {
            engine.repair_finish(backup, epoch_now)?;
            TraceEvent::RepairComplete { pages, bytes }
        };
        self.phase = StreamPhase::Idle;
        tracer.event_at(complete, now);
        Ok(true)
    }

    /// The replacement host died mid-stream at `at`: discard the
    /// half-assembled image (a bootstrap also unwinds its COW set on the
    /// primary) and retry after `backoff`, doubled per failed attempt.
    pub fn abort(
        &mut self,
        at: Nanos,
        engine: &mut dyn Checkpointer,
        primary: &mut Kernel,
        container: &Container,
        backoff: Nanos,
    ) -> SimResult<()> {
        let StreamPhase::Streaming { attempt, .. } = self.phase else {
            return Ok(());
        };
        match self.kind {
            StreamKind::Rearm => engine.bootstrap_abort(primary, container)?,
            StreamKind::Repair => engine.repair_abort()?,
        }
        self.phase = StreamPhase::Scheduled {
            at: at + backoff.saturating_mul(1u64 << attempt.min(16)),
            attempt: attempt + 1,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BootstrapBegin, BootstrapStep, CheckpointOutcome, RepairBegin};
    use nilicon_container::RequestOutcome;
    use nilicon_criu::RestoredContainer;
    use nilicon_sim::time::MILLISECOND;
    use nilicon_sim::PAGE_SIZE;

    const E: Nanos = 30 * MILLISECOND;

    // ------------------------------------------------------------------
    // Fence: every event order up to length 6
    // ------------------------------------------------------------------

    #[derive(Debug, Clone, Copy)]
    enum Ev {
        AckGranted,
        AckLost,
        Beat,
        BeatLate,
        PartitionStart,
        PartitionHeal,
        Fault,
        Tick,
    }
    const EVENTS: [Ev; 8] = [
        Ev::AckGranted,
        Ev::AckLost,
        Ev::Beat,
        Ev::BeatLate,
        Ev::PartitionStart,
        Ev::PartitionHeal,
        Ev::Fault,
        Ev::Tick,
    ];

    /// One epoch per event. The primary acks and beats only while it is up
    /// and connected; the backup promotes exactly as both drivers do — once
    /// detection fired *and* the grant ran out. After every event the two
    /// invariants are probed at the instants where they could break.
    fn drive(seq: &[Ev], term: Nanos) {
        let mut fence = Fence::new(term, 0);
        let mut det = FailureDetector::new(E, 3, 0);
        let (mut cut, mut dead, mut promoted_at) = (false, false, None);
        let mut late_beats: Vec<Nanos> = Vec::new();
        // Would-be release instants of every epoch, and the acks observed.
        let (mut epochs, mut acked): (Vec<Nanos>, Vec<Nanos>) = (Vec::new(), Vec::new());
        let mut now = 0;
        for &ev in seq {
            now += E;
            let ack_at = now + 5 * MILLISECOND;
            late_beats.retain(|&due| {
                if due <= now {
                    det.on_beat(due);
                }
                due > now
            });
            let running = !dead && promoted_at.is_none();
            if running {
                epochs.push(ack_at);
            }
            match ev {
                Ev::AckGranted if running && !cut => {
                    fence.on_ack(now, ack_at);
                    acked.push(ack_at);
                }
                Ev::Beat if running && !cut => det.on_beat(now),
                Ev::BeatLate if running && !cut => late_beats.push(now + 2 * E),
                Ev::PartitionStart => cut = true,
                Ev::PartitionHeal => cut = false,
                Ev::Fault => dead = true,
                _ => {}
            }
            if promoted_at.is_none() && det.check(now) && now >= fence.promotable_at() {
                fence
                    .authorize_promotion(now)
                    .unwrap_or_else(|e| panic!("{seq:?} term {term}: {e}"));
                promoted_at = Some(now);
            }
            assert!(!fence.split_brain(), "{seq:?} term {term}");

            let edges = [fence.holder_expiry(), fence.promotable_at()];
            for t in [now, ack_at, edges[0] - 1, edges[0], edges[1] - 1, edges[1]] {
                let promotable = fence.clone().authorize_promotion(t).is_ok();
                assert!(
                    !(fence.may_release(t) && promotable),
                    "{seq:?} term {term}: two owners at {t}"
                );
            }
            for &at in &epochs {
                assert!(
                    !fence.may_release(at) || acked.iter().any(|&a| a >= at),
                    "{seq:?} term {term}: release at {at} with no commit observed"
                );
            }
            if let Some(p) = promoted_at {
                for t in [p, p + 1, now, now + E] {
                    assert!(!fence.may_release(t), "{seq:?}: release after promotion");
                }
            }
        }
    }

    #[test]
    fn fence_never_has_two_owners_nor_releases_ahead_of_a_commit() {
        for term in [45 * MILLISECOND, 90 * MILLISECOND, 150 * MILLISECOND] {
            let mut idx = [0usize; 6];
            loop {
                let seq: Vec<Ev> = idx.iter().map(|&i| EVENTS[i]).collect();
                drive(&seq, term);
                let Some(pos) = idx.iter().position(|&i| i + 1 < EVENTS.len()) else {
                    break;
                };
                idx[..pos].fill(0);
                idx[pos] += 1;
            }
        }
    }

    #[test]
    fn fence_refuses_a_promotion_under_a_valid_holder_lease() {
        let mut fence = Fence::new(150 * MILLISECOND, 0);
        fence.on_ack(E, E + MILLISECOND);
        assert!(fence.may_release(E + MILLISECOND));
        let err = fence.authorize_promotion(2 * E).unwrap_err();
        assert!(err.to_string().contains("split-brain"), "{err}");
        assert!(
            fence.split_brain(),
            "the violation is recorded as well as returned"
        );
        // The lapse is reported once, and re-armed by the next ack.
        assert_eq!(
            fence.lapsed(E + 150 * MILLISECOND),
            Some(E + 150 * MILLISECOND)
        );
        assert_eq!(fence.lapsed(E + 151 * MILLISECOND), None);
        fence.on_ack(10 * E, 10 * E);
        assert_eq!(fence.lapsed(20 * E), Some(10 * E + 150 * MILLISECOND));
    }

    // ------------------------------------------------------------------
    // Stream: schedule → stream → abort → backoff ×2 → stream → complete
    // ------------------------------------------------------------------

    /// A checkpointer that only streams: `total` pages per attempt.
    #[derive(Default)]
    struct FakeStreamer {
        total: u64,
        left: u64,
        calls: Vec<&'static str>,
    }

    impl FakeStreamer {
        fn chunk(&mut self, max_pages: u64) -> SimResult<BootstrapStep> {
            let pages = self.left.min(max_pages);
            self.left -= pages;
            Ok(BootstrapStep {
                pages,
                bytes: pages * PAGE_SIZE as u64,
                backup_cpu: 0,
                remaining: self.left,
            })
        }
    }

    impl Checkpointer for FakeStreamer {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn prepare(&mut self, _: &mut Kernel, _: &Container) -> SimResult<()> {
            Ok(())
        }
        fn checkpoint(
            &mut self,
            _: &mut Kernel,
            _: &mut Kernel,
            _: &Container,
            _: u64,
        ) -> SimResult<CheckpointOutcome> {
            Ok(CheckpointOutcome::default())
        }
        fn commit(&mut self, _: &mut Kernel, _: u64) -> SimResult<Nanos> {
            Ok(0)
        }
        fn failover(&mut self, _: &mut Kernel) -> SimResult<(RestoredContainer, FailoverReport)> {
            unimplemented!("the stream driver never fails over")
        }
        fn committed_epoch(&self) -> Option<u64> {
            None
        }
        fn rearm_prepare(&mut self, _: &mut Kernel, _: &Container) -> SimResult<()> {
            self.calls.push("rearm_prepare");
            Ok(())
        }
        fn bootstrap_begin(
            &mut self,
            _: &mut Kernel,
            _: &Container,
            _: u64,
        ) -> SimResult<BootstrapBegin> {
            self.calls.push("bootstrap_begin");
            self.left = self.total;
            Ok(BootstrapBegin {
                stop_time: 7 * MILLISECOND,
                total_pages: self.total,
                state_bytes: 0,
            })
        }
        fn bootstrap_step(&mut self, _: &mut Kernel, _: u64, max: u64) -> SimResult<BootstrapStep> {
            self.chunk(max)
        }
        fn bootstrap_finish(&mut self, _: &mut Kernel, _: u64) -> SimResult<Nanos> {
            self.calls.push("bootstrap_finish");
            Ok(0)
        }
        fn bootstrap_abort(&mut self, _: &mut Kernel, _: &Container) -> SimResult<()> {
            self.calls.push("bootstrap_abort");
            Ok(())
        }
        fn repair_begin(&mut self, _: u64) -> SimResult<RepairBegin> {
            self.calls.push("repair_begin");
            self.left = self.total;
            Ok(RepairBegin::default())
        }
        fn repair_step(&mut self, _: u64, max: u64) -> SimResult<BootstrapStep> {
            self.chunk(max)
        }
        fn repair_finish(&mut self, _: &mut Kernel, _: u64) -> SimResult<Nanos> {
            self.calls.push("repair_finish");
            Ok(0)
        }
        fn repair_abort(&mut self) -> SimResult<()> {
            self.calls.push("repair_abort");
            Ok(())
        }
    }

    #[test]
    fn stream_retries_with_doubling_backoff_then_completes_for_both_kinds() {
        let backoff = 120 * MILLISECOND;
        let cases: [(_, _, _, &[&str]); 2] = [
            (
                StreamKind::Rearm,
                7 * MILLISECOND,
                ["RearmStart", "BootstrapChunk", "RearmComplete"],
                &[
                    "rearm_prepare",
                    "bootstrap_begin",
                    "bootstrap_abort",
                    "bootstrap_finish",
                ],
            ),
            (
                StreamKind::Repair,
                0,
                ["RepairStart", "RepairChunk", "RepairComplete"],
                &["repair_begin", "repair_abort", "repair_finish"],
            ),
        ];
        for (kind, stop, names, calls) in cases {
            let (mut p, mut b) = (Kernel::default(), Kernel::default());
            let c =
                ContainerRuntime::create(&mut p, &ContainerSpec::server("svc", 10, 6379)).unwrap();
            let mut e = FakeStreamer {
                total: 600,
                ..Default::default()
            };
            let (tracer, ring) = Tracer::in_memory(64);
            let mut s = Stream::idle();
            assert!(!s.active(kind));

            s.schedule(kind, 60 * MILLISECOND, 0);
            assert!(s.active(kind) && !s.streaming(kind));
            assert!(!s.due(60 * MILLISECOND - 1) && s.due(60 * MILLISECOND));

            // Two attempts die mid-stream; the retry delay doubles.
            let mut now = 60 * MILLISECOND;
            for attempt in 0..2u32 {
                assert_eq!(s.begin(now, &mut e, &mut p, &c, 9, &tracer).unwrap(), stop);
                assert!(s.streaming(kind));
                now += E;
                assert!(!s
                    .step(now, &mut e, &mut p, &mut b, 10, 256, &tracer)
                    .unwrap());
                assert_eq!(
                    s.phase,
                    StreamPhase::Streaming {
                        attempt,
                        epoch: 9,
                        pages: 256,
                        bytes: 256 * 4096
                    }
                );
                now += 5 * MILLISECOND;
                s.abort(now, &mut e, &mut p, &c, backoff).unwrap();
                let at = now + (backoff << attempt);
                assert_eq!(
                    s.phase,
                    StreamPhase::Scheduled {
                        at,
                        attempt: attempt + 1
                    }
                );
                assert!(!s.due(at - 1));
                now = at;
            }

            // The third attempt streams 256 + 256 + 88 pages and seals.
            s.begin(now, &mut e, &mut p, &c, 9, &tracer).unwrap();
            assert!(!s
                .step(now, &mut e, &mut p, &mut b, 10, 256, &tracer)
                .unwrap());
            assert!(!s
                .step(now + E, &mut e, &mut p, &mut b, 11, 256, &tracer)
                .unwrap());
            assert!(s
                .step(now + 2 * E, &mut e, &mut p, &mut b, 12, 256, &tracer)
                .unwrap());
            assert!(!s.active(kind), "a completed stream is idle");
            assert!(!s
                .step(now + 3 * E, &mut e, &mut p, &mut b, 13, 256, &tracer)
                .unwrap());

            let recs = ring.snapshot();
            let seen: Vec<&str> = recs.iter().map(|r| r.kind.name()).collect();
            let [start, chunk, complete] = names;
            assert_eq!(
                seen,
                [start, chunk, start, chunk, start, chunk, chunk, chunk, complete],
                "{kind:?}"
            );
            let totals = recs.iter().find_map(|r| match r.kind {
                TraceEvent::RearmComplete { pages, bytes }
                | TraceEvent::RepairComplete { pages, bytes } => Some((pages, bytes)),
                _ => None,
            });
            assert_eq!(
                totals,
                Some((600, 600 * 4096)),
                "the last attempt's totals only"
            );
            let attempts: Vec<u32> = recs
                .iter()
                .filter_map(|r| match r.kind {
                    TraceEvent::RearmStart { attempt }
                    | TraceEvent::RepairStart { attempt, .. } => Some(attempt),
                    _ => None,
                })
                .collect();
            assert_eq!(attempts, [0, 1, 2]);
            for call in calls {
                assert!(e.calls.contains(call), "{kind:?}: {call} in {:?}", e.calls);
            }
            assert_eq!(e.calls.iter().filter(|c| c.ends_with("_abort")).count(), 2);
            assert_eq!(e.calls.iter().filter(|c| c.ends_with("_finish")).count(), 1);
        }
    }

    // ------------------------------------------------------------------
    // serve: a truncated window yields a prefix of the full one
    // ------------------------------------------------------------------

    struct Echo;
    impl Application for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn init(&mut self, _ctx: &mut GuestCtx<'_>) -> SimResult<()> {
            Ok(())
        }
        fn handle_request(
            &mut self,
            ctx: &mut GuestCtx<'_>,
            req: &[u8],
        ) -> SimResult<RequestOutcome> {
            ctx.cpu(200_000);
            ctx.heap_write(0, req)?;
            Ok(RequestOutcome {
                response: req.to_vec(),
            })
        }
    }

    /// Clients that connect and then stay silent (the test scripts the
    /// pending queue itself).
    struct Silent(usize);
    impl ClientBehavior for Silent {
        fn client_count(&self) -> usize {
            self.0
        }
        fn next_request(&mut self, _idx: usize, _now: Nanos) -> Option<Vec<u8>> {
            None
        }
        fn on_response(&mut self, _idx: usize, _resp: &[u8], _now: Nanos, _latency: Nanos) {}
    }

    /// A lane with eight connected clients and one request queued from each,
    /// arriving 3 ms apart from t = 0.
    fn scripted_lane() -> (Cluster, HostId, Lane) {
        let mut cluster = Cluster::new();
        let host = cluster.add_host(Kernel::default());
        let client_host = cluster.add_host(Kernel::default());
        let setup = LaneSetup {
            client_host,
            client: ("client", 200),
            parallelism: 1.0,
            jitter_seed: 1,
            detector_start: 0,
            quiet_release: false,
        };
        let mut lane = Lane::create(
            &mut cluster,
            host,
            &ContainerSpec::server("svc", 10, 6379),
            Box::new(Echo),
            Some(Box::new(Silent(8))),
            &ReplicationConfig::default(),
            setup,
        )
        .unwrap();
        for i in 0..8u64 {
            let pool = lane.pool.as_ref().unwrap();
            let remote = pool.local_endpoint(&mut cluster, i as usize).unwrap();
            lane.pending
                .push_back((remote, Bytes::from(vec![i as u8; 8]), i * 3 * MILLISECOND));
        }
        lane.last_stop = 6 * MILLISECOND;
        (cluster, host, lane)
    }

    #[test]
    fn truncated_window_serves_a_prefix_of_the_full_epoch_with_the_same_done_times() {
        let (mut cluster, host, mut lane) = scripted_lane();
        let full = lane.serve(&mut cluster, host, 0, E, E, None).unwrap();
        assert_eq!(full.requests, 8);
        assert!(lane.pending.is_empty());

        let fault = 10 * MILLISECOND;
        let (mut cluster, host, mut lane) = scripted_lane();
        let cut = lane
            .serve(&mut cluster, host, 0, fault, fault, None)
            .unwrap();
        assert_eq!(
            cut.requests, 4,
            "arrivals at 0, 3, 6 and 9 ms precede the fault"
        );
        assert_eq!(cut.completions[..], full.completions[..4]);
        assert_eq!(lane.pending.len(), 4, "the rest die with the primary");
        // Service-done stretches by the duty cycle (E + last_stop) / E.
        let (_, first_done) = full.completions[0];
        assert!(first_done > 200_000 * 36 / 30, "{first_done}");
        assert!(cut.consumed < full.consumed);
    }
}
