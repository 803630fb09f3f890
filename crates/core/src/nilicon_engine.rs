//! The primary-side NiLiCon replication engine (§IV, §V).

use crate::backup::BackupAgent;
use crate::config::OptimizationConfig;
use crate::engine::{
    BootstrapBegin, BootstrapStep, CheckpointOutcome, Checkpointer, FailoverReport, LogShipOutcome,
    ReplayTail,
};
use crate::trace::{TraceEvent, Tracer};
use nilicon_container::Container;
use nilicon_criu::{
    bootstrap_dump, dump_container, CheckpointImage, DeltaStats, InfrequentCache, PageKey,
    RestoreConfig, RestoredContainer, ShadowStore,
};
use nilicon_drbd::{DrbdMsg, DrbdPrimary};
use nilicon_sim::ids::Pid;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::mem::TrackingMode;
use nilicon_sim::net::InputMode;
use nilicon_sim::replay::{ReplayEvent, ReplayLog};
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimError, SimResult, PAGE_SIZE};
use std::collections::BTreeMap;
use std::rc::Rc;

/// NiLiCon's primary-side engine plus the buffered backup agent.
pub struct NiLiConEngine {
    opts: OptimizationConfig,
    cache: InfrequentCache,
    /// Backup agent (public for Table V accounting and failover tests).
    pub agent: BackupAgent,
    drbd: DrbdPrimary,
    /// Primary-side shadow of the page contents last shipped to the backup —
    /// the base for the next epoch's XOR deltas (`delta_transfer`).
    shadow: ShadowStore,
    prepared: bool,
    tracer: Tracer,
    /// Cost model retained so `rearm_prepare` can rebuild the replica-side
    /// structures (a replacement backup starts from an empty agent).
    costs: nilicon_sim::CostModel,
    /// Address spaces still holding COW-deferred bootstrap pages (empty
    /// outside an active re-replication bootstrap).
    bootstrap_pids: Vec<Pid>,
    /// Backup CPU charged by `bootstrap_begin` (metadata + DRBD resync
    /// receive), carried into the first `bootstrap_step`'s accounting.
    bootstrap_cpu_carry: Nanos,
    /// Test-only fault injection: abort the COW drain after this many page
    /// chunks have been streamed, as if the primary died mid-copy. The
    /// epoch's assembly is never finished at the backup, so it can never be
    /// acked or committed — failover must fall back to the previous epoch.
    pub cow_fail_after_chunks: Option<u64>,
    /// Backup-side store of the shipped nondeterminism logs, keyed by epoch
    /// (`hybrid_replay` extension). Lives engine-side next to the agent — log
    /// chunks are event-typed, not page-typed, so they do not ride the page
    /// assembly barrier, but they share its fate: `rearm_prepare` drops them
    /// with the dead backup.
    log_store: BTreeMap<u64, ReplayLog>,
    /// Test-only fault injection: the primary dies after shipping this many
    /// log chunks — later chunks (and the seal message) are lost in flight,
    /// leaving the tail epoch's log *partial*. Failover must then take the
    /// plain last-checkpoint fallback instead of replaying.
    pub log_fail_after_chunks: Option<u64>,
    /// Log chunks shipped so far (drives `log_fail_after_chunks`).
    log_chunks_shipped: u64,
    /// Staged-pipeline extension: ack-path work of the previous epoch's
    /// pipeline not yet overlapped by execution time. `pipeline_advance`
    /// drains it once per epoch; whatever remains at the next checkpoint
    /// stalls the stop phase (backpressure).
    pipe_backlog: Nanos,
    /// Test-only fault injection (staged pipeline): the backup-ingest stage
    /// crashes once, right after receiving this zero-based chunk index. The
    /// supervisor restarts the stage and the chunk replays from the upstream
    /// queue (peek-before-commit): its receive CPU is charged twice, but the
    /// assembly is mutated exactly once — no lost or duplicated chunk.
    pub stage_fail_at_chunk: Option<u64>,
}

impl std::fmt::Debug for NiLiConEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NiLiConEngine")
            .field("opts", &self.opts)
            .field("agent", &self.agent)
            .finish()
    }
}

impl NiLiConEngine {
    /// New engine. The backup page store follows
    /// [`OptimizationConfig::optimize_criu`] (radix tree vs linked list).
    pub fn new(opts: OptimizationConfig, costs: nilicon_sim::CostModel) -> Self {
        NiLiConEngine {
            opts,
            cache: InfrequentCache::new(),
            agent: BackupAgent::new(costs.clone(), opts.optimize_criu),
            drbd: DrbdPrimary::new(),
            shadow: ShadowStore::new(),
            prepared: false,
            tracer: Tracer::disabled(),
            costs,
            bootstrap_pids: Vec::new(),
            bootstrap_cpu_carry: 0,
            cow_fail_after_chunks: None,
            log_store: BTreeMap::new(),
            log_fail_after_chunks: None,
            log_chunks_shipped: 0,
            pipe_backlog: 0,
            stage_fail_at_chunk: None,
        }
    }

    /// Is the log-loss fault injection currently swallowing chunks?
    fn log_link_down(&self) -> bool {
        self.log_fail_after_chunks
            .is_some_and(|k| self.log_chunks_shipped >= k)
    }

    /// Active optimization set.
    pub fn opts(&self) -> OptimizationConfig {
        self.opts
    }

    fn transfer_cost(&self, primary: &Kernel, bytes: u64, msgs: u64) -> Nanos {
        let c = &primary.costs;
        let mut t = c.repl_link_latency + c.repl_wire(bytes) + msgs * c.repl_msg_overhead;
        if self.opts.dump_config().via_proxy {
            t += c.proxy_overhead(bytes, msgs);
        }
        t
    }

    /// COW extension: the background copy-out of the pages write-protected
    /// at pause, streamed to the backup while the container runs.
    ///
    /// The drain is chunked and the wire is pipelined: chunk `i` can only be
    /// serialized once it has been copied out (`t_drain`) *and* the link has
    /// finished the previous chunk (`t_send`). The metadata image and DRBD
    /// traffic go out first — they are ready the moment the container
    /// resumes — so transfer overlaps copy-out. The ack lands one
    /// propagation latency after the last chunk plus the backup's receive
    /// CPU: the epoch is acked only once every deferred page has arrived,
    /// and the backup's `finish_assembly` barrier enforces the same
    /// condition structurally.
    ///
    /// Returns `(ack_delay, state_bytes, backup_cpu)`. The emitted
    /// `CowCopy + Transfer + BackupIngest + Ack` spans tile `ack_delay`
    /// exactly.
    fn cow_stream(
        &mut self,
        primary: &mut Kernel,
        mut img: CheckpointImage,
        msgs: Vec<DrbdMsg>,
        drbd_bytes: u64,
        drbd_msgs: u64,
        epoch: u64,
    ) -> SimResult<(Nanos, u64, Nanos)> {
        /// Pages per streamed chunk (the same batch size
        /// `CheckpointImage::transfer_chunks` models for the eager path).
        const COW_CHUNK: usize = 64;
        let costs = primary.costs.clone();
        let link = costs.repl_link_latency;

        let deferred = std::mem::take(&mut img.deferred_vpns);
        let expected = deferred.len() as u64;
        let mut pids: Vec<Pid> = Vec::new();
        for &(pid, _) in &deferred {
            if !pids.contains(&pid) {
                pids.push(pid);
            }
        }

        // Chunk 0: metadata + DRBD, ready immediately. `transfer_cost`
        // includes the propagation latency; peel it off — in the pipelined
        // model it is paid once, after the last chunk is serialized.
        let meta_bytes = img.state_bytes() + drbd_bytes;
        let meta_ser =
            self.transfer_cost(primary, meta_bytes, img.transfer_chunks() + drbd_msgs) - link;
        let mut backup_cpu = self.agent.begin_assembly(img, expected);
        backup_cpu += self.agent.ingest_drbd(msgs);

        let delta = self.opts.delta_transfer;
        let mut dstats = DeltaStats::default();
        let mut drained = 0u64;
        let mut payload_bytes = 0u64;
        let mut chunks_sent = 0u64;
        let mut t_drain: Nanos = 0; // when chunk i finishes copy-out
        let mut t_send: Nanos = meta_ser; // when the link finishes chunk i
        let mut aborted = false;
        'drain: for &pid in &pids {
            loop {
                let m0 = primary.meter.lifetime_total();
                // The drain lends each frame; a page is copied out only if
                // it ships whole. Delta composition: encode at copy time
                // against the shadow of the last shipped epoch — the encode
                // CPU rides the drain, off the stop phase.
                let mut pages = Vec::with_capacity(if delta { 0 } else { COW_CHUNK });
                let mut deltas = Vec::with_capacity(if delta { COW_CHUNK } else { 0 });
                let mut bytes = 0u64;
                let shadow = &mut self.shadow;
                let n = primary.cow_drain_with(pid, COW_CHUNK, |vpn, page| {
                    if delta {
                        let key = PageKey { pid, vpn };
                        let enc = shadow.encode_with(key, page, || Rc::new(*page), &mut dstats);
                        bytes += enc.encoded_bytes();
                        deltas.push((pid, vpn, enc));
                    } else {
                        bytes += PAGE_SIZE as u64;
                        pages.push((pid, vpn, Rc::new(*page)));
                    }
                })? as u64;
                if n == 0 {
                    break;
                }
                if delta {
                    primary.meter.charge(n * costs.delta_encode_per_page);
                }
                t_drain += primary.meter.lifetime_total() - m0;
                t_send = t_send.max(t_drain) + costs.repl_wire(bytes) + costs.repl_msg_overhead;
                drained += n;
                payload_bytes += bytes;
                chunks_sent += 1;
                let ingest_cpu = self.agent.ingest_chunk(epoch, pages, deltas)?;
                backup_cpu += ingest_cpu;
                if self.stage_fail_at_chunk.is_some_and(|k| k + 1 == chunks_sent) {
                    // Ingest-stage crash: the chunk replays from the upstream
                    // queue — received twice, applied once (the crashed
                    // attempt died before mutating the assembly).
                    self.stage_fail_at_chunk = None;
                    backup_cpu += ingest_cpu;
                    self.tracer.mark(TraceEvent::StageRestart {
                        stage: "ingest".into(),
                        chunk: chunks_sent - 1,
                    });
                }
                if self.cow_fail_after_chunks.is_some_and(|k| chunks_sent >= k) {
                    aborted = true;
                    break 'drain;
                }
            }
        }
        let mut faults = 0u64;
        for &pid in &pids {
            faults += primary.take_cow_faults(pid)?;
        }
        // The drain was sampled off the lifetime meter; clear the interval
        // meter so the next exec phase starts clean (the stop phase was
        // already consumed by `checkpoint`).
        primary.meter.take();

        if !aborted {
            // Commit barrier: the epoch becomes ackable only now.
            self.agent.finish_assembly(epoch)?;
        }

        let ack_delay = t_send + link + backup_cpu + link;
        self.tracer.span(
            TraceEvent::CowCopy {
                pages: drained,
                bytes: payload_bytes,
            },
            t_drain,
        );
        if faults > 0 {
            self.tracer.mark(TraceEvent::CowFault { faults });
        }
        if delta && self.tracer.enabled() {
            self.tracer.mark(TraceEvent::DeltaEncode {
                zero_pages: dstats.zero_pages,
                delta_pages: dstats.delta_pages,
                full_pages: dstats.full_pages,
                raw_bytes: dstats.raw_bytes,
                encoded_bytes: dstats.encoded_bytes,
            });
        }
        self.tracer.span(
            TraceEvent::Transfer {
                bytes: meta_bytes + payload_bytes,
            },
            t_send + link - t_drain,
        );
        self.tracer
            .span(TraceEvent::BackupIngest { probes: 0 }, backup_cpu);
        self.tracer.span(TraceEvent::Ack, link);
        Ok((ack_delay, meta_bytes + payload_bytes, backup_cpu))
    }

    /// Staged-pipeline extension: the eager dump's page payload leaves the
    /// stop phase and flows through delta-encode → transfer → backup-ingest
    /// stages overlapped with the next execution phase. The dumped pages are
    /// immutable refcounted snapshots, so encoding them after resume cannot
    /// race container writes — the stop phase keeps only freeze + dump +
    /// local copy.
    ///
    /// The queue between encode and transfer holds [`PIPE_BOUND`] chunks:
    /// chunk `i`'s encode cannot start before the link finished chunk
    /// `i - PIPE_BOUND`, so the pipeline cannot run arbitrarily far ahead of
    /// a slow link. Chunks hand off peek-before-commit — the upstream queue
    /// keeps a chunk until the downstream stage durably accepted it, so a
    /// crashed-and-restarted stage ([`stage_fail_at_chunk`]) replays its
    /// in-flight chunk: charged twice in time, applied once to the assembly.
    /// The epoch becomes ackable only at the `finish_assembly` barrier,
    /// exactly like the synchronous path, so the committed image is
    /// byte-identical.
    ///
    /// Returns `(ack_delay, state_bytes, backup_cpu)`; the emitted
    /// `Transfer + BackupIngest + Ack` spans tile `ack_delay` exactly.
    ///
    /// [`stage_fail_at_chunk`]: NiLiConEngine::stage_fail_at_chunk
    fn pipeline_stream(
        &mut self,
        primary: &mut Kernel,
        mut img: CheckpointImage,
        msgs: Vec<DrbdMsg>,
        drbd_bytes: u64,
        drbd_msgs: u64,
        epoch: u64,
    ) -> SimResult<(Nanos, u64, Nanos)> {
        /// Pages per pipelined chunk (matches `cow_stream`/`transfer_chunks`).
        const PIPE_CHUNK: usize = 64;
        /// Bounded-queue depth between the encode and transfer stages.
        const PIPE_BOUND: usize = 4;
        let costs = primary.costs.clone();
        let link = costs.repl_link_latency;

        let pages = std::mem::take(&mut img.pages);
        let expected = pages.len() as u64;
        // Chunk 0: metadata + DRBD, ready the moment the container resumes.
        // `transfer_cost` includes the propagation latency; peel it off — in
        // the pipelined model it is paid once, after the last chunk.
        let meta_bytes = img.state_bytes() + drbd_bytes;
        let meta_ser =
            self.transfer_cost(primary, meta_bytes, img.transfer_chunks() + drbd_msgs) - link;
        let mut backup_cpu = self.agent.begin_assembly(img, expected);
        backup_cpu += self.agent.ingest_drbd(msgs);

        let delta = self.opts.delta_transfer;
        let mut dstats = DeltaStats::default();
        let mut payload_bytes = 0u64;
        let mut t_enc: Nanos = 0; // when the encode stage finishes chunk i
        let mut t_send: Nanos = meta_ser; // when the link finishes chunk i
        let mut sent_at: Vec<Nanos> = Vec::new();
        for (i, chunk) in pages.chunks(PIPE_CHUNK).enumerate() {
            let n = chunk.len() as u64;
            if self.tracer.enabled() {
                self.tracer.mark(TraceEvent::StageEnqueue {
                    stage: "encode".into(),
                    chunk: i as u64,
                });
            }
            // Bounded handoff: the encode stage stalls while the link is
            // PIPE_BOUND chunks behind (its output queue is full).
            let gate = if i >= PIPE_BOUND { sent_at[i - PIPE_BOUND] } else { 0 };
            let (pages_out, deltas_out, bytes, encode_cost) = if delta {
                // Encode against the shadow of the last shipped epoch — the
                // CPU rides the background stage, off the stop phase.
                let cost = n * costs.delta_encode_per_page;
                primary.meter.charge(cost);
                let mut encs = Vec::with_capacity(chunk.len());
                let mut bytes = 0u64;
                for (pid, vpn, data) in chunk {
                    let enc = self.shadow.encode(
                        PageKey { pid: *pid, vpn: *vpn },
                        data,
                        &mut dstats,
                    );
                    bytes += enc.encoded_bytes();
                    encs.push((*pid, *vpn, enc));
                }
                (Vec::new(), encs, bytes, cost)
            } else {
                (chunk.to_vec(), Vec::new(), n * PAGE_SIZE as u64, 0)
            };
            t_enc = t_enc.max(gate) + encode_cost;
            // Queueing delay between encode-done and link pickup.
            let wait = t_send.saturating_sub(t_enc);
            t_send = t_send.max(t_enc) + costs.repl_wire(bytes) + costs.repl_msg_overhead;
            sent_at.push(t_send);
            payload_bytes += bytes;
            let ingest_cpu = self.agent.ingest_chunk(epoch, pages_out, deltas_out)?;
            backup_cpu += ingest_cpu;
            if self.stage_fail_at_chunk.is_some_and(|k| k == i as u64) {
                // Ingest-stage crash: the chunk replays from the upstream
                // queue — received twice, applied once (the crashed attempt
                // died before mutating the assembly).
                self.stage_fail_at_chunk = None;
                backup_cpu += ingest_cpu;
                self.tracer.mark(TraceEvent::StageRestart {
                    stage: "ingest".into(),
                    chunk: i as u64,
                });
            }
            if self.tracer.enabled() {
                self.tracer.mark(TraceEvent::StageDequeue {
                    stage: "transfer".into(),
                    chunk: i as u64,
                    wait,
                });
            }
        }
        // The encode CPU was charged to the background stage; it must not
        // bill the next exec phase's interval meter.
        primary.meter.take();

        // Commit barrier: the epoch becomes ackable only now.
        self.agent.finish_assembly(epoch)?;

        let ack_delay = t_send + link + backup_cpu + link;
        if delta && self.tracer.enabled() {
            self.tracer.mark(TraceEvent::DeltaEncode {
                zero_pages: dstats.zero_pages,
                delta_pages: dstats.delta_pages,
                full_pages: dstats.full_pages,
                raw_bytes: dstats.raw_bytes,
                encoded_bytes: dstats.encoded_bytes,
            });
        }
        self.tracer.span(
            TraceEvent::Transfer {
                bytes: meta_bytes + payload_bytes,
            },
            t_send + link,
        );
        self.tracer
            .span(TraceEvent::BackupIngest { probes: 0 }, backup_cpu);
        self.tracer.span(TraceEvent::Ack, link);
        Ok((ack_delay, meta_bytes + payload_bytes, backup_cpu))
    }
}

impl Checkpointer for NiLiConEngine {
    fn name(&self) -> &'static str {
        "NiLiCon"
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn inject_stage_fail(&mut self, chunk: u64) {
        self.stage_fail_at_chunk = Some(chunk);
    }

    fn prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        // Arm soft-dirty tracking on every container address space. No
        // clear_refs here: everything the application wrote during init is
        // still soft-dirty, so the first incremental checkpoint captures the
        // full initial state (the initial sync).
        let mode = if self.opts.pml_tracking {
            TrackingMode::HardwareLog
        } else {
            TrackingMode::SoftDirty
        };
        for pid in container.all_pids() {
            primary.mm_mut(pid)?.set_tracking(mode);
        }
        // Input-blocking mechanism (§V-C).
        let mode = if self.opts.plug_input_blocking {
            InputMode::Buffer
        } else {
            InputMode::Drop
        };
        primary
            .stack_mut(container.ns.net)?
            .input_gate
            .set_mode(mode);
        // Output commit: plug the egress qdisc for the whole run.
        primary.stack_mut(container.ns.net)?.plugged = true;
        self.prepared = true;
        Ok(())
    }

    fn checkpoint(
        &mut self,
        primary: &mut Kernel,
        backup: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<CheckpointOutcome> {
        if !self.prepared {
            return Err(SimError::Invalid("engine not prepared".into()));
        }
        let cfg = self.opts.dump_config();
        // The staged pipeline needs the staging buffer (§V-D(2)) to overlap
        // the ack path with execution; COW has its own streaming drain, so
        // the eager pipelined path covers the remaining shape.
        let pipelined = self.opts.pipeline && self.opts.staging_buffer && !cfg.cow;
        primary.meter.take();

        // --- Stop phase -------------------------------------------------
        // Phase boundaries are sampled off the lifetime meter so the emitted
        // trace spans telescope exactly to the final `stop_time`.
        let m_start = primary.meter.lifetime_total();
        primary.freeze_cgroup(container.cgroup, cfg.freeze)?;
        // Block network input (§III): even frozen, RX would mutate state.
        let block_cost = if self.opts.plug_input_blocking {
            primary.costs.plug_block_cycle
        } else {
            primary.costs.firewall_block_cycle
        };
        primary.meter.charge(block_cost);
        primary.stack_mut(container.ns.net)?.block_input();
        let m_frozen = primary.meter.lifetime_total();

        // Incremental dump.
        let cache = if self.opts.cache_infrequent {
            Some(&mut self.cache)
        } else {
            None
        };
        let mut img = dump_container(primary, container, &cfg, cache, epoch)?;
        let dirty_pages = img.stats.dirty_pages;
        let dump_phases = img.stats.phases;
        let m_dumped = primary.meter.lifetime_total();

        // Delta-encode the page payload for the wire (HyCoR extension):
        // classify each dirty page against the shadow of the last shipped
        // epoch. The encode CPU is part of the stop phase — it must finish
        // before the container resumes, or the parasite's page contents
        // could change under the encoder. Under COW the pages are deferred,
        // so encoding moves to the background drain (`cow_stream`); under the
        // staged pipeline the dumped pages are immutable snapshots, so
        // encoding moves to the background encode stage (`pipeline_stream`).
        let delta_stats = if self.opts.delta_transfer && !cfg.cow && !pipelined {
            let stats = img.encode_pages(&mut self.shadow);
            primary
                .meter
                .charge(stats.pages() * primary.costs.delta_encode_per_page);
            Some(stats)
        } else {
            None
        };
        let m_encoded = primary.meter.lifetime_total();
        let state_bytes = img.state_bytes();
        let chunks = img.transfer_chunks();

        // DRBD: ship this epoch's disk writes + barrier (async — the wire
        // time of disk writes does not stop the container).
        let mut msgs = self.drbd.ship(&mut primary.vfs.disk);
        msgs.push(self.drbd.barrier(epoch));
        let wire = nilicon_drbd::wire_stats(&msgs);
        let drbd_msgs = msgs.len() as u64;

        // Resume.
        primary.stack_mut(container.ns.net)?.unblock_input();
        primary.thaw_cgroup(container.cgroup)?;
        let m_resumed = primary.meter.lifetime_total();
        let mut stop_time = primary.meter.take();

        self.tracer.span(TraceEvent::Freeze, m_frozen - m_start);
        self.tracer.span(TraceEvent::Dump { dirty_pages }, m_dumped - m_frozen);
        if self.tracer.enabled() {
            self.tracer.mark(TraceEvent::DumpDetail {
                processes: dump_phases.processes,
                pages: dump_phases.pages,
                sockets: dump_phases.sockets,
                fs_cache: dump_phases.fs_cache,
                infrequent: dump_phases.infrequent,
            });
        }
        if let Some(ds) = delta_stats {
            self.tracer.span(
                TraceEvent::DeltaEncode {
                    zero_pages: ds.zero_pages,
                    delta_pages: ds.delta_pages,
                    full_pages: ds.full_pages,
                    raw_bytes: ds.raw_bytes,
                    encoded_bytes: ds.encoded_bytes,
                },
                m_encoded - m_dumped,
            );
        }
        self.tracer.span(TraceEvent::LocalCopy, m_resumed - m_encoded);
        self.tracer.mark(TraceEvent::DrbdShip {
            writes: wire.writes,
            bytes: wire.bytes,
        });

        // Staged pipeline: if the previous epoch's pipeline has not fully
        // drained, the stop phase stalls until the backlog clears. A link
        // slower than the epoch's execution phase thus degrades toward the
        // paper's synchronous behavior instead of queueing unboundedly.
        if self.opts.pipeline && self.pipe_backlog > 0 {
            let stalled = std::mem::take(&mut self.pipe_backlog);
            stop_time += stalled;
            self.tracer.span(TraceEvent::Backpressure { stalled }, stalled);
        }

        // --- Transfer + ack --------------------------------------------
        // COW: the container is already running; drain the write-protected
        // pages into staging and stream them to the backup, chunk by chunk.
        if cfg.cow {
            let (ack_delay, state_bytes, backup_cpu) =
                self.cow_stream(primary, img, msgs, wire.bytes, drbd_msgs, epoch)?;
            if self.opts.pipeline {
                self.pipe_backlog = ack_delay;
            }
            return Ok(CheckpointOutcome {
                stop_time,
                state_bytes,
                dirty_pages,
                ack_delay,
                backup_cpu,
            });
        }

        // Staged pipeline (eager dump): the page payload flows through the
        // encode → transfer → ingest stages overlapped with the next
        // execution phase.
        if pipelined {
            let (ack_delay, state_bytes, backup_cpu) =
                self.pipeline_stream(primary, img, msgs, wire.bytes, drbd_msgs, epoch)?;
            self.pipe_backlog = ack_delay;
            return Ok(CheckpointOutcome {
                stop_time,
                state_bytes,
                dirty_pages,
                ack_delay,
                backup_cpu,
            });
        }

        // Without the staging buffer the parasite pipes pages out one at a
        // time, so the synchronous transfer pays per-page message overheads
        // (part of what §V-D(2)+(3) eliminate).
        let transfer_msgs = if self.opts.staging_buffer {
            chunks
        } else {
            chunks + dirty_pages
        };
        let transfer =
            self.transfer_cost(primary, state_bytes + wire.bytes, transfer_msgs + drbd_msgs);
        let link = primary.costs.repl_link_latency;
        let mut backup_cpu = self.agent.ingest(img);
        backup_cpu += self.agent.ingest_drbd(msgs);
        self.tracer.span(
            TraceEvent::Transfer {
                bytes: state_bytes + wire.bytes,
            },
            transfer,
        );

        let ack_delay = if self.opts.staging_buffer {
            // §V-D(2): transfer overlaps the next execution phase; the ack
            // (and output release) lands after wire + backup receive. The
            // page-store probes happen at the deferred commit — see the
            // `BackupCommit` marker emitted there.
            self.tracer
                .span(TraceEvent::BackupIngest { probes: 0 }, backup_cpu);
            self.tracer.span(TraceEvent::Ack, link);
            transfer + backup_cpu + link
        } else {
            // Without staging, the container stays stopped until the backup
            // has consumed the state — transfer, receive, and inline commit
            // are all on the critical path.
            let commit_cpu = self.agent.commit(epoch, &mut backup.vfs.disk)?;
            let (probes, _) = self.agent.last_commit_stats();
            self.tracer
                .span(TraceEvent::BackupIngest { probes }, backup_cpu + commit_cpu);
            self.tracer.span(TraceEvent::Ack, link);
            stop_time += transfer + backup_cpu + commit_cpu + link;
            0
        };

        Ok(CheckpointOutcome {
            stop_time,
            state_bytes: state_bytes + wire.bytes,
            dirty_pages,
            ack_delay,
            backup_cpu,
        })
    }

    fn pipeline_advance(&mut self, elapsed: Nanos) {
        self.pipe_backlog = self.pipe_backlog.saturating_sub(elapsed);
    }

    fn commit(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        // Logs at or below the committed checkpoint are dead weight — their
        // effects are inside the checkpoint image.
        self.log_store.retain(|&e, _| e > epoch);
        if self.opts.staging_buffer {
            let cpu = self.agent.commit(epoch, &mut backup.vfs.disk)?;
            if self.tracer.enabled() {
                let (probes, disk_pages) = self.agent.last_commit_stats();
                self.tracer
                    .mark(TraceEvent::BackupCommit { probes, disk_pages });
            }
            Ok(cpu)
        } else {
            Ok(0) // already committed inline during the stop phase
        }
    }

    fn failover(&mut self, backup: &mut Kernel) -> SimResult<(RestoredContainer, FailoverReport)> {
        self.agent.discard_uncommitted();
        let img = self.agent.materialize()?;
        let restore_cfg = RestoreConfig {
            optimized_rto: self.opts.optimized_rto,
            block_input: true,
        };
        backup.meter.take();
        let restored = nilicon_criu::restore_container(backup, &img, &restore_cfg)?;
        backup.meter.take();

        let c = &backup.costs;
        let rto = if self.opts.optimized_rto {
            c.tcp_rto_repair_min
        } else {
            c.tcp_rto_default
        };
        // Sockets come back roughly half-way through the restore (fd-table
        // restoration precedes page loading for later processes); the RTO
        // runs concurrently with the remaining restore and the ARP
        // broadcast. Table II reports only the non-overlapped remainder.
        let tcp = rto.saturating_sub(restored.restore_time / 2 + c.gratuitous_arp);
        let report = FailoverReport {
            restore: restored.restore_time,
            arp: c.gratuitous_arp,
            tcp,
            others: c.recovery_misc,
            disk_pages_committed: 0,
        };
        Ok((restored, report))
    }

    fn committed_epoch(&self) -> Option<u64> {
        self.agent.committed_epoch()
    }

    fn supports_rearm(&self) -> bool {
        self.opts.rearm
    }

    fn rearm_prepare(&mut self, primary: &mut Kernel, container: &Container) -> SimResult<()> {
        // The old backup died with its buffers: every replica-side structure
        // restarts empty, and the delta shadow is stale (the replacement has
        // no base image to patch against).
        self.cache = InfrequentCache::new();
        self.agent = BackupAgent::new(self.costs.clone(), self.opts.optimize_criu);
        self.drbd = DrbdPrimary::new();
        self.shadow = ShadowStore::new();
        self.bootstrap_pids.clear();
        self.bootstrap_cpu_carry = 0;
        self.log_store.clear();
        self.log_chunks_shipped = 0;
        self.pipe_backlog = 0;
        self.prepared = false;
        self.prepare(primary, container)
    }

    fn bootstrap_begin(
        &mut self,
        primary: &mut Kernel,
        container: &Container,
        epoch: u64,
    ) -> SimResult<BootstrapBegin> {
        if !self.prepared {
            return Err(SimError::Invalid("engine not prepared for bootstrap".into()));
        }
        let cfg = self.opts.dump_config();
        primary.meter.take();

        // Stop phase: freeze + block input, full dump with the page copies
        // deferred via COW, DRBD full-device snapshot, resume. The container
        // pauses for roughly one incremental epoch's stop time even though
        // the entire image is being captured.
        primary.freeze_cgroup(container.cgroup, cfg.freeze)?;
        let block_cost = if self.opts.plug_input_blocking {
            primary.costs.plug_block_cycle
        } else {
            primary.costs.firewall_block_cycle
        };
        primary.meter.charge(block_cost);
        primary.stack_mut(container.ns.net)?.block_input();

        let cache = if self.opts.cache_infrequent {
            Some(&mut self.cache)
        } else {
            None
        };
        let mut img = bootstrap_dump(primary, container, &cfg, cache, epoch)?;

        // The write log only covers history the dead backup already had; the
        // full-device snapshot below supersedes it.
        let _ = primary.vfs.disk.take_writes();
        let mut msgs: Vec<DrbdMsg> = primary
            .vfs
            .disk
            .full_sync_writes()
            .into_iter()
            .map(DrbdMsg::Write)
            .collect();
        msgs.push(self.drbd.barrier(epoch));

        primary.stack_mut(container.ns.net)?.unblock_input();
        primary.thaw_cgroup(container.cgroup)?;
        let stop_time = primary.meter.take();

        let deferred = std::mem::take(&mut img.deferred_vpns);
        let total_pages = deferred.len() as u64;
        let state_bytes = img.state_bytes();
        self.bootstrap_pids.clear();
        for &(pid, _) in &deferred {
            if !self.bootstrap_pids.contains(&pid) {
                self.bootstrap_pids.push(pid);
            }
        }
        self.bootstrap_cpu_carry = self.agent.begin_assembly(img, total_pages);
        self.bootstrap_cpu_carry += self.agent.ingest_drbd(msgs);
        Ok(BootstrapBegin {
            stop_time,
            total_pages,
            state_bytes,
        })
    }

    fn bootstrap_step(
        &mut self,
        primary: &mut Kernel,
        epoch: u64,
        max_pages: u64,
    ) -> SimResult<BootstrapStep> {
        /// Pages per streamed message, matching `cow_stream`'s batch size.
        const COW_CHUNK: usize = 64;
        let mut pages = 0u64;
        let mut bytes = 0u64;
        let mut backup_cpu = std::mem::take(&mut self.bootstrap_cpu_carry);
        let pids = self.bootstrap_pids.clone();
        'drain: for &pid in &pids {
            loop {
                if pages >= max_pages {
                    break 'drain;
                }
                let want = ((max_pages - pages) as usize).min(COW_CHUNK);
                let chunk = primary.cow_drain_pages(pid, want)?;
                if chunk.is_empty() {
                    break;
                }
                let n = chunk.len() as u64;
                let batch: Vec<_> = chunk.into_iter().map(|(vpn, d)| (pid, vpn, d)).collect();
                backup_cpu += self.agent.ingest_chunk(epoch, batch, Vec::new())?;
                pages += n;
                bytes += n * PAGE_SIZE as u64;
            }
        }
        let mut remaining = 0u64;
        for &pid in &pids {
            primary.take_cow_faults(pid)?;
            remaining += primary.cow_pending(pid)? as u64;
        }
        // The drain rides the background thread: it must not bill the next
        // exec phase's interval meter.
        primary.meter.take();
        Ok(BootstrapStep {
            pages,
            bytes,
            backup_cpu,
            remaining,
        })
    }

    fn bootstrap_finish(&mut self, backup: &mut Kernel, epoch: u64) -> SimResult<Nanos> {
        self.agent.finish_assembly(epoch)?;
        if !self.agent.epoch_complete(epoch) {
            return Err(SimError::Invalid(format!(
                "bootstrap epoch {epoch} sealed without its disk barrier"
            )));
        }
        let cpu = self.agent.commit(epoch, &mut backup.vfs.disk)?;
        self.bootstrap_pids.clear();
        Ok(cpu)
    }

    fn bootstrap_abort(&mut self, primary: &mut Kernel, _container: &Container) -> SimResult<()> {
        // Unwind the COW protect set — drain every deferred page to nowhere
        // so the promoted container stops write-faulting — and drop the
        // half-assembled image with the dead replacement.
        let pids = std::mem::take(&mut self.bootstrap_pids);
        for &pid in &pids {
            while !primary.cow_drain_pages(pid, 64)?.is_empty() {}
            primary.take_cow_faults(pid)?;
        }
        primary.meter.take();
        self.bootstrap_cpu_carry = 0;
        let _ = self.agent.discard_uncommitted();
        Ok(())
    }

    fn supports_replay(&self) -> bool {
        self.opts.hybrid_replay
    }

    fn ship_log(
        &mut self,
        primary: &mut Kernel,
        epoch: u64,
        events: &[ReplayEvent],
    ) -> SimResult<LogShipOutcome> {
        if !self.opts.hybrid_replay {
            return Err(SimError::Invalid("hybrid_replay is off".into()));
        }
        if events.is_empty() {
            return Ok(LogShipOutcome::default());
        }
        let c = &primary.costs;
        let bytes: u64 = events.iter().map(ReplayEvent::byte_len).sum();
        let backup_cpu = c.backup_recv(bytes, 1);
        // One chunk out, one commit confirmation back — the whole point of
        // the hybrid scheme is that this round-trip is link-scale (~tens of
        // µs), not epoch-scale.
        let commit_latency = c.repl_link_latency
            + c.repl_wire(bytes)
            + c.repl_msg_overhead
            + backup_cpu
            + c.repl_link_latency;
        let link_down = self.log_link_down();
        self.log_chunks_shipped += 1;
        if link_down {
            // The chunk left the primary but never arrived: the epoch's log
            // stays short and unsealed. The caller still observes a normal
            // send — the primary cannot know its link just died.
            return Ok(LogShipOutcome {
                bytes,
                chunks: 1,
                commit_latency,
                backup_cpu: 0,
            });
        }
        let log = self
            .log_store
            .entry(epoch)
            .or_insert_with(|| ReplayLog::new(epoch));
        log.events.extend_from_slice(events);
        Ok(LogShipOutcome {
            bytes,
            chunks: 1,
            commit_latency,
            backup_cpu,
        })
    }

    fn seal_log(&mut self, epoch: u64) -> SimResult<()> {
        if !self.opts.hybrid_replay {
            return Err(SimError::Invalid("hybrid_replay is off".into()));
        }
        if self.log_link_down() {
            return Ok(()); // the seal message is lost with the link
        }
        self.log_store
            .entry(epoch)
            .or_insert_with(|| ReplayLog::new(epoch))
            .sealed = true;
        Ok(())
    }

    fn take_replay_tail(&mut self) -> SimResult<ReplayTail> {
        if !self.opts.hybrid_replay {
            return Err(SimError::Invalid("hybrid_replay is off".into()));
        }
        let committed = self.agent.committed_epoch();
        let store = std::mem::take(&mut self.log_store);
        let mut tail = ReplayTail::default();
        let mut expect = committed.map(|e| e + 1).unwrap_or(1);
        for (epoch, log) in store {
            if committed.is_some_and(|c| epoch <= c) {
                continue; // already inside the checkpoint
            }
            if epoch != expect {
                tail.dropped_partial = true; // gap: a whole epoch log vanished
                break;
            }
            if !log.sealed {
                tail.dropped_partial = true; // partial tail: seal never landed
                break;
            }
            expect += 1;
            tail.logs.push(log);
        }
        Ok(tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_container::{ContainerRuntime, ContainerSpec, MemLayout};
    use nilicon_sim::time::MILLISECOND;

    fn setup() -> (Kernel, Kernel, Container, NiLiConEngine) {
        let mut primary = Kernel::default();
        let backup = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut primary, &spec).unwrap();
        let engine = NiLiConEngine::new(OptimizationConfig::nilicon(), primary.costs.clone());
        (primary, backup, c, engine)
    }

    #[test]
    fn checkpoint_requires_prepare() {
        let (mut p, mut b, c, mut e) = setup();
        assert!(e.checkpoint(&mut p, &mut b, &c, 1).is_err());
    }

    #[test]
    fn epoch_cycle_ships_state_to_backup() {
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"epoch1")
            .unwrap();
        let o1 = e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        assert_eq!(o1.dirty_pages, 1);
        assert!(o1.stop_time > 0);
        assert!(o1.ack_delay > 0, "staged: ack after resume");
        e.commit(&mut b, 1).unwrap();
        assert_eq!(e.committed_epoch(), Some(1));
        assert_eq!(e.agent.stored_pages(), 1);

        // Clean epoch: nothing dirty.
        let o2 = e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
        assert_eq!(o2.dirty_pages, 0);
        assert!(o2.state_bytes < o1.state_bytes);
    }

    #[test]
    fn warm_stop_time_is_small_with_all_optimizations() {
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        // Warm the cache.
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"x").unwrap();
        let o = e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
        assert!(
            o.stop_time < 15 * MILLISECOND,
            "optimized warm stop for a small container, got {}ms",
            o.stop_time / MILLISECOND
        );
    }

    #[test]
    fn basic_config_stop_time_is_huge() {
        let mut p = Kernel::default();
        let mut b = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut p, &spec).unwrap();
        let mut e = NiLiConEngine::new(OptimizationConfig::basic(), p.costs.clone());
        e.prepare(&mut p, &c).unwrap();
        let o = e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        assert!(
            o.stop_time > 250 * MILLISECOND,
            "basic = freeze sleep + full infrequent collect + sync transfer, got {}ms",
            o.stop_time / MILLISECOND
        );
        assert_eq!(o.ack_delay, 0, "no staging buffer: ack inside stop");
        assert_eq!(e.committed_epoch(), Some(1), "inline commit");
    }

    #[test]
    fn delta_transfer_shrinks_wire_bytes_and_reconciles() {
        use crate::trace::{TraceEvent, Tracer};
        let run = |delta: bool| {
            let mut p = Kernel::default();
            let mut b = Kernel::default();
            let spec = ContainerSpec::server("redis", 10, 6379);
            let c = ContainerRuntime::create(&mut p, &spec).unwrap();
            let mut opts = OptimizationConfig::nilicon();
            opts.delta_transfer = delta;
            let mut e = NiLiConEngine::new(opts, p.costs.clone());
            let (tracer, ring) = Tracer::in_memory(256);
            e.set_tracer(tracer.clone());
            e.prepare(&mut p, &c).unwrap();
            let mut total_bytes = 0u64;
            for epoch in 1..=4 {
                // Same single-byte edit each epoch: page 0 is sparse churn.
                p.mem_write(c.init_pid(), MemLayout::heap(0), &[epoch as u8])
                    .unwrap();
                tracer.begin_epoch(epoch as u64, 0);
                let o = e.checkpoint(&mut p, &mut b, &c, epoch as u64).unwrap();
                tracer
                    .reconcile(epoch as u64, o.stop_time, o.ack_delay)
                    .unwrap();
                e.commit(&mut b, epoch as u64).unwrap();
                total_bytes += o.state_bytes;
            }
            (total_bytes, ring.snapshot())
        };
        let (full_bytes, full_recs) = run(false);
        let (delta_bytes, delta_recs) = run(true);
        assert!(
            delta_bytes < full_bytes,
            "delta wire bytes {delta_bytes} < full {full_bytes}"
        );
        assert!(
            !full_recs
                .iter()
                .any(|r| matches!(r.kind, TraceEvent::DeltaEncode { .. })),
            "no DeltaEncode span on the full-page path"
        );
        let spans: Vec<_> = delta_recs
            .iter()
            .filter(|r| matches!(r.kind, TraceEvent::DeltaEncode { .. }))
            .collect();
        assert_eq!(spans.len(), 4, "one DeltaEncode span per epoch");
        // Epochs 2+ re-dirty the same page: it ships as a sparse XOR delta.
        let TraceEvent::DeltaEncode {
            delta_pages,
            encoded_bytes,
            raw_bytes,
            ..
        } = spans[2].kind
        else {
            unreachable!()
        };
        assert_eq!(delta_pages, 1);
        assert!(encoded_bytes < raw_bytes / 10, "sparse epoch shrinks 10x+");
    }

    #[test]
    fn cow_checkpoint_moves_copy_off_the_stop_phase() {
        use crate::trace::{TraceEvent, Tracer};
        let run = |cow: bool| {
            let mut p = Kernel::default();
            let mut b = Kernel::default();
            let spec = ContainerSpec::server("redis", 10, 6379);
            let c = ContainerRuntime::create(&mut p, &spec).unwrap();
            let mut opts = OptimizationConfig::nilicon();
            opts.cow_checkpoint = cow;
            let mut e = NiLiConEngine::new(opts, p.costs.clone());
            let (tracer, ring) = Tracer::in_memory(256);
            e.set_tracer(tracer.clone());
            e.prepare(&mut p, &c).unwrap();
            // Warm epoch: initial full sync.
            e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
            e.commit(&mut b, 1).unwrap();
            for page in 0..300u64 {
                p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[9])
                    .unwrap();
            }
            tracer.begin_epoch(2, 0);
            let o = e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
            tracer.reconcile(2, o.stop_time, o.ack_delay).unwrap();
            e.commit(&mut b, 2).unwrap();
            (o, ring.snapshot(), e)
        };
        let (eager, eager_recs, eager_e) = run(false);
        let (cow, cow_recs, cow_e) = run(true);

        assert_eq!(cow.dirty_pages, eager.dirty_pages);
        assert_eq!(
            cow.state_bytes, eager.state_bytes,
            "same pages cross the wire either way"
        );
        // Small fixture: the footprint-proportional pagemap scan still
        // dominates, but the per-page copy cost itself must have left the
        // stop phase (protect ≈ 150 ns vs copy ≈ 2170 ns, × 300 pages).
        let saved = eager.stop_time - cow.stop_time;
        assert!(
            saved > 300 * 1_500,
            "copy cost left the stop phase: saved {saved}ns (stop {} vs eager {})",
            cow.stop_time,
            eager.stop_time
        );
        assert!(
            cow.ack_delay > eager.ack_delay,
            "the copy did not vanish — it moved to the ack path"
        );

        assert!(
            !eager_recs
                .iter()
                .any(|r| matches!(r.kind, TraceEvent::CowCopy { .. })),
            "no CowCopy span on the eager path"
        );
        let span = cow_recs
            .iter()
            .find(|r| r.epoch == 2 && matches!(r.kind, TraceEvent::CowCopy { .. }))
            .expect("CowCopy span emitted");
        let TraceEvent::CowCopy { pages, bytes } = span.kind else {
            unreachable!()
        };
        assert_eq!(pages, 300);
        assert_eq!(bytes, 300 * 4096);
        assert!(span.dur > 0, "the drain costs real time");

        // The committed backup images are byte-identical.
        let a = eager_e.agent.materialize().unwrap();
        let b = cow_e.agent.materialize().unwrap();
        assert_eq!(a.pages.len(), b.pages.len());
        for (pa, pb) in a.pages.iter().zip(b.pages.iter()) {
            assert_eq!((pa.0, pa.1), (pb.0, pb.1));
            assert_eq!(pa.2, pb.2, "page {:?}/{:#x}", pa.0, pa.1);
        }
    }

    #[test]
    fn cow_mid_copy_failure_is_never_ackable() {
        let mut p = Kernel::default();
        let mut b = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut p, &spec).unwrap();
        let mut opts = OptimizationConfig::nilicon();
        opts.cow_checkpoint = true;
        let mut e = NiLiConEngine::new(opts, p.costs.clone());
        e.prepare(&mut p, &c).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"committed")
            .unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();

        // Epoch 2: the primary dies after the first streamed chunk.
        for page in 0..200u64 {
            p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[7])
                .unwrap();
        }
        e.cow_fail_after_chunks = Some(1);
        e.checkpoint(&mut p, &mut b, &c, 2).unwrap();
        assert!(
            !e.agent.epoch_complete(2),
            "partial assembly must not satisfy the ack condition"
        );
        let (restored, _) = e.failover(&mut b).unwrap();
        restored.finish(&mut b).unwrap();
        let mut buf = [0u8; 9];
        b.mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"committed", "fell back to the last full epoch");
        assert_eq!(e.committed_epoch(), Some(1));
    }

    #[test]
    fn rearmed_backup_image_matches_always_replicated_run() {
        // Equivalence: a backup bootstrapped mid-run via the re-replication
        // path must end up with a committed image byte-identical to a backup
        // that was replicated from the start, given the same writes.
        let writes = |epoch: u64| -> Vec<(u64, u8)> {
            vec![(epoch % 7, epoch as u8), (10 + epoch, 0xA0 | epoch as u8)]
        };
        let apply = |p: &mut Kernel, c: &Container, epoch: u64| {
            for (page, val) in writes(epoch) {
                p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[val])
                    .unwrap();
            }
        };
        // Give the container a working set large enough that the bootstrap
        // image spans several bounded chunks (the per-step cap below is 64).
        let warm = |p: &mut Kernel, c: &Container| {
            for page in 20..220u64 {
                p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[page as u8])
                    .unwrap();
            }
        };
        let mut opts = OptimizationConfig::nilicon();
        opts.rearm = true;

        // Run A: continuously replicated, epochs 1..=6.
        let mut pa = Kernel::default();
        let mut ba = Kernel::default();
        let ca = ContainerRuntime::create(&mut pa, &ContainerSpec::server("redis", 10, 6379))
            .unwrap();
        let mut ea = NiLiConEngine::new(opts, pa.costs.clone());
        ea.prepare(&mut pa, &ca).unwrap();
        warm(&mut pa, &ca);
        for epoch in 1..=6u64 {
            apply(&mut pa, &ca, epoch);
            ea.checkpoint(&mut pa, &mut ba, &ca, epoch).unwrap();
            ea.commit(&mut ba, epoch).unwrap();
        }
        let img_a = ea.agent.materialize().unwrap();

        // Run B: same writes; the original backup dies after epoch 3, a
        // replacement is bootstrapped (epoch-4 writes land while the image
        // streams — COW must preserve the pre-write content), and epochs
        // 5..=6 run incrementally against the replacement.
        let mut pb = Kernel::default();
        let mut bb = Kernel::default();
        let cb = ContainerRuntime::create(&mut pb, &ContainerSpec::server("redis", 10, 6379))
            .unwrap();
        let mut eb = NiLiConEngine::new(opts, pb.costs.clone());
        eb.prepare(&mut pb, &cb).unwrap();
        warm(&mut pb, &cb);
        for epoch in 1..=3u64 {
            apply(&mut pb, &cb, epoch);
            eb.checkpoint(&mut pb, &mut bb, &cb, epoch).unwrap();
            eb.commit(&mut bb, epoch).unwrap();
        }
        let mut b2 = Kernel::default(); // the replacement backup
        eb.rearm_prepare(&mut pb, &cb).unwrap();
        let begin = eb.bootstrap_begin(&mut pb, &cb, 4).unwrap();
        assert!(begin.total_pages > 0, "full image deferred via COW");
        apply(&mut pb, &cb, 4); // mutate mid-stream
        let mut chunks = 0;
        loop {
            let step = eb.bootstrap_step(&mut pb, 4, 64).unwrap();
            chunks += 1;
            if step.remaining == 0 {
                break;
            }
            assert!(chunks < 10_000, "bootstrap must terminate");
        }
        assert!(chunks > 1, "image streamed across multiple bounded steps");
        eb.bootstrap_finish(&mut b2, 4).unwrap();
        assert_eq!(eb.committed_epoch(), Some(4));
        for epoch in 5..=6u64 {
            apply(&mut pb, &cb, epoch);
            eb.checkpoint(&mut pb, &mut b2, &cb, epoch).unwrap();
            eb.commit(&mut b2, epoch).unwrap();
        }
        let img_b = eb.agent.materialize().unwrap();

        assert_eq!(img_a.pages.len(), img_b.pages.len(), "same page set");
        for (x, y) in img_a.pages.iter().zip(img_b.pages.iter()) {
            assert_eq!((x.0, x.1), (y.0, y.1));
            assert_eq!(x.2, y.2, "page {:?}/{:#x} diverged", x.0, x.1);
        }
        assert_eq!(
            ba.vfs.disk.digest(),
            b2.vfs.disk.digest(),
            "replica disks identical"
        );
    }

    #[test]
    fn bootstrap_abort_unwinds_the_cow_set() {
        let (mut p, mut b, c, e) = setup();
        let mut opts = OptimizationConfig::nilicon();
        opts.rearm = true;
        let mut e2 = NiLiConEngine::new(opts, p.costs.clone());
        assert!(!e.supports_rearm(), "paper rows never re-arm");
        assert!(e2.supports_rearm());
        e2.prepare(&mut p, &c).unwrap();
        // Resident footprint larger than the 16-page step cap used below.
        for page in 0..40u64 {
            p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[3])
                .unwrap();
        }
        e2.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e2.commit(&mut b, 1).unwrap();

        e2.rearm_prepare(&mut p, &c).unwrap();
        let begin = e2.bootstrap_begin(&mut p, &c, 2).unwrap();
        assert!(begin.total_pages > 0);
        let step = e2.bootstrap_step(&mut p, 2, 16).unwrap();
        assert_eq!(step.pages, 16, "chunk bound respected");
        assert!(step.remaining > 0);
        e2.bootstrap_abort(&mut p, &c).unwrap();
        // All COW protections are gone: writes proceed without faulting new
        // copies, and a later bootstrap starts from scratch.
        for pid in c.all_pids() {
            assert_eq!(p.cow_pending(pid).unwrap(), 0, "pid {pid:?} unwound");
        }
        assert!(
            !e2.agent.epoch_complete(2),
            "the half-assembled image was dropped"
        );
        // A fresh attempt after the abort still works end-to-end.
        e2.rearm_prepare(&mut p, &c).unwrap();
        let mut b3 = Kernel::default();
        e2.bootstrap_begin(&mut p, &c, 3).unwrap();
        loop {
            if e2.bootstrap_step(&mut p, 3, 256).unwrap().remaining == 0 {
                break;
            }
        }
        e2.bootstrap_finish(&mut b3, 3).unwrap();
        assert_eq!(e2.committed_epoch(), Some(3));
    }

    #[test]
    fn failover_restores_committed_state_only() {
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"committed")
            .unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        // Epoch 2 checkpoint arrives but is never acked/committed.
        p.mem_write(c.init_pid(), MemLayout::heap(0), b"uncommitt")
            .unwrap();
        e.checkpoint(&mut p, &mut b, &c, 2).unwrap();

        let (restored, report) = e.failover(&mut b).unwrap();
        restored.finish(&mut b).unwrap();
        let mut buf = [0u8; 9];
        b.mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"committed");
        assert!(report.restore > 100 * MILLISECOND);
        assert_eq!(report.arp, 28 * MILLISECOND);
        assert_eq!(report.others, 7 * MILLISECOND);
    }

    #[test]
    fn failover_without_any_commit_fails_cleanly() {
        let (mut _p, mut b, _c, mut e) = setup();
        assert!(e.failover(&mut b).is_err());
    }

    #[test]
    fn disk_writes_replicate_through_drbd() {
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        let pid = c.init_pid();
        let fd = p.create_file(pid, "/data/wal", 0).unwrap();
        p.pwrite(pid, fd, 0, b"logged", 1).unwrap();
        p.fsync(pid, fd).unwrap(); // hits the primary disk + DRBD log
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        assert_eq!(
            p.vfs.disk.digest(),
            b.vfs.disk.digest(),
            "backup disk in sync"
        );
    }

    #[test]
    fn tcp_component_shrinks_with_longer_restore() {
        // Table II: Net (fast restore) has a LARGER TCP remainder than Redis
        // (slow restore) because more of the RTO overlaps recovery work.
        let (mut p, mut b, c, mut e) = setup();
        e.prepare(&mut p, &c).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        let (_r, fast) = e.failover(&mut b).unwrap();

        // Bulkier container -> longer restore.
        let (mut p2, mut b2, c2, mut e2) = setup();
        e2.prepare(&mut p2, &c2).unwrap();
        for page in 0..3000u64 {
            p2.mem_write(c2.init_pid(), MemLayout::heap_page(page), &[7])
                .unwrap();
        }
        e2.checkpoint(&mut p2, &mut b2, &c2, 1).unwrap();
        e2.commit(&mut b2, 1).unwrap();
        let (_r2, slow) = e2.failover(&mut b2).unwrap();

        assert!(slow.restore > fast.restore);
        assert!(slow.tcp <= fast.tcp, "more RTO overlap with longer restore");
    }

    fn replay_setup() -> (Kernel, Kernel, Container, NiLiConEngine) {
        let mut primary = Kernel::default();
        let backup = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut primary, &spec).unwrap();
        let mut opts = OptimizationConfig::nilicon();
        opts.hybrid_replay = true;
        let engine = NiLiConEngine::new(opts, primary.costs.clone());
        (primary, backup, c, engine)
    }

    fn req_event(at: u64) -> ReplayEvent {
        ReplayEvent::Request {
            pid: Pid(1),
            at,
            payload: vec![1, 2, 3].into(),
            response_hash: 42,
            response_len: 3,
        }
    }

    #[test]
    fn replay_api_rejected_unless_enabled() {
        let (mut p, _b, _c, mut e) = setup(); // paper config: replay off
        assert!(!e.supports_replay());
        assert!(e.ship_log(&mut p, 1, &[req_event(0)]).is_err());
        assert!(e.seal_log(1).is_err());
        assert!(e.take_replay_tail().is_err());
    }

    #[test]
    fn ship_log_commit_latency_is_link_scale() {
        let (mut p, _b, _c, mut e) = replay_setup();
        assert!(e.supports_replay());
        let o = e.ship_log(&mut p, 1, &[req_event(0)]).unwrap();
        assert_eq!(o.chunks, 1);
        assert!(o.bytes > 0);
        assert!(o.backup_cpu > 0);
        assert!(
            o.commit_latency < MILLISECOND,
            "log commit RTT is µs-scale, got {}ns",
            o.commit_latency
        );
        // Empty chunk: nothing crosses the wire.
        let z = e.ship_log(&mut p, 1, &[]).unwrap();
        assert_eq!(z.chunks, 0);
        assert_eq!(z.commit_latency, 0);
    }

    #[test]
    fn sealed_tail_is_contiguous_from_committed_epoch() {
        let (mut p, mut b, c, mut e) = replay_setup();
        e.prepare(&mut p, &c).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        // Epochs 2 and 3 ship + seal after the checkpoint commit.
        e.ship_log(&mut p, 2, &[req_event(10)]).unwrap();
        e.seal_log(2).unwrap();
        e.ship_log(&mut p, 3, &[req_event(20), req_event(21)]).unwrap();
        e.seal_log(3).unwrap();
        let tail = e.take_replay_tail().unwrap();
        assert!(!tail.dropped_partial);
        assert_eq!(tail.logs.len(), 2);
        assert_eq!(tail.logs[0].epoch, 2);
        assert_eq!(tail.logs[1].epoch, 3);
        assert_eq!(tail.events(), 3);
    }

    #[test]
    fn commit_prunes_logs_covered_by_the_checkpoint() {
        let (mut p, mut b, c, mut e) = replay_setup();
        e.prepare(&mut p, &c).unwrap();
        e.ship_log(&mut p, 1, &[req_event(0)]).unwrap();
        e.seal_log(1).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        let tail = e.take_replay_tail().unwrap();
        assert!(tail.logs.is_empty(), "epoch-1 log died with its checkpoint");
        assert!(!tail.dropped_partial);
    }

    #[test]
    fn gap_or_unsealed_log_marks_tail_partial() {
        // Gap: epoch 2's log is missing entirely.
        let (mut p, mut b, c, mut e) = replay_setup();
        e.prepare(&mut p, &c).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        e.ship_log(&mut p, 3, &[req_event(30)]).unwrap();
        e.seal_log(3).unwrap();
        let tail = e.take_replay_tail().unwrap();
        assert!(tail.dropped_partial, "missing epoch 2 breaks the chain");
        assert!(tail.logs.is_empty());

        // Unsealed: epoch 2 shipped but the seal never landed.
        let (mut p2, mut b2, c2, mut e2) = replay_setup();
        e2.prepare(&mut p2, &c2).unwrap();
        e2.checkpoint(&mut p2, &mut b2, &c2, 1).unwrap();
        e2.commit(&mut b2, 1).unwrap();
        e2.ship_log(&mut p2, 2, &[req_event(10)]).unwrap();
        let tail2 = e2.take_replay_tail().unwrap();
        assert!(tail2.dropped_partial, "unsealed tail epoch is unusable");
        assert!(tail2.logs.is_empty());
    }

    #[test]
    fn log_link_failure_loses_chunks_and_seal_in_flight() {
        let (mut p, mut b, c, mut e) = replay_setup();
        e.prepare(&mut p, &c).unwrap();
        e.checkpoint(&mut p, &mut b, &c, 1).unwrap();
        e.commit(&mut b, 1).unwrap();
        e.log_fail_after_chunks = Some(1);
        let o1 = e.ship_log(&mut p, 2, &[req_event(10)]).unwrap();
        assert!(o1.backup_cpu > 0, "first chunk arrives");
        // Second chunk and the seal are lost in flight; the primary cannot
        // tell — it still observes a normal send.
        let o2 = e.ship_log(&mut p, 2, &[req_event(11)]).unwrap();
        assert_eq!(o2.backup_cpu, 0, "lost chunk burns no backup CPU");
        assert_eq!(o2.chunks, 1);
        e.seal_log(2).unwrap();
        let tail = e.take_replay_tail().unwrap();
        assert!(tail.dropped_partial, "partial log cannot be replayed");
        assert!(tail.logs.is_empty());
    }
}
