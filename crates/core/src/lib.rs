//! # nilicon — transparent fault-tolerant container replication
//!
//! The primary contribution of *Fault-Tolerant Containers Using NiLiCon*
//! (Zhou & Tamir, IPDPS 2020): Remus-style high-frequency incremental
//! checkpointing of a **container** to a warm backup on another host, with
//! client-transparent failover.
//!
//! ## Architecture (paper Fig. 2)
//!
//! ```text
//!   PRIMARY HOST                              BACKUP HOST
//!   ┌─────────────────────────┐               ┌───────────────────────┐
//!   │ container (runC)        │   heartbeats  │  backup agent         │
//!   │  service processes      │  ───────────► │   failure detector    │
//!   │  keep-alive process     │               │                       │
//!   │ primary agent (CRIU')   │  cont. state  │   buffered images     │
//!   │  freeze→dump→resume     │  ───────────► │   radix page store    │
//!   │ sch_plug qdisc          │               │                       │
//!   │  output buffer/input gate│     acks     │   modified DRBD       │
//!   │ modified DRBD           │  ◄─────────── │    buffered writes    │
//!   └─────────────────────────┘               └───────────────────────┘
//! ```
//!
//! Per epoch (Fig. 1): execute 30 ms → stop (freeze, block input, incremental
//! dump, DRBD barrier) → resume → transfer state → backup acks → release the
//! epoch's buffered network output → backup commits.
//!
//! ## Crate layout
//!
//! * [`config`] — the §V optimization toggles (Table I rows) and run config,
//! * [`detector`] — the cpuacct-gated heartbeat failure detector (§IV),
//! * [`engine`] — the [`engine::Checkpointer`] trait shared with the MC
//!   baseline, plus checkpoint/failover outcome types,
//! * [`backup`] — the backup agent: buffered state, page store, DRBD buffer,
//! * [`nilicon_engine`] — the one replication engine (`Engine<L>`, the only
//!   [`engine::Checkpointer`] impl here) over a private stage core
//!   (`stages`: stop phase, log store, chunk clock, replica set), and its
//!   `Mirror` layout: [`NiLiConEngine`], the paper's single backup,
//! * [`placement`] — the engine's `Coded` layout, [`PlacementEngine`]:
//!   k-of-n erasure-coded fragments, decode at failover, coded repair,
//! * [`fleet`] — the fleet-scale extension: N containers multiplexed over
//!   one primary/backup pair with staggered epochs and a shared FIFO link,
//! * [`traffic`] — client pool and the [`traffic::ClientBehavior`] seam that
//!   workloads implement,
//! * [`harness`] — the epoch-loop run harness (unreplicated / NiLiCon / MC)
//!   with fault injection; it and [`fleet`] drive one private lane core
//!   (execution phase, output release, lease fence, promotion tail,
//!   rearm/repair stream),
//! * [`metrics`] — per-epoch records and aggregation (Tables III-VI),
//! * [`trace`] — epoch-phase spans/events with pluggable sinks (see
//!   `OBSERVABILITY.md` for the schema).
//!
//! ## Example
//!
//! Replicate a one-page echo server and survive a fail-stop fault:
//!
//! ```
//! use nilicon::harness::{RunHarness, RunMode};
//! use nilicon::{NiLiConEngine, OptimizationConfig, ReplicationConfig};
//! use nilicon_container::{Application, ContainerSpec, GuestCtx, RequestOutcome};
//! use nilicon_sim::{CostModel, SimResult};
//!
//! struct Echo;
//! impl Application for Echo {
//!     fn name(&self) -> &str { "echo" }
//!     fn init(&mut self, _ctx: &mut GuestCtx<'_>) -> SimResult<()> { Ok(()) }
//!     fn handle_request(&mut self, ctx: &mut GuestCtx<'_>, req: &[u8])
//!         -> SimResult<RequestOutcome>
//!     {
//!         ctx.cpu(10_000);
//!         ctx.heap_write(0, req)?;            // stage through guest memory
//!         let mut back = vec![0u8; req.len()];
//!         ctx.heap_read(0, &mut back)?;
//!         Ok(RequestOutcome { response: back })
//!     }
//! }
//!
//! let mut spec = ContainerSpec::server("echo", 10, 9000);
//! spec.heap_pages = 64;
//! let engine = NiLiConEngine::new(OptimizationConfig::nilicon(), CostModel::default());
//! let mut h = RunHarness::new(
//!     spec, Box::new(Echo), None,
//!     RunMode::Replicated(Box::new(engine)),
//!     ReplicationConfig::default(), 1.0,
//! ).unwrap();
//! h.inject_fault_at(200_000_000);   // fail-stop at t = 200 ms
//! h.run_epochs(20).unwrap();
//! let r = h.finish();
//! assert!(r.recovered);
//! assert!(r.failover.unwrap().total() > 0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod backup;
pub mod config;
pub mod detector;
pub mod engine;
pub mod fleet;
pub mod harness;
mod lane;
pub mod metrics;
pub mod nilicon_engine;
pub mod placement;
pub mod replay;
mod stages;
pub mod trace;
pub mod traffic;

pub use backup::DiscardCounts;
pub use config::{OptimizationConfig, ReplicationConfig};
pub use detector::FailureDetector;
pub use engine::{BootstrapBegin, BootstrapStep, CheckpointOutcome, Checkpointer, FailoverReport};
pub use fleet::{FleetResult, FleetScheduler, LaneResult, LaneSpec};
pub use harness::{ChaosStats, RunHarness, RunMode, RunResult};
pub use metrics::{percentile, EpochRecord, RunMetrics};
pub use engine::{LogShipOutcome, ReplayTail};
pub use nilicon_engine::NiLiConEngine;
pub use placement::PlacementEngine;
pub use replay::{replay_tail, ReplayOutcome};
pub use trace::{TraceEvent, TraceRecord, TraceSink, Tracer};
pub use traffic::{ClientBehavior, ClientPool};
