//! # nilicon-benchmark — the repo's two-clock system benchmark
//!
//! Seven named workloads drive the replication system through its public
//! API only (`RunHarness`, `FleetScheduler`, the two engines, the in-memory
//! `Tracer`, and the `Checkpointer` / `Application` / `ClientBehavior`
//! traits) and report two clocks: **virtual** metrics, which are a function
//! of the seed and compared exactly, and **host** metrics, which are noisy
//! and compared within a stated bound. See `README.md` beside this crate.

#![warn(missing_docs)]

pub mod calib;
pub mod decor;
pub mod defs;
pub mod gen;
pub mod probes;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
