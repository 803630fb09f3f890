//! # nilicon-workloads — the paper's benchmarks over the simulated substrate
//!
//! Implements the seven §VI benchmarks as [`nilicon_container::Application`]s
//! plus their load generators as [`nilicon::traffic::ClientBehavior`]s:
//!
//! | Benchmark     | Kind   | Stressing | Client |
//! |---------------|--------|-----------|--------|
//! | Redis         | server | memory (no persistence) | YCSB-style batched 50/50 |
//! | SSDB          | server | disk (full persistence) | YCSB-style batched 50/50 |
//! | Node          | server | many sockets, render buffers | SIEGE-style, 128 clients |
//! | Lighttpd      | server | CPU (PHP watermark), multi-process | SIEGE-style |
//! | DJCMS         | server | nginx+python+mysql pipeline | SIEGE-style |
//! | streamcluster | batch  | memory + threads (PARSEC) | — |
//! | swaptions     | batch  | CPU (PARSEC) | — |
//!
//! plus the §VII-A validation microbenchmarks (file/disk stress, stack echo)
//! and the §VII-B `Net` echo microbenchmark.
//!
//! Every application keeps its durable state **in guest memory/files through
//! the simulated syscall surface** — checkpointing captures real bytes, and
//! the YCSB/echo clients verify semantic consistency across failovers.
//!
//! ## Scale
//!
//! Paper-scale datasets (100 K × 1 KiB records, native PARSEC inputs) are
//! available via [`Scale::paper`]; tests default to [`Scale::small`] for
//! speed. Per-epoch characteristics (dirty pages, sockets) — the drivers of
//! every table — are preserved across scales; total footprint and run length
//! shrink. See EXPERIMENTS.md.

#![warn(missing_docs)]

mod clients;
mod djcms;
mod guestkv;
mod lighttpd;
mod micro;
mod node;
mod redis;
mod scale;
mod ssdb;
mod streamcluster;
mod swaptions;
mod workload;

pub use clients::{EchoBehavior, SiegeBehavior, YcsbBehavior};
pub use djcms::DjcmsApp;
pub use guestkv::{value_pattern, GuestKv, KvOp, KvRequest, KvResponse};
pub use lighttpd::LighttpdApp;
pub use micro::{NetEchoApp, StackEchoApp, StressFsApp};
pub use node::NodeApp;
pub use redis::RedisApp;
pub use scale::Scale;
pub use ssdb::SsdbApp;
pub use streamcluster::StreamclusterApp;
pub use swaptions::SwaptionsApp;
pub use workload::{
    djcms, lighttpd, net_echo, node, redis, ssdb, stack_echo, streamcluster, stress_fs, swaptions,
    Workload,
};
