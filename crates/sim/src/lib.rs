//! # nilicon-sim — simulated Linux-like kernel substrate
//!
//! This crate is the foundation of the NiLiCon (IPDPS 2020) reproduction. It
//! provides an in-process, deterministic, single-threaded simulation of the
//! pieces of Linux that NiLiCon's container replication touches:
//!
//! * **virtual time** — a nanosecond clock and a cost meter; no operation ever
//!   consults the wall clock, so every experiment is reproducible bit-for-bit,
//! * **memory** — address spaces with VMAs and 4 KiB pages holding *real
//!   bytes*, soft-dirty tracking (`clear_refs`/`pagemap`) and write-protect
//!   tracking (for the MC/KVM baseline),
//! * **VFS and page cache** — inodes, regular files, directories, mounts, and
//!   a page cache with per-entry Dirty and DNC ("Dirty but Not Checkpointed")
//!   bits plus the paper's `fgetfc` syscall,
//! * **block layer** — a logical block store with a write log and epoch
//!   barriers (the attachment point for the DRBD crate),
//! * **network** — per-namespace TCP stacks with sequence/ack state machines,
//!   socket **repair mode**, RST semantics, a virtual bridge, and a
//!   `sch_plug`-style qdisc for output buffering and input blocking,
//! * **processes** — process trees, threads with register files and signal
//!   masks, the cgroup **freezer** (virtual signals), and parasite-code
//!   attachment points,
//! * **cgroups & namespaces** — `cpuacct.usage` for the failure detector and
//!   the six namespaces with collection-cost modeling,
//! * **ftrace** — a hook registry on named kernel functions used by NiLiCon's
//!   infrequently-modified-state change tracker.
//!
//! State is real (a checkpoint/restore bug loses real bytes and fails
//! validation); *time* is modeled by [`costs::CostModel`], whose constants are
//! documented against the measurements the paper itself reports.

#![deny(unsafe_code)]

pub mod block;
pub mod cgroup;
pub mod cluster;
pub mod costs;
pub mod error;
pub mod fs;
pub mod ftrace;
pub mod ids;
pub mod kernel;
pub mod mem;
pub mod net;
pub mod ns;
pub mod proc;
pub mod replay;
pub mod time;

pub use costs::CostModel;
pub use error::{SimError, SimResult};
pub use kernel::Kernel;
pub use mem::{zero_page, PageBuf};
pub use time::{Nanos, MICROSECOND, MILLISECOND, SECOND};

/// Size of a simulated page, matching x86-64 base pages.
pub const PAGE_SIZE: usize = 4096;

/// Commonly used imports for downstream crates.
pub mod prelude {
    pub use crate::costs::CostModel;
    pub use crate::error::{SimError, SimResult};
    pub use crate::ids::*;
    pub use crate::kernel::Kernel;
    pub use crate::mem::{zero_page, PageBuf};
    pub use crate::time::{Nanos, MICROSECOND, MILLISECOND, SECOND};
    pub use crate::PAGE_SIZE;
}
