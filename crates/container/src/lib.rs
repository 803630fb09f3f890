//! # nilicon-container — a runC-like container runtime over `nilicon-sim`
//!
//! Builds containers the way the paper's testbed does (§VI: runC 1.0.1 under
//! Docker): a full namespace set, a cgroup with `cpuacct` and freezer, rootfs
//! mounts, device files, a network namespace attached to the virtual bridge,
//! worker processes with realistic VMA layouts (executable + shared-library
//! file mappings + heap + stacks), and the keep-alive process NiLiCon's
//! failure detector requires (§IV).
//!
//! It also defines the [`Application`] trait that workloads implement and the
//! replication runtimes drive — the seam between "what runs in the container"
//! and "how the container is replicated".

#![warn(missing_docs)]

mod app;
mod layout;
mod runtime;
mod spec;

pub use app::{encode_frame, send_frame, take_frame, Application, GuestCtx, RequestOutcome, StepOutcome};
pub use layout::MemLayout;
pub use runtime::{Container, ContainerRuntime};
pub use spec::ContainerSpec;
