//! Simulated networking: TCP with repair mode, per-namespace stacks, and the
//! `sch_plug`-style qdisc NiLiCon uses for output buffering and input
//! blocking.
//!
//! The transport is simplified — the simulated wire is reliable and in-order
//! during normal operation — but the *replication-relevant* machinery is
//! faithful: sequence/acknowledgment numbers, unacknowledged send queues,
//! unread receive queues, socket repair mode (get/set of all of the above),
//! RST generation for orphaned packets, retransmission timeouts (1 s default
//! vs the paper's 200 ms repair-mode minimum), and packet loss at failover.

mod byteq;
mod chaos;
mod qdisc;
mod stack;
mod tcp;

pub use byteq::ByteQueue;
pub use chaos::{ChaosConfig, ChaosLink, ChaosSchedule, FaultKind, FaultWindow, LinkDir};
pub use qdisc::{InputGate, InputMode, PlugQdisc};
pub use stack::{NetStack, SocketQueueStats};
pub use tcp::{Packet, RepairState, TcpFlags, TcpSocket, TcpState, RTO_MSS};
