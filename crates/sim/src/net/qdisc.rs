//! Output buffering and input blocking at the container's network interface.
//!
//! Output: Remus-style output commit (§II-A) — packets generated during epoch
//! `k` are held in the plug qdisc and released only after the backup
//! acknowledges epoch `k`'s state.
//!
//! Input: during checkpointing the container is paused but its in-kernel
//! socket state could still be mutated by RX traffic (§III), so input must be
//! blocked. Stock CRIU drops packets with firewall rules (7 ms per epoch to
//! install/remove, and a dropped SYN costs seconds of retry); NiLiCon buffers
//! them in a kernel module and releases on unblock (43 µs) — §V-C.

use super::tcp::Packet;
use std::collections::VecDeque;

/// How blocked input packets are treated (§V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputMode {
    /// NiLiCon: buffer during the block window, deliver on unblock.
    #[default]
    Buffer,
    /// Stock CRIU: firewall drop. Dropped SYNs incur connection-establishment
    /// retry penalties; dropped data is recovered by client retransmission.
    Drop,
}

/// The egress plug qdisc: buffers outgoing packets per epoch.
#[derive(Debug, Default)]
pub struct PlugQdisc {
    buf: VecDeque<Packet>,
    released_total: u64,
    buffered_total: u64,
}

impl PlugQdisc {
    /// New (empty, plugged) qdisc.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue an outgoing packet (always buffered; release is explicit).
    pub fn enqueue(&mut self, pkt: Packet) {
        self.buffered_total += 1;
        self.buf.push_back(pkt);
    }

    /// Release everything buffered so far (epoch commit). Returns packets in
    /// FIFO order.
    pub fn release(&mut self) -> Vec<Packet> {
        let mut out = Vec::new();
        self.release_into(&mut out);
        out
    }

    /// [`PlugQdisc::release`] appending to `out`; the buffer keeps its
    /// capacity for the next epoch's output. Returns the packets released.
    pub fn release_into(&mut self, out: &mut Vec<Packet>) -> usize {
        let n = self.buf.len();
        self.released_total += n as u64;
        out.extend(self.buf.drain(..));
        n
    }

    /// Discard everything buffered (primary failed before commit — these
    /// outputs were never observable and must not escape).
    pub fn discard(&mut self) -> usize {
        let n = self.buf.len();
        self.buf.clear();
        n
    }

    /// Packets currently held.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Lifetime counters `(buffered, released)`.
    pub fn totals(&self) -> (u64, u64) {
        (self.buffered_total, self.released_total)
    }
}

/// The ingress gate: blocks input during checkpointing and recovery.
#[derive(Debug, Default)]
pub struct InputGate {
    mode: InputMode,
    blocked: bool,
    buf: VecDeque<Packet>,
}

impl InputGate {
    /// New unblocked gate with the given mode.
    pub fn new(mode: InputMode) -> Self {
        InputGate {
            mode,
            ..Default::default()
        }
    }

    /// Current mode.
    pub fn mode(&self) -> InputMode {
        self.mode
    }

    /// Switch blocking mode (the §V-C optimization toggle). Only valid while
    /// unblocked — switching mid-window would lose buffered packets.
    pub fn set_mode(&mut self, mode: InputMode) {
        assert!(!self.blocked, "cannot switch input mode while blocked");
        self.mode = mode;
    }

    /// Begin blocking input.
    pub fn block(&mut self) {
        self.blocked = true;
    }

    /// Whether input is currently blocked.
    pub fn is_blocked(&self) -> bool {
        self.blocked
    }

    /// Offer an incoming packet. Returns `Some(pkt)` if it should be
    /// delivered to the stack now, `None` if held or dropped.
    pub fn offer(&mut self, pkt: Packet) -> Option<Packet> {
        if !self.blocked {
            return Some(pkt);
        }
        if let InputMode::Buffer = self.mode {
            self.buf.push_back(pkt);
        }
        None
    }

    /// Stop blocking; returns any buffered packets for delivery (Buffer mode)
    /// in arrival order.
    pub fn unblock(&mut self) -> Vec<Packet> {
        self.blocked = false;
        Vec::from(std::mem::take(&mut self.buf))
    }

    /// Packets currently held (Buffer mode).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Endpoint;
    use crate::net::tcp::TcpFlags;
    use bytes::Bytes;

    fn pkt(flags: TcpFlags) -> Packet {
        Packet {
            src: Endpoint::new(1, 1),
            dst: Endpoint::new(2, 2),
            seq: 0,
            ack: 0,
            flags,
            head: Bytes::new(),
            payload: Bytes::from_static(b"x"),
        }
    }

    #[test]
    fn plug_buffers_until_release() {
        let mut q = PlugQdisc::new();
        q.enqueue(pkt(TcpFlags::DATA));
        q.enqueue(pkt(TcpFlags::DATA));
        assert_eq!(q.pending(), 2);
        let out = q.release();
        assert_eq!(out.len(), 2);
        assert_eq!(q.pending(), 0);
        assert_eq!(q.totals(), (2, 2));
    }

    #[test]
    fn plug_discard_on_failure() {
        let mut q = PlugQdisc::new();
        q.enqueue(pkt(TcpFlags::DATA));
        assert_eq!(q.discard(), 1);
        assert!(q.release().is_empty(), "discarded output never escapes");
        assert_eq!(q.totals(), (1, 0));
    }

    #[test]
    fn gate_passes_when_unblocked() {
        let mut g = InputGate::new(InputMode::Buffer);
        assert!(g.offer(pkt(TcpFlags::DATA)).is_some());
    }

    #[test]
    fn gate_buffer_mode_holds_and_releases_in_order() {
        let mut g = InputGate::new(InputMode::Buffer);
        g.block();
        assert!(g.offer(pkt(TcpFlags::SYN)).is_none());
        assert!(g.offer(pkt(TcpFlags::DATA)).is_none());
        assert_eq!(g.pending(), 2);
        let out = g.unblock();
        assert_eq!(out.len(), 2);
        assert!(out[0].flags.syn, "FIFO order preserved");
        assert!(!g.is_blocked());
    }

    #[test]
    fn gate_drop_mode_counts_syns() {
        let mut g = InputGate::new(InputMode::Drop);
        g.block();
        assert!(g.offer(pkt(TcpFlags::SYN)).is_none());
        assert!(g.offer(pkt(TcpFlags::DATA)).is_none());
        assert!(g.unblock().is_empty(), "dropped packets are gone");
    }
}
