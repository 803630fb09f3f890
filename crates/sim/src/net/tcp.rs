//! TCP sockets with repair mode.

use super::byteq::ByteQueue;
use crate::error::{SimError, SimResult};
use crate::ids::{Endpoint, SockId};
use crate::time::Nanos;
use bytes::Bytes;
use std::collections::VecDeque;

/// Maximum payload of one RTO retransmission segment (Ethernet MSS). A
/// restored connection with more than one MSS of unacknowledged bytes needs
/// multiple segments to cover its window — callers drain it by walking
/// [`TcpSocket::retransmit_at`] offsets until it returns `None`.
pub const RTO_MSS: usize = 1460;

/// TCP header flags (only those the simulation uses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpFlags {
    /// Synchronize (connection setup).
    pub syn: bool,
    /// Acknowledgment field valid.
    pub ack: bool,
    /// Finish (orderly close).
    pub fin: bool,
    /// Reset (abort). Receiving RST breaks the connection — the §III failure
    /// mode NiLiCon's input blocking prevents during recovery.
    pub rst: bool,
}

impl TcpFlags {
    /// Plain data segment.
    pub const DATA: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
    };
    /// SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        fin: false,
        rst: false,
    };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        fin: false,
        rst: false,
    };
    /// Bare ACK.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        fin: false,
        rst: false,
    };
    /// RST.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        fin: false,
        rst: true,
    };
}

/// A TCP segment on the simulated wire.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Source endpoint.
    pub src: Endpoint,
    /// Destination endpoint.
    pub dst: Endpoint,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Acknowledgment number (next expected byte), valid if `flags.ack`.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Stream bytes that precede `payload` in this segment, held apart so a
    /// sender can put a small header in front of a large body without
    /// copying the body next to it (a gather write). Empty for every other
    /// segment; the receiver sees one stream either way.
    pub head: Bytes,
    /// Payload bytes.
    pub payload: Bytes,
}

impl Packet {
    /// Stream bytes this segment carries (`head` then `payload`).
    pub fn data_len(&self) -> usize {
        self.head.len() + self.payload.len()
    }

    /// Total on-wire size: a nominal 54-byte header plus the stream bytes.
    /// Used for link-time accounting.
    pub fn wire_bytes(&self) -> u64 {
        54 + self.data_len() as u64
    }
}

/// Connection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Not connected.
    Closed,
    /// Passive open.
    Listen,
    /// Active open sent, awaiting SYN+ACK.
    SynSent,
    /// Data transfer.
    Established,
    /// Connection aborted by an incoming RST — observable as a broken
    /// connection by the application (the validation criterion of §VII-A).
    Reset,
}

impl TcpState {
    /// Short name for error messages.
    pub fn name(self) -> &'static str {
        match self {
            TcpState::Closed => "Closed",
            TcpState::Listen => "Listen",
            TcpState::SynSent => "SynSent",
            TcpState::Established => "Established",
            TcpState::Reset => "Reset",
        }
    }
}

/// Everything socket repair mode exposes (§II-B): sequence numbers plus the
/// write queue (transmitted but not acknowledged) and read queue (received
/// but not read by the process). The queues are held by reference: a clone
/// of the socket's rope shares its (immutable) segments, so what the live
/// socket sends, acknowledges or reads afterwards cannot change it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairState {
    /// Local endpoint.
    pub local: Endpoint,
    /// Remote endpoint.
    pub remote: Endpoint,
    /// Next sequence number to send.
    pub snd_nxt: u32,
    /// Oldest unacknowledged sequence number.
    pub snd_una: u32,
    /// Next expected receive sequence number.
    pub rcv_nxt: u32,
    /// Write-queue contents (bytes `snd_una..snd_nxt`).
    pub write_queue: ByteQueue,
    /// Read-queue contents (received, not yet read by the application).
    pub read_queue: ByteQueue,
}

impl RepairState {
    /// Bytes this state occupies in a checkpoint (queues dominate).
    pub fn state_bytes(&self) -> u64 {
        (self.write_queue.len() + self.read_queue.len()) as u64 + 64
    }
}

/// A simulated TCP socket.
#[derive(Debug)]
pub struct TcpSocket {
    /// Socket id within the owning kernel.
    pub id: SockId,
    /// Connection state.
    pub state: TcpState,
    /// Local endpoint (meaningful once bound).
    pub local: Endpoint,
    /// Remote endpoint (meaningful once connected).
    pub remote: Option<Endpoint>,
    /// Next sequence number to send.
    pub snd_nxt: u32,
    /// Oldest unacknowledged sequence number.
    pub snd_una: u32,
    /// Next expected receive sequence number.
    pub rcv_nxt: u32,
    /// Transmitted-but-unacknowledged bytes (`snd_una..snd_nxt`).
    pub write_queue: ByteQueue,
    /// Received-but-unread bytes.
    pub read_queue: ByteQueue,
    /// Pending connections for a listener.
    pub backlog: VecDeque<SockId>,
    /// Repair mode (privileged get/set of the above).
    pub repair: bool,
    /// Current retransmission timeout. Fresh sockets get the ≥1 s default;
    /// repair-mode restore sets the 200 ms minimum (§V-E).
    pub rto: Nanos,
    /// True once this socket was restored via repair mode (for §V-E
    /// accounting and tests).
    pub restored: bool,
    /// Cumulative bytes the application has read off this socket — the
    /// stream offset recorded per recv in the hybrid-replay log.
    pub delivered_bytes: u64,
}

impl TcpSocket {
    /// New closed socket.
    pub fn new(id: SockId, rto_default: Nanos) -> Self {
        TcpSocket {
            id,
            state: TcpState::Closed,
            local: Endpoint::new(0, 0),
            remote: None,
            snd_nxt: 0,
            snd_una: 0,
            rcv_nxt: 0,
            write_queue: ByteQueue::default(),
            read_queue: ByteQueue::default(),
            backlog: VecDeque::new(),
            repair: false,
            rto: rto_default,
            restored: false,
            delivered_bytes: 0,
        }
    }

    /// Application write: queue a copy of `data` and emit one data segment.
    pub fn send(&mut self, data: &[u8]) -> SimResult<Packet> {
        self.send_bytes(Bytes::copy_from_slice(data))
    }

    /// [`TcpSocket::send`] of an owned buffer: the write queue and the
    /// emitted segment share it, nothing is copied.
    pub fn send_bytes(&mut self, data: Bytes) -> SimResult<Packet> {
        self.send_gather(Bytes::new(), data)
    }

    /// One data segment carrying `head` then `data` (`writev` of two
    /// buffers): both are queued and emitted by reference, neither is copied
    /// next to the other.
    pub fn send_gather(&mut self, head: Bytes, data: Bytes) -> SimResult<Packet> {
        if self.state != TcpState::Established {
            return Err(SimError::InvalidSocketState {
                sock: self.id,
                op: "send",
                state: self.state.name(),
            });
        }
        let seq = self.snd_nxt;
        self.write_queue.push(head.clone());
        self.write_queue.push(data.clone());
        self.snd_nxt = self.snd_nxt.wrapping_add((head.len() + data.len()) as u32);
        Ok(Packet {
            src: self.local,
            dst: self.remote.expect("established socket has a peer"),
            seq,
            ack: self.rcv_nxt,
            flags: TcpFlags::DATA,
            head,
            payload: data,
        })
    }

    /// Application read: drain up to `max` bytes from the read queue.
    pub fn recv(&mut self, max: usize) -> SimResult<Vec<u8>> {
        if self.state == TcpState::Reset {
            return Err(SimError::ConnReset);
        }
        let n = max.min(self.read_queue.len());
        self.delivered_bytes += n as u64;
        let out = self.read_queue.copy_range(0, n);
        self.read_queue.advance(n);
        Ok(out)
    }

    /// Application read of exactly `n` bytes, or `None` (nothing consumed)
    /// while fewer are readable. Drivers use this to take only whole
    /// application frames, leaving a partial frame in the (checkpointed!)
    /// read queue — a frame straddling an epoch boundary must survive a
    /// failover inside socket state. The bytes come back as a slice of the
    /// segment they arrived in whenever they lie within one.
    pub fn recv_exact(&mut self, n: usize) -> SimResult<Option<Bytes>> {
        self.recv_body(0, n)
    }

    /// One application read of exactly `hdr + n` bytes that returns the last
    /// `n` (a frame's body behind a header the caller has already peeked),
    /// or `None` (nothing consumed) while fewer are readable.
    pub fn recv_body(&mut self, hdr: usize, n: usize) -> SimResult<Option<Bytes>> {
        if self.state == TcpState::Reset {
            return Err(SimError::ConnReset);
        }
        if self.read_queue.len() < hdr + n {
            return Ok(None);
        }
        self.read_queue.advance(hdr);
        self.delivered_bytes += (hdr + n) as u64;
        Ok(self.read_queue.take(n))
    }

    /// Bytes available to read.
    pub fn readable(&self) -> usize {
        self.read_queue.len()
    }

    /// Bytes sent but not yet acknowledged.
    pub fn unacked(&self) -> usize {
        self.write_queue.len()
    }

    /// Handle an incoming segment addressed to this (established or syn-sent)
    /// socket. Returns an optional reply segment.
    pub fn on_segment(&mut self, pkt: &Packet) -> Option<Packet> {
        if pkt.flags.rst {
            self.state = TcpState::Reset;
            return None;
        }
        match self.state {
            TcpState::SynSent if pkt.flags.syn && pkt.flags.ack => {
                // Simplified handshake: SYN segments do not consume sequence
                // numbers in this model, so data starts at seq 0 on each side.
                self.state = TcpState::Established;
                self.rcv_nxt = pkt.seq;
                self.snd_una = pkt.ack;
                // Final ACK of the three-way handshake.
                Some(self.bare_ack())
            }
            TcpState::Established => {
                // Process ACK field.
                if pkt.flags.ack {
                    self.process_ack(pkt.ack);
                }
                // Process payload.
                if pkt.data_len() > 0 {
                    if pkt.seq == self.rcv_nxt {
                        self.read_queue.push(pkt.head.clone());
                        self.read_queue.push(pkt.payload.clone());
                        self.rcv_nxt = self.rcv_nxt.wrapping_add(pkt.data_len() as u32);
                        return Some(self.bare_ack());
                    } else if seq_lt(pkt.seq, self.rcv_nxt) {
                        // Duplicate (retransmission already covered) — re-ACK.
                        return Some(self.bare_ack());
                    }
                    // Out-of-window data: drop (retransmission will cover it).
                }
                None
            }
            _ => None,
        }
    }

    fn process_ack(&mut self, ack: u32) {
        // Advance snd_una and trim the write queue by acked bytes.
        if seq_lt(self.snd_una, ack) || self.snd_una == ack {
            let acked = ack.wrapping_sub(self.snd_una) as usize;
            self.write_queue.advance(acked);
            self.snd_una = ack;
        }
    }

    fn bare_ack(&self) -> Packet {
        Packet {
            src: self.local,
            dst: self.remote.expect("peer set"),
            seq: self.snd_nxt,
            ack: self.rcv_nxt,
            flags: TcpFlags::ACK,
            head: Bytes::new(),
            payload: Bytes::new(),
        }
    }

    /// Retransmit the head of the write queue (after failover the restored
    /// socket re-sends unacknowledged bytes once its RTO fires; §V-E).
    /// Equivalent to [`TcpSocket::retransmit_at`] with offset 0; callers
    /// draining a backlog larger than [`RTO_MSS`] must walk the window with
    /// `retransmit_at` until it returns `None`.
    pub fn retransmit(&self) -> Option<Packet> {
        self.retransmit_at(0)
    }

    /// Retransmit up to [`RTO_MSS`] unacknowledged bytes starting `offset`
    /// bytes into the write queue. Returns `None` once `offset` reaches the
    /// end of the unacked window (or the socket is not established), so a
    /// drain loop advancing `offset` by each returned payload's length
    /// terminates after covering the whole backlog.
    pub fn retransmit_at(&self, offset: usize) -> Option<Packet> {
        if self.state != TcpState::Established || offset >= self.write_queue.len() {
            return None;
        }
        let payload = self.write_queue.copy_range(offset, RTO_MSS);
        Some(Packet {
            src: self.local,
            dst: self.remote.expect("peer set"),
            seq: self.snd_una.wrapping_add(offset as u32),
            ack: self.rcv_nxt,
            flags: TcpFlags::DATA,
            head: Bytes::new(),
            payload: Bytes::from(payload),
        })
    }

    // ------------------------------------------------------------------
    // Repair mode (§II-B)
    // ------------------------------------------------------------------

    /// Enter/leave repair mode.
    pub fn set_repair(&mut self, on: bool) {
        self.repair = on;
    }

    /// Dump repair state. Requires repair mode.
    pub fn repair_get(&self) -> SimResult<RepairState> {
        if !self.repair {
            return Err(SimError::NotInRepairMode(self.id));
        }
        Ok(RepairState {
            local: self.local,
            remote: self.remote.unwrap_or(Endpoint::new(0, 0)),
            snd_nxt: self.snd_nxt,
            snd_una: self.snd_una,
            rcv_nxt: self.rcv_nxt,
            write_queue: self.write_queue.clone(),
            read_queue: self.read_queue.clone(),
        })
    }

    /// Install repair state onto this socket, marking it Established and
    /// applying the repair-mode minimum RTO (`rto_min`, §V-E's 200 ms —
    /// pass the 1 s default to model the unoptimized kernel).
    pub fn repair_set(&mut self, st: &RepairState, rto_min: Nanos) -> SimResult<()> {
        if !self.repair {
            return Err(SimError::NotInRepairMode(self.id));
        }
        self.local = st.local;
        self.remote = Some(st.remote);
        self.snd_nxt = st.snd_nxt;
        self.snd_una = st.snd_una;
        self.rcv_nxt = st.rcv_nxt;
        self.write_queue = st.write_queue.clone();
        self.read_queue = st.read_queue.clone();
        self.state = TcpState::Established;
        self.rto = rto_min;
        self.restored = true;
        Ok(())
    }
}

/// Sequence-number comparison modulo 2^32 (RFC 793 style).
#[inline]
fn seq_lt(a: u32, b: u32) -> bool {
    (b.wrapping_sub(a) as i32) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn established_pair() -> (TcpSocket, TcpSocket) {
        let mut a = TcpSocket::new(SockId(1), 1_000_000_000);
        let mut b = TcpSocket::new(SockId(2), 1_000_000_000);
        a.local = Endpoint::new(1, 1000);
        a.remote = Some(Endpoint::new(2, 80));
        a.state = TcpState::Established;
        b.local = Endpoint::new(2, 80);
        b.remote = Some(Endpoint::new(1, 1000));
        b.state = TcpState::Established;
        (a, b)
    }

    #[test]
    fn data_transfer_with_ack() {
        let (mut a, mut b) = established_pair();
        let pkt = a.send(b"hello").unwrap();
        assert_eq!(a.unacked(), 5);
        let ack = b.on_segment(&pkt).expect("data elicits ACK");
        assert_eq!(b.recv(100).unwrap(), b"hello");
        a.on_segment(&ack);
        assert_eq!(a.unacked(), 0, "ACK trims the write queue");
        assert_eq!(a.snd_una, a.snd_nxt);
    }

    #[test]
    fn duplicate_segment_is_reacked_not_redelivered() {
        let (mut a, mut b) = established_pair();
        let pkt = a.send(b"once").unwrap();
        b.on_segment(&pkt);
        let reply = b.on_segment(&pkt); // duplicate
        assert!(reply.is_some(), "duplicate elicits re-ACK");
        assert_eq!(
            b.recv(100).unwrap(),
            b"once",
            "payload delivered exactly once"
        );
    }

    #[test]
    fn rst_breaks_connection() {
        let (mut a, _) = established_pair();
        let rst = Packet {
            src: Endpoint::new(2, 80),
            dst: a.local,
            seq: 0,
            ack: 0,
            flags: TcpFlags::RST,
            head: Bytes::new(),
            payload: Bytes::new(),
        };
        a.on_segment(&rst);
        assert_eq!(a.state, TcpState::Reset);
        assert!(matches!(a.recv(1), Err(SimError::ConnReset)));
        assert!(a.send(b"x").is_err());
    }

    #[test]
    fn retransmit_covers_unacked_bytes() {
        let (mut a, mut b) = established_pair();
        let p1 = a.send(b"lost ").unwrap();
        let _p2 = a.send(b"data").unwrap();
        // p1/p2 never arrive (dropped at failover). Retransmit covers both.
        let rt = a.retransmit().expect("unacked bytes exist");
        assert_eq!(rt.seq, p1.seq);
        assert_eq!(&rt.payload[..], b"lost data");
        let ack = b.on_segment(&rt).unwrap();
        assert_eq!(b.recv(100).unwrap(), b"lost data");
        a.on_segment(&ack);
        assert!(a.retransmit().is_none(), "nothing left to retransmit");
    }

    #[test]
    fn retransmit_at_segments_a_large_window_by_mss() {
        let (mut a, mut b) = established_pair();
        // Queue 3.5 MSS of unacked data across many sends of uneven sizes,
        // so MSS boundaries fall inside, on and across write-queue segments.
        let total = RTO_MSS * 3 + RTO_MSS / 2;
        let data: Vec<u8> = (0..total).map(|i| (i % 251) as u8).collect();
        let mut rest = &data[..];
        for size in [1, 1459, 7, 1453, 1000, 3, 300].into_iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(size.min(rest.len()));
            a.send(chunk).unwrap();
            rest = tail;
        }
        assert_eq!(a.unacked(), total);
        // Drain the window segment by segment.
        let mut off = 0;
        let mut segs = Vec::new();
        while let Some(pkt) = a.retransmit_at(off) {
            assert!(pkt.payload.len() <= RTO_MSS, "segment within MSS");
            assert_eq!(pkt.seq, a.snd_una.wrapping_add(off as u32));
            off += pkt.payload.len();
            segs.push(pkt);
        }
        assert_eq!(off, total, "drain covers the whole window");
        assert_eq!(segs.len(), 4, "3.5 MSS needs four segments");
        // In-order delivery reassembles the original stream.
        for pkt in &segs {
            b.on_segment(pkt);
        }
        assert_eq!(b.recv(usize::MAX).unwrap(), data);
        // Plain retransmit() is the first segment only.
        let first = a.retransmit().unwrap();
        assert_eq!(first.payload.len(), RTO_MSS);
        assert_eq!(first.seq, a.snd_una);
    }

    #[test]
    fn repair_roundtrip_preserves_everything() {
        let (mut a, mut b) = established_pair();
        let p = a.send(b"unacked!").unwrap();
        b.on_segment(&p); // b has data in read queue; suppose app hasn't read it
        b.send(b"reply").unwrap();

        b.set_repair(true);
        let st = b.repair_get().unwrap();
        assert_eq!(st.read_queue, b"unacked!"[..]);
        assert_eq!(st.write_queue, b"reply"[..]);

        let mut b2 = TcpSocket::new(SockId(9), 1_000_000_000);
        assert!(
            b2.repair_set(&st, 200_000_000).is_err(),
            "repair mode required"
        );
        b2.set_repair(true);
        b2.repair_set(&st, 200_000_000).unwrap();
        b2.set_repair(false);
        assert_eq!(b2.state, TcpState::Established);
        assert_eq!(
            b2.rto, 200_000_000,
            "repair-restored socket gets min RTO (§V-E)"
        );
        assert!(b2.restored);
        assert_eq!(b2.recv(100).unwrap(), b"unacked!");
        assert_eq!(&b2.retransmit().unwrap().payload[..], b"reply");
    }

    #[test]
    fn repair_get_requires_repair_mode() {
        let (a, _) = established_pair();
        assert!(matches!(a.repair_get(), Err(SimError::NotInRepairMode(_))));
    }

    #[test]
    fn seq_comparison_wraps() {
        assert!(seq_lt(u32::MAX - 1, 2));
        assert!(!seq_lt(2, u32::MAX - 1));
        assert!(seq_lt(0, 1));
    }

    #[test]
    fn state_bytes_accounting() {
        let st = RepairState {
            local: Endpoint::new(1, 1),
            remote: Endpoint::new(2, 2),
            snd_nxt: 0,
            snd_una: 0,
            rcv_nxt: 0,
            write_queue: vec![0; 100].into(),
            read_queue: vec![0; 50].into(),
        };
        assert_eq!(st.state_bytes(), 214);
    }
}
