//! Per-namespace network stack: sockets, listeners, routing, qdisc.

use super::qdisc::{InputGate, InputMode, PlugQdisc};
use super::tcp::{Packet, RepairState, TcpFlags, TcpSocket, TcpState};
use crate::error::{SimError, SimResult};
use crate::ids::{Endpoint, IdAlloc, IdMap, SockId};
use crate::time::Nanos;
use bytes::Bytes;

/// Aggregate socket-queue statistics (the non-page component of transferred
/// checkpoint state — Table IV: "dirty pages and the read/write queues of TCP
/// sockets" dominate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocketQueueStats {
    /// Established sockets.
    pub established: usize,
    /// Listening sockets.
    pub listeners: usize,
    /// Total bytes across read+write queues.
    pub queue_bytes: u64,
}

/// The network stack of one namespace.
#[derive(Debug)]
pub struct NetStack {
    /// This stack's flat network address.
    pub addr: u32,
    sockets: IdMap<SockId, TcpSocket>,
    listeners: IdMap<u16, SockId>,
    conns: IdMap<(Endpoint, Endpoint), SockId>,
    sock_alloc: IdAlloc,
    ephemeral: u16,
    rto_default: Nanos,
    /// Egress plug (Remus output buffering). Only honored when `plugged`.
    pub qdisc: PlugQdisc,
    /// Whether egress is buffered in the qdisc (true under replication).
    pub plugged: bool,
    /// Ingress gate (§V-C input blocking).
    pub input_gate: InputGate,
    /// Egress packets ready to leave the stack now.
    out_ready: Vec<Packet>,
    broken_connections: u64,
    /// Stack-wide count of non-empty application reads — the global delivery
    /// order recorded per recv in the hybrid-replay log.
    delivered_seq: u64,
}

impl NetStack {
    /// New stack at `addr`. `rto_default` seeds fresh sockets (§V-E: ≥1 s).
    pub fn new(addr: u32, rto_default: Nanos, input_mode: InputMode) -> Self {
        NetStack {
            addr,
            sockets: IdMap::default(),
            listeners: IdMap::default(),
            conns: IdMap::default(),
            sock_alloc: IdAlloc::default(),
            ephemeral: 32768,
            rto_default,
            qdisc: PlugQdisc::new(),
            plugged: false,
            input_gate: InputGate::new(input_mode),
            out_ready: Vec::new(),
            broken_connections: 0,
            delivered_seq: 0,
        }
    }

    // ------------------------------------------------------------------
    // Socket API
    // ------------------------------------------------------------------

    /// Create a socket.
    pub fn socket(&mut self) -> SockId {
        let id = SockId(self.sock_alloc.alloc() as u32);
        self.sockets
            .insert(id, TcpSocket::new(id, self.rto_default));
        id
    }

    /// Bind to a local port.
    pub fn bind(&mut self, sock: SockId, port: u16) -> SimResult<()> {
        if self.listeners.contains_key(&port) {
            return Err(SimError::AddrInUse(port));
        }
        let addr = self.addr;
        let s = self.sock_mut(sock)?;
        s.local = Endpoint::new(addr, port);
        Ok(())
    }

    /// Start listening.
    pub fn listen(&mut self, sock: SockId) -> SimResult<()> {
        let port = {
            let s = self.sock_mut(sock)?;
            s.state = TcpState::Listen;
            s.local.port
        };
        if let Some(&existing) = self.listeners.get(&port) {
            if existing != sock {
                return Err(SimError::AddrInUse(port));
            }
        }
        self.listeners.insert(port, sock);
        Ok(())
    }

    /// Active open: emits a SYN through egress. The connection becomes
    /// established when the SYN+ACK comes back through [`NetStack::ingress`].
    pub fn connect(&mut self, sock: SockId, remote: Endpoint) -> SimResult<()> {
        let addr = self.addr;
        let port = self.alloc_ephemeral();
        let s = self.sock_mut(sock)?;
        if s.state != TcpState::Closed {
            return Err(SimError::InvalidSocketState {
                sock,
                op: "connect",
                state: s.state.name(),
            });
        }
        if s.local.port == 0 {
            s.local = Endpoint::new(addr, port);
        }
        s.remote = Some(remote);
        s.state = TcpState::SynSent;
        let syn = Packet {
            src: s.local,
            dst: remote,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            head: Bytes::new(),
            payload: Bytes::new(),
        };
        let local = s.local;
        self.conns.insert((local, remote), sock);
        self.egress(syn);
        Ok(())
    }

    /// Accept one pending connection from a listener's backlog.
    pub fn accept(&mut self, listener: SockId) -> SimResult<Option<SockId>> {
        let s = self.sock_mut(listener)?;
        if s.state != TcpState::Listen {
            return Err(SimError::InvalidSocketState {
                sock: listener,
                op: "accept",
                state: s.state.name(),
            });
        }
        Ok(s.backlog.pop_front())
    }

    /// Application send: data goes through the egress path (buffered when
    /// plugged — the Remus output-commit point).
    pub fn send(&mut self, sock: SockId, data: &[u8]) -> SimResult<usize> {
        let pkt = self.sock_mut(sock)?.send(data)?;
        self.egress(pkt);
        Ok(data.len())
    }

    /// [`NetStack::send`] of an owned buffer, shared with the write queue and
    /// the wire instead of copied (see [`TcpSocket::send_bytes`]).
    pub fn send_bytes(&mut self, sock: SockId, data: Bytes) -> SimResult<usize> {
        self.send_gather(sock, Bytes::new(), data)
    }

    /// [`NetStack::send_bytes`] of `head` then `data` as one segment (see
    /// [`TcpSocket::send_gather`]): one packet through egress, two buffers.
    pub fn send_gather(&mut self, sock: SockId, head: Bytes, data: Bytes) -> SimResult<usize> {
        let pkt = self.sock_mut(sock)?.send_gather(head, data)?;
        let len = pkt.data_len();
        self.egress(pkt);
        Ok(len)
    }

    /// Application receive.
    pub fn recv(&mut self, sock: SockId, max: usize) -> SimResult<Vec<u8>> {
        let data = self.sock_mut(sock)?.recv(max)?;
        if !data.is_empty() {
            self.delivered_seq += 1;
        }
        Ok(data)
    }

    /// Application receive of exactly `n` bytes or nothing (see
    /// [`TcpSocket::recv_exact`]), counted in the delivery order like
    /// [`NetStack::recv`].
    pub fn recv_exact(&mut self, sock: SockId, n: usize) -> SimResult<Option<Bytes>> {
        self.recv_body(sock, 0, n)
    }

    /// [`TcpSocket::recv_body`], counted in the delivery order as the one
    /// read of `hdr + n` bytes it is.
    pub fn recv_body(&mut self, sock: SockId, hdr: usize, n: usize) -> SimResult<Option<Bytes>> {
        let data = self.sock_mut(sock)?.recv_body(hdr, n)?;
        if data.is_some() && hdr + n > 0 {
            self.delivered_seq += 1;
        }
        Ok(data)
    }

    /// Stack-wide delivery sequence number (bumped once per non-empty
    /// application read — the recv-order axis of the hybrid-replay log).
    pub fn delivered_seq(&self) -> u64 {
        self.delivered_seq
    }

    /// Immutable socket access.
    pub fn sock(&self, sock: SockId) -> SimResult<&TcpSocket> {
        self.sockets.get(&sock).ok_or(SimError::NoSuchSocket(sock))
    }

    /// Mutable socket access.
    pub fn sock_mut(&mut self, sock: SockId) -> SimResult<&mut TcpSocket> {
        self.sockets
            .get_mut(&sock)
            .ok_or(SimError::NoSuchSocket(sock))
    }

    /// Close and remove a socket (no FIN exchange modeled — abrupt close is
    /// all the replication paths need).
    pub fn close(&mut self, sock: SockId) -> SimResult<()> {
        let s = self
            .sockets
            .remove(&sock)
            .ok_or(SimError::NoSuchSocket(sock))?;
        if let Some(remote) = s.remote {
            self.conns.remove(&(s.local, remote));
        }
        if s.state == TcpState::Listen {
            self.listeners.remove(&s.local.port);
        }
        Ok(())
    }

    fn alloc_ephemeral(&mut self) -> u16 {
        let p = self.ephemeral;
        self.ephemeral = self.ephemeral.wrapping_add(1).max(32768);
        p
    }

    // ------------------------------------------------------------------
    // Packet I/O
    // ------------------------------------------------------------------

    fn egress(&mut self, pkt: Packet) {
        if self.plugged {
            self.qdisc.enqueue(pkt);
        } else {
            self.out_ready.push(pkt);
        }
    }

    /// Deliver an incoming packet from the wire. Passes the ingress gate,
    /// performs connection matching, and may generate replies via egress.
    pub fn ingress(&mut self, pkt: Packet) {
        let Some(pkt) = self.input_gate.offer(pkt) else {
            return; // blocked: buffered or dropped
        };
        self.process_segment(pkt);
    }

    fn process_segment(&mut self, pkt: Packet) {
        let key = (pkt.dst, pkt.src);
        if let Some(&sid) = self.conns.get(&key) {
            let was_reset = self.sockets[&sid].state == TcpState::Reset;
            let reply = self
                .sockets
                .get_mut(&sid)
                .expect("conn map in sync")
                .on_segment(&pkt);
            if !was_reset && self.sockets[&sid].state == TcpState::Reset {
                self.broken_connections += 1;
            }
            if let Some(r) = reply {
                self.egress(r);
            }
            return;
        }
        if pkt.flags.syn && !pkt.flags.ack {
            if let Some(&lid) = self.listeners.get(&pkt.dst.port) {
                // Create the child connection, reply SYN+ACK.
                let child = self.socket();
                {
                    let c = self.sockets.get_mut(&child).expect("just created");
                    c.state = TcpState::Established;
                    c.local = pkt.dst;
                    c.remote = Some(pkt.src);
                    // SYNs do not consume sequence numbers in this model.
                    c.rcv_nxt = pkt.seq;
                }
                self.conns.insert((pkt.dst, pkt.src), child);
                self.sockets
                    .get_mut(&lid)
                    .expect("listener exists")
                    .backlog
                    .push_back(child);
                let synack = Packet {
                    src: pkt.dst,
                    dst: pkt.src,
                    seq: 0,
                    ack: pkt.seq,
                    flags: TcpFlags::SYN_ACK,
                    head: Bytes::new(),
                    payload: Bytes::new(),
                };
                self.egress(synack);
                return;
            }
        }
        if !pkt.flags.rst {
            // No socket for this packet: the kernel answers RST — the exact
            // §III hazard during recovery if input is not blocked.
            let rst = Packet {
                src: pkt.dst,
                dst: pkt.src,
                seq: pkt.ack,
                ack: pkt.seq,
                flags: TcpFlags::RST,
                head: Bytes::new(),
                payload: Bytes::new(),
            };
            self.out_ready.push(rst); // RSTs bypass the plug: kernel-generated
        }
    }

    /// Drain packets ready to leave the stack (pass-through egress + RSTs).
    pub fn take_ready(&mut self) -> Vec<Packet> {
        self.drain_ready().collect()
    }

    /// [`NetStack::take_ready`] as a draining iterator: the ready queue keeps
    /// its capacity for the packets of the next round.
    pub fn drain_ready(&mut self) -> std::vec::Drain<'_, Packet> {
        self.out_ready.drain(..)
    }

    /// Inject a raw packet into the egress-ready queue, bypassing the plug
    /// (used for driver-triggered retransmissions, which model the TCP
    /// timer rather than application sends).
    pub fn inject_egress(&mut self, pkt: Packet) {
        self.out_ready.push(pkt);
    }

    /// Release the plugged output buffer (epoch commit): packets move to the
    /// ready queue, in order.
    pub fn release_output(&mut self) -> usize {
        self.qdisc.release_into(&mut self.out_ready)
    }

    /// Block input (checkpoint stop phase / recovery window).
    pub fn block_input(&mut self) {
        self.input_gate.block();
    }

    /// Unblock input, reprocessing anything buffered by the gate.
    pub fn unblock_input(&mut self) {
        let held = self.input_gate.unblock();
        for pkt in held {
            self.process_segment(pkt);
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint support
    // ------------------------------------------------------------------

    /// Dump all established sockets via repair mode and all listening ports.
    /// Returns `(listeners, repair states)`, both sorted: ports ascending,
    /// states in socket-id order. A state holds its queues by reference
    /// ([`RepairState`]); nothing is copied here.
    pub fn checkpoint_sockets(&mut self) -> (Vec<u16>, Vec<RepairState>) {
        let mut ports: Vec<u16> = self.listeners.keys().copied().collect();
        ports.sort_unstable();
        let mut socks: Vec<&mut TcpSocket> = self
            .sockets
            .values_mut()
            .filter(|s| s.state == TcpState::Established)
            .collect();
        socks.sort_unstable_by_key(|s| s.id);
        let states = socks
            .into_iter()
            .map(|s| {
                s.set_repair(true);
                let state = s.repair_get().expect("repair mode just set");
                s.set_repair(false);
                state
            })
            .collect();
        (ports, states)
    }

    /// Restore listeners and established sockets from a checkpoint.
    /// `rto_min` is applied to restored sockets (§V-E). Returns the restored
    /// established socket ids in the same order as `states`.
    pub fn restore_sockets(
        &mut self,
        listeners: &[u16],
        states: &[RepairState],
        rto_min: Nanos,
    ) -> SimResult<Vec<SockId>> {
        for &port in listeners {
            let l = self.socket();
            self.bind(l, port)?;
            self.listen(l)?;
        }
        let mut out = Vec::with_capacity(states.len());
        for st in states {
            let id = self.socket();
            let s = self.sock_mut(id).expect("just created");
            s.set_repair(true);
            s.repair_set(st, rto_min)?;
            s.set_repair(false);
            self.conns.insert((st.local, st.remote), id);
            out.push(id);
        }
        Ok(out)
    }

    /// Retransmit unacknowledged bytes on every restored socket (fires after
    /// the restored sockets' RTO at failover; §V-E). Each socket's whole
    /// unacked window is drained in MSS-sized segments — a backlog larger
    /// than one MSS produces multiple packets, not a truncated first one.
    /// Sockets retransmit in id order, so the packet order on the wire does
    /// not depend on how the socket table happens to be laid out.
    pub fn retransmit_all(&mut self) -> usize {
        let mut ids: Vec<SockId> =
            self.sockets.values().filter(|s| s.restored).map(|s| s.id).collect();
        ids.sort_unstable();
        let mut n = 0;
        for id in ids {
            let mut off = 0;
            while let Some(p) = self.sockets[&id].retransmit_at(off) {
                off += p.data_len();
                self.egress(p);
                n += 1;
            }
        }
        n
    }

    /// Ids and remote endpoints of all established sockets, sorted by id
    /// (drivers dispatch per-connection work from this).
    pub fn established_ids(&self) -> Vec<(SockId, Endpoint)> {
        let mut v: Vec<(SockId, Endpoint)> = self
            .sockets
            .values()
            .filter(|s| s.state == TcpState::Established)
            .map(|s| (s.id, s.remote.expect("established socket has a peer")))
            .collect();
        v.sort_unstable_by_key(|(id, _)| *id);
        v
    }

    /// The established socket connecting `local` to `remote`, if any: one
    /// lookup in the connection map, where [`NetStack::established_ids`]
    /// lists and sorts every socket.
    pub fn sock_to(&self, local: Endpoint, remote: Endpoint) -> Option<SockId> {
        let sid = *self.conns.get(&(local, remote))?;
        (self.sockets[&sid].state == TcpState::Established).then_some(sid)
    }

    /// Queue statistics for checkpoint-size accounting.
    pub fn queue_stats(&self) -> SocketQueueStats {
        let mut st = SocketQueueStats {
            established: 0,
            listeners: self.listeners.len(),
            queue_bytes: 0,
        };
        // Counts and sums: order-free.
        for s in self.sockets.values() {
            if s.state == TcpState::Established {
                st.established += 1;
                st.queue_bytes += (s.write_queue.len() + s.read_queue.len()) as u64;
            }
        }
        st
    }

    /// Number of sockets (all states).
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Connections broken by an incoming RST (the §VII-A validation check).
    pub fn broken_connections(&self) -> u64 {
        self.broken_connections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::ByteQueue;

    const RTO: Nanos = 1_000_000_000;

    /// Shuttle packets between two stacks until quiescent.
    fn pump(a: &mut NetStack, b: &mut NetStack) {
        loop {
            let from_a = a.take_ready();
            let from_b = b.take_ready();
            if from_a.is_empty() && from_b.is_empty() {
                break;
            }
            for p in from_a {
                b.ingress(p);
            }
            for p in from_b {
                a.ingress(p);
            }
        }
    }

    fn connected_pair() -> (NetStack, SockId, NetStack, SockId, SockId) {
        let mut server = NetStack::new(1, RTO, InputMode::Buffer);
        let mut client = NetStack::new(2, RTO, InputMode::Buffer);
        let l = server.socket();
        server.bind(l, 80).unwrap();
        server.listen(l).unwrap();
        let c = client.socket();
        client.connect(c, Endpoint::new(1, 80)).unwrap();
        pump(&mut client, &mut server);
        let child = server.accept(l).unwrap().expect("backlog has the child");
        (server, child, client, c, l)
    }

    #[test]
    fn handshake_and_echo() {
        let (mut server, child, mut client, c, _) = connected_pair();
        assert_eq!(client.sock(c).unwrap().state, TcpState::Established);
        client.send(c, b"ping").unwrap();
        pump(&mut client, &mut server);
        assert_eq!(server.recv(child, 64).unwrap(), b"ping");
        server.send(child, b"pong").unwrap();
        pump(&mut client, &mut server);
        assert_eq!(client.recv(c, 64).unwrap(), b"pong");
        assert_eq!(client.sock(c).unwrap().unacked(), 0);
        assert_eq!(server.sock(child).unwrap().unacked(), 0);
    }

    #[test]
    fn sock_to_finds_only_the_established_connection() {
        let (mut server, child, mut client, c, _) = connected_pair();
        let (srv, cli) = (Endpoint::new(1, 80), client.sock(c).unwrap().local);
        assert_eq!(server.sock_to(srv, cli), Some(child));
        assert_eq!(client.sock_to(cli, srv), Some(c));
        assert_eq!(server.sock_to(srv, Endpoint::new(2, 1)), None, "no such peer");
        assert_eq!(server.sock_to(cli, srv), None, "direction matters");
        server.sock_mut(child).unwrap().state = TcpState::Reset;
        assert_eq!(server.sock_to(srv, cli), None, "a reset socket is not a connection");
        server.close(child).unwrap();
        assert_eq!(server.sock_to(srv, cli), None);
        // An owned buffer is shared with the wire and the write queue, not copied.
        let buf = Bytes::from(vec![7u8; 32]);
        client.send_bytes(c, buf.clone()).unwrap();
        let pkt = client.take_ready().pop().unwrap();
        assert_eq!(pkt.payload.as_ptr(), buf.as_ptr());
        assert_eq!(client.sock(c).unwrap().unacked(), 32);
    }

    #[test]
    fn connect_to_closed_port_gets_rst() {
        let mut server = NetStack::new(1, RTO, InputMode::Buffer);
        let mut client = NetStack::new(2, RTO, InputMode::Buffer);
        let c = client.socket();
        client.connect(c, Endpoint::new(1, 9999)).unwrap();
        pump(&mut client, &mut server);
        assert_eq!(client.sock(c).unwrap().state, TcpState::Reset);
        assert_eq!(client.broken_connections(), 1);
    }

    #[test]
    fn plugged_output_held_until_release() {
        let (mut server, child, mut client, c, _) = connected_pair();
        server.plugged = true;
        client.send(c, b"req").unwrap();
        pump(&mut client, &mut server);
        assert_eq!(server.recv(child, 64).unwrap(), b"req");
        server.send(child, b"resp").unwrap();
        pump(&mut client, &mut server);
        assert_eq!(
            client.sock(c).unwrap().readable(),
            0,
            "response held by plug"
        );
        assert!(server.qdisc.pending() >= 1);
        server.release_output();
        pump(&mut client, &mut server);
        assert_eq!(client.recv(c, 64).unwrap(), b"resp");
    }

    #[test]
    fn discarded_output_never_reaches_client() {
        let (mut server, child, mut client, c, _) = connected_pair();
        server.plugged = true;
        client.send(c, b"req").unwrap();
        pump(&mut client, &mut server);
        server.recv(child, 64).unwrap();
        server.send(child, b"uncommitted").unwrap();
        let n = server.qdisc.discard();
        assert!(n >= 1);
        pump(&mut client, &mut server);
        assert_eq!(client.sock(c).unwrap().readable(), 0);
    }

    #[test]
    fn input_blocking_buffers_and_replays() {
        let (mut server, child, mut client, c, _) = connected_pair();
        server.block_input();
        client.send(c, b"during-stop").unwrap();
        pump(&mut client, &mut server);
        assert_eq!(
            server.recv(child, 64).unwrap(),
            b"",
            "blocked: nothing delivered"
        );
        server.unblock_input();
        pump(&mut client, &mut server);
        assert_eq!(server.recv(child, 64).unwrap(), b"during-stop");
    }

    #[test]
    fn checkpoint_restore_sockets_end_to_end() {
        let (mut server, child, mut client, c, _l) = connected_pair();
        // In-flight state: client sent a request the server hasn't read;
        // server sent a response the client hasn't acked (drop the wire).
        client.send(c, b"query").unwrap();
        for p in client.take_ready() {
            server.ingress(p);
        }
        server.take_ready(); // drop server ACK + anything else: wire loss
        server.send(child, b"answer").unwrap();
        server.take_ready(); // response lost on the wire too

        let (ports, states) = server.checkpoint_sockets();
        assert_eq!(ports, vec![80]);
        assert_eq!(states.len(), 1);
        assert_eq!(states[0].read_queue, b"query"[..]);
        assert_eq!(states[0].write_queue, b"answer"[..]);

        // "Backup host": fresh stack at the same address.
        let mut backup = NetStack::new(1, RTO, InputMode::Buffer);
        let restored = backup
            .restore_sockets(&ports, &states, 200_000_000)
            .unwrap();
        assert_eq!(restored.len(), 1);
        assert_eq!(backup.recv(restored[0], 64).unwrap(), b"query");
        // Retransmission recovers the lost response.
        assert_eq!(backup.retransmit_all(), 1);
        pump(&mut client, &mut backup);
        assert_eq!(client.recv(c, 64).unwrap(), b"answer");
        assert_eq!(
            client.broken_connections(),
            0,
            "no RST ever reached the client"
        );
    }

    #[test]
    fn restored_sockets_retransmit_in_id_order() {
        use crate::net::RTO_MSS;
        // Three connections with unacked windows (the middle one two
        // segments long), restored in this order, so ids ascend with it.
        let window = |port: u16, len: usize| RepairState {
            local: Endpoint::new(1, 80),
            remote: Endpoint::new(2, port),
            snd_nxt: len as u32,
            snd_una: 0,
            rcv_nxt: 0,
            write_queue: vec![port as u8; len].into(),
            read_queue: ByteQueue::default(),
        };
        let states = [window(40_003, 10), window(40_001, RTO_MSS + 5), window(40_002, 20)];
        let mut backup = NetStack::new(1, RTO, InputMode::Buffer);
        let ids = backup.restore_sockets(&[80], &states, 200_000_000).unwrap();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(backup.retransmit_all(), 4);
        let sent: Vec<(u16, u32, usize)> = backup
            .take_ready()
            .iter()
            .map(|p| (p.dst.port, p.seq, p.payload.len()))
            .collect();
        assert_eq!(
            sent,
            [
                (40_003, 0, 10),
                (40_001, 0, RTO_MSS),
                (40_001, RTO_MSS as u32, 5),
                (40_002, 0, 20)
            ],
            "socket-id order, each window front to back"
        );
    }

    #[test]
    fn restore_without_blocking_input_causes_rst() {
        // The §III hazard: if packets arrive after the namespace exists but
        // before the socket is restored, the kernel RSTs the connection.
        let (mut server, _child, mut client, c, _l) = connected_pair();
        let (ports, states) = server.checkpoint_sockets();
        let mut backup = NetStack::new(1, RTO, InputMode::Buffer);
        // Input NOT blocked; client data arrives before restore_sockets.
        client.send(c, b"early").unwrap();
        for p in client.take_ready() {
            backup.ingress(p);
        }
        for p in backup.take_ready() {
            client.ingress(p);
        }
        assert_eq!(client.broken_connections(), 1, "RST broke the connection");
        // Whereas with blocking, the same sequence is safe:
        let mut backup2 = NetStack::new(1, RTO, InputMode::Buffer);
        let mut client2 = NetStack::new(2, RTO, InputMode::Buffer);
        let c2 = client2.socket();
        {
            // seed an established pair via checkpoint state
            backup2.block_input();
            client2.sock_mut(c2).unwrap().state = TcpState::Established;
            client2.sock_mut(c2).unwrap().local = states[0].remote;
            client2.sock_mut(c2).unwrap().remote = Some(states[0].local);
            client2.sock_mut(c2).unwrap().snd_nxt = states[0].rcv_nxt;
            client2.sock_mut(c2).unwrap().snd_una = states[0].rcv_nxt;
            client2.sock_mut(c2).unwrap().rcv_nxt = states[0].snd_nxt;
            client2
                .conns
                .insert((states[0].remote, states[0].local), c2);
        }
        client2.send(c2, b"early").unwrap();
        for p in client2.take_ready() {
            backup2.ingress(p); // gated
        }
        backup2
            .restore_sockets(&ports, &states, 200_000_000)
            .unwrap();
        backup2.unblock_input();
        for p in backup2.take_ready() {
            client2.ingress(p);
        }
        assert_eq!(client2.broken_connections(), 0);
    }

    #[test]
    fn bind_conflicts() {
        let mut s = NetStack::new(1, RTO, InputMode::Buffer);
        let a = s.socket();
        let b = s.socket();
        s.bind(a, 80).unwrap();
        s.listen(a).unwrap();
        assert!(matches!(s.bind(b, 80), Err(SimError::AddrInUse(80))));
    }

    #[test]
    fn queue_stats_reflect_unread_and_unacked() {
        let (mut server, child, mut client, c, _) = connected_pair();
        client.send(c, b"0123456789").unwrap();
        for p in client.take_ready() {
            server.ingress(p);
        }
        server.take_ready();
        server.send(child, b"abcde").unwrap();
        let st = server.queue_stats();
        assert_eq!(st.established, 1);
        assert_eq!(st.listeners, 1);
        assert_eq!(st.queue_bytes, 15, "10 unread + 5 unacked");
    }

    #[test]
    fn close_removes_socket() {
        let (mut server, child, _client, _c, l) = connected_pair();
        assert_eq!(server.socket_count(), 2);
        server.close(child).unwrap();
        server.close(l).unwrap();
        assert_eq!(server.socket_count(), 0);
        assert!(server.close(child).is_err());
    }
}
