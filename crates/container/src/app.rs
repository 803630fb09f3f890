//! The [`Application`] trait: what runs inside a container.
//!
//! Workloads implement this trait; the replication runtimes (`nilicon`,
//! `nilicon-mc`) and the unreplicated baseline driver host it. Applications
//! interact with the world only through [`GuestCtx`] — reads and writes go to
//! *simulated* memory, files, and sockets, so everything an application does
//! is visible to (and recoverable by) the checkpointing machinery. An
//! application that cheats and keeps durable state solely in Rust structs
//! will fail the §VII-A validation tests after a failover.

use crate::layout::MemLayout;
use bytes::Bytes;
use nilicon_sim::ids::{Fd, Pid, SockId};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::net::NetStack;
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimResult, PAGE_SIZE};

/// Outcome of handling one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Response payload to send back to the client.
    pub response: Vec<u8>,
}

/// Outcome of one batch step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// True when the batch workload has completed.
    pub done: bool,
}

/// Guest execution context: the syscall surface scoped to one process.
pub struct GuestCtx<'k> {
    /// The kernel this container runs on.
    pub kernel: &'k mut Kernel,
    /// The process whose context the application code runs in.
    pub pid: Pid,
    /// Virtual time at dispatch.
    pub now: Nanos,
}

impl<'k> GuestCtx<'k> {
    /// Construct a context.
    pub fn new(kernel: &'k mut Kernel, pid: Pid, now: Nanos) -> Self {
        GuestCtx { kernel, pid, now }
    }

    /// Charge pure computation time (the application's own CPU work, e.g.
    /// the PHP watermarking loop in the Lighttpd benchmark).
    pub fn cpu(&mut self, ns: Nanos) {
        self.kernel.meter.charge(ns);
    }

    /// Write to the process heap at byte offset `off`.
    pub fn heap_write(&mut self, off: u64, data: &[u8]) -> SimResult<()> {
        self.kernel
            .mem_write(self.pid, MemLayout::heap(off), data)?;
        Ok(())
    }

    /// Read from the process heap at byte offset `off`.
    pub fn heap_read(&mut self, off: u64, buf: &mut [u8]) -> SimResult<()> {
        self.kernel.mem_read(self.pid, MemLayout::heap(off), buf)
    }

    /// Dirty a whole heap page (scratch writes whose content is irrelevant —
    /// one canary byte is written so restores remain verifiable).
    pub fn heap_touch_page(&mut self, page: u64, canary: u8) -> SimResult<()> {
        self.kernel
            .mem_write(self.pid, MemLayout::heap_page(page), &[canary])?;
        Ok(())
    }

    /// Write to a thread stack (stack index `i`, byte offset `off`).
    pub fn stack_write(&mut self, i: u64, off: u64, data: &[u8]) -> SimResult<()> {
        self.kernel
            .mem_write(self.pid, MemLayout::stack(i) + off, data)?;
        Ok(())
    }

    /// Read from a thread stack.
    pub fn stack_read(&mut self, i: u64, off: u64, buf: &mut [u8]) -> SimResult<()> {
        self.kernel
            .mem_read(self.pid, MemLayout::stack(i) + off, buf)
    }

    /// Open (or create) a file by path.
    pub fn open_or_create(&mut self, path: &str) -> SimResult<Fd> {
        match self.kernel.open(self.pid, path) {
            Ok(fd) => Ok(fd),
            Err(_) => self.kernel.create_file(self.pid, path, self.now),
        }
    }

    /// Positional file write.
    pub fn pwrite(&mut self, fd: Fd, off: u64, data: &[u8]) -> SimResult<usize> {
        self.kernel.pwrite(self.pid, fd, off, data, self.now)
    }

    /// Positional file read.
    pub fn pread(&mut self, fd: Fd, off: u64, buf: &mut [u8]) -> SimResult<usize> {
        self.kernel.pread(self.pid, fd, off, buf)
    }

    /// fsync a file (reaches the replicated block device).
    pub fn fsync(&mut self, fd: Fd) -> SimResult<usize> {
        self.kernel.fsync(self.pid, fd)
    }
}

/// An application hosted in a container.
///
/// Server applications implement [`Application::handle_request`]; batch
/// applications implement [`Application::step`]. Both kinds implement
/// [`Application::recover`], which rebuilds any in-struct working state from
/// guest memory/files after a restore — the analogue of a real process whose
/// memory came back verbatim but whose host-side harness object is new.
pub trait Application {
    /// Application name (for reports).
    fn name(&self) -> &str;

    /// One-time setup: create files, seed data, arrange memory.
    fn init(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()>;

    /// Serve one request (server applications).
    fn handle_request(&mut self, ctx: &mut GuestCtx<'_>, req: &[u8]) -> SimResult<RequestOutcome> {
        let _ = (ctx, req);
        Ok(RequestOutcome {
            response: Vec::new(),
        })
    }

    /// Perform one unit of batch work (non-interactive applications).
    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<StepOutcome> {
        let _ = ctx;
        Ok(StepOutcome { done: true })
    }

    /// Rebuild Rust-side working state from guest memory after a restore.
    fn recover(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        let _ = ctx;
        Ok(())
    }

    /// Whether this is a server (has a listener) or a batch application.
    fn is_server(&self) -> bool {
        true
    }
}

// ----------------------------------------------------------------------
// Request framing: 4-byte little-endian length prefix over the TCP stream.
//
// A frame of a page or more goes out the way a server `writev`s it: the
// prefix as one small buffer, the body as the buffer the application
// produced, in one segment. The body is never copied next to its prefix —
// the sender's write queue, the packet and the receiver's read queue
// reference the caller's allocation — and `take_frame` hands the application
// a slice of that same buffer. A smaller frame is one flat buffer.
// ----------------------------------------------------------------------

/// A frame as one contiguous byte string: what [`send_frame`] puts on the
/// stream, spelled out. For [`send_frame`]'s small frames and for tests that
/// write a stream by hand; senders use [`send_frame`].
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(4 + payload.len());
    v.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    v.extend_from_slice(payload);
    v
}

/// Send `body` on `sock` as one frame in one segment: the length prefix and
/// the body ride as two buffers of a gather write, the body by reference.
/// A body shorter than a page is copied behind its prefix instead — two
/// buffers cost every queue the frame passes a second entry, which a copy
/// that small undercuts. The stream is the same bytes either way.
///
/// `body` is a `Vec<u8>` or a [`Bytes`]: the buffer becomes the segment, so
/// it is handed over, and a small one is read where it lies.
pub fn send_frame(
    stack: &mut NetStack,
    sock: SockId,
    body: impl Into<Bytes> + AsRef<[u8]>,
) -> SimResult<usize> {
    let len = body.as_ref().len();
    if len < PAGE_SIZE {
        return stack.send_bytes(sock, encode_frame(body.as_ref()).into());
    }
    stack.send_gather(sock, Bytes::copy_from_slice(&(len as u32).to_le_bytes()), body.into())
}

/// Take one whole frame off `sock`'s read queue, returning its payload, or
/// `None` while the next frame is still incomplete — a partial frame stays
/// in the (checkpointed) read queue, so one that straddles an epoch boundary
/// survives a failover inside socket state. The payload is a slice of the
/// buffer the body arrived in (copied only when the body spans segments).
/// Prefix and body are consumed as one read.
///
/// `counted` says whose read this is: a guest application's reads are part
/// of the stack's delivery order ([`NetStack::recv_body`]); a driver
/// harvesting requests on the container's behalf reads the socket directly
/// and leaves that order alone.
pub fn take_frame(stack: &mut NetStack, sock: SockId, counted: bool) -> SimResult<Option<Bytes>> {
    let mut hdr = [0u8; 4];
    if !stack.sock(sock)?.read_queue.peek_prefix(&mut hdr) {
        return Ok(None);
    }
    let n = u32::from_le_bytes(hdr) as usize;
    if counted {
        stack.recv_body(sock, hdr.len(), n)
    } else {
        stack.sock_mut(sock)?.recv_body(hdr.len(), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_sim::ids::Endpoint;
    use nilicon_sim::net::{InputMode, TcpState};

    /// An established socket whose read queue the test fills directly.
    fn stack_with_sock() -> (NetStack, SockId) {
        let mut stack = NetStack::new(1, 1_000_000_000, InputMode::Buffer);
        let id = stack.socket();
        let s = stack.sock_mut(id).unwrap();
        s.state = TcpState::Established;
        s.local = Endpoint::new(1, 80);
        s.remote = Some(Endpoint::new(2, 4000));
        (stack, id)
    }

    fn pump(a: &mut NetStack, b: &mut NetStack) {
        loop {
            let (from_a, from_b) = (a.take_ready(), b.take_ready());
            if from_a.is_empty() && from_b.is_empty() {
                break;
            }
            from_a.into_iter().for_each(|p| b.ingress(p));
            from_b.into_iter().for_each(|p| a.ingress(p));
        }
    }

    /// `(server, accepted socket, client, client socket)` after the handshake.
    fn connected() -> (NetStack, SockId, NetStack, SockId) {
        let mut server = NetStack::new(1, 1_000_000_000, InputMode::Buffer);
        let mut client = NetStack::new(2, 1_000_000_000, InputMode::Buffer);
        let l = server.socket();
        server.bind(l, 80).unwrap();
        server.listen(l).unwrap();
        let c = client.socket();
        client.connect(c, Endpoint::new(1, 80)).unwrap();
        pump(&mut client, &mut server);
        let child = server.accept(l).unwrap().expect("handshake done");
        (server, child, client, c)
    }

    #[test]
    fn frame_roundtrip() {
        let f = encode_frame(b"hello");
        assert_eq!(f.len(), 9);
        let (mut stack, id) = stack_with_sock();
        stack.sock_mut(id).unwrap().read_queue.extend_from_slice(&f);
        assert_eq!(&take_frame(&mut stack, id, false).unwrap().unwrap()[..], b"hello");
        assert_eq!(stack.sock(id).unwrap().delivered_bytes, 9, "header + payload");
        assert!(take_frame(&mut stack, id, false).unwrap().is_none());
    }

    #[test]
    fn partial_frames_stay_queued() {
        let f = encode_frame(b"abcdef");
        let (mut stack, id) = stack_with_sock();
        for (upto, what) in [(3, "short header"), (7, "short payload")] {
            let have = stack.sock(id).unwrap().readable();
            stack.sock_mut(id).unwrap().read_queue.extend_from_slice(&f[have..upto]);
            assert!(take_frame(&mut stack, id, true).unwrap().is_none(), "{what}");
            assert_eq!(stack.sock(id).unwrap().readable(), upto, "nothing consumed");
            assert_eq!(stack.delivered_seq(), 0);
        }
        stack.sock_mut(id).unwrap().read_queue.extend_from_slice(&f[7..]);
        assert_eq!(&take_frame(&mut stack, id, true).unwrap().unwrap()[..], b"abcdef");
        assert_eq!(stack.delivered_seq(), 1, "a counted read");
    }

    #[test]
    fn back_to_back_frames_share_the_arriving_segment() {
        let mut buf = encode_frame(b"one");
        buf.extend_from_slice(&encode_frame(b"two"));
        buf.extend_from_slice(&encode_frame(b""));
        let seg = Bytes::from(buf);
        let (mut stack, id) = stack_with_sock();
        stack.sock_mut(id).unwrap().read_queue.push(seg.clone());
        let one = take_frame(&mut stack, id, false).unwrap().unwrap();
        let two = take_frame(&mut stack, id, false).unwrap().unwrap();
        assert_eq!((&one[..], &two[..]), (&b"one"[..], &b"two"[..]));
        assert_eq!(two.as_ptr(), seg[11..].as_ptr(), "a slice of the segment, not a copy");
        assert!(take_frame(&mut stack, id, false).unwrap().unwrap().is_empty());
        assert_eq!(stack.sock(id).unwrap().delivered_bytes, seg.len() as u64);
        assert_eq!(stack.delivered_seq(), 0, "driver harvest is uncounted");
    }

    #[test]
    fn reset_socket_is_an_error() {
        let (mut stack, id) = stack_with_sock();
        let s = stack.sock_mut(id).unwrap();
        s.read_queue.extend_from_slice(&encode_frame(b"x"));
        s.state = TcpState::Reset;
        assert!(take_frame(&mut stack, id, true).is_err());
    }

    /// Frame boundaries against segment boundaries and an epoch boundary: a
    /// frame in three segments, two frames in one segment, and a frame whose
    /// first half is in the read queue when the primary is checkpointed and
    /// lost — the half rides the repair state to the backup and the frame is
    /// delivered exactly once when the rest arrives there.
    #[test]
    fn frames_survive_segment_and_epoch_boundaries() {
        let (mut server, child, mut client, c) = connected();

        // One frame in three segments.
        let f = encode_frame(b"three segments");
        for part in [&f[..2], &f[2..9], &f[9..]] {
            assert!(take_frame(&mut server, child, false).unwrap().is_none());
            client.send(c, part).unwrap();
            pump(&mut client, &mut server);
        }
        let got = take_frame(&mut server, child, false).unwrap().unwrap();
        assert_eq!(&got[..], b"three segments");

        // Two frames in one segment.
        let mut two = encode_frame(b"first");
        two.extend_from_slice(&encode_frame(b"second"));
        client.send_bytes(c, two.into()).unwrap();
        pump(&mut client, &mut server);
        assert_eq!(&take_frame(&mut server, child, false).unwrap().unwrap()[..], b"first");
        assert_eq!(&take_frame(&mut server, child, false).unwrap().unwrap()[..], b"second");
        assert!(take_frame(&mut server, child, false).unwrap().is_none());

        // A frame split across an epoch boundary, with a failover in between.
        let f = encode_frame(b"straddles the checkpoint");
        client.send(c, &f[..10]).unwrap();
        pump(&mut client, &mut server);
        assert!(take_frame(&mut server, child, false).unwrap().is_none());
        let (ports, states) = server.checkpoint_sockets();
        assert_eq!(states[0].read_queue, f[..10], "the partial frame is socket state");
        drop(server);
        let mut backup = NetStack::new(1, 1_000_000_000, InputMode::Buffer);
        let restored = backup.restore_sockets(&ports, &states, 200_000_000).unwrap();
        assert!(take_frame(&mut backup, restored[0], false).unwrap().is_none());
        client.send(c, &f[10..]).unwrap();
        pump(&mut client, &mut backup);
        let got = take_frame(&mut backup, restored[0], false).unwrap().unwrap();
        assert_eq!(&got[..], b"straddles the checkpoint");
        assert!(take_frame(&mut backup, restored[0], false).unwrap().is_none(), "exactly once");
        assert_eq!(backup.sock(restored[0]).unwrap().readable(), 0);
        assert_eq!(client.broken_connections(), 0);
    }

    /// A sent frame is one packet of two buffers, and the body the receiver
    /// takes is the sender's allocation; each frame is one counted read of
    /// prefix and body, an empty one included.
    #[test]
    fn a_sent_frame_arrives_as_a_slice_of_the_senders_buffer() {
        let (mut server, child, mut client, c) = connected();
        let bodies = [Bytes::from(vec![7u8; 5000]), Bytes::new(), Bytes::from(vec![9u8; PAGE_SIZE])];
        for body in &bodies {
            assert_eq!(send_frame(&mut client, c, body.clone()).unwrap(), 4 + body.len());
        }
        let sent = client.take_ready();
        assert_eq!(sent.len(), 3, "one packet a frame");
        assert_eq!(sent[0].head[..], 5000u32.to_le_bytes());
        assert_eq!(sent[0].payload.as_ptr(), bodies[0].as_ptr());
        assert_eq!(sent[0].wire_bytes(), 54 + 4 + 5000);
        assert_eq!((sent[1].seq, sent[2].seq), (5004, 5008), "both parts count in the stream");
        assert!(sent[1].head.is_empty() && sent[1].payload[..] == [0; 4], "below a page: one flat buffer");
        assert_eq!(sent[2].payload.as_ptr(), bodies[2].as_ptr(), "a page: by reference");
        sent.into_iter().for_each(|p| server.ingress(p));
        for (i, body) in bodies.iter().enumerate() {
            let got = take_frame(&mut server, child, true).unwrap().unwrap();
            assert_eq!(&got, body);
            assert!(body.is_empty() || got.as_ptr() == body.as_ptr(), "a slice, not a copy");
            assert_eq!(server.delivered_seq(), i as u64 + 1, "one read a frame");
        }
        assert!(take_frame(&mut server, child, true).unwrap().is_none());
        assert_eq!(server.sock(child).unwrap().delivered_bytes, 12 + 5000 + PAGE_SIZE as u64);
        pump(&mut client, &mut server);
        assert_eq!(client.sock(c).unwrap().unacked(), 0, "header and body both acknowledged");
    }

    /// The prefix reaches the primary in one epoch and the body never does:
    /// the prefix rides the repair state, the client's write queue (body
    /// segment only, the prefix was acknowledged) retransmits to the backup,
    /// and the frame is delivered there exactly once.
    #[test]
    fn a_header_checkpointed_without_its_body_completes_on_the_backup() {
        let (mut server, child, mut client, c) = connected();
        let body = Bytes::from((0..6000u32).map(|i| i as u8).collect::<Vec<_>>());
        send_frame(&mut client, c, body.clone()).unwrap();
        let pkt = client.take_ready().pop().unwrap();
        server.ingress(nilicon_sim::net::Packet { payload: Bytes::new(), ..pkt });
        pump(&mut client, &mut server);
        assert_eq!(client.sock(c).unwrap().unacked(), 6000);
        assert!(take_frame(&mut server, child, true).unwrap().is_none());
        assert_eq!((server.sock(child).unwrap().readable(), server.delivered_seq()), (4, 0));
        let (ports, states) = server.checkpoint_sockets();
        assert_eq!(states[0].read_queue, 6000u32.to_le_bytes()[..]);
        drop(server);
        let mut backup = NetStack::new(1, 1_000_000_000, InputMode::Buffer);
        let restored = backup.restore_sockets(&ports, &states, 200_000_000).unwrap();
        assert!(take_frame(&mut backup, restored[0], true).unwrap().is_none());
        let mut off = 0;
        while let Some(p) = client.sock(c).unwrap().retransmit_at(off) {
            off += p.data_len();
            client.inject_egress(p);
        }
        pump(&mut client, &mut backup);
        assert_eq!(take_frame(&mut backup, restored[0], true).unwrap().unwrap(), body);
        assert!(take_frame(&mut backup, restored[0], true).unwrap().is_none(), "exactly once");
        assert_eq!(backup.delivered_seq(), 1);
        assert_eq!(client.broken_connections(), 0);
    }
}
