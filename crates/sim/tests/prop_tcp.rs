//! Property tests of the TCP model: exactly-once, in-order byte-stream
//! delivery under arbitrary send/deliver/drop/retransmit schedules — the
//! foundation the §VII-A "no broken connections" guarantee rests on.

use bytes::Bytes;
use nilicon_sim::ids::Endpoint;
use nilicon_sim::net::{ByteQueue, InputMode, NetStack, RTO_MSS};
use proptest::prelude::*;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
enum Ev {
    /// Client sends a chunk of its (infinite) deterministic stream: copied
    /// (`send`), by reference (`send_bytes`), or as a gather write of a
    /// prefix of up to four bytes and the rest (`send_gather`, what
    /// `send_frame` does).
    Send(usize, How),
    /// Deliver all in-flight packets (both directions).
    Deliver,
    /// Drop everything currently in flight.
    DropInFlight,
    /// Client retransmission timer fires.
    Retransmit,
    /// Server reads everything available.
    ServerRead,
}

#[derive(Debug, Clone, Copy)]
enum How {
    Copy,
    Owned,
    Gather,
}

fn schedule() -> impl Strategy<Value = Vec<Ev>> {
    let how = prop_oneof![Just(How::Copy), Just(How::Owned), Just(How::Gather)];
    proptest::collection::vec(
        prop_oneof![
            4 => (prop_oneof![1..400usize, 1400..3200usize], how).prop_map(|(n, how)| Ev::Send(n, how)),
            4 => Just(Ev::Deliver),
            2 => Just(Ev::DropInFlight),
            2 => Just(Ev::Retransmit),
            3 => Just(Ev::ServerRead),
        ],
        1..80,
    )
}

/// One step against a [`ByteQueue`] and its `VecDeque<u8>` model.
#[derive(Debug, Clone)]
enum QueueOp {
    /// `push` a shared buffer of this many bytes (0 = an empty segment).
    Push(usize),
    /// `extend` from a byte iterator.
    Extend(usize),
    /// `extend_from_slice`.
    ExtendSlice(usize),
    /// `advance` by this many bytes (may pass the end).
    Advance(usize),
    /// `take` this many bytes.
    Take(usize),
    /// `take` exactly up to the end of the front segment, or this many past it.
    TakeAtBoundary(usize),
    /// `peek_prefix` of this length.
    Peek(usize),
    /// `copy_range(off, len)`.
    CopyRange(usize, usize),
}

fn queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (0..50usize).prop_map(QueueOp::Push),
            1 => (0..50usize).prop_map(QueueOp::Extend),
            2 => (0..50usize).prop_map(QueueOp::ExtendSlice),
            2 => (0..120usize).prop_map(QueueOp::Advance),
            3 => (0..120usize).prop_map(QueueOp::Take),
            2 => (0..2usize).prop_map(QueueOp::TakeAtBoundary),
            1 => (0..12usize).prop_map(QueueOp::Peek),
            1 => (0..150usize, 0..150usize).prop_map(|(o, l)| QueueOp::CopyRange(o, l)),
        ],
        1..60,
    )
}

fn stream_byte(i: usize) -> u8 {
    ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 33) as u8
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn byte_stream_is_exactly_once_in_order(events in schedule()) {
        let mut server = NetStack::new(1, 1_000_000_000, InputMode::Buffer);
        let mut client = NetStack::new(2, 1_000_000_000, InputMode::Buffer);
        let l = server.socket();
        server.bind(l, 80).unwrap();
        server.listen(l).unwrap();
        let c = client.socket();
        client.connect(c, Endpoint::new(1, 80)).unwrap();
        // Handshake.
        for _ in 0..3 {
            for p in client.take_ready() { server.ingress(p); }
            for p in server.take_ready() { client.ingress(p); }
        }
        let child = server.accept(l).unwrap().expect("established");

        let mut sent = 0usize;      // bytes pushed into the client socket
        let mut received = Vec::new(); // bytes the server app consumed
        let mut in_flight: Vec<nilicon_sim::net::Packet> = Vec::new();

        for ev in events {
            match ev {
                Ev::Send(n, how) => {
                    let mut chunk: Vec<u8> = (sent..sent + n).map(stream_byte).collect();
                    let put = match how {
                        How::Copy => client.send(c, &chunk),
                        How::Owned => client.send_bytes(c, chunk.into()),
                        How::Gather => {
                            let body = chunk.split_off(n.min(4));
                            client.send_gather(c, chunk.into(), body.into())
                        }
                    };
                    prop_assert_eq!(put.unwrap(), n);
                    sent += n;
                    in_flight.extend(client.take_ready());
                }
                Ev::Deliver => {
                    for p in in_flight.drain(..) {
                        if p.dst.addr == 1 { server.ingress(p); } else { client.ingress(p); }
                    }
                    // Route replies (ACKs) back.
                    for p in server.take_ready() { client.ingress(p); }
                    for p in client.take_ready() { server.ingress(p); }
                }
                Ev::DropInFlight => {
                    in_flight.clear();
                    client.take_ready();
                    server.take_ready();
                }
                Ev::Retransmit => {
                    if let Some(pkt) = client.sock(c).unwrap().retransmit() {
                        in_flight.push(pkt);
                    }
                }
                Ev::ServerRead => {
                    received.extend(server.recv(child, usize::MAX).unwrap());
                }
            }
        }
        received.extend(server.recv(child, usize::MAX).unwrap());

        // Invariant: the server saw a strict prefix of the stream — never a
        // duplicate, never a gap, never reordering.
        prop_assert!(received.len() <= sent);
        for (i, &b) in received.iter().enumerate() {
            prop_assert_eq!(b, stream_byte(i), "byte {} corrupted/reordered", i);
        }

        // Liveness: after enough retransmit+deliver rounds, everything sent
        // must arrive.
        for _ in 0..4 {
            // Drain the whole unacked window (MSS-segmented since the
            // multi-segment RTO fix), not just the first segment.
            // The write queue holds copied, owned and prefix + body segments;
            // the walk covers it flattened, in steps of at most one MSS.
            let mut off = 0;
            while let Some(pkt) = client.sock(c).unwrap().retransmit_at(off) {
                prop_assert!(pkt.head.is_empty() && (1..=RTO_MSS).contains(&pkt.data_len()));
                off += pkt.data_len();
                server.ingress(pkt);
            }
            prop_assert_eq!(off, client.sock(c).unwrap().unacked(), "the walk covers the window");
            for p in server.take_ready() { client.ingress(p); }
            received.extend(server.recv(child, usize::MAX).unwrap());
        }
        prop_assert_eq!(received.len(), sent, "retransmission recovers every byte");
    }

    /// The rope behaves as the flat byte deque it replaced.
    #[test]
    fn byte_queue_matches_vecdeque_model(ops in queue_ops()) {
        let mut q = ByteQueue::default();
        let mut model: VecDeque<u8> = VecDeque::new();
        let mut fed = 0usize; // stream position of the next byte appended
        // Bytes left in each segment fed, front first: where the boundaries are.
        let mut segs: VecDeque<usize> = VecDeque::new();
        for op in ops {
            let mut consumed = 0;
            match op {
                QueueOp::Push(n) | QueueOp::Extend(n) | QueueOp::ExtendSlice(n) => {
                    let data: Vec<u8> = (fed..fed + n).map(stream_byte).collect();
                    fed += n;
                    model.extend(data.iter().copied());
                    if n > 0 {
                        segs.push_back(n);
                    }
                    match op {
                        QueueOp::Push(_) => q.push(Bytes::from(data)),
                        QueueOp::Extend(_) => q.extend(data),
                        _ => q.extend_from_slice(&data),
                    }
                }
                QueueOp::Advance(n) => {
                    q.advance(n);
                    consumed = n.min(model.len());
                }
                QueueOp::Take(_) | QueueOp::TakeAtBoundary(_) => {
                    let n = match op {
                        QueueOp::TakeAtBoundary(past) => segs.front().map_or(0, |&s| s + past),
                        QueueOp::Take(n) => n,
                        _ => unreachable!(),
                    };
                    let got = q.take(n);
                    if n > model.len() {
                        prop_assert!(got.is_none(), "take({}) of {} bytes", n, model.len());
                    } else {
                        let want: Vec<u8> = model.iter().copied().take(n).collect();
                        prop_assert_eq!(&got.expect("enough queued")[..], &want[..]);
                        consumed = n;
                    }
                }
                QueueOp::Peek(n) => {
                    let mut buf = vec![0u8; n];
                    let ok = q.peek_prefix(&mut buf);
                    prop_assert_eq!(ok, n <= model.len());
                    if ok {
                        prop_assert_eq!(buf, model.iter().copied().take(n).collect::<Vec<u8>>());
                    }
                }
                QueueOp::CopyRange(off, len) => {
                    let want: Vec<u8> = model.iter().copied().skip(off).take(len).collect();
                    prop_assert_eq!(q.copy_range(off, len), want);
                }
            }
            model.drain(..consumed);
            while consumed > 0 {
                let front = segs.front_mut().expect("consumed bytes were fed");
                let n = consumed.min(*front);
                *front -= n;
                consumed -= n;
                if *front == 0 {
                    segs.pop_front();
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
            prop_assert_eq!(q.to_vec(), model.iter().copied().collect::<Vec<u8>>());
        }
    }

    /// Equality is about the bytes queued: two queues fed the same bytes
    /// through different `push` / `extend_from_slice` cuts, behind consumed
    /// prefixes of different lengths, are equal (to each other and to the
    /// slice); one differing byte makes them unequal; and a clone — what a
    /// checkpoint holds — is unaffected by what the original does next.
    #[test]
    fn byte_queue_equality_is_content_and_a_clone_is_a_snapshot(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        hist_a in (0..40usize, proptest::collection::vec((1..200usize, any::<bool>()), 0..12)),
        hist_b in (0..40usize, proptest::collection::vec((1..200usize, any::<bool>()), 0..12)),
        flip in any::<prop::sample::Index>(),
        later in proptest::collection::vec((0u8..3, 1..300usize), 0..8),
    ) {
        // `junk` consumed bytes first, then `bytes` cut as the history says.
        let build = |data: &[u8], (junk, cuts): &(usize, Vec<(usize, bool)>)| {
            let mut q = ByteQueue::default();
            let mut fed = vec![0xEEu8; *junk];
            fed.extend_from_slice(data);
            let mut rest = &fed[..];
            for &(cut, shared) in cuts.iter().cycle().take(if cuts.is_empty() { 0 } else { 64 }) {
                let (head, tail) = rest.split_at(cut.min(rest.len()));
                if shared { q.push(Bytes::copy_from_slice(head)) } else { q.extend_from_slice(head) }
                rest = tail;
            }
            q.extend_from_slice(rest);
            q.advance(*junk);
            q
        };
        let (mut a, b) = (build(&bytes, &hist_a), build(&bytes, &hist_b));
        prop_assert_eq!(&a, &b);
        prop_assert!(a == bytes[..] && b == bytes[..]);
        if !bytes.is_empty() {
            let mut other = bytes.clone();
            other[flip.index(bytes.len())] ^= 0x40;
            prop_assert!(a != build(&other, &hist_b), "one byte differs");
            prop_assert!(a != other[..] && a != bytes[1..]);
        }
        let snapshot = a.clone();
        for (kind, n) in later {
            match kind {
                0 => a.advance(n),
                1 => drop(a.take(n.min(a.len()))),
                _ => a.push(Bytes::from(vec![0x11; n])),
            }
        }
        prop_assert!(snapshot == bytes[..], "the clone still holds the bytes it was taken with");
        prop_assert_eq!(snapshot, b);
    }

    #[test]
    fn repair_roundtrip_any_queue_state(
        unread in proptest::collection::vec(any::<u8>(), 0..2000),
        unacked in proptest::collection::vec(any::<u8>(), 0..2000),
        seqs in (any::<u32>(), any::<u32>()),
    ) {
        use nilicon_sim::net::{RepairState, TcpSocket, TcpState};
        use nilicon_sim::ids::SockId;
        let st = RepairState {
            local: Endpoint::new(1, 80),
            remote: Endpoint::new(2, 5000),
            snd_nxt: seqs.0,
            snd_una: seqs.0.wrapping_sub(unacked.len() as u32),
            rcv_nxt: seqs.1,
            write_queue: unacked.clone().into(),
            read_queue: unread.clone().into(),
        };
        let mut sock = TcpSocket::new(SockId(9), 1_000_000_000);
        sock.set_repair(true);
        sock.repair_set(&st, 200_000_000).unwrap();
        let round = sock.repair_get().unwrap();
        prop_assert_eq!(&round, &st, "repair get(set(x)) == x");
        sock.set_repair(false);
        prop_assert_eq!(sock.state, TcpState::Established);
        prop_assert_eq!(sock.recv(usize::MAX).unwrap(), unread);
        if !unacked.is_empty() {
            let rt = sock.retransmit().expect("unacked bytes retransmit");
            prop_assert_eq!(rt.seq, st.snd_una);
            // The drain loop covers the whole window in MSS-sized segments.
            let mut covered = Vec::new();
            let mut off = 0;
            while let Some(p) = sock.retransmit_at(off) {
                prop_assert!(p.payload.len() <= RTO_MSS, "segment within MSS");
                prop_assert_eq!(p.seq, st.snd_una.wrapping_add(off as u32));
                off += p.payload.len();
                covered.extend_from_slice(&p.payload);
            }
            prop_assert_eq!(&covered[..], &unacked[..]);
        }
    }
}
