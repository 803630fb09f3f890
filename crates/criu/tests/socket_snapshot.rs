//! Socket state is checkpointed by reference: a `RepairState` holds clones
//! of the live socket's ropes. These tests pin what that must mean — the
//! image is a snapshot (later traffic on the live socket cannot change it),
//! it survives the image file and a restore, and the file's bytes are those
//! of the flattened queues.

use bytes::Bytes;
use nilicon_criu::{decode_image, encode_image, CheckpointImage};
use nilicon_sim::ids::{Endpoint, SockId};
use nilicon_sim::net::{ByteQueue, InputMode, NetStack, Packet, TcpFlags};

const RTO: u64 = 1_000_000_000;

fn pump(a: &mut NetStack, b: &mut NetStack) {
    loop {
        let (from_a, from_b) = (a.take_ready(), b.take_ready());
        if from_a.is_empty() && from_b.is_empty() {
            return;
        }
        from_a.into_iter().for_each(|p| b.ingress(p));
        from_b.into_iter().for_each(|p| a.ingress(p));
    }
}

/// A server whose one connection has a two-segment read queue with three
/// bytes already read, and a two-segment write queue whose first four bytes
/// the client has received and acknowledged; the rest of both responses was
/// lost on the wire. Returns what the queues hold, read then write.
fn server_mid_conversation() -> (NetStack, SockId, NetStack, SockId, &'static [u8], &'static [u8]) {
    let mut server = NetStack::new(1, RTO, InputMode::Buffer);
    let mut client = NetStack::new(2, RTO, InputMode::Buffer);
    let l = server.socket();
    server.bind(l, 80).unwrap();
    server.listen(l).unwrap();
    let c = client.socket();
    client.connect(c, Endpoint::new(1, 80)).unwrap();
    pump(&mut client, &mut server);
    let child = server.accept(l).unwrap().unwrap();

    client.send(c, b"req-one|").unwrap();
    client.send(c, b"req-two|").unwrap();
    pump(&mut client, &mut server);
    assert_eq!(&server.recv_exact(child, 3).unwrap().unwrap()[..], b"req");

    server.send(child, b"answer-one|").unwrap();
    server.send(child, b"answer-two|").unwrap();
    // The path delivered only the first four bytes of the first response.
    let first = server.take_ready().remove(0);
    client.ingress(Packet {
        payload: first.payload.slice(..4),
        ..first
    });
    pump(&mut client, &mut server);
    assert_eq!(client.recv(c, 64).unwrap(), b"answ");
    (server, child, client, c, b"-one|req-two|", b"er-one|answer-two|")
}

#[test]
fn the_image_keeps_checkpoint_time_bytes_through_file_and_restore() {
    let (mut server, child, mut client, c, want_read, want_write) = server_mid_conversation();
    let (ports, states) = server.checkpoint_sockets();
    assert_eq!(states.len(), 1);
    assert_eq!(states[0].read_queue, want_read[..]);
    assert_eq!(states[0].write_queue, want_write[..]);

    // The live socket moves on: it reads, is acknowledged past a segment
    // boundary, receives and sends more.
    assert_eq!(&server.recv_exact(child, 7).unwrap().unwrap()[..], b"-one|re");
    let (local, remote) = (states[0].local, states[0].remote);
    server.ingress(Packet {
        src: remote,
        dst: local,
        seq: states[0].rcv_nxt,
        ack: states[0].snd_una.wrapping_add(9),
        flags: TcpFlags::ACK,
        head: Bytes::new(),
        payload: Bytes::new(),
    });
    server.send(child, b"after the checkpoint").unwrap();
    server
        .sock_mut(child)
        .unwrap()
        .read_queue
        .extend_from_slice(b"late request");
    let live = server.sock(child).unwrap();
    assert_eq!(live.write_queue, b"swer-two|after the checkpoint"[..]);
    assert_eq!(live.read_queue, b"q-two|late request"[..]);
    assert_eq!(states[0].read_queue, want_read[..], "the image did not move");
    assert_eq!(states[0].write_queue, want_write[..]);
    drop(server); // the primary fails; what it sent since never left its plug

    // Through the image file, onto a fresh stack at the same address.
    let img = CheckpointImage {
        listeners: ports,
        sockets: states,
        ..Default::default()
    };
    let back = decode_image(&encode_image(&img)).unwrap();
    assert_eq!(back.sockets, img.sockets);
    let mut backup = NetStack::new(1, RTO, InputMode::Buffer);
    let restored = backup
        .restore_sockets(&back.listeners, &back.sockets, 200_000_000)
        .unwrap();
    assert_eq!(backup.recv(restored[0], 64).unwrap(), want_read);
    assert_eq!(backup.retransmit_all(), 1);
    pump(&mut client, &mut backup);
    assert_eq!(client.recv(c, 64).unwrap(), want_write);
    assert_eq!(backup.sock(restored[0]).unwrap().unacked(), 0);
    assert_eq!(client.broken_connections(), 0);
}

#[test]
fn rope_queues_encode_to_the_bytes_of_flat_queues() {
    let (mut server, child, _, _, want_read, want_write) = server_mid_conversation();
    // A sent frame's prefix and body are two more segments of the write
    // queue; its flattened twin spells them as one.
    let body = vec![0xAB; 5000];
    let frame = nilicon_container::encode_frame(&body);
    nilicon_container::send_frame(&mut server, child, body).unwrap();
    let want_write = &[want_write, &frame[..]].concat()[..];
    let (ports, states) = server.checkpoint_sockets();
    assert_eq!(states[0].write_queue.chunks().count(), 4, "a rope: two sends, prefix, body");
    let mut flat = states.clone();
    for s in &mut flat {
        s.read_queue = ByteQueue::from(s.read_queue.to_vec());
        s.write_queue = ByteQueue::from(&s.write_queue.to_vec()[..]);
    }
    assert_eq!(flat, states, "same content, different segmentation");
    let image = |sockets| CheckpointImage {
        listeners: ports.clone(),
        sockets,
        ..Default::default()
    };
    let file = encode_image(&image(states));
    assert_eq!(file, encode_image(&image(flat)));
    // Each queue is its length, then its bytes, as ever.
    for queue in [want_write, want_read] {
        let mut wire = (queue.len() as u64).to_le_bytes().to_vec();
        wire.extend_from_slice(queue);
        assert!(file.windows(wire.len()).any(|w| w == wire));
    }
}
