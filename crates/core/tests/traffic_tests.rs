//! Direct tests of the client pool (outside the full harness).

use nilicon::traffic::{ClientBehavior, ClientPool};
use nilicon_container::{send_frame, take_frame};
use nilicon_sim::cluster::Cluster;
use nilicon_sim::ids::Endpoint;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::net::InputMode;
use nilicon_sim::time::Nanos;
use std::collections::{HashMap, VecDeque};

struct Ping {
    n: usize,
    issued: u64,
    got: u64,
    last_latency: Nanos,
}

impl ClientBehavior for Ping {
    fn client_count(&self) -> usize {
        self.n
    }
    fn next_request(&mut self, idx: usize, _now: Nanos) -> Option<Vec<u8>> {
        self.issued += 1;
        Some(vec![idx as u8, 0xEE])
    }
    fn on_response(&mut self, _idx: usize, resp: &[u8], _now: Nanos, latency: Nanos) {
        assert_eq!(resp[1], 0xEE);
        self.got += 1;
        self.last_latency = latency;
    }
}

fn world(n_clients: usize) -> (Cluster, nilicon_sim::ids::HostId, nilicon_sim::ids::NsId, ClientPool) {
    let mut cl = Cluster::new();
    let sh = cl.add_host(Kernel::default());
    let ch = cl.add_host(Kernel::default());
    let sns = cl.host_mut(sh).namespaces.create_set("s").net;
    let cns = cl.host_mut(ch).namespaces.create_set("c").net;
    cl.host_mut(sh).create_stack(sns, 10, InputMode::Buffer);
    cl.host_mut(ch).create_stack(cns, 20, InputMode::Buffer);
    cl.bind_addr(10, sh, sns);
    cl.bind_addr(20, ch, cns);
    let srv = cl.host_mut(sh).stack_mut(sns).unwrap();
    let l = srv.socket();
    srv.bind(l, 80).unwrap();
    srv.listen(l).unwrap();
    let pool = ClientPool::connect(&mut cl, ch, cns, n_clients, Endpoint::new(10, 80)).unwrap();
    (cl, sh, sns, pool)
}

/// Server side: echo every complete frame on every established connection.
fn echo_all(cl: &mut Cluster, sh: nilicon_sim::ids::HostId, sns: nilicon_sim::ids::NsId) {
    cl.pump();
    let stack = cl.host_mut(sh).stack_mut(sns).unwrap();
    for (sid, _) in stack.established_ids() {
        while let Some(frame) = take_frame(stack, sid, false).unwrap() {
            send_frame(stack, sid, frame).unwrap();
        }
    }
    cl.pump();
}

#[test]
fn closed_loop_issue_collect_cycle() {
    let (mut cl, sh, sns, mut pool) = world(3);
    let mut b = Ping { n: 3, issued: 0, got: 0, last_latency: 0 };
    assert_eq!(pool.len(), 3);

    // Round 1: everyone issues.
    let sent = pool.issue(&mut cl, &mut b, 1_000, 0).unwrap();
    assert_eq!(sent, 3);
    assert_eq!(pool.outstanding(), 3);
    // Closed loop: no double issue while outstanding.
    assert_eq!(pool.issue(&mut cl, &mut b, 2_000, 0).unwrap(), 0);

    echo_all(&mut cl, sh, sns);
    let mut receipts: HashMap<Endpoint, VecDeque<Nanos>> = HashMap::new();
    let lats = pool.collect(&mut cl, &mut b, &mut receipts, 9_000, &nilicon::trace::Tracer::disabled()).unwrap();
    assert_eq!(lats.len(), 3);
    assert_eq!(b.got, 3);
    assert_eq!(pool.outstanding(), 0);
    assert_eq!(b.last_latency, 8_000, "receipt fallback 9000 - send 1000");

    // Round 2 works again.
    assert_eq!(pool.issue(&mut cl, &mut b, 10_000, 0).unwrap(), 3);
    assert_eq!(pool.counters(), (6, 3));
}

#[test]
fn receipt_queue_drives_latency() {
    let (mut cl, sh, sns, mut pool) = world(1);
    let mut b = Ping { n: 1, issued: 0, got: 0, last_latency: 0 };
    pool.issue(&mut cl, &mut b, 5_000, 0).unwrap();
    echo_all(&mut cl, sh, sns);
    let local = pool.local_endpoint(&mut cl, 0).unwrap();
    let mut receipts: HashMap<Endpoint, VecDeque<Nanos>> = HashMap::new();
    receipts.entry(local).or_default().push_back(42_000);
    pool.collect(&mut cl, &mut b, &mut receipts, 0, &nilicon::trace::Tracer::disabled()).unwrap();
    assert_eq!(b.last_latency, 37_000, "logical receipt 42000 - send 5000");
}

#[test]
fn connect_to_dead_server_fails() {
    let mut cl = Cluster::new();
    let ch = cl.add_host(Kernel::default());
    let cns = cl.host_mut(ch).namespaces.create_set("c").net;
    cl.host_mut(ch).create_stack(cns, 20, InputMode::Buffer);
    cl.bind_addr(20, ch, cns);
    // No server bound at addr 10: handshake cannot complete.
    let r = ClientPool::connect(&mut cl, ch, cns, 2, Endpoint::new(10, 80));
    assert!(r.is_err());
}

/// Behavior issuing one large (multi-MSS) request per client.
struct BigReq {
    n: usize,
    size: usize,
    issued: u64,
    got: u64,
    ok: bool,
}

impl ClientBehavior for BigReq {
    fn client_count(&self) -> usize {
        self.n
    }
    fn next_request(&mut self, idx: usize, _now: Nanos) -> Option<Vec<u8>> {
        if self.issued >= self.n as u64 {
            return None;
        }
        self.issued += 1;
        Some(vec![idx as u8; self.size])
    }
    fn on_response(&mut self, idx: usize, resp: &[u8], _now: Nanos, _latency: Nanos) {
        self.got += 1;
        self.ok &= resp.len() == self.size && resp.iter().all(|&b| b == idx as u8);
    }
}

/// Regression for the single-segment retransmit bug: a request larger than
/// one MSS lost in flight (the failover window) left bytes beyond the first
/// MSS stranded in the write queue forever, because `ClientPool::retransmit`
/// injected at most one RTO segment per connection per call.
#[test]
fn retransmit_drains_multi_segment_backlog_after_failover() {
    use nilicon_sim::net::RTO_MSS;
    let (mut cl, sh, sns, mut pool) = world(2);
    let size = RTO_MSS * 2 + 100; // 3 segments per connection
    let mut b = BigReq { n: 2, size, issued: 0, got: 0, ok: true };

    // The server "dies": requests issued into the partition are dropped on
    // the wire but stay unacknowledged in the client write queues.
    cl.partition(sh);
    assert_eq!(pool.issue(&mut cl, &mut b, 1_000, 0).unwrap(), 2);
    cl.pump();
    assert_eq!(pool.outstanding(), 2);

    // Backup takes over the address (same host here); the client-side RTO
    // fires. Every connection's whole backlog must go back on the wire.
    cl.heal(sh);
    let segs = pool.retransmit(&mut cl).unwrap();
    assert_eq!(segs, 6, "two connections x three MSS segments each");

    // The stream reassembles: the echo server sees each full frame.
    echo_all(&mut cl, sh, sns);
    let mut receipts: HashMap<Endpoint, VecDeque<Nanos>> = HashMap::new();
    let lats = pool
        .collect(&mut cl, &mut b, &mut receipts, 9_000, &nilicon::trace::Tracer::disabled())
        .unwrap();
    assert_eq!(lats.len(), 2);
    assert!(b.ok, "responses byte-identical to the requests");
    // Everything acked: nothing left to retransmit.
    assert_eq!(pool.retransmit(&mut cl).unwrap(), 0);
    assert_eq!(pool.broken_connections(&mut cl).unwrap(), 0);
}

#[test]
fn jitter_spreads_send_times() {
    let (mut cl, _sh, _sns, mut pool) = world(16);
    let mut b = Ping { n: 16, issued: 0, got: 0, last_latency: 0 };
    pool.issue(&mut cl, &mut b, 0, 30_000_000).unwrap();
    // Collect with empty receipts: latency = fallback_now - send_time =
    // 30ms - jitter, so distinct latencies imply distinct send stamps.
    echo_all(&mut cl, _sh, _sns);
    let mut receipts: HashMap<Endpoint, VecDeque<Nanos>> = HashMap::new();
    let lats = pool.collect(&mut cl, &mut b, &mut receipts, 30_000_000, &nilicon::trace::Tracer::disabled()).unwrap();
    let distinct: std::collections::HashSet<_> = lats.iter().collect();
    assert!(distinct.len() > 8, "think-time jitter spreads sends: {distinct:?}");
}
