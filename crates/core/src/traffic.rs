//! Client traffic: the [`ClientBehavior`] seam and the [`ClientPool`] that
//! drives real sockets on the client host.
//!
//! Clients are closed-loop (one outstanding request each), which is how the
//! paper's YCSB/SIEGE drivers saturate the servers. All traffic flows through
//! the simulated TCP stacks — a request the client never got a (released!)
//! response to is genuinely outstanding, which is what makes the §VII-A
//! validation meaningful across a failover.

use crate::trace::{TraceEvent, Tracer};
use nilicon_container::{send_frame, take_frame};
use nilicon_sim::cluster::Cluster;
use nilicon_sim::ids::{Endpoint, HostId, NsId, SockId};
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimError, SimResult};
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasher;

/// Deterministic SplitMix64 jitter in `[0, range)`.
pub(crate) fn jitter(state: &mut u64, range: Nanos) -> Nanos {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    (z ^ (z >> 31)) % range.max(1)
}

/// Workload-defined client behavior.
pub trait ClientBehavior {
    /// Number of concurrent clients.
    fn client_count(&self) -> usize;

    /// Payload of client `idx`'s next request, or `None` when that client is
    /// done issuing.
    fn next_request(&mut self, idx: usize, now: Nanos) -> Option<Vec<u8>>;

    /// A response to client `idx` arrived at `now` with end-to-end `latency`.
    fn on_response(&mut self, idx: usize, resp: &[u8], now: Nanos, latency: Nanos);

    /// End-of-run validation (§VII-A): return `Err` on any inconsistency
    /// (lost update, wrong value, corrupted echo).
    fn verify(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Per-client connection state.
#[derive(Debug)]
struct ClientConn {
    sock: SockId,
    /// Send time of the outstanding request, if any.
    outstanding: Option<Nanos>,
    done: bool,
}

/// A pool of closed-loop clients with real sockets on the client host.
#[derive(Debug)]
pub struct ClientPool {
    /// Client host.
    pub host: HostId,
    /// Client network namespace.
    pub ns: NsId,
    /// Server endpoint the clients talk to.
    pub server: Endpoint,
    conns: Vec<ClientConn>,
    issued_total: u64,
    completed_total: u64,
    jitter_state: u64,
}

impl ClientPool {
    /// Connect `n` clients to `server`. Pumps the cluster until all
    /// handshakes complete.
    pub fn connect(
        cluster: &mut Cluster,
        host: HostId,
        ns: NsId,
        n: usize,
        server: Endpoint,
    ) -> SimResult<Self> {
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n {
            let stack = cluster.host_mut(host).stack_mut(ns)?;
            let s = stack.socket();
            stack.connect(s, server)?;
            conns.push(ClientConn {
                sock: s,
                outstanding: None,
                done: false,
            });
        }
        cluster.pump();
        // Verify establishment.
        for c in &conns {
            let st = cluster.host_mut(host).stack_mut(ns)?.sock(c.sock)?.state;
            if st != nilicon_sim::net::TcpState::Established {
                return Err(SimError::ConnRefused);
            }
        }
        Ok(ClientPool {
            host,
            ns,
            server,
            conns,
            issued_total: 0,
            completed_total: 0,
            jitter_state: 0x13198A2E03707344,
        })
    }

    /// Let every idle client issue its next request. Each send is stamped
    /// `now + think-jitter` with jitter uniform in `[0, jitter_range)` —
    /// real clients are not phase-locked to the server's epoch clock.
    /// Returns the number of requests put on the wire.
    pub fn issue(
        &mut self,
        cluster: &mut Cluster,
        behavior: &mut dyn ClientBehavior,
        now: Nanos,
        jitter_range: Nanos,
    ) -> SimResult<usize> {
        let mut sent = 0;
        for (idx, c) in self.conns.iter_mut().enumerate() {
            if c.outstanding.is_some() || c.done {
                continue;
            }
            match behavior.next_request(idx, now) {
                Some(req) => {
                    let stack = cluster.host_mut(self.host).stack_mut(self.ns)?;
                    send_frame(stack, c.sock, req)?;
                    c.outstanding = Some(now + jitter(&mut self.jitter_state, jitter_range));
                    self.issued_total += 1;
                    sent += 1;
                }
                None => c.done = true,
            }
        }
        Ok(sent)
    }

    /// Drain arrived responses. `receipt_times` supplies, per connection
    /// (keyed by the client's local endpoint), the logical receipt times of
    /// responses released by the server, in order. Returns the end-to-end
    /// latency of each completed request. Deliveries are traced as one
    /// [`TraceEvent::ClientDeliver`] per non-empty collection.
    pub fn collect(
        &mut self,
        cluster: &mut Cluster,
        behavior: &mut dyn ClientBehavior,
        receipt_times: &mut HashMap<Endpoint, VecDeque<Nanos>, impl BuildHasher>,
        fallback_now: Nanos,
        tracer: &Tracer,
    ) -> SimResult<Vec<Nanos>> {
        let mut latencies = Vec::new();
        self.collect_into(cluster, behavior, receipt_times, fallback_now, tracer, &mut latencies)?;
        Ok(latencies)
    }

    /// [`ClientPool::collect`] appending the latencies to `latencies` (a
    /// run's own record, which amortises its growth over the run). Returns
    /// the number of requests completed.
    pub fn collect_into(
        &mut self,
        cluster: &mut Cluster,
        behavior: &mut dyn ClientBehavior,
        receipt_times: &mut HashMap<Endpoint, VecDeque<Nanos>, impl BuildHasher>,
        fallback_now: Nanos,
        tracer: &Tracer,
        latencies: &mut Vec<Nanos>,
    ) -> SimResult<usize> {
        let before = latencies.len();
        for (idx, c) in self.conns.iter_mut().enumerate() {
            let stack = cluster.host_mut(self.host).stack_mut(self.ns)?;
            let local = stack.sock(c.sock)?.local;
            while let Some(frame) = take_frame(stack, c.sock, true)? {
                let receipt = receipt_times
                    .get_mut(&local)
                    .and_then(|q| q.pop_front())
                    .unwrap_or(fallback_now);
                let sent_at = c.outstanding.take().unwrap_or(receipt);
                let latency = receipt.saturating_sub(sent_at);
                behavior.on_response(idx, &frame, receipt, latency);
                latencies.push(latency);
                self.completed_total += 1;
            }
        }
        let responses = latencies.len() - before;
        if responses > 0 {
            tracer.event_at(
                TraceEvent::ClientDeliver {
                    responses: responses as u64,
                },
                fallback_now,
            );
        }
        Ok(responses)
    }

    /// After failover: retransmit every client's unacknowledged bytes (the
    /// client-side TCP stacks' RTO firing). Each connection's whole unacked
    /// window is drained in MSS-sized segments, so a multi-segment backlog
    /// (several requests in flight at the fault) is fully re-sent, not just
    /// its first segment. Returns the number of segments injected.
    pub fn retransmit(&mut self, cluster: &mut Cluster) -> SimResult<usize> {
        let stack = cluster.host_mut(self.host).stack_mut(self.ns)?;
        let mut n = 0;
        for c in &self.conns {
            let mut off = 0;
            while let Some(pkt) = stack.sock(c.sock)?.retransmit_at(off) {
                off += pkt.data_len();
                stack.inject_egress(pkt);
                n += 1;
            }
        }
        cluster.pump();
        Ok(n)
    }

    /// The client local endpoint for connection `idx` (keys receipt queues).
    pub fn local_endpoint(&self, cluster: &mut Cluster, idx: usize) -> SimResult<Endpoint> {
        Ok(cluster
            .host_mut(self.host)
            .stack_mut(self.ns)?
            .sock(self.conns[idx].sock)?
            .local)
    }

    /// Clients with a request in flight.
    pub fn outstanding(&self) -> usize {
        self.conns
            .iter()
            .filter(|c| c.outstanding.is_some())
            .count()
    }

    /// `(issued, completed)` lifetime counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.issued_total, self.completed_total)
    }

    /// Connections broken by RST on the client side (§VII-A: must be zero).
    /// A failed stack lookup is an error, not zero — swallowing it would let
    /// the zero-broken-connections gate pass vacuously.
    pub fn broken_connections(&self, cluster: &mut Cluster) -> SimResult<u64> {
        Ok(cluster
            .host_mut(self.host)
            .stack_mut(self.ns)?
            .broken_connections())
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    /// True if no clients.
    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }
}
