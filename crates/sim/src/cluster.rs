//! A cluster of simulated hosts joined by virtual links.
//!
//! Mirrors the paper's testbed (§VI): a primary and a backup host joined by a
//! dedicated replication link, plus a client host on a slower link. The
//! cluster routes packets between the hosts' network stacks and supports the
//! two fault-injection mechanisms of §VII-A: fail-stop emulation by blocking
//! all of a host's traffic (the paper uses `sch_plug` for this) and "manually
//! unplugging the network cable".

use crate::ids::{HostId, IdHasher, IdMap, NsId};
use crate::kernel::Kernel;
use crate::net::Packet;
use crate::time::SimClock;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;

/// Counters from one routing pump.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Packets delivered.
    pub delivered: u64,
    /// Payload+header bytes delivered.
    pub bytes: u64,
    /// Packets dropped (partitioned host or unroutable address).
    pub dropped: u64,
}

impl PumpStats {
    fn absorb(&mut self, other: PumpStats) {
        self.delivered += other.delivered;
        self.bytes += other.bytes;
        self.dropped += other.dropped;
    }
}

/// The cluster: hosts + routing table + shared virtual clock.
#[derive(Debug)]
pub struct Cluster {
    kernels: Vec<Kernel>,
    routes: IdMap<u32, (usize, NsId)>,
    partitioned: HashSet<usize, BuildHasherDefault<IdHasher>>,
    /// Packets between stacks during a [`Cluster::pump`], and the stacks its
    /// last round delivered to; kept for their capacity.
    in_flight: Vec<Packet>,
    woken: Vec<(usize, NsId)>,
    /// Shared virtual clock (drivers advance it; the cluster only reads it).
    pub clock: SimClock,
    totals: PumpStats,
}

impl Default for Cluster {
    fn default() -> Self {
        Self::new()
    }
}

impl Cluster {
    /// Empty cluster.
    pub fn new() -> Self {
        Cluster {
            kernels: Vec::new(),
            routes: IdMap::default(),
            partitioned: HashSet::default(),
            in_flight: Vec::new(),
            woken: Vec::new(),
            clock: SimClock::new(),
            totals: PumpStats::default(),
        }
    }

    /// Add a host; returns its id.
    pub fn add_host(&mut self, kernel: Kernel) -> HostId {
        self.kernels.push(kernel);
        HostId(self.kernels.len() as u32 - 1)
    }

    /// Host kernel access.
    pub fn host(&self, id: HostId) -> &Kernel {
        &self.kernels[id.0 as usize]
    }

    /// Mutable host kernel access.
    pub fn host_mut(&mut self, id: HostId) -> &mut Kernel {
        &mut self.kernels[id.0 as usize]
    }

    /// Mutable access to two distinct hosts at once (primary + backup).
    /// Panics if `a == b`.
    pub fn two_hosts_mut(&mut self, a: HostId, b: HostId) -> (&mut Kernel, &mut Kernel) {
        let (ai, bi) = (a.0 as usize, b.0 as usize);
        assert_ne!(ai, bi, "two_hosts_mut requires distinct hosts");
        if ai < bi {
            let (left, right) = self.kernels.split_at_mut(bi);
            (&mut left[ai], &mut right[0])
        } else {
            let (left, right) = self.kernels.split_at_mut(ai);
            (&mut right[0], &mut left[bi])
        }
    }

    /// Register (or move) the route for `addr` to `(host, ns)`.
    ///
    /// At failover the backup broadcasts a gratuitous ARP reply to take over
    /// the failed primary's address (Table II's ARP component); that is this
    /// call with the backup's host id.
    pub fn bind_addr(&mut self, addr: u32, host: HostId, ns: NsId) {
        self.routes.insert(addr, (host.0 as usize, ns));
    }

    /// Where `addr` currently routes.
    pub fn route_of(&self, addr: u32) -> Option<(HostId, NsId)> {
        self.routes
            .get(&addr)
            .map(|&(h, ns)| (HostId(h as u32), ns))
    }

    /// Emulate a fail-stop fault on `host` by blocking all of its traffic
    /// (§VII-A: "a fail-stop fault is emulated using the sch_plug module, by
    /// blocking incoming and outgoing traffic").
    pub fn partition(&mut self, host: HostId) {
        self.partitioned.insert(host.0 as usize);
    }

    /// Heal a partition (reconnect the cable).
    pub fn heal(&mut self, host: HostId) {
        self.partitioned.remove(&(host.0 as usize));
    }

    /// Whether `host` is partitioned.
    pub fn is_partitioned(&self, host: HostId) -> bool {
        self.partitioned.contains(&(host.0 as usize))
    }

    /// Route packets between stacks until quiescent. Delivery is logical
    /// (timing is the driver's concern); the stats let drivers charge wire
    /// time.
    ///
    /// The first round drains every stack, in (host, namespace) order; only a
    /// delivery can make a stack ready again, so each later round drains just
    /// the stacks the round before delivered to, in the same order.
    pub fn pump(&mut self) -> PumpStats {
        let mut stats = PumpStats::default();
        let mut in_flight = std::mem::take(&mut self.in_flight);
        let mut woken = std::mem::take(&mut self.woken);
        for (idx, k) in self.kernels.iter_mut().enumerate() {
            if self.partitioned.contains(&idx) {
                stats.dropped += k.stacks_mut().map(|s| s.drain_ready().len() as u64).sum::<u64>();
            } else {
                k.stacks_mut().for_each(|s| in_flight.extend(s.drain_ready()));
            }
        }
        while !in_flight.is_empty() {
            woken.clear();
            for pkt in in_flight.drain(..) {
                match self.routes.get(&pkt.dst.addr) {
                    Some(&(host, ns)) if !self.partitioned.contains(&host) => {
                        stats.bytes += pkt.wire_bytes();
                        stats.delivered += 1;
                        self.kernels[host]
                            .stack_mut(ns)
                            .expect("routed stack exists")
                            .ingress(pkt);
                        if woken.last() != Some(&(host, ns)) {
                            woken.push((host, ns));
                        }
                    }
                    _ => stats.dropped += 1,
                }
            }
            woken.sort_unstable();
            woken.dedup();
            // A woken stack's host took a delivery: it is not partitioned.
            for &(host, ns) in &woken {
                let stack = self.kernels[host].stack_mut(ns).expect("just delivered to");
                in_flight.extend(stack.drain_ready());
            }
        }
        (self.in_flight, self.woken) = (in_flight, woken);
        self.totals.absorb(stats);
        stats
    }

    /// Lifetime totals across all pumps.
    pub fn totals(&self) -> PumpStats {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Endpoint;
    use crate::net::InputMode;

    /// Two hosts: a server container on host 0 (addr 10) and a client on
    /// host 1 (addr 20).
    fn two_hosts() -> (Cluster, HostId, NsId, HostId, NsId) {
        let mut cl = Cluster::new();
        let h0 = cl.add_host(Kernel::default());
        let h1 = cl.add_host(Kernel::default());
        let ns0 = cl.host_mut(h0).namespaces.create_set("server").net;
        let ns1 = cl.host_mut(h1).namespaces.create_set("client").net;
        cl.host_mut(h0).create_stack(ns0, 10, InputMode::Buffer);
        cl.host_mut(h1).create_stack(ns1, 20, InputMode::Buffer);
        cl.bind_addr(10, h0, ns0);
        cl.bind_addr(20, h1, ns1);
        (cl, h0, ns0, h1, ns1)
    }

    #[test]
    fn cross_host_echo() {
        let (mut cl, h0, ns0, h1, ns1) = two_hosts();
        // Server listens.
        let srv = cl.host_mut(h0).stack_mut(ns0).unwrap();
        let l = srv.socket();
        srv.bind(l, 80).unwrap();
        srv.listen(l).unwrap();
        // Client connects.
        let cli = cl.host_mut(h1).stack_mut(ns1).unwrap();
        let c = cli.socket();
        cli.connect(c, Endpoint::new(10, 80)).unwrap();
        let st = cl.pump();
        assert!(st.delivered >= 2, "SYN + SYN/ACK at least");

        let child = cl
            .host_mut(h0)
            .stack_mut(ns0)
            .unwrap()
            .accept(l)
            .unwrap()
            .unwrap();
        cl.host_mut(h1)
            .stack_mut(ns1)
            .unwrap()
            .send(c, b"hi")
            .unwrap();
        cl.pump();
        assert_eq!(
            cl.host_mut(h0)
                .stack_mut(ns0)
                .unwrap()
                .recv(child, 10)
                .unwrap(),
            b"hi"
        );
        cl.host_mut(h0)
            .stack_mut(ns0)
            .unwrap()
            .send(child, b"yo")
            .unwrap();
        cl.pump();
        assert_eq!(
            cl.host_mut(h1).stack_mut(ns1).unwrap().recv(c, 10).unwrap(),
            b"yo"
        );
    }

    #[test]
    fn partition_blocks_both_directions() {
        let (mut cl, h0, ns0, h1, ns1) = two_hosts();
        let srv = cl.host_mut(h0).stack_mut(ns0).unwrap();
        let l = srv.socket();
        srv.bind(l, 80).unwrap();
        srv.listen(l).unwrap();

        cl.partition(h0);
        let cli = cl.host_mut(h1).stack_mut(ns1).unwrap();
        let c = cli.socket();
        cli.connect(c, Endpoint::new(10, 80)).unwrap();
        let st = cl.pump();
        assert_eq!(st.delivered, 0);
        assert!(st.dropped >= 1);
        assert!(cl.is_partitioned(h0));

        // Healing lets a retry work (the SYN was lost; re-connect).
        cl.heal(h0);
        let cli = cl.host_mut(h1).stack_mut(ns1).unwrap();
        let c2 = cli.socket();
        cli.connect(c2, Endpoint::new(10, 80)).unwrap();
        let st = cl.pump();
        assert!(st.delivered >= 2);
    }

    #[test]
    fn rebind_addr_moves_traffic() {
        // The failover mechanism: addr 10 moves from host 0 to host 1.
        let (mut cl, _h0, _ns0, h1, ns1) = two_hosts();
        // A third stack on host 1 stands in for the restored container netns.
        let k1 = cl.host_mut(h1);
        let restored_ns = k1.namespaces.create_set("restored").net;
        k1.create_stack(restored_ns, 10, InputMode::Buffer);
        let s = k1.stack_mut(restored_ns).unwrap();
        let l = s.socket();
        s.bind(l, 80).unwrap();
        s.listen(l).unwrap();
        cl.bind_addr(10, h1, restored_ns); // gratuitous ARP

        let cli = cl.host_mut(h1).stack_mut(ns1).unwrap();
        let c = cli.socket();
        cli.connect(c, Endpoint::new(10, 80)).unwrap();
        cl.pump();
        assert!(
            cl.host_mut(h1)
                .stack_mut(restored_ns)
                .unwrap()
                .accept(l)
                .unwrap()
                .is_some(),
            "connection reached the restored location"
        );
        assert_eq!(cl.route_of(10), Some((h1, restored_ns)));
    }

    #[test]
    fn unroutable_packets_drop() {
        let (mut cl, _h0, _ns0, h1, ns1) = two_hosts();
        let cli = cl.host_mut(h1).stack_mut(ns1).unwrap();
        let c = cli.socket();
        cli.connect(c, Endpoint::new(99, 80)).unwrap();
        let st = cl.pump();
        assert_eq!(st.delivered, 0);
        assert_eq!(st.dropped, 1);
        assert!(cl.totals().dropped >= 1);
    }
}
