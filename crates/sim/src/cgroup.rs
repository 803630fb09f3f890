//! Control groups: `cpuacct` (drives the failure detector) and freezer state.

use crate::ids::{CgroupId, IdMap};
use crate::time::Nanos;
use serde::{Deserialize, Serialize};

/// One control group.
///
/// NiLiCon's detector reads `cpuacct.usage` every 30 ms and only sends a
/// heartbeat when it has advanced (§IV) — a hung container stops producing
/// heartbeats even if the host is alive.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cgroup {
    /// Id.
    pub id: CgroupId,
    /// Path under the cgroup fs (e.g. `/docker/abc123`).
    pub path: String,
    /// Accumulated CPU usage of all member tasks, virtual nanos
    /// (`cpuacct.usage`).
    pub cpuacct_usage: Nanos,
    /// Frozen by the freezer cgroup controller.
    pub frozen: bool,
    /// cpu.shares-style weight (checkpointed; not used for scheduling).
    pub cpu_shares: u32,
    /// memory.limit_in_bytes-style limit (checkpointed; not enforced).
    pub memory_limit: u64,
}

impl Cgroup {
    /// New cgroup at `path`.
    pub fn new(id: CgroupId, path: &str) -> Self {
        Cgroup {
            id,
            path: path.to_string(),
            cpuacct_usage: 0,
            frozen: false,
            cpu_shares: 1024,
            memory_limit: 4 << 30, // the paper's 4 GB per container (§VI)
        }
    }
}

/// The cgroup hierarchy of one kernel.
#[derive(Debug, Default)]
pub struct CgroupTree {
    groups: IdMap<CgroupId, Cgroup>,
    next: u32,
}

impl CgroupTree {
    /// Empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a cgroup.
    pub fn create(&mut self, path: &str) -> CgroupId {
        self.next += 1;
        let id = CgroupId(self.next);
        self.groups.insert(id, Cgroup::new(id, path));
        id
    }

    /// Lookup.
    pub fn get(&self, id: CgroupId) -> Option<&Cgroup> {
        self.groups.get(&id)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, id: CgroupId) -> Option<&mut Cgroup> {
        self.groups.get_mut(&id)
    }

    /// Charge CPU time to a cgroup (the scheduler does this as container
    /// threads run; the detector reads it back).
    pub fn charge_cpu(&mut self, id: CgroupId, ns: Nanos) {
        if let Some(g) = self.groups.get_mut(&id) {
            g.cpuacct_usage += ns;
        }
    }

    /// Read `cpuacct.usage`.
    pub fn cpuacct_usage(&self, id: CgroupId) -> Nanos {
        self.groups.get(&id).map_or(0, |g| g.cpuacct_usage)
    }

    /// Snapshot all cgroups (checkpoint collection), sorted by id.
    pub fn snapshot(&self) -> Vec<Cgroup> {
        let mut v: Vec<Cgroup> = self.groups.values().cloned().collect();
        v.sort_by_key(|g| g.id);
        v
    }

    /// Install a cgroup snapshot at restore.
    pub fn install(&mut self, groups: &[Cgroup]) {
        for g in groups {
            self.next = self.next.max(g.id.0);
            self.groups.insert(g.id, g.clone());
        }
    }

    /// Number of cgroups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpuacct_accumulates() {
        let mut t = CgroupTree::new();
        let id = t.create("/docker/c1");
        assert_eq!(t.cpuacct_usage(id), 0);
        t.charge_cpu(id, 1000);
        t.charge_cpu(id, 500);
        assert_eq!(t.cpuacct_usage(id), 1500);
        assert_eq!(
            t.cpuacct_usage(CgroupId(99)),
            0,
            "unknown cgroup reads zero"
        );
    }

    #[test]
    fn snapshot_install_roundtrip() {
        let mut t = CgroupTree::new();
        let a = t.create("/docker/a");
        t.create("/docker/b");
        t.charge_cpu(a, 777);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);

        let mut t2 = CgroupTree::new();
        t2.install(&snap);
        assert_eq!(t2.cpuacct_usage(a), 777);
        assert_eq!(t2.len(), 2);
        // Post-restore allocation does not collide with restored ids.
        let c = t2.create("/docker/c");
        assert!(snap.iter().all(|g| g.id != c));
    }

    #[test]
    fn defaults_match_paper_setup() {
        let g = Cgroup::new(CgroupId(1), "/x");
        assert_eq!(g.memory_limit, 4 << 30, "§VI: 4GB per container");
        assert!(!g.frozen);
    }
}
