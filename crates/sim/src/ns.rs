//! Namespaces: the isolation layer containers are made of.
//!
//! Collecting namespace information through the stock proc interface "may
//! take up to 100ms" (§I) — which is why namespaces sit in NiLiCon's
//! infrequently-modified cached state set (§V-B).

use crate::ids::{IdMap, NsId};
use serde::{Deserialize, Serialize};

/// Namespace kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NsKind {
    /// Process ids.
    Pid,
    /// Network stack.
    Net,
    /// Mount table.
    Mnt,
    /// Hostname.
    Uts,
    /// SysV IPC.
    Ipc,
    /// User ids.
    User,
}

/// All six kinds, in a fixed order.
pub const ALL_NS_KINDS: [NsKind; 6] = [
    NsKind::Pid,
    NsKind::Net,
    NsKind::Mnt,
    NsKind::Uts,
    NsKind::Ipc,
    NsKind::User,
];

/// One namespace instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Namespace {
    /// Id.
    pub id: NsId,
    /// Kind.
    pub kind: NsKind,
    /// Opaque configuration payload (hostname for UTS, uid maps for User...).
    /// Travels through checkpoints byte-for-byte.
    pub config: Vec<u8>,
}

/// The set of namespaces a container runs in: one per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NsSet {
    /// pid ns.
    pub pid: NsId,
    /// net ns.
    pub net: NsId,
    /// mnt ns.
    pub mnt: NsId,
    /// uts ns.
    pub uts: NsId,
    /// ipc ns.
    pub ipc: NsId,
    /// user ns.
    pub user: NsId,
}

/// Namespace registry of one kernel.
#[derive(Debug, Default)]
pub struct NsRegistry {
    spaces: IdMap<NsId, Namespace>,
    next: u32,
}

impl NsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a namespace of `kind`.
    pub fn create(&mut self, kind: NsKind, config: Vec<u8>) -> NsId {
        self.next += 1;
        let id = NsId(self.next);
        self.spaces.insert(id, Namespace { id, kind, config });
        id
    }

    /// Create a full set, one namespace per kind.
    pub fn create_set(&mut self, hostname: &str) -> NsSet {
        NsSet {
            pid: self.create(NsKind::Pid, vec![]),
            net: self.create(NsKind::Net, vec![]),
            mnt: self.create(NsKind::Mnt, vec![]),
            uts: self.create(NsKind::Uts, hostname.as_bytes().to_vec()),
            ipc: self.create(NsKind::Ipc, vec![]),
            user: self.create(NsKind::User, b"0 0 4294967295".to_vec()),
        }
    }

    /// Lookup.
    pub fn get(&self, id: NsId) -> Option<&Namespace> {
        self.spaces.get(&id)
    }

    /// Mutate a namespace's config (fires the ftrace hook in kernel paths).
    pub fn set_config(&mut self, id: NsId, config: Vec<u8>) -> bool {
        match self.spaces.get_mut(&id) {
            Some(ns) => {
                ns.config = config;
                true
            }
            None => false,
        }
    }

    /// Snapshot the namespaces of `set` for a checkpoint.
    pub fn snapshot_set(&self, set: &NsSet) -> Vec<Namespace> {
        [set.pid, set.net, set.mnt, set.uts, set.ipc, set.user]
            .iter()
            .filter_map(|id| self.spaces.get(id).cloned())
            .collect()
    }

    /// Install namespaces at restore.
    pub fn install(&mut self, spaces: &[Namespace]) {
        for ns in spaces {
            self.next = self.next.max(ns.id.0);
            self.spaces.insert(ns.id, ns.clone());
        }
    }

    /// Count.
    pub fn len(&self) -> usize {
        self.spaces.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.spaces.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_set_covers_all_kinds() {
        let mut r = NsRegistry::new();
        let set = r.create_set("web-1");
        assert_eq!(r.len(), 6);
        let snap = r.snapshot_set(&set);
        assert_eq!(snap.len(), 6);
        let kinds: Vec<NsKind> = snap.iter().map(|n| n.kind).collect();
        for k in ALL_NS_KINDS {
            assert!(kinds.contains(&k), "missing {k:?}");
        }
        assert_eq!(r.get(set.uts).unwrap().config, b"web-1");
    }

    #[test]
    fn snapshot_install_roundtrip() {
        let mut r = NsRegistry::new();
        let set = r.create_set("host");
        r.set_config(set.uts, b"renamed".to_vec());
        let snap = r.snapshot_set(&set);

        let mut r2 = NsRegistry::new();
        r2.install(&snap);
        assert_eq!(r2.get(set.uts).unwrap().config, b"renamed");
        assert_eq!(r2.len(), 6);
    }

    #[test]
    fn set_config_missing_ns() {
        let mut r = NsRegistry::new();
        assert!(!r.set_config(NsId(42), vec![]));
    }
}
