//! Strongly-typed identifiers for kernel objects.
//!
//! Every kernel object is referred to by a small copyable ID. Using newtypes
//! (rather than bare integers) prevents the classic bug class of passing a pid
//! where a socket id was expected — important in a crate whose entire API is
//! handle-based.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub $inner);

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl $name {
            /// Raw integer value of this identifier.
            #[inline]
            pub fn raw(self) -> $inner {
                self.0
            }
        }
    };
}

id_type!(
    /// Process identifier.
    Pid, u32, "pid:");
id_type!(
    /// Thread identifier (a thread belongs to exactly one process).
    Tid, u32, "tid:");
id_type!(
    /// File-descriptor number within one process's fd table.
    Fd, i32, "fd:");
id_type!(
    /// Inode number, unique within one kernel instance.
    Ino, u64, "ino:");
id_type!(
    /// Socket identifier, unique within one kernel instance.
    SockId, u32, "sock:");
id_type!(
    /// Address-space identifier (an `mm_struct`); threads of one process share one.
    AsId, u32, "mm:");
id_type!(
    /// Control-group identifier.
    CgroupId, u32, "cg:");
id_type!(
    /// Namespace identifier.
    NsId, u32, "ns:");
id_type!(
    /// Host identifier within a [`crate::cluster::Cluster`].
    HostId, u32, "host:");
id_type!(
    /// Block-device identifier.
    DevId, u32, "dev:");
id_type!(
    /// Mount identifier within a mount namespace.
    MountId, u32, "mnt:");

/// A TCP/IP endpoint in the simulated network: (host address, port).
///
/// Addresses are flat `u32`s — the simulation does not model subnetting; a
/// host's address is assigned by the cluster, and the virtual bridge routes on
/// exact address match.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Endpoint {
    /// Flat network address of the owning stack.
    pub addr: u32,
    /// TCP port.
    pub port: u16,
}

impl Endpoint {
    /// Construct an endpoint.
    pub fn new(addr: u32, port: u16) -> Self {
        Endpoint { addr, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// Multiply-rotate hasher (FxHash-style) for the simulation's own keys:
/// ids, endpoints, virtual page numbers and `(pid, vpn)` pairs. Object-table
/// and page-table lookups sit on per-request and per-page hot paths, where
/// SipHash's keyed rounds cost more than the work they guard, and HashDoS
/// resistance buys nothing against identifiers this program hands out
/// itself. Every integer width is one step; only `write` walks bytes.
#[derive(Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// A hash map keyed by the simulation's own identifiers ([`IdHasher`]). Its
/// iteration order depends on insertion history, so nothing ordered may be
/// derived from it unsorted: every walk either sorts or is order-free, and
/// says which.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Allocates monotonically increasing raw IDs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IdAlloc {
    next: u64,
}

impl IdAlloc {
    /// New allocator starting at `first`.
    pub fn starting_at(first: u64) -> Self {
        IdAlloc { next: first }
    }

    /// Hand out the next raw id.
    pub fn alloc(&mut self) -> u64 {
        let v = self.next;
        self.next += 1;
        v
    }
}

impl Default for IdAlloc {
    fn default() -> Self {
        IdAlloc::starting_at(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types_and_format() {
        let p = Pid(7);
        let t = Tid(7);
        assert_eq!(format!("{p:?}"), "pid:7");
        assert_eq!(format!("{t}"), "tid:7");
        assert_eq!(p.raw(), 7);
    }

    #[test]
    fn id_alloc_monotonic() {
        let mut a = IdAlloc::default();
        assert_eq!(a.alloc(), 1);
        assert_eq!(a.alloc(), 2);
        let mut b = IdAlloc::starting_at(100);
        assert_eq!(b.alloc(), 100);
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(Endpoint::new(10, 6379).to_string(), "10:6379");
    }

    #[test]
    fn endpoint_ordering_is_total() {
        let a = Endpoint::new(1, 2);
        let b = Endpoint::new(1, 3);
        let c = Endpoint::new(2, 0);
        assert!(a < b && b < c);
    }
}
