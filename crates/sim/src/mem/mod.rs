//! Simulated virtual memory: VMAs, 4 KiB pages with real contents, and the
//! dirty-tracking machinery both replication systems rely on.
//!
//! NiLiCon identifies modified user-space pages with the kernel's *soft-dirty*
//! feature (`/proc/pid/clear_refs` + `/proc/pid/pagemap`, §II-B); the MC/KVM
//! baseline write-protects guest pages and takes a VM exit on first touch
//! (§VII-C). Both are modeled here as [`TrackingMode`]s over the same page
//! table, differing in the per-fault cost the kernel charges.

mod addr_space;
mod page;
mod vma;

pub use addr_space::{AddressSpace, WriteOutcome, VADDR_END};
pub use page::{
    end_page_round, recycle_page, spare_pages, zero_page, PageBuf, PageFrame,
    Recycler, ALL_LINES, LINE_BYTES,
};
pub use vma::{MappedFile, Perms, Vma, VmaKind};

/// How first-writes to pages are tracked during an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TrackingMode {
    /// No tracking: writes are free of tracking faults (unreplicated runs).
    #[default]
    None,
    /// Linux soft-dirty PTEs: first write after `clear_refs` takes a minor
    /// write-protect fault handled in the host kernel.
    SoftDirty,
    /// Hypervisor write protection: first write takes a VM exit/entry pair
    /// (the MC baseline's dominant runtime overhead).
    WriteProtect,
}
