//! Backup-side incremental page stores.
//!
//! The backup receives an incremental page set every epoch and must merge it
//! into the accumulated container memory image. Stock CRIU keeps a *linked
//! list of directories*, one per incremental checkpoint; for each received
//! page it walks the list to find and remove a previous copy, so per-page
//! cost grows with the number of checkpoints — at 33 checkpoints/second this
//! is catastrophic. NiLiCon replaces it with a four-level radix tree
//! "mimicking the implementation of the hardware page tables", making the
//! per-page cost short and independent of history (§V-A, the first and
//! largest component of Table I's first optimization).
//!
//! Both stores here are *real data structures* holding real page bytes. The
//! Criterion benches in `nilicon-bench` measure them in wall-clock time; the
//! replication runtime charges virtual time from the probe counts they
//! report.

use crate::delta::PageEncoding;
use nilicon_sim::ids::Pid;
use nilicon_sim::mem::recycle_page;
use nilicon_sim::{zero_page, PageBuf};
use std::collections::HashMap;
use std::rc::Rc;

/// Largest virtual page number either store can address: the radix tree
/// walks 4 levels × 9 bits, exactly like the x86-64 page-table walk over
/// 4 KiB pages (48-bit virtual addresses → 36-bit vpns). The tree masks a
/// key above this onto one below (a debug build asserts); no guest page
/// carries such a key, because `AddressSpace::mmap` refuses to map above
/// `nilicon_sim::mem::VADDR_END`.
pub const MAX_VPN: u64 = (1 << 36) - 1;

/// Key of a stored page: (process, virtual page number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// Owning process.
    pub pid: Pid,
    /// Virtual page number.
    pub vpn: u64,
}

/// A backup-side store of committed container pages. `B` is the buffer held
/// per page: a whole page ([`PageBuf`]) on the paper's single backup, one
/// `frag_len`-byte fragment ([`crate::FragBuf`]) on a `(k, n)` placement
/// replica — same keys, same walk, same probe counts.
pub trait PageStore<B = PageBuf> {
    /// Insert (or replace) a page. Returns the number of *probe operations*
    /// performed — the unit the replication runtime converts into backup CPU
    /// time. The store shares the refcounted buffer; nothing is copied.
    fn insert(&mut self, key: PageKey, page: B) -> u64;

    /// [`PageStore::insert`] that also hands back the buffer `page`
    /// displaced, for the caller to recycle. The radix tree has it in hand at
    /// the end of its walk; a store that would have to search for it (the
    /// stock list) reports none and drops it as before.
    fn replace(&mut self, key: PageKey, page: B) -> (u64, Option<B>) {
        (self.insert(key, page), None)
    }

    /// Fetch a page.
    fn get(&self, key: PageKey) -> Option<&B>;

    /// Take a page out of the store, handing its buffer to the caller.
    fn remove(&mut self, key: PageKey) -> Option<B>;

    /// Forget the pages of `pid` in `vpns` (a range the container unmapped,
    /// see [`crate::image::unmapped_since`]) in one pass over what is stored:
    /// the range may span far more pages than the store holds, and the
    /// epochs that unmap are rare. No probes are reported — the commit that
    /// prunes charges what it charged before.
    fn remove_range(&mut self, pid: Pid, vpns: std::ops::Range<u64>) {
        let stored = self.iter_sorted().into_iter().map(|(key, _)| key);
        let doomed: Vec<PageKey> = stored
            .filter(|key| key.pid == pid && vpns.contains(&key.vpn))
            .collect();
        for key in doomed {
            self.remove(key);
        }
    }

    /// Number of distinct pages stored.
    fn len(&self) -> usize;

    /// True if empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All `(key, page)` pairs, sorted by key (image materialization).
    fn iter_sorted(&self) -> Vec<(PageKey, &B)>;

    /// Mark the beginning of a new incremental checkpoint.
    fn begin_checkpoint(&mut self);

    /// Number of incremental checkpoints seen.
    fn checkpoints(&self) -> u64;

    /// Apply a delta-encoded page against the store's current copy and
    /// commit the reconstructed page. Returns probe operations, like
    /// [`PageStore::insert`]; a [`PageEncoding::Delta`] costs one extra walk
    /// to fetch the base page first.
    ///
    /// The base page is patched where it lies when the store is its only
    /// holder. While the primary's shadow, a pending epoch or a materialized
    /// failover image still shares the buffer, `Rc::make_mut` clones it
    /// first, so no other holder ever sees it change. (A delta for a page
    /// the store never saw is image corruption, rejected upstream by
    /// `BackupAgent::commit`; here it patches an all-zero base, like
    /// [`PageEncoding::apply`].)
    ///
    /// Deltas are diffs of whole pages: the bound holds for `B = PageBuf`
    /// alone (the identity conversions), so a fragment store has no such
    /// method.
    fn apply_delta(&mut self, key: PageKey, enc: &PageEncoding) -> u64
    where
        B: From<PageBuf> + Into<PageBuf>,
    {
        match enc {
            PageEncoding::Delta(dp) => {
                let mut page: PageBuf = self.remove(key).map_or_else(zero_page, Into::into);
                dp.xor_into(Rc::make_mut(&mut page));
                self.insert(key, page.into()) * 2
            }
            _ => {
                let (probes, displaced) = self.replace(key, enc.apply(None).into());
                if let Some(old) = displaced {
                    recycle_page(old.into());
                }
                probes
            }
        }
    }
}

// ----------------------------------------------------------------------
// Stock CRIU: linked list of checkpoint directories
// ----------------------------------------------------------------------

/// Stock CRIU's store: one "directory" (map) per incremental checkpoint,
/// newest first. Insert probes every older directory to remove a previous
/// copy of the page.
#[derive(Debug)]
pub struct LinkedListStore<B = PageBuf> {
    /// Directories, index 0 = current checkpoint.
    dirs: Vec<HashMap<PageKey, B>>,
    count: usize,
    checkpoints: u64,
}

impl<B> Default for LinkedListStore<B> {
    fn default() -> Self {
        LinkedListStore {
            dirs: Vec::new(),
            count: 0,
            checkpoints: 0,
        }
    }
}

impl LinkedListStore {
    /// Empty store of whole pages (a fragment store is built with
    /// `Default`).
    pub fn new() -> Self {
        Self::default()
    }
}

impl<B> LinkedListStore<B> {
    /// Number of directories in the chain (grows with every checkpoint).
    pub fn chain_len(&self) -> usize {
        self.dirs.len()
    }
}

impl<B> PageStore<B> for LinkedListStore<B> {
    fn insert(&mut self, key: PageKey, page: B) -> u64 {
        if self.dirs.is_empty() {
            self.dirs.push(HashMap::new());
        }
        // Walk every older directory looking for a stale copy — this walk is
        // the cost CRIU's developers flagged (§V-A).
        let mut probes = 0u64;
        for dir in self.dirs.iter_mut().skip(1) {
            probes += 1;
            if dir.remove(&key).is_some() {
                self.count -= 1;
            }
        }
        probes += 1; // the insert itself
        if self.dirs[0].insert(key, page).is_none() {
            self.count += 1;
        }
        probes
    }

    fn get(&self, key: PageKey) -> Option<&B> {
        for dir in &self.dirs {
            if let Some(p) = dir.get(&key) {
                return Some(p);
            }
        }
        None
    }

    fn remove(&mut self, key: PageKey) -> Option<B> {
        let page = self.dirs.iter_mut().find_map(|dir| dir.remove(&key))?;
        self.count -= 1;
        Some(page)
    }

    fn len(&self) -> usize {
        self.count
    }

    fn iter_sorted(&self) -> Vec<(PageKey, &B)> {
        let mut v: Vec<(PageKey, &B)> = Vec::with_capacity(self.count);
        for dir in &self.dirs {
            for (k, p) in dir {
                v.push((*k, p));
            }
        }
        v.sort_by_key(|(k, _)| *k);
        v
    }

    fn begin_checkpoint(&mut self) {
        self.checkpoints += 1;
        self.dirs.insert(0, HashMap::new());
    }

    fn checkpoints(&self) -> u64 {
        self.checkpoints
    }
}

// ----------------------------------------------------------------------
// NiLiCon: four-level radix tree
// ----------------------------------------------------------------------

const FANOUT_BITS: u32 = 9;
const FANOUT: usize = 1 << FANOUT_BITS; // 512, like x86-64 page tables

/// Interior node of the radix tree.
struct RadixNode<T> {
    slots: Vec<Option<T>>,
}

impl<T> RadixNode<T> {
    fn new() -> Self {
        let mut slots = Vec::with_capacity(FANOUT);
        slots.resize_with(FANOUT, || None);
        RadixNode { slots }
    }
}

type Leaf<B> = RadixNode<B>;
type L2<B> = RadixNode<Box<Leaf<B>>>;
type L3<B> = RadixNode<Box<L2<B>>>;
type L4<B> = RadixNode<Box<L3<B>>>;

/// NiLiCon's store: a 4-level radix tree per process, indexed by vpn exactly
/// like the hardware page-table walk (9 bits per level, 36-bit vpn space).
pub struct RadixTreeStore<B = PageBuf> {
    roots: HashMap<Pid, Box<L4<B>>>,
    count: usize,
    checkpoints: u64,
}

impl<B> Default for RadixTreeStore<B> {
    fn default() -> Self {
        RadixTreeStore {
            roots: HashMap::new(),
            count: 0,
            checkpoints: 0,
        }
    }
}

impl<B> std::fmt::Debug for RadixTreeStore<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RadixTreeStore")
            .field("pages", &self.count)
            .field("checkpoints", &self.checkpoints)
            .finish()
    }
}

impl RadixTreeStore {
    /// Empty store of whole pages (a fragment store is built with
    /// `Default`).
    pub fn new() -> Self {
        Self::default()
    }
}

/// The four 9-bit radix indices of a vpn, root level first.
#[inline]
fn split_vpn(vpn: u64) -> (usize, usize, usize, usize) {
    debug_assert!(
        vpn <= MAX_VPN,
        "vpn {vpn:#x} exceeds the 36-bit radix address space; \
         bits above 36 would silently alias"
    );
    let l1 = (vpn & 0x1ff) as usize;
    let l2 = ((vpn >> 9) & 0x1ff) as usize;
    let l3 = ((vpn >> 18) & 0x1ff) as usize;
    let l4 = ((vpn >> 27) & 0x1ff) as usize;
    (l4, l3, l2, l1)
}

impl<B> PageStore<B> for RadixTreeStore<B> {
    fn insert(&mut self, key: PageKey, page: B) -> u64 {
        self.replace(key, page).0
    }

    fn replace(&mut self, key: PageKey, page: B) -> (u64, Option<B>) {
        let (i4, i3, i2, i1) = split_vpn(key.vpn);
        let root = self
            .roots
            .entry(key.pid)
            .or_insert_with(|| Box::new(RadixNode::new()));
        let n3 = root.slots[i4].get_or_insert_with(|| Box::new(RadixNode::new()));
        let n2 = n3.slots[i3].get_or_insert_with(|| Box::new(RadixNode::new()));
        let leaf = n2.slots[i2].get_or_insert_with(|| Box::new(RadixNode::new()));
        let displaced = leaf.slots[i1].replace(page);
        if displaced.is_none() {
            self.count += 1;
        }
        (4, displaced) // exactly four probes, independent of history (§V-A)
    }

    fn get(&self, key: PageKey) -> Option<&B> {
        let (i4, i3, i2, i1) = split_vpn(key.vpn);
        self.roots.get(&key.pid)?.slots[i4].as_ref()?.slots[i3]
            .as_ref()?
            .slots[i2]
            .as_ref()?
            .slots[i1]
            .as_ref()
    }

    fn remove(&mut self, key: PageKey) -> Option<B> {
        let (i4, i3, i2, i1) = split_vpn(key.vpn);
        let page = self.roots.get_mut(&key.pid)?.slots[i4].as_mut()?.slots[i3]
            .as_mut()?
            .slots[i2]
            .as_mut()?
            .slots[i1]
            .take()?;
        self.count -= 1;
        Some(page)
    }

    fn len(&self) -> usize {
        self.count
    }

    fn iter_sorted(&self) -> Vec<(PageKey, &B)> {
        let mut v = Vec::with_capacity(self.count);
        let mut pids: Vec<&Pid> = self.roots.keys().collect();
        pids.sort();
        for &pid in pids {
            let root = &self.roots[&pid];
            for (i4, s4) in root.slots.iter().enumerate() {
                let Some(n3) = s4 else { continue };
                for (i3, s3) in n3.slots.iter().enumerate() {
                    let Some(n2) = s3 else { continue };
                    for (i2, s2) in n2.slots.iter().enumerate() {
                        let Some(leaf) = s2 else { continue };
                        for (i1, slot) in leaf.slots.iter().enumerate() {
                            if let Some(p) = slot {
                                let vpn = ((i4 as u64) << 27)
                                    | ((i3 as u64) << 18)
                                    | ((i2 as u64) << 9)
                                    | i1 as u64;
                                v.push((PageKey { pid, vpn }, p));
                            }
                        }
                    }
                }
            }
        }
        v
    }

    fn begin_checkpoint(&mut self) {
        self.checkpoints += 1;
    }

    fn checkpoints(&self) -> u64 {
        self.checkpoints
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_sim::PAGE_SIZE;

    fn page(tag: u8) -> PageBuf {
        std::rc::Rc::new([tag; PAGE_SIZE])
    }

    fn key(pid: u32, vpn: u64) -> PageKey {
        PageKey { pid: Pid(pid), vpn }
    }

    fn exercise(store: &mut dyn PageStore) {
        // Three incremental checkpoints with overlapping page sets.
        store.begin_checkpoint();
        store.insert(key(1, 0x10), page(1));
        store.insert(key(1, 0x11), page(2));
        store.begin_checkpoint();
        store.insert(key(1, 0x10), page(3)); // overwrite
        store.insert(key(1, 0x7_fff_fff), page(4)); // far vpn
        store.begin_checkpoint();
        store.insert(key(2, 0x10), page(5)); // other pid, same vpn
    }

    #[test]
    fn remove_range_forgets_one_process_range() {
        for store in [
            &mut LinkedListStore::new() as &mut dyn PageStore,
            &mut RadixTreeStore::new(),
        ] {
            exercise(store);
            store.insert(key(1, 0x12), page(6));
            store.remove_range(Pid(1), 0x11..0x13);
            assert_eq!(store.len(), 3);
            // Any length of range is one pass; pid 2 keeps its 0x10.
            store.remove_range(Pid(1), 0..1 << 36);
            let left: Vec<PageKey> = store.iter_sorted().iter().map(|(k, _)| *k).collect();
            assert_eq!(left, [key(2, 0x10)]);
        }
    }

    #[test]
    fn both_stores_agree() {
        let mut ll = LinkedListStore::new();
        let mut rt = RadixTreeStore::new();
        exercise(&mut ll);
        exercise(&mut rt);
        assert_eq!(ll.len(), 4);
        assert_eq!(rt.len(), 4);
        assert_eq!(ll.get(key(1, 0x10)).unwrap()[0], 3, "newest copy wins");
        assert_eq!(rt.get(key(1, 0x10)).unwrap()[0], 3);
        assert_eq!(rt.get(key(2, 0x10)).unwrap()[0], 5);
        assert!(rt.get(key(3, 0x10)).is_none());
        let a: Vec<(PageKey, u8)> = ll.iter_sorted().iter().map(|(k, p)| (*k, p[0])).collect();
        let b: Vec<(PageKey, u8)> = rt.iter_sorted().iter().map(|(k, p)| (*k, p[0])).collect();
        assert_eq!(a, b, "observationally equivalent");
    }

    #[test]
    fn linked_list_probes_grow_with_history() {
        let mut ll = LinkedListStore::new();
        let mut last = 0;
        for ckpt in 0..50 {
            ll.begin_checkpoint();
            last = ll.insert(key(1, 0x10), page(ckpt as u8));
        }
        assert!(
            last >= 50,
            "probe count grows with checkpoint chain, got {last}"
        );
        assert_eq!(ll.chain_len(), 50);
        assert_eq!(ll.len(), 1, "stale copies were removed along the walk");
    }

    #[test]
    fn radix_probes_constant() {
        let mut rt = RadixTreeStore::new();
        let mut probes = Vec::new();
        for ckpt in 0..50 {
            rt.begin_checkpoint();
            probes.push(rt.insert(key(1, 0x10), page(ckpt as u8)));
        }
        assert!(
            probes.iter().all(|&p| p == 4),
            "§V-A: constant-time inserts"
        );
    }

    #[test]
    fn radix_split_roundtrip() {
        for vpn in [0u64, 1, 0x1ff, 0x200, 0x3_ffff, 0x7_fff_fff, MAX_VPN] {
            let (i4, i3, i2, i1) = split_vpn(vpn);
            let back = ((i4 as u64) << 27) | ((i3 as u64) << 18) | ((i2 as u64) << 9) | i1 as u64;
            assert_eq!(back, vpn, "in-range vpns round-trip exactly");
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "exceeds the 36-bit"))]
    fn radix_split_rejects_out_of_range_vpn() {
        // Two keys 2^36 apart used to alias silently; now the debug build
        // rejects the out-of-range key outright.
        let (i4, i3, i2, i1) = split_vpn(MAX_VPN + 1);
        // Release builds keep the historical masking behavior.
        assert_eq!((i4, i3, i2, i1), split_vpn(0));
    }

    /// Twelve epochs over five pages — sparse edits, a dense rewrite, a page
    /// alternating with zeros, first touches — applied as deltas next to a
    /// store taking the same pages whole. Everything that can alias a
    /// resident buffer is kept alive throughout: the caller's `PageBuf`s
    /// (a `Full` one is shared by shadow, encoding and store), every epoch's
    /// encodings (a pending epoch), and periodic clones of the whole store (a
    /// materialized image). In-place patching must never write through any
    /// of them.
    fn apply_delta_matches_direct_insert<S: PageStore + Default>() {
        use crate::delta::{DeltaStats, PageEncoding, ShadowStore};
        let mut shadow = ShadowStore::new();
        let mut stats = DeltaStats::default();
        let mut direct = S::default();
        let mut via_delta = S::default();
        let mut held: Vec<(PageBuf, [u8; PAGE_SIZE])> = Vec::new();
        let mut held_encs: Vec<PageEncoding> = Vec::new();
        let mut contents = [[0u8; PAGE_SIZE]; 5];
        for epoch in 1..=12u8 {
            contents[0][8 * epoch as usize] = epoch; // sparse, every epoch
            contents[1] = [epoch | 0x80; PAGE_SIZE]; // dense rewrite
            contents[2] = if epoch % 3 == 0 {
                [0; PAGE_SIZE]
            } else {
                contents[2]
            };
            contents[2][100] ^= epoch % 3; // zero / unchanged / sparse in turn
            contents[3][4000] = epoch; // sparse ...
            if epoch % 5 == 0 {
                contents[3] = [epoch; PAGE_SIZE]; // ... then dense
            }
            direct.begin_checkpoint();
            via_delta.begin_checkpoint();
            // Page 4 is first touched at epoch 4.
            let live = if epoch < 4 { 4 } else { 5 };
            if live == 5 {
                contents[4][epoch as usize] = 1;
            }
            for (vpn, bytes) in contents.iter().enumerate().take(live) {
                let k = key(1, 0x40 + vpn as u64);
                let page: PageBuf = std::rc::Rc::new(*bytes);
                let enc = shadow.encode(k, &page, &mut stats);
                let expect = direct.insert(k, page.clone());
                let probes = via_delta.apply_delta(k, &enc);
                let factor = if matches!(enc, PageEncoding::Delta(_)) {
                    2
                } else {
                    1
                };
                assert_eq!(probes, expect * factor, "probe count as before");
                assert_eq!(via_delta.get(k).unwrap(), direct.get(k).unwrap());
                held.push((page, *bytes));
                held_encs.push(enc);
            }
            if epoch % 4 == 0 {
                for (_, p) in via_delta.iter_sorted() {
                    held.push((p.clone(), **p));
                }
            }
            assert_eq!(via_delta.len(), direct.len());
        }
        assert!(stats.zero_pages > 0 && stats.delta_pages > 0 && stats.full_pages > 5);
        for (buf, original) in &held {
            assert!(**buf == *original, "a held buffer was written through");
        }
        let a: Vec<_> = via_delta.iter_sorted();
        let b: Vec<_> = direct.iter_sorted();
        assert_eq!(a, b, "delta path and full-page path hold the same image");
    }

    #[test]
    fn apply_delta_matches_direct_insert_radix() {
        apply_delta_matches_direct_insert::<RadixTreeStore>();
    }

    #[test]
    fn apply_delta_matches_direct_insert_linked_list() {
        apply_delta_matches_direct_insert::<LinkedListStore>();
    }

    #[test]
    fn remove_hands_the_page_over() {
        for store in [
            &mut RadixTreeStore::new() as &mut dyn PageStore,
            &mut LinkedListStore::new(),
        ] {
            store.begin_checkpoint();
            store.insert(key(1, 0x10), page(1));
            store.begin_checkpoint();
            store.insert(key(1, 0x11), page(2));
            assert_eq!(
                store.remove(key(1, 0x10)).unwrap()[0],
                1,
                "found in an older checkpoint"
            );
            assert!(store.remove(key(1, 0x10)).is_none());
            assert!(store.remove(key(2, 0x11)).is_none(), "unknown pid");
            assert_eq!(store.len(), 1);
            assert!(store.get(key(1, 0x10)).is_none());
            assert_eq!(store.get(key(1, 0x11)).unwrap()[0], 2);
        }
    }

    #[test]
    fn replace_hands_back_what_the_radix_tree_displaced() {
        let mut rt = RadixTreeStore::new();
        let first = page(1);
        assert!(matches!(rt.replace(key(1, 0x10), first.clone()), (4, None)));
        let (probes, displaced) = rt.replace(key(1, 0x10), page(2));
        assert_eq!(probes, 4);
        assert!(Rc::ptr_eq(&displaced.unwrap(), &first), "the buffer itself");
        assert_eq!((rt.len(), rt.get(key(1, 0x10)).unwrap()[0]), (1, 2));

        // The stock list would have to search its chain for the old copy:
        // it reports none and drops it.
        let mut ll = LinkedListStore::new();
        ll.begin_checkpoint();
        ll.insert(key(1, 0x10), first);
        ll.begin_checkpoint();
        assert!(matches!(ll.replace(key(1, 0x10), page(2)), (2, None)));
        assert_eq!((ll.len(), ll.get(key(1, 0x10)).unwrap()[0]), (1, 2));
    }

    #[test]
    fn empty_stores() {
        let ll = LinkedListStore::new();
        let rt = RadixTreeStore::new();
        assert!(ll.is_empty() && rt.is_empty());
        assert!(ll.get(key(1, 1)).is_none());
        assert!(rt.get(key(1, 1)).is_none());
        assert!(ll.iter_sorted().is_empty());
        assert!(rt.iter_sorted().is_empty());
    }
}
