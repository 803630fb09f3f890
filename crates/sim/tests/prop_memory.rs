//! Property tests: soft-dirty tracking against a reference model.
//!
//! DESIGN.md invariant 7: after `clear_refs`, `pagemap` returns *exactly*
//! the set of pages written since — no false dirties, no missed writes —
//! under arbitrary interleavings of writes, reads, clears, and scans. And
//! a page buffer a frame shares — with a snapshot, a staged or lent copy, an
//! installed image or a cloned frame — keeps the bytes it was taken with,
//! whatever the frame is written with later.

use nilicon_sim::mem::{AddressSpace, PageBuf, PageFrame, Perms, TrackingMode, Vma, VmaKind};
use nilicon_sim::PAGE_SIZE;
use proptest::prelude::*;
use std::collections::BTreeSet;

const PAGES: u64 = 64;
const BASE: u64 = 0x10000;

#[derive(Debug, Clone)]
enum Op {
    Write { page: u64, off: u64, len: usize },
    Read { page: u64 },
    ClearRefs,
    Scan,
}

/// One step of the post-checkpoint race between the container (writes) and
/// the background COW copier (chunked drains).
#[derive(Debug, Clone)]
enum RaceOp {
    Write { page: u64 },
    Drain { max: usize },
}

fn race_strategy() -> impl Strategy<Value = RaceOp> {
    prop_oneof![
        (0..PAGES).prop_map(|page| RaceOp::Write { page }),
        (1..8usize).prop_map(|max| RaceOp::Drain { max }),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..PAGES, 0..4000u64, 1..64usize).prop_map(|(page, off, len)| Op::Write {
            page,
            off,
            len
        }),
        (0..PAGES).prop_map(|page| Op::Read { page }),
        Just(Op::ClearRefs),
        Just(Op::Scan),
    ]
}

/// One step of a run in which frames share their buffers: guest writes,
/// the holders that take a frame's buffer, and frames beside the address
/// space that share one.
#[derive(Debug, Clone)]
enum ShareOp {
    Write {
        page: u64,
        off: usize,
        len: usize,
        byte: u8,
    },
    WholeWrite {
        page: u64,
        byte: u8,
    },
    Snapshot {
        page: u64,
    },
    /// A stop phase: write-protect the dirty pages for a deferred copy.
    Protect,
    /// The copier: the fault-staged pages, then up to `max` protected ones,
    /// lent to a borrower that keeps a clone of each or drops it.
    Drain {
        max: usize,
        keep: bool,
    },
    /// Restore one kept buffer into a page.
    Install {
        page: u64,
        from: usize,
    },
    /// A frame beside the address space, sharing a page's buffer.
    Adopt {
        page: u64,
    },
    CloneFrame {
        i: usize,
    },
    FrameWrite {
        i: usize,
        off: usize,
        byte: u8,
    },
}

/// One copier step: lend the fault-staged pages and up to `max` protected
/// ones, each of which must hold its checkpoint-time bytes (`at_protect`);
/// a borrower that keeps them adds them to `kept`.
fn lent_contents_are_checkpoint_time(
    a: &mut AddressSpace,
    max: usize,
    keep: bool,
    at_protect: &std::collections::BTreeMap<u64, Vec<u8>>,
    kept: &mut Vec<(PageBuf, Vec<u8>)>,
) -> Result<(), String> {
    let mut lent = Vec::new();
    let staged = a.take_cow_staged();
    for (vpn, page) in &staged {
        lent.push((*vpn, page[..].to_vec()));
    }
    if keep {
        kept.extend(
            staged
                .into_iter()
                .map(|(vpn, page)| (page, at_protect[&vpn].clone())),
        );
    }
    a.cow_drain_with(max, |vpn, page, _| {
        lent.push((vpn, page[..].to_vec()));
        if keep {
            kept.push((page.clone(), at_protect[&vpn].clone()));
        }
    });
    for (vpn, bytes) in lent {
        prop_assert!(
            bytes == at_protect[&vpn],
            "{vpn:#x} lent without its checkpoint-time bytes"
        );
    }
    Ok(())
}

/// Pages in the sharing run: few, so that its steps keep meeting.
const SHARE_PAGES: u64 = 8;

fn share_strategy() -> impl Strategy<Value = ShareOp> {
    let page = 0..SHARE_PAGES;
    prop_oneof![
        4 => (page.clone(), 0..PAGE_SIZE, 1..200usize, any::<u8>())
            .prop_map(|(page, off, len, byte)| ShareOp::Write { page, off, len, byte }),
        2 => (page.clone(), any::<u8>()).prop_map(|(page, byte)| ShareOp::WholeWrite { page, byte }),
        2 => page.clone().prop_map(|page| ShareOp::Snapshot { page }),
        1 => Just(ShareOp::Protect),
        2 => (1..4usize, any::<bool>()).prop_map(|(max, keep)| ShareOp::Drain { max, keep }),
        1 => (page.clone(), any::<usize>()).prop_map(|(page, from)| ShareOp::Install { page, from }),
        1 => page.prop_map(|page| ShareOp::Adopt { page }),
        1 => any::<usize>().prop_map(|i| ShareOp::CloneFrame { i }),
        2 => (any::<usize>(), 0..PAGE_SIZE, any::<u8>())
            .prop_map(|(i, off, byte)| ShareOp::FrameWrite { i, off, byte }),
    ]
}

fn space() -> AddressSpace {
    let mut a = AddressSpace::new();
    a.mmap(Vma {
        start: BASE,
        len: PAGES * PAGE_SIZE as u64,
        perms: Perms::RW,
        kind: VmaKind::Anon,
        is_heap: true,
        is_stack: false,
    })
    .unwrap();
    a.set_tracking(TrackingMode::SoftDirty);
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pagemap_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut a = space();
        let mut model: BTreeSet<u64> = BTreeSet::new();

        for op in ops {
            match op {
                Op::Write { page, off, len } => {
                    let addr = BASE + page * PAGE_SIZE as u64 + off.min(PAGE_SIZE as u64 - len as u64);
                    let data = vec![0xAB; len];
                    a.write(addr, &data).unwrap();
                    // The write may straddle into the next page.
                    let first = addr / PAGE_SIZE as u64;
                    let last = (addr + len as u64 - 1) / PAGE_SIZE as u64;
                    for vpn in first..=last {
                        model.insert(vpn);
                    }
                }
                Op::Read { page } => {
                    let mut buf = [0u8; 32];
                    a.read(BASE + page * PAGE_SIZE as u64, &mut buf).unwrap();
                    // Reads never dirty.
                }
                Op::ClearRefs => {
                    a.clear_refs();
                    model.clear();
                }
                Op::Scan => {
                    let dirty: BTreeSet<u64> = a.soft_dirty_vpns().into_iter().collect();
                    prop_assert_eq!(&dirty, &model, "scan must match the model exactly");
                }
            }
        }
        let dirty: BTreeSet<u64> = a.soft_dirty_vpns().into_iter().collect();
        prop_assert_eq!(dirty, model);
    }

    /// Invariant 7 under COW checkpointing: write-protecting the dirty set
    /// and draining it in the background must not perturb soft-dirty
    /// tracking — after `clear_refs`, the pagemap returns *exactly* the
    /// pages written since, even when those writes race the copier. And
    /// every protected page is copied out exactly once, with its
    /// checkpoint-time contents (copy-before-write), no matter how the race
    /// interleaves.
    #[test]
    fn cow_copier_race_preserves_tracking_model_and_checkpoint_contents(
        pre in proptest::collection::vec((0..PAGES, any::<u8>()), 1..40),
        race in proptest::collection::vec(race_strategy(), 1..100),
    ) {
        use std::collections::BTreeMap;
        let mut a = space();

        // Epoch body: dirty some pages, remembering each page's
        // checkpoint-time tag (offset 500 stays zero until the race).
        let mut checkpoint_tag: BTreeMap<u64, u8> = BTreeMap::new();
        for &(page, tag) in &pre {
            a.write(BASE + page * PAGE_SIZE as u64 + 11, &[tag]).unwrap();
            checkpoint_tag.insert(BASE / PAGE_SIZE as u64 + page, tag);
        }

        // Pause: collect the dirty set, start a new tracking generation,
        // and write-protect instead of copying.
        let dirty: Vec<u64> = a.soft_dirty_vpns();
        prop_assert_eq!(dirty.len(), checkpoint_tag.len());
        a.clear_refs();
        a.cow_protect(&dirty);

        // Resume: container writes race the background copier.
        let mut still_protected: BTreeSet<u64> = dirty.iter().copied().collect();
        let mut raced: BTreeSet<u64> = BTreeSet::new();
        let mut model_dirty: BTreeSet<u64> = BTreeSet::new();
        let mut faults = 0u64;
        let mut collected: BTreeMap<u64, PageBuf> = BTreeMap::new();
        let collect = |got: Vec<(u64, PageBuf)>,
                           collected: &mut BTreeMap<u64, PageBuf>| {
            for (vpn, snap) in got {
                prop_assert!(collected.insert(vpn, snap).is_none(),
                    "page {vpn} copied out twice");
            }
            Ok(())
        };
        for op in race {
            match op {
                RaceOp::Write { page } => {
                    let vpn = BASE / PAGE_SIZE as u64 + page;
                    let out = a.write(BASE + page * PAGE_SIZE as u64 + 500, &[0x5A]).unwrap();
                    faults += u64::from(out.cow_faults);
                    model_dirty.insert(vpn);
                    if still_protected.remove(&vpn) {
                        raced.insert(vpn);
                    }
                }
                RaceOp::Drain { max } => {
                    collect(a.take_cow_staged(), &mut collected)?;
                    let got = a.cow_drain(max);
                    for (vpn, _) in &got {
                        prop_assert!(still_protected.remove(vpn),
                            "drained a page that was not protected");
                    }
                    collect(got, &mut collected)?;
                }
            }
        }
        // Final drain: the copier always finishes before the next epoch.
        collect(a.take_cow_staged(), &mut collected)?;
        collect(a.cow_drain(usize::MAX), &mut collected)?;
        prop_assert_eq!(a.cow_protected_count(), 0);

        // Tracking model holds: exactly the racing writes are dirty.
        let scanned: BTreeSet<u64> = a.soft_dirty_vpns().into_iter().collect();
        prop_assert_eq!(&scanned, &model_dirty, "COW race perturbed soft-dirty tracking");

        // Every protected page was copied out exactly once, and each copy
        // holds checkpoint-time contents: the pre-race tag at offset 11 and
        // a zero at offset 500 (racing writes never leak into the image).
        prop_assert_eq!(faults as usize, raced.len(), "one fault per first racing write");
        let copied: BTreeSet<u64> = collected.keys().copied().collect();
        let expected: BTreeSet<u64> = checkpoint_tag.keys().copied().collect();
        prop_assert_eq!(&copied, &expected);
        for (vpn, snap) in &collected {
            prop_assert_eq!(snap[11], checkpoint_tag[vpn], "stale tag in copied page");
            prop_assert_eq!(snap[500], 0, "racing write leaked into the checkpoint copy");
        }
    }

    #[test]
    fn tracking_faults_fire_once_per_page_per_generation(
        pages in proptest::collection::vec(0..PAGES, 1..80)
    ) {
        let mut a = space();
        a.clear_refs();
        let mut seen = BTreeSet::new();
        let mut faults = 0u32;
        for page in pages {
            let out = a.write(BASE + page * PAGE_SIZE as u64, b"x").unwrap();
            faults += out.tracking_faults;
            seen.insert(page);
        }
        prop_assert_eq!(faults as usize, seen.len(), "exactly one fault per distinct page");
    }

    #[test]
    fn read_write_roundtrip_any_alignment(
        off in 0..(PAGES - 2) * PAGE_SIZE as u64,
        data in proptest::collection::vec(any::<u8>(), 1..5000)
    ) {
        let mut a = space();
        a.write(BASE + off, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        a.read(BASE + off, &mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn snapshot_install_preserves_contents(
        writes in proptest::collection::vec((0..PAGES, any::<u8>()), 1..40)
    ) {
        let mut a = space();
        for &(page, tag) in &writes {
            a.write(BASE + page * PAGE_SIZE as u64 + 7, &[tag]).unwrap();
        }
        let mut b = space();
        for vpn in a.resident_vpns() {
            let snap = a.snapshot_page(vpn).unwrap();
            b.install_page(vpn, &snap).unwrap();
        }
        for &(page, _) in &writes {
            let vpn = BASE / PAGE_SIZE as u64 + page;
            prop_assert_eq!(a.snapshot_page(vpn).unwrap(), b.snapshot_page(vpn).unwrap());
        }
        prop_assert_eq!(b.soft_dirty_count(), 0, "restored pages start clean");
    }

    /// Every buffer a frame shared keeps the bytes it had when it was
    /// taken — a snapshot, a COW fault's staged copy, a lend the borrower
    /// kept, the image a page was installed from, a frame beside the
    /// address space and its clones — through partial and whole-page
    /// writes into the frames that still hold it; and every frame reads as
    /// the model says. Checked after every step.
    #[test]
    fn a_shared_page_buffer_keeps_its_bytes_through_later_writes(
        ops in proptest::collection::vec(share_strategy(), 1..150)
    ) {
        use std::collections::BTreeMap;
        let mut a = space();
        let vpn_of = |page: u64| BASE / PAGE_SIZE as u64 + page;
        let mut model: BTreeMap<u64, Vec<u8>> =
            (0..SHARE_PAGES).map(|p| (vpn_of(p), vec![0; PAGE_SIZE])).collect();
        // Protected pages' checkpoint-time contents.
        let mut at_protect: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut kept: Vec<(PageBuf, Vec<u8>)> = Vec::new();
        let mut frames: Vec<(PageFrame, Vec<u8>)> = Vec::new();

        for op in ops {
            match op {
                ShareOp::Write { page, off, len, byte } => {
                    let len = len.min(PAGE_SIZE - off);
                    a.write(BASE + page * PAGE_SIZE as u64 + off as u64, &vec![byte; len]).unwrap();
                    model.get_mut(&vpn_of(page)).unwrap()[off..off + len].fill(byte);
                }
                ShareOp::WholeWrite { page, byte } => {
                    a.write(BASE + page * PAGE_SIZE as u64, &[byte; PAGE_SIZE]).unwrap();
                    model.insert(vpn_of(page), vec![byte; PAGE_SIZE]);
                }
                ShareOp::Snapshot { page } => {
                    let vpn = vpn_of(page);
                    kept.push((a.snapshot_page(vpn).unwrap(), model[&vpn].clone()));
                }
                ShareOp::Protect => {
                    // The last epoch's copier finishes before this stop phase.
                    lent_contents_are_checkpoint_time(&mut a, usize::MAX, false, &at_protect, &mut kept)?;
                    let dirty = a.soft_dirty_vpns();
                    a.clear_refs();
                    a.cow_protect(&dirty);
                    for vpn in dirty {
                        at_protect.insert(vpn, model[&vpn].clone());
                    }
                }
                ShareOp::Drain { max, keep } => {
                    lent_contents_are_checkpoint_time(&mut a, max, keep, &at_protect, &mut kept)?;
                }
                ShareOp::Install { page, from } => {
                    // Restore happens with no deferred copy outstanding.
                    if kept.is_empty() || a.cow_protected_count() > 0 {
                        continue;
                    }
                    let (buf, bytes) = kept[from % kept.len()].clone();
                    a.install_page(vpn_of(page), &buf).unwrap();
                    model.insert(vpn_of(page), bytes);
                }
                ShareOp::Adopt { page } => {
                    let vpn = vpn_of(page);
                    frames.push((PageFrame::sharing(a.snapshot_page(vpn).unwrap()), model[&vpn].clone()));
                }
                ShareOp::CloneFrame { i } => {
                    if !frames.is_empty() {
                        let (f, bytes) = &frames[i % frames.len()];
                        frames.push((f.clone(), bytes.clone()));
                    }
                }
                ShareOp::FrameWrite { i, off, byte } => {
                    if !frames.is_empty() {
                        let n = frames.len();
                        let (f, bytes) = &mut frames[i % n];
                        f.bytes_mut()[off] = byte;
                        bytes[off] = byte;
                    }
                }
            }
            for (buf, bytes) in &kept {
                prop_assert!(buf[..] == bytes[..], "a later write reached a taken buffer");
            }
            for (f, bytes) in &frames {
                prop_assert!(f.bytes()[..] == bytes[..], "a frame beside the space diverged");
            }
            let mut page = vec![0u8; PAGE_SIZE];
            for (vpn, bytes) in &model {
                a.read(vpn * PAGE_SIZE as u64, &mut page).unwrap();
                prop_assert!(page == *bytes, "page {vpn:#x} diverged from the model");
            }
        }
    }
}
