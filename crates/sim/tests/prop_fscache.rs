//! Property tests: DNC ("Dirty but Not Checkpointed") tracking against a
//! reference model (DESIGN.md invariant 6) — `fgetfc` returns exactly the
//! cache entries modified since the previous `fgetfc`, with correct contents
//! — and keeps them: a page a checkpoint or the write log holds shares its
//! buffer with the cache, and no later write may reach it.

use nilicon_sim::block::BlockDevice;
use nilicon_sim::fs::PageCache;
use nilicon_sim::ids::{DevId, Ino};
use nilicon_sim::{PageBuf, PAGE_SIZE};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
enum Op {
    Write {
        ino: u64,
        page: u64,
        off: usize,
        byte: u8,
    },
    Read {
        ino: u64,
        page: u64,
    },
    Flush,
    Fgetfc,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1..4u64, 0..8u64, 0..4000usize, any::<u8>())
            .prop_map(|(ino, page, off, byte)| Op::Write { ino, page, off, byte }),
        2 => (1..4u64, 0..8u64).prop_map(|(ino, page)| Op::Read { ino, page }),
        1 => Just(Op::Flush),
        2 => Just(Op::Fgetfc),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fgetfc_matches_model(ops in proptest::collection::vec(op_strategy(), 1..100)) {
        let mut pc = PageCache::new();
        let mut disk = BlockDevice::new(DevId(1));
        // Model: set of (ino,page) modified since last fgetfc, plus full
        // expected contents.
        let mut dnc: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut contents: BTreeMap<(u64, u64), Vec<u8>> = BTreeMap::new();
        // Every page a checkpoint or a drained write carried, with the
        // model's contents when it was taken.
        let mut kept: Vec<(PageBuf, Vec<u8>)> = Vec::new();

        for op in ops {
            match op {
                Op::Write { ino, page, off, byte } => {
                    pc.write(&disk, Ino(ino), page, off, &[byte]);
                    dnc.insert((ino, page));
                    contents
                        .entry((ino, page))
                        .or_insert_with(|| vec![0; PAGE_SIZE])[off] = byte;
                    for (data, want) in &kept {
                        prop_assert_eq!(&data[..], &want[..], "a later write reached a taken page");
                    }
                }
                Op::Read { ino, page } => {
                    let mut buf = [0u8; 8];
                    pc.read(&disk, Ino(ino), page, 0, &mut buf);
                    // Reads never create DNC obligations.
                }
                Op::Flush => {
                    pc.flush(&mut disk, None);
                    // Flush clears writeback-dirty but NOT the DNC set.
                    for w in disk.take_writes() {
                        let want = contents[&(w.ino.0, w.page_idx)].clone();
                        kept.push((w.data, want));
                    }
                }
                Op::Fgetfc => {
                    let got = pc.fgetfc();
                    let got_keys: BTreeSet<(u64, u64)> =
                        got.pages.iter().map(|(i, p, _, _)| (i.0, *p)).collect();
                    prop_assert_eq!(&got_keys, &dnc, "fgetfc = exactly the modified set");
                    for (ino, page, data, _) in got.pages {
                        let want = &contents[&(ino.0, page)];
                        prop_assert_eq!(&data[..], &want[..], "checkpointed contents correct");
                        kept.push((data, want.clone()));
                    }
                    dnc.clear();
                }
            }
        }
        // Final collection must also match.
        let got = pc.fgetfc();
        let got_keys: BTreeSet<(u64, u64)> =
            got.pages.iter().map(|(i, p, _, _)| (i.0, *p)).collect();
        prop_assert_eq!(got_keys, dnc);
    }

    #[test]
    fn flush_then_reread_is_durable(
        writes in proptest::collection::vec((0..8u64, 0..4000usize, any::<u8>()), 1..30)
    ) {
        let mut pc = PageCache::new();
        let mut disk = BlockDevice::new(DevId(1));
        let mut model: BTreeMap<(u64, usize), u8> = BTreeMap::new();
        for &(page, off, byte) in &writes {
            pc.write(&disk, Ino(1), page, off, &[byte]);
            model.insert((page, off), byte);
        }
        pc.flush(&mut disk, None);
        // Fresh cache (eviction): reads must come back from the device.
        let mut fresh = PageCache::new();
        for (&(page, off), &byte) in &model {
            let mut buf = [0u8; 1];
            prop_assert!(fresh.read(&disk, Ino(1), page, off, &mut buf));
            prop_assert_eq!(buf[0], byte);
        }
    }
}
