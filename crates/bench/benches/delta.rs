//! Wall-clock Criterion benchmarks of the delta-encoding pipeline.
//!
//! Measures the *actual* encode and apply routines in `nilicon_criu::delta`
//! over the page classes (zero, sparse diff, dense churn, dense rewrite), plus
//! a full epoch-shaped batch: the CPU the primary pays per page to shrink the
//! wire, and the CPU the backup pays to reconstruct. Results land in
//! `BENCH_delta.json` via the offline criterion shim.

use criterion::{criterion_group, criterion_main, Criterion};
use nilicon_criu::delta::{DeltaStats, ShadowStore};
use nilicon_criu::{PageKey, PageStore, RadixTreeStore};
use nilicon_sim::ids::Pid;
use nilicon_sim::{PageBuf, PAGE_SIZE};
use std::hint::black_box;
use std::rc::Rc;

fn key(vpn: u64) -> PageKey {
    PageKey { pid: Pid(1), vpn }
}

/// A page with `edits` scattered single-byte writes.
fn page_edits(n: usize, seed: u8) -> PageBuf {
    let mut p = [0u8; PAGE_SIZE];
    for i in 0..n {
        p[(i * 97 + 13) % PAGE_SIZE] = seed.wrapping_add(i as u8) | 1;
    }
    Rc::new(p)
}

fn bench_encode_classes(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_encode");
    let zero: PageBuf = Rc::new([0u8; PAGE_SIZE]);
    let sparse = page_edits(4, 3);
    let dense = page_edits(PAGE_SIZE, 7);

    group.bench_function("zero_page", |b| {
        let mut shadow = ShadowStore::new();
        let mut stats = DeltaStats::default();
        b.iter(|| black_box(shadow.encode(key(1), &zero, &mut stats)));
    });
    group.bench_function("sparse_diff", |b| {
        let mut shadow = ShadowStore::new();
        let mut stats = DeltaStats::default();
        shadow.encode(key(1), &page_edits(4, 1), &mut stats);
        b.iter(|| black_box(shadow.encode(key(1), &sparse, &mut stats)));
    });
    group.bench_function("dense_churn", |b| {
        let mut shadow = ShadowStore::new();
        let mut stats = DeltaStats::default();
        shadow.encode(key(1), &page_edits(PAGE_SIZE, 1), &mut stats);
        b.iter(|| black_box(shadow.encode(key(1), &dense, &mut stats)));
    });
    // A full-page rewrite against a populated shadow: the two pages differ
    // in every byte, so every iteration is a real all-words-changed diff
    // that classifies as Full (`dense_churn` re-encodes an unchanged page
    // after its first iteration).
    group.bench_function("dense_rewrite", |b| {
        let mut shadow = ShadowStore::new();
        let mut stats = DeltaStats::default();
        let pages = [page_edits(PAGE_SIZE, 1), page_edits(PAGE_SIZE, 7)];
        shadow.encode(key(1), &pages[1], &mut stats);
        let mut round = 0usize;
        b.iter(|| {
            round += 1;
            black_box(shadow.encode(key(1), &pages[round % 2], &mut stats))
        });
    });
    group.finish();
}

fn bench_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_apply");
    // Pre-encode one page of each class against a known base.
    let base = page_edits(4, 1);
    let mut shadow = ShadowStore::new();
    let mut stats = DeltaStats::default();
    shadow.encode(key(1), &base, &mut stats);
    let sparse_enc = shadow.encode(key(1), &page_edits(4, 9), &mut stats);

    group.bench_function("sparse_delta_to_page", |b| {
        b.iter(|| black_box(sparse_enc.apply(Some(base.as_ref()))));
    });
    group.bench_function("store_apply_delta", |b| {
        // The store is the page's only holder, as in steady state (applying
        // the XOR delta repeatedly flips the page between two contents).
        let mut store = RadixTreeStore::new();
        store.insert(key(1), Rc::new(*base));
        b.iter(|| black_box(store.apply_delta(key(1), &sparse_enc)));
    });
    group.finish();
}

fn bench_epoch_batch(c: &mut Criterion) {
    // An epoch-shaped batch: 300 dirty pages (the streamcluster profile),
    // mostly sparse rewrites — encode on the primary, apply on the backup.
    let mut group = c.benchmark_group("delta_epoch_300_pages");
    group.sample_size(20);
    group.bench_function("encode", |b| {
        let mut shadow = ShadowStore::new();
        let mut stats = DeltaStats::default();
        for vpn in 0..300u64 {
            shadow.encode(key(0x1000 + vpn), &page_edits(8, 1), &mut stats);
        }
        let mut round = 0u8;
        b.iter(|| {
            round = round.wrapping_add(1);
            let mut st = DeltaStats::default();
            for vpn in 0..300u64 {
                black_box(shadow.encode(key(0x1000 + vpn), &page_edits(8, round), &mut st));
            }
            st.encoded_bytes
        });
    });
    group.bench_function("apply", |b| {
        let mut shadow = ShadowStore::new();
        let mut stats = DeltaStats::default();
        let mut store = RadixTreeStore::new();
        let mut encs = Vec::new();
        for vpn in 0..300u64 {
            shadow.encode(key(0x1000 + vpn), &page_edits(8, 1), &mut stats);
            store.insert(key(0x1000 + vpn), page_edits(8, 1));
        }
        for vpn in 0..300u64 {
            encs.push((
                key(0x1000 + vpn),
                shadow.encode(key(0x1000 + vpn), &page_edits(8, 2), &mut stats),
            ));
        }
        b.iter(|| {
            let mut probes = 0u64;
            for (k, e) in &encs {
                probes += store.apply_delta(*k, e);
            }
            black_box(probes)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_encode_classes, bench_apply, bench_epoch_batch);
criterion_main!(benches);
