//! Wall-clock benchmarks of the `(k, n)` placement data path: the
//! Reed–Solomon page codec on its own (systematic and parity encode, decode
//! from data fragments and through parity), one whole `PlacementEngine`
//! epoch at the dirty-page count the system benchmark's `kn_repair` workload
//! averages, and that epoch's fan-out → commit cycle on its own.

use criterion::{criterion_group, criterion_main, Criterion};
use nilicon::backup::BackupAgent;
use nilicon::{Checkpointer, OptimizationConfig, PlacementEngine};
use nilicon_container::{ContainerRuntime, ContainerSpec, MemLayout};
use nilicon_criu::{end_fragment_round, CheckpointImage, ShardCodec};
use nilicon_drbd::DrbdMsg;
use nilicon_sim::block::BlockDevice;
use nilicon_sim::ids::Pid;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::{CostModel, PAGE_SIZE};
use std::hint::black_box;
use std::rc::Rc;

fn noise_page(seed: u32) -> Box<[u8; PAGE_SIZE]> {
    let mut page = Box::new([0u8; PAGE_SIZE]);
    let mut x = seed | 1;
    for b in page.iter_mut() {
        x = x.wrapping_mul(1664525).wrapping_add(1013904223);
        *b = (x >> 16) as u8;
    }
    page
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard");
    let page = noise_page(7);
    for (name, k, n) in [("encode_2of3", 2, 3), ("encode_3of5", 3, 5)] {
        let mut codec = ShardCodec::new(k, n).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| black_box(codec.encode(black_box(&page)).len()));
        });
    }
    let mut codec = ShardCodec::new(2, 3).unwrap();
    let frags: Vec<Vec<u8>> = codec.encode(&page).to_vec();
    for (name, picks) in [
        ("decode_systematic_2of3", [0usize, 1]),
        ("decode_parity_2of3", [1, 2]),
    ] {
        let picks: Vec<(usize, &[u8])> = picks.iter().map(|&i| (i, &frags[i][..])).collect();
        let mut out = Box::new([0u8; PAGE_SIZE]);
        group.bench_function(name, |b| {
            b.iter(|| codec.decode(black_box(&picks), &mut out).unwrap());
        });
        assert_eq!(*out, *page);
    }
    group.finish();
}

fn bench_placement_epoch(c: &mut Criterion) {
    const DIRTY_PAGES: u64 = 742;
    let mut group = c.benchmark_group("shard");
    let mut opts = OptimizationConfig::nilicon();
    opts.backups = 3;
    opts.quorum = 2;
    let mut primary = Kernel::default();
    let mut backup = Kernel::default();
    let mut spec = ContainerSpec::server("bench", 10, 80);
    spec.heap_pages = 2 * DIRTY_PAGES;
    let cont = ContainerRuntime::create(&mut primary, &spec).unwrap();
    let mut engine = PlacementEngine::new(opts, primary.costs.clone()).unwrap();
    engine.prepare(&mut primary, &cont).unwrap();
    let pid = cont.init_pid();
    let mut epoch = 0u64;
    group.bench_function("placement_checkpoint_742_pages", |b| {
        b.iter(|| {
            epoch += 1;
            for page in 0..DIRTY_PAGES {
                let word = (epoch * DIRTY_PAGES + page).to_le_bytes();
                primary
                    .mem_write(pid, MemLayout::heap_page(page), &word)
                    .unwrap();
            }
            let out = engine
                .checkpoint(&mut primary, &mut backup, &cont, epoch)
                .unwrap();
            engine.commit(&mut backup, epoch).unwrap();
            black_box(out.state_bytes)
        });
    });
    group.finish();
}

/// The fragment round trip on its own, no dump and no engine: 742 pages
/// striped `(2,3)` into the buffers each replica's store keeps, received,
/// committed — and the fragments that commit displaces written again by the
/// next iteration's fan-out.
fn bench_fan_out_commit(c: &mut Criterion) {
    const PAGES: u64 = 742;
    let mut group = c.benchmark_group("shard");
    let codec = ShardCodec::new(2, 3).unwrap();
    let costs = CostModel::default();
    let mut replicas: Vec<(BackupAgent, BlockDevice)> = (0..3)
        .map(|_| {
            (
                BackupAgent::new(costs.clone(), true),
                BlockDevice::default(),
            )
        })
        .collect();
    let pages: Vec<Box<[u8; PAGE_SIZE]>> = (0..PAGES as u32).map(noise_page).collect();
    let mut epoch = 0u64;
    group.bench_function("fan_out_commit_cycle_742_pages", |b| {
        b.iter(|| {
            epoch += 1;
            let meta = Rc::new(CheckpointImage {
                epoch,
                ..Default::default()
            });
            for (i, (agent, _)) in replicas.iter_mut().enumerate() {
                agent.begin_assembly(meta.clone(), PAGES);
                let batch = pages
                    .iter()
                    .enumerate()
                    .map(|(vpn, page)| (Pid(1), vpn as u64, codec.encode_fragment(page, i)))
                    .collect();
                agent.ingest_fragments(epoch, batch).unwrap();
                agent.ingest_drbd(vec![DrbdMsg::Barrier(epoch)]);
                agent.finish_assembly(epoch).unwrap();
            }
            end_fragment_round();
            for (agent, disk) in &mut replicas {
                black_box(agent.commit(epoch, disk).unwrap());
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_placement_epoch,
    bench_fan_out_commit
);
criterion_main!(benches);
