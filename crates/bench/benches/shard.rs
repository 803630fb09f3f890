//! Wall-clock benchmark of the `(k, n)` placement data path: the fragment
//! recycler's fan-out → commit cycle at the dirty-page count the system
//! benchmark's `kn_repair` workload averages, and one coded-repair chunk's
//! regeneration. The codec itself is the frozen benchmark's
//! `criu_shard.{encode,decode}_host_ns_per_page` probes; the whole placement
//! epoch is `kn_repair`'s host time.

use criterion::{criterion_group, criterion_main, Criterion};
use nilicon::backup::BackupAgent;
use nilicon_criu::{end_fragment_round, CheckpointImage, FragBuf, ShardCodec};
use nilicon_drbd::DrbdMsg;
use nilicon_sim::block::BlockDevice;
use nilicon_sim::ids::Pid;
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
                agent.ingest_fragments(epoch, batch, 0).unwrap();
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

/// One repair chunk as `kn_repair` streams it (~220 pages a step): the lost
/// replica 0's fragment of each page regenerated from survivors 1 and 2,
/// into buffers the chunk then hands on.
fn bench_regenerate(c: &mut Criterion) {
    const PAGES: u32 = 220;
    let mut group = c.benchmark_group("shard");
    let mut codec = ShardCodec::new(2, 3).unwrap();
    let survivors: Vec<[(usize, FragBuf); 2]> = (0..PAGES)
        .map(noise_page)
        .map(|p| [1, 2].map(|i| (i, codec.encode_fragment(&p, i))))
        .collect();
    group.bench_function("regenerate_220_pages_from_1_2", |b| {
        b.iter(|| {
            let chunk: Vec<FragBuf> = survivors
                .iter()
                .map(|frags| codec.regenerate_fragment(frags, 0).unwrap())
                .collect();
            black_box(chunk);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fan_out_commit, bench_regenerate);
criterion_main!(benches);
