//! Wall-clock microbenchmarks of the substrate hot paths: dirty tracking,
//! guest memory writes, the plug qdisc, socket checkpointing, the message
//! path (one KV batch served, one value generated, one response digested), the
//! request path around the application (one frame client to server and a
//! socket checkpoint, each against the bytes carried; the echo round trip;
//! guest-access table lookups), dump/restore of a realistic
//! container, the dump → ingest → commit round trip
//! a page buffer makes every epoch, and the staged path's drain: the protect
//! queue's cycle and the delta encode of a lent page against the number of
//! lines the guest wrote in it.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use nilicon::backup::BackupAgent;
use nilicon::traffic::ClientBehavior;
use nilicon_container::{
    send_frame, take_frame, Application, ContainerRuntime, ContainerSpec, GuestCtx, MemLayout,
};
use nilicon_criu::{dump_container, full_dump, DeltaStats, DumpConfig, PageKey, ShadowStore};
use nilicon_drbd::DrbdMsg;
use nilicon_sim::block::BlockDevice;
use nilicon_sim::cluster::Cluster;
use nilicon_sim::ids::Endpoint;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::mem::{end_page_round, recycle_page, AddressSpace, TrackingMode, LINE_BYTES};
use nilicon_sim::net::{InputMode, NetStack, TcpState};
use nilicon_sim::proc::FreezeStrategy;
use nilicon_sim::PAGE_SIZE;
use nilicon_sim::replay::response_digest;
use nilicon_workloads::{value_pattern, RedisApp, Scale, YcsbBehavior};
use std::cell::RefCell;
use std::hint::black_box;

fn container_kernel(heap_pages: u64) -> (Kernel, nilicon_container::Container) {
    let mut k = Kernel::default();
    let mut spec = ContainerSpec::server("bench", 10, 80);
    spec.heap_pages = heap_pages;
    let c = ContainerRuntime::create(&mut k, &spec).unwrap();
    (k, c)
}

fn bench_mem_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("guest_memory");
    let (mut k, cont) = container_kernel(8192);
    let pid = cont.init_pid();
    k.mm_mut(pid).unwrap().set_tracking(TrackingMode::SoftDirty);
    let data = vec![0xABu8; 4096];
    let mut off = 0u64;
    group.bench_function("write_4k_tracked", |b| {
        b.iter(|| {
            off = (off + 4096) % (8192 * 4096 - 4096);
            black_box(k.mem_write(pid, MemLayout::heap(off), &data).unwrap());
        });
    });
    group.bench_function("pagemap_scan_8k_pages", |b| {
        b.iter(|| black_box(k.pagemap_dirty(pid).unwrap().len()));
    });
    group.bench_function("clear_refs_8k_pages", |b| {
        b.iter(|| black_box(k.clear_refs(pid).unwrap()));
    });
    // The copy a share defers: a snapshot shares the page, and the next
    // 64-byte write into it copies the page into the spare the last commit
    // handed back (recycled here, as a commit would).
    group.bench_function("write_64B_into_shared_page", |b| {
        let line = [0xCDu8; 64];
        b.iter(|| {
            off = (off + 4096) % (8192 * 4096 - 4096);
            let addr = MemLayout::heap(off);
            let shared = k.mm(pid).unwrap().snapshot_page(addr / 4096).unwrap();
            black_box(k.mem_write(pid, addr, &line).unwrap());
            end_page_round();
            recycle_page(shared);
        });
    });
    end_page_round();
    group.finish();
}

fn bench_qdisc_and_sockets(c: &mut Criterion) {
    let mut group = c.benchmark_group("network");
    // Established socket pair with queued state.
    let mut server = NetStack::new(1, 1_000_000_000, InputMode::Buffer);
    let sid = server.socket();
    {
        let s = server.sock_mut(sid).unwrap();
        s.state = TcpState::Established;
        s.local = Endpoint::new(1, 80);
        s.remote = Some(Endpoint::new(2, 4000));
    }
    group.bench_function("send_recv_1k", |b| {
        let payload = vec![7u8; 1024];
        b.iter(|| {
            server.send(sid, &payload).unwrap();
            server.take_ready();
            // Self-deliver for the recv path.
            let s = server.sock_mut(sid).unwrap();
            s.read_queue.extend(payload.iter().copied());
            black_box(server.recv(sid, 1024).unwrap().len());
        });
    });
    group.bench_function("checkpoint_128_sockets", |b| {
        let mut stack = NetStack::new(1, 1_000_000_000, InputMode::Buffer);
        for i in 0..128u16 {
            let id = stack.socket();
            let s = stack.sock_mut(id).unwrap();
            s.state = TcpState::Established;
            s.local = Endpoint::new(1, 3000);
            s.remote = Some(Endpoint::new(2, 40_000 + i));
            s.read_queue.extend(std::iter::repeat_n(1u8, 256));
        }
        b.iter(|| black_box(stack.checkpoint_sockets().1.len()));
    });
    group.finish();
}

/// The request path around the application: what a socket checkpoint costs
/// against the bytes queued (the benchmark's probe queues 256 B per socket
/// and cannot see a per-byte cost), the issue → route → serve → release →
/// collect loop of one small echo (the `fleet_8` inner loop), and the
/// per-access table lookups under guest reads and writes.
fn bench_request_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("net");
    for (label, bytes) in [("256B", 256), ("64KiB", 64 << 10), ("512KiB", 512 << 10)] {
        // One frame from a client stack to the server's harvest: send it,
        // route it (and the ACK back), take it off the server socket. The
        // body is the caller's buffer throughout, so the row is flat in it.
        group.bench_function(format!("frame_roundtrip_{label}"), |b| {
            let mut server = NetStack::new(1, 1_000_000_000, InputMode::Buffer);
            let mut client = NetStack::new(2, 1_000_000_000, InputMode::Buffer);
            let l = server.socket();
            server.bind(l, 80).unwrap();
            server.listen(l).unwrap();
            let c = client.socket();
            client.connect(c, Endpoint::new(1, 80)).unwrap();
            let pump = |client: &mut NetStack, server: &mut NetStack| loop {
                let (up, down) = (client.take_ready(), server.take_ready());
                if up.is_empty() && down.is_empty() {
                    break;
                }
                up.into_iter().for_each(|p| server.ingress(p));
                down.into_iter().for_each(|p| client.ingress(p));
            };
            pump(&mut client, &mut server);
            let child = server.accept(l).unwrap().expect("handshake done");
            let body = Bytes::from(vec![7u8; bytes]);
            b.iter(|| {
                send_frame(&mut client, c, body.clone()).unwrap();
                pump(&mut client, &mut server);
                black_box(take_frame(&mut server, child, false).unwrap().unwrap().len());
            });
        });
        group.bench_function(format!("checkpoint_sockets_8_socks_{label}_queues"), |b| {
            let mut stack = NetStack::new(1, 1_000_000_000, InputMode::Buffer);
            for i in 0..8u16 {
                let id = stack.socket();
                let s = stack.sock_mut(id).unwrap();
                s.state = TcpState::Established;
                s.local = Endpoint::new(1, 3000);
                s.remote = Some(Endpoint::new(2, 40_000 + i));
                // An unread request and an unacknowledged response, each the
                // one buffer it arrived in / was sent from.
                s.read_queue.extend_from_slice(&vec![1u8; bytes]);
                s.write_queue.extend_from_slice(&vec![2u8; bytes]);
            }
            b.iter(|| black_box(stack.checkpoint_sockets()).1.len());
        });
    }
    group.bench_function("pump_512_echo_roundtrips", |b| {
        let mut cl = Cluster::new();
        let (hs, hc) = (cl.add_host(Kernel::default()), cl.add_host(Kernel::default()));
        let ns_s = cl.host_mut(hs).namespaces.create_set("server").net;
        let ns_c = cl.host_mut(hc).namespaces.create_set("clients").net;
        cl.host_mut(hs).create_stack(ns_s, 10, InputMode::Buffer);
        cl.host_mut(hc).create_stack(ns_c, 20, InputMode::Buffer);
        cl.bind_addr(10, hs, ns_s);
        cl.bind_addr(20, hc, ns_c);
        let server = cl.host_mut(hs).stack_mut(ns_s).unwrap();
        let l = server.socket();
        server.bind(l, 80).unwrap();
        server.listen(l).unwrap();
        let clients: Vec<_> = (0..8)
            .map(|_| {
                let stack = cl.host_mut(hc).stack_mut(ns_c).unwrap();
                let c = stack.socket();
                stack.connect(c, Endpoint::new(10, 80)).unwrap();
                c
            })
            .collect();
        cl.pump();
        cl.host_mut(hs).stack_mut(ns_s).unwrap().plugged = true;
        let request = [7u8; 64];
        b.iter(|| {
            for _ in 0..64 {
                let stack = cl.host_mut(hc).stack_mut(ns_c).unwrap();
                for &c in &clients {
                    send_frame(stack, c, Bytes::copy_from_slice(&request)).unwrap();
                }
                cl.pump();
                let server = cl.host_mut(hs).stack_mut(ns_s).unwrap();
                for (sid, _) in server.established_ids() {
                    while let Some(req) = take_frame(server, sid, false).unwrap() {
                        send_frame(server, sid, req).unwrap();
                    }
                }
                server.release_output();
                cl.pump();
                let stack = cl.host_mut(hc).stack_mut(ns_c).unwrap();
                for &c in &clients {
                    black_box(take_frame(stack, c, true).unwrap().expect("echoed").len());
                }
            }
        });
    });
    group.finish();

    let mut group = c.benchmark_group("kernel");
    group.bench_function("mem_read_write_1KiB_x1000", |b| {
        let (mut k, cont) = container_kernel(1024);
        let pid = cont.init_pid();
        let mut buf = vec![0x5Au8; 1024];
        b.iter(|| {
            for i in 0..1000u64 {
                let addr = MemLayout::heap((i * 1031 % 1000) * 1024);
                k.mem_write(pid, addr, &buf).unwrap();
                k.mem_read(pid, addr, &mut buf).unwrap();
            }
            black_box(buf[0])
        });
    });
    group.finish();
}

fn bench_kv_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("kv");
    // The paper's Redis request (§VI): 1000 ops, half sets, 1 KiB values,
    // against a preloaded store.
    group.bench_function("batch_1000x1k", |b| {
        let scale = Scale::bench();
        let mut app = RedisApp::new(scale, true);
        let (mut k, cont) = container_kernel(app.heap_pages());
        let pid = cont.init_pid();
        app.init(&mut GuestCtx::new(&mut k, pid, 0)).unwrap();
        let request = YcsbBehavior::new(1, scale)
            .next_request(0, 0)
            .expect("unbounded client");
        b.iter(|| {
            let out = app
                .handle_request(&mut GuestCtx::new(&mut k, pid, 0), &request)
                .unwrap();
            black_box(out.response.len())
        });
    });
    // One value of that request, as the generator builds it (twice an op:
    // once to send, once to check the reply).
    group.bench_function("value_pattern_1KiB", |b| {
        let mut version = 0u64;
        b.iter(|| {
            version += 1;
            black_box(value_pattern(black_box(17), version, 1024))
        });
    });
    group.finish();

    // The replay log's digest of one response of the paper's size.
    let mut group = c.benchmark_group("replay");
    group.bench_function("response_digest_512KiB", |b| {
        let response: Vec<u8> = (0..512 << 10).map(|i| ((i * 31) >> 3) as u8).collect();
        b.iter(|| black_box(response_digest(black_box(&response))));
    });
    group.finish();
}

fn bench_dump_restore(c: &mut Criterion) {
    let mut group = c.benchmark_group("criu");
    group.sample_size(20);
    group.bench_function("incremental_dump_300_dirty", |b| {
        let (mut k, cont) = container_kernel(4096);
        let pid = cont.init_pid();
        k.mm_mut(pid).unwrap().set_tracking(TrackingMode::SoftDirty);
        k.freeze_cgroup(cont.cgroup, FreezeStrategy::BusyPoll)
            .unwrap();
        b.iter(|| {
            // Dirty 300 pages, dump them.
            for p in 0..300u64 {
                k.mem_write(pid, MemLayout::heap_page(p), &[1]).unwrap();
            }
            let img = dump_container(&mut k, &cont, &DumpConfig::nilicon(), None, 1).unwrap();
            black_box(img.pages.len())
        });
    });
    // The round trip the row above never makes: dirty pages dumped, ingested
    // and committed each iteration, so the buffers one iteration's commit
    // displaces are there for the next dump. 3000 dirty of 16 K resident is
    // the reference point; the grid around it is the curve a regression in
    // the dump path lands on (cost against dirty pages × resident set).
    for (resident_k, dirty) in [
        (16u64, 3000u64),
        (4, 300),
        (4, 1000),
        (4, 3000),
        (16, 300),
        (16, 1000),
        (64, 300),
        (64, 1000),
        (64, 3000),
    ] {
        let name = if (resident_k, dirty) == (16, 3000) {
            "dump_commit_cycle_3000_dirty".to_string()
        } else {
            format!("dump_commit_cycle_{dirty}_dirty_{resident_k}k_resident")
        };
        group.bench_function(name, |b| {
            let resident = resident_k * 1024;
            let (mut k, cont) = container_kernel(resident);
            let pid = cont.init_pid();
            k.mm_mut(pid).unwrap().set_tracking(TrackingMode::SoftDirty);
            for p in 0..resident {
                k.mem_write(pid, MemLayout::heap_page(p), &[1]).unwrap();
            }
            k.freeze_cgroup(cont.cgroup, FreezeStrategy::BusyPoll)
                .unwrap();
            let mut agent = BackupAgent::new(k.costs.clone(), true);
            let mut disk = BlockDevice::default();
            let mut epoch = 0u64;
            b.iter(|| {
                epoch += 1;
                // A stride coprime to the footprint scatters the dirty set.
                for i in 0..dirty {
                    let page = (epoch * dirty + i) * 7 % resident;
                    k.mem_write(pid, MemLayout::heap_page(page), &epoch.to_le_bytes())
                        .unwrap();
                }
                let img =
                    dump_container(&mut k, &cont, &DumpConfig::nilicon(), None, epoch).unwrap();
                end_page_round();
                let pages = img.pages.len();
                agent.ingest(img);
                agent.ingest_drbd(vec![DrbdMsg::Barrier(epoch)]);
                agent.commit(epoch, &mut disk).unwrap();
                black_box(pages)
            });
        });
    }
    group.bench_function("full_dump_restore_16MB", |b| {
        b.iter_batched(
            || {
                let (mut k, cont) = container_kernel(8192);
                let pid = cont.init_pid();
                for p in 0..4096u64 {
                    k.mem_write(pid, MemLayout::heap_page(p), &[p as u8])
                        .unwrap();
                }
                (k, cont)
            },
            |(mut k, cont)| {
                let img = full_dump(&mut k, &cont, &DumpConfig::nilicon()).unwrap();
                let mut backup = Kernel::default();
                let r = nilicon_criu::restore_container(
                    &mut backup,
                    &img,
                    &nilicon_criu::RestoreConfig::default(),
                )
                .unwrap();
                black_box(r.restore_time)
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

/// The heap the staged-path rows run on — `storm_staged`'s shape: 16 384
/// resident pages, 2 700 of them dirty per epoch, scattered.
const STAGED_RESIDENT: u64 = 16_384;
const STAGED_DIRTY: u64 = 2_700;

/// The `i`-th dirty page of `epoch`: a stride coprime to the footprint.
fn staged_page(epoch: u64, i: u64) -> u64 {
    (epoch * STAGED_DIRTY + i) * 7 % STAGED_RESIDENT
}

/// An address space with a fully resident `STAGED_RESIDENT`-page mapping at
/// address 0 (page `n` is vpn `n`).
fn staged_space() -> AddressSpace {
    let mut a = AddressSpace::new();
    a.mmap_anon(0, STAGED_RESIDENT * PAGE_SIZE as u64).unwrap();
    a.set_tracking(TrackingMode::SoftDirty);
    for page in 0..STAGED_RESIDENT {
        let fill = [page as u8 | 1; PAGE_SIZE];
        a.write(page * PAGE_SIZE as u64, &fill).unwrap();
    }
    a
}

/// Staged-path rows. `delta/encode_lent_L_lines_cold` is a curve, not a
/// point (cost of one epoch's drain + encode against the lines written per
/// page): each iteration writes `L` lines in each of 2 700 scattered pages of
/// the 64 MiB heap (untimed), then times scan → protect → drain with every
/// lent page encoded against a 64 MiB shadow — frame and shadow lines come
/// from memory, as they do in the system, not from the cache the `delta`
/// bench's hot rows run in. `mem/cow_protect_drain_cycle_*` is the set
/// traffic alone: the protect-set test of 2 700 writes, the protect, the pops.
fn bench_staged_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta");
    for lines in [1usize, 4, 16, 64] {
        group.bench_function(format!("encode_lent_{lines}_lines_cold"), |b| {
            let space = RefCell::new(staged_space());
            let mut shadow = ShadowStore::new();
            let mut stats = DeltaStats::default();
            let key = |vpn| PageKey {
                pid: nilicon_sim::ids::Pid(1),
                vpn,
            };
            // The initial sync: every page ships whole and is shadowed.
            let mut drain = |a: &mut AddressSpace| {
                let vpns = a.soft_dirty_vpns();
                a.clear_refs();
                a.cow_protect(&vpns);
                a.cow_drain_with(usize::MAX, |vpn, page, lines| {
                    let full = || page.clone();
                    black_box(shadow.encode_with(key(vpn), page, lines, full, &mut stats));
                })
            };
            drain(&mut space.borrow_mut());
            let mut epoch = 0u64;
            b.iter_batched(
                || {
                    epoch += 1;
                    let mut a = space.borrow_mut();
                    for i in 0..STAGED_DIRTY {
                        let at = staged_page(epoch, i) * PAGE_SIZE as u64;
                        // Every other line from a varying start, so the
                        // written lines are not one contiguous run.
                        for l in 0..lines {
                            let line = (epoch as usize + 2 * l + l / 32) % 64;
                            a.write(at + (line * LINE_BYTES) as u64, &[epoch as u8; LINE_BYTES])
                                .unwrap();
                        }
                    }
                },
                |()| black_box(drain(&mut space.borrow_mut())),
                criterion::BatchSize::PerIteration,
            );
        });
    }
    group.finish();

    let mut group = c.benchmark_group("mem");
    group.bench_function(
        format!("cow_protect_drain_cycle_{STAGED_DIRTY}_of_{STAGED_RESIDENT}"),
        |b| {
            let mut a = staged_space();
            a.clear_refs();
            let mut epoch = 0u64;
            b.iter(|| {
                epoch += 1;
                for i in 0..STAGED_DIRTY {
                    a.touch(staged_page(epoch, i) * PAGE_SIZE as u64).unwrap();
                }
                let vpns = a.soft_dirty_vpns();
                a.clear_refs();
                a.cow_protect(&vpns);
                black_box(a.cow_drain_with(usize::MAX, |_, _, _| {}))
            });
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_mem_write,
    bench_qdisc_and_sockets,
    bench_request_path,
    bench_kv_batch,
    bench_dump_restore,
    bench_staged_drain
);
criterion_main!(benches);
