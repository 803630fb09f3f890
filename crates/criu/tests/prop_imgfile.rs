//! Property tests for the NLCN binary image codec: decode(encode(x)) == x
//! over randomized images, and random mutation never panics the decoder.

use nilicon_criu::{decode_image, encode_image, CheckpointImage, ProcessImage};
use nilicon_sim::cgroup::Cgroup;
use nilicon_sim::fs::{Inode, Mount};
use nilicon_sim::ids::{AsId, CgroupId, Endpoint, Fd, Ino, MountId, NsId, Pid, SockId, Tid};
use nilicon_sim::mem::{MappedFile, Perms, Vma, VmaKind};
use nilicon_sim::net::RepairState;
use nilicon_sim::ns::{Namespace, NsKind, NsSet};
use nilicon_sim::proc::{FdEntry, SchedPolicy, Thread, Timer};
use nilicon_sim::PAGE_SIZE;
use proptest::prelude::*;

fn arb_vma() -> impl Strategy<Value = Vma> {
    (
        0u64..1000,
        1u64..64,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        proptest::option::of(0u64..99),
    )
        .prop_map(|(startp, pages, w, x, heap, file)| Vma {
            start: startp * PAGE_SIZE as u64,
            len: pages * PAGE_SIZE as u64,
            perms: Perms { r: true, w, x },
            kind: match file {
                Some(ino) => VmaKind::File(MappedFile {
                    ino: Ino(ino),
                    file_off: 0,
                }),
                None => VmaKind::Anon,
            },
            is_heap: heap,
            is_stack: false,
        })
}

fn arb_thread() -> impl Strategy<Value = Thread> {
    (
        any::<u32>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        0u8..3,
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..3),
    )
        .prop_map(|(tid, rip, rsp, sigmask, sched, timers)| {
            let mut t = Thread::new(Tid(tid));
            t.regs.rip = rip;
            t.regs.rsp = rsp;
            t.sigmask = sigmask;
            t.sched = match sched {
                0 => SchedPolicy::Normal,
                1 => SchedPolicy::Batch,
                _ => SchedPolicy::Fifo(7),
            };
            t.timers = timers
                .into_iter()
                .map(|(e, i)| Timer {
                    expires_at: e,
                    interval: i,
                })
                .collect();
            t
        })
}

fn arb_image() -> impl Strategy<Value = CheckpointImage> {
    (
        any::<u64>(),
        "[a-z]{1,12}",
        any::<u32>(),
        proptest::collection::vec(arb_thread(), 1..4),
        proptest::collection::vec(arb_vma(), 0..5),
        proptest::collection::vec((any::<u32>(), 0u64..1u64 << 30, any::<u8>()), 0..20),
        proptest::collection::vec(any::<u16>(), 0..4),
        proptest::collection::vec(
            (
                any::<u32>(),
                any::<u16>(),
                any::<u32>(),
                any::<u32>(),
                proptest::collection::vec(any::<u8>(), 0..200),
            ),
            0..4,
        ),
    )
        .prop_map(
            |(epoch, name, addr, threads, vmas, pages, listeners, socks)| {
                let mut img = CheckpointImage {
                    epoch,
                    name,
                    addr,
                    ns: Some(NsSet {
                        pid: NsId(1),
                        net: NsId(2),
                        mnt: NsId(3),
                        uts: NsId(4),
                        ipc: NsId(5),
                        user: NsId(6),
                    }),
                    ..Default::default()
                };
                img.processes.push(ProcessImage {
                    pid: Pid(100),
                    ppid: Pid(1),
                    mm: AsId(1),
                    exe: "/bin/app".into(),
                    threads,
                    fds: vec![
                        (
                            Fd(3),
                            FdEntry::File {
                                ino: Ino(9),
                                offset: 44,
                                flags: 1,
                            },
                        ),
                        (Fd(4), FdEntry::Socket(SockId(2))),
                    ],
                    vmas,
                });
                for (pid, vpn, tag) in pages {
                    img.pages.push((Pid(pid), vpn, std::rc::Rc::new([tag; PAGE_SIZE])));
                }
                img.listeners = listeners;
                for (a, p, snd, rcv, q) in socks {
                    img.sockets.push(RepairState {
                        local: Endpoint::new(a, p),
                        remote: Endpoint::new(a ^ 1, p ^ 1),
                        snd_nxt: snd,
                        snd_una: snd.wrapping_sub(q.len() as u32),
                        rcv_nxt: rcv,
                        write_queue: q.clone().into(),
                        read_queue: q.into(),
                    });
                }
                img.namespaces.push(Namespace {
                    id: NsId(4),
                    kind: NsKind::Uts,
                    config: b"h".to_vec(),
                });
                img.cgroups.push(Cgroup::new(CgroupId(1), "/docker/x"));
                img.mounts.push(Mount {
                    id: MountId(1),
                    source: "overlay".into(),
                    target: "/".into(),
                    fstype: "overlay".into(),
                });
                img.fs_inodes.push(Inode::regular(Ino(9)));
                img.paths.push(("/data/f".into(), Ino(9)));
                img.stats.dirty_pages = img.pages.len() as u64;
                img
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip(img in arb_image()) {
        let bytes = encode_image(&img);
        let back = decode_image(&bytes).expect("decodes");
        prop_assert_eq!(back.epoch, img.epoch);
        prop_assert_eq!(&back.name, &img.name);
        prop_assert_eq!(back.addr, img.addr);
        prop_assert_eq!(back.ns, img.ns);
        prop_assert_eq!(back.listeners, img.listeners);
        prop_assert_eq!(back.sockets, img.sockets);
        prop_assert_eq!(back.pages.len(), img.pages.len());
        for (a, b) in back.pages.iter().zip(&img.pages) {
            prop_assert_eq!((a.0, a.1), (b.0, b.1));
            prop_assert_eq!(&a.2[..], &b.2[..]);
        }
        prop_assert_eq!(back.processes.len(), 1);
        prop_assert_eq!(&back.processes[0].fds, &img.processes[0].fds);
        prop_assert_eq!(&back.processes[0].vmas, &img.processes[0].vmas);
        prop_assert_eq!(back.processes[0].threads.len(), img.processes[0].threads.len());
        for (a, b) in back.processes[0].threads.iter().zip(&img.processes[0].threads) {
            prop_assert_eq!(a.regs, b.regs);
            prop_assert_eq!(a.sigmask, b.sigmask);
            prop_assert_eq!(&a.timers, &b.timers);
            prop_assert_eq!(a.sched, b.sched);
        }
        prop_assert_eq!(&back.namespaces, &img.namespaces);
        prop_assert_eq!(&back.mounts, &img.mounts);
        prop_assert_eq!(&back.fs_inodes, &img.fs_inodes);
        prop_assert_eq!(&back.paths, &img.paths);
    }

    #[test]
    fn decoder_never_panics_on_mutation(
        img in arb_image(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut bytes = encode_image(&img);
        for (idx, val) in flips {
            let i = idx.index(bytes.len());
            bytes[i] ^= val;
        }
        let _ = decode_image(&bytes); // must not panic
        let n = cut.index(bytes.len());
        let _ = decode_image(&bytes[..n]); // truncation must not panic
    }
}

/// A small valid image with every section and every counted list populated
/// (two pages, ~9 KiB encoded): small enough to corrupt at every offset.
fn small_image() -> Vec<u8> {
    let mut img = CheckpointImage {
        epoch: 7,
        name: "victim".into(),
        addr: 10,
        ns: Some(NsSet {
            pid: NsId(1),
            net: NsId(2),
            mnt: NsId(3),
            uts: NsId(4),
            ipc: NsId(5),
            user: NsId(6),
        }),
        listeners: vec![80, 443],
        ..Default::default()
    };
    let mut thread = Thread::new(Tid(100));
    thread.timers.push(Timer {
        expires_at: 5,
        interval: 9,
    });
    thread.sched = SchedPolicy::Fifo(3);
    img.processes.push(ProcessImage {
        pid: Pid(100),
        ppid: Pid(1),
        mm: AsId(1),
        exe: "/bin/app".into(),
        threads: vec![thread],
        fds: vec![
            (
                Fd(3),
                FdEntry::File {
                    ino: Ino(9),
                    offset: 44,
                    flags: 1,
                },
            ),
            (Fd(4), FdEntry::Socket(SockId(2))),
        ],
        vmas: vec![Vma {
            start: 0x1000,
            len: 0x2000,
            perms: Perms::RW,
            kind: VmaKind::File(MappedFile {
                ino: Ino(9),
                file_off: 0,
            }),
            is_heap: true,
            is_stack: false,
        }],
    });
    for vpn in 1..3 {
        img.pages
            .push((Pid(100), vpn, std::rc::Rc::new([vpn as u8; PAGE_SIZE])));
    }
    img.sockets.push(RepairState {
        local: Endpoint::new(10, 80),
        remote: Endpoint::new(11, 4000),
        snd_nxt: 8,
        snd_una: 4,
        rcv_nxt: 2,
        write_queue: b"out!".to_vec().into(),
        read_queue: b"in".to_vec().into(),
    });
    img.fs_pages
        .pages
        .push((Ino(9), 0, std::rc::Rc::new([0xCD; PAGE_SIZE]), true));
    img.fs_inodes.push(Inode::regular(Ino(9)));
    img.namespaces.push(Namespace {
        id: NsId(4),
        kind: NsKind::Uts,
        config: b"host".to_vec(),
    });
    img.cgroups.push(Cgroup::new(CgroupId(1), "/docker/x"));
    img.mounts.push(Mount {
        id: MountId(1),
        source: "overlay".into(),
        target: "/".into(),
        fstype: "overlay".into(),
    });
    img.devfiles.push(Inode::regular(Ino(2)));
    img.paths.push(("/data/f".into(), Ino(9)));
    encode_image(&img)
}

/// `decode` on hostile input: an image or `ImageCorrupt`, never a panic.
/// (A count or length that reserved memory in proportion to its value would
/// abort or time out here: the splices below ask for up to 2^64 elements.)
fn decodes_or_rejects(bytes: &[u8]) -> Result<(), String> {
    match decode_image(bytes) {
        Ok(_) | Err(nilicon_sim::SimError::ImageCorrupt(_)) => Ok(()),
        Err(other) => Err(format!("unexpected error {other:?}")),
    }
}

#[test]
fn decode_survives_every_truncation_and_every_hostile_length() {
    let good = small_image();
    assert!(decode_image(&good).is_ok());
    assert!(good.len() < 20_000, "small enough to sweep: {}", good.len());
    for at in 0..good.len() {
        // A cut on a section boundary is a shorter valid image.
        decodes_or_rejects(&good[..at]).unwrap_or_else(|e| panic!("truncated at {at}: {e}"));
        // Whatever count or length lives here, make it enormous: all ones
        // (a u32 count of 4 G, a u64 length that overflows `pos + n`), and
        // one that lands exactly on `usize::MAX` when added to its offset.
        for splice in [
            &[0xFF; 4][..],
            &[0xFF; 8][..],
            &(u64::MAX - at as u64 - 8).to_le_bytes()[..],
        ] {
            let mut bad = good.clone();
            let end = (at + splice.len()).min(bad.len());
            bad[at..end].copy_from_slice(&splice[..end - at]);
            decodes_or_rejects(&bad).unwrap_or_else(|e| panic!("splice at {at}: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// Random flips, splices, cuts and insertions of a valid image.
    #[test]
    fn decode_survives_random_corruption(
        edits in proptest::collection::vec(
            (0u8..4, any::<prop::sample::Index>(), any::<u64>(), 1usize..9),
            1..5,
        ),
    ) {
        let mut bytes = small_image();
        for (kind, at, val, len) in edits {
            let at = at.index(bytes.len());
            let end = (at + len).min(bytes.len());
            match kind {
                0 => bytes[at] ^= (val as u8) | 1,
                1 => bytes[at..end].copy_from_slice(&val.to_le_bytes()[..end - at]),
                2 => drop(bytes.drain(at..end)),
                _ => drop(bytes.splice(at..at, val.to_le_bytes()[..len.min(8)].iter().copied())),
            }
        }
        prop_assert_eq!(decodes_or_rejects(&bytes), Ok(()));
    }
}
