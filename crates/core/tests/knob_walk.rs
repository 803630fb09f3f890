//! The generated knob walk (ROADMAP 5a), engine level.
//!
//! Every on/off combination of the five data-path knobs, at two dump-worker
//! counts, on each replica layout, goes through the layout's public
//! constructor. A combination [`OptimizationConfig::validate`] accepts runs
//! one fixed write script — sparse edits, a dense page, a page that turns to
//! zeros, a `brk` shrink and a regrow — with a rearm bootstrap in the middle,
//! then fails over; the committed image and the restored memory must equal,
//! byte for byte, what the paper configuration commits and restores without
//! any of it, and every epoch's trace must reconcile. A combination it
//! rejects must be refused by the constructor with the same message. Nothing
//! here names a valid combination: the walk grows when `validate` does.

use nilicon::trace::Tracer;
use nilicon::{Checkpointer, NiLiConEngine, OptimizationConfig, PlacementEngine};
use nilicon_container::{Container, ContainerRuntime, ContainerSpec, MemLayout};
use nilicon_criu::CheckpointImage;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::{CostModel, PAGE_SIZE};

const EPOCHS: u64 = 12;
/// The epoch taken as a rearm bootstrap instead of an incremental checkpoint.
const REARM_AT: u64 = 7;
const SHRINK_AT: u64 = 5;
const REGROW_AT: u64 = 9;
const DENSE: u64 = 40;
const ZEROED: u64 = 50;

/// What the guest does before checkpoint `epoch`.
fn script(p: &mut Kernel, c: &Container, epoch: u64) {
    let pid = c.init_pid();
    let top = c.spec.heap_pages - 1;
    // Sparse edits: a rotating page, a fresh page, and one page every epoch.
    for (page, val) in [
        (epoch % 5, epoch as u8),
        (20 + epoch, 0xB0 | epoch as u8),
        (7, 13),
    ] {
        let at = MemLayout::heap_page(page) + epoch * 64;
        p.mem_write(pid, at, &[val ^ epoch as u8]).unwrap();
    }
    // Dense churn: a delta of this page would not beat the page.
    let fill = [epoch as u8 | 1; PAGE_SIZE];
    p.mem_write(pid, MemLayout::heap_page(DENSE), &fill)
        .unwrap();
    match epoch {
        2 => {
            let doomed = [top - 1, top, ZEROED];
            for page in doomed {
                let at = MemLayout::heap_page(page);
                p.mem_write(pid, at, b"doomed").unwrap();
            }
        }
        4 => {
            let zeros = [0u8; PAGE_SIZE];
            p.mem_write(pid, MemLayout::heap_page(ZEROED), &zeros)
                .unwrap();
        }
        SHRINK_AT => {
            let mm = p.mm_mut(pid).unwrap();
            mm.brk(MemLayout::heap_page(top / 2)).unwrap();
        }
        REGROW_AT => {
            let mm = p.mm_mut(pid).unwrap();
            mm.brk(MemLayout::heap_page(top + 1)).unwrap();
        }
        11 => {
            p.mem_write(pid, MemLayout::heap_page(top), b"reborn")
                .unwrap();
        }
        _ => {}
    }
}

/// The committed image and the memory a failover restores from it.
struct Outcome {
    image: CheckpointImage,
    heap: Vec<Option<Vec<u8>>>,
}

/// Run the script under `engine`; `rearm` takes epoch [`REARM_AT`] as a
/// bootstrap onto a replacement backup. `image` reads the committed image.
fn walk<E: Checkpointer>(
    mut engine: E,
    rearm: bool,
    image: impl Fn(&mut E) -> CheckpointImage,
    what: &str,
) -> Outcome {
    let mut p = Kernel::default();
    let mut backup = Kernel::default();
    let c = ContainerRuntime::create(&mut p, &ContainerSpec::server("redis", 10, 6379)).unwrap();
    let (tracer, _ring) = Tracer::in_memory(1 << 14);
    engine.set_tracer(tracer.clone());
    engine.prepare(&mut p, &c).unwrap();
    for epoch in 1..=EPOCHS {
        script(&mut p, &c, epoch);
        if rearm && epoch == REARM_AT {
            backup = Kernel::default();
            engine.rearm_prepare(&mut p, &c).unwrap();
            engine.bootstrap_begin(&mut p, &c, epoch).unwrap();
            while engine.bootstrap_step(&mut p, epoch, 64).unwrap().remaining > 0 {}
            engine.bootstrap_finish(&mut backup, epoch).unwrap();
            continue;
        }
        engine.pipeline_advance(30_000_000);
        tracer.begin_epoch(epoch, 0);
        let o = engine
            .checkpoint(&mut p, &mut backup, &c, epoch)
            .unwrap_or_else(|e| panic!("{what}: checkpoint {epoch}: {e}"));
        tracer
            .reconcile(epoch, o.stop_time, o.ack_delay)
            .unwrap_or_else(|e| panic!("{what}: epoch {epoch}: {e}"));
        engine.commit(&mut backup, epoch).unwrap();
    }
    assert_eq!(engine.committed_epoch(), Some(EPOCHS), "{what}");
    let image = image(&mut engine);
    let (restored, _) = engine.failover(&mut backup).unwrap();
    assert_eq!(restored.skipped_pages, 0, "{what}: nothing stale to skip");
    restored.finish(&mut backup).unwrap();
    let heap = (0..c.spec.heap_pages)
        .map(|page| {
            let mut buf = vec![0u8; PAGE_SIZE];
            let at = MemLayout::heap_page(page);
            backup
                .mem_read(c.init_pid(), at, &mut buf)
                .ok()
                .map(|_| buf)
        })
        .collect();
    Outcome { image, heap }
}

fn assert_same(reference: &Outcome, got: &Outcome, what: &str) {
    assert_eq!(got.image.epoch, reference.image.epoch, "{what}");
    assert_eq!(
        got.image.pages.len(),
        reference.image.pages.len(),
        "{what}: page set"
    );
    for (x, y) in got.image.pages.iter().zip(&reference.image.pages) {
        assert_eq!((x.0, x.1), (y.0, y.1), "{what}: page identity");
        assert!(x.2 == y.2, "{what}: committed page {:?}/{:#x}", x.0, x.1);
    }
    for (page, (x, y)) in got.heap.iter().zip(&reference.heap).enumerate() {
        assert!(x == y, "{what}: restored heap page {page}");
    }
}

#[test]
fn every_accepted_combination_commits_and_restores_the_reference_bytes() {
    let costs = CostModel::default;
    let mirror = |e: &mut NiLiConEngine| e.agent.materialize().unwrap();
    let reference = walk(
        NiLiConEngine::new(OptimizationConfig::nilicon(), costs()),
        false,
        mirror,
        "reference",
    );
    let top = reference.heap.len() - 1;
    assert_eq!(reference.heap[top].as_ref().unwrap()[..6], *b"reborn");
    assert!(reference.heap[top - 1]
        .as_ref()
        .unwrap()
        .iter()
        .all(|&b| b == 0));
    assert!(reference.heap[ZEROED as usize]
        .as_ref()
        .unwrap()
        .iter()
        .all(|&b| b == 0));

    let (mut accepted, mut rejected) = (0, 0);
    for layout in [None, Some((1u32, 2u32)), Some((2, 3))] {
        for knobs in 0u32..1 << 5 {
            for dump_workers in [1, 4] {
                let mut opts = OptimizationConfig::nilicon();
                opts.rearm = true;
                opts.delta_transfer = knobs & 1 != 0;
                opts.cow_checkpoint = knobs & 2 != 0;
                opts.pipeline = knobs & 4 != 0;
                opts.pml_tracking = knobs & 8 != 0;
                opts.staging_buffer = knobs & 16 == 0;
                opts.dump_workers = dump_workers;
                if let Some((k, n)) = layout {
                    (opts.quorum, opts.backups) = (k, n);
                }
                let what = format!("{layout:?} knobs {knobs:#07b} x{dump_workers}");
                let got = match (layout, opts.validate()) {
                    (None, verdict) => {
                        verdict.expect("the mirror layout rejects none of these knobs");
                        walk(NiLiConEngine::new(opts, costs()), true, mirror, &what)
                    }
                    (Some(_), Ok(())) => {
                        let e = PlacementEngine::new(opts, costs()).expect(&what);
                        let k = e.placement().0 as usize;
                        let last_k = move |e: &mut PlacementEngine| {
                            let n = e.placement().1 as usize;
                            let pick: Vec<usize> = (n - k..n).collect();
                            e.reconstruct_committed(&pick).unwrap()
                        };
                        walk(e, true, last_k, &what)
                    }
                    (Some(_), Err(rule)) => {
                        let refused = PlacementEngine::new(opts, costs()).expect_err(&what);
                        assert_eq!(refused.to_string(), rule.to_string(), "{what}");
                        rejected += 1;
                        continue;
                    }
                };
                assert_same(&reference, &got, &what);
                accepted += 1;
            }
        }
    }
    println!("knob walk: {accepted} combinations accepted and walked, {rejected} rejected");
    assert!(accepted >= 80, "the walk lost combinations: {accepted}");
}
