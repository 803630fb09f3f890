//! The (k, n) placement sweep: memory overhead vs failover latency across
//! erasure-coded placements (DESIGN.md §10).
//!
//! ```text
//! cargo run --release -p nilicon-bench --bin placement
//! ```
//!
//! For each placement in {(1,2), (2,3), (3,5)} the sweep drives the same
//! deterministic write script through a `PlacementEngine`, then measures:
//!
//! * **storage** — fragment bytes held across the alive replicas
//!   (`stored_fragment_bytes`) against the single-copy committed payload;
//!   mirroring's (1,2) ratio is the paper baseline (2×);
//! * **ack path** — mean per-epoch ack delay (the coded encode fan-out
//!   rides here, `ShardCommit`);
//! * **failover** — recovery latency with all replicas alive, and degraded
//!   (the designated replica dead: the image decodes from k survivors and
//!   the replacement's disk resyncs from a survivor).
//!
//! Results land in `PLACEMENT_sweep.json`; the process fails if the (2,3)
//! storage overhead is not strictly below mirroring's 2×.

use nilicon::{Checkpointer, OptimizationConfig, PlacementEngine};
use nilicon_bench::{Cli, Flags, Table};
use nilicon_container::{Container, ContainerRuntime, ContainerSpec, MemLayout};
use nilicon_sim::kernel::Kernel;
use nilicon_sim::PAGE_SIZE;
use serde::Serialize;

/// Epochs per sweep cell.
const EPOCHS: u64 = 40;
/// Page writes per epoch (spread over 40 heap pages).
const WRITES_PER_EPOCH: u64 = 6;

/// One sweep row, as serialized into `PLACEMENT_sweep.json`.
#[derive(Serialize)]
struct SweepRow {
    k: u32,
    n: u32,
    epochs: u64,
    /// Unique pages in the committed image.
    committed_pages: u64,
    /// Bytes of one fragment (`PAGE_SIZE / k`, rounded up).
    frag_bytes: u64,
    /// Fragment bytes held across all alive replicas.
    stored_bytes: u64,
    /// The committed payload held once (`committed_pages × PAGE_SIZE`).
    single_copy_bytes: u64,
    /// Storage overhead: `stored_bytes / single_copy_bytes`.
    overhead_x: f64,
    /// Mean per-epoch ack delay over the run, ns.
    mean_ack_delay_ns: u64,
    /// Mean per-epoch bytes shipped (all replicas).
    mean_state_bytes: u64,
    /// Failover latency with every replica alive, ns.
    healthy_failover_ns: u64,
    /// Failover latency with the designated replica dead (decode from k
    /// survivors + disk resync onto the replacement), ns.
    degraded_failover_ns: u64,
}

/// Deterministic write script: `WRITES_PER_EPOCH` two-byte page writes,
/// page and value derived from `(epoch, i)`.
fn script(p: &mut Kernel, c: &Container, epoch: u64) {
    for i in 0..WRITES_PER_EPOCH {
        let x = 7u64
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(epoch * 131 + i * 17);
        let page = x % 40;
        let val = (x >> 8) as u8;
        p.mem_write(c.init_pid(), MemLayout::heap_page(page), &[val, val ^ 0x5A])
            .unwrap();
    }
}

/// Run the script under a (k, n) placement and return the measured row.
/// `degraded` kills the designated replica before the failover.
fn run_cell(k: u32, n: u32) -> SweepRow {
    let measure = |degrade: bool| -> (PlacementEngine, u64, u64, u64) {
        let mut p = Kernel::default();
        let mut b = Kernel::default();
        let c =
            ContainerRuntime::create(&mut p, &ContainerSpec::server("redis", 10, 6379)).unwrap();
        let mut opts = OptimizationConfig::nilicon();
        opts.backups = n;
        opts.quorum = k;
        let mut e = PlacementEngine::new(opts, p.costs.clone()).unwrap();
        e.prepare(&mut p, &c).unwrap();
        let (mut ack_sum, mut bytes_sum) = (0u64, 0u64);
        for epoch in 1..=EPOCHS {
            script(&mut p, &c, epoch);
            let out = e.checkpoint(&mut p, &mut b, &c, epoch).unwrap();
            e.commit(&mut b, epoch).unwrap();
            ack_sum += out.ack_delay;
            bytes_sum += out.state_bytes;
        }
        if degrade {
            e.fail_replica(0).unwrap();
        }
        // Degraded failover lands on a fresh replacement host (the harness
        // provisions one at the replica fault); healthy failover lands on
        // the designated backup.
        let mut target = if degrade { Kernel::default() } else { b };
        let (_restored, report) = e.failover(&mut target).unwrap();
        (e, ack_sum / EPOCHS, bytes_sum / EPOCHS, report.total())
    };

    let (mut e, mean_ack, mean_bytes, healthy) = measure(false);
    let (_, _, _, degraded) = measure(true);

    let committed_pages = {
        let survivors: Vec<usize> = (0..k as usize).collect();
        e.reconstruct_committed(&survivors).unwrap().pages.len() as u64
    };
    let stored = e.stored_fragment_bytes();
    let single = committed_pages * PAGE_SIZE as u64;
    SweepRow {
        k,
        n,
        epochs: EPOCHS,
        committed_pages,
        frag_bytes: e.frag_len() as u64,
        stored_bytes: stored,
        single_copy_bytes: single,
        overhead_x: stored as f64 / single as f64,
        mean_ack_delay_ns: mean_ack,
        mean_state_bytes: mean_bytes,
        healthy_failover_ns: healthy,
        degraded_failover_ns: degraded,
    }
}

fn main() {
    Cli::parse(&[], Flags::None);
    let placements = [(1u32, 2u32), (2, 3), (3, 5)];
    let rows: Vec<SweepRow> = placements.iter().map(|&(k, n)| run_cell(k, n)).collect();

    let mut t = Table::new(
        "Placement sweep — storage overhead vs failover latency",
        vec![
            "(k,n)", "pages", "frag", "stored", "overhead", "ack-delay", "fo-healthy",
            "fo-degraded",
        ],
    );
    for r in &rows {
        t.push(
            format!("({},{})", r.k, r.n),
            vec![
                format!("{}", r.committed_pages),
                format!("{} B", r.frag_bytes),
                format!("{:.1} KiB", r.stored_bytes as f64 / 1024.0),
                format!("{:.3}x", r.overhead_x),
                format!("{:.3} ms", r.mean_ack_delay_ns as f64 / 1e6),
                format!("{:.3} ms", r.healthy_failover_ns as f64 / 1e6),
                format!("{:.3} ms", r.degraded_failover_ns as f64 / 1e6),
            ],
        );
    }
    t.emit();

    let json = serde_json::to_string(&rows).expect("rows serialize");
    std::fs::write("PLACEMENT_sweep.json", &json).expect("write PLACEMENT_sweep.json");
    println!("wrote PLACEMENT_sweep.json ({} placements)", rows.len());

    // Acceptance gates: mirroring is exactly 2×; the coded (2,3) placement
    // must tolerate the same single loss strictly cheaper.
    let mirror = rows.iter().find(|r| (r.k, r.n) == (1, 2)).unwrap();
    let coded = rows.iter().find(|r| (r.k, r.n) == (2, 3)).unwrap();
    assert!(
        (mirror.overhead_x - 2.0).abs() < 1e-9,
        "mirroring must store exactly 2x: {:.3}",
        mirror.overhead_x
    );
    if coded.overhead_x >= 2.0 {
        eprintln!(
            "FATAL: (2,3) stores {:.3}x — not below mirroring's 2x",
            coded.overhead_x
        );
        std::process::exit(1);
    }
    println!(
        "placement sweep clean: (2,3) stores {:.3}x vs mirroring's 2x \
         while tolerating the same single replica loss",
        coded.overhead_x
    );
}
