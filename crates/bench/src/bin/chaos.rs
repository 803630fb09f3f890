//! The chaos bench: sweep the adversarial scenario catalog (DESIGN.md §9)
//! across fault-timing shifts and print the scenario × outcome matrix.
//!
//! ```text
//! cargo run --release -p nilicon-bench --bin chaos   # the full matrix
//! ```
//!
//! Every `recovered` cell is backed by the byte-identical committed-state
//! replay check (see `nilicon_bench::chaos`); any `split-brain` cell fails
//! the process. The full matrix also lands in `CHAOS_matrix.json`.

use nilicon_bench::chaos::{
    fleet_scenarios, run_cell, run_fleet_cell, scenarios, Cell, Outcome, CELL_EPOCHS,
};
use nilicon_bench::Table;
use nilicon_sim::MILLISECOND;

fn main() {
    // The fault-timing sweep: the same schedule landing at different phases
    // of the 30 ms epoch (mid-epoch, near a boundary, near a release).
    let shifts = [0, 7 * MILLISECOND, 23 * MILLISECOND];
    let mut cells: Vec<Cell> = Vec::new();
    for &shift in &shifts {
        for sc in scenarios(shift) {
            cells.push(run_cell(&sc, shift, CELL_EPOCHS));
        }
        // Fleet cells (EXTENSION `--fleet N`): one service-style run judges
        // per-lane ownership, isolation, and echo correctness; there is no
        // separate state run, so the same run fills both slots.
        for sc in fleet_scenarios(shift) {
            let run = run_fleet_cell(&sc, CELL_EPOCHS);
            cells.push(Cell {
                scenario: sc.name,
                shift_ms: shift / MILLISECOND,
                expect: sc.expect,
                outcome: run.outcome,
                state: run.clone(),
                service: run,
            });
        }
    }

    let mut t = Table::new(
        "Chaos matrix — scenario × fault-timing",
        vec![
            "scenario", "shift", "outcome", "expect", "state", "service", "fo", "stall",
            "no-ack", "fence", "false+", "exp",
        ],
    );
    for c in &cells {
        let st = &c.state.stats;
        t.push(
            c.scenario,
            vec![
                format!("+{}ms", c.shift_ms),
                c.outcome.to_string(),
                c.expect.to_string(),
                if c.state.state_ok { "byte-id" } else { "MISMATCH" }.into(),
                if c.service.service_ok { "ok" } else { "FAIL" }.into(),
                format!("{}", c.state.failovers),
                format!("{}", st.stalled_epochs),
                format!("{}", st.withheld_acks),
                format!("{}", st.fenced_releases),
                format!("{}", st.false_suspicions),
                format!("{}", st.lease_expiries),
            ],
        );
    }
    t.emit();

    let json = serde_json::to_string(&cells).expect("cells serialize");
    std::fs::write("CHAOS_matrix.json", &json).expect("write CHAOS_matrix.json");
    println!("wrote CHAOS_matrix.json ({} cells)", cells.len());

    let split = cells
        .iter()
        .filter(|c| c.outcome == Outcome::SplitBrain)
        .count();
    let surprises: Vec<String> = cells
        .iter()
        .filter(|c| c.outcome != c.expect)
        .map(|c| format!("{} +{}ms: {} (expected {})", c.scenario, c.shift_ms, c.outcome, c.expect))
        .collect();
    println!(
        "summary: {} cells, {} split-brain, {} off-catalog",
        cells.len(),
        split,
        surprises.len()
    );
    for s in &surprises {
        println!("  off-catalog: {s}");
    }
    if split > 0 {
        eprintln!("FATAL: split-brain cell(s) present");
        std::process::exit(1);
    }
    // Belt-and-suspenders: `recovered` is only claimable with the
    // byte-identical replay check green (classify() enforces this; assert
    // it independently so a classifier regression can't slip through).
    let unbacked = cells
        .iter()
        .filter(|c| c.outcome == Outcome::Recovered && !c.state.state_ok)
        .count();
    if unbacked > 0 {
        eprintln!("FATAL: {unbacked} recovered cell(s) without byte-identical replay");
        std::process::exit(1);
    }
    if !surprises.is_empty() {
        eprintln!("FATAL: outcome(s) diverged from the failure-mode catalog");
        std::process::exit(1);
    }
    println!("chaos matrix clean: zero split-brain, all cells match the catalog");
}
