//! Runs the three-way benchmark comparison ONCE and emits Fig. 3 and
//! Tables III, IV, and V from the same data (they all derive from the same
//! runs in the paper too).
//!
//! `cargo run --release -p nilicon-bench --bin comparison_report -- [EPOCHS]`
//! (default 120); the NiLiCon runs take the EXTENSION overlay
//! ([`nilicon_bench::Flags::Runs`]: `--delta`, `--cow`, ...).

use nilicon_bench::comparison::{PAPER_FIG3, PAPER_TABLE3, PAPER_TABLE4, PAPER_TABLE5};
use nilicon_bench::{fmt_mib, fmt_ms, run_comparisons, Cli, Flags, Slot, Table};
use nilicon_workloads::Scale;

fn main() {
    let cli = Cli::parse(&[Slot::Count("EPOCHS", 120)], Flags::Runs);
    let epochs = cli.counts[0];
    let comparisons = run_comparisons(&cli, Scale::bench(), epochs);

    // ---------------- Fig. 3 ----------------
    let mut fig3 = Table::new(
        format!("Fig. 3 — overhead NiLiCon vs MC ({epochs} epochs; breakdown = stop+runtime)"),
        vec![
            "benchmark",
            "paper MC",
            "MC",
            "(stop+run)",
            "paper NiLiCon",
            "NiLiCon",
            "(stop+run)",
        ],
    );
    for c in &comparisons {
        let p = PAPER_FIG3
            .iter()
            .find(|(n, ..)| *n == c.name)
            .expect("known");
        let mc = c.overhead_pct(&c.mc);
        let (mc_s, mc_r) = c.breakdown_pct(&c.mc);
        let nl = c.overhead_pct(&c.nilicon);
        let (nl_s, nl_r) = c.breakdown_pct(&c.nilicon);
        fig3.push(
            c.name.clone(),
            vec![
                format!("{:.1}%", p.1),
                format!("{mc:.1}%"),
                format!("({mc_s:.0}+{mc_r:.0})"),
                format!("{:.1}%", p.2),
                format!("{nl:.1}%"),
                format!("({nl_s:.0}+{nl_r:.0})"),
            ],
        );
    }
    fig3.emit();

    // ---------------- Table III ----------------
    let mut t3 = Table::new(
        "Table III — avg stop time & dirty pages per epoch (paper / measured)",
        vec![
            "benchmark",
            "MC stop",
            "NiLiCon stop",
            "MC dpage",
            "NiLiCon dpage",
        ],
    );
    for c in &comparisons {
        let p = PAPER_TABLE3
            .iter()
            .find(|(n, ..)| *n == c.name)
            .expect("known");
        t3.push(
            c.name.clone(),
            vec![
                format!("{:.1} / {}", p.1, fmt_ms(c.mc.avg_stop)),
                format!("{:.1} / {}", p.2, fmt_ms(c.nilicon.avg_stop)),
                format!("{:.0} / {:.0}", p.3, c.mc.avg_dirty),
                format!("{:.0} / {:.0}", p.4, c.nilicon.avg_dirty),
            ],
        );
    }
    t3.emit();

    // ---------------- Table IV ----------------
    let mut t4 = Table::new(
        "Table IV — NiLiCon stop & state percentiles p10/p50/p90 (paper / measured)",
        vec!["benchmark", "stop p10/50/90", "state p10/50/90"],
    );
    for c in &comparisons {
        let p = PAPER_TABLE4
            .iter()
            .find(|(n, ..)| *n == c.name)
            .expect("known");
        let s = &c.nilicon;
        t4.push(
            c.name.clone(),
            vec![
                format!(
                    "{:.1}/{:.1}/{:.1}ms / {}/{}/{}",
                    p.1[0],
                    p.1[1],
                    p.1[2],
                    fmt_ms(s.stop_p[0]),
                    fmt_ms(s.stop_p[1]),
                    fmt_ms(s.stop_p[2])
                ),
                format!(
                    "{}/{}/{} / {}/{}/{}",
                    p.2[0],
                    p.2[1],
                    p.2[2],
                    fmt_mib(s.state_p[0]),
                    fmt_mib(s.state_p[1]),
                    fmt_mib(s.state_p[2])
                ),
            ],
        );
    }
    t4.emit();

    // ---------------- Table V ----------------
    let mut t5 = Table::new(
        "Table V — active vs backup core utilization (paper / measured)",
        vec!["benchmark", "active", "backup"],
    );
    for c in &comparisons {
        let p = PAPER_TABLE5
            .iter()
            .find(|(n, ..)| *n == c.name)
            .expect("known");
        t5.push(
            c.name.clone(),
            vec![
                // Paper methodology: "similar core utilization measurements
                // were done on a host executing the benchmarks without
                // replication" — the Active row is the stock run.
                format!("{:.2} / {:.2}", p.1, c.stock.active_util),
                format!("{:.2} / {:.2}", p.2, c.nilicon.backup_util),
            ],
        );
    }
    t5.emit();
}
