//! §V/§VI anchor check: every cost the paper states numerically, next to
//! what the model produces. Run: `cargo run -p nilicon-bench --bin anchors`.

use nilicon_bench::{Cli, Flags, Table};
use nilicon_sim::CostModel;

fn main() {
    Cli::parse(&[], Flags::None);
    let c = CostModel::default();
    let mut t = Table::new(
        "Paper-stated cost anchors (§I, §V, §VII-C) vs model",
        vec!["anchor", "paper", "model"],
    );
    t.push(
        "namespace collection (uncached)",
        vec![
            "up to 100ms".into(),
            format!("{:.0}ms", c.ns_collect as f64 / 1e6),
        ],
    );
    t.push(
        "infrequently-modified set (streamcluster)",
        vec![
            "~160ms".into(),
            format!(
                "{:.0}ms (+{:.1}ms mapped-file stats)",
                c.infrequent_state_collect() as f64 / 1e6,
                13.0 * c.stat_per_file as f64 / 1e6
            ),
        ],
    );
    t.push(
        "firewall input-block cycle",
        vec![
            "7ms".into(),
            format!("{:.0}ms", c.firewall_block_cycle as f64 / 1e6),
        ],
    );
    t.push(
        "plug input-block cycle",
        vec![
            "43µs".into(),
            format!("{:.0}µs", c.plug_block_cycle as f64 / 1e3),
        ],
    );
    t.push(
        "freeze busy-poll wait",
        vec![
            "<1ms".into(),
            format!(
                "~{:.2}ms worst-case",
                (c.freeze_syscall_interrupt + 2 * c.freeze_poll_interval) as f64 / 1e6
            ),
        ],
    );
    t.push(
        "stock freeze sleep",
        vec![
            "100ms".into(),
            format!("{:.0}ms", c.freeze_stock_sleep as f64 / 1e6),
        ],
    );
    t.push(
        "pagemap scan, 49K pages",
        vec![
            "1441µs".into(),
            format!("{:.0}µs", 49_000.0 * c.pagemap_scan_per_page as f64 / 1e3),
        ],
    );
    t.push(
        "pagemap scan, 111K pages",
        vec![
            "2887µs".into(),
            format!("{:.0}µs", 111_000.0 * c.pagemap_scan_per_page as f64 / 1e3),
        ],
    );
    t.push(
        "copy 121 pages to staging",
        vec![
            "263µs".into(),
            format!("{:.0}µs", 121.0 * c.page_copy as f64 / 1e3),
        ],
    );
    t.push(
        "copy 495 pages to staging",
        vec![
            "1099µs".into(),
            format!("{:.0}µs", 495.0 * c.page_copy as f64 / 1e3),
        ],
    );
    t.push(
        "per-thread state, 1 thread",
        vec![
            "148µs".into(),
            format!("{:.0}µs", c.thread_state as f64 / 1e3),
        ],
    );
    t.push(
        "per-thread state, 32 threads",
        vec![
            "4ms".into(),
            format!("{:.2}ms", 32.0 * c.thread_state as f64 / 1e6),
        ],
    );
    t.push(
        "socket state, 8 sockets (2 clients x 4 procs)",
        vec![
            "1.2ms".into(),
            format!("{:.2}ms", 8.0 * c.socket_repair_dump as f64 / 1e6),
        ],
    );
    t.push(
        "socket state, 128 sockets",
        vec![
            "13ms".into(),
            format!("{:.1}ms", 128.0 * c.socket_repair_dump as f64 / 1e6),
        ],
    );
    t.push(
        "gratuitous ARP (Table II)",
        vec![
            "28ms".into(),
            format!("{:.0}ms", c.gratuitous_arp as f64 / 1e6),
        ],
    );
    t.push(
        "fresh-socket RTO",
        vec![
            ">=1s".into(),
            format!("{:.0}ms", c.tcp_rto_default as f64 / 1e6),
        ],
    );
    t.push(
        "repair-mode min RTO (§V-E)",
        vec![
            "200ms".into(),
            format!("{:.0}ms", c.tcp_rto_repair_min as f64 / 1e6),
        ],
    );
    t.push(
        "recovery misc (Table II 'Others')",
        vec![
            "7ms".into(),
            format!("{:.0}ms", c.recovery_misc as f64 / 1e6),
        ],
    );
    t.emit();
}
