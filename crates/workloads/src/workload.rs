//! Workload bundles: everything a harness needs to host one benchmark.

use crate::clients::{EchoBehavior, SiegeBehavior, YcsbBehavior};
use crate::djcms::DjcmsApp;
use crate::lighttpd::LighttpdApp;
use crate::micro::{NetEchoApp, StackEchoApp, StressFsApp};
use crate::node::NodeApp;
use crate::redis::RedisApp;
use crate::scale::Scale;
use crate::ssdb::SsdbApp;
use crate::streamcluster::StreamclusterApp;
use crate::swaptions::SwaptionsApp;
use nilicon::traffic::ClientBehavior;
use nilicon_container::{Application, ContainerSpec};

/// A ready-to-run benchmark bundle.
pub struct Workload {
    /// Benchmark name (paper's labels).
    pub name: &'static str,
    /// Container spec (processes, threads, footprint, port).
    pub spec: ContainerSpec,
    /// The application.
    pub app: Box<dyn Application>,
    /// The load generator (None for batch workloads).
    pub behavior: Option<Box<dyn ClientBehavior>>,
    /// Usable cores (Table V "Active" row; drives the exec budget).
    pub parallelism: f64,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("parallelism", &self.parallelism)
            .finish()
    }
}

/// Redis: memory-stressing NoSQL, no persistence (§VI).
pub fn redis(scale: Scale, clients: usize) -> Workload {
    let app = RedisApp::new(scale, true);
    let mut spec = ContainerSpec::server("redis", 10, 6379);
    spec.threads_per_process = 4;
    spec.mapped_files = 28;
    spec.heap_pages = app.heap_pages();
    Workload {
        name: "Redis",
        spec,
        app: Box::new(app),
        behavior: Some(Box::new(YcsbBehavior::new(clients, scale))),
        parallelism: 1.0,
    }
}

/// SSDB: disk-stressing NoSQL, full persistence (§VI).
pub fn ssdb(scale: Scale, clients: usize) -> Workload {
    let app = SsdbApp::new(scale);
    let mut spec = ContainerSpec::server("ssdb", 10, 8888);
    spec.threads_per_process = 8;
    spec.mapped_files = 32;
    spec.heap_pages = app.heap_pages();
    spec.threads_in_syscall = 4;
    Workload {
        name: "SSDB",
        spec,
        app: Box::new(app),
        behavior: Some(Box::new(YcsbBehavior::new(clients, scale))),
        parallelism: 1.7,
    }
}

/// Node: socket-heavy search/render service; 128 clients to saturate (§VI).
pub fn node(scale: Scale, clients: usize) -> Workload {
    let app = NodeApp::new(scale);
    let mut spec = ContainerSpec::server("node", 10, 3000);
    spec.threads_per_process = 4;
    spec.mapped_files = 40;
    spec.heap_pages = app.heap_pages();
    spec.threads_in_syscall = 3;
    let mut behavior = SiegeBehavior::new(clients, 4096, app.response_len);
    behavior.skip_prefix = 4; // dynamic hit-count prefix
    Workload {
        name: "Node",
        spec,
        app: Box::new(app),
        behavior: Some(Box::new(behavior)),
        parallelism: 1.0,
    }
}

/// Lighttpd: CPU-heavy PHP watermarking across `processes` workers (§VI).
pub fn lighttpd(processes: usize, clients: usize) -> Workload {
    let app = LighttpdApp::new();
    let mut spec = ContainerSpec::server("lighttpd", 10, 80);
    spec.processes = processes;
    spec.threads_per_process = 1;
    spec.mapped_files = 22;
    spec.heap_pages = app.heap_pages();
    let behavior = SiegeBehavior::new(clients, 1024, app.response_len);
    Workload {
        name: "Lighttpd",
        spec,
        app: Box::new(app),
        behavior: Some(Box::new(behavior)),
        parallelism: processes as f64 * 0.99,
    }
}

/// DJCMS: nginx + Python + MySQL dashboard pipeline (§VI).
pub fn djcms(clients: usize) -> Workload {
    let app = DjcmsApp::new();
    let mut spec = ContainerSpec::server("djcms", 10, 8000);
    spec.processes = 3;
    spec.threads_per_process = 2;
    spec.mapped_files = 64;
    spec.heap_pages = app.heap_pages();
    spec.threads_in_syscall = 2;
    let behavior = SiegeBehavior::new(clients, 256, app.response_len);
    Workload {
        name: "DJCMS",
        spec,
        app: Box::new(app),
        behavior: Some(Box::new(behavior)),
        parallelism: 1.41,
    }
}

/// PARSEC streamcluster with `threads` worker threads (§VI, §VII-C), run
/// continuously: every measurement reads steady-state throughput, so the
/// app never reports `done`.
pub fn streamcluster(scale: Scale, threads: usize) -> Workload {
    let mut app = StreamclusterApp::new(scale);
    app.passes = u32::MAX;
    let mut spec = ContainerSpec::batch("streamcluster", 10);
    spec.threads_per_process = threads;
    spec.mapped_files = 12;
    spec.heap_pages = app.heap_pages();
    Workload {
        name: "Streamcluster",
        spec,
        app: Box::new(app),
        behavior: None,
        parallelism: threads as f64 * 0.98,
    }
}

/// PARSEC swaptions (§VI), run continuously like [`streamcluster`].
pub fn swaptions(scale: Scale, threads: usize) -> Workload {
    let mut app = SwaptionsApp::new(scale);
    app.swaptions = u32::MAX;
    let mut spec = ContainerSpec::batch("swaptions", 10);
    spec.threads_per_process = threads;
    spec.mapped_files = 10;
    spec.heap_pages = app.heap_pages();
    Workload {
        name: "Swaptions",
        spec,
        app: Box::new(app),
        behavior: None,
        parallelism: threads as f64 * 0.99,
    }
}

/// `Net` echo microbenchmark (§VII-B): 10-byte echo.
pub fn net_echo(clients: usize) -> Workload {
    let mut spec = ContainerSpec::server("net", 10, 7777);
    spec.threads_per_process = 1;
    spec.mapped_files = 6;
    spec.heap_pages = 64;
    Workload {
        name: "Net",
        spec,
        app: Box::new(NetEchoApp::new()),
        behavior: Some(Box::new(EchoBehavior::new(clients, 10, 10))),
        parallelism: 1.0,
    }
}

/// Stack-echo validation microbenchmark (§VII-A): random-size echoes staged
/// through guest stack memory.
pub fn stack_echo(clients: usize, max_len: usize) -> Workload {
    let mut spec = ContainerSpec::server("stack-echo", 10, 7778);
    spec.threads_per_process = 2;
    spec.mapped_files = 6;
    spec.heap_pages = 64;
    Workload {
        name: "StackEcho",
        spec,
        app: Box::new(StackEchoApp::new()),
        behavior: Some(Box::new(EchoBehavior::new(
            clients,
            1,
            max_len.min(StackEchoApp::MAX_MSG),
        ))),
        parallelism: 1.0,
    }
}

/// File/disk validation microbenchmark (§VII-A): random read/write mix with
/// in-guest mirror verification.
pub fn stress_fs(file_size: u64) -> Workload {
    let app = StressFsApp::new(file_size);
    let mut spec = ContainerSpec::batch("stress-fs", 10);
    spec.threads_per_process = 1;
    spec.mapped_files = 6;
    spec.heap_pages = app.heap_pages();
    Workload {
        name: "StressFs",
        spec,
        app: Box::new(app),
        behavior: None,
        parallelism: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_container::{ContainerRuntime, GuestCtx};
    use nilicon_sim::kernel::Kernel;

    #[test]
    fn batch_builders_run_past_the_apps_finite_defaults() {
        // Two 1024-point chunks per pass: 6 passes end at step 12, and
        // swaptions' default count at step 128.
        let scale = Scale {
            sc_points: 2048,
            sw_trials: 1,
            ..Scale::small()
        };
        for (mut w, steps) in [(streamcluster(scale, 4), 20), (swaptions(scale, 4), 200)] {
            let mut k = Kernel::default();
            let pid = ContainerRuntime::create(&mut k, &w.spec)
                .unwrap()
                .init_pid();
            w.app.init(&mut GuestCtx::new(&mut k, pid, 0)).unwrap();
            for i in 0..steps {
                let done = w.app.step(&mut GuestCtx::new(&mut k, pid, i)).unwrap().done;
                assert!(!done, "{} reported done at step {i}", w.name);
            }
        }
    }

    #[test]
    fn node_uses_128_clients() {
        let w = node(Scale::small(), 128);
        assert_eq!(w.behavior.as_ref().unwrap().client_count(), 128);
    }

    #[test]
    fn lighttpd_process_sweep_shapes() {
        for n in [1, 4, 8] {
            let w = lighttpd(n, 8);
            assert_eq!(w.spec.processes, n);
            assert!((w.parallelism - n as f64 * 0.99).abs() < 1e-9);
        }
    }
}
