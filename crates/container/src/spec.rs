//! Container specifications.

use serde::{Deserialize, Serialize};

/// Everything needed to create a container (an OCI-spec-flavored subset).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContainerSpec {
    /// Container name (cgroup path component).
    pub name: String,
    /// UTS hostname.
    pub hostname: String,
    /// Network address on the virtual bridge.
    pub addr: u32,
    /// Executable path inside the rootfs.
    pub exe: String,
    /// Number of worker processes (e.g. lighttpd: 1-8, §VII-C).
    pub processes: usize,
    /// Threads per worker process (e.g. streamcluster: 1-32, §VII-C).
    pub threads_per_process: usize,
    /// Shared-library file mappings per process (drives §V cause (1):
    /// per-mapped-file `stat` costs).
    pub mapped_files: usize,
    /// Heap VMA capacity in pages per process.
    pub heap_pages: u64,
    /// TCP port the application listens on, if it is a server.
    pub listen_port: Option<u16>,
    /// Of each process's threads, how many are typically blocked in a
    /// system call when the freezer hits (affects freeze latency, §V-A).
    pub threads_in_syscall: usize,
}

impl ContainerSpec {
    /// A small default server container.
    pub fn server(name: &str, addr: u32, port: u16) -> Self {
        ContainerSpec {
            name: name.to_string(),
            hostname: name.to_string(),
            addr,
            exe: format!("/usr/bin/{name}"),
            processes: 1,
            threads_per_process: 4,
            mapped_files: 24,
            heap_pages: 4096,
            listen_port: Some(port),
            threads_in_syscall: 2,
        }
    }

    /// A batch (non-interactive) container.
    pub fn batch(name: &str, addr: u32) -> Self {
        ContainerSpec {
            name: name.to_string(),
            hostname: name.to_string(),
            addr,
            exe: format!("/usr/bin/{name}"),
            processes: 1,
            threads_per_process: 4,
            mapped_files: 12,
            heap_pages: 16384,
            listen_port: None,
            threads_in_syscall: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let s = ContainerSpec::server("redis", 10, 6379);
        assert_eq!(s.listen_port, Some(6379));
        let b = ContainerSpec::batch("streamcluster", 11);
        assert!(b.listen_port.is_none());
        assert_eq!(b.exe, "/usr/bin/streamcluster");
    }

    #[test]
    fn spec_roundtrips_serde() {
        let s = ContainerSpec::server("ssdb", 10, 8888);
        let j = serde_json::to_string(&s).unwrap();
        let back: ContainerSpec = serde_json::from_str(&j).unwrap();
        assert_eq!(back.name, "ssdb");
        assert_eq!(back.heap_pages, s.heap_pages);
    }
}
