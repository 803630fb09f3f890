//! The infrequently-modified in-kernel state cache (§V-B) — NiLiCon's single
//! most effective optimization (Table I: 619% → 84%).
//!
//! Control groups, namespaces, mount points, device files, and memory-mapped
//! files rarely change between 30 ms checkpoints, yet stock CRIU re-collects
//! them every time (~160 ms for streamcluster). NiLiCon caches the collected
//! values and re-collects a component only when an ftrace hook reports that a
//! kernel function which can mutate it actually ran.

use crate::image::CheckpointImage;
use nilicon_container::Container;
use nilicon_sim::ftrace::StateComponent;
use nilicon_sim::ids::Pid;
use nilicon_sim::kernel::Kernel;
use nilicon_sim::SimResult;
use std::collections::HashSet;

/// Cached values of the five infrequently-modified components.
#[derive(Debug, Default)]
pub struct InfrequentCache {
    namespaces: Option<Vec<nilicon_sim::ns::Namespace>>,
    cgroups: Option<Vec<nilicon_sim::cgroup::Cgroup>>,
    mounts: Option<Vec<nilicon_sim::fs::Mount>>,
    devfiles: Option<Vec<nilicon_sim::fs::Inode>>,
    /// Mapped-file stat results are valid (the VMAs themselves are collected
    /// each epoch; the expensive part is the per-file `stat` calls).
    mapped_files_valid: HashSet<Pid>,
    recollections: u64,
    hits: u64,
}

impl InfrequentCache {
    /// Empty (cold) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply pending ftrace change signals: invalidate exactly the signalled
    /// components (§V-B's "signal is sent to the primary agent").
    pub fn apply_signals(&mut self, signals: &[StateComponent]) {
        for s in signals {
            match s {
                StateComponent::Namespaces => self.namespaces = None,
                StateComponent::Cgroups => self.cgroups = None,
                StateComponent::Mounts => self.mounts = None,
                StateComponent::DeviceFiles => self.devfiles = None,
                StateComponent::MappedFiles => self.mapped_files_valid.clear(),
            }
        }
    }

    /// Fill `img`'s infrequently-modified fields, re-collecting (and paying
    /// the kernel's collection costs) only for invalid components.
    pub fn collect_into(
        &mut self,
        kernel: &mut Kernel,
        container: &Container,
        img: &mut CheckpointImage,
    ) -> SimResult<()> {
        // Drain kernel-side signals first.
        let signals = kernel.ftrace.drain_signals();
        self.apply_signals(&signals);

        if self.namespaces.is_none() {
            self.namespaces = Some(kernel.collect_namespaces(&container.ns));
            self.recollections += 1;
            img.stats.infrequent_recollections += 1;
        } else {
            self.hits += 1;
        }
        if self.cgroups.is_none() {
            self.cgroups = Some(kernel.collect_cgroups());
            self.recollections += 1;
            img.stats.infrequent_recollections += 1;
        } else {
            self.hits += 1;
        }
        if self.mounts.is_none() {
            self.mounts = Some(kernel.collect_mounts());
            self.recollections += 1;
            img.stats.infrequent_recollections += 1;
        } else {
            self.hits += 1;
        }
        if self.devfiles.is_none() {
            self.devfiles = Some(kernel.collect_devfiles());
            self.recollections += 1;
            img.stats.infrequent_recollections += 1;
        } else {
            self.hits += 1;
        }
        // Mapped-file stats, per process.
        for &pid in &container.workers {
            if !self.mapped_files_valid.contains(&pid) {
                kernel.stat_mapped_files(pid)?;
                self.mapped_files_valid.insert(pid);
                self.recollections += 1;
                img.stats.infrequent_recollections += 1;
            } else {
                self.hits += 1;
            }
        }

        img.namespaces = self.namespaces.clone().expect("filled above");
        img.cgroups = self.cgroups.clone().expect("filled above");
        img.mounts = self.mounts.clone().expect("filled above");
        img.devfiles = self.devfiles.clone().expect("filled above");
        Ok(())
    }

    /// Lifetime counters `(recollections, cache_hits)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.recollections, self.hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_container::{ContainerRuntime, ContainerSpec};
    use nilicon_sim::ftrace::ALL_COMPONENTS;
    use nilicon_sim::time::MILLISECOND;

    fn setup() -> (Kernel, Container) {
        let mut k = Kernel::default();
        let spec = ContainerSpec::server("redis", 10, 6379);
        let c = ContainerRuntime::create(&mut k, &spec).unwrap();
        (k, c)
    }

    #[test]
    fn first_collection_is_expensive_then_cached() {
        let (mut k, c) = setup();
        let mut cache = InfrequentCache::new();
        k.meter.take();

        let mut img = CheckpointImage::default();
        cache.collect_into(&mut k, &c, &mut img).unwrap();
        let cold = k.meter.take();
        assert!(
            cold >= 150 * MILLISECOND,
            "cold collection ≈160ms (§V-B), got {}ms",
            cold / MILLISECOND
        );
        assert!(!img.namespaces.is_empty());
        assert!(!img.mounts.is_empty());

        // No state changes: second collection is nearly free.
        let mut img2 = CheckpointImage::default();
        cache.collect_into(&mut k, &c, &mut img2).unwrap();
        let warm = k.meter.take();
        assert!(
            warm < MILLISECOND,
            "warm collection must be cheap, got {warm}ns"
        );
        assert_eq!(img2.stats.infrequent_recollections, 0);
        assert_eq!(img2.namespaces.len(), img.namespaces.len());
    }

    #[test]
    fn mount_change_invalidates_only_mounts() {
        let (mut k, c) = setup();
        let mut cache = InfrequentCache::new();
        let mut img = CheckpointImage::default();
        cache.collect_into(&mut k, &c, &mut img).unwrap();
        k.meter.take();

        k.mount("tmpfs", "/scratch", "tmpfs"); // fires the hook
        let mut img2 = CheckpointImage::default();
        cache.collect_into(&mut k, &c, &mut img2).unwrap();
        let cost = k.meter.take();
        assert_eq!(
            img2.stats.infrequent_recollections, 1,
            "only mounts re-collected"
        );
        assert!(cost >= k.costs.mounts_collect);
        assert!(cost < k.costs.mounts_collect + 5 * MILLISECOND);
        assert_eq!(
            img2.mounts.len(),
            img.mounts.len() + 1,
            "fresh value served"
        );
    }

    #[test]
    fn uninstrumented_path_serves_stale_state() {
        // The paper's prototype caveat (§V-B): a mutation through a path the
        // kernel module does not hook is NOT detected — the cache serves the
        // stale value. This test documents that behavior.
        let (mut k, c) = setup();
        let mut cache = InfrequentCache::new();
        let mut img = CheckpointImage::default();
        cache.collect_into(&mut k, &c, &mut img).unwrap();

        // Mutate the mount table *without* going through Kernel::mount.
        k.vfs.mount("sneaky", "/sneaky", "bind");
        let mut img2 = CheckpointImage::default();
        cache.collect_into(&mut k, &c, &mut img2).unwrap();
        assert_eq!(
            img2.mounts.len(),
            img.mounts.len(),
            "stale cache: the sneaky mount is missing (documented prototype gap)"
        );

        // With an explicit invalidation it is picked up.
        cache.apply_signals(&ALL_COMPONENTS);
        let mut img3 = CheckpointImage::default();
        cache.collect_into(&mut k, &c, &mut img3).unwrap();
        assert_eq!(img3.mounts.len(), img.mounts.len() + 1);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let (mut k, c) = setup();
        let mut cache = InfrequentCache::new();
        let mut img = CheckpointImage::default();
        cache.collect_into(&mut k, &c, &mut img).unwrap();
        let (re1, _h1) = cache.counters();
        assert_eq!(re1, 5, "4 components + 1 process worth of mapped files");
        let mut img2 = CheckpointImage::default();
        cache.collect_into(&mut k, &c, &mut img2).unwrap();
        let (re2, h2) = cache.counters();
        assert_eq!(re2, 5);
        assert_eq!(h2, 5);
    }
}
