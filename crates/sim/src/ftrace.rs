//! ftrace-style kernel-function hooks.
//!
//! NiLiCon's most effective optimization (§V-B) caches the infrequently-
//! modified in-kernel state components (control groups, namespaces, mount
//! points, device files, memory-mapped files) and only re-collects one when
//! it actually changed. Change detection uses a kernel module that hooks the
//! kernel functions which can mutate those components; when a hook's checks
//! indicate a container-visible change, the primary agent is signalled.
//!
//! The paper notes the prototype instruments only "the most common paths" —
//! we model that too: hooks are registered per function name, and a mutation
//! through an *unhooked* path is silently missed (exercised by an ablation
//! test).

use std::collections::{HashMap, HashSet};

/// The cacheable infrequently-modified state components (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateComponent {
    /// Control groups.
    Cgroups,
    /// Namespaces.
    Namespaces,
    /// Mount points.
    Mounts,
    /// Device files.
    DeviceFiles,
    /// Memory-mapped files.
    MappedFiles,
}

/// All components, fixed order.
pub const ALL_COMPONENTS: [StateComponent; 5] = [
    StateComponent::Cgroups,
    StateComponent::Namespaces,
    StateComponent::Mounts,
    StateComponent::DeviceFiles,
    StateComponent::MappedFiles,
];

/// Kernel functions that can mutate infrequently-modified state. The set is
/// intentionally *not* exhaustive (mirroring the paper's prototype): the
/// default registration covers the common paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelFn {
    /// `do_mount`
    Mount,
    /// `ksys_umount`
    Umount,
    /// `cgroup_attach_task` / limit writes
    CgroupModify,
    /// `setns` / namespace config updates
    NsModify,
    /// `mknod`
    Mknod,
    /// `do_mmap` of a file mapping
    MmapFile,
    /// `munmap` of a file mapping
    MunmapFile,
    /// An uncommon path the prototype does not instrument (e.g. a rename
    /// race through a bind mount) — used by the coverage-gap ablation.
    UncommonPath,
}

/// The hook registry: which kernel functions notify which components.
#[derive(Debug, Default)]
pub struct FtraceHooks {
    hooks: HashMap<KernelFn, StateComponent>,
    /// Components flagged changed since the agent last drained signals.
    pending: HashSet<StateComponent>,
}

impl FtraceHooks {
    /// Empty registry (no hooks — every mutation is missed).
    pub fn new() -> Self {
        Self::default()
    }

    /// The default NiLiCon registration: common paths only (§V-B —
    /// "our implementation only covers the most common paths and that was
    /// sufficient for all of our benchmarks"). [`KernelFn::UncommonPath`] is
    /// deliberately left unhooked.
    pub fn with_default_hooks() -> Self {
        let mut h = Self::new();
        h.register(KernelFn::Mount, StateComponent::Mounts);
        h.register(KernelFn::Umount, StateComponent::Mounts);
        h.register(KernelFn::CgroupModify, StateComponent::Cgroups);
        h.register(KernelFn::NsModify, StateComponent::Namespaces);
        h.register(KernelFn::Mknod, StateComponent::DeviceFiles);
        h.register(KernelFn::MmapFile, StateComponent::MappedFiles);
        h.register(KernelFn::MunmapFile, StateComponent::MappedFiles);
        h
    }

    /// Register a hook: calls to `func` invalidate `component`.
    pub fn register(&mut self, func: KernelFn, component: StateComponent) {
        self.hooks.insert(func, component);
    }

    /// Called by kernel code on every invocation of a hookable function.
    /// (ftrace itself has negligible overhead — §V-B — so no cost is
    /// charged here.)
    pub fn hit(&mut self, func: KernelFn) {
        if let Some(&c) = self.hooks.get(&func) {
            self.pending.insert(c);
        }
    }

    /// Drain pending change signals (the primary agent does this at each
    /// checkpoint to decide which cached components to re-collect). Sorted
    /// for determinism.
    pub fn drain_signals(&mut self) -> Vec<StateComponent> {
        let mut v: Vec<StateComponent> = ALL_COMPONENTS
            .iter()
            .copied()
            .filter(|c| self.pending.contains(c))
            .collect();
        self.pending.clear();
        v.sort_by_key(|c| ALL_COMPONENTS.iter().position(|x| x == c));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hooks_signal_components() {
        let mut h = FtraceHooks::with_default_hooks();
        h.hit(KernelFn::Mount);
        h.hit(KernelFn::CgroupModify);
        let sigs = h.drain_signals();
        assert_eq!(sigs, vec![StateComponent::Cgroups, StateComponent::Mounts]);
        assert!(h.drain_signals().is_empty(), "drained");
    }

    #[test]
    fn uncommon_path_is_missed() {
        // The paper's explicit prototype caveat: uninstrumented paths do not
        // invalidate the cache.
        let mut h = FtraceHooks::with_default_hooks();
        h.hit(KernelFn::UncommonPath);
        assert!(h.drain_signals().is_empty());
    }

    #[test]
    fn registered_hook_signals_its_component() {
        let mut h = FtraceHooks::new();
        h.hit(KernelFn::Mount);
        assert!(h.drain_signals().is_empty(), "no hooks registered");
        h.register(KernelFn::UncommonPath, StateComponent::Mounts);
        h.hit(KernelFn::UncommonPath);
        assert_eq!(h.drain_signals(), vec![StateComponent::Mounts]);
    }

    #[test]
    fn duplicate_hits_coalesce() {
        let mut h = FtraceHooks::with_default_hooks();
        h.hit(KernelFn::Mount);
        h.hit(KernelFn::Umount);
        h.hit(KernelFn::Mount);
        assert_eq!(h.drain_signals(), vec![StateComponent::Mounts]);
    }
}
