//! # nilicon-criu — CRIU-style checkpoint/restore over `nilicon-sim`
//!
//! Models CRIU 3.11 as used by NiLiCon (§II-B), including the stock
//! implementation's deficiencies and the paper's fixes as toggleable
//! configuration (§V):
//!
//! | Deficiency (stock)                               | Fix (NiLiCon)                   | Toggle |
//! |--------------------------------------------------|---------------------------------|--------|
//! | 100 ms sleep while freezing                      | busy-poll thread states         | [`DumpConfig::freeze`] |
//! | incremental pages in a linked list of directories| 4-level radix tree              | [`pagestore`] impls |
//! | proxy processes relay state transfer             | direct agent-to-agent transfer  | `DumpConfig::via_proxy` |
//! | VMAs via `/proc/pid/smaps` text                  | task-diag netlink               | [`DumpConfig::vma_via`] |
//! | parasite pages through a pipe                    | shared-memory region            | [`DumpConfig::page_via`] |
//! | re-collect all in-kernel state every epoch       | ftrace-invalidated cache (§V-B) | [`cache::InfrequentCache`] |
//! | flush fs cache to a NAS                          | DNC tracking + `fgetfc` (§III)  | [`DumpConfig::fs_cache`] |
//!
//! The dump produces a [`image::CheckpointImage`] holding *real state* (page
//! bytes, socket queues, inode metadata); restore rebuilds a working
//! container from it on any kernel. Restore correctness is exercised
//! end-to-end by the workspace integration tests.

//! ## Example: checkpoint + restore across kernels
//!
//! ```
//! use nilicon_container::{ContainerRuntime, ContainerSpec, MemLayout};
//! use nilicon_criu::{full_dump, restore_container, DumpConfig, RestoreConfig};
//! use nilicon_sim::kernel::Kernel;
//!
//! let mut source = Kernel::default();
//! let spec = ContainerSpec::server("svc", 10, 80);
//! let cont = ContainerRuntime::create(&mut source, &spec).unwrap();
//! source.mem_write(cont.init_pid(), MemLayout::heap(0), b"precious").unwrap();
//!
//! let image = full_dump(&mut source, &cont, &DumpConfig::nilicon()).unwrap();
//!
//! let mut dest = Kernel::default();
//! let restored = restore_container(&mut dest, &image, &RestoreConfig::default()).unwrap();
//! restored.finish(&mut dest).unwrap();
//! let mut buf = [0u8; 8];
//! dest.mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf).unwrap();
//! assert_eq!(&buf, b"precious");
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod delta;
pub mod dump;
pub mod image;
pub mod imgfile;
pub mod pagestore;
pub mod restore;
pub mod shard;

pub use cache::InfrequentCache;
pub use delta::{DeltaStats, PageEncoding, ShadowStore};
pub use dump::{bootstrap_dump, dump_container, full_dump, DirtySource, DumpConfig, FsCacheMode};
pub use image::{unmapped_since, CheckpointImage, DumpPhases, DumpStats, ProcessImage};
pub use imgfile::{decode as decode_image, encode as encode_image};
pub use pagestore::{LinkedListStore, PageKey, PageStore, RadixTreeStore};
pub use restore::{restore_container, RestoreConfig, RestoredContainer};
pub use shard::{end_fragment_round, recycle_fragment, spare_fragments, FragBuf, ShardCodec};
