//! Paths, inode table, mounts — the VFS facade over cache + block device.

use super::inode::{Inode, InodeKind};
use super::pagecache::{FsCacheCheckpoint, PageCache};
use crate::block::BlockDevice;
use crate::error::{SimError, SimResult};
use crate::ids::{DevId, IdAlloc, IdMap, Ino, MountId};
use crate::PAGE_SIZE;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One mount-table entry (part of the infrequently-modified state set).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mount {
    /// Mount id.
    pub id: MountId,
    /// Source (device or pseudo-fs name).
    pub source: String,
    /// Mount point path.
    pub target: String,
    /// Filesystem type ("ext4", "proc", "overlay", ...).
    pub fstype: String,
}

/// Aggregate VFS statistics used by checkpoint cost accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsStats {
    /// Regular + directory inodes.
    pub inodes: usize,
    /// Device inodes (checkpointed in the infrequently-modified set).
    pub device_files: usize,
    /// Mount entries.
    pub mounts: usize,
}

/// The VFS of one kernel: inode table, path map, page cache, mounts, and the
/// backing block device.
#[derive(Debug)]
pub struct Vfs {
    /// Walks sort (`fgetfc`) or only count.
    inodes: IdMap<Ino, Inode>,
    /// Absolute path -> inode. A flat map: full directory-tree semantics are
    /// not needed by any replication code path, and a flat map keeps lookups
    /// honest and simple.
    paths: BTreeMap<String, Ino>,
    /// The page cache (public for checkpoint code paths).
    pub cache: PageCache,
    /// Backing block device (public: DRBD hooks drain its write log).
    pub disk: BlockDevice,
    mounts: Vec<Mount>,
    ino_alloc: IdAlloc,
    mnt_alloc: IdAlloc,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new(DevId(0))
    }
}

impl Vfs {
    /// Fresh VFS with a root directory and a backing device.
    pub fn new(dev: DevId) -> Self {
        let mut v = Vfs {
            inodes: IdMap::default(),
            paths: BTreeMap::new(),
            cache: PageCache::new(),
            disk: BlockDevice::new(dev),
            mounts: Vec::new(),
            ino_alloc: IdAlloc::starting_at(2), // ino 1 = root
            mnt_alloc: IdAlloc::default(),
        };
        let root = Inode::directory(Ino(1));
        v.inodes.insert(Ino(1), root);
        v.paths.insert("/".to_string(), Ino(1));
        v
    }

    // ------------------------------------------------------------------
    // Namespace operations
    // ------------------------------------------------------------------

    /// Create a file/directory/device at `path`.
    pub fn create(&mut self, path: &str, kind: InodeKind, now: u64) -> SimResult<Ino> {
        if self.paths.contains_key(path) {
            return Err(SimError::PathExists(path.to_string()));
        }
        let ino = Ino(self.ino_alloc.alloc());
        let mut inode = match kind {
            InodeKind::Regular => Inode::regular(ino),
            InodeKind::Directory => Inode::directory(ino),
            InodeKind::Device => Inode::device(ino),
        };
        inode.mtime = now;
        self.inodes.insert(ino, inode);
        self.paths.insert(path.to_string(), ino);
        Ok(ino)
    }

    /// Look up a path.
    pub fn lookup(&self, path: &str) -> SimResult<Ino> {
        self.paths
            .get(path)
            .copied()
            .ok_or_else(|| SimError::NoSuchPath(path.to_string()))
    }

    /// Inode metadata.
    pub fn inode(&self, ino: Ino) -> SimResult<&Inode> {
        self.inodes.get(&ino).ok_or(SimError::NoSuchInode(ino))
    }

    /// Mutable inode metadata.
    pub fn inode_mut(&mut self, ino: Ino) -> SimResult<&mut Inode> {
        self.inodes.get_mut(&ino).ok_or(SimError::NoSuchInode(ino))
    }

    // ------------------------------------------------------------------
    // Data operations (through the page cache)
    // ------------------------------------------------------------------

    /// Positional write.
    pub fn pwrite(&mut self, ino: Ino, offset: u64, data: &[u8], now: u64) -> SimResult<usize> {
        // Validate before mutating.
        self.inode(ino)?;
        let mut written = 0usize;
        let mut cur = offset;
        while written < data.len() {
            let page_idx = cur / PAGE_SIZE as u64;
            let in_page = (cur % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(data.len() - written);
            let chunk = &data[written..written + n];
            self.cache.write(&self.disk, ino, page_idx, in_page, chunk);
            written += n;
            cur += n as u64;
        }
        let inode = self.inode_mut(ino).expect("validated above");
        inode.size = inode.size.max(offset + data.len() as u64);
        inode.touch_meta(now);
        Ok(written)
    }

    /// Positional read (short reads at EOF).
    pub fn pread(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> SimResult<usize> {
        let size = self.inode(ino)?.size;
        if offset >= size {
            return Ok(0);
        }
        let to_read = buf.len().min((size - offset) as usize);
        let mut read = 0usize;
        let mut cur = offset;
        while read < to_read {
            let page_idx = cur / PAGE_SIZE as u64;
            let in_page = (cur % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(to_read - read);
            self.cache
                .read(&self.disk, ino, page_idx, in_page, &mut buf[read..read + n]);
            read += n;
            cur += n as u64;
        }
        Ok(read)
    }

    /// `fsync`: write back the inode's dirty cache pages to the block device
    /// (generating replicated disk writes). Returns pages written.
    pub fn fsync(&mut self, ino: Ino) -> SimResult<usize> {
        self.inode(ino)?;
        Ok(self.cache.flush(&mut self.disk, Some(ino)))
    }

    // ------------------------------------------------------------------
    // Mounts
    // ------------------------------------------------------------------

    /// Add a mount entry.
    pub fn mount(&mut self, source: &str, target: &str, fstype: &str) -> MountId {
        let id = MountId(self.mnt_alloc.alloc() as u32);
        self.mounts.push(Mount {
            id,
            source: source.to_string(),
            target: target.to_string(),
            fstype: fstype.to_string(),
        });
        id
    }

    /// Mount table snapshot.
    pub fn mounts(&self) -> &[Mount] {
        &self.mounts
    }

    // ------------------------------------------------------------------
    // Checkpoint support
    // ------------------------------------------------------------------

    /// `fgetfc` (§III): collect DNC page-cache entries *and* DNC inodes,
    /// clearing both DNC sets.
    pub fn fgetfc(&mut self) -> (FsCacheCheckpoint, Vec<Inode>) {
        let pages = self.cache.fgetfc();
        let mut dnc_inodes: Vec<Inode> = self
            .inodes
            .values_mut()
            .filter(|i| i.dnc)
            .map(|i| {
                i.dnc = false;
                i.clone()
            })
            .collect();
        dnc_inodes.sort_by_key(|i| i.ino);
        (pages, dnc_inodes)
    }

    /// Restore a checkpointed cache + inode set at failover.
    pub fn install_fs_state(&mut self, pages: &FsCacheCheckpoint, inodes: &[Inode]) {
        self.cache.install(pages);
        for inode in inodes {
            let mut i = inode.clone();
            i.dnc = false;
            self.inodes.insert(i.ino, i);
        }
    }

    /// Re-associate paths at restore (the path map travels with the mount
    /// image in real CRIU; we restore it explicitly).
    pub fn install_path(&mut self, path: &str, ino: Ino) {
        self.paths.insert(path.to_string(), ino);
    }

    /// All `(path, ino)` pairs, for checkpointing.
    pub fn paths(&self) -> impl Iterator<Item = (&String, &Ino)> {
        self.paths.iter()
    }

    /// Statistics for checkpoint cost accounting.
    pub fn stats(&self) -> VfsStats {
        VfsStats {
            inodes: self.inodes.len(),
            device_files: self
                .inodes
                .values()
                .filter(|i| i.kind == InodeKind::Device)
                .count(),
            mounts: self.mounts.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vfs() -> Vfs {
        Vfs::new(DevId(1))
    }

    #[test]
    fn create_and_lookup() {
        let mut v = vfs();
        let ino = v.create("/data/file1", InodeKind::Regular, 5).unwrap();
        assert_eq!(v.lookup("/data/file1").unwrap(), ino);
        assert_eq!(v.inode(ino).unwrap().mtime, 5);
        assert!(matches!(
            v.create("/data/file1", InodeKind::Regular, 6),
            Err(SimError::PathExists(_))
        ));
        assert!(v.lookup("/data/file2").is_err());
    }

    #[test]
    fn pwrite_pread_roundtrip_across_pages() {
        let mut v = vfs();
        let ino = v.create("/f", InodeKind::Regular, 0).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        v.pwrite(ino, 100, &data, 1).unwrap();
        assert_eq!(v.inode(ino).unwrap().size, 10_100);
        let mut buf = vec![0u8; 10_000];
        let n = v.pread(ino, 100, &mut buf).unwrap();
        assert_eq!(n, 10_000);
        assert_eq!(buf, data);
    }

    #[test]
    fn pread_short_at_eof() {
        let mut v = vfs();
        let ino = v.create("/f", InodeKind::Regular, 0).unwrap();
        v.pwrite(ino, 0, b"12345", 0).unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(v.pread(ino, 0, &mut buf).unwrap(), 5);
        assert_eq!(v.pread(ino, 5, &mut buf).unwrap(), 0);
        assert_eq!(v.pread(ino, 3, &mut buf).unwrap(), 2);
    }

    #[test]
    fn fsync_pushes_to_disk() {
        let mut v = vfs();
        let ino = v.create("/f", InodeKind::Regular, 0).unwrap();
        v.pwrite(ino, 0, b"persist", 0).unwrap();
        assert_eq!(v.disk.pending_writes(), 0, "no writeback before fsync");
        let n = v.fsync(ino).unwrap();
        assert_eq!(n, 1);
        assert_eq!(v.disk.pending_writes(), 1);
        assert_eq!(&v.disk.read_page(ino, 0).unwrap()[..7], b"persist");
    }

    #[test]
    fn read_after_cache_eviction_semantics() {
        // Data written + fsynced, then read back through a *fresh* cache:
        // contents must come from the device.
        let mut v = vfs();
        let ino = v.create("/f", InodeKind::Regular, 0).unwrap();
        v.pwrite(ino, 0, b"durable", 0).unwrap();
        v.fsync(ino).unwrap();
        v.cache = PageCache::new(); // simulate eviction
        let mut buf = [0u8; 7];
        assert_eq!(v.pread(ino, 0, &mut buf).unwrap(), 7);
        assert_eq!(&buf, b"durable");
    }

    #[test]
    fn fgetfc_pairs_pages_and_inodes() {
        let mut v = vfs();
        let a = v.create("/a", InodeKind::Regular, 0).unwrap();
        let b = v.create("/b", InodeKind::Regular, 0).unwrap();
        v.pwrite(a, 0, b"x", 1).unwrap();
        let (pages, inodes) = v.fgetfc();
        assert_eq!(pages.pages.len(), 1);
        // Root dir + /a + /b all have fresh (DNC) metadata.
        assert_eq!(inodes.len(), 3);
        // Second collection with only an ownership change on /b.
        let inode = v.inode_mut(b).unwrap();
        (inode.uid, inode.gid) = (1000, 1000);
        inode.touch_meta(2);
        let (pages2, inodes2) = v.fgetfc();
        assert!(pages2.pages.is_empty());
        assert_eq!(inodes2.len(), 1);
        assert_eq!(inodes2[0].uid, 1000);
    }

    #[test]
    fn install_fs_state_restores() {
        let mut src = vfs();
        let ino = src.create("/kv", InodeKind::Regular, 0).unwrap();
        src.pwrite(ino, 0, b"value!", 3).unwrap();
        let (pages, inodes) = src.fgetfc();

        let mut dst = vfs();
        dst.install_fs_state(&pages, &inodes);
        dst.install_path("/kv", ino);
        let got = dst.lookup("/kv").unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(dst.pread(got, 0, &mut buf).unwrap(), 6);
        assert_eq!(&buf, b"value!");
        // dst's own root (ino 1) is overwritten by the restored root, plus
        // the restored /kv inode.
        assert_eq!(dst.stats().inodes, 2);
    }

    #[test]
    fn mounts_and_stats() {
        let mut v = vfs();
        v.mount("overlay", "/", "overlay");
        v.mount("proc", "/proc", "proc");
        v.create("/dev/null", InodeKind::Device, 0).unwrap();
        let s = v.stats();
        assert_eq!(s.mounts, 2);
        assert_eq!(s.device_files, 1);
        assert_eq!(v.mounts().len(), 2);
    }
}
