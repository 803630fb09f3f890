//! Binary serialization of checkpoint images — the equivalent of CRIU's
//! on-disk image files (§IV: at failover the backup agent "uses the
//! committed state to create image files in a format that CRIU expects").
//!
//! The format is a simple length-prefixed TLV container:
//!
//! ```text
//! magic "NLCN" | version u32 | section*           (little endian throughout)
//! section := tag u8 | len u64 | payload[len]
//! ```
//!
//! Sections: metadata (name/addr/epoch/ns), processes, pages, sockets,
//! fs-cache, kernel state (namespaces/cgroups/mounts/devfiles/paths). Page
//! payloads are raw 4 KiB frames preceded by (pid, vpn) keys. Decoding is
//! strict: unknown tags, truncated sections, or trailing bytes are errors —
//! a corrupt image must fail loudly at failover, not restore garbage.

use crate::image::{CheckpointImage, ProcessImage};
use nilicon_sim::ids::{Endpoint, Fd, Ino, Pid, SockId};
use nilicon_sim::mem::{MappedFile, Perms, Vma, VmaKind};
use nilicon_sim::net::{ByteQueue, RepairState};
use nilicon_sim::proc::{FdEntry, RegisterFile, SchedPolicy, Thread, ThreadRunState, Timer};
use nilicon_sim::{SimError, SimResult, PAGE_SIZE};

const MAGIC: &[u8; 4] = b"NLCN";
const VERSION: u32 = 1;

const TAG_META: u8 = 1;
const TAG_PROCESSES: u8 = 2;
const TAG_PAGES: u8 = 3;
const TAG_SOCKETS: u8 = 4;
const TAG_FS: u8 = 5;
const TAG_KERNEL: u8 = 6;

/// Fewest bytes one element of each counted list occupies on the wire (its
/// fixed fields, every embedded list and string empty): the divisor that
/// bounds a decoded count by the bytes its section has left.
mod min_bytes {
    use nilicon_sim::PAGE_SIZE;
    /// pid, ppid, mm, exe length, thread / fd / VMA counts.
    pub const PROCESS: usize = 4 + 4 + 4 + 8 + 4 + 4 + 4;
    /// tid, rip, rsp, 14 registers, sigmask, timer count, sched tag.
    pub const THREAD: usize = 4 + 8 + 8 + 14 * 8 + 8 + 4 + 1;
    pub const TIMER: usize = 8 + 8;
    /// fd, kind tag, a socket id (the shorter entry).
    pub const FD: usize = 4 + 1 + 4;
    /// start, len, perms, kind tag, flags.
    pub const VMA: usize = 8 + 8 + 1 + 1 + 1;
    pub const PAGE: usize = 4 + 8 + PAGE_SIZE;
    pub const LISTENER: usize = 2;
    /// Two endpoints, three sequence numbers, two queue lengths.
    pub const SOCKET: usize = 2 * (4 + 2) + 3 * 4 + 2 * 8;
    pub const FS_PAGE: usize = 8 + 8 + 1 + PAGE_SIZE;
    pub const INODE: usize = 8 + 1 + 8 + 4 + 4 + 4 + 8 + 1;
    pub const NAMESPACE: usize = 4 + 1 + 8;
    pub const CGROUP: usize = 4 + 8 + 8 + 1 + 4 + 8;
    pub const MOUNT: usize = 4 + 3 * 8;
    pub const PATH: usize = 8 + 8;
}

// ----------------------------------------------------------------------
// Little-endian writer/reader helpers
// ----------------------------------------------------------------------

struct W(Vec<u8>);

impl W {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.0.extend_from_slice(v);
    }
    fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
    /// A socket queue, written as [`Self::bytes`] writes its flattened
    /// contents: the length, then the rope's segments in order.
    fn queue(&mut self, q: &ByteQueue) {
        self.u64(q.len() as u64);
        self.0.reserve(q.len());
        for chunk in q.chunks() {
            self.0.extend_from_slice(chunk);
        }
    }
}

struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    fn new(buf: &'a [u8]) -> Self {
        R { buf, pos: 0 }
    }
    /// The next `n` bytes. `n` comes straight off the wire: a length near
    /// `usize::MAX` must fail the bound, not wrap past it.
    fn take(&mut self, n: u64) -> SimResult<&'a [u8]> {
        let end = usize::try_from(n)
            .ok()
            .and_then(|n| self.pos.checked_add(n))
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                SimError::ImageCorrupt(format!(
                    "truncated at {} (+{n} of {})",
                    self.pos,
                    self.buf.len()
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    /// An element count off the wire, checked against what is left of the
    /// section: `n` elements of at least `min_bytes` each must fit in it, so
    /// a hostile count is rejected before anything is reserved for it.
    fn count(&self, n: u64, min_bytes: usize) -> SimResult<usize> {
        let left = (self.buf.len() - self.pos) / min_bytes;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= left)
            .ok_or_else(|| {
                SimError::ImageCorrupt(format!(
                    "count {n} at {} exceeds the {left} elements the section has room for",
                    self.pos
                ))
            })
    }
    /// A `u32` element count ([`Self::count`]).
    fn count32(&mut self, min_bytes: usize) -> SimResult<usize> {
        let n = self.u32()?;
        self.count(n.into(), min_bytes)
    }
    fn u8(&mut self) -> SimResult<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> SimResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> SimResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> SimResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> SimResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn bytes(&mut self) -> SimResult<Vec<u8>> {
        let n = self.u64()?;
        Ok(self.take(n)?.to_vec())
    }
    fn str(&mut self) -> SimResult<String> {
        String::from_utf8(self.bytes()?)
            .map_err(|_| SimError::ImageCorrupt("non-utf8 string".into()))
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ----------------------------------------------------------------------
// Encode
// ----------------------------------------------------------------------

/// Serialize an image to the NLCN binary format.
pub fn encode(img: &CheckpointImage) -> Vec<u8> {
    let mut out = W(Vec::with_capacity(64 + img.pages.len() * (PAGE_SIZE + 16)));
    out.0.extend_from_slice(MAGIC);
    out.u32(VERSION);

    // -------- meta --------
    let mut meta = W(Vec::new());
    meta.u64(img.epoch);
    meta.str(&img.name);
    meta.u32(img.addr);
    match img.ns {
        Some(ns) => {
            meta.u8(1);
            for id in [ns.pid, ns.net, ns.mnt, ns.uts, ns.ipc, ns.user] {
                meta.u32(id.0);
            }
        }
        None => meta.u8(0),
    }
    section(&mut out, TAG_META, meta.0);

    // -------- processes --------
    let mut ps = W(Vec::new());
    ps.u32(img.processes.len() as u32);
    for p in &img.processes {
        ps.u32(p.pid.0);
        ps.u32(p.ppid.0);
        ps.u32(p.mm.0);
        ps.str(&p.exe);
        ps.u32(p.threads.len() as u32);
        for t in &p.threads {
            ps.u32(t.tid.0);
            ps.u64(t.regs.rip);
            ps.u64(t.regs.rsp);
            for g in t.regs.gpr {
                ps.u64(g);
            }
            ps.u64(t.sigmask);
            ps.u32(t.timers.len() as u32);
            for timer in &t.timers {
                ps.u64(timer.expires_at);
                ps.u64(timer.interval);
            }
            match t.sched {
                SchedPolicy::Normal => ps.u8(0),
                SchedPolicy::Batch => ps.u8(1),
                SchedPolicy::Fifo(p) => {
                    ps.u8(2);
                    ps.u8(p);
                }
            }
        }
        ps.u32(p.fds.len() as u32);
        for (fd, entry) in &p.fds {
            ps.u32(fd.0 as u32);
            match entry {
                FdEntry::File { ino, offset, flags } => {
                    ps.u8(0);
                    ps.u64(ino.0);
                    ps.u64(*offset);
                    ps.u32(*flags);
                }
                FdEntry::Socket(sid) => {
                    ps.u8(1);
                    ps.u32(sid.0);
                }
            }
        }
        ps.u32(p.vmas.len() as u32);
        for v in &p.vmas {
            ps.u64(v.start);
            ps.u64(v.len);
            ps.u8(v.perms.r as u8 | (v.perms.w as u8) << 1 | (v.perms.x as u8) << 2);
            match v.kind {
                VmaKind::Anon => ps.u8(0),
                VmaKind::File(mf) => {
                    ps.u8(1);
                    ps.u64(mf.ino.0);
                    ps.u64(mf.file_off);
                }
            }
            ps.u8(v.is_heap as u8 | (v.is_stack as u8) << 1);
        }
    }
    section(&mut out, TAG_PROCESSES, ps.0);

    // -------- pages --------
    let mut pg = W(Vec::new());
    pg.u64(img.pages.len() as u64);
    for (pid, vpn, data) in &img.pages {
        pg.u32(pid.0);
        pg.u64(*vpn);
        pg.0.extend_from_slice(&data[..]);
    }
    section(&mut out, TAG_PAGES, pg.0);

    // -------- sockets --------
    let mut sk = W(Vec::new());
    sk.u32(img.listeners.len() as u32);
    for &port in &img.listeners {
        sk.u16(port);
    }
    sk.u32(img.sockets.len() as u32);
    for s in &img.sockets {
        sk.u32(s.local.addr);
        sk.u16(s.local.port);
        sk.u32(s.remote.addr);
        sk.u16(s.remote.port);
        sk.u32(s.snd_nxt);
        sk.u32(s.snd_una);
        sk.u32(s.rcv_nxt);
        sk.queue(&s.write_queue);
        sk.queue(&s.read_queue);
    }
    section(&mut out, TAG_SOCKETS, sk.0);

    // -------- fs cache --------
    let mut fs = W(Vec::new());
    fs.u64(img.fs_pages.pages.len() as u64);
    for (ino, idx, data, dirty) in &img.fs_pages.pages {
        fs.u64(ino.0);
        fs.u64(*idx);
        fs.u8(*dirty as u8);
        fs.0.extend_from_slice(&data[..]);
    }
    fs.u32(img.fs_inodes.len() as u32);
    for i in &img.fs_inodes {
        encode_inode(&mut fs, i);
    }
    section(&mut out, TAG_FS, fs.0);

    // -------- kernel state --------
    let mut ks = W(Vec::new());
    ks.u32(img.namespaces.len() as u32);
    for ns in &img.namespaces {
        ks.u32(ns.id.0);
        ks.u8(match ns.kind {
            nilicon_sim::ns::NsKind::Pid => 0,
            nilicon_sim::ns::NsKind::Net => 1,
            nilicon_sim::ns::NsKind::Mnt => 2,
            nilicon_sim::ns::NsKind::Uts => 3,
            nilicon_sim::ns::NsKind::Ipc => 4,
            nilicon_sim::ns::NsKind::User => 5,
        });
        ks.bytes(&ns.config);
    }
    ks.u32(img.cgroups.len() as u32);
    for g in &img.cgroups {
        ks.u32(g.id.0);
        ks.str(&g.path);
        ks.u64(g.cpuacct_usage);
        ks.u8(g.frozen as u8);
        ks.u32(g.cpu_shares);
        ks.u64(g.memory_limit);
    }
    ks.u32(img.mounts.len() as u32);
    for m in &img.mounts {
        ks.u32(m.id.0);
        ks.str(&m.source);
        ks.str(&m.target);
        ks.str(&m.fstype);
    }
    ks.u32(img.devfiles.len() as u32);
    for d in &img.devfiles {
        encode_inode(&mut ks, d);
    }
    ks.u32(img.paths.len() as u32);
    for (path, ino) in &img.paths {
        ks.str(path);
        ks.u64(ino.0);
    }
    // Dump stats (for provenance).
    ks.u64(img.stats.dirty_pages);
    ks.u64(img.stats.socket_queue_bytes);
    ks.u64(img.stats.sockets);
    ks.u64(img.stats.stop_time);
    ks.f64(img.stats.infrequent_recollections as f64);
    ks.u64(img.stats.fs_cache_pages);
    section(&mut out, TAG_KERNEL, ks.0);

    out.0
}

fn section(out: &mut W, tag: u8, payload: Vec<u8>) {
    out.u8(tag);
    out.u64(payload.len() as u64);
    out.0.extend_from_slice(&payload);
}

fn encode_inode(w: &mut W, i: &nilicon_sim::fs::Inode) {
    w.u64(i.ino.0);
    w.u8(match i.kind {
        nilicon_sim::fs::InodeKind::Regular => 0,
        nilicon_sim::fs::InodeKind::Directory => 1,
        nilicon_sim::fs::InodeKind::Device => 2,
    });
    w.u64(i.size);
    w.u32(i.mode);
    w.u32(i.uid);
    w.u32(i.gid);
    w.u64(i.mtime);
    w.u8(i.dnc as u8);
}

// ----------------------------------------------------------------------
// Decode
// ----------------------------------------------------------------------

/// Parse an NLCN image. Strict: corrupt input is [`SimError::ImageCorrupt`],
/// never a panic, and no length or count read from the input reserves more
/// than the input's own size (`R::take`, `R::count`).
pub fn decode(buf: &[u8]) -> SimResult<CheckpointImage> {
    let mut r = R::new(buf);
    if r.take(4)? != MAGIC {
        return Err(SimError::ImageCorrupt("bad magic".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(SimError::ImageCorrupt(format!(
            "unsupported version {version}"
        )));
    }
    let mut img = CheckpointImage::default();
    let mut seen = [false; 7];
    while !r.done() {
        let tag = r.u8()?;
        let len = r.u64()?;
        let payload = r.take(len)?;
        if (tag as usize) < seen.len() {
            if seen[tag as usize] {
                return Err(SimError::ImageCorrupt(format!("duplicate section {tag}")));
            }
            seen[tag as usize] = true;
        }
        let mut pr = R::new(payload);
        match tag {
            TAG_META => decode_meta(&mut pr, &mut img)?,
            TAG_PROCESSES => decode_processes(&mut pr, &mut img)?,
            TAG_PAGES => decode_pages(&mut pr, &mut img)?,
            TAG_SOCKETS => decode_sockets(&mut pr, &mut img)?,
            TAG_FS => decode_fs(&mut pr, &mut img)?,
            TAG_KERNEL => decode_kernel(&mut pr, &mut img)?,
            other => return Err(SimError::ImageCorrupt(format!("unknown section {other}"))),
        }
        if !pr.done() {
            return Err(SimError::ImageCorrupt(format!(
                "trailing bytes in section {tag}"
            )));
        }
    }
    Ok(img)
}

fn decode_meta(r: &mut R<'_>, img: &mut CheckpointImage) -> SimResult<()> {
    img.epoch = r.u64()?;
    img.name = r.str()?;
    img.addr = r.u32()?;
    if r.u8()? == 1 {
        use nilicon_sim::ids::NsId;
        img.ns = Some(nilicon_sim::ns::NsSet {
            pid: NsId(r.u32()?),
            net: NsId(r.u32()?),
            mnt: NsId(r.u32()?),
            uts: NsId(r.u32()?),
            ipc: NsId(r.u32()?),
            user: NsId(r.u32()?),
        });
    }
    Ok(())
}

fn decode_processes(r: &mut R<'_>, img: &mut CheckpointImage) -> SimResult<()> {
    let n = r.count32(min_bytes::PROCESS)?;
    for _ in 0..n {
        let pid = Pid(r.u32()?);
        let ppid = Pid(r.u32()?);
        let mm = nilicon_sim::ids::AsId(r.u32()?);
        let exe = r.str()?;
        let nthreads = r.count32(min_bytes::THREAD)?;
        let mut threads = Vec::with_capacity(nthreads);
        for _ in 0..nthreads {
            let tid = nilicon_sim::ids::Tid(r.u32()?);
            let rip = r.u64()?;
            let rsp = r.u64()?;
            let mut gpr = [0u64; 14];
            for g in &mut gpr {
                *g = r.u64()?;
            }
            let sigmask = r.u64()?;
            let ntimers = r.count32(min_bytes::TIMER)?;
            let mut timers = Vec::with_capacity(ntimers);
            for _ in 0..ntimers {
                timers.push(Timer {
                    expires_at: r.u64()?,
                    interval: r.u64()?,
                });
            }
            let sched = match r.u8()? {
                0 => SchedPolicy::Normal,
                1 => SchedPolicy::Batch,
                2 => SchedPolicy::Fifo(r.u8()?),
                x => return Err(SimError::ImageCorrupt(format!("bad sched {x}"))),
            };
            threads.push(Thread {
                tid,
                regs: RegisterFile { rip, rsp, gpr },
                sigmask,
                timers,
                sched,
                run_state: ThreadRunState::User,
                // Recording aid, not guest state: replay re-derives the
                // scheduling sequence from the log, so restores start at 0.
            });
        }
        let nfds = r.count32(min_bytes::FD)?;
        let mut fds = Vec::with_capacity(nfds);
        for _ in 0..nfds {
            let fd = Fd(r.u32()? as i32);
            let entry = match r.u8()? {
                0 => FdEntry::File {
                    ino: Ino(r.u64()?),
                    offset: r.u64()?,
                    flags: r.u32()?,
                },
                1 => FdEntry::Socket(SockId(r.u32()?)),
                x => return Err(SimError::ImageCorrupt(format!("bad fd kind {x}"))),
            };
            fds.push((fd, entry));
        }
        let nvmas = r.count32(min_bytes::VMA)?;
        let mut vmas = Vec::with_capacity(nvmas);
        for _ in 0..nvmas {
            let start = r.u64()?;
            let len = r.u64()?;
            let pbits = r.u8()?;
            let perms = Perms {
                r: pbits & 1 != 0,
                w: pbits & 2 != 0,
                x: pbits & 4 != 0,
            };
            let kind = match r.u8()? {
                0 => VmaKind::Anon,
                1 => VmaKind::File(MappedFile {
                    ino: Ino(r.u64()?),
                    file_off: r.u64()?,
                }),
                x => return Err(SimError::ImageCorrupt(format!("bad vma kind {x}"))),
            };
            let flags = r.u8()?;
            vmas.push(Vma {
                start,
                len,
                perms,
                kind,
                is_heap: flags & 1 != 0,
                is_stack: flags & 2 != 0,
            });
        }
        img.processes.push(ProcessImage {
            pid,
            ppid,
            mm,
            exe,
            threads,
            fds,
            vmas,
        });
    }
    Ok(())
}

fn decode_pages(r: &mut R<'_>, img: &mut CheckpointImage) -> SimResult<()> {
    let n = r.u64()?;
    let n = r.count(n, min_bytes::PAGE)?;
    img.pages.reserve(n);
    for _ in 0..n {
        let pid = Pid(r.u32()?);
        let vpn = r.u64()?;
        let data = r.take(PAGE_SIZE as u64)?;
        let mut page = [0u8; PAGE_SIZE];
        page.copy_from_slice(data);
        img.pages.push((pid, vpn, std::rc::Rc::new(page)));
    }
    Ok(())
}

fn decode_sockets(r: &mut R<'_>, img: &mut CheckpointImage) -> SimResult<()> {
    let nl = r.count32(min_bytes::LISTENER)?;
    for _ in 0..nl {
        img.listeners.push(r.u16()?);
    }
    let ns = r.count32(min_bytes::SOCKET)?;
    for _ in 0..ns {
        img.sockets.push(RepairState {
            local: Endpoint::new(r.u32()?, r.u16()?),
            remote: Endpoint::new(r.u32()?, r.u16()?),
            snd_nxt: r.u32()?,
            snd_una: r.u32()?,
            rcv_nxt: r.u32()?,
            write_queue: r.bytes()?.into(),
            read_queue: r.bytes()?.into(),
        });
    }
    Ok(())
}

fn decode_fs(r: &mut R<'_>, img: &mut CheckpointImage) -> SimResult<()> {
    let n = r.u64()?;
    let n = r.count(n, min_bytes::FS_PAGE)?;
    for _ in 0..n {
        let ino = Ino(r.u64()?);
        let idx = r.u64()?;
        let dirty = r.u8()? != 0;
        let data = r.take(PAGE_SIZE as u64)?;
        let mut page = Box::new([0u8; PAGE_SIZE]);
        page.copy_from_slice(data);
        img.fs_pages.pages.push((ino, idx, page, dirty));
    }
    let ni = r.count32(min_bytes::INODE)?;
    for _ in 0..ni {
        img.fs_inodes.push(decode_inode(r)?);
    }
    Ok(())
}

fn decode_inode(r: &mut R<'_>) -> SimResult<nilicon_sim::fs::Inode> {
    Ok(nilicon_sim::fs::Inode {
        ino: Ino(r.u64()?),
        kind: match r.u8()? {
            0 => nilicon_sim::fs::InodeKind::Regular,
            1 => nilicon_sim::fs::InodeKind::Directory,
            2 => nilicon_sim::fs::InodeKind::Device,
            x => return Err(SimError::ImageCorrupt(format!("bad inode kind {x}"))),
        },
        size: r.u64()?,
        mode: r.u32()?,
        uid: r.u32()?,
        gid: r.u32()?,
        mtime: r.u64()?,
        dnc: r.u8()? != 0,
    })
}

fn decode_kernel(r: &mut R<'_>, img: &mut CheckpointImage) -> SimResult<()> {
    use nilicon_sim::ns::{Namespace, NsKind};
    let n = r.count32(min_bytes::NAMESPACE)?;
    for _ in 0..n {
        let id = nilicon_sim::ids::NsId(r.u32()?);
        let kind = match r.u8()? {
            0 => NsKind::Pid,
            1 => NsKind::Net,
            2 => NsKind::Mnt,
            3 => NsKind::Uts,
            4 => NsKind::Ipc,
            5 => NsKind::User,
            x => return Err(SimError::ImageCorrupt(format!("bad ns kind {x}"))),
        };
        img.namespaces.push(Namespace {
            id,
            kind,
            config: r.bytes()?,
        });
    }
    let n = r.count32(min_bytes::CGROUP)?;
    for _ in 0..n {
        img.cgroups.push(nilicon_sim::cgroup::Cgroup {
            id: nilicon_sim::ids::CgroupId(r.u32()?),
            path: r.str()?,
            cpuacct_usage: r.u64()?,
            frozen: r.u8()? != 0,
            cpu_shares: r.u32()?,
            memory_limit: r.u64()?,
        });
    }
    let n = r.count32(min_bytes::MOUNT)?;
    for _ in 0..n {
        img.mounts.push(nilicon_sim::fs::Mount {
            id: nilicon_sim::ids::MountId(r.u32()?),
            source: r.str()?,
            target: r.str()?,
            fstype: r.str()?,
        });
    }
    let n = r.count32(min_bytes::INODE)?;
    for _ in 0..n {
        img.devfiles.push(decode_inode(r)?);
    }
    let n = r.count32(min_bytes::PATH)?;
    for _ in 0..n {
        img.paths.push((r.str()?, Ino(r.u64()?)));
    }
    img.stats.dirty_pages = r.u64()?;
    img.stats.socket_queue_bytes = r.u64()?;
    img.stats.sockets = r.u64()?;
    img.stats.stop_time = r.u64()?;
    img.stats.infrequent_recollections = r.f64()? as u32;
    img.stats.fs_cache_pages = r.u64()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::{full_dump, DumpConfig};
    use nilicon_container::{ContainerRuntime, ContainerSpec, MemLayout};
    use nilicon_sim::kernel::Kernel;

    fn sample_image() -> CheckpointImage {
        let mut k = Kernel::default();
        let spec = ContainerSpec::server("imgtest", 10, 80);
        let c = ContainerRuntime::create(&mut k, &spec).unwrap();
        k.mem_write(c.init_pid(), MemLayout::heap(0), b"serialize me")
            .unwrap();
        let pid = c.init_pid();
        let fd = k.create_file(pid, "/data/f", 0).unwrap();
        k.pwrite(pid, fd, 0, b"cache", 1).unwrap();
        full_dump(&mut k, &c, &DumpConfig::nilicon()).unwrap()
    }

    fn images_equal(a: &CheckpointImage, b: &CheckpointImage) {
        assert_eq!(a.epoch, b.epoch);
        assert_eq!(a.name, b.name);
        assert_eq!(a.addr, b.addr);
        assert_eq!(a.ns, b.ns);
        assert_eq!(a.processes.len(), b.processes.len());
        for (p, q) in a.processes.iter().zip(&b.processes) {
            assert_eq!(p.pid, q.pid);
            assert_eq!(p.exe, q.exe);
            assert_eq!(p.fds, q.fds);
            assert_eq!(p.vmas, q.vmas);
            assert_eq!(p.threads.len(), q.threads.len());
            for (t, u) in p.threads.iter().zip(&q.threads) {
                assert_eq!(t.tid, u.tid);
                assert_eq!(t.regs, u.regs);
                assert_eq!(t.sigmask, u.sigmask);
                assert_eq!(t.timers, u.timers);
                assert_eq!(t.sched, u.sched);
            }
        }
        assert_eq!(a.pages.len(), b.pages.len());
        for ((p1, v1, d1), (p2, v2, d2)) in a.pages.iter().zip(&b.pages) {
            assert_eq!((p1, v1), (p2, v2));
            assert_eq!(d1[..], d2[..]);
        }
        assert_eq!(a.listeners, b.listeners);
        assert_eq!(a.sockets, b.sockets);
        assert_eq!(a.fs_pages.pages.len(), b.fs_pages.pages.len());
        assert_eq!(a.fs_inodes, b.fs_inodes);
        assert_eq!(a.namespaces, b.namespaces);
        assert_eq!(a.mounts, b.mounts);
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.stats.dirty_pages, b.stats.dirty_pages);
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let img = sample_image();
        let bytes = encode(&img);
        assert_eq!(&bytes[..4], b"NLCN");
        let back = decode(&bytes).unwrap();
        images_equal(&img, &back);
    }

    #[test]
    fn restore_from_decoded_image_works() {
        let img = sample_image();
        let bytes = encode(&img);
        let back = decode(&bytes).unwrap();
        let mut dest = Kernel::default();
        let restored =
            crate::restore::restore_container(&mut dest, &back, &Default::default()).unwrap();
        let mut buf = [0u8; 12];
        dest.mem_read(restored.container.init_pid(), MemLayout::heap(0), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"serialize me");
    }

    #[test]
    fn corrupt_inputs_error_cleanly() {
        let img = sample_image();
        let good = encode(&img);

        assert!(decode(b"XXXX").is_err(), "bad magic");
        let mut wrong_ver = good.clone();
        wrong_ver[4] = 99;
        assert!(decode(&wrong_ver).is_err(), "bad version");

        // Truncations at every section boundary-ish offset.
        for cut in [5usize, 13, 40, good.len() / 2, good.len() - 1] {
            assert!(decode(&good[..cut]).is_err(), "truncated at {cut}");
        }

        // Unknown trailing section.
        let mut trailing = good.clone();
        trailing.push(42);
        assert!(decode(&trailing).is_err());
    }

    #[test]
    fn size_is_dominated_by_pages() {
        let img = sample_image();
        let bytes = encode(&img);
        let page_bytes = img.pages.len() * PAGE_SIZE;
        assert!(bytes.len() > page_bytes);
        assert!(
            bytes.len() < page_bytes + 64 * 1024,
            "metadata overhead is modest"
        );
    }
}
