//! Processes: fd tables, thread groups, namespace/cgroup membership.

use crate::error::{SimError, SimResult};
use crate::ids::{AsId, CgroupId, Fd, Ino, NsId, Pid, SockId};
use crate::proc::thread::Thread;
use std::collections::BTreeMap;

/// One file-descriptor table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdEntry {
    /// Open regular file with a cursor.
    File {
        /// Backing inode.
        ino: Ino,
        /// Current offset.
        offset: u64,
        /// Open flags (O_APPEND etc. as raw bits; opaque to the simulation).
        flags: u32,
    },
    /// A socket.
    Socket(SockId),
}

/// A process: one or more threads sharing an address space and fd table.
#[derive(Debug, Clone)]
pub struct Process {
    /// Process id (== tid of the thread-group leader).
    pub pid: Pid,
    /// Parent pid (0 for the container init).
    pub ppid: Pid,
    /// Shared address space.
    pub mm: AsId,
    /// Threads (leader first).
    pub threads: Vec<Thread>,
    /// File-descriptor table.
    pub fds: BTreeMap<Fd, FdEntry>,
    /// Owning cgroup.
    pub cgroup: CgroupId,
    /// Network namespace.
    pub netns: NsId,
    /// Executable path (for image metadata).
    pub exe: String,
    next_fd: i32,
}

impl Process {
    /// New single-threaded process.
    pub fn new(pid: Pid, ppid: Pid, mm: AsId, cgroup: CgroupId, netns: NsId, exe: &str) -> Self {
        Process {
            pid,
            ppid,
            mm,
            threads: vec![Thread::new(crate::ids::Tid(pid.0))],
            fds: BTreeMap::new(),
            cgroup,
            netns,
            exe: exe.to_string(),
            next_fd: 3, // 0/1/2 notionally reserved for stdio
        }
    }

    /// Install an fd entry, returning the fd number.
    pub fn install_fd(&mut self, entry: FdEntry) -> Fd {
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.fds.insert(fd, entry);
        fd
    }

    /// Install an fd entry at a *specific* number (restore path).
    pub fn install_fd_at(&mut self, fd: Fd, entry: FdEntry) {
        self.next_fd = self.next_fd.max(fd.0 + 1);
        self.fds.insert(fd, entry);
    }

    /// Fd lookup.
    pub fn fd(&self, fd: Fd) -> SimResult<&FdEntry> {
        self.fds.get(&fd).ok_or(SimError::BadFd(self.pid, fd))
    }

    /// Number of open fds.
    pub fn fd_count(&self) -> usize {
        self.fds.len()
    }

    /// Add a thread; returns its tid.
    pub fn spawn_thread(&mut self, tid: crate::ids::Tid) -> crate::ids::Tid {
        self.threads.push(Thread::new(tid));
        tid
    }

    /// Thread count.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Tid;

    fn proc() -> Process {
        Process::new(Pid(100), Pid(1), AsId(1), CgroupId(1), NsId(1), "/bin/app")
    }

    #[test]
    fn fd_lifecycle() {
        let mut p = proc();
        let fd = p.install_fd(FdEntry::File {
            ino: Ino(4),
            offset: 0,
            flags: 0,
        });
        assert_eq!(fd, Fd(3));
        assert!(p.fd(fd).is_ok());
        assert!(matches!(p.fd(Fd(4)), Err(SimError::BadFd(_, _))));
    }

    #[test]
    fn install_fd_at_respects_numbering() {
        let mut p = proc();
        p.install_fd_at(Fd(7), FdEntry::Socket(SockId(1)));
        let next = p.install_fd(FdEntry::Socket(SockId(2)));
        assert_eq!(next, Fd(8), "allocation resumes past restored fds");
    }

    #[test]
    fn threads() {
        let mut p = proc();
        assert_eq!(p.thread_count(), 1);
        assert_eq!(p.threads[0].tid, Tid(100), "leader tid == pid");
        p.spawn_thread(Tid(101));
        assert_eq!(p.thread_count(), 2);
    }
}
