//! Threads: register files, signal masks, timers, scheduling policy.
//!
//! These are exactly the per-thread state components the paper lists as
//! retrievable only "from within the processes being checkpointed" via the
//! parasite code (§II-B) or via ptrace — and whose retrieval cost scales the
//! stop time with thread count (§VII-C: 148 µs → 4 ms for 1 → 32 threads).

use serde::{Deserialize, Serialize};

use crate::ids::Tid;

/// A simulated x86-64 register file. Contents are real bytes that travel
/// through checkpoints; restore must reproduce them exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterFile {
    /// Instruction pointer.
    pub rip: u64,
    /// Stack pointer.
    pub rsp: u64,
    /// General-purpose registers.
    pub gpr: [u64; 14],
}

impl Default for RegisterFile {
    fn default() -> Self {
        RegisterFile {
            rip: 0x40_0000,
            rsp: 0x7fff_ffff_e000,
            gpr: [0; 14],
        }
    }
}

/// Scheduling policy (checkpointed per thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// CFS default.
    #[default]
    Normal,
    /// Batch.
    Batch,
    /// Real-time FIFO with priority.
    Fifo(u8),
}

/// A POSIX-style interval timer (checkpointed per thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Timer {
    /// Expiry, absolute virtual nanos.
    pub expires_at: u64,
    /// Interval for periodic timers (0 = one-shot).
    pub interval: u64,
}

/// What a thread is doing right now (freezer interacts with this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadRunState {
    /// Executing user code: freezes immediately on a virtual signal.
    #[default]
    User,
    /// Blocked in a system call: the virtual signal forces an early return
    /// first (§II-B), which costs `freeze_syscall_interrupt`.
    Syscall,
    /// Frozen by the freezer.
    Frozen,
}

/// One thread.
#[derive(Debug, Clone)]
pub struct Thread {
    /// Thread id.
    pub tid: Tid,
    /// Register file.
    pub regs: RegisterFile,
    /// Blocked-signal mask.
    pub sigmask: u64,
    /// Pending timers.
    pub timers: Vec<Timer>,
    /// Scheduling policy.
    pub sched: SchedPolicy,
    /// Current run state.
    pub run_state: ThreadRunState,
}

impl Thread {
    /// New runnable thread.
    pub fn new(tid: Tid) -> Self {
        Thread {
            tid,
            regs: RegisterFile::default(),
            sigmask: 0,
            timers: Vec::new(),
            sched: SchedPolicy::Normal,
            run_state: ThreadRunState::User,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let t = Thread::new(Tid(1));
        assert_eq!(t.run_state, ThreadRunState::User);
        assert_eq!(t.sched, SchedPolicy::Normal);
        assert_eq!(t.regs.rip, 0x40_0000);
        assert!(t.timers.is_empty());
    }

    #[test]
    fn register_file_roundtrips_through_serde() {
        let mut r = RegisterFile::default();
        r.gpr[3] = 0xdead_beef;
        let json = serde_json::to_string(&r).unwrap();
        let back: RegisterFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
