//! Record/replay of nondeterministic kernel events (HyCoR-style hybrid
//! checkpoint + replay, PAPERS.md).
//!
//! NiLiCon releases output only after the *epoch* ack (~30 ms at the default
//! epoch length). HyCoR — same authors, the direct successor — ships a
//! per-epoch log of every nondeterministic event continuously and releases
//! output as soon as the **log** is committed on the backup; at failover the
//! backup restores the last committed checkpoint and re-executes the
//! container, feeding recorded events back, reproducing byte-identical state
//! and the exact output stream.
//!
//! This module owns the event vocabulary and the per-epoch log. The log
//! records request dispatch and batch steps, full stop: the harness takes
//! whole request frames off the sockets and calls the application itself, so
//! request arrival and step order are the only nondeterminism a guest sees.
//! The lane core's serve hook appends to it, and only when the
//! `hybrid_replay` extension knob is on.

use crate::ids::Pid;
use bytes::Bytes;
use crate::time::Nanos;

/// Stable, dependency-free content hash: the guest KV store's record
/// checksum, whose value sits in guest memory and so may never change (the
/// replay log's own digest is [`response_digest`]). FNV-1a's xor-multiply
/// step taken over little-endian 64-bit words — one multiply per eight
/// bytes, not per byte — with a byte-wise tail and the length mixed in last.
/// Every step is a bijection of the running state, so two inputs of one
/// length that differ in a single word never collide.
pub fn content_hash(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
        h = (h ^ w).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    (h ^ data.len() as u64).wrapping_mul(PRIME)
}

/// Digest of a response as the replay log records it: replayed execution
/// must reproduce the bytes the primary sent, and the recording and the
/// replaying side compare this value. It is not [`content_hash`]: nothing
/// stores it in guest memory, an image or an output, so it is free to be
/// the faster function — four independent xor-multiply chains over
/// interleaved 64-bit words (one chain retires a multiply every three or
/// four cycles; four keep the multiplier busy), folded in lane order, then a
/// byte-wise tail and the length. Every step is a bijection of its chain and
/// the fold is a bijection of each lane, so two responses of one length that
/// differ in a single byte never collide.
pub fn response_digest(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lanes = [BASIS, BASIS ^ 1, BASIS ^ 2, BASIS ^ 3];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8) yields 8 bytes"));
            *lane = (*lane ^ w).wrapping_mul(PRIME);
        }
    }
    let mut h = lanes.iter().fold(0, |h, &lane| (h ^ lane).wrapping_mul(PRIME));
    for &b in blocks.remainder() {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    (h ^ data.len() as u64).wrapping_mul(PRIME)
}

/// One recorded nondeterministic event.
///
/// A request's payload is stored as the actual bytes — replay must feed them
/// back verbatim. Its response is stored only as a hash: replay *re-produces*
/// the bytes and the hash pins equivalence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayEvent {
    /// A whole application request dispatched by the harness: the payload the
    /// app saw, when it ran, and a digest of the response it produced.
    Request {
        /// Serving pid.
        pid: Pid,
        /// Virtual time the request was dispatched.
        at: Nanos,
        /// Request frame payload (what `Application::handle_request` saw),
        /// shared with the frame the request arrived in.
        payload: Bytes,
        /// [`response_digest`] of the response bytes.
        response_hash: u64,
        /// Response length in bytes.
        response_len: u32,
    },
    /// One background `Application::step` call (batch workloads).
    Step {
        /// Stepped pid.
        pid: Pid,
        /// Virtual time of the step.
        at: Nanos,
        /// Whether the step reported completion.
        done: bool,
    },
}

impl ReplayEvent {
    /// Modeled wire size of this event in the shipped log: a fixed header
    /// plus any carried payload. Drives log-ship transfer cost.
    pub fn byte_len(&self) -> u64 {
        const HDR: u64 = 24; // tag + pid + timestamps/ids, packed
        match self {
            ReplayEvent::Request { payload, .. } => HDR + 12 + payload.len() as u64,
            ReplayEvent::Step { .. } => HDR + 1,
        }
    }
}

/// The per-epoch nondeterminism log, as shipped to (and stored on) the
/// backup. `sealed` flips when the primary marks the epoch's log complete —
/// only sealed logs are eligible for replay; an unsealed tail is a *partial*
/// log and forces the plain last-checkpoint fallback.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayLog {
    /// Epoch this log belongs to (events recorded since the checkpoint of
    /// `epoch - 1`).
    pub epoch: u64,
    /// Events in recorded order.
    pub events: Vec<ReplayEvent>,
    /// True once the primary sealed the epoch's log (all events shipped).
    pub sealed: bool,
}

impl ReplayLog {
    /// New empty (unsealed) log for `epoch`.
    pub fn new(epoch: u64) -> Self {
        ReplayLog {
            epoch,
            events: Vec::new(),
            sealed: false,
        }
    }

    /// Total modeled wire bytes of all events.
    pub fn byte_len(&self) -> u64 {
        self.events.iter().map(ReplayEvent::byte_len).sum()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        for (name, hash) in [
            ("content_hash", content_hash as fn(&[u8]) -> u64),
            ("response_digest", response_digest),
        ] {
            assert_eq!(hash(b"abc"), hash(b"abc"), "{name}");
            assert_ne!(hash(b"abc"), hash(b"abd"), "{name}");
            assert_ne!(hash(b""), hash(b"\0"), "{name}");
            // Block or word body, byte tail and length all count: a flip
            // anywhere in a 21-byte input (two words + five tail bytes) or a
            // 93-byte one (two four-lane blocks + 29) changes the hash, and
            // so does appending zeros, within a word, a whole word or a
            // whole block of them.
            for len in [21u8, 93] {
                let base: Vec<u8> = (0..len).collect();
                for i in 0..base.len() {
                    let mut flipped = base.clone();
                    flipped[i] ^= 0x80;
                    assert_ne!(hash(&base), hash(&flipped), "{name}: byte {i} of {len}");
                }
            }
            for (short, long) in [(7, 8), (8, 16), (31, 32), (32, 64)] {
                assert_ne!(hash(&[0; 64][..short]), hash(&[0; 64][..long]), "{name}: {short} vs {long}");
            }
        }
        // The guest checksum's value is pinned (it sits in guest memory and
        // image files); the replay digest is a different function.
        assert_eq!(content_hash(b"abc"), 0xfc17_b883_ee07_4f58);
        assert_ne!(response_digest(b"abc"), content_hash(b"abc"));
    }

    #[test]
    fn byte_len_counts_payloads() {
        let small = ReplayEvent::Step {
            pid: Pid(100),
            at: 0,
            done: false,
        };
        let big = ReplayEvent::Request {
            pid: Pid(100),
            at: 0,
            payload: vec![0u8; 1000].into(),
            response_hash: 0,
            response_len: 4,
        };
        assert!(big.byte_len() > small.byte_len() + 1000 - 64);
        let mut log = ReplayLog::new(3);
        log.events.push(small);
        log.events.push(big);
        assert_eq!(
            log.byte_len(),
            log.events.iter().map(ReplayEvent::byte_len).sum::<u64>()
        );
    }
}
