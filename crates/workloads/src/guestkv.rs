//! A slot-based key-value store living in guest memory, shared by the
//! Redis-like and SSDB-like benchmarks, plus the batched wire format the
//! paper's custom client uses (§VI: "each request to Redis/SSDB was a batch
//! of 1K requests consisting of 50% reads and 50% writes").
//!
//! Records are stored at fixed heap offsets (slot-indexed), with a header
//! carrying the version; every `set` writes real bytes through the simulated
//! syscall surface, so dirty-page tracking, checkpointing, and failover all
//! operate on real state. `aux_touch` models the allocator/hash-table
//! metadata churn real stores exhibit around each operation.

use nilicon_container::GuestCtx;
use nilicon_sim::replay::content_hash;
use nilicon_sim::{SimError, SimResult, PAGE_SIZE};

/// Header bytes per record slot.
const HEADER: usize = 16; // version u64 + len u32 + checksum u32

/// One operation in a batched request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Store `value` (version-stamped) at `slot`.
    Set {
        /// Slot index.
        slot: u32,
        /// Client-assigned monotone version.
        version: u64,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Read `slot`.
    Get {
        /// Slot index.
        slot: u32,
    },
}

/// One operation of a batched request, its value borrowed from the request
/// buffer it was decoded from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOpRef<'a> {
    /// Store `value` (version-stamped) at `slot`.
    Set {
        /// Slot index.
        slot: u32,
        /// Client-assigned monotone version.
        version: u64,
        /// Value bytes, in place in the request.
        value: &'a [u8],
    },
    /// Read `slot`.
    Get {
        /// Slot index.
        slot: u32,
    },
}

impl KvOpRef<'_> {
    /// The owned form: copies the value out of the request buffer.
    pub fn to_op(self) -> KvOp {
        match self {
            KvOpRef::Set {
                slot,
                version,
                value,
            } => KvOp::Set {
                slot,
                version,
                value: value.to_vec(),
            },
            KvOpRef::Get { slot } => KvOp::Get { slot },
        }
    }
}

/// Cursor over a wire buffer; every read is bounds-checked.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if n > self.0.len() {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

/// Parse a batched request without copying its values. The whole request is
/// validated before the caller sees the first op, so a malformed batch is
/// rejected before any of it executes.
pub fn decode_ops(buf: &[u8]) -> SimResult<Vec<KvOpRef<'_>>> {
    fn parse(buf: &[u8]) -> Option<Vec<KvOpRef<'_>>> {
        let mut r = Reader(buf);
        let count = r.u32()? as usize;
        // The count comes off the wire: reserve no more than the buffer can
        // hold (an op is at least 5 bytes).
        let mut ops = Vec::with_capacity(count.min(buf.len() / 5));
        for _ in 0..count {
            let tag = r.take(1)?[0];
            let slot = r.u32()?;
            ops.push(if tag == 1 {
                let version = r.u64()?;
                let len = r.u32()? as usize;
                KvOpRef::Set {
                    slot,
                    version,
                    value: r.take(len)?,
                }
            } else {
                KvOpRef::Get { slot }
            });
        }
        Some(ops)
    }
    parse(buf).ok_or_else(|| SimError::Invalid("malformed kv request".into()))
}

/// A batched request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvRequest {
    /// Operations, executed in order.
    pub ops: Vec<KvOp>,
}

impl KvRequest {
    /// Serialize for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let size = 4 + self
            .ops
            .iter()
            .map(|op| match op {
                KvOp::Set { value, .. } => 17 + value.len(),
                KvOp::Get { .. } => 5,
            })
            .sum::<usize>();
        let mut v = Vec::with_capacity(size);
        v.extend_from_slice(&(self.ops.len() as u32).to_le_bytes());
        for op in &self.ops {
            match op {
                KvOp::Set {
                    slot,
                    version,
                    value,
                } => {
                    v.push(1);
                    v.extend_from_slice(&slot.to_le_bytes());
                    v.extend_from_slice(&version.to_le_bytes());
                    v.extend_from_slice(&(value.len() as u32).to_le_bytes());
                    v.extend_from_slice(value);
                }
                KvOp::Get { slot } => {
                    v.push(0);
                    v.extend_from_slice(&slot.to_le_bytes());
                }
            }
        }
        v
    }

    /// Parse from the wire.
    pub fn decode(buf: &[u8]) -> SimResult<Self> {
        let ops = decode_ops(buf)?.into_iter().map(KvOpRef::to_op).collect();
        Ok(KvRequest { ops })
    }
}

/// Response to a batched request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvResponse {
    /// `(slot, version, value)` for each Get, in request order.
    pub gets: Vec<(u32, u64, Vec<u8>)>,
    /// Number of Sets acknowledged.
    pub sets_acked: u32,
}

impl KvResponse {
    /// Serialize for the wire.
    pub fn encode(&self) -> Vec<u8> {
        let size = 8 + self.gets.iter().map(|g| 16 + g.2.len()).sum::<usize>();
        let mut v = Vec::with_capacity(size);
        v.extend_from_slice(&self.sets_acked.to_le_bytes());
        v.extend_from_slice(&(self.gets.len() as u32).to_le_bytes());
        for (slot, version, value) in &self.gets {
            v.extend_from_slice(&slot.to_le_bytes());
            v.extend_from_slice(&version.to_le_bytes());
            v.extend_from_slice(&(value.len() as u32).to_le_bytes());
            v.extend_from_slice(value);
        }
        v
    }

    /// Parse from the wire.
    pub fn decode(buf: &[u8]) -> SimResult<Self> {
        fn parse(buf: &[u8]) -> Option<KvResponse> {
            let mut r = Reader(buf);
            let sets_acked = r.u32()?;
            let count = r.u32()? as usize;
            // As in `decode_ops`: a get is at least 16 bytes on the wire.
            let mut gets = Vec::with_capacity(count.min(buf.len() / 16));
            for _ in 0..count {
                let slot = r.u32()?;
                let version = r.u64()?;
                let len = r.u32()? as usize;
                gets.push((slot, version, r.take(len)?.to_vec()));
            }
            Some(KvResponse { gets, sets_acked })
        }
        parse(buf).ok_or_else(|| SimError::Invalid("malformed kv response".into()))
    }
}

/// Builds the wire form of a [`KvResponse`] in place: each value is read
/// from guest memory straight into the response buffer, and the counts in
/// the header are patched in at the end. The bytes equal
/// [`KvResponse::encode`] of the same gets and acks.
#[derive(Debug)]
pub struct ResponseWriter {
    buf: Vec<u8>,
    sets_acked: u32,
    gets: u32,
}

impl ResponseWriter {
    /// A writer sized for the answer to `ops` against `kv`.
    pub fn for_ops(ops: &[KvOpRef<'_>], kv: &GuestKv) -> Self {
        let gets = ops
            .iter()
            .filter(|op| matches!(op, KvOpRef::Get { .. }))
            .count();
        let mut buf = Vec::with_capacity(8 + gets * (16 + kv.value_size));
        buf.extend_from_slice(&[0; 8]);
        ResponseWriter {
            buf,
            sets_acked: 0,
            gets: 0,
        }
    }

    /// Acknowledge one Set.
    pub fn ack_set(&mut self) {
        self.sets_acked += 1;
    }

    /// Answer one Get: load `slot` from `kv` into the response. On error the
    /// response is left as it was before the call.
    pub fn get(&mut self, kv: &GuestKv, ctx: &mut GuestCtx<'_>, slot: u32) -> SimResult<()> {
        let at = self.buf.len();
        self.buf.extend_from_slice(&slot.to_le_bytes());
        self.buf.extend_from_slice(&[0; 12]);
        match kv.get_into(ctx, slot, &mut self.buf) {
            Ok(version) => {
                let len = (self.buf.len() - at - 16) as u32;
                self.buf[at + 4..at + 12].copy_from_slice(&version.to_le_bytes());
                self.buf[at + 12..at + 16].copy_from_slice(&len.to_le_bytes());
                self.gets += 1;
                Ok(())
            }
            Err(e) => {
                self.buf.truncate(at);
                Err(e)
            }
        }
    }

    /// The finished wire bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[0..4].copy_from_slice(&self.sets_acked.to_le_bytes());
        self.buf[4..8].copy_from_slice(&self.gets.to_le_bytes());
        self.buf
    }
}

/// Multiplier of [`value_pattern`].
const PATTERN_K: u64 = 0x2545F4914F6CDD1D;

/// The deterministic value pattern for `(slot, version)` — clients and
/// servers both compute it, making end-to-end verification possible without
/// shipping golden data around.
pub fn value_pattern(slot: u32, version: u64, len: usize) -> Vec<u8> {
    let seed = (slot as u64)
        .wrapping_mul(0x9E3779B9)
        .wrapping_add(version.wrapping_mul(31));
    // Byte `i` is the top byte of `(seed + i)·K`; since `(seed + i)·K ≡
    // seed·K + i·K (mod 2⁶⁴)`, the product advances by one add per byte.
    let mut v = vec![0u8; len];
    fill_pattern(seed.wrapping_mul(PATTERN_K), &mut v);
    v
}

/// `out[i]` = the top byte of `acc + i·K`, by the widest kernel the CPU has
/// (`is_x86_feature_detected!` caches its probe). One add chain yields a byte
/// a cycle; the vector kernels run one chain per 64-bit lane.
fn fill_pattern(acc: u64, out: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: avx512f support was just verified at runtime.
            return unsafe { fill_pattern_avx512(acc, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: avx2 support was just verified at runtime.
            return unsafe { fill_pattern_avx2(acc, out) };
        }
    }
    fill_pattern_scalar(acc, out)
}

/// Portable fill (the reference the vector kernels are tested against, and
/// their tail).
fn fill_pattern_scalar(mut acc: u64, out: &mut [u8]) {
    for b in out {
        *b = (acc >> 56) as u8;
        acc = acc.wrapping_add(PATTERN_K);
    }
}

/// Lane offsets of accumulator register `j` in a kernel that fills blocks
/// of `8 × LANES` bytes from eight registers: lane `l` of register `j`
/// produces byte `8 l + j`, so the eight top bytes that belong to output
/// word `l` sit in lane `l` of the eight registers and one shift, mask and
/// OR per register assembles `LANES` finished words.
#[cfg(target_arch = "x86_64")]
const fn lane_offsets<const LANES: usize>(j: usize) -> [u64; LANES] {
    let mut offs = [0; LANES];
    let mut l = 0;
    while l < LANES {
        offs[l] = PATTERN_K.wrapping_mul((8 * l + j) as u64);
        l += 1;
    }
    offs
}

/// AVX2 fill: 32 bytes a step from eight registers of four add chains.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_pattern_avx2(acc: u64, out: &mut [u8]) {
    use std::arch::x86_64::*;
    let mut accs: [__m256i; 8] = std::array::from_fn(|j| {
        let offs = lane_offsets::<4>(j);
        // SAFETY: `offs` is four u64, the 32 bytes the unaligned load reads.
        let offs = unsafe { _mm256_loadu_si256(offs.as_ptr().cast()) };
        _mm256_add_epi64(_mm256_set1_epi64x(acc as i64), offs)
    });
    let step = _mm256_set1_epi64x(PATTERN_K.wrapping_mul(32) as i64);
    let mut blocks = out.chunks_exact_mut(32);
    let mut filled = 0u64;
    for block in &mut blocks {
        let mut words = _mm256_setzero_si256();
        for (j, a) in accs.iter_mut().enumerate() {
            let byte = _mm256_srl_epi64(*a, _mm_cvtsi32_si128(56 - 8 * j as i32));
            let mask = _mm256_set1_epi64x((0xFFu64 << (8 * j)) as i64);
            words = _mm256_or_si256(words, _mm256_and_si256(byte, mask));
            *a = _mm256_add_epi64(*a, step);
        }
        // SAFETY: `chunks_exact_mut(32)` yields exactly 32 bytes; the store
        // is unaligned.
        unsafe { _mm256_storeu_si256(block.as_mut_ptr().cast(), words) };
        filled += 32;
    }
    let tail = acc.wrapping_add(PATTERN_K.wrapping_mul(filled));
    fill_pattern_scalar(tail, blocks.into_remainder());
}

/// AVX-512 fill: 64 bytes a step from eight registers of eight add chains.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fill_pattern_avx512(acc: u64, out: &mut [u8]) {
    use std::arch::x86_64::*;
    let mut accs: [__m512i; 8] = std::array::from_fn(|j| {
        let offs = lane_offsets::<8>(j);
        // SAFETY: `offs` is eight u64, the 64 bytes the unaligned load reads.
        let offs = unsafe { _mm512_loadu_si512(offs.as_ptr().cast()) };
        _mm512_add_epi64(_mm512_set1_epi64(acc as i64), offs)
    });
    let step = _mm512_set1_epi64(PATTERN_K.wrapping_mul(64) as i64);
    let mut blocks = out.chunks_exact_mut(64);
    let mut filled = 0u64;
    for block in &mut blocks {
        let mut words = _mm512_setzero_si512();
        for (j, a) in accs.iter_mut().enumerate() {
            let byte = _mm512_srl_epi64(*a, _mm_cvtsi32_si128(56 - 8 * j as i32));
            let mask = _mm512_set1_epi64((0xFFu64 << (8 * j)) as i64);
            words = _mm512_or_si512(words, _mm512_and_si512(byte, mask));
            *a = _mm512_add_epi64(*a, step);
        }
        // SAFETY: `chunks_exact_mut(64)` yields exactly 64 bytes; the store
        // is unaligned.
        unsafe { _mm512_storeu_si512(block.as_mut_ptr().cast(), words) };
        filled += 64;
    }
    let tail = acc.wrapping_add(PATTERN_K.wrapping_mul(filled));
    fill_pattern_scalar(tail, blocks.into_remainder());
}

/// The guest-memory store: slot-indexed records + an aux metadata arena.
#[derive(Debug, Clone, Copy)]
pub struct GuestKv {
    /// Heap byte offset of slot 0.
    pub base: u64,
    /// Number of slots.
    pub slots: u32,
    /// Maximum value size.
    pub value_size: usize,
    /// Heap byte offset of the aux (metadata churn) arena.
    pub aux_base: u64,
    /// Aux arena size in pages.
    pub aux_pages: u64,
}

impl GuestKv {
    /// Lay out a store with `slots` records of `value_size` bytes starting at
    /// heap offset `base`, followed by an aux arena of `aux_pages`.
    pub fn layout(base: u64, slots: u32, value_size: usize, aux_pages: u64) -> Self {
        let slot_size = Self::slot_size_for(value_size);
        let data_bytes = slots as u64 * slot_size;
        let aux_base = (base + data_bytes).div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64;
        GuestKv {
            base,
            slots,
            value_size,
            aux_base,
            aux_pages,
        }
    }

    /// Bytes per slot (header + value, 64-byte aligned).
    pub fn slot_size_for(value_size: usize) -> u64 {
        ((HEADER + value_size).div_ceil(64) * 64) as u64
    }

    /// Heap pages the store occupies in total (for container sizing).
    pub fn heap_pages_needed(&self) -> u64 {
        (self.aux_base + self.aux_pages * PAGE_SIZE as u64).div_ceil(PAGE_SIZE as u64)
    }

    fn slot_off(&self, slot: u32) -> SimResult<u64> {
        if slot >= self.slots {
            return Err(SimError::Invalid(format!("slot {slot} out of range")));
        }
        Ok(self.base + slot as u64 * Self::slot_size_for(self.value_size))
    }

    /// Store a record: header + value bytes written into guest memory.
    pub fn set(
        &self,
        ctx: &mut GuestCtx<'_>,
        slot: u32,
        version: u64,
        value: &[u8],
    ) -> SimResult<()> {
        if value.len() > self.value_size {
            return Err(SimError::Invalid("value too large".into()));
        }
        let off = self.slot_off(slot)?;
        let mut rec = Vec::with_capacity(HEADER + value.len());
        rec.extend_from_slice(&version.to_le_bytes());
        rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
        rec.extend_from_slice(&checksum(value).to_le_bytes());
        rec.extend_from_slice(value);
        ctx.heap_write(off, &rec)
    }

    /// Load a record: `(version, value)`; an unwritten slot reads as
    /// `(0, empty)`.
    pub fn get(&self, ctx: &mut GuestCtx<'_>, slot: u32) -> SimResult<(u64, Vec<u8>)> {
        let mut value = Vec::new();
        let version = self.get_into(ctx, slot, &mut value)?;
        Ok((version, value))
    }

    /// Load a record, appending its value to `out` and returning its
    /// version: the value goes from guest memory straight into the caller's
    /// buffer and its checksum is verified there. An unwritten slot appends
    /// nothing and returns version 0; on error `out` is left as it was.
    pub fn get_into(&self, ctx: &mut GuestCtx<'_>, slot: u32, out: &mut Vec<u8>) -> SimResult<u64> {
        let off = self.slot_off(slot)?;
        let mut hdr = [0u8; HEADER];
        ctx.heap_read(off, &mut hdr)?;
        let version = u64::from_le_bytes(hdr[0..8].try_into().unwrap());
        let len = u32::from_le_bytes(hdr[8..12].try_into().unwrap()) as usize;
        let sum = u32::from_le_bytes(hdr[12..16].try_into().unwrap());
        if version == 0 && len == 0 && sum == 0 {
            // Never-written slot (all-zero header).
            return Ok(0);
        }
        if len > self.value_size {
            return Err(SimError::ImageCorrupt(format!(
                "slot {slot}: bad length {len}"
            )));
        }
        let at = out.len();
        out.resize(at + len, 0);
        let loaded = ctx
            .heap_read(off + HEADER as u64, &mut out[at..])
            .and_then(|()| {
                if checksum(&out[at..]) == sum {
                    Ok(version)
                } else {
                    Err(SimError::ImageCorrupt(format!(
                        "slot {slot}: checksum mismatch"
                    )))
                }
            });
        if loaded.is_err() {
            out.truncate(at);
        }
        loaded
    }

    /// Dirty `n` aux-arena pages, picked deterministically from `salt` —
    /// the metadata/allocator churn around an operation.
    pub fn aux_touch(&self, ctx: &mut GuestCtx<'_>, salt: u64, n: u64) -> SimResult<()> {
        for i in 0..n {
            let h = salt
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(i.wrapping_mul(0xBF58476D1CE4E5B9));
            let page = (h >> 17) % self.aux_pages.max(1);
            ctx.heap_write(
                self.aux_base + page * PAGE_SIZE as u64 + (h % 4000),
                &[h as u8],
            )?;
        }
        Ok(())
    }
}

/// Record checksum: the word-wide [`content_hash`] folded to 32 bits.
fn checksum(data: &[u8]) -> u32 {
    let h = content_hash(data);
    (h ^ (h >> 32)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_container::{ContainerRuntime, ContainerSpec};
    use nilicon_sim::kernel::Kernel;
    use proptest::prelude::*;

    fn ctx_kv() -> (Kernel, nilicon_sim::ids::Pid, GuestKv) {
        let mut k = Kernel::default();
        let mut spec = ContainerSpec::server("kv", 10, 1);
        let kv = GuestKv::layout(0, 100, 256, 16);
        spec.heap_pages = kv.heap_pages_needed() + 16;
        let c = ContainerRuntime::create(&mut k, &spec).unwrap();
        (k, c.init_pid(), kv)
    }

    #[test]
    fn set_get_roundtrip() {
        let (mut k, pid, kv) = ctx_kv();
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        let val = value_pattern(5, 1, 200);
        kv.set(&mut ctx, 5, 1, &val).unwrap();
        let (ver, got) = kv.get(&mut ctx, 5).unwrap();
        assert_eq!(ver, 1);
        assert_eq!(got, val);
        // Unwritten slot.
        let (v0, empty) = kv.get(&mut ctx, 6).unwrap();
        assert_eq!((v0, empty.len()), (0, 0));
    }

    #[test]
    fn overwrite_bumps_version() {
        let (mut k, pid, kv) = ctx_kv();
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        kv.set(&mut ctx, 0, 1, &value_pattern(0, 1, 100)).unwrap();
        kv.set(&mut ctx, 0, 2, &value_pattern(0, 2, 50)).unwrap();
        let (ver, got) = kv.get(&mut ctx, 0).unwrap();
        assert_eq!(ver, 2);
        assert_eq!(got, value_pattern(0, 2, 50));
    }

    #[test]
    fn out_of_range_slot_rejected() {
        let (mut k, pid, kv) = ctx_kv();
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        assert!(kv.set(&mut ctx, 100, 1, b"x").is_err());
        assert!(kv.get(&mut ctx, 100).is_err());
    }

    #[test]
    fn corruption_detected() {
        let (mut k, pid, kv) = ctx_kv();
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        kv.set(&mut ctx, 3, 1, &value_pattern(3, 1, 64)).unwrap();
        // Corrupt one value byte behind the store's back.
        let off = kv.slot_off(3).unwrap() + HEADER as u64 + 10;
        ctx.heap_write(off, &[0xFF]).unwrap();
        let mut ctx2 = GuestCtx::new(&mut k, pid, 0);
        assert!(matches!(
            kv.get(&mut ctx2, 3),
            Err(SimError::ImageCorrupt(_))
        ));
    }

    #[test]
    fn request_response_wire_roundtrip() {
        let req = KvRequest {
            ops: vec![
                KvOp::Set {
                    slot: 1,
                    version: 7,
                    value: vec![1, 2, 3],
                },
                KvOp::Get { slot: 1 },
                KvOp::Get { slot: 99 },
            ],
        };
        let decoded = KvRequest::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);

        let resp = KvResponse {
            gets: vec![(1, 7, vec![1, 2, 3]), (99, 0, vec![])],
            sets_acked: 1,
        };
        assert_eq!(KvResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn malformed_wire_rejected() {
        assert!(KvRequest::decode(&[1, 2]).is_err());
        assert!(KvResponse::decode(&[0]).is_err());
        // Every truncation of a valid message is rejected, never a panic.
        let req = KvRequest {
            ops: vec![
                KvOp::Get { slot: 1 },
                KvOp::Set {
                    slot: 2,
                    version: 3,
                    value: vec![9; 40],
                },
                KvOp::Get { slot: 4 },
            ],
        }
        .encode();
        for cut in 0..req.len() {
            assert!(KvRequest::decode(&req[..cut]).is_err(), "request cut at {cut}");
        }
        let resp = KvResponse {
            gets: vec![(1, 7, vec![1; 33]), (99, 0, vec![])],
            sets_acked: 1,
        }
        .encode();
        for cut in 0..resp.len() {
            assert!(KvResponse::decode(&resp[..cut]).is_err(), "response cut at {cut}");
        }
    }

    /// A count field claiming `u32::MAX` entries on a short buffer is a
    /// malformed message, not a 170 GB reservation that aborts the process.
    #[test]
    fn hostile_count_is_rejected_without_reserving_for_it() {
        let err = |r: SimResult<()>| matches!(r, Err(SimError::Invalid(_)));
        assert!(err(KvRequest::decode(&[0xFF; 4]).map(drop)));
        assert!(err(decode_ops(&[0xFF; 4]).map(drop)));
        assert!(err(KvResponse::decode(&[0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF]).map(drop)));
        // The same count in front of real ops: still short of the claim.
        let mut req = KvRequest {
            ops: vec![KvOp::Get { slot: 1 }; 3],
        }
        .encode();
        req[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(err(KvRequest::decode(&req).map(drop)));
    }

    #[test]
    fn get_into_appends_in_place_and_unwinds_on_error() {
        let (mut k, pid, kv) = ctx_kv();
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        kv.set(&mut ctx, 3, 9, &value_pattern(3, 9, 64)).unwrap();
        let mut out = vec![0xAB];
        assert_eq!(kv.get_into(&mut ctx, 3, &mut out).unwrap(), 9);
        assert_eq!(out[1..], value_pattern(3, 9, 64)[..]);
        assert_eq!(kv.get_into(&mut ctx, 4, &mut out).unwrap(), 0);
        assert_eq!(out.len(), 65, "unwritten slot appends nothing");
        // A written record with version 0 and an empty value is not mistaken
        // for an unwritten slot: its checksum word is non-zero.
        assert_ne!(checksum(&[]), 0);
        let off = kv.slot_off(3).unwrap() + HEADER as u64 + 10;
        ctx.heap_write(off, &[0xFF]).unwrap();
        assert!(kv.get_into(&mut ctx, 3, &mut out).is_err());
        assert_eq!(out.len(), 65, "failed get leaves the buffer as it was");
    }

    #[test]
    fn aux_touch_dirties_bounded_pages() {
        let (mut k, pid, kv) = ctx_kv();
        k.mm_mut(pid)
            .unwrap()
            .set_tracking(nilicon_sim::mem::TrackingMode::SoftDirty);
        k.clear_refs(pid).unwrap();
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        kv.aux_touch(&mut ctx, 42, 8).unwrap();
        let dirty = k.mm(pid).unwrap().soft_dirty_count();
        assert!((1..=8).contains(&dirty), "dirty {dirty}");
    }

    #[test]
    fn value_pattern_is_deterministic_and_distinct() {
        assert_eq!(value_pattern(1, 1, 32), value_pattern(1, 1, 32));
        assert_ne!(value_pattern(1, 1, 32), value_pattern(1, 2, 32));
        assert_ne!(value_pattern(1, 1, 32), value_pattern(2, 1, 32));
    }

    fn op_list() -> impl Strategy<Value = Vec<(bool, u32, u64, usize)>> {
        // (is_set, slot, version, value length); slots collide on purpose and
        // stay below the 100 the test store has, lengths include 0 and max.
        proptest::collection::vec(
            (any::<bool>(), 0..12u32, 0..4u64, prop_oneof![Just(0usize), Just(256), 0..257usize]),
            0..40,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every fill — the dispatched one, the portable loop and each
        /// vector kernel this CPU has, called by name — yields the bytes of
        /// the multiply form the pattern is defined by (they sit in guest
        /// memory and replay logs), at lengths on, off and below the 32- and
        /// 64-byte blocks.
        #[test]
        fn value_pattern_matches_the_multiply_form(
            slot in any::<u32>(),
            version in any::<u64>(),
            len in prop_oneof![0..1101usize, 0..4097usize],
        ) {
            let seed = (slot as u64).wrapping_mul(0x9E3779B9).wrapping_add(version.wrapping_mul(31));
            let want: Vec<u8> = (0..len as u64)
                .map(|i| (seed.wrapping_add(i).wrapping_mul(0x2545F4914F6CDD1D) >> 56) as u8)
                .collect();
            prop_assert_eq!(&value_pattern(slot, version, len), &want);
            let acc = seed.wrapping_mul(PATTERN_K);
            let mut got = vec![0xEEu8; len];
            fill_pattern_scalar(acc, &mut got);
            prop_assert_eq!(&got, &want, "scalar");
            #[cfg(target_arch = "x86_64")]
            {
                if std::arch::is_x86_feature_detected!("avx2") {
                    got.fill(0xEE);
                    // SAFETY: avx2 support was just verified at runtime.
                    unsafe { fill_pattern_avx2(acc, &mut got) };
                    prop_assert_eq!(&got, &want, "avx2");
                }
                if std::arch::is_x86_feature_detected!("avx512f") {
                    got.fill(0xEE);
                    // SAFETY: avx512f support was just verified at runtime.
                    unsafe { fill_pattern_avx512(acc, &mut got) };
                    prop_assert_eq!(&got, &want, "avx512");
                }
            }
        }

        /// The borrowed server path and the owned public types agree on the
        /// wire: `decode_ops` sees the ops `KvRequest::decode` sees, and the
        /// bytes `ResponseWriter` builds are `KvResponse::encode` of what
        /// executing those ops through `GuestKv::get` returns.
        #[test]
        fn borrowed_path_matches_owned_wire_format(list in op_list()) {
            let ops: Vec<KvOp> = list
                .iter()
                .map(|&(is_set, slot, version, len)| if is_set {
                    KvOp::Set { slot, version, value: value_pattern(slot, version, len) }
                } else {
                    KvOp::Get { slot }
                })
                .collect();
            let wire = KvRequest { ops: ops.clone() }.encode();
            let borrowed = decode_ops(&wire).unwrap();
            prop_assert_eq!(
                borrowed.iter().map(|op| op.to_op()).collect::<Vec<_>>(),
                KvRequest::decode(&wire).unwrap().ops
            );
            prop_assert_eq!(&KvRequest::decode(&wire).unwrap().ops, &ops);

            // Two identical stores: one served in place, one through the
            // owned types.
            let (mut k1, pid1, kv) = ctx_kv();
            let (mut k2, pid2, _) = ctx_kv();
            let mut c1 = GuestCtx::new(&mut k1, pid1, 0);
            let mut c2 = GuestCtx::new(&mut k2, pid2, 0);
            let mut writer = ResponseWriter::for_ops(&borrowed, &kv);
            let mut owned = KvResponse::default();
            for (op_ref, op) in borrowed.iter().zip(&ops) {
                match (*op_ref, op) {
                    (KvOpRef::Set { slot, version, value }, KvOp::Set { value: v2, .. }) => {
                        kv.set(&mut c1, slot, version, value).unwrap();
                        kv.set(&mut c2, slot, version, v2).unwrap();
                        writer.ack_set();
                        owned.sets_acked += 1;
                    }
                    (KvOpRef::Get { slot }, KvOp::Get { .. }) => {
                        writer.get(&kv, &mut c1, slot).unwrap();
                        let (version, value) = kv.get(&mut c2, slot).unwrap();
                        owned.gets.push((slot, version, value));
                    }
                    _ => unreachable!("same op list"),
                }
            }
            let bytes = writer.finish();
            prop_assert_eq!(&bytes, &owned.encode());
            prop_assert_eq!(KvResponse::decode(&bytes).unwrap(), owned);
            prop_assert_eq!(k1.meter.take(), k2.meter.take(), "same guest-memory charges");
        }
    }
}
