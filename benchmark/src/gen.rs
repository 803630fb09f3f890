//! Seeded input generators owned by the benchmark: the YCSB-style and echo
//! clients, the page-storm batch application, the fleet's dirty-footprint
//! echo server, and fault instants.
//!
//! `--seed` reaches only this module. The system under test sees the
//! requests, writes and fault times drawn here, never the seed itself.

use nilicon::traffic::ClientBehavior;
use nilicon_container::{Application, GuestCtx, RequestOutcome, StepOutcome};
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimResult, PAGE_SIZE};
use nilicon_workloads::{value_pattern, KvOp, KvRequest, KvResponse, Scale};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// xorshift64* generator; one independent stream per `(seed, stream)` pair.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed` (SplitMix64-scrambled so neighbouring
    /// seeds and streams do not correlate).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(0x2545_F491_4F6C_DD1D);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Rng(if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z })
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }
}

/// Request/response counters a client generator shares with the benchmark
/// (the harness owns the boxed behavior, so the counts leave through here).
#[derive(Debug, Default)]
pub struct ClientStats {
    /// Requests handed to the harness.
    pub issued: Cell<u64>,
    /// Responses delivered back.
    pub responded: Cell<u64>,
    /// Responses that failed the generator's own check.
    pub errors: Cell<u64>,
}

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

// ----------------------------------------------------------------------
// YCSB
// ----------------------------------------------------------------------

/// Closed-loop YCSB-style client: each request is a batch of
/// `scale.batch_ops` operations, half reads and half writes, keys uniform
/// over the client's slot partition. Reads are checked against the version
/// this connection last wrote.
pub struct SeededYcsb {
    scale: Scale,
    slots_per_client: u32,
    rngs: Vec<Rng>,
    versions: Vec<HashMap<u32, u64>>,
    expected: Vec<Vec<(u32, u64)>>,
    first_error: Option<String>,
    stats: Rc<ClientStats>,
}

impl SeededYcsb {
    /// `clients` connections over `scale.kv_records` slots.
    pub fn new(seed: u64, clients: usize, scale: Scale) -> (Self, Rc<ClientStats>) {
        let stats = Rc::new(ClientStats::default());
        let me = SeededYcsb {
            scale,
            slots_per_client: (scale.kv_records / clients.max(1)) as u32,
            rngs: (0..clients)
                .map(|i| Rng::new(seed, 0x1000 + i as u64))
                .collect(),
            versions: vec![HashMap::new(); clients],
            expected: vec![Vec::new(); clients],
            first_error: None,
            stats: Rc::clone(&stats),
        };
        (me, stats)
    }

    fn fail(&mut self, msg: String) {
        bump(&self.stats.errors);
        self.first_error.get_or_insert(msg);
    }
}

impl ClientBehavior for SeededYcsb {
    fn client_count(&self) -> usize {
        self.rngs.len()
    }

    fn next_request(&mut self, idx: usize, _now: Nanos) -> Option<Vec<u8>> {
        bump(&self.stats.issued);
        let base = idx as u32 * self.slots_per_client;
        let mut ops = Vec::with_capacity(self.scale.batch_ops);
        let mut expected = Vec::new();
        for _ in 0..self.scale.batch_ops {
            let r = self.rngs[idx].next_u64();
            let slot = base + ((r >> 1) % self.slots_per_client as u64) as u32;
            if r & 1 == 0 {
                let version = self.versions[idx].get(&slot).copied().unwrap_or(0) + 1;
                self.versions[idx].insert(slot, version);
                ops.push(KvOp::Set {
                    slot,
                    version,
                    value: value_pattern(slot, version, self.scale.value_size),
                });
            } else {
                expected.push((slot, self.versions[idx].get(&slot).copied().unwrap_or(0)));
                ops.push(KvOp::Get { slot });
            }
        }
        self.expected[idx] = expected;
        Some(KvRequest { ops }.encode())
    }

    fn on_response(&mut self, idx: usize, resp: &[u8], _now: Nanos, _latency: Nanos) {
        bump(&self.stats.responded);
        let decoded = match KvResponse::decode(resp) {
            Ok(d) => d,
            Err(e) => return self.fail(format!("client {idx}: undecodable response: {e}")),
        };
        let expected = std::mem::take(&mut self.expected[idx]);
        if decoded.gets.len() != expected.len() {
            return self.fail(format!(
                "client {idx}: {} gets, expected {}",
                decoded.gets.len(),
                expected.len()
            ));
        }
        for ((slot, version, value), (want_slot, want_version)) in
            decoded.gets.iter().zip(expected.iter())
        {
            if slot != want_slot || version != want_version {
                self.fail(format!(
                    "client {idx}: got slot {slot} v{version}, expected slot {want_slot} \
                     v{want_version}"
                ));
            } else if !value.is_empty()
                && *value != value_pattern(*slot, *version, self.scale.value_size)
            {
                self.fail(format!("client {idx}: slot {slot} value corrupt"));
            }
        }
    }

    fn verify(&self) -> Result<(), String> {
        match &self.first_error {
            None => Ok(()),
            Some(e) => Err(format!("{} error(s); first: {e}", self.stats.errors.get())),
        }
    }
}

// ----------------------------------------------------------------------
// Echo
// ----------------------------------------------------------------------

/// Closed-loop echo client: seeded payloads of 16..=128 bytes, byte-exact
/// check of every echo.
pub struct SeededEcho {
    rngs: Vec<Rng>,
    outstanding: Vec<Option<Vec<u8>>>,
    first_error: Option<String>,
    stats: Rc<ClientStats>,
}

impl SeededEcho {
    /// `clients` connections drawing from stream block `stream` of `seed`.
    pub fn new(seed: u64, stream: u64, clients: usize) -> (Self, Rc<ClientStats>) {
        let stats = Rc::new(ClientStats::default());
        let me = SeededEcho {
            rngs: (0..clients)
                .map(|i| Rng::new(seed, stream.wrapping_mul(0x1_0000) + i as u64))
                .collect(),
            outstanding: vec![None; clients],
            first_error: None,
            stats: Rc::clone(&stats),
        };
        (me, stats)
    }
}

impl ClientBehavior for SeededEcho {
    fn client_count(&self) -> usize {
        self.rngs.len()
    }

    fn next_request(&mut self, idx: usize, _now: Nanos) -> Option<Vec<u8>> {
        bump(&self.stats.issued);
        let rng = &mut self.rngs[idx];
        let len = rng.between(16, 129) as usize;
        let mut payload = Vec::with_capacity(len + 8);
        while payload.len() < len {
            payload.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        payload.truncate(len);
        self.outstanding[idx] = Some(payload.clone());
        Some(payload)
    }

    fn on_response(&mut self, idx: usize, resp: &[u8], _now: Nanos, _latency: Nanos) {
        bump(&self.stats.responded);
        let ok = self.outstanding[idx]
            .take()
            .is_some_and(|sent| sent == resp);
        if !ok {
            bump(&self.stats.errors);
            self.first_error
                .get_or_insert(format!("client {idx}: echo differs from what was sent"));
        }
    }

    fn verify(&self) -> Result<(), String> {
        match &self.first_error {
            None => Ok(()),
            Some(e) => Err(format!("{} error(s); first: {e}", self.stats.errors.get())),
        }
    }
}

/// Echo server whose requests write into a seeded choice among `footprint`
/// heap pages, so a fleet lane's per-epoch dirty set is a knob.
pub struct DirtyEcho {
    rng: Rng,
    footprint: u64,
}

impl DirtyEcho {
    /// Lane `lane`'s server with a `footprint`-page dirty set.
    pub fn new(seed: u64, lane: u64, footprint: u64) -> Self {
        DirtyEcho {
            rng: Rng::new(seed, 0x2000 + lane),
            footprint,
        }
    }
}

impl Application for DirtyEcho {
    fn name(&self) -> &str {
        "dirty-echo"
    }

    fn init(&mut self, _ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        Ok(())
    }

    fn handle_request(&mut self, ctx: &mut GuestCtx<'_>, req: &[u8]) -> SimResult<RequestOutcome> {
        ctx.cpu(20_000);
        let off = self.rng.below(self.footprint) * PAGE_SIZE as u64;
        ctx.heap_write(off, req)?;
        let mut back = vec![0u8; req.len()];
        ctx.heap_read(off, &mut back)?;
        Ok(RequestOutcome { response: back })
    }
}

// ----------------------------------------------------------------------
// Page storm
// ----------------------------------------------------------------------

/// Pages drawn per batch step.
const STORM_DRAWS_PER_STEP: u64 = 32;
/// Bytes of a sparse write.
const STORM_SPARSE_BYTES: usize = 64;

/// What the storm application shares with the benchmark: a host-side copy of
/// every byte it wrote and the number of steps it ran.
#[derive(Debug)]
pub struct StormShadow {
    /// Byte-for-byte copy of the guest heap.
    pub heap: RefCell<Vec<u8>>,
    /// Batch steps executed.
    pub steps: Cell<u64>,
}

/// Cheap batch application that rewrites a seeded set of heap pages: a
/// quarter of the draws replace the whole page with fresh content, the rest
/// write 64 bytes at a random offset. `init` writes every page once, so the
/// whole heap is resident before the first checkpoint.
pub struct StormApp {
    rng: Rng,
    pages: u64,
    cpu_per_step: Nanos,
    shadow: Rc<StormShadow>,
}

impl StormApp {
    /// A storm over `pages` heap pages charging `cpu_per_step` of virtual
    /// CPU per step (which sets how many steps fit in an epoch).
    pub fn new(seed: u64, pages: u64, cpu_per_step: Nanos) -> (Self, Rc<StormShadow>) {
        let shadow = Rc::new(StormShadow {
            heap: RefCell::new(vec![0u8; pages as usize * PAGE_SIZE]),
            steps: Cell::new(0),
        });
        let me = StormApp {
            rng: Rng::new(seed, 0x3000),
            pages,
            cpu_per_step,
            shadow: Rc::clone(&shadow),
        };
        (me, shadow)
    }

    fn write(&mut self, ctx: &mut GuestCtx<'_>, off: usize, data: &[u8]) -> SimResult<()> {
        ctx.heap_write(off as u64, data)?;
        self.shadow.heap.borrow_mut()[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let w = self.rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
    }
}

impl Application for StormApp {
    fn name(&self) -> &str {
        "storm"
    }

    fn init(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        let mut page = [0u8; PAGE_SIZE];
        for p in 0..self.pages as usize {
            // One repeated word per page: resident and non-zero, cheap to make.
            let w = (self.rng.next_u64() | 1).to_le_bytes();
            for chunk in page.chunks_mut(8) {
                chunk.copy_from_slice(&w);
            }
            self.write(ctx, p * PAGE_SIZE, &page)?;
        }
        Ok(())
    }

    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<StepOutcome> {
        ctx.cpu(self.cpu_per_step);
        let mut page = [0u8; PAGE_SIZE];
        for _ in 0..STORM_DRAWS_PER_STEP {
            let r = self.rng.next_u64();
            let base = ((r >> 8) % self.pages) as usize * PAGE_SIZE;
            if r & 3 == 0 {
                self.fill(&mut page);
                self.write(ctx, base, &page)?;
            } else {
                let off = ((r >> 40) as usize % (PAGE_SIZE - STORM_SPARSE_BYTES)) & !7;
                let mut sparse = [0u8; STORM_SPARSE_BYTES];
                self.fill(&mut sparse);
                self.write(ctx, base + off, &sparse)?;
            }
        }
        self.shadow.steps.set(self.shadow.steps.get() + 1);
        Ok(StepOutcome { done: false })
    }

    fn is_server(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(seed: u64, n: usize) -> Vec<Vec<u8>> {
        let (mut c, _) = SeededYcsb::new(seed, 2, Scale::small());
        (0..n).map(|i| c.next_request(i % 2, 0).unwrap()).collect()
    }

    #[test]
    fn equal_seeds_reproduce_and_different_seeds_differ() {
        assert_eq!(requests(7, 6), requests(7, 6));
        assert_ne!(requests(7, 6), requests(8, 6));

        let draw = |seed| {
            let mut r = Rng::new(seed, 3);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        assert_ne!(
            Rng::new(1, 0).next_u64(),
            Rng::new(1, 1).next_u64(),
            "streams of one seed are independent"
        );

        let echo = |seed| {
            let (mut c, _) = SeededEcho::new(seed, 0, 1);
            (0..4)
                .map(|_| c.next_request(0, 0).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(echo(5), echo(5));
        assert_ne!(echo(5), echo(6));
    }

    #[test]
    fn ycsb_batches_are_half_writes_over_the_clients_partition() {
        let scale = Scale::small();
        let (mut c, stats) = SeededYcsb::new(1, 4, scale);
        let req = KvRequest::decode(&c.next_request(2, 0).unwrap()).unwrap();
        assert_eq!(req.ops.len(), scale.batch_ops);
        let per = (scale.kv_records / 4) as u32;
        let mut sets = 0;
        for op in &req.ops {
            let slot = match op {
                KvOp::Set { slot, .. } => {
                    sets += 1;
                    *slot
                }
                KvOp::Get { slot } => *slot,
            };
            assert!((2 * per..3 * per).contains(&slot));
        }
        assert!((30..=70).contains(&sets), "{sets} sets of 100");
        assert_eq!(stats.issued.get(), 1);
    }

    #[test]
    fn echo_client_flags_a_corrupted_echo() {
        let (mut c, stats) = SeededEcho::new(1, 0, 1);
        let sent = c.next_request(0, 0).unwrap();
        c.on_response(0, &sent, 0, 0);
        assert!(c.verify().is_ok());
        let mut sent = c.next_request(0, 0).unwrap();
        sent[0] ^= 0xFF;
        c.on_response(0, &sent, 0, 0);
        assert!(c.verify().is_err());
        assert_eq!((stats.responded.get(), stats.errors.get()), (2, 1));
    }
}
