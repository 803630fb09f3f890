//! Load generators: YCSB-style (Redis/SSDB), SIEGE-style (web servers), and
//! the echo client for the microbenchmarks. All three double as §VII-A
//! validators — they record what they wrote/sent and flag any inconsistency
//! in what comes back, across failovers.

use crate::guestkv::{value_pattern, KvOp, KvRequest, KvResponse};
use crate::scale::Scale;
use nilicon::traffic::ClientBehavior;
use nilicon_sim::time::Nanos;
use std::collections::HashMap;

fn lcg(rng: &mut u64) -> u64 {
    *rng = rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *rng >> 16
}

/// Deterministic "golden copy" page content for web-server responses —
/// servers generate it, SIEGE verifies it byte-for-byte (§VII-A: "the
/// container output is validated by comparison with a golden copy").
pub fn golden_page(seed: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    let mut s = seed ^ 0xC0FFEE;
    for _ in 0..len {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        v.push((s >> 41) as u8);
    }
    v
}

// ----------------------------------------------------------------------
// YCSB
// ----------------------------------------------------------------------

/// YCSB-style batched client (§VI): each request is a batch of operations,
/// 50% reads / 50% writes, over a per-client slot partition. Tracks the
/// version it last wrote per slot and validates every read against the
/// deterministic value pattern.
#[derive(Debug)]
pub struct YcsbBehavior {
    n_clients: usize,
    scale: Scale,
    slots_per_client: u32,
    versions: Vec<HashMap<u32, u64>>,
    expectations: Vec<Vec<(u32, u64)>>,
    rngs: Vec<u64>,
    errors: Vec<String>,
    responses: u64,
}

impl YcsbBehavior {
    /// `n_clients` clients over `scale.kv_records` slots. Each client owns a
    /// partition of at least one slot, so there can be no more clients than
    /// records: shared slots would read as lost updates.
    pub fn new(n_clients: usize, scale: Scale) -> Self {
        assert!(
            n_clients <= scale.kv_records,
            "{n_clients} YCSB clients exceed the {} KV records: each client needs a slot of its own",
            scale.kv_records
        );
        YcsbBehavior {
            n_clients,
            scale,
            slots_per_client: (scale.kv_records / n_clients.max(1)) as u32,
            versions: vec![HashMap::new(); n_clients],
            expectations: vec![Vec::new(); n_clients],
            rngs: (0..n_clients)
                .map(|i| 0x9E3779B9u64.wrapping_mul(i as u64 + 1))
                .collect(),
            errors: Vec::new(),
            responses: 0,
        }
    }

    /// Responses received so far.
    pub fn responses(&self) -> u64 {
        self.responses
    }

    /// Validation errors collected.
    pub fn errors(&self) -> &[String] {
        &self.errors
    }
}

impl ClientBehavior for YcsbBehavior {
    fn client_count(&self) -> usize {
        self.n_clients
    }

    fn next_request(&mut self, idx: usize, _now: Nanos) -> Option<Vec<u8>> {
        let base = idx as u32 * self.slots_per_client;
        let mut ops = Vec::with_capacity(self.scale.batch_ops);
        let mut expected = Vec::new();
        for _ in 0..self.scale.batch_ops {
            // Independent draws: correlating op type with slot parity would
            // stop reads from ever observing written slots.
            let is_write = lcg(&mut self.rngs[idx]) & 1 == 0;
            let r = lcg(&mut self.rngs[idx]);
            let slot = base + (r % self.slots_per_client as u64) as u32;
            if is_write {
                // 50% writes (§VI).
                let version = self.versions[idx].get(&slot).copied().unwrap_or(0) + 1;
                self.versions[idx].insert(slot, version);
                ops.push(KvOp::Set {
                    slot,
                    version,
                    value: value_pattern(slot, version, self.scale.value_size),
                });
            } else {
                // 50% reads: expect exactly the version last written on this
                // connection (the store preloads version 0).
                let version = self.versions[idx].get(&slot).copied().unwrap_or(0);
                expected.push((slot, version));
                ops.push(KvOp::Get { slot });
            }
        }
        self.expectations[idx] = expected;
        Some(KvRequest { ops }.encode())
    }

    fn on_response(&mut self, idx: usize, resp: &[u8], _now: Nanos, _latency: Nanos) {
        self.responses += 1;
        let decoded = match KvResponse::decode(resp) {
            Ok(d) => d,
            Err(e) => {
                self.errors
                    .push(format!("client {idx}: undecodable response: {e}"));
                return;
            }
        };
        let expected = std::mem::take(&mut self.expectations[idx]);
        if decoded.gets.len() != expected.len() {
            self.errors.push(format!(
                "client {idx}: {} gets, expected {}",
                decoded.gets.len(),
                expected.len()
            ));
            return;
        }
        for ((slot, version, value), (exp_slot, exp_version)) in
            decoded.gets.iter().zip(expected.iter())
        {
            if slot != exp_slot {
                self.errors
                    .push(format!("client {idx}: slot {slot} != {exp_slot}"));
                continue;
            }
            if version != exp_version {
                self.errors.push(format!(
                    "client {idx}: slot {slot} version {version}, expected {exp_version} — lost update"
                ));
                continue;
            }
            // Version 0 may be an unloaded slot (empty) or a preloaded one.
            let want = value_pattern(*slot, *version, self.scale.value_size);
            if !value.is_empty() && *value != want {
                self.errors
                    .push(format!("client {idx}: slot {slot} value corrupt"));
            }
        }
    }

    fn verify(&self) -> Result<(), String> {
        if self.errors.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} error(s); first: {}",
                self.errors.len(),
                self.errors[0]
            ))
        }
    }
}

// ----------------------------------------------------------------------
// SIEGE
// ----------------------------------------------------------------------

/// SIEGE-style concurrent web client (§VI): each client requests pages by id
/// and validates the response against the golden copy.
#[derive(Debug)]
pub struct SiegeBehavior {
    n_clients: usize,
    page_ids: u32,
    response_len: usize,
    /// Skip the first N response bytes when comparing (dynamic headers —
    /// Node prefixes a hit count).
    pub skip_prefix: usize,
    rngs: Vec<u64>,
    outstanding: Vec<Option<u32>>,
    errors: Vec<String>,
    responses: u64,
}

impl SiegeBehavior {
    /// `n_clients` clients over `page_ids` distinct pages whose golden size
    /// is `response_len`.
    pub fn new(n_clients: usize, page_ids: u32, response_len: usize) -> Self {
        SiegeBehavior {
            n_clients,
            page_ids,
            response_len,
            skip_prefix: 0,
            rngs: (0..n_clients)
                .map(|i| 0xABCD_EF12u64.wrapping_mul(i as u64 + 3))
                .collect(),
            outstanding: vec![None; n_clients],
            errors: Vec::new(),
            responses: 0,
        }
    }

    /// Responses received.
    pub fn responses(&self) -> u64 {
        self.responses
    }
}

impl ClientBehavior for SiegeBehavior {
    fn client_count(&self) -> usize {
        self.n_clients
    }

    fn next_request(&mut self, idx: usize, _now: Nanos) -> Option<Vec<u8>> {
        let id = (lcg(&mut self.rngs[idx]) % self.page_ids as u64) as u32;
        self.outstanding[idx] = Some(id);
        Some(id.to_le_bytes().to_vec())
    }

    fn on_response(&mut self, idx: usize, resp: &[u8], _now: Nanos, _latency: Nanos) {
        self.responses += 1;
        let Some(id) = self.outstanding[idx].take() else {
            self.errors
                .push(format!("client {idx}: unexpected response"));
            return;
        };
        let golden = golden_page(id as u64, self.response_len);
        if resp.len() != golden.len() || resp[self.skip_prefix..] != golden[self.skip_prefix..] {
            self.errors
                .push(format!("client {idx}: page {id} differs from golden copy"));
        }
    }

    fn verify(&self) -> Result<(), String> {
        if self.errors.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} golden-copy mismatch(es); first: {}",
                self.errors.len(),
                self.errors[0]
            ))
        }
    }
}

// ----------------------------------------------------------------------
// Echo
// ----------------------------------------------------------------------

/// Echo client for `Net` and the stack-echo stressor: random-size payloads,
/// byte-exact verification, broken connections show up as missing echoes.
#[derive(Debug)]
pub struct EchoBehavior {
    n_clients: usize,
    min_len: usize,
    max_len: usize,
    rngs: Vec<u64>,
    outstanding: Vec<Option<Vec<u8>>>,
    errors: Vec<String>,
    responses: u64,
}

impl EchoBehavior {
    /// Clients sending payloads of `min_len..=max_len` bytes.
    pub fn new(n_clients: usize, min_len: usize, max_len: usize) -> Self {
        assert!(min_len <= max_len && min_len > 0);
        EchoBehavior {
            n_clients,
            min_len,
            max_len,
            rngs: (0..n_clients)
                .map(|i| 0x1234_5678u64.wrapping_mul(i as u64 + 7))
                .collect(),
            outstanding: vec![None; n_clients],
            errors: Vec::new(),
            responses: 0,
        }
    }

    /// Responses received.
    pub fn responses(&self) -> u64 {
        self.responses
    }
}

impl ClientBehavior for EchoBehavior {
    fn client_count(&self) -> usize {
        self.n_clients
    }

    fn next_request(&mut self, idx: usize, _now: Nanos) -> Option<Vec<u8>> {
        let len =
            self.min_len + (lcg(&mut self.rngs[idx]) as usize) % (self.max_len - self.min_len + 1);
        let mut payload = Vec::with_capacity(len);
        for _ in 0..len {
            payload.push((lcg(&mut self.rngs[idx]) & 0xFF) as u8);
        }
        self.outstanding[idx] = Some(payload.clone());
        Some(payload)
    }

    fn on_response(&mut self, idx: usize, resp: &[u8], _now: Nanos, _latency: Nanos) {
        self.responses += 1;
        match self.outstanding[idx].take() {
            Some(sent) if sent == resp => {}
            Some(_) => self.errors.push(format!("client {idx}: echo corrupted")),
            None => self.errors.push(format!("client {idx}: unexpected echo")),
        }
    }

    fn verify(&self) -> Result<(), String> {
        if self.errors.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} echo error(s); first: {}",
                self.errors.len(),
                self.errors[0]
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ycsb_builds_half_and_half_batches() {
        let scale = Scale {
            batch_ops: 200,
            ..Scale::small()
        };
        let mut b = YcsbBehavior::new(2, scale);
        let req = b.next_request(0, 0).unwrap();
        let decoded = KvRequest::decode(&req).unwrap();
        assert_eq!(decoded.ops.len(), 200);
        let sets = decoded
            .ops
            .iter()
            .filter(|o| matches!(o, KvOp::Set { .. }))
            .count();
        assert!((60..=140).contains(&sets), "≈50% writes, got {sets}");
        // Client 0 only touches its own partition.
        for op in &decoded.ops {
            let slot = match op {
                KvOp::Set { slot, .. } | KvOp::Get { slot } => *slot,
            };
            assert!(slot < scale.kv_records as u32 / 2);
        }
    }

    #[test]
    fn ycsb_validates_versions() {
        let scale = Scale {
            batch_ops: 10,
            ..Scale::small()
        };
        let mut b = YcsbBehavior::new(1, scale);
        let req = KvRequest::decode(&b.next_request(0, 0).unwrap()).unwrap();
        // Build the CORRECT response.
        let mut resp = KvResponse::default();
        for op in &req.ops {
            match op {
                KvOp::Set { .. } => resp.sets_acked += 1,
                KvOp::Get { slot } => {
                    let version = b.versions[0].get(slot).copied().unwrap_or(0);
                    resp.gets.push((
                        *slot,
                        version,
                        value_pattern(*slot, version, scale.value_size),
                    ));
                }
            }
        }
        b.on_response(0, &resp.encode(), 0, 0);
        assert!(b.verify().is_ok());

        // A stale-version response must be flagged as a lost update.
        let req2 = KvRequest::decode(&b.next_request(0, 0).unwrap()).unwrap();
        let mut bad = KvResponse::default();
        for op in &req2.ops {
            match op {
                KvOp::Set { .. } => bad.sets_acked += 1,
                KvOp::Get { slot } => bad.gets.push((*slot, 9999, vec![])),
            }
        }
        b.on_response(0, &bad.encode(), 0, 0);
        assert!(b.verify().is_err());
    }

    #[test]
    #[should_panic(expected = "5000 YCSB clients exceed the 4000 KV records")]
    fn ycsb_rejects_more_clients_than_records() {
        YcsbBehavior::new(5000, Scale::small());
    }

    #[test]
    fn siege_golden_copy_check() {
        let mut s = SiegeBehavior::new(1, 10, 128);
        let req = s.next_request(0, 0).unwrap();
        let id = u32::from_le_bytes(req[0..4].try_into().unwrap());
        s.on_response(0, &golden_page(id as u64, 128), 0, 0);
        assert!(s.verify().is_ok());
        let req2 = s.next_request(0, 0).unwrap();
        let _ = req2;
        s.on_response(0, b"not the golden page, wrong length too", 0, 0);
        assert!(s.verify().is_err());
    }

    #[test]
    fn siege_skip_prefix_tolerates_dynamic_header() {
        let mut s = SiegeBehavior::new(1, 10, 64);
        s.skip_prefix = 4;
        let req = s.next_request(0, 0).unwrap();
        let id = u32::from_le_bytes(req[0..4].try_into().unwrap());
        let mut page = golden_page(id as u64, 64);
        page[0..4].copy_from_slice(&123u32.to_le_bytes()); // dynamic hits field
        s.on_response(0, &page, 0, 0);
        assert!(s.verify().is_ok());
    }

    #[test]
    fn echo_detects_corruption() {
        let mut e = EchoBehavior::new(1, 10, 20);
        let sent = e.next_request(0, 0).unwrap();
        e.on_response(0, &sent, 0, 0);
        assert!(e.verify().is_ok());
        let sent2 = e.next_request(0, 0).unwrap();
        let mut corrupt = sent2.clone();
        corrupt[0] ^= 0xFF;
        e.on_response(0, &corrupt, 0, 0);
        assert!(e.verify().is_err());
    }

    #[test]
    fn echo_sizes_within_bounds() {
        let mut e = EchoBehavior::new(1, 5, 9);
        for _ in 0..50 {
            let p = e.next_request(0, 0).unwrap();
            assert!((5..=9).contains(&p.len()));
            e.on_response(0, &p, 0, 0);
        }
    }

    #[test]
    fn golden_page_deterministic() {
        assert_eq!(golden_page(1, 100), golden_page(1, 100));
        assert_ne!(golden_page(1, 100), golden_page(2, 100));
    }
}
