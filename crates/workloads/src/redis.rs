//! Redis-like in-memory NoSQL store (§VI).
//!
//! Configured as the paper configures Redis: all data in memory,
//! persistence: None. Requests are YCSB-style batches of get/set operations;
//! values live in guest heap pages through [`GuestKv`], and the metadata
//! churn of a real store (dict buckets, allocator) is modeled by aux-arena
//! touches — together these produce the paper's high dirty-page rate
//! (Table III: 6.3 K pages/epoch) and make Redis the most
//! runtime-overhead-bound benchmark (Fig. 3).

use crate::guestkv::{decode_ops, GuestKv, KvOpRef, ResponseWriter};
use crate::scale::Scale;
use nilicon_container::{Application, GuestCtx, RequestOutcome};
use nilicon_sim::time::Nanos;
use nilicon_sim::SimResult;

/// The Redis-like application.
#[derive(Debug)]
pub struct RedisApp {
    kv: GuestKv,
    scale: Scale,
    /// CPU per operation (µs-scale; stock batch latency ≈ ops × this).
    pub cpu_per_op: Nanos,
    /// Aux metadata pages dirtied per set.
    pub aux_per_set: u64,
    /// Aux metadata pages dirtied per get.
    pub aux_per_get: u64,
    ops_processed: u64,
    preload: bool,
}

impl RedisApp {
    /// Build at `scale`. `preload` seeds every slot (the YCSB load phase —
    /// gives Redis its ~100 MB restore footprint, Table II).
    pub fn new(scale: Scale, preload: bool) -> Self {
        let kv = GuestKv::layout(0, scale.kv_records as u32, scale.value_size, 2048);
        RedisApp {
            kv,
            scale,
            cpu_per_op: 2_200,
            aux_per_set: 2,
            aux_per_get: 1,
            ops_processed: 0,
            preload,
        }
    }

    /// Heap pages a container hosting this app needs.
    pub fn heap_pages(&self) -> u64 {
        self.kv.heap_pages_needed() + 64
    }

    /// The store layout (for tests).
    pub fn kv(&self) -> &GuestKv {
        &self.kv
    }

}

impl Application for RedisApp {
    fn name(&self) -> &str {
        "redis"
    }

    fn init(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        if self.preload {
            // YCSB load phase: every slot gets a version-0 value.
            for slot in 0..self.scale.kv_records as u32 {
                let v = crate::guestkv::value_pattern(slot, 0, self.scale.value_size);
                self.kv.set(ctx, slot, 0, &v)?;
            }
        }
        Ok(())
    }

    fn handle_request(&mut self, ctx: &mut GuestCtx<'_>, req: &[u8]) -> SimResult<RequestOutcome> {
        // Values go from the request buffer into guest memory, and from
        // guest memory into the response buffer, with no copy in between.
        let ops = decode_ops(req)?;
        let mut resp = ResponseWriter::for_ops(&ops, &self.kv);
        for op in ops {
            ctx.cpu(self.cpu_per_op);
            self.ops_processed += 1;
            match op {
                KvOpRef::Set {
                    slot,
                    version,
                    value,
                } => {
                    self.kv.set(ctx, slot, version, value)?;
                    self.kv
                        .aux_touch(ctx, slot as u64 ^ version, self.aux_per_set)?;
                    resp.ack_set();
                }
                KvOpRef::Get { slot } => {
                    resp.get(&self.kv, ctx, slot)?;
                    self.kv.aux_touch(ctx, slot as u64, self.aux_per_get)?;
                }
            }
        }
        Ok(RequestOutcome {
            response: resp.finish(),
        })
    }

    fn recover(&mut self, _ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        // All durable state lives in guest memory; nothing to rebuild.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guestkv::{value_pattern, KvOp, KvRequest, KvResponse};
    use nilicon_container::{ContainerRuntime, ContainerSpec};
    use nilicon_sim::kernel::Kernel;

    fn host(app: &RedisApp) -> (Kernel, nilicon_sim::ids::Pid) {
        let mut k = Kernel::default();
        let mut spec = ContainerSpec::server("redis", 10, 6379);
        spec.heap_pages = app.heap_pages();
        let c = ContainerRuntime::create(&mut k, &spec).unwrap();
        (k, c.init_pid())
    }

    #[test]
    fn batch_request_roundtrip() {
        let mut app = RedisApp::new(Scale::small(), false);
        let (mut k, pid) = host(&app);
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        app.init(&mut ctx).unwrap();

        let req = KvRequest {
            ops: vec![
                KvOp::Set {
                    slot: 10,
                    version: 1,
                    value: value_pattern(10, 1, 512),
                },
                KvOp::Get { slot: 10 },
                KvOp::Get { slot: 11 },
            ],
        };
        let out = app.handle_request(&mut ctx, &req.encode()).unwrap();
        let resp = KvResponse::decode(&out.response).unwrap();
        assert_eq!(resp.sets_acked, 1);
        assert_eq!(resp.gets.len(), 2);
        assert_eq!(resp.gets[0], (10, 1, value_pattern(10, 1, 512)));
        assert_eq!(resp.gets[1].1, 0, "unset slot has version 0");
    }

    #[test]
    fn preload_fills_every_slot() {
        let scale = Scale {
            kv_records: 50,
            ..Scale::small()
        };
        let mut app = RedisApp::new(scale, true);
        let (mut k, pid) = host(&app);
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        app.init(&mut ctx).unwrap();
        let req = KvRequest {
            ops: vec![KvOp::Get { slot: 49 }],
        };
        let out = app.handle_request(&mut ctx, &req.encode()).unwrap();
        let resp = KvResponse::decode(&out.response).unwrap();
        assert_eq!(resp.gets[0].2, value_pattern(49, 0, scale.value_size));
    }

    #[test]
    fn cpu_charged_per_op() {
        let mut app = RedisApp::new(Scale::small(), false);
        let (mut k, pid) = host(&app);
        {
            let mut ctx = GuestCtx::new(&mut k, pid, 0);
            app.init(&mut ctx).unwrap();
        }
        k.meter.take();
        let req = KvRequest {
            ops: (0..10).map(|s| KvOp::Get { slot: s }).collect(),
        };
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        app.handle_request(&mut ctx, &req.encode()).unwrap();
        let cost = k.meter.take();
        assert!(
            cost >= 10 * app.cpu_per_op,
            "at least the op CPU, got {cost}"
        );
    }

    #[test]
    fn writes_dirty_pages_realistically() {
        let mut app = RedisApp::new(Scale::small(), false);
        let (mut k, pid) = host(&app);
        {
            let mut ctx = GuestCtx::new(&mut k, pid, 0);
            app.init(&mut ctx).unwrap();
        }
        k.mm_mut(pid)
            .unwrap()
            .set_tracking(nilicon_sim::mem::TrackingMode::SoftDirty);
        k.clear_refs(pid).unwrap();
        let ops: Vec<KvOp> = (0..50)
            .map(|i| KvOp::Set {
                slot: i * 61 % 4000,
                version: 1,
                value: value_pattern(i, 1, 1024),
            })
            .collect();
        let req = KvRequest { ops };
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        app.handle_request(&mut ctx, &req.encode()).unwrap();
        let dirty = k.mm(pid).unwrap().soft_dirty_count();
        // 50 sets × (1-2 value pages + up to 2 aux) — the Table III driver.
        assert!((50..=250).contains(&dirty), "dirty {dirty}");
    }
}
