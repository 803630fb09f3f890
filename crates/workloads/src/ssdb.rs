//! SSDB-like persistent NoSQL store (§VI).
//!
//! Configured as the paper configures SSDB: **full persistence** — every set
//! is written through the file system to disk, stressing the page cache, the
//! DNC tracking (§III), and the DRBD replication path. The higher per-op
//! cost (LSM write path + syncs) gives SSDB its 93 ms stock batch latency
//! (Table VI) and moderate dirty-page rate (Table III: 590 pages/epoch).

use crate::guestkv::{decode_ops, GuestKv, KvOpRef, ResponseWriter};
use crate::scale::Scale;
use nilicon_container::{Application, GuestCtx, RequestOutcome};
use nilicon_sim::ids::Fd;
use nilicon_sim::time::Nanos;
use nilicon_sim::SimResult;

/// The SSDB-like application.
#[derive(Debug)]
pub struct SsdbApp {
    kv: GuestKv,
    scale: Scale,
    /// CPU per operation (LSM path).
    pub cpu_per_op: Nanos,
    /// Aux pages per set (memtable + index churn).
    pub aux_per_set: u64,
    /// fsync every N sets (write-ahead durability).
    pub fsync_every: u64,
    db_fd: Option<Fd>,
    sets_since_sync: u64,
}

impl SsdbApp {
    /// Build at `scale`.
    pub fn new(scale: Scale) -> Self {
        let kv = GuestKv::layout(0, scale.kv_records as u32, scale.value_size, 1024);
        SsdbApp {
            kv,
            scale,
            cpu_per_op: 55_000,
            aux_per_set: 1,
            fsync_every: 64,
            db_fd: None,
            sets_since_sync: 0,
        }
    }

    /// Heap pages a container hosting this app needs.
    pub fn heap_pages(&self) -> u64 {
        self.kv.heap_pages_needed() + 64
    }

    fn file_off(&self, slot: u32) -> u64 {
        slot as u64 * GuestKv::slot_size_for(self.scale.value_size)
    }
}

impl Application for SsdbApp {
    fn name(&self) -> &str {
        "ssdb"
    }

    fn init(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        let fd = ctx.open_or_create("/data/ssdb.db")?;
        self.db_fd = Some(fd);
        Ok(())
    }

    fn handle_request(&mut self, ctx: &mut GuestCtx<'_>, req: &[u8]) -> SimResult<RequestOutcome> {
        let fd = self.db_fd.expect("init ran");
        let ops = decode_ops(req)?;
        let mut resp = ResponseWriter::for_ops(&ops, &self.kv);
        for op in ops {
            ctx.cpu(self.cpu_per_op);
            match op {
                KvOpRef::Set {
                    slot,
                    version,
                    value,
                } => {
                    // Memtable (guest memory) + durable file write.
                    self.kv.set(ctx, slot, version, value)?;
                    self.kv
                        .aux_touch(ctx, slot as u64 ^ version, self.aux_per_set)?;
                    let mut rec = version.to_le_bytes().to_vec();
                    rec.extend_from_slice(&(value.len() as u32).to_le_bytes());
                    rec.extend_from_slice(value);
                    ctx.pwrite(fd, self.file_off(slot), &rec)?;
                    self.sets_since_sync += 1;
                    if self.sets_since_sync >= self.fsync_every {
                        ctx.fsync(fd)?;
                        self.sets_since_sync = 0;
                    }
                    resp.ack_set();
                }
                KvOpRef::Get { slot } => resp.get(&self.kv, ctx, slot)?,
            }
        }
        Ok(RequestOutcome {
            response: resp.finish(),
        })
    }

    fn recover(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        // Re-open the database file in the restored container (fd table was
        // restored, but the app object re-resolves its handle like a process
        // whose library state came back from its own memory).
        self.db_fd = Some(ctx.open_or_create("/data/ssdb.db")?);
        self.sets_since_sync = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guestkv::{value_pattern, KvOp, KvRequest, KvResponse};
    use nilicon_container::{ContainerRuntime, ContainerSpec};
    use nilicon_sim::kernel::Kernel;

    fn host(app: &SsdbApp) -> (Kernel, nilicon_sim::ids::Pid) {
        let mut k = Kernel::default();
        let mut spec = ContainerSpec::server("ssdb", 10, 8888);
        spec.heap_pages = app.heap_pages();
        let c = ContainerRuntime::create(&mut k, &spec).unwrap();
        (k, c.init_pid())
    }

    #[test]
    fn sets_reach_the_page_cache_and_disk() {
        let mut app = SsdbApp::new(Scale::small());
        app.fsync_every = 2;
        let (mut k, pid) = host(&app);
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        app.init(&mut ctx).unwrap();
        let req = KvRequest {
            ops: vec![
                KvOp::Set {
                    slot: 1,
                    version: 1,
                    value: value_pattern(1, 1, 100),
                },
                KvOp::Set {
                    slot: 2,
                    version: 1,
                    value: value_pattern(2, 1, 100),
                },
            ],
        };
        app.handle_request(&mut ctx, &req.encode()).unwrap();
        assert!(
            k.vfs.disk.pending_writes() > 0,
            "fsync pushed data to the replicated device"
        );
    }

    #[test]
    fn get_after_set_is_consistent() {
        let mut app = SsdbApp::new(Scale::small());
        let (mut k, pid) = host(&app);
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        app.init(&mut ctx).unwrap();
        let req = KvRequest {
            ops: vec![
                KvOp::Set {
                    slot: 7,
                    version: 3,
                    value: value_pattern(7, 3, 777),
                },
                KvOp::Get { slot: 7 },
            ],
        };
        let out = app.handle_request(&mut ctx, &req.encode()).unwrap();
        let resp = KvResponse::decode(&out.response).unwrap();
        assert_eq!(resp.gets[0], (7, 3, value_pattern(7, 3, 777)));
    }

    #[test]
    fn ssdb_is_much_slower_per_op_than_redis() {
        let ssdb = SsdbApp::new(Scale::small());
        let redis = crate::redis::RedisApp::new(Scale::small(), false);
        assert!(
            ssdb.cpu_per_op > 10 * redis.cpu_per_op,
            "Table VI: 93ms vs 3.1ms batches"
        );
    }

    #[test]
    fn recover_reopens_database() {
        let mut app = SsdbApp::new(Scale::small());
        let (mut k, pid) = host(&app);
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        app.init(&mut ctx).unwrap();
        let old = app.db_fd;
        let mut ctx2 = GuestCtx::new(&mut k, pid, 1);
        app.recover(&mut ctx2).unwrap();
        assert!(app.db_fd.is_some());
        let _ = old;
    }
}
