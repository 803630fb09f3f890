//! The microbenchmarks: `Net` (§VII-B) and the two §VII-A validation
//! stressors.

use nilicon_container::{Application, GuestCtx, RequestOutcome, StepOutcome};
use nilicon_sim::ids::Fd;
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimError, SimResult, PAGE_SIZE};

// ----------------------------------------------------------------------
// Net: the recovery-latency microbenchmark (§VII-B)
// ----------------------------------------------------------------------

/// `Net`: "the client sends 10 bytes to the server and the server responds
/// with the same 10 bytes" — the minimal-state workload of Table II.
#[derive(Debug, Default)]
pub struct NetEchoApp {
    requests: u64,
}

impl NetEchoApp {
    /// New instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Application for NetEchoApp {
    fn name(&self) -> &str {
        "net"
    }

    fn init(&mut self, _ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        Ok(())
    }

    fn handle_request(&mut self, ctx: &mut GuestCtx<'_>, req: &[u8]) -> SimResult<RequestOutcome> {
        ctx.cpu(3_000);
        self.requests += 1;
        // Stage through guest memory so the echo path is checkpointable.
        ctx.heap_write(0, req)?;
        let mut back = vec![0u8; req.len()];
        ctx.heap_read(0, &mut back)?;
        Ok(RequestOutcome { response: back })
    }
}

// ----------------------------------------------------------------------
// Stack echo: §VII-A microbenchmark 2
// ----------------------------------------------------------------------

/// "A client sends a message of random size to the server, the server saves
/// it on its stack and then sends it back" — stresses the kernel network
/// stack and the application stack in memory. The paper uses 1 B - 2 MB
/// messages; our thread stacks are 128 KiB, so the driver caps messages at
/// [`StackEchoApp::MAX_MSG`] (documented substitution).
#[derive(Debug, Default)]
pub struct StackEchoApp {
    echoes: u64,
}

impl StackEchoApp {
    /// Maximum message size the stack buffer holds.
    pub const MAX_MSG: usize = 96 * 1024;

    /// New instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Application for StackEchoApp {
    fn name(&self) -> &str {
        "stack-echo"
    }

    fn init(&mut self, _ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        Ok(())
    }

    fn handle_request(&mut self, ctx: &mut GuestCtx<'_>, req: &[u8]) -> SimResult<RequestOutcome> {
        if req.len() > Self::MAX_MSG {
            return Err(SimError::Invalid("message exceeds stack buffer".into()));
        }
        ctx.cpu(2_000 + req.len() as Nanos / 8);
        // Save on the stack (stack 0), then read back and echo — the bytes
        // on the wire literally transit guest stack memory.
        ctx.stack_write(0, 0, req)?;
        let mut back = vec![0u8; req.len()];
        ctx.stack_read(0, 0, &mut back)?;
        self.echoes += 1;
        Ok(RequestOutcome { response: back })
    }
}

// ----------------------------------------------------------------------
// File/disk stressor: §VII-A microbenchmark 1
// ----------------------------------------------------------------------

/// "Performs a mix of writes and reads of random size (1-8192 bytes) to
/// random locations in a file. An error is flagged if the data returned by a
/// read differs from the data written to that location earlier."
///
/// The expected-contents mirror lives in **guest heap memory**, so a failover
/// rolls the mirror and the file back together — exactly the property that
/// makes this a replication-correctness stressor rather than a torn-state
/// false alarm.
#[derive(Debug)]
pub struct StressFsApp {
    /// File size in bytes.
    pub file_size: u64,
    /// fsync every N operations (exercises DRBD).
    pub fsync_every: u64,
    fd: Option<Fd>,
    /// Errors detected (checked by the validation harness).
    pub errors: u64,
}

/// Guest heap layout: state page (rng + op counter), then the mirror region.
const STATE: u64 = 0;
const MIRROR: u64 = PAGE_SIZE as u64;

impl StressFsApp {
    /// New stressor over a file of `file_size` bytes.
    pub fn new(file_size: u64) -> Self {
        StressFsApp {
            file_size,
            fsync_every: 32,
            fd: None,
            errors: 0,
        }
    }

    /// Heap pages needed.
    pub fn heap_pages(&self) -> u64 {
        1 + self.file_size.div_ceil(PAGE_SIZE as u64) + 4
    }

    fn read_state(&self, ctx: &mut GuestCtx<'_>) -> SimResult<(u64, u64)> {
        let mut buf = [0u8; 16];
        ctx.heap_read(STATE, &mut buf)?;
        Ok((
            u64::from_le_bytes(buf[0..8].try_into().unwrap()),
            u64::from_le_bytes(buf[8..16].try_into().unwrap()),
        ))
    }

    fn write_state(&self, ctx: &mut GuestCtx<'_>, rng: u64, ops: u64) -> SimResult<()> {
        let mut buf = [0u8; 16];
        buf[0..8].copy_from_slice(&rng.to_le_bytes());
        buf[8..16].copy_from_slice(&ops.to_le_bytes());
        ctx.heap_write(STATE, &buf)
    }
}

fn lcg(rng: &mut u64) -> u64 {
    *rng = rng
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *rng >> 16
}

impl Application for StressFsApp {
    fn name(&self) -> &str {
        "stress-fs"
    }

    fn is_server(&self) -> bool {
        false
    }

    fn init(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        self.fd = Some(ctx.open_or_create("/data/stress.dat")?);
        self.write_state(ctx, 0x2545F4914F6CDD1D, 0)
    }

    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<StepOutcome> {
        let fd = self.fd.expect("init ran");
        let (mut rng, ops) = self.read_state(ctx)?;
        ctx.cpu(8_000);
        let len = (lcg(&mut rng) % 8192 + 1) as usize; // 1-8192 bytes (§VII-A)
        let off = lcg(&mut rng) % (self.file_size - len as u64);
        let is_write = lcg(&mut rng).is_multiple_of(2);

        if is_write {
            let fill = (lcg(&mut rng) & 0xFF) as u8;
            let data = vec![fill ^ (off as u8); len];
            ctx.pwrite(fd, off, &data)?;
            ctx.heap_write(MIRROR + off, &data)?;
            if ops % self.fsync_every == self.fsync_every - 1 {
                ctx.fsync(fd)?;
            }
        } else {
            let mut from_file = vec![0u8; len];
            let n = ctx.pread(fd, off, &mut from_file)?;
            let mut expected = vec![0u8; len];
            ctx.heap_read(MIRROR + off, &mut expected)?;
            // Short reads (never-written tail) read as zeros in the mirror too.
            if from_file[..n] != expected[..n] || !expected[n..].iter().all(|&b| b == 0) {
                self.errors += 1;
            }
        }
        self.write_state(ctx, rng, ops + 1)?;
        Ok(StepOutcome { done: false })
    }

    fn recover(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        self.fd = Some(ctx.open_or_create("/data/stress.dat")?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_container::{ContainerRuntime, ContainerSpec};
    use nilicon_sim::kernel::Kernel;

    fn host(pages: u64) -> (Kernel, nilicon_sim::ids::Pid) {
        let mut k = Kernel::default();
        let mut spec = ContainerSpec::server("micro", 10, 7000);
        spec.heap_pages = pages;
        let c = ContainerRuntime::create(&mut k, &spec).unwrap();
        (k, c.init_pid())
    }

    #[test]
    fn net_echo_roundtrip() {
        let mut app = NetEchoApp::new();
        let (mut k, pid) = host(64);
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        let out = app.handle_request(&mut ctx, b"0123456789").unwrap();
        assert_eq!(out.response, b"0123456789");
    }

    #[test]
    fn stack_echo_roundtrip_and_cap() {
        let mut app = StackEchoApp::new();
        let (mut k, pid) = host(64);
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        let msg = vec![0xAB; 50_000];
        let out = app.handle_request(&mut ctx, &msg).unwrap();
        assert_eq!(out.response, msg);
        let too_big = vec![0u8; StackEchoApp::MAX_MSG + 1];
        let mut ctx2 = GuestCtx::new(&mut k, pid, 1);
        assert!(app.handle_request(&mut ctx2, &too_big).is_err());
    }

    #[test]
    fn stress_fs_detects_no_errors_in_healthy_run() {
        let mut app = StressFsApp::new(64 * 1024);
        let (mut k, pid) = host(app.heap_pages());
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        app.init(&mut ctx).unwrap();
        for i in 0..300 {
            let mut ctx = GuestCtx::new(&mut k, pid, i);
            assert!(!app.step(&mut ctx).unwrap().done);
        }
        assert_eq!(app.errors, 0, "read-after-write consistency holds");
        assert!(k.vfs.disk.writes_total() > 0, "fsyncs reached the device");
    }

    #[test]
    fn stress_fs_catches_real_corruption() {
        // Corrupt the file behind the app's back: errors must be flagged.
        let mut app = StressFsApp::new(32 * 1024);
        app.fsync_every = u64::MAX; // keep it in the cache
        let (mut k, pid) = host(app.heap_pages());
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        app.init(&mut ctx).unwrap();
        // Do some writes first.
        for i in 0..200 {
            let mut ctx = GuestCtx::new(&mut k, pid, i);
            app.step(&mut ctx).unwrap();
        }
        // Sabotage: flip bytes throughout the file.
        let ino = k.vfs.lookup("/data/stress.dat").unwrap();
        for page in 0..8 {
            k.vfs
                .pwrite(ino, page * 4096 + 7, &[0x5A; 2048], 0)
                .unwrap();
        }
        for i in 200..2000 {
            let mut ctx = GuestCtx::new(&mut k, pid, i);
            app.step(&mut ctx).unwrap();
        }
        assert!(app.errors > 0, "corruption must be detected");
    }

    #[test]
    fn stress_fs_state_lives_in_guest() {
        let mut app = StressFsApp::new(32 * 1024);
        let (mut k, pid) = host(app.heap_pages());
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        app.init(&mut ctx).unwrap();
        for i in 0..10 {
            let mut ctx = GuestCtx::new(&mut k, pid, i);
            app.step(&mut ctx).unwrap();
        }
        let mut ctx = GuestCtx::new(&mut k, pid, 99);
        let (_, ops) = app.read_state(&mut ctx).unwrap();
        assert_eq!(ops, 10, "op counter persisted in guest memory");
    }
}
