//! Direct client↔app loops (no harness, no network): the behaviors and the
//! applications agree on wire formats and semantics for long interactions.

use nilicon::traffic::ClientBehavior;
use nilicon_container::{Application, ContainerRuntime, ContainerSpec, GuestCtx};
use nilicon_sim::kernel::Kernel;
use nilicon_workloads::{
    EchoBehavior, NodeApp, RedisApp, Scale, SiegeBehavior, SsdbApp, StackEchoApp, YcsbBehavior,
};

fn host(spec: &ContainerSpec) -> (Kernel, nilicon_sim::ids::Pid) {
    let mut k = Kernel::default();
    let c = ContainerRuntime::create(&mut k, spec).unwrap();
    (k, c.init_pid())
}

/// Drive `rounds` closed-loop interactions between one behavior client and
/// the app, verifying at the end.
fn drive(
    app: &mut dyn Application,
    behavior: &mut dyn ClientBehavior,
    k: &mut Kernel,
    pid: nilicon_sim::ids::Pid,
    rounds: usize,
) {
    {
        let mut ctx = GuestCtx::new(k, pid, 0);
        app.init(&mut ctx).unwrap();
    }
    for i in 0..rounds {
        for idx in 0..behavior.client_count() {
            let Some(req) = behavior.next_request(idx, i as u64) else {
                continue;
            };
            let resp = {
                let mut ctx = GuestCtx::new(k, pid, i as u64);
                app.handle_request(&mut ctx, &req).unwrap()
            };
            behavior.on_response(idx, &resp.response, i as u64, 0);
        }
    }
    behavior.verify().expect("behavior validates the app");
}

#[test]
fn ycsb_against_redis_long_run() {
    let scale = Scale { kv_records: 1000, batch_ops: 50, ..Scale::small() };
    let mut app = RedisApp::new(scale, true);
    let mut spec = ContainerSpec::server("redis", 10, 6379);
    spec.heap_pages = app.heap_pages();
    let (mut k, pid) = host(&spec);
    let mut b = YcsbBehavior::new(3, scale);
    drive(&mut app, &mut b, &mut k, pid, 40);
    assert_eq!(b.responses(), 120);
    assert!(b.errors().is_empty());
}

#[test]
fn ycsb_against_ssdb_long_run() {
    let scale = Scale { kv_records: 500, batch_ops: 20, ..Scale::small() };
    let mut app = SsdbApp::new(scale);
    let mut spec = ContainerSpec::server("ssdb", 10, 8888);
    spec.heap_pages = app.heap_pages();
    let (mut k, pid) = host(&spec);
    let mut b = YcsbBehavior::new(2, scale);
    drive(&mut app, &mut b, &mut k, pid, 30);
    assert!(k.vfs.disk.writes_total() > 0, "persistence reached the device");
}

#[test]
fn siege_against_node_long_run() {
    let scale = Scale::small();
    let mut app = NodeApp::new(scale);
    let mut spec = ContainerSpec::server("node", 10, 3000);
    spec.heap_pages = app.heap_pages();
    let (mut k, pid) = host(&spec);
    let mut b = SiegeBehavior::new(4, 4096, app.response_len);
    b.skip_prefix = 4;
    drive(&mut app, &mut b, &mut k, pid, 25);
    assert_eq!(b.responses(), 100);
}

#[test]
fn echo_against_stack_echo_long_run() {
    let mut app = StackEchoApp::new();
    let mut spec = ContainerSpec::server("stack-echo", 10, 7778);
    spec.heap_pages = 64;
    let (mut k, pid) = host(&spec);
    let mut b = EchoBehavior::new(2, 1, 50_000);
    drive(&mut app, &mut b, &mut k, pid, 30);
    assert_eq!(b.responses(), 60);
}

#[test]
fn ycsb_catches_a_lying_server() {
    // Feed YCSB a server that silently drops every write: the version check
    // must flag lost updates. (The validation campaign's teeth.)
    struct LossyKv {
        inner: RedisApp,
    }
    impl Application for LossyKv {
        fn name(&self) -> &str {
            "lossy"
        }
        fn init(&mut self, ctx: &mut GuestCtx<'_>) -> nilicon_sim::SimResult<()> {
            self.inner.init(ctx)
        }
        fn handle_request(
            &mut self,
            ctx: &mut GuestCtx<'_>,
            req: &[u8],
        ) -> nilicon_sim::SimResult<nilicon_container::RequestOutcome> {
            // Strip all Sets before executing (acks them without applying).
            let mut request = nilicon_workloads::KvRequest::decode(req)?;
            let sets = request
                .ops
                .iter()
                .filter(|o| matches!(o, nilicon_workloads::KvOp::Set { .. }))
                .count() as u32;
            request.ops.retain(|o| matches!(o, nilicon_workloads::KvOp::Get { .. }));
            let out = self.inner.handle_request(ctx, &request.encode())?;
            let mut resp = nilicon_workloads::KvResponse::decode(&out.response)?;
            resp.sets_acked += sets; // lie
            Ok(nilicon_container::RequestOutcome { response: resp.encode() })
        }
    }

    let scale = Scale { kv_records: 200, batch_ops: 30, ..Scale::small() };
    let mut app = LossyKv { inner: RedisApp::new(scale, true) };
    let mut spec = ContainerSpec::server("lossy", 10, 6379);
    spec.heap_pages = app.inner.heap_pages();
    let (mut k, pid) = host(&spec);

    let mut b = YcsbBehavior::new(1, scale);
    {
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        app.init(&mut ctx).unwrap();
    }
    let mut caught = false;
    for i in 0..10 {
        let req = b.next_request(0, i).unwrap();
        let resp = {
            let mut ctx = GuestCtx::new(&mut k, pid, i);
            app.handle_request(&mut ctx, &req).unwrap()
        };
        b.on_response(0, &resp.response, i, 0);
        if b.verify().is_err() {
            caught = true;
            break;
        }
    }
    assert!(caught, "dropped writes must be detected as lost updates");
}
