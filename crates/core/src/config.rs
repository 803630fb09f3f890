//! Replication configuration: the §V optimizations as toggles.

use nilicon_criu::{DumpConfig, ShardCodec};
use nilicon_sim::kernel::{PageTransferVia, VmaCollectVia};
use nilicon_sim::proc::FreezeStrategy;
use nilicon_sim::time::{Nanos, MILLISECOND};
use nilicon_sim::{SimError, SimResult};

/// The six §V optimizations, one per Table I row.
///
/// `basic()` is the unoptimized port of CRIU+Remus to containers (Table I:
/// 1940% overhead on streamcluster); [`OptimizationConfig::nilicon`] enables
/// everything (31%). [`OptimizationConfig::table1_rows`] yields the paper's
/// cumulative sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizationConfig {
    /// §V-A: radix-tree page store + busy-poll freeze + no proxy processes
    /// ("Optimize CRIU", 1940% → 619%).
    pub optimize_criu: bool,
    /// §V-B: cache infrequently-modified in-kernel state, invalidated by
    /// ftrace hooks (619% → 84%).
    pub cache_infrequent: bool,
    /// §V-C: block input by buffering in the plug qdisc instead of firewall
    /// rules (84% → 65%).
    pub plug_input_blocking: bool,
    /// §V-D(1): VMAs via netlink instead of /proc/pid/smaps (65% → 53%).
    pub netlink_vmas: bool,
    /// §V-D(2): staging buffer — resume the container before transferring
    /// state to the backup (53% → 37%).
    pub staging_buffer: bool,
    /// §V-D(3): parasite transfers dirty pages via shared memory instead of
    /// a pipe (37% → 31%).
    pub shm_page_transfer: bool,
    /// §V-E: 200 ms repair-mode minimum RTO at restore (recovery latency,
    /// not normal-operation overhead).
    pub optimized_rto: bool,
    /// EXTENSION (HyCoR, arXiv:2101.09584): delta-encode the epoch's dirty
    /// pages against the last shipped epoch before transfer — zero pages
    /// elided, sparse changes as XOR deltas, dense churn as full pages.
    /// `transfer_cost` is then charged on *encoded* bytes; a per-page encode
    /// cost lands in the stop phase and a decode cost on the backup. Off in
    /// every paper reproduction run.
    pub delta_transfer: bool,
    /// EXTENSION (§VIII pause-shrinking; HyCoR, arXiv:2101.09584):
    /// copy-on-write checkpointing — at pause, dirty pages are
    /// *write-protected* (cheap) instead of copied; the container resumes
    /// immediately and a background copier drains the protected set into
    /// staging during the next execution phase, with write faults triggering
    /// an eager copy-before-write. The drain, transfer, and backup ingest
    /// all land on the ack path; the epoch is acked only once every deferred
    /// page has reached the backup. Off in every paper reproduction run.
    pub cow_checkpoint: bool,
    /// EXTENSION (HyCoR, arXiv:2101.09584; CRIU live migration): post-failover
    /// re-replication — after a failover the promoted container keeps serving
    /// while a replacement backup is bootstrapped online (full checkpoint
    /// streamed in bounded chunks over the COW machinery, then incremental
    /// epochs resume toward the new backup). The paper stops at a single
    /// failover, so this is off in every paper reproduction run.
    pub rearm: bool,
    /// EXTENSION (placement): number of backup replicas `n`. Each committed
    /// epoch's pages are erasure-coded into `n` fragments, one per replica.
    /// `1` (the paper's single warm backup) disables the placement layer
    /// entirely; every paper reproduction run uses `1`.
    pub backups: u32,
    /// EXTENSION (placement): quorum `k` — the epoch acks once any `k`
    /// fragment sets are durable, failover reconstructs the committed image
    /// from any `k` survivors, and per-replica storage is `ceil(4 KiB / k)`
    /// per page (total overhead `n/k`× instead of mirroring's `n`×).
    /// Must satisfy `1 ≤ k ≤ n ≤ 128`, so `1` when `backups == 1`.
    pub quorum: u32,
    /// EXTENSION (HyCoR, arXiv:2101.09584): hybrid checkpoint + replay —
    /// record every nondeterministic event (request dispatch, batch step)
    /// into a per-epoch log,
    /// ship log chunks to the backup continuously, and release output as soon
    /// as the *log* commits instead of waiting for the epoch ack. At failover
    /// the backup restores the last committed checkpoint and re-executes the
    /// sealed log tail, reproducing byte-identical state and the exact output
    /// stream; a log gap or partial tail falls back to the plain NiLiCon
    /// last-checkpoint path. Off in every paper reproduction run.
    pub hybrid_replay: bool,
    /// EXTENSION (§VIII concurrency): staged checkpoint pipeline — the
    /// dump-drain, delta-encode, transfer, and backup-ingest stages run as a
    /// bounded-queue pipeline overlapped with the next execution phase
    /// instead of the synchronous dump→encode→ship→ingest sequence. Chunks
    /// hand off peek-before-commit: a stage removes its input only after the
    /// downstream stage durably accepted it, so a crashed-and-restarted stage
    /// replays its in-flight chunk without loss or duplication, and the
    /// committed image stays byte-identical to the synchronous path. When the
    /// pipeline cannot drain an epoch before the next checkpoint, the backlog
    /// stalls the next stop phase (backpressure), degrading toward the
    /// paper's synchronous behavior. It overlaps the staged ack path, so it
    /// needs `staging_buffer` or `cow_checkpoint`. Off in every paper
    /// reproduction run.
    pub pipeline: bool,
    /// EXTENSION (fleet scale; ROADMAP item 1): multiplex this many
    /// containers over one primary/backup pair via the [`crate::fleet`]
    /// scheduler — per-container engines and epoch state feeding one
    /// shared FIFO transfer link, staggered epoch boundaries (phase offset
    /// `i·epoch/N`), and one consolidated heartbeat channel carrying
    /// per-container liveness bits. `0` disables the fleet
    /// layer entirely (the paper's one-container-per-pair topology); every
    /// paper reproduction run uses `0`.
    pub fleet: u32,
    /// EXTENSION (fleet scale): align every fleet member's epoch boundary to
    /// the same phase instead of staggering — the stop-phase and link convoy
    /// configuration the stagger exists to avoid; `fleet_bench`'s aligned
    /// cell measures the convoy with it. [`Self::validate`] rejects it below
    /// two lanes, where lane 0's offset is the only one and is 0 either way;
    /// off in every paper reproduction run.
    pub fleet_aligned: bool,
}

impl OptimizationConfig {
    /// Everything off: the basic implementation (Table I row 1).
    pub fn basic() -> Self {
        OptimizationConfig {
            optimize_criu: false,
            cache_infrequent: false,
            plug_input_blocking: false,
            netlink_vmas: false,
            staging_buffer: false,
            shm_page_transfer: false,
            optimized_rto: false,
            delta_transfer: false,
            cow_checkpoint: false,
            rearm: false,
            backups: 1,
            quorum: 1,
            hybrid_replay: false,
            pipeline: false,
            fleet: 0,
            fleet_aligned: false,
        }
    }

    /// Everything on: NiLiCon as evaluated (Table I last row).
    pub fn nilicon() -> Self {
        OptimizationConfig {
            optimize_criu: true,
            cache_infrequent: true,
            plug_input_blocking: true,
            netlink_vmas: true,
            staging_buffer: true,
            shm_page_transfer: true,
            optimized_rto: true,
            delta_transfer: false,
            cow_checkpoint: false,
            rearm: false,
            backups: 1,
            quorum: 1,
            hybrid_replay: false,
            pipeline: false,
            fleet: 0,
            fleet_aligned: false,
        }
    }

    /// The cumulative Table I sequence: `(row label, config)`.
    pub fn table1_rows() -> Vec<(&'static str, OptimizationConfig)> {
        let mut rows = Vec::new();
        let mut cfg = Self::basic();
        rows.push(("Basic implementation", cfg));
        cfg.optimize_criu = true;
        rows.push(("+ Optimize CRIU", cfg));
        cfg.cache_infrequent = true;
        rows.push(("+ Cache infrequently-modified state", cfg));
        cfg.plug_input_blocking = true;
        rows.push(("+ Optimize blocking network input", cfg));
        cfg.netlink_vmas = true;
        rows.push(("+ Obtain VMAs from netlink", cfg));
        cfg.staging_buffer = true;
        rows.push(("+ Add memory staging buffer", cfg));
        cfg.shm_page_transfer = true;
        rows.push(("+ Transfer dirty pages via shared memory", cfg));
        rows
    }

    /// Reject the knob combinations no engine or driver implements — a knob
    /// that would silently do nothing is an error, not a run without the
    /// mechanism — for the replica layout these knobs select: coded when
    /// `backups > 1`. The one place the rules live: both engine constructors
    /// (each for its own layout), `FleetScheduler::new` and the bench
    /// runner's engine choice call it.
    pub fn validate(&self) -> SimResult<()> {
        self.validate_for(self.backups > 1)
    }

    /// [`Self::validate`] for an engine of the coded (`PlacementEngine`, at
    /// any `(k, n)`) or the mirror (`NiLiConEngine`) layout. On every layout
    /// a quorum other than 1 needs more than one backup, and the pipeline
    /// needs a staged ack path to overlap — the staging buffer's, or the COW
    /// drain's. The coded layout codes fragments from full page
    /// bodies — the dump's, or the COW drain's — after the container
    /// resumes, so it needs the staged ack path, does not compose with
    /// `delta_transfer`, and its shape must pass [`ShardCodec::check`]; every
    /// fleet lane runs the mirror layout with neither log shipping nor a
    /// rearm driver, and needs the staging buffer: the shared link schedules
    /// the ack path, and without the buffer the transfer rides the stop
    /// phase instead.
    pub(crate) fn validate_for(&self, coded: bool) -> SimResult<()> {
        let fleet = self.fleet > 0;
        let fleet_rule = "does not compose with the fleet scheduler";
        for (broken, rule) in [
            (self.backups == 1 && self.quorum != 1, "opts.quorum needs opts.backups > 1".into()),
            (
                self.pipeline && !self.staging_buffer && !self.cow_checkpoint,
                "opts.pipeline needs opts.staging_buffer or opts.cow_checkpoint (staged ack path)"
                    .into(),
            ),
            (
                coded && !self.staging_buffer,
                "placement requires the staging buffer (staged ack path)".into(),
            ),
            (coded && self.delta_transfer, "placement does not compose with delta_transfer".into()),
            (
                fleet && !self.staging_buffer,
                "fleet: the shared link needs opts.staging_buffer (staged ack path)".into(),
            ),
            (fleet && self.backups > 1, format!("fleet: opts.backups {fleet_rule}")),
            (fleet && self.hybrid_replay, format!("fleet: opts.hybrid_replay {fleet_rule}")),
            (fleet && self.rearm, format!("fleet: opts.rearm {fleet_rule}")),
            (
                self.fleet_aligned && self.fleet < 2,
                "fleet: opts.fleet_aligned needs two or more lanes (opts.fleet > 1)".into(),
            ),
        ] {
            if broken {
                return Err(SimError::Invalid(rule));
            }
        }
        if coded {
            ShardCodec::check(self.quorum, self.backups)?;
        }
        Ok(())
    }

    /// Derive the CRIU dump configuration these toggles imply.
    pub fn dump_config(&self) -> DumpConfig {
        DumpConfig {
            freeze: if self.optimize_criu {
                FreezeStrategy::BusyPoll
            } else {
                FreezeStrategy::Stock
            },
            vma_via: if self.netlink_vmas {
                VmaCollectVia::Netlink
            } else {
                VmaCollectVia::Smaps
            },
            page_via: if self.shm_page_transfer {
                PageTransferVia::SharedMem
            } else {
                PageTransferVia::Pipe
            },
            cow: self.cow_checkpoint,
        }
    }
}

impl Default for OptimizationConfig {
    fn default() -> Self {
        Self::nilicon()
    }
}

/// Top-level replication run configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationConfig {
    /// Execution-phase length (§IV: 30 ms).
    pub epoch_exec: Nanos,
    /// Optimization toggles for the engines `FleetScheduler` builds. Only
    /// the fleet reads them: `RunHarness` takes its knobs from the engine
    /// it is handed.
    pub opts: OptimizationConfig,
    /// Re-replication only ([`OptimizationConfig::rearm`]): bootstrap
    /// streaming budget — at most this many deferred pages are drained to
    /// the replacement backup per 30 ms epoch, bounding the background
    /// bandwidth the bootstrap may take.
    pub rearm_chunk_pages: u64,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            epoch_exec: 30 * MILLISECOND,
            opts: OptimizationConfig::nilicon(),
            rearm_chunk_pages: 256,
        }
    }
}

impl ReplicationConfig {
    /// Reject the zero values that make a run silently stall: a zero
    /// `epoch_exec` is a zero CPU budget (no request served, no step
    /// taken), and a zero `rearm_chunk_pages` moves nothing per epoch, so a
    /// rearm or repair never completes. `RunHarness::new` and
    /// `FleetScheduler::new` call it.
    pub fn validate(&self) -> SimResult<()> {
        for (zero, field) in [
            (self.epoch_exec == 0, "epoch_exec"),
            (self.rearm_chunk_pages == 0, "rearm_chunk_pages"),
        ] {
            if zero {
                return Err(SimError::Invalid(format!("cfg.{field} must be nonzero")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_are_cumulative() {
        let rows = OptimizationConfig::table1_rows();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0].1, OptimizationConfig::basic());
        let last = rows.last().unwrap().1;
        let mut full = OptimizationConfig::nilicon();
        full.optimized_rto = false; // §V-E is not a Table I row
        assert_eq!(last, full);
        // Each row flips exactly one flag relative to the previous.
        for w in rows.windows(2) {
            let (a, b) = (w[0].1, w[1].1);
            let flips = [
                a.optimize_criu != b.optimize_criu,
                a.cache_infrequent != b.cache_infrequent,
                a.plug_input_blocking != b.plug_input_blocking,
                a.netlink_vmas != b.netlink_vmas,
                a.staging_buffer != b.staging_buffer,
                a.shm_page_transfer != b.shm_page_transfer,
            ]
            .iter()
            .filter(|&&x| x)
            .count();
            assert_eq!(flips, 1, "{} -> {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn dump_config_derivation() {
        let basic = OptimizationConfig::basic().dump_config();
        assert_eq!(basic.freeze, FreezeStrategy::Stock);
        assert_eq!(basic.vma_via, VmaCollectVia::Smaps);
        assert_eq!(basic.page_via, PageTransferVia::Pipe);

        let full = OptimizationConfig::nilicon().dump_config();
        assert_eq!(full.freeze, FreezeStrategy::BusyPoll);
        assert_eq!(full.vma_via, VmaCollectVia::Netlink);
        assert_eq!(full.page_via, PageTransferVia::SharedMem);
    }

    #[test]
    fn extensions_default_off_in_paper_configs() {
        for cfg in [OptimizationConfig::basic(), OptimizationConfig::nilicon()] {
            assert!(!cfg.delta_transfer);
            assert!(!cfg.cow_checkpoint);
            assert!(!cfg.rearm);
            assert_eq!(cfg.backups, 1, "paper rows: single warm backup");
            assert_eq!(cfg.quorum, 1);
            assert!(!cfg.hybrid_replay, "paper rows: release waits for epoch ack");
            assert!(!cfg.pipeline, "paper rows: synchronous checkpoint path");
            assert_eq!(cfg.fleet, 0, "paper rows: one container per pair");
            assert!(!cfg.fleet_aligned);
            assert!(!cfg.dump_config().cow);
        }
        // The COW knob flows through to the CRIU dump config.
        let mut cow = OptimizationConfig::nilicon();
        cow.cow_checkpoint = true;
        assert!(cow.dump_config().cow);
    }

    #[test]
    fn validate_names_the_knob_that_does_not_compose() {
        let rejected = |set: fn(&mut OptimizationConfig)| {
            let mut o = OptimizationConfig::nilicon();
            set(&mut o);
            o.validate().unwrap_err().to_string()
        };
        for (_, row) in OptimizationConfig::table1_rows() {
            row.validate().expect("every paper row is valid");
        }
        let mut placed = OptimizationConfig::nilicon();
        (placed.backups, placed.quorum) = (3, 2);
        placed.validate().expect("a placement on the staged path");
        assert!(rejected(|o| (o.backups, o.staging_buffer) = (3, false)).contains("staging buffer"));
        assert!(rejected(|o| (o.backups, o.delta_transfer) = (3, true)).contains("delta_transfer"));
        (placed.cow_checkpoint, placed.pipeline) = (true, true);
        placed.validate().expect("a placement off the COW drain");
        assert!(rejected(|o| (o.backups, o.quorum) = (3, 4)).contains("1 <= k <= n"));
        assert!(rejected(|o| (o.backups, o.quorum) = (3, 0)).contains("1 <= k <= n"));
        assert!(rejected(|o| (o.backups, o.quorum) = (200, 2)).contains("n <= 128"));
        assert!(rejected(|o| (o.backups, o.quorum) = (129, 1)).contains("n <= 128"));
        assert!(rejected(|o| o.quorum = 2).contains("opts.quorum"));
        let mut fleet = OptimizationConfig::nilicon();
        (fleet.fleet, fleet.delta_transfer, fleet.pipeline) = (8, true, true);
        fleet.validate().expect("the fleet composes with the single-backup knobs");
        assert!(rejected(|o| (o.fleet, o.backups) = (8, 3)).contains("opts.backups"));
        assert!(rejected(|o| (o.fleet, o.hybrid_replay) = (8, true)).contains("opts.hybrid_replay"));
        assert!(rejected(|o| (o.fleet, o.rearm) = (8, true)).contains("opts.rearm"));
        assert!(rejected(|o| (o.fleet, o.staging_buffer) = (8, false)).contains("opts.staging_buffer"));
        assert!(rejected(|o| o.fleet_aligned = true).contains("opts.fleet_aligned"));
        let one_lane = rejected(|o| (o.fleet, o.fleet_aligned) = (1, true));
        assert!(one_lane.contains("opts.fleet_aligned") && one_lane.contains("two or more lanes"));
        (fleet.fleet, fleet.fleet_aligned) = (2, true);
        fleet.validate().expect("two lanes can align");
        let inert = |o: &mut OptimizationConfig| (o.pipeline, o.staging_buffer) = (true, false);
        assert!(rejected(inert).contains("opts.pipeline"));
        let mut streamed = OptimizationConfig::nilicon();
        inert(&mut streamed);
        streamed.cow_checkpoint = true;
        streamed.validate().expect("the COW drain is a staged ack path");
    }

    #[test]
    fn default_replication_config_matches_paper() {
        let c = ReplicationConfig::default();
        assert_eq!(c.epoch_exec, 30 * MILLISECOND);
        assert_eq!(crate::lane::owner::HEARTBEAT_INTERVAL, 30 * MILLISECOND);
        assert_eq!(crate::lane::owner::HEARTBEAT_MISSES, 3);
        // The re-replication budget exists but the knob itself is off.
        assert!(!c.opts.rearm);
        assert!(!c.opts.hybrid_replay);
        assert_eq!(c.rearm_chunk_pages, 256);
    }
}
