//! Machine-speed calibration for the host clock.
//!
//! The boxes this benchmark runs on are a few cores of a shared host whose
//! speed drifts by tens of percent over seconds to minutes (neighbours on the
//! same socket): a long series of identical `storm_sync` epochs in one
//! process ranged over 44 % of its median in 4-second windows, and longer
//! runs barely help because the drift is slow. A fixed reference kernel run
//! next to every timed call drifts with it, so host times are reported
//! **relative to the kernel**, scaled to a machine on which the kernel takes
//! its nominal time: the same series then ranged over 14 %, and ten-run
//! spreads fell from 4–26 % to 2–9 %.
//!
//! The kernel is what the simulator mostly does on the host clock: whole-page
//! copies between scattered pages, over one working set that an L2 cache
//! holds and one that it does not. The host drifts in two ways, core speed
//! and memory speed, and the two working sets follow them differently, so a
//! workload is divided by the part that tracks it ([`Mix`]).

use std::time::Instant;

/// Time of the kernel's two parts on the reference machine, ns: host times
/// are reported as if every sample had taken exactly this long. About what
/// this box measures between epochs (63 + 137 µs after a `fleet_8` round to
/// 108 + 203 µs after a `storm_staged` epoch, which leaves less of the
/// buffers in cache).
const NOMINAL_NS: [f64; 2] = [80_000.0, 200_000.0];

/// Which part of the kernel a workload's host times are divided by. Sixty
/// processes per workload, the seven workloads interleaved over half an hour,
/// pooled three at a time as a contract run does: spread of the twenty
/// medians (interquartile range over median) raw / by the 1 MiB part / by the
/// 8 MiB part / by both:
///
/// | workload | raw | small | large | both |
/// |---|---|---|---|---|
/// | `redis_paper` | 9.4 % | 4.2 % | 5.7 % | 4.1 % |
/// | `redis_staged` | 10.7 % | 5.1 % | 7.3 % | 7.1 % |
/// | `storm_sync` | 11.2 % | 8.3 % | 2.3 % | 2.6 % |
/// | `storm_staged` | 9.5 % | 16.6 % | 3.0 % | 3.5 % |
/// | `failover_ssdb` | 10.8 % | 6.4 % | 2.5 % | 2.3 % |
/// | `kn_repair` | 12.7 % | 5.5 % | 4.9 % | 4.3 % |
/// | `fleet_8` | 7.9 % | 3.7 % | 10.0 % | 6.6 % |
///
/// An earlier thirty processes per workload read the same way (`fleet_8`
/// 2.6 % by the small part against 6.0 % by both, `storm_sync` 1.8 % by the
/// large part against 4.2 % by both). A third part chasing pointers through
/// 8 MiB did not track any workload better than these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// The 1 MiB part: a workload whose footprint stays in cache, so that its
    /// time follows core speed (`fleet_8`).
    Small,
    /// The 8 MiB part: a workload that streams through a large heap, so that
    /// its time follows memory speed (`storm_*`).
    Large,
    /// The sum of the two: everything in between.
    Both,
}

impl Mix {
    fn weights(self) -> [u64; 2] {
        match self {
            Mix::Small => [1, 0],
            Mix::Large => [0, 1],
            Mix::Both => [1, 1],
        }
    }

    /// Host ns of the chosen part of a sample.
    pub fn of(self, sample: [u64; 2]) -> u64 {
        let [small, large] = self.weights();
        (small * sample[0] + large * sample[1]).max(1)
    }

    /// What [`Mix::of`] reads on the reference machine.
    pub fn nominal_ns(self) -> f64 {
        let [small, large] = self.weights();
        small as f64 * NOMINAL_NS[0] + large as f64 * NOMINAL_NS[1]
    }
}

const PAGE: usize = 4096;
/// Pages per buffer of the two working sets: 1 MiB and 8 MiB (each has a
/// source and a destination buffer).
const WORKING_SETS: [usize; 2] = [256, 2048];
/// Page copies per working set in one sample.
const COPIES: usize = 256;

/// What the calibrator keeps resident, KiB. Allocated and touched before any
/// set-up starts, so it is a constant that `peak_rss_mb` leaves out.
pub const RESIDENT_KB: u64 = (2 * (WORKING_SETS[0] + WORKING_SETS[1]) * PAGE / 1024) as u64;

/// The reference kernel and its buffers.
pub struct Calibrator {
    sets: Vec<(Vec<u8>, Vec<u8>)>,
    x: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Allocate and touch the buffers, and run the kernel once so that the
    /// first sample handed out is not a cold one.
    pub fn new() -> Self {
        let sets = WORKING_SETS
            .iter()
            .map(|&pages| {
                // Non-zero fills: a zeroed allocation is not resident until
                // written, and the resident size must not depend on which
                // pages the kernel happened to pick.
                let src = (0..pages * PAGE).map(|i| (i * 31) as u8 | 1).collect();
                (src, vec![1u8; pages * PAGE])
            })
            .collect();
        let mut me = Calibrator {
            sets,
            x: 0x9E37_79B9_7F4A_7C15,
        };
        me.sample();
        me
    }

    /// Run the kernel; host ns its two parts took, small working set first.
    pub fn sample(&mut self) -> [u64; 2] {
        let mut took = [0; 2];
        for ((src, dst), took) in self.sets.iter_mut().zip(&mut took) {
            let pages = src.len() / PAGE;
            let t = Instant::now();
            for _ in 0..COPIES {
                // xorshift64: the page choice is a fixed sequence, the same
                // in every process.
                self.x ^= self.x << 13;
                self.x ^= self.x >> 7;
                self.x ^= self.x << 17;
                let from = (self.x as usize % pages) * PAGE;
                let to = ((self.x >> 32) as usize % pages) * PAGE;
                dst[to..to + PAGE].copy_from_slice(&src[from..from + PAGE]);
            }
            // Nothing reads the copies: keep the compiler from dropping them.
            std::hint::black_box(&mut *dst);
            *took = t.elapsed().as_nanos() as u64;
        }
        took
    }
}

/// Median of `host_ns[i] / kernel_ns[i]`, scaled to the reference machine:
/// host ns per call as if every kernel sample had taken `nominal_ns`.
pub fn normalized_median_ns(host_ns: &[u64], kernel_ns: &[u64], nominal_ns: f64) -> Option<f64> {
    let ratios: Vec<f64> = host_ns
        .iter()
        .zip(kernel_ns)
        .map(|(&h, &k)| h as f64 / k.max(1) as f64)
        .collect();
    crate::stats::median(&ratios).map(|r| r * nominal_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_uniformly_slower_machine_reads_the_same() {
        let host = [7_000_000u64, 7_400_000, 6_900_000, 9_000_000, 7_100_000];
        let kernel = [300_000u64, 310_000, 295_000, 390_000, 300_000];
        let slow = |v: &[u64]| v.iter().map(|x| x * 13 / 10).collect::<Vec<_>>();
        let nominal = Mix::Both.nominal_ns();
        let a = normalized_median_ns(&host, &kernel, nominal).unwrap();
        let b = normalized_median_ns(&slow(&host), &slow(&kernel), nominal).unwrap();
        assert!((a / b - 1.0).abs() < 1e-3, "{a} against {b}");
        // A kernel at its nominal time leaves the host time as measured.
        assert_eq!(
            normalized_median_ns(&[5_000], &[nominal as u64], nominal),
            Some(5_000.0)
        );
        assert_eq!(normalized_median_ns(&[], &[], nominal), None);
    }

    #[test]
    fn the_kernel_runs_and_its_buffers_are_the_stated_size() {
        let mut c = Calibrator::new();
        let sample = c.sample();
        assert!(sample[0] > 0 && sample[1] > 0);
        assert_eq!(
            Mix::Small.of(sample) + Mix::Large.of(sample),
            Mix::Both.of(sample)
        );
        assert_eq!(
            Mix::Small.nominal_ns() + Mix::Large.nominal_ns(),
            Mix::Both.nominal_ns()
        );
        let held: usize = c.sets.iter().map(|(s, d)| s.len() + d.len()).sum();
        assert_eq!(held as u64 / 1024, RESIDENT_KB);
    }
}
