//! PARSEC streamcluster (§VI): online k-median clustering.
//!
//! A real clustering kernel over real guest memory: points live as `f32`
//! coordinates in heap pages; each step reads a chunk of points, computes
//! distances to the current centers, writes per-point assignments back, and
//! occasionally opens a new center. All algorithm state (pass, cursor,
//! centers, cost) lives in a guest "state page", so a failover resumes the
//! computation exactly where the last committed epoch left it.
//!
//! Dirty-page behavior emerges naturally: the assignment array is rewritten
//! every pass, so per-epoch dirty pages ≈ the assignment array size — the
//! Table III signature (303 pages/epoch at paper scale).

use crate::scale::Scale;
use nilicon_container::{Application, GuestCtx, StepOutcome};
use nilicon_sim::time::Nanos;
use nilicon_sim::{SimError, SimResult, PAGE_SIZE};

const MAX_CENTERS: usize = 16;
/// State page layout: pass u32, cursor u32, n_centers u32, pad u32,
/// total_cost f64, then MAX_CENTERS center ids (u32).
const STATE_SIZE: usize = 16 + 8 + MAX_CENTERS * 4;

/// The streamcluster application.
#[derive(Debug)]
pub struct StreamclusterApp {
    scale: Scale,
    /// Coordinates per point.
    pub dims: usize,
    /// Points processed per step.
    pub chunk: usize,
    /// Passes over the data set before completion.
    pub passes: u32,
    /// Per-distance-computation CPU (ns per point-center-dim).
    pub cpu_per_dist: Nanos,
    state_base: u64,
    points_base: u64,
    assign_base: u64,
}

impl StreamclusterApp {
    /// Build at `scale`.
    pub fn new(scale: Scale) -> Self {
        let dims = 16;
        let state_base = 0u64;
        let points_base = PAGE_SIZE as u64; // state page, then points
        let points_bytes = (scale.sc_points * dims * 4) as u64;
        let assign_base =
            (points_base + points_bytes).div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64;
        StreamclusterApp {
            scale,
            dims,
            chunk: 1024,
            passes: 6,
            cpu_per_dist: 1,
            state_base,
            points_base,
            assign_base,
        }
    }

    /// Heap pages needed.
    pub fn heap_pages(&self) -> u64 {
        self.ballast_base() / PAGE_SIZE as u64 + self.scale.sc_ballast_pages + 4
    }

    /// Heap offset of the ballast region (resident, rarely-written pages
    /// that give streamcluster its native-input footprint).
    fn ballast_base(&self) -> u64 {
        let assign_bytes = (self.scale.sc_points * 8) as u64;
        (self.assign_base + assign_bytes).div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64
    }

    fn point_coord(point: usize, d: usize) -> f32 {
        // Deterministic synthetic input (stands in for the PARSEC input set).
        let h = (point as u64)
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add((d as u64).wrapping_mul(0xBF58476D1CE4E5B9));
        ((h >> 40) as f32) / 16_777_216.0
    }

    fn read_state(&self, ctx: &mut GuestCtx<'_>) -> SimResult<(u32, u32, Vec<u32>, f64)> {
        let mut buf = [0u8; STATE_SIZE];
        ctx.heap_read(self.state_base, &mut buf)?;
        let pass = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        let cursor = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let n_centers = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
        if n_centers > MAX_CENTERS {
            return Err(SimError::ImageCorrupt(
                "streamcluster state page corrupt".into(),
            ));
        }
        let cost = f64::from_le_bytes(buf[16..24].try_into().unwrap());
        let mut centers = Vec::with_capacity(n_centers);
        for i in 0..n_centers {
            centers.push(u32::from_le_bytes(
                buf[24 + i * 4..28 + i * 4].try_into().unwrap(),
            ));
        }
        Ok((pass, cursor, centers, cost))
    }

    fn write_state(
        &self,
        ctx: &mut GuestCtx<'_>,
        pass: u32,
        cursor: u32,
        centers: &[u32],
        cost: f64,
    ) -> SimResult<()> {
        let mut buf = [0u8; STATE_SIZE];
        buf[0..4].copy_from_slice(&pass.to_le_bytes());
        buf[4..8].copy_from_slice(&cursor.to_le_bytes());
        buf[8..12].copy_from_slice(&(centers.len() as u32).to_le_bytes());
        buf[16..24].copy_from_slice(&cost.to_le_bytes());
        for (i, c) in centers.iter().enumerate() {
            buf[24 + i * 4..28 + i * 4].copy_from_slice(&c.to_le_bytes());
        }
        ctx.heap_write(self.state_base, &buf)
    }
}

impl Application for StreamclusterApp {
    fn name(&self) -> &str {
        "streamcluster"
    }

    fn is_server(&self) -> bool {
        false
    }

    fn init(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<()> {
        // Load points into guest memory, page-sized strides at a time.
        let per_page = PAGE_SIZE / 4;
        let total_floats = self.scale.sc_points * self.dims;
        let mut buf = Vec::with_capacity(PAGE_SIZE);
        let mut written = 0usize;
        while written < total_floats {
            buf.clear();
            let n = per_page.min(total_floats - written);
            for i in 0..n {
                let flat = written + i;
                let (point, d) = (flat / self.dims, flat % self.dims);
                buf.extend_from_slice(&Self::point_coord(point, d).to_le_bytes());
            }
            ctx.heap_write(self.points_base + (written * 4) as u64, &buf)?;
            written += n;
        }
        // Materialize the ballast footprint (clean after the initial sync).
        let ballast = self.ballast_base();
        for p in 0..self.scale.sc_ballast_pages {
            ctx.heap_write(ballast + p * PAGE_SIZE as u64, &[1])?;
        }
        // Initial state: pass 0, cursor 0, one center (point 0).
        self.write_state(ctx, 0, 0, &[0], 0.0)
    }

    fn step(&mut self, ctx: &mut GuestCtx<'_>) -> SimResult<StepOutcome> {
        let (mut pass, cursor, mut centers, mut cost) = self.read_state(ctx)?;
        if pass >= self.passes {
            return Ok(StepOutcome { done: true });
        }
        let n_points = self.scale.sc_points;
        let start = cursor as usize;
        let count = self.chunk.min(n_points - start);

        // Read the chunk's coordinates (one bulk guest read).
        let mut raw = vec![0u8; count * self.dims * 4];
        ctx.heap_read(self.points_base + (start * self.dims * 4) as u64, &mut raw)?;

        // Read center coordinates (small bulk reads).
        let mut center_coords: Vec<Vec<f32>> = Vec::with_capacity(centers.len());
        for &c in &centers {
            let mut cbuf = vec![0u8; self.dims * 4];
            ctx.heap_read(
                self.points_base + (c as usize * self.dims * 4) as u64,
                &mut cbuf,
            )?;
            center_coords.push(
                cbuf.chunks_exact(4)
                    .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
                    .collect(),
            );
        }

        // Assign each point to its nearest center (real math on real bytes).
        let mut assignments = Vec::with_capacity(count * 8);
        let mut chunk_cost = 0.0f64;
        let mut worst: (f32, usize) = (-1.0, start);
        for p in 0..count {
            let coords: Vec<f32> = raw[p * self.dims * 4..(p + 1) * self.dims * 4]
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
                .collect();
            let mut best = f32::MAX;
            let mut best_c = 0u32;
            for (ci, cc) in center_coords.iter().enumerate() {
                let mut d = 0.0f32;
                for k in 0..self.dims {
                    let diff = coords[k] - cc[k];
                    d += diff * diff;
                }
                if d < best {
                    best = d;
                    best_c = centers[ci];
                }
            }
            if best > worst.0 {
                worst = (best, start + p);
            }
            chunk_cost += best as f64;
            assignments.extend_from_slice(&best_c.to_le_bytes());
            assignments.extend_from_slice(&best.to_le_bytes());
        }
        // Write assignments back (dirties the assignment array).
        ctx.heap_write(self.assign_base + (start * 8) as u64, &assignments)?;
        cost += chunk_cost;

        // Charge the distance math.
        ctx.cpu((count * centers.len().max(1) * self.dims) as Nanos * self.cpu_per_dist + 3_000);

        // Facility-opening heuristic: adopt the worst-served point as a new
        // center when its cost is large relative to the average.
        if centers.len() < MAX_CENTERS
            && count > 0
            && (worst.0 as f64) > 8.0 * (chunk_cost / count as f64)
        {
            centers.push(worst.1 as u32);
        }

        // Advance the cursor / pass.
        let next = start + count;
        let (new_pass, new_cursor) = if next >= n_points {
            (pass + 1, 0)
        } else {
            (pass, next as u32)
        };
        pass = new_pass;
        self.write_state(ctx, pass, new_cursor, &centers, cost)?;
        Ok(StepOutcome {
            done: pass >= self.passes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilicon_container::{ContainerRuntime, ContainerSpec};
    use nilicon_sim::kernel::Kernel;

    fn tiny() -> StreamclusterApp {
        let scale = Scale {
            sc_points: 2048,
            ..Scale::small()
        };
        StreamclusterApp::new(scale)
    }

    fn host(app: &StreamclusterApp) -> (Kernel, nilicon_sim::ids::Pid) {
        let mut k = Kernel::default();
        let mut spec = ContainerSpec::batch("streamcluster", 11);
        spec.heap_pages = app.heap_pages();
        let c = ContainerRuntime::create(&mut k, &spec).unwrap();
        (k, c.init_pid())
    }

    #[test]
    fn runs_to_completion() {
        let mut app = tiny();
        app.passes = 2;
        let (mut k, pid) = host(&app);
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        app.init(&mut ctx).unwrap();
        let mut steps = 0;
        loop {
            let mut ctx = GuestCtx::new(&mut k, pid, steps);
            if app.step(&mut ctx).unwrap().done {
                break;
            }
            steps += 1;
            assert!(steps < 100, "must terminate");
        }
        // 2048 points / 1024 chunk × 2 passes = 4 steps; the 4th reports done.
        assert_eq!(steps, 3);
    }

    #[test]
    fn state_survives_app_object_replacement() {
        // The failover property: a NEW app object resumes from guest state.
        let mut app = tiny();
        let (mut k, pid) = host(&app);
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        app.init(&mut ctx).unwrap();
        for i in 0..3 {
            let mut ctx = GuestCtx::new(&mut k, pid, i);
            app.step(&mut ctx).unwrap();
        }
        let mut ctx = GuestCtx::new(&mut k, pid, 10);
        let (pass, cursor, centers, cost) = app.read_state(&mut ctx).unwrap();

        let app2 = tiny();
        let mut ctx2 = GuestCtx::new(&mut k, pid, 11);
        let (p2, c2, cen2, cost2) = app2.read_state(&mut ctx2).unwrap();
        assert_eq!((pass, cursor, centers, cost), (p2, c2, cen2, cost2));
    }

    #[test]
    fn assignment_array_is_the_dirty_driver() {
        let mut app = tiny();
        let (mut k, pid) = host(&app);
        {
            let mut ctx = GuestCtx::new(&mut k, pid, 0);
            app.init(&mut ctx).unwrap();
        }
        k.mm_mut(pid)
            .unwrap()
            .set_tracking(nilicon_sim::mem::TrackingMode::SoftDirty);
        k.clear_refs(pid).unwrap();
        let mut ctx = GuestCtx::new(&mut k, pid, 1);
        app.step(&mut ctx).unwrap();
        let dirty = k.mm(pid).unwrap().soft_dirty_count() as u64;
        // One chunk: 1024 points × 8 B = 2 pages of assignments + state page.
        assert!((2..=4).contains(&dirty), "dirty {dirty}");
    }

    #[test]
    fn centers_grow_over_time() {
        let mut app = tiny();
        let (mut k, pid) = host(&app);
        let mut ctx = GuestCtx::new(&mut k, pid, 0);
        app.init(&mut ctx).unwrap();
        for i in 0..4 {
            let mut ctx = GuestCtx::new(&mut k, pid, i);
            app.step(&mut ctx).unwrap();
        }
        let mut ctx = GuestCtx::new(&mut k, pid, 99);
        let (_, _, centers, cost) = app.read_state(&mut ctx).unwrap();
        assert!(!centers.is_empty());
        assert!(cost > 0.0, "real distances accumulated");
    }
}
