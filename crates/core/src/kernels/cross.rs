//! The bipartite (two-set) pairwise kernel.
//!
//! The paper's kernels all self-join one dataset. Two of its motivating
//! applications are inherently *bipartite*: relational joins between two
//! tables (its Type-III example, He et al.) and collaborative filtering
//! (users × items). This kernel computes the full `|A| × |B|` rectangle:
//! each thread owns one A point in registers and tiles B through shared
//! memory — the Register-SHM discipline of Algorithm 3, without the
//! triangular intra phase.
//!
//! It is also the building block of the multi-GPU decomposition
//! (`tbs-apps::multi_gpu`, the paper's §V "multi-GPU environment" future
//! work): inter-chunk work items are exactly cross-joins.

use crate::distance::DistanceKernel;
use crate::output::PairAction;
use crate::point::DeviceSoa;
use gpu_sim::{BlockCtx, Kernel, KernelResources, LaunchConfig, TilePred, TileSrc};

/// Register + shared-memory bipartite kernel over sets A and B.
#[derive(Debug, Clone)]
pub struct CrossShmKernel<const D: usize, F, A> {
    /// Left set (one point per thread).
    pub left: DeviceSoa<D>,
    /// Right set (tiled through shared memory).
    pub right: DeviceSoa<D>,
    /// Distance function.
    pub dist: F,
    /// Output action; `process` receives `(left gid, right gid)`.
    pub action: A,
    /// Block size B (must equal the launch's `block_dim`).
    pub block_size: u32,
}

impl<const D: usize, F, A> CrossShmKernel<D, F, A> {
    pub fn new(
        left: DeviceSoa<D>,
        right: DeviceSoa<D>,
        dist: F,
        action: A,
        block_size: u32,
    ) -> Self {
        CrossShmKernel {
            left,
            right,
            dist,
            action,
            block_size,
        }
    }

    /// One thread per left point.
    pub fn launch_config(&self) -> LaunchConfig {
        super::pair_launch(self.left.n, self.block_size)
    }
}

pub(crate) const CROSS_BASE_REGS: u32 = 18 + 4;

impl<const D: usize, F, A> Kernel for CrossShmKernel<D, F, A>
where
    F: DistanceKernel<D>,
    A: PairAction,
{
    fn name(&self) -> &'static str {
        "cross-shm"
    }

    fn resources(&self) -> KernelResources {
        KernelResources::new(
            CROSS_BASE_REGS + 2 * D as u32 + self.action.regs_per_thread(),
            self.block_size * 4 * D as u32 + self.action.shared_bytes(self.block_size),
        )
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        assert_eq!(
            blk.block_dim, self.block_size,
            "launch block_dim must equal the kernel's block_size"
        );
        let (n_left, n_right) = (self.left.n, self.right.n);
        let b = self.block_size;
        let tiles = super::num_blocks(n_right, b);

        let mut st = self.action.begin_block(blk);
        let ck = super::lower_block_plan::<D, _, _>(blk, &self.dist, &self.action, b);
        // Own A datum in registers.
        let own = super::load_own_registers(blk, &self.left);
        let tile = super::alloc_tile::<D>(blk, b);

        for i in 0..tiles {
            let start = i * b;
            let len = b.min(n_right - start);
            if len == 0 {
                break;
            }
            super::load_tile_to_shared(blk, &self.right, &tile, start, len);
            blk.syncthreads();
            blk.for_each_warp(|w| {
                let gid = w.global_thread_ids();
                let valid = w.mask_lt(&gid, n_left).and(w.active_threads());
                if !valid.any() {
                    return;
                }
                super::tile_pass(
                    w,
                    ck.as_ref(),
                    &self.dist,
                    &self.action,
                    &mut st,
                    TileSrc::SharedBroadcast(&tile),
                    len,
                    TilePred::All,
                    &own[w.warp_id as usize],
                    start,
                    valid,
                );
            });
            blk.syncthreads();
        }

        self.action.end_block(blk, st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Euclidean;
    use crate::histogram::HistogramSpec;
    use crate::output::{CountWithinRadius, SharedHistogramAction};
    use crate::point::SoaPoints;
    use gpu_sim::{Device, DeviceConfig};

    fn sets() -> (SoaPoints<2>, SoaPoints<2>) {
        let a = SoaPoints::from_points(&(0..100).map(|i| [i as f32, 0.0]).collect::<Vec<_>>());
        let b =
            SoaPoints::from_points(&(0..150).map(|i| [i as f32 * 0.5, 1.0]).collect::<Vec<_>>());
        (a, b)
    }

    fn host_count(a: &SoaPoints<2>, b: &SoaPoints<2>, r: f32) -> u64 {
        let mut c = 0;
        for i in 0..a.len() {
            for j in 0..b.len() {
                let (p, q) = (a.point(i), b.point(j));
                if ((p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2)).sqrt() < r {
                    c += 1;
                }
            }
        }
        c
    }

    #[test]
    fn cross_kernel_counts_the_full_rectangle() {
        let (a, b) = sets();
        let mut dev = Device::new(DeviceConfig::titan_x());
        let (da, db) = (a.upload(&mut dev), b.upload(&mut dev));
        let lc = crate::kernels::pair_launch(da.n, 64);
        let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let k = CrossShmKernel::new(
            da,
            db,
            Euclidean,
            CountWithinRadius { radius: 3.0, out },
            64,
        );
        dev.launch(&k, lc);
        let total: u64 = dev.u64_slice(out).iter().sum();
        assert_eq!(total, host_count(&a, &b, 3.0));
    }

    #[test]
    fn cross_histogram_totals_na_times_nb() {
        let (a, b) = sets();
        let mut dev = Device::new(DeviceConfig::titan_x());
        let (da, db) = (a.upload(&mut dev), b.upload(&mut dev));
        let spec = HistogramSpec::new(64, 200.0);
        let lc = crate::kernels::pair_launch(da.n, 32);
        let private = dev.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize);
        let k = CrossShmKernel::new(
            da,
            db,
            Euclidean,
            SharedHistogramAction { spec, private },
            32,
        );
        dev.launch(&k, lc);
        let total: u64 = dev.u32_slice(private).iter().map(|&x| x as u64).sum();
        assert_eq!(total, a.len() as u64 * b.len() as u64);
    }

    #[test]
    fn empty_right_set_is_a_noop() {
        let a = SoaPoints::<2>::from_points(&[[0.0, 0.0], [1.0, 1.0]]);
        let b = SoaPoints::<2>::new();
        let mut dev = Device::new(DeviceConfig::titan_x());
        let (da, db) = (a.upload(&mut dev), b.upload(&mut dev));
        let out = dev.alloc_u64_zeroed(32);
        let k = CrossShmKernel::new(
            da,
            db,
            Euclidean,
            CountWithinRadius { radius: 10.0, out },
            32,
        );
        dev.launch(&k, k.launch_config());
        assert_eq!(dev.u64_slice(out).iter().sum::<u64>(), 0);
    }
}
