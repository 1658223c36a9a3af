//! The Register-SHM kernel — the paper's Algorithm 3 input path.
//!
//! Each thread holds its own datum in a *register* (one-cycle access);
//! the R tile is staged in shared memory and read as warp broadcasts.
//! For the intra-block triangle, the own block is re-loaded into the
//! *same* shared tile ("we overwrite the space we just used for block R",
//! §IV-A) so total shared usage stays at one tile.

use crate::distance::DistanceKernel;
use crate::kernels::{IntraMode, PairScope};
use crate::output::PairAction;
use crate::point::DeviceSoa;
use gpu_sim::{BlockCtx, CompiledTile, Kernel, KernelResources, TilePred, TileSrc};

/// Algorithm 3: register-held own datum + shared-memory tile.
#[derive(Debug, Clone)]
pub struct RegisterShmKernel<const D: usize, F, A> {
    /// Input point set.
    pub input: DeviceSoa<D>,
    /// Distance function.
    pub dist: F,
    /// Output action.
    pub action: A,
    /// Block size B (must equal the launch's `block_dim`).
    pub block_size: u32,
    /// Pair scope.
    pub scope: PairScope,
    /// Intra-block iteration scheme (§IV-E1).
    pub intra: IntraMode,
}

impl<const D: usize, F, A> RegisterShmKernel<D, F, A> {
    pub fn new(
        input: DeviceSoa<D>,
        dist: F,
        action: A,
        block_size: u32,
        scope: PairScope,
        intra: IntraMode,
    ) -> Self {
        RegisterShmKernel {
            input,
            dist,
            action,
            block_size,
            scope,
            intra,
        }
    }
}

pub(crate) const REG_SHM_BASE_REGS: u32 = 18 + 4;

impl<const D: usize, F, A> Kernel for RegisterShmKernel<D, F, A>
where
    F: DistanceKernel<D>,
    A: PairAction,
{
    fn name(&self) -> &'static str {
        "register-shm"
    }

    fn resources(&self) -> KernelResources {
        KernelResources::new(
            REG_SHM_BASE_REGS + 2 * D as u32 + self.action.regs_per_thread(),
            self.block_size * 4 * D as u32 + self.action.shared_bytes(self.block_size),
        )
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        assert_eq!(
            blk.block_dim, self.block_size,
            "launch block_dim must equal the kernel's block_size"
        );
        let n = self.input.n;
        let b = self.block_size;
        let m = super::num_blocks(n, b);
        let my_block = blk.block_id;

        let mut st = self.action.begin_block(blk);
        let ck = super::lower_block_plan::<D, _, _>(blk, &self.dist, &self.action, b);

        // Line 2: reg <- the t-th datum of the b-th input data block.
        let own = super::load_own_registers(blk, &self.input);
        // One shared tile, reused for every R block and finally for L.
        let tile = super::alloc_tile::<D>(blk, b);

        let first_tile = match self.scope {
            PairScope::HalfPairs => my_block + 1,
            PairScope::AllPairs => 0,
        };

        // Lines 3–9: inter-block phase.
        for i in first_tile..m {
            if self.scope == PairScope::AllPairs && i == my_block {
                continue; // the own tile is handled by the intra phase
            }
            let start = i * b;
            let len = b.min(n - start);
            super::load_tile_to_shared(blk, &self.input, &tile, start, len);
            blk.syncthreads();
            blk.for_each_warp(|w| {
                let gid = w.global_thread_ids();
                let valid = w.mask_lt(&gid, n).and(w.active_threads());
                if !valid.any() {
                    return;
                }
                // Line 5: for j = 0 to B — a uniform loop.
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

        // Line 10: L overwrites R's cache location; lines 11–14 intra.
        let block_start = my_block * b;
        let block_n = b.min(n.saturating_sub(block_start));
        super::load_tile_to_shared(blk, &self.input, &tile, block_start, block_n);
        blk.syncthreads();
        match self.scope {
            PairScope::HalfPairs => super::intra_triangle(
                blk,
                ck.as_ref(),
                &self.dist,
                &self.action,
                &mut st,
                CompiledTile::Shared(&tile),
                &own,
                block_start,
                block_n,
                self.intra,
            ),
            // Ordered pairs within the own tile, self predicated off.
            PairScope::AllPairs => blk.for_each_warp(|w| {
                let gid = w.global_thread_ids();
                let valid = w.mask_lt(&gid, n).and(w.active_threads());
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
                    block_n,
                    TilePred::NotEqual {
                        gid0: gid[0],
                        base: block_start,
                    },
                    &own[w.warp_id as usize],
                    block_start,
                    valid,
                );
            }),
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

    fn line_points(n: usize) -> SoaPoints<3> {
        SoaPoints::from_points(&(0..n).map(|i| [i as f32, 0.0, 0.0]).collect::<Vec<_>>())
    }

    #[test]
    fn counts_match_naive_reference_for_ragged_n() {
        // 200 points, B = 64 -> ragged last block (200 = 3×64 + 8).
        let pts = line_points(200);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = pts.upload(&mut dev);
        let lc = super::super::pair_launch(input.n, 64);
        let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let k = RegisterShmKernel::new(
            input,
            Euclidean,
            CountWithinRadius { radius: 5.5, out },
            64,
            PairScope::HalfPairs,
            IntraMode::Regular,
        );
        dev.launch(&k, lc);
        let total: u64 = dev.u64_slice(out).iter().sum();
        // Pairs within 5.5 on the integer line: per i, neighbors i±1..5.
        let mut expect = 0u64;
        for i in 0..200u64 {
            expect += (200 - i - 1).min(5);
        }
        assert_eq!(total, expect);
    }

    #[test]
    fn load_balanced_intra_produces_identical_output() {
        let pts = line_points(256);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = pts.upload(&mut dev);
        let lc = super::super::pair_launch(input.n, 128);
        let out_reg = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let out_lb = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let mk = |out, intra| {
            RegisterShmKernel::new(
                input,
                Euclidean,
                CountWithinRadius { radius: 100.0, out },
                128,
                PairScope::HalfPairs,
                intra,
            )
        };
        let r1 = dev.launch(&mk(out_reg, IntraMode::Regular), lc);
        let r2 = dev.launch(&mk(out_lb, IntraMode::LoadBalanced), lc);
        let t1: u64 = dev.u64_slice(out_reg).iter().sum();
        let t2: u64 = dev.u64_slice(out_lb).iter().sum();
        assert_eq!(t1, t2);
        assert_eq!(
            t1,
            256 * 255 / 2 /* all pairs within radius 100 on a 256-line */ - {
            // pairs at distance >= 100: for i, partners i+100..255
            let mut far = 0u64;
            for i in 0..256u64 {
                far += 256u64.saturating_sub(i + 100);
            }
            far
        }
        );
        // The paper's point: LB removes intra-block divergence entirely
        // for full blocks.
        assert!(
            r1.tally.divergent_iterations > 0,
            "regular intra must diverge"
        );
        assert_eq!(
            r2.tally.divergent_iterations, 0,
            "LB intra must not diverge"
        );
    }

    #[test]
    fn privatized_histogram_totals_all_pairs() {
        let pts = line_points(160);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = pts.upload(&mut dev);
        let lc = super::super::pair_launch(input.n, 32);
        let spec = HistogramSpec::new(16, 160.0);
        let private = dev.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize);
        let k = RegisterShmKernel::new(
            input,
            Euclidean,
            SharedHistogramAction { spec, private },
            32,
            PairScope::HalfPairs,
            IntraMode::Regular,
        );
        dev.launch(&k, lc);
        let total: u64 = dev.u32_slice(private).iter().map(|&x| x as u64).sum();
        assert_eq!(
            total,
            160 * 159 / 2,
            "every pair lands in exactly one bucket"
        );
    }
}
