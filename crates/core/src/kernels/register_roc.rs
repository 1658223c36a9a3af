//! The Register-ROC kernel — §IV-A's third solution.
//!
//! The own datum lives in a register; tiles are read through the
//! *read-only data cache* (`const __restrict__`) instead of shared
//! memory. Slower than Register-SHM for pure pairwise computation (92 vs
//! 28 cycles), but it leaves all of shared memory to the output stage —
//! which is why `Reg-ROC-Out` wins the SDH evaluation (§IV-D).

use crate::distance::DistanceKernel;
use crate::kernels::{IntraMode, PairScope};
use crate::output::PairAction;
use crate::point::DeviceSoa;
use gpu_sim::{BlockCtx, CompiledTile, Kernel, KernelResources, TilePred, TileSrc};

/// Register + read-only-cache tiling.
#[derive(Debug, Clone)]
pub struct RegisterRocKernel<const D: usize, F, A> {
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
    /// Intra-block iteration scheme.
    pub intra: IntraMode,
}

impl<const D: usize, F, A> RegisterRocKernel<D, F, A> {
    pub fn new(
        input: DeviceSoa<D>,
        dist: F,
        action: A,
        block_size: u32,
        scope: PairScope,
        intra: IntraMode,
    ) -> Self {
        RegisterRocKernel {
            input,
            dist,
            action,
            block_size,
            scope,
            intra,
        }
    }
}

pub(crate) const REG_ROC_BASE_REGS: u32 = 18 + 4;

impl<const D: usize, F, A> Kernel for RegisterRocKernel<D, F, A>
where
    F: DistanceKernel<D>,
    A: PairAction,
{
    fn name(&self) -> &'static str {
        "register-roc"
    }

    fn resources(&self) -> KernelResources {
        KernelResources::new(
            REG_ROC_BASE_REGS + 2 * D as u32 + self.action.regs_per_thread(),
            // No input tile in shared memory — the point of this variant.
            self.action.shared_bytes(self.block_size),
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
        let block_start = my_block * b;
        let block_n = b.min(n.saturating_sub(block_start));

        let mut st = self.action.begin_block(blk);
        let ck = super::lower_block_plan::<D, _, _>(blk, &self.dist, &self.action, b);
        let own = super::load_own_registers(blk, &self.input);

        let first_tile = match self.scope {
            PairScope::HalfPairs => my_block + 1,
            PairScope::AllPairs => 0,
        };

        // Inter-block phase: R elements through the read-only cache.
        let coords = &self.input.coords;
        for i in first_tile..m {
            if self.scope == PairScope::AllPairs && i == my_block {
                continue;
            }
            let start = i * b;
            let len = b.min(n - start);
            blk.for_each_warp(|w| {
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
                    TileSrc::RocBroadcast {
                        bufs: coords,
                        start,
                    },
                    len,
                    TilePred::All,
                    &own[w.warp_id as usize],
                    start,
                    valid,
                );
            });
        }

        // Intra-block phase: partners also through the read-only cache.
        match self.scope {
            PairScope::HalfPairs => super::intra_triangle(
                blk,
                ck.as_ref(),
                &self.dist,
                &self.action,
                &mut st,
                CompiledTile::Roc(coords),
                &own,
                block_start,
                block_n,
                self.intra,
            ),
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
                    TileSrc::RocBroadcast {
                        bufs: coords,
                        start: block_start,
                    },
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
    use crate::output::CountWithinRadius;
    use crate::point::SoaPoints;
    use gpu_sim::{Device, DeviceConfig};

    #[test]
    fn roc_kernel_matches_reference_and_uses_roc() {
        let pts = SoaPoints::<3>::from_points(
            &(0..192).map(|i| [i as f32, 0.0, 0.0]).collect::<Vec<_>>(),
        );
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = pts.upload(&mut dev);
        let lc = super::super::pair_launch(input.n, 64);
        let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let k = RegisterRocKernel::new(
            input,
            Euclidean,
            CountWithinRadius { radius: 3.5, out },
            64,
            PairScope::HalfPairs,
            IntraMode::Regular,
        );
        let run = dev.launch(&k, lc);
        let total: u64 = dev.u64_slice(out).iter().sum();
        let expect: u64 = (0..192u64).map(|i| (192 - i - 1).min(3)).sum();
        assert_eq!(total, expect);
        assert!(
            run.tally.roc_load_instructions > 0,
            "tiles must flow through the ROC"
        );
        assert!(
            run.tally.roc_hit_sectors > run.tally.roc_miss_sectors,
            "tile reuse must hit the read-only cache"
        );
        // No input tile in shared memory: only action-allocated shared
        // (none for Type-I), so no shared traffic at all.
        assert_eq!(run.tally.shared_transactions, 0);
    }

    #[test]
    fn roc_load_balanced_matches_regular() {
        let pts = SoaPoints::<2>::from_points(
            &(0..128)
                .map(|i| [(i % 13) as f32, (i / 13) as f32])
                .collect::<Vec<_>>(),
        );
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = pts.upload(&mut dev);
        let lc = super::super::pair_launch(input.n, 64);
        let o1 = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let o2 = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let mk = |out, intra| {
            RegisterRocKernel::new(
                input,
                Euclidean,
                CountWithinRadius { radius: 4.0, out },
                64,
                PairScope::HalfPairs,
                intra,
            )
        };
        dev.launch(&mk(o1, IntraMode::Regular), lc);
        dev.launch(&mk(o2, IntraMode::LoadBalanced), lc);
        assert_eq!(
            dev.u64_slice(o1).iter().sum::<u64>(),
            dev.u64_slice(o2).iter().sum::<u64>()
        );
    }
}
