//! The shuffle-tiling kernel — the paper's Algorithm 4 (§IV-E2).
//!
//! Tiles live in *registers*: each lane of a warp loads one element of
//! the R tile (a coalesced global load), and a `shfl` broadcast walks the
//! 32 register copies so every lane sees every element — no shared
//! memory, no read-only cache. "This tiling method requires only two
//! more registers and doesn't require shared memory or read-only cache."

use crate::distance::DistanceKernel;
use crate::kernels::PairScope;
use crate::output::PairAction;
use crate::point::DeviceSoa;
use gpu_sim::{
    BlockCtx, CompiledKernel, F32x32, Kernel, KernelResources, Mask, TilePred, TileSrc, U32x32,
    WarpCtx, WARP_SIZE,
};

/// Algorithm 4: register tiling via warp shuffle.
#[derive(Debug, Clone)]
pub struct ShuffleKernel<const D: usize, F, A> {
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
}

impl<const D: usize, F, A> ShuffleKernel<D, F, A> {
    pub fn new(input: DeviceSoa<D>, dist: F, action: A, block_size: u32, scope: PairScope) -> Self {
        ShuffleKernel {
            input,
            dist,
            action,
            block_size,
            scope,
        }
    }
}

pub(crate) const SHUFFLE_BASE_REGS: u32 = 18 + 4;

impl<const D: usize, F, A> ShuffleKernel<D, F, A>
where
    F: DistanceKernel<D>,
    A: PairAction,
{
    /// Process one 32-element fragment of a tile: coalesced load into
    /// `reg1` (one register per lane), then broadcast each lane's value
    /// with `shfl` and evaluate (Algorithm 4 lines 4–9). `pred` skips
    /// self-pairs and, in the intra phase, enforces ordering.
    #[allow(clippy::too_many_arguments)]
    fn fragment(
        &self,
        w: &mut WarpCtx<'_, '_>,
        ck: Option<&CompiledKernel>,
        st: &mut A::Block,
        valid: Mask,
        frag_start: u32,
        frag_len: u32,
        reg0: &[F32x32; D],
        pred: TilePred,
    ) {
        // Line 4: regl <- the j-th datum, one element per lane.
        let lane = w.lane_ids();
        let src: U32x32 = std::array::from_fn(|i| frag_start + lane[i]);
        let load_mask = w.mask_lt(&lane, frag_len).and(valid.or(w.active_threads()));
        w.charge_alu(1, load_mask);
        let reg1: [F32x32; D] =
            std::array::from_fn(|d| w.global_load_f32(self.input.coords[d], &src, load_mask));

        // Lines 5–9: walk the 32 lanes by shuffle broadcast.
        super::tile_pass(
            w,
            ck,
            &self.dist,
            &self.action,
            st,
            TileSrc::LaneBroadcast(&reg1),
            frag_len,
            pred,
            reg0,
            frag_start,
            valid,
        );
    }
}

impl<const D: usize, F, A> Kernel for ShuffleKernel<D, F, A>
where
    F: DistanceKernel<D>,
    A: PairAction,
{
    fn name(&self) -> &'static str {
        "shuffle"
    }

    fn resources(&self) -> KernelResources {
        // "required only two more registers" than Register-SHM's base.
        KernelResources::new(
            SHUFFLE_BASE_REGS + 2 + 2 * D as u32 + self.action.regs_per_thread(),
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
        // Line 1: reg0 <- own datum.
        let own = super::load_own_registers(blk, &self.input);

        let first_tile = match self.scope {
            PairScope::HalfPairs => my_block + 1,
            PairScope::AllPairs => 0,
        };

        // Line 2: inter-block phase over whole tiles.
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
                let reg0 = &own[w.warp_id as usize];
                // Line 3: for j = t%w to B step w (fragment loop).
                let mut frag = 0u32;
                while frag < len {
                    let fl = (len - frag).min(WARP_SIZE as u32);
                    let pred = TilePred::NotEqual {
                        gid0: gid[0],
                        base: start + frag,
                    };
                    self.fragment(w, ck.as_ref(), &mut st, valid, start + frag, fl, reg0, pred);
                    frag += WARP_SIZE as u32;
                }
            });
        }

        // Intra phase: fragments of the own tile; ordering enforced by
        // the predicate (lane gid < partner for HalfPairs).
        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let valid = w.mask_lt(&gid, n).and(w.active_threads());
            if !valid.any() {
                return;
            }
            let reg0 = &own[w.warp_id as usize];
            let mut frag = 0u32;
            while frag < block_n {
                let fl = (block_n - frag).min(WARP_SIZE as u32);
                let (gid0, base) = (gid[0], block_start + frag);
                let pred = match self.scope {
                    PairScope::HalfPairs => TilePred::LessThan { gid0, base },
                    PairScope::AllPairs => TilePred::NotEqual { gid0, base },
                };
                self.fragment(w, ck.as_ref(), &mut st, valid, base, fl, reg0, pred);
                frag += WARP_SIZE as u32;
            }
        });

        self.action.end_block(blk, st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Euclidean;
    use crate::output::CountWithinRadius;
    use crate::point::SoaPoints;
    use gpu_sim::{Device, DeviceConfig, SimError};

    #[test]
    fn shuffle_kernel_matches_reference_without_shared_or_roc() {
        let pts = SoaPoints::<3>::from_points(
            &(0..160).map(|i| [i as f32, 0.5, 0.25]).collect::<Vec<_>>(),
        );
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = pts.upload(&mut dev);
        let lc = super::super::pair_launch(input.n, 64);
        let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let k = ShuffleKernel::new(
            input,
            Euclidean,
            CountWithinRadius { radius: 7.5, out },
            64,
            PairScope::HalfPairs,
        );
        let run = dev.launch(&k, lc);
        let total: u64 = dev.u64_slice(out).iter().sum();
        let expect: u64 = (0..160u64).map(|i| (160 - i - 1).min(7)).sum();
        assert_eq!(total, expect);
        assert!(run.tally.shuffle_instructions > 0);
        assert_eq!(run.tally.shared_transactions, 0, "no shared memory");
        assert_eq!(run.tally.roc_load_instructions, 0, "no read-only cache");
    }

    #[test]
    fn shuffle_kernel_requires_kepler_or_newer() {
        let pts =
            SoaPoints::<2>::from_points(&(0..64).map(|i| [i as f32, 0.0]).collect::<Vec<_>>());
        let mut dev = Device::new(DeviceConfig::fermi_gtx580());
        let input = pts.upload(&mut dev);
        let lc = super::super::pair_launch(input.n, 32);
        let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let k = ShuffleKernel::new(
            input,
            Euclidean,
            CountWithinRadius { radius: 1.0, out },
            32,
            PairScope::HalfPairs,
        );
        let err = dev.try_launch(&k, lc).unwrap_err();
        assert!(matches!(err, SimError::ShuffleUnsupported { .. }));
    }

    #[test]
    fn shuffle_all_pairs_doubles_the_count() {
        let pts =
            SoaPoints::<2>::from_points(&(0..96).map(|i| [i as f32, 0.0]).collect::<Vec<_>>());
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = pts.upload(&mut dev);
        let lc = super::super::pair_launch(input.n, 32);
        let o1 = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let o2 = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let k1 = ShuffleKernel::new(
            input,
            Euclidean,
            CountWithinRadius {
                radius: 4.0,
                out: o1,
            },
            32,
            PairScope::HalfPairs,
        );
        let k2 = ShuffleKernel::new(
            input,
            Euclidean,
            CountWithinRadius {
                radius: 4.0,
                out: o2,
            },
            32,
            PairScope::AllPairs,
        );
        dev.launch(&k1, lc);
        dev.launch(&k2, lc);
        assert_eq!(
            2 * dev.u64_slice(o1).iter().sum::<u64>(),
            dev.u64_slice(o2).iter().sum::<u64>()
        );
    }
}
