//! The paper's GPU kernel variants for the pairwise-computation stage.
//!
//! | module | paper reference | input data path |
//! |---|---|---|
//! | [`naive`] | Algorithm 1 | global memory only |
//! | [`shm_shm`] | Algorithm 2, "SHM-SHM" | both tiles in shared memory |
//! | [`register_shm`] | Algorithm 3, "Register-SHM" | own datum in a register, R tile in shared memory |
//! | [`register_roc`] | §IV-A, "Register-ROC" | own datum in a register, tiles through the read-only cache |
//! | [`shuffle`] | Algorithm 4 | own datum + tile fragments in registers, exchanged with warp shuffle |
//! | [`reduction`] | Figure 3 | combines privatized output copies |
//!
//! Every variant is generic over the distance function and the
//! [`crate::output::PairAction`], so e.g. the paper's `Reg-ROC-Out` SDH
//! kernel is `RegisterRocKernel` × `SharedHistogramAction`.
//!
//! Each kernel lowers its plan once per block (`lower_block_plan`) and
//! runs every stage — tile fetch, inner tile pass, intra triangle —
//! through the compiled pass when the plan lowered and the shape is
//! supported, else interprets it op by op. The two routes are
//! bit-identical in outputs, tally and cache state. Every tiling kernel
//! runs its passes through the same two drivers, which own both
//! routes: `tile_pass` for an inter-tile, own-tile or shuffle-fragment
//! pass (a [`gpu_sim::TileSrc`] × [`gpu_sim::TilePred`]), and
//! `intra_triangle` for the intra-block triangle (a
//! [`gpu_sim::CompiledTile`] in either [`IntraMode`]).

pub mod cross;
pub mod naive;
pub mod packed;
pub mod reduction;
pub mod register_roc;
pub mod register_shm;
pub mod shm_shm;
pub mod shuffle;

pub use cross::CrossShmKernel;
pub use naive::NaiveKernel;
pub use packed::{PackedLayout, PackedPairKernel, PackedSegment};
pub use reduction::{HistogramReduceKernel, SumReduceKernel};
pub use register_roc::RegisterRocKernel;
pub use register_shm::RegisterShmKernel;
pub use shm_shm::ShmShmKernel;
pub use shuffle::ShuffleKernel;

use crate::distance::DistanceKernel;
use crate::output::PairAction;
use crate::point::DeviceSoa;
use gpu_sim::{
    BlockCtx, CompiledKernel, CompiledTile, F32x32, LaunchConfig, Mask, ShmF32, TilePred, TileSrc,
    U32x32, WarpCtx, WARP_SIZE,
};

/// Which pairs a kernel evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairScope {
    /// Each unordered pair `{i, j}` exactly once (`i < j`) — the paper's
    /// Algorithms 1–4 (2-PCF, SDH, joins, Gram matrices).
    HalfPairs,
    /// Each ordered pair `(i, j)`, `i ≠ j` — required when every point
    /// must observe every other point (kNN, KDE).
    AllPairs,
}

/// How the intra-block triangle is iterated (paper §IV-E1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntraMode {
    /// Thread `t` pairs with `t+1 … B−1`: divergent trip counts.
    #[default]
    Regular,
    /// The paper's load-balanced `(t + j) mod B` pairing: every thread
    /// does `B/2` iterations (upper half one fewer), divergence-free for
    /// full blocks.
    LoadBalanced,
}

/// Number of data blocks for `n` points in blocks of `b` — the paper's
/// equation (1), `M = N / B`, generalized to ragged `n`. An empty input
/// maps to an empty grid: `n = 0` launches zero blocks, which the
/// simulator treats as a documented no-op (outputs stay zeroed).
pub fn num_blocks(n: u32, b: u32) -> u32 {
    n.div_ceil(b)
}

/// Standard launch for a 2-BS kernel: one thread block per data block.
pub fn pair_launch(n: u32, block_size: u32) -> LaunchConfig {
    LaunchConfig::new(num_blocks(n, block_size), block_size)
}

// ====================================================================
// shared kernel-building blocks
// ====================================================================

/// Load each thread's own datum into "registers": one coalesced global
/// load per warp per dimension. Returns per-warp lane coordinates.
pub(crate) fn load_own_registers<const D: usize>(
    blk: &mut BlockCtx<'_>,
    input: &DeviceSoa<D>,
) -> Vec<[F32x32; D]> {
    let n = input.n;
    let coords = input.coords;
    let mut regs: Vec<[F32x32; D]> = vec![[[0.0; WARP_SIZE]; D]; blk.num_warps() as usize];
    blk.for_each_warp(|w| {
        let gid = w.global_thread_ids();
        let m = w.mask_lt(&gid, n).and(w.active_threads());
        for d in 0..D {
            regs[w.warp_id as usize][d] = w.global_load_f32(coords[d], &gid, m);
        }
    });
    regs
}

/// Load each thread's own datum from the catalog range
/// `[start, start + count)` — the packed-segment analogue of
/// [`load_own_registers`], where a block's own points live at an
/// arbitrary catalog offset instead of `block_id * B`. Lanes at or past
/// `count` are masked off (their addresses are never dereferenced).
pub(crate) fn load_own_registers_at<const D: usize>(
    blk: &mut BlockCtx<'_>,
    input: &DeviceSoa<D>,
    start: u32,
    count: u32,
) -> Vec<[F32x32; D]> {
    let coords = input.coords;
    let mut regs: Vec<[F32x32; D]> = vec![[[0.0; WARP_SIZE]; D]; blk.num_warps() as usize];
    blk.for_each_warp(|w| {
        let tid = w.thread_ids();
        let m = w.mask_lt(&tid, count).and(w.active_threads());
        let src: U32x32 = std::array::from_fn(|i| start + tid[i]);
        for d in 0..D {
            regs[w.warp_id as usize][d] = w.global_load_f32(coords[d], &src, m);
        }
    });
    regs
}

/// Allocate a shared-memory tile of `len` points × `D` coordinates.
pub(crate) fn alloc_tile<const D: usize>(blk: &mut BlockCtx<'_>, len: u32) -> [ShmF32; D] {
    std::array::from_fn(|_| blk.shared_alloc_f32(len as usize))
}

/// Cooperatively load points `[start, start + count)` into a shared tile:
/// thread `t` loads element `t` (coalesced global load + conflict-free
/// shared store per dimension). Caller must `syncthreads()` afterwards.
pub(crate) fn load_tile_to_shared<const D: usize>(
    blk: &mut BlockCtx<'_>,
    input: &DeviceSoa<D>,
    tile: &[ShmF32; D],
    start: u32,
    count: u32,
) {
    // Compiled route: the whole cooperative fetch in one closed-form
    // pass. Declines (fault pre-flight, route off) fall through to the
    // op-by-op sweep below, which reproduces the exact fault point.
    if blk.compiled_tile_load(tile, &input.coords, start, count) {
        return;
    }
    let coords = input.coords;
    blk.for_each_warp(|w| {
        let tid = w.thread_ids();
        let m = w.mask_lt(&tid, count).and(w.active_threads());
        if !m.any() {
            return;
        }
        let src: U32x32 = std::array::from_fn(|i| start + tid[i]);
        w.charge_alu(1, m);
        for d in 0..D {
            let v = w.global_load_f32(coords[d], &src, m);
            w.shared_store_f32(tile[d], &tid, &v, m);
        }
    });
}

/// Lower this kernel's plan for the compiled route: `Some` only when the
/// distance declares a compiled form, the action declares a compiled
/// sink, and the device config enables the route. Kernels call
/// this once per block and thread the result through every tile pass.
pub(crate) fn lower_block_plan<const D: usize, F: DistanceKernel<D>, A: PairAction>(
    blk: &BlockCtx<'_>,
    dist: &F,
    action: &A,
    tile_len: u32,
) -> Option<CompiledKernel> {
    crate::plan::lower_pair_plan::<D, F, A>(blk.config(), dist, action, tile_len)
}

/// One inner tile pass of a warp: `len` steps of *broadcast element `j`
/// of `src`, evaluate `dist` against the warp's `own` registers under
/// `pred`, and hand the values to `action` with partner id
/// `right0 + j`* — the loop every tiling kernel runs per tile (paper
/// Algorithm 3 lines 5–8, Algorithm 4 lines 5–9). Charges the loop
/// control, then runs the whole pass through the compiled route when
/// `ck` is lowered and the shape is supported, else op by op; both
/// routes are bit-identical in outputs, tally and cache state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tile_pass<const D: usize, F: DistanceKernel<D>, A: PairAction>(
    w: &mut WarpCtx<'_, '_>,
    ck: Option<&CompiledKernel>,
    dist: &F,
    action: &A,
    st: &mut A::Block,
    src: TileSrc<'_, D>,
    len: u32,
    pred: TilePred,
    own: &[F32x32; D],
    right0: u32,
    valid: Mask,
) {
    w.charge_control(len as u64 + 1, valid);
    // `lower_block_plan` already verified the distance shape; the sink
    // view re-borrows per warp.
    if let Some(ck) = ck {
        if let Some(c) = action.tile_sink(st, w.warp_id) {
            if w.compiled_tile_pass(ck, src, len, pred, own, c, valid) {
                return;
            }
        }
    }
    let gid = w.global_thread_ids();
    let predicated = !matches!(pred, TilePred::All);
    for j in 0..len {
        let rj: [F32x32; D] = match src {
            TileSrc::SharedBroadcast(tile) => {
                std::array::from_fn(|d| w.shared_load_f32(tile[d], &[j; WARP_SIZE], valid))
            }
            TileSrc::RocBroadcast { bufs, start } => {
                std::array::from_fn(|d| w.roc_load_f32(bufs[d], &[start + j; WARP_SIZE], valid))
            }
            TileSrc::LaneBroadcast(lanes) => {
                std::array::from_fn(|d| w.shfl_bcast_f32(&lanes[d], j, valid))
            }
        };
        // The guard expression: one compare per step, under `valid`.
        if predicated {
            w.charge_alu(1, valid);
        }
        let pm = pred.mask(j, valid);
        if pm.any() {
            let dval = dist.eval(w, own, &rj, pm);
            action.process(w, st, &gid, &[right0 + j; WARP_SIZE], &dval, pm);
        }
    }
}

/// Gather per-lane tile elements (staggered, conflict-free for
/// consecutive indices) from shared memory.
pub(crate) fn gather_from_shared<const D: usize>(
    w: &mut WarpCtx<'_, '_>,
    tile: &[ShmF32; D],
    idx: &U32x32,
    mask: Mask,
) -> [F32x32; D] {
    std::array::from_fn(|d| w.shared_load_f32(tile[d], idx, mask))
}

/// The intra-block triangle (paper Algorithm 2 lines 9–12, Algorithm 3
/// lines 11–14) over the block's own `block_n` points, in either
/// [`IntraMode`]: each thread pairs its `own` registers with partners
/// gathered from `tile` — local indices of a shared tile, or global
/// indices `block_start + local` through the ROC — and hands the values
/// to `action` with partner id `block_start + local`. The regular
/// triangle runs through the compiled route when `ck` is lowered and
/// the shape is supported, else (and always when load-balanced) as the
/// divergent loop.
#[allow(clippy::too_many_arguments)]
pub(crate) fn intra_triangle<const D: usize, F: DistanceKernel<D>, A: PairAction>(
    blk: &mut BlockCtx<'_>,
    ck: Option<&CompiledKernel>,
    dist: &F,
    action: &A,
    st: &mut A::Block,
    tile: CompiledTile<'_, D>,
    own: &[[F32x32; D]],
    block_start: u32,
    block_n: u32,
    mode: IntraMode,
) {
    let bd = blk.block_dim;
    let regular = mode == IntraMode::Regular;
    debug_assert!(
        regular || bd.is_multiple_of(2),
        "load balancing requires an even block size"
    );
    let half = bd / 2;
    blk.for_each_warp(|w| {
        let tid = w.thread_ids();
        let gid = w.global_thread_ids();
        let valid = w.mask_lt(&tid, block_n).and(w.active_threads());
        let reg = &own[w.warp_id as usize];
        if let (true, Some(ck)) = (regular, ck) {
            if let Some(c) = action.tile_sink(st, w.warp_id) {
                if w.compiled_intra_regular(ck, tile, block_start, block_n, reg, c, valid) {
                    return;
                }
            }
        }
        // Regular: thread t pairs with t+1 .. block_n-1, divergent trip
        // counts. Load-balanced: thread t pairs with (t + j) mod B for
        // j = 1 .. B/2, the upper half one iteration fewer (paper
        // Figure 6) — uniform trips within a warp, so full blocks incur
        // zero divergence.
        let trips: U32x32 = std::array::from_fn(|i| match (valid.lane(i), regular) {
            (false, _) => 0,
            (true, true) => block_n.saturating_sub(1).saturating_sub(tid[i]),
            (true, false) if tid[i] < half => half,
            (true, false) => half - 1,
        });
        w.divergent_loop(&trips, valid, |w2, k, active| {
            let j = k + 1;
            let local: U32x32 = std::array::from_fn(|i| {
                if regular {
                    tid[i] + j
                } else {
                    (tid[i] + j) % bd
                }
            });
            // Address computation, plus the load-balanced partner test.
            w2.charge_alu(if regular { 1 } else { 2 }, active);
            // A regular partner is always in range, so `pvalid == active`.
            let pvalid = Mask::from_fn(|i| active.lane(i) && local[i] < block_n);
            if !pvalid.any() {
                return;
            }
            let right: U32x32 = std::array::from_fn(|i| block_start + local[i]);
            let partner: [F32x32; D] = match tile {
                CompiledTile::Shared(t) => gather_from_shared(w2, t, &local, pvalid),
                CompiledTile::Roc(bufs) => {
                    std::array::from_fn(|d| w2.roc_load_f32(bufs[d], &right, pvalid))
                }
            };
            let dval = dist.eval(w2, reg, &partner, pvalid);
            action.process(w2, st, &gid, &right, &dval, pvalid);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_blocks_matches_equation_one() {
        assert_eq!(num_blocks(1024, 256), 4); // M = N / B
        assert_eq!(num_blocks(1000, 256), 4); // ragged
        assert_eq!(num_blocks(1, 256), 1);
        // N = 0 is an empty grid, not a stray single block: an empty
        // input must be a no-op launch with zeroed outputs.
        assert_eq!(num_blocks(0, 256), 0);
    }

    #[test]
    fn pair_launch_geometry() {
        let lc = pair_launch(2048, 128);
        assert_eq!(lc.grid_dim, 16);
        assert_eq!(lc.block_dim, 128);
    }
}
