//! The packed multi-cell-pair kernel: many small pairwise work items in
//! ONE simulated launch.
//!
//! The uniform-grid front end ([`crate::grid`]) prunes most of the N²/2
//! pair mass but leaves thousands of *tiny* work items — one triangular
//! range per occupied cell plus one rectangle per surviving inter-cell
//! pair. Launching each item separately pays the per-launch floor
//! (cold L2, occupancy ramp, host dispatch) thousands of times; the
//! paper's kernels assume launches big enough to saturate the device.
//! This kernel restores that assumption: a block→segment descriptor
//! table maps every block of one launch onto one slice of one work
//! item, so a whole population class of cell pairs runs as a single
//! launch.
//!
//! ## Descriptor table
//!
//! A [`PackedSegment`] names one work item by *catalog offsets* into a
//! device-resident SoA (the CSR-ordered gridded catalog):
//!
//! * intra segment — the triangular half-pair range over
//!   `left[left_start .. left_start + left_len)`, exactly the pairs an
//!   Algorithm-3 launch over that slice would evaluate;
//! * cross segment — the full `left_len × right_len` rectangle between
//!   two disjoint slices, exactly a [`super::CrossShmKernel`] launch.
//!
//! [`PackedLayout`] lays segments out over consecutive blocks — segment
//! `s` owns `ceil(left_len / B)` blocks — and the kernel recovers
//! `(segment, block-within-segment)` from `block_id` in O(1).
//!
//! ## Output-region soundness
//!
//! No per-segment output descriptors are needed: every
//! [`crate::output::PairAction`] used on the gridded route *stores*
//! (not accumulates) its per-block result into a region indexed by the
//! launch-global thread id (Type-I counts) or `block_id` (Type-II
//! privatized histograms) in `end_block`. Distinct blocks therefore
//! write disjoint regions whatever segment they serve, and the host
//! merges once per launch instead of once per cell pair.
//!
//! ## Bit-identity
//!
//! Each block evaluates exactly the pair multiset of the block of the
//! Algorithm-3 / Cross-SHM launch over its segment alone, through the
//! same compiled-or-op-by-op routes (per-warp valid masks are prefix
//! masks, so the compiled passes engage exactly as they do for a ragged
//! final block). The sinks are integer accumulators, so "same pair
//! multiset" is already bit-identity — packed output == all-pairs
//! output == the CPU grid oracle, enforced by
//! `core/tests/grid_identity.rs`; a one-segment launch is pinned to
//! Register-SHM bit for bit by this module's tests.

use crate::distance::DistanceKernel;
use crate::kernels::IntraMode;
use crate::output::PairAction;
use crate::point::DeviceSoa;
use gpu_sim::{
    BlockCtx, CompiledKernel, CompiledTile, F32x32, Kernel, KernelResources, LaunchConfig, ShmF32,
    TilePred, TileSrc,
};

/// One work item of a packed launch, in catalog offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedSegment {
    /// Start of the left (own-point) slice in the left catalog.
    pub left_start: u32,
    /// Points in the left slice (one thread each).
    pub left_len: u32,
    /// Start of the right (tiled) slice in the right catalog.
    pub right_start: u32,
    /// Points in the right slice.
    pub right_len: u32,
    /// Triangular half-pair range (`true`) or full rectangle (`false`).
    /// Intra segments must have identical left and right slices.
    pub intra: bool,
}

impl PackedSegment {
    /// Triangular intra-cell segment over one catalog slice.
    pub fn intra(start: u32, len: u32) -> Self {
        PackedSegment {
            left_start: start,
            left_len: len,
            right_start: start,
            right_len: len,
            intra: true,
        }
    }

    /// Rectangular inter-cell segment between two slices.
    pub fn cross(left_start: u32, left_len: u32, right_start: u32, right_len: u32) -> Self {
        PackedSegment {
            left_start,
            left_len,
            right_start,
            right_len,
            intra: false,
        }
    }

    /// Point pairs this segment evaluates.
    pub fn pair_count(&self) -> u64 {
        if self.intra {
            let n = self.left_len as u64;
            n * n.saturating_sub(1) / 2
        } else {
            self.left_len as u64 * self.right_len as u64
        }
    }
}

/// The block→segment descriptor table of one packed launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLayout {
    /// The packed work items.
    pub segments: Vec<PackedSegment>,
    /// Block size B every segment is tiled with.
    pub block_size: u32,
    /// `blocks[block_id] = (segment index, block within segment)`.
    blocks: Vec<(u32, u32)>,
}

impl PackedLayout {
    /// Lay `segments` out over consecutive blocks of size `block_size`.
    /// Segments must be non-empty on the left side (a zero-thread
    /// segment would own zero blocks and silently drop its pairs).
    pub fn new(segments: Vec<PackedSegment>, block_size: u32) -> Self {
        assert!(block_size > 0, "packed layout needs a positive block size");
        let mut blocks = Vec::new();
        for (s, seg) in segments.iter().enumerate() {
            assert!(
                seg.left_len > 0,
                "packed segment {s} has an empty left slice"
            );
            if seg.intra {
                assert!(
                    seg.left_start == seg.right_start && seg.left_len == seg.right_len,
                    "intra segment {s} must have identical left/right slices"
                );
            }
            for b in 0..super::num_blocks(seg.left_len, block_size) {
                blocks.push((s as u32, b));
            }
        }
        PackedLayout {
            segments,
            block_size,
            blocks,
        }
    }

    /// Blocks in the packed launch.
    pub fn num_blocks(&self) -> u32 {
        self.blocks.len() as u32
    }

    /// The launch covering every segment (grid = total blocks).
    pub fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(self.num_blocks(), self.block_size)
    }

    /// Point pairs across all segments.
    pub fn pair_count(&self) -> u64 {
        self.segments.iter().map(PackedSegment::pair_count).sum()
    }
}

/// The packed kernel: one launch, many cell-pair work items. `left` and
/// `right` are the catalogs the segment offsets index (the same
/// [`DeviceSoa`] twice for a self-join).
#[derive(Debug, Clone)]
pub struct PackedPairKernel<const D: usize, F, A> {
    /// Catalog holding every left (own-point) slice.
    pub left: DeviceSoa<D>,
    /// Catalog holding every right (tiled) slice.
    pub right: DeviceSoa<D>,
    /// Distance function.
    pub dist: F,
    /// Output action; per-block regions as argued in the module docs.
    pub action: A,
    /// The block→segment descriptor table.
    pub layout: PackedLayout,
}

impl<const D: usize, F, A> PackedPairKernel<D, F, A> {
    pub fn new(
        left: DeviceSoa<D>,
        right: DeviceSoa<D>,
        dist: F,
        action: A,
        layout: PackedLayout,
    ) -> Self {
        PackedPairKernel {
            left,
            right,
            dist,
            action,
            layout,
        }
    }

    /// Self-join constructor: both sides index the same catalog.
    pub fn self_join(points: DeviceSoa<D>, dist: F, action: A, layout: PackedLayout) -> Self {
        Self::new(points, points, dist, action, layout)
    }
}

impl<const D: usize, F, A> PackedPairKernel<D, F, A>
where
    F: DistanceKernel<D>,
    A: PairAction,
{
    /// Stage `src[t_start .. t_start + t_len)` in the shared tile and
    /// pair it against the block's own registers in one tile pass.
    #[allow(clippy::too_many_arguments)]
    fn stage_and_pass(
        &self,
        blk: &mut BlockCtx<'_>,
        ck: Option<&CompiledKernel>,
        st: &mut A::Block,
        own: &[[F32x32; D]],
        tile: &[ShmF32; D],
        src: &DeviceSoa<D>,
        t_start: u32,
        t_len: u32,
        own_count: u32,
    ) {
        super::load_tile_to_shared(blk, src, tile, t_start, t_len);
        blk.syncthreads();
        blk.for_each_warp(|w| {
            let tid = w.thread_ids();
            let valid = w.mask_lt(&tid, own_count).and(w.active_threads());
            if !valid.any() {
                return;
            }
            super::tile_pass(
                w,
                ck,
                &self.dist,
                &self.action,
                st,
                TileSrc::SharedBroadcast(tile),
                t_len,
                TilePred::All,
                &own[w.warp_id as usize],
                t_start,
                valid,
            );
        });
        blk.syncthreads();
    }
}

impl<const D: usize, F, A> Kernel for PackedPairKernel<D, F, A>
where
    F: DistanceKernel<D>,
    A: PairAction,
{
    fn name(&self) -> &'static str {
        "packed-pair"
    }

    fn resources(&self) -> KernelResources {
        let b = self.layout.block_size;
        // Same register/shared shape as Register-SHM / Cross-SHM: own
        // datum in registers, one shared tile, plus the action's state.
        KernelResources::new(
            super::register_shm::REG_SHM_BASE_REGS + 2 * D as u32 + self.action.regs_per_thread(),
            b * 4 * D as u32 + self.action.shared_bytes(b),
        )
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        assert_eq!(
            blk.block_dim, self.layout.block_size,
            "launch block_dim must equal the layout's block_size"
        );
        let b = self.layout.block_size;
        let (seg_idx, blk_in_seg) = self.layout.blocks[blk.block_id as usize];
        let seg = self.layout.segments[seg_idx as usize];

        let mut st = self.action.begin_block(blk);
        let ck = super::lower_block_plan::<D, _, _>(blk, &self.dist, &self.action, b);

        // This block owns `left[own_start .. own_start + own_count)`.
        let own_start = seg.left_start + blk_in_seg * b;
        let own_count = b.min(seg.left_len - blk_in_seg * b);
        let own = super::load_own_registers_at(blk, &self.left, own_start, own_count);
        let tile = super::alloc_tile::<D>(blk, b);

        if seg.intra {
            // The Algorithm-3 discipline over the segment's slice:
            // forward inter-block tiles, then the own-block triangle
            // (own tile loaded last, overwriting the shared space).
            let m = super::num_blocks(seg.left_len, b);
            for i in blk_in_seg + 1..m {
                let t_start = seg.left_start + i * b;
                let t_len = b.min(seg.left_len - i * b);
                self.stage_and_pass(
                    blk,
                    ck.as_ref(),
                    &mut st,
                    &own,
                    &tile,
                    &self.left,
                    t_start,
                    t_len,
                    own_count,
                );
            }
            super::load_tile_to_shared(blk, &self.left, &tile, own_start, own_count);
            blk.syncthreads();
            super::intra_triangle(
                blk,
                ck.as_ref(),
                &self.dist,
                &self.action,
                &mut st,
                CompiledTile::Shared(&tile),
                &own,
                own_start,
                own_count,
                IntraMode::Regular,
            );
        } else {
            // The Cross-SHM rectangle: tile the whole right slice.
            let tiles = super::num_blocks(seg.right_len, b);
            for i in 0..tiles {
                let t_start = seg.right_start + i * b;
                let t_len = b.min(seg.right_len - i * b);
                self.stage_and_pass(
                    blk,
                    ck.as_ref(),
                    &mut st,
                    &own,
                    &tile,
                    &self.right,
                    t_start,
                    t_len,
                    own_count,
                );
            }
        }

        self.action.end_block(blk, st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Euclidean;
    use crate::histogram::HistogramSpec;
    use crate::kernels::{pair_launch, PairScope, RegisterShmKernel};
    use crate::output::{CountWithinRadius, SharedHistogramAction};
    use crate::point::SoaPoints;
    use gpu_sim::{Device, DeviceConfig};

    fn line_points(n: usize) -> SoaPoints<3> {
        SoaPoints::from_points(&(0..n).map(|i| [i as f32, 0.0, 0.0]).collect::<Vec<_>>())
    }

    fn host_count(pts: &SoaPoints<3>, seg: &PackedSegment, r: f32) -> u64 {
        let dist = |i: usize, j: usize| {
            let (p, q) = (pts.point(i), pts.point(j));
            ((p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2)).sqrt()
        };
        let mut c = 0;
        if seg.intra {
            for i in 0..seg.left_len as usize {
                for j in i + 1..seg.left_len as usize {
                    if dist(seg.left_start as usize + i, seg.left_start as usize + j) < r {
                        c += 1;
                    }
                }
            }
        } else {
            for i in 0..seg.left_len as usize {
                for j in 0..seg.right_len as usize {
                    if dist(seg.left_start as usize + i, seg.right_start as usize + j) < r {
                        c += 1;
                    }
                }
            }
        }
        c
    }

    #[test]
    fn layout_assigns_consecutive_blocks_per_segment() {
        let layout = PackedLayout::new(
            vec![
                PackedSegment::intra(0, 200),            // 4 blocks at B = 64
                PackedSegment::cross(200, 64, 300, 100), // 1 block
                PackedSegment::intra(400, 1),            // 1 block
            ],
            64,
        );
        assert_eq!(layout.num_blocks(), 6);
        assert_eq!(layout.launch_config().grid_dim, 6);
        assert_eq!(layout.pair_count(), 200 * 199 / 2 + 64 * 100);
    }

    #[test]
    fn single_intra_segment_is_bit_identical_to_register_shm() {
        // One segment covering the whole set lays blocks out exactly
        // like the monolithic launch, so even the per-thread output
        // regions must match bit for bit.
        let pts = line_points(200);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = pts.upload(&mut dev);
        let lc = pair_launch(input.n, 64);
        let out_ref = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let k_ref = RegisterShmKernel::new(
            input,
            Euclidean,
            CountWithinRadius {
                radius: 5.5,
                out: out_ref,
            },
            64,
            PairScope::HalfPairs,
            IntraMode::Regular,
        );
        dev.launch(&k_ref, lc);

        let layout = PackedLayout::new(vec![PackedSegment::intra(0, 200)], 64);
        let lc_packed = layout.launch_config();
        assert_eq!(lc_packed.grid_dim, lc.grid_dim);
        let out_packed = dev.alloc_u64_zeroed(lc_packed.total_threads() as usize);
        let k = PackedPairKernel::self_join(
            input,
            Euclidean,
            CountWithinRadius {
                radius: 5.5,
                out: out_packed,
            },
            layout,
        );
        dev.launch(&k, lc_packed);
        assert_eq!(dev.u64_slice(out_ref), dev.u64_slice(out_packed));
    }

    #[test]
    fn multi_segment_counts_match_host_reference() {
        // Three intra cells (one ragged, one single-point) and two
        // cross rectangles, with segment boundaries off block edges.
        let pts = line_points(500);
        let segs = vec![
            PackedSegment::intra(0, 130),
            PackedSegment::intra(130, 1),
            PackedSegment::intra(131, 64),
            PackedSegment::cross(0, 130, 131, 64),
            PackedSegment::cross(195, 100, 300, 200),
        ];
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = pts.upload(&mut dev);
        let layout = PackedLayout::new(segs.clone(), 64);
        let lc = layout.launch_config();
        let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let k = PackedPairKernel::self_join(
            input,
            Euclidean,
            CountWithinRadius { radius: 7.5, out },
            layout,
        );
        dev.launch(&k, lc);
        let got: u64 = dev.u64_slice(out).iter().sum();
        let want: u64 = segs.iter().map(|s| host_count(&pts, s, 7.5)).sum();
        assert_eq!(got, want);
    }

    #[test]
    fn packed_histogram_bins_every_segment_pair_once() {
        let pts = line_points(300);
        let segs = vec![
            PackedSegment::intra(0, 100),
            PackedSegment::cross(100, 50, 150, 150),
        ];
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = pts.upload(&mut dev);
        let layout = PackedLayout::new(segs, 32);
        let lc = layout.launch_config();
        let spec = HistogramSpec::new(16, 400.0);
        let private = dev.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize);
        let k = PackedPairKernel::self_join(
            input,
            Euclidean,
            SharedHistogramAction { spec, private },
            layout,
        );
        dev.launch(&k, lc);
        let total: u64 = dev.u32_slice(private).iter().map(|&x| x as u64).sum();
        assert_eq!(total, 100 * 99 / 2 + 50 * 150);
    }

    #[test]
    fn sequential_and_parallel_engines_agree_with_compiled_on_and_off() {
        let pts = line_points(260);
        let segs = vec![
            PackedSegment::intra(0, 97),
            PackedSegment::cross(97, 33, 130, 130),
        ];
        let want: u64 = segs.iter().map(|s| host_count(&pts, s, 9.5)).sum();
        for compiled in [false, true] {
            for mode in [
                gpu_sim::ExecMode::Sequential,
                gpu_sim::ExecMode::Parallel { threads: 0 },
            ] {
                let cfg = DeviceConfig::titan_x()
                    .with_compiled(compiled)
                    .with_exec_mode(mode);
                let mut dev = Device::new(cfg);
                let input = pts.upload(&mut dev);
                let layout = PackedLayout::new(segs.clone(), 64);
                let lc = layout.launch_config();
                let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
                let k = PackedPairKernel::self_join(
                    input,
                    Euclidean,
                    CountWithinRadius { radius: 9.5, out },
                    layout,
                );
                dev.launch(&k, lc);
                let got: u64 = dev.u64_slice(out).iter().sum();
                assert_eq!(got, want, "compiled={compiled} mode={mode:?}");
            }
        }
    }

    #[test]
    fn empty_layout_is_a_noop_launch() {
        let pts = line_points(8);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = pts.upload(&mut dev);
        let layout = PackedLayout::new(vec![], 32);
        let lc = layout.launch_config();
        assert_eq!(lc.grid_dim, 0);
        let out = dev.alloc_u64_zeroed(32);
        let k = PackedPairKernel::self_join(
            input,
            Euclidean,
            CountWithinRadius { radius: 1.0, out },
            layout,
        );
        dev.launch(&k, lc);
        assert_eq!(dev.u64_slice(out).iter().sum::<u64>(), 0);
    }

    #[test]
    #[should_panic(expected = "empty left slice")]
    fn zero_length_segments_are_rejected() {
        PackedLayout::new(vec![PackedSegment::intra(0, 0)], 32);
    }
}
