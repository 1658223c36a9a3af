//! The grid-pruned executor: lowers the surviving cell pairs of a
//! [`tbs_core::grid::UniformGrid`] onto the paper's tiled kernels.
//!
//! Two execution routes share one catalog and one exactness contract:
//!
//! * **Packed** (default) — the surviving cell pairs become
//!   [`PackedSegment`] descriptors, grouped into *population classes*
//!   (power-of-two buckets of the left-slice length), with one
//!   [`tbs_core::plan::choose_plan`] call per class picking the class's
//!   block size. Each class runs as a handful of
//!   [`PackedPairKernel`] launches (capped at
//!   [`MAX_PACKED_BLOCKS_PER_LAUNCH`] blocks each), so a gridded sweep
//!   costs O(population classes) launches instead of O(cell pairs).
//! * **PerCellPair** — the pre-packing behavior: one launch per
//!   surviving cell pair (a single-segment packed launch, which is
//!   block-for-block the Algorithm-3 / Cross-SHM launch it replaces).
//!   Kept as the packed route's differential oracle and for
//!   launch-granularity experiments.
//!
//! The catalog itself is uploaded **once** as a single device SoA in
//! CSR cell order; every cell is a `(start, len)` view into it, so
//! building a catalog costs `D` uploads total instead of `D` per
//! non-empty cell.
//!
//! Both routes reuse one device output buffer across every launch — the
//! Type-I count action and the Type-II privatized histogram action
//! *store* (not accumulate) their per-block regions in `end_block`, so
//! a single buffer sized for the largest launch serves them all, with
//! the host merging after each launch.
//!
//! The bit-identity contract (packed == per-cell-pair == all-pairs,
//! exactly) is argued in [`tbs_core::grid`] and
//! [`tbs_core::kernels::packed`] and enforced by
//! `core/tests/grid_identity.rs`.

use crate::driver::PairwisePlan;
use gpu_sim::{AccessTally, Device, KernelRun, SimError};
use std::collections::BTreeMap;
use tbs_core::distance::{DistanceKernel, Euclidean};
use tbs_core::grid::{
    candidate_cross_pairs, candidate_pairs, cross_prune_stats, prune_stats, CellPair, GridGeometry,
    GridOptions, PruneStats, RadialBins, UniformGrid,
};
use tbs_core::histogram::Histogram;
use tbs_core::kernels::{num_blocks, PackedLayout, PackedPairKernel, PackedSegment};
use tbs_core::output::{
    CountWithinRadius, MultiCountSink, MultiQueryAction, SharedHistogramAction,
};
use tbs_core::plan::{choose_plan, ProblemOutput, ProblemSpec};
use tbs_core::point::{DeviceSoa, SoaPoints};

pub use tbs_core::plan::{
    estimate_packed_launches, MAX_PACKED_BLOCKS_PER_LAUNCH, PACKED_CLASS_ESTIMATE,
};

/// How the gridded executor maps cell pairs onto launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GriddedRoute {
    /// Segmented multi-cell-pair launches, one per population-class
    /// chunk (the default).
    #[default]
    Packed,
    /// One launch per surviving cell pair (the packed route's oracle).
    PerCellPair,
}

/// A point catalog binned into a grid and uploaded **once**: the whole
/// CSR-ordered point set is one device SoA and each cell is a
/// `(start, len)` view into it.
#[derive(Debug)]
pub struct GriddedCatalog<const D: usize> {
    /// The host-side grid (geometry + CSR binning).
    pub grid: UniformGrid<D>,
    /// The CSR-ordered catalog on the device (one buffer per axis).
    device: DeviceSoa<D>,
}

impl<const D: usize> GriddedCatalog<D> {
    /// Bin `pts` into an existing geometry and upload the reordered
    /// catalog once. Use one [`GridGeometry::fit`] over all catalogs
    /// that will be cross-correlated (DD/DR/RR need a shared geometry).
    pub fn build(dev: &mut Device, geom: GridGeometry<D>, pts: &SoaPoints<D>) -> Self {
        let grid = UniformGrid::bin(geom, pts);
        let device = grid.points.upload(dev);
        GriddedCatalog { grid, device }
    }

    /// Fit a geometry for a self-join over `pts` alone and build.
    pub fn build_self(
        dev: &mut Device,
        pts: &SoaPoints<D>,
        r_max: f32,
        opts: &GridOptions,
    ) -> Self {
        Self::build(dev, GridGeometry::fit(&[pts], r_max, opts), pts)
    }

    /// Number of points in the catalog.
    pub fn len(&self) -> usize {
        self.grid.points.len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.grid.points.is_empty()
    }

    /// The whole catalog as one device SoA (CSR cell order).
    pub fn device(&self) -> DeviceSoa<D> {
        self.device
    }

    /// Cell `c` as a `(start, len)` view into [`Self::device`].
    fn cell_view(&self, c: u32) -> (u32, u32) {
        (
            self.grid.cell_start[c as usize],
            self.grid.cell_len(c as usize),
        )
    }
}

/// Aggregate profile of a grid-pruned execution.
#[derive(Debug, Clone, PartialEq)]
pub struct GriddedRun {
    /// Intra-cell launches of the per-cell-pair route.
    pub intra_launches: u32,
    /// Inter-cell launches of the per-cell-pair route.
    pub cross_launches: u32,
    /// Segmented multi-cell-pair launches of the packed route.
    pub packed_launches: u32,
    /// Population classes the packed route planned (0 on the
    /// per-cell-pair route).
    pub population_classes: u32,
    /// Total simulated kernel seconds across all launches.
    pub seconds: f64,
    /// The launches' simulated-device tallies, merged.
    pub tally: AccessTally,
    /// Tile-pass rows (one partner against a warp) that compiled passes
    /// culled as provably out of every sink's range
    /// (`InterpStats::culled_rows`); on a histogram sweep, a subset of
    /// the `tally.shared_atomics` rows.
    pub culled_rows: u64,
    /// Pruning accounting of the candidate-pair enumeration.
    pub stats: PruneStats,
}

impl GriddedRun {
    fn new(stats: PruneStats) -> Self {
        GriddedRun {
            intra_launches: 0,
            cross_launches: 0,
            packed_launches: 0,
            population_classes: 0,
            seconds: 0.0,
            tally: AccessTally::default(),
            culled_rows: 0,
            stats,
        }
    }

    /// Fold one launch's simulated time, tally and culled rows in.
    fn add_launch(&mut self, kr: &KernelRun) {
        self.seconds += kr.timing.seconds;
        self.tally.merge(&kr.tally);
        self.culled_rows += kr.interp.culled_rows;
    }

    /// Share of a histogram sweep's rows (`tally.shared_atomics`) that
    /// were culled; 0 when no histogram row ran.
    pub fn culled_row_frac(&self) -> f64 {
        match self.tally.shared_atomics {
            0 => 0.0,
            rows => self.culled_rows as f64 / rows as f64,
        }
    }

    /// Total launches.
    pub fn launches(&self) -> u32 {
        self.intra_launches + self.cross_launches + self.packed_launches
    }
}

/// Result of a grid-pruned within-radius pair count.
#[derive(Debug, Clone)]
pub struct GriddedCountResult {
    /// Number of pairs with distance strictly below the radius —
    /// bit-identical to [`crate::pcf_gpu`] on the same points.
    pub count: u64,
    /// Aggregate launch profile.
    pub run: GriddedRun,
}

/// Result of a grid-pruned bounded radial histogram.
#[derive(Debug, Clone)]
pub struct GriddedHistogramResult {
    /// The finalized histogram: `bins.bins` buckets over `[0, r_max)`,
    /// overflow discarded.
    pub histogram: Histogram,
    /// Aggregate launch profile.
    pub run: GriddedRun,
}

// ====================================================================
// population-class packing
// ====================================================================

/// Power-of-two population class of a left-slice length (`class_of(x)`
/// = ⌈log2 x⌉, so lengths `(2^(k-1), 2^k]` share class `k`).
fn class_of(left_len: u32) -> u32 {
    left_len.max(1).next_power_of_two().trailing_zeros()
}

/// Pick a block size for one population class: run the analytic planner
/// once at the class's upper-bound population. `choose_plan` only
/// considers block sizes ≤ n, so the class size is clamped to the
/// smallest candidate block — tiny cells simply share minimal blocks.
fn class_block_size(
    dev: &Device,
    class: u32,
    dims: u32,
    dist_cost: u64,
    buckets: Option<u32>,
) -> u32 {
    let class_hi = 1u32 << class.min(30);
    let n = class_hi.max(tbs_core::plan::CANDIDATE_BLOCK_SIZES[0]);
    let output = match buckets {
        None => ProblemOutput::Scalar,
        Some(b) => ProblemOutput::Histogram { buckets: b },
    };
    let p = ProblemSpec {
        n,
        dims,
        dist_cost,
        output,
    };
    choose_plan(&p, dev.config()).block_size
}

/// Segments of one population class, with the class's chosen block
/// size; `blocks` is the total block count at that block size.
struct ClassPlan {
    block_size: u32,
    segments: Vec<PackedSegment>,
    blocks: u64,
}

/// Group cell-pair segments into population classes and plan each class
/// once. Returns classes in ascending class order (deterministic).
fn plan_classes(
    dev: &Device,
    segments: Vec<PackedSegment>,
    dims: u32,
    dist_cost: u64,
    buckets: Option<u32>,
) -> Vec<ClassPlan> {
    let mut by_class: BTreeMap<u32, Vec<PackedSegment>> = BTreeMap::new();
    for s in segments {
        by_class.entry(class_of(s.left_len)).or_default().push(s);
    }
    by_class
        .into_iter()
        .map(|(class, segments)| {
            let block_size = class_block_size(dev, class, dims, dist_cost, buckets);
            let blocks = segments
                .iter()
                .map(|s| num_blocks(s.left_len, block_size) as u64)
                .sum();
            ClassPlan {
                block_size,
                segments,
                blocks,
            }
        })
        .collect()
}

/// Predicted packed launch count for a class plan (chunks capped at
/// [`MAX_PACKED_BLOCKS_PER_LAUNCH`] blocks).
fn class_launches(plan: &ClassPlan) -> u64 {
    plan.blocks
        .div_ceil(MAX_PACKED_BLOCKS_PER_LAUNCH as u64)
        .max(1)
}

/// Chunk one class's segments into launches of at most
/// [`MAX_PACKED_BLOCKS_PER_LAUNCH`] blocks (a single oversized segment
/// still launches alone — the cap bounds buffers, not correctness).
fn class_chunks(plan: &ClassPlan) -> Vec<Vec<PackedSegment>> {
    let mut chunks = Vec::new();
    let mut cur = Vec::new();
    let mut cur_blocks = 0u64;
    for &s in &plan.segments {
        let b = num_blocks(s.left_len, plan.block_size) as u64;
        if !cur.is_empty() && cur_blocks + b > MAX_PACKED_BLOCKS_PER_LAUNCH as u64 {
            chunks.push(std::mem::take(&mut cur));
            cur_blocks = 0;
        }
        cur.push(s);
        cur_blocks += b;
    }
    if !cur.is_empty() {
        chunks.push(cur);
    }
    chunks
}

/// Turn a self-join cell-pair list into packed segments (intra cells
/// with < 2 points carry no pairs and are dropped).
fn self_join_segments<const D: usize>(
    cat: &GriddedCatalog<D>,
    pairs: &[CellPair],
) -> Vec<PackedSegment> {
    pairs
        .iter()
        .filter_map(|p| {
            if p.is_intra() {
                let (start, len) = cat.cell_view(p.a);
                (len >= 2).then(|| PackedSegment::intra(start, len))
            } else {
                let (ls, ll) = cat.cell_view(p.a);
                let (rs, rl) = cat.cell_view(p.b);
                Some(PackedSegment::cross(ls, ll, rs, rl))
            }
        })
        .collect()
}

/// Estimate the packed launch count for a pair population — shared with
/// [`tbs_core::plan::choose_spatial_plan`]'s pricing via
/// [`estimate_packed_launches`].
pub fn planned_packed_launches<const D: usize>(
    dev: &Device,
    cat: &GriddedCatalog<D>,
    pairs: &[CellPair],
    dims: u32,
    dist_cost: u64,
    buckets: Option<u32>,
) -> u64 {
    let segments = self_join_segments(cat, pairs);
    plan_classes(dev, segments, dims, dist_cost, buckets)
        .iter()
        .map(class_launches)
        .sum()
}

// ====================================================================
// packed executors
// ====================================================================

/// Run one packed count sweep over pre-planned classes, reusing `out`
/// (sized for the largest chunk) across launches.
fn packed_count_sweep<const D: usize>(
    dev: &mut Device,
    points: DeviceSoa<D>,
    right: DeviceSoa<D>,
    classes: &[ClassPlan],
    radius: f32,
    run: &mut GriddedRun,
) -> Result<u64, SimError> {
    run.population_classes = classes.len() as u32;
    // One shared buffer sized for the largest launch: the count action
    // *stores* per-thread in `end_block`, so every slot below the
    // launch's thread count is overwritten before the host sums it.
    let max_threads = classes
        .iter()
        .flat_map(|c| {
            class_chunks(c).into_iter().map(move |chunk| {
                chunk
                    .iter()
                    .map(|s| num_blocks(s.left_len, c.block_size) as u64)
                    .sum::<u64>()
                    * c.block_size as u64
            })
        })
        .max()
        .unwrap_or(0);
    let out = dev.alloc_u64_zeroed(max_threads as usize);
    let mut count = 0u64;
    for class in classes {
        for chunk in class_chunks(class) {
            let layout = PackedLayout::new(chunk, class.block_size);
            let lc = layout.launch_config();
            let k = PackedPairKernel::new(
                points,
                right,
                Euclidean,
                CountWithinRadius { radius, out },
                layout,
            );
            let kr = dev.try_launch(&k, lc)?;
            count += dev.u64_slice(out)[..lc.total_threads() as usize]
                .iter()
                .sum::<u64>();
            run.packed_launches += 1;
            run.add_launch(&kr);
        }
    }
    Ok(count)
}

/// Run one packed privatized-histogram sweep over pre-planned classes.
fn packed_histogram_sweep<const D: usize>(
    dev: &mut Device,
    points: DeviceSoa<D>,
    right: DeviceSoa<D>,
    classes: &[ClassPlan],
    bins: RadialBins,
    run: &mut GriddedRun,
) -> Result<Histogram, SimError> {
    run.population_classes = classes.len() as u32;
    let spec = bins.device_spec();
    let max_blocks = classes
        .iter()
        .flat_map(|c| {
            class_chunks(c).into_iter().map(move |chunk| {
                chunk
                    .iter()
                    .map(|s| num_blocks(s.left_len, c.block_size) as u64)
                    .sum::<u64>()
            })
        })
        .max()
        .unwrap_or(0);
    let private = dev.alloc_u32_zeroed((max_blocks.max(1) * spec.buckets as u64) as usize);
    let mut host = vec![0u64; spec.buckets as usize];
    for class in classes {
        for chunk in class_chunks(class) {
            let layout = PackedLayout::new(chunk, class.block_size);
            let lc = layout.launch_config();
            let k = PackedPairKernel::new(
                points,
                right,
                Euclidean,
                SharedHistogramAction { spec, private },
                layout,
            );
            let kr = dev.try_launch(&k, lc)?;
            let copies = &dev.u32_slice(private)[..(lc.grid_dim * spec.buckets) as usize];
            for (i, &c) in copies.iter().enumerate() {
                host[i % spec.buckets as usize] += c as u64;
            }
            run.packed_launches += 1;
            run.add_launch(&kr);
        }
    }
    Ok(bins.finalize(&Histogram::from_counts(host)))
}

// ====================================================================
// public entry points
// ====================================================================

/// Count pairs of `cat` with distance `< radius` on the default
/// (packed) route. `radius` must not exceed the grid's `r_max`.
pub fn gridded_count_within<const D: usize>(
    dev: &mut Device,
    cat: &GriddedCatalog<D>,
    radius: f32,
    plan: PairwisePlan,
) -> Result<GriddedCountResult, SimError> {
    gridded_count_within_routed(dev, cat, radius, plan, GriddedRoute::Packed)
}

/// Count pairs of `cat` with distance `< radius`, visiting only the
/// surviving cell pairs, on an explicit [`GriddedRoute`].
pub fn gridded_count_within_routed<const D: usize>(
    dev: &mut Device,
    cat: &GriddedCatalog<D>,
    radius: f32,
    plan: PairwisePlan,
    route: GriddedRoute,
) -> Result<GriddedCountResult, SimError> {
    dev.scoped(|dev| gridded_count_within_routed_body(dev, cat, radius, plan, route))
}

/// The body of [`gridded_count_within_routed`]: the caller's [`Device::scoped`]
/// frees what it allocates, however it returns.
fn gridded_count_within_routed_body<const D: usize>(
    dev: &mut Device,
    cat: &GriddedCatalog<D>,
    radius: f32,
    plan: PairwisePlan,
    route: GriddedRoute,
) -> Result<GriddedCountResult, SimError> {
    assert!(
        radius <= cat.grid.geom.r_max,
        "count radius {radius} exceeds the grid's r_max {}",
        cat.grid.geom.r_max
    );
    let pairs = candidate_pairs(&cat.grid);
    let stats = prune_stats(&cat.grid, &pairs);
    let mut run = GriddedRun::new(stats);
    let segments = self_join_segments(cat, &pairs);
    let points = cat.device();
    let count = match route {
        GriddedRoute::Packed => {
            let classes = plan_classes(
                dev,
                segments,
                D as u32,
                <Euclidean as DistanceKernel<D>>::cost(&Euclidean),
                None,
            );
            packed_count_sweep(dev, points, points, &classes, radius, &mut run)?
        }
        GriddedRoute::PerCellPair => {
            // One single-segment launch per cell pair — block-for-block
            // the Algorithm-3 / Cross-SHM launch the packed route
            // replaces.
            let b = plan.block_size;
            let max_threads = segments
                .iter()
                .map(|s| num_blocks(s.left_len, b) as u64 * b as u64)
                .max()
                .unwrap_or(0);
            let out = dev.alloc_u64_zeroed(max_threads as usize);
            let mut count = 0u64;
            for s in segments {
                let layout = PackedLayout::new(vec![s], b);
                let lc = layout.launch_config();
                let k = PackedPairKernel::new(
                    points,
                    points,
                    Euclidean,
                    CountWithinRadius { radius, out },
                    layout,
                );
                let kr = dev.try_launch(&k, lc)?;
                count += dev.u64_slice(out)[..lc.total_threads() as usize]
                    .iter()
                    .sum::<u64>();
                if s.intra {
                    run.intra_launches += 1;
                } else {
                    run.cross_launches += 1;
                }
                run.add_launch(&kr);
            }
            count
        }
    };
    Ok(GriddedCountResult { count, run })
}

/// Count pairs of `cat` under **many radii in one packed sweep**: every
/// distance is evaluated once and fed to one count sink per radius (the
/// serve layer's gridded coalescing). All radii must be ≤ the grid's
/// `r_max`; `counts[i]` is bit-identical to
/// [`gridded_count_within`] at `radii[i]`.
pub fn gridded_count_within_multi<const D: usize>(
    dev: &mut Device,
    cat: &GriddedCatalog<D>,
    radii: &[f32],
    _plan: PairwisePlan,
) -> Result<(Vec<u64>, GriddedRun), SimError> {
    dev.scoped(|dev| gridded_count_within_multi_body(dev, cat, radii, _plan))
}

/// The body of [`gridded_count_within_multi`]: the caller's [`Device::scoped`]
/// frees what it allocates, however it returns.
fn gridded_count_within_multi_body<const D: usize>(
    dev: &mut Device,
    cat: &GriddedCatalog<D>,
    radii: &[f32],
    _plan: PairwisePlan,
) -> Result<(Vec<u64>, GriddedRun), SimError> {
    for &r in radii {
        assert!(
            r <= cat.grid.geom.r_max,
            "count radius {r} exceeds the grid's r_max {}",
            cat.grid.geom.r_max
        );
    }
    let pairs = candidate_pairs(&cat.grid);
    let stats = prune_stats(&cat.grid, &pairs);
    let mut run = GriddedRun::new(stats);
    if radii.is_empty() {
        return Ok((Vec::new(), run));
    }
    let segments = self_join_segments(cat, &pairs);
    let points = cat.device();
    let classes = plan_classes(
        dev,
        segments,
        D as u32,
        <Euclidean as DistanceKernel<D>>::cost(&Euclidean),
        None,
    );
    run.population_classes = classes.len() as u32;
    let max_threads = classes
        .iter()
        .flat_map(|c| {
            class_chunks(c).into_iter().map(move |chunk| {
                chunk
                    .iter()
                    .map(|s| num_blocks(s.left_len, c.block_size) as u64)
                    .sum::<u64>()
                    * c.block_size as u64
            })
        })
        .max()
        .unwrap_or(0);
    let outs: Vec<_> = radii
        .iter()
        .map(|_| dev.alloc_u64_zeroed(max_threads as usize))
        .collect();
    let mut counts = vec![0u64; radii.len()];
    for class in &classes {
        for chunk in class_chunks(class) {
            let layout = PackedLayout::new(chunk, class.block_size);
            let lc = layout.launch_config();
            let action = MultiQueryAction {
                counts: radii
                    .iter()
                    .zip(&outs)
                    .map(|(&radius, &out)| MultiCountSink { radius, out })
                    .collect(),
                hists: Vec::new(),
            };
            let k = PackedPairKernel::new(points, points, Euclidean, action, layout);
            let kr = dev.try_launch(&k, lc)?;
            for (c, &out) in counts.iter_mut().zip(&outs) {
                *c += dev.u64_slice(out)[..lc.total_threads() as usize]
                    .iter()
                    .sum::<u64>();
            }
            run.packed_launches += 1;
            run.add_launch(&kr);
        }
    }
    Ok((counts, run))
}

/// Shared per-cell-pair launch loop for self- and cross-pair radial
/// histograms (the packed route's oracle).
fn histogram_per_cell_pair<const D: usize>(
    dev: &mut Device,
    segments: &[PackedSegment],
    left: DeviceSoa<D>,
    right: DeviceSoa<D>,
    bins: RadialBins,
    plan: PairwisePlan,
    run: &mut GriddedRun,
) -> Result<Histogram, SimError> {
    let spec = bins.device_spec();
    let b = plan.block_size;
    let max_blocks = segments
        .iter()
        .map(|s| num_blocks(s.left_len, b) as u64)
        .max()
        .unwrap_or(0);
    let private = dev.alloc_u32_zeroed((max_blocks.max(1) * spec.buckets as u64) as usize);
    let mut host = vec![0u64; spec.buckets as usize];
    for &s in segments {
        let layout = PackedLayout::new(vec![s], b);
        let lc = layout.launch_config();
        let k = PackedPairKernel::new(
            left,
            right,
            Euclidean,
            SharedHistogramAction { spec, private },
            layout,
        );
        let kr = dev.try_launch(&k, lc)?;
        let copies = &dev.u32_slice(private)[..(lc.grid_dim * spec.buckets) as usize];
        for (i, &c) in copies.iter().enumerate() {
            host[i % spec.buckets as usize] += c as u64;
        }
        if s.intra {
            run.intra_launches += 1;
        } else {
            run.cross_launches += 1;
        }
        run.add_launch(&kr);
    }
    Ok(bins.finalize(&Histogram::from_counts(host)))
}

/// Bounded radial histogram (DD- or RR-style self pair counts) of `cat`
/// over `bins` on the default (packed) route. The retained bins are
/// bit-identical to the all-pairs route run with
/// [`RadialBins::device_spec`] and finalized the same way.
pub fn gridded_radial_histogram<const D: usize>(
    dev: &mut Device,
    cat: &GriddedCatalog<D>,
    bins: RadialBins,
    plan: PairwisePlan,
) -> Result<GriddedHistogramResult, SimError> {
    gridded_radial_histogram_routed(dev, cat, bins, plan, GriddedRoute::Packed)
}

/// [`gridded_radial_histogram`] on an explicit route.
pub fn gridded_radial_histogram_routed<const D: usize>(
    dev: &mut Device,
    cat: &GriddedCatalog<D>,
    bins: RadialBins,
    plan: PairwisePlan,
    route: GriddedRoute,
) -> Result<GriddedHistogramResult, SimError> {
    dev.scoped(|dev| gridded_radial_histogram_routed_body(dev, cat, bins, plan, route))
}

/// The body of [`gridded_radial_histogram_routed`]: the caller's [`Device::scoped`]
/// frees what it allocates, however it returns.
fn gridded_radial_histogram_routed_body<const D: usize>(
    dev: &mut Device,
    cat: &GriddedCatalog<D>,
    bins: RadialBins,
    plan: PairwisePlan,
    route: GriddedRoute,
) -> Result<GriddedHistogramResult, SimError> {
    assert!(
        bins.r_max <= cat.grid.geom.r_max,
        "histogram r_max {} exceeds the grid's r_max {}",
        bins.r_max,
        cat.grid.geom.r_max
    );
    let pairs = candidate_pairs(&cat.grid);
    let stats = prune_stats(&cat.grid, &pairs);
    let mut run = GriddedRun::new(stats);
    let segments = self_join_segments(cat, &pairs);
    let points = cat.device();
    let buckets = bins.device_spec().buckets;
    let histogram = match route {
        GriddedRoute::Packed => {
            let classes = plan_classes(
                dev,
                segments,
                D as u32,
                <Euclidean as DistanceKernel<D>>::cost(&Euclidean),
                Some(buckets),
            );
            packed_histogram_sweep(dev, points, points, &classes, bins, &mut run)?
        }
        GriddedRoute::PerCellPair => {
            histogram_per_cell_pair(dev, &segments, points, points, bins, plan, &mut run)?
        }
    };
    Ok(GriddedHistogramResult { histogram, run })
}

/// Bounded radial histogram of *cross* pairs (DR-style: every ordered
/// `left × right` pair counted once) on the default (packed) route.
/// Both catalogs must share a geometry (bin them with one
/// [`GridGeometry::fit`] over both sets).
pub fn gridded_cross_radial_histogram<const D: usize>(
    dev: &mut Device,
    left: &GriddedCatalog<D>,
    right: &GriddedCatalog<D>,
    bins: RadialBins,
    plan: PairwisePlan,
) -> Result<GriddedHistogramResult, SimError> {
    gridded_cross_radial_histogram_routed(dev, left, right, bins, plan, GriddedRoute::Packed)
}

/// [`gridded_cross_radial_histogram`] on an explicit route.
pub fn gridded_cross_radial_histogram_routed<const D: usize>(
    dev: &mut Device,
    left: &GriddedCatalog<D>,
    right: &GriddedCatalog<D>,
    bins: RadialBins,
    plan: PairwisePlan,
    route: GriddedRoute,
) -> Result<GriddedHistogramResult, SimError> {
    dev.scoped(|dev| {
        gridded_cross_radial_histogram_routed_body(dev, left, right, bins, plan, route)
    })
}

/// The body of [`gridded_cross_radial_histogram_routed`]: the caller's [`Device::scoped`]
/// frees what it allocates, however it returns.
fn gridded_cross_radial_histogram_routed_body<const D: usize>(
    dev: &mut Device,
    left: &GriddedCatalog<D>,
    right: &GriddedCatalog<D>,
    bins: RadialBins,
    plan: PairwisePlan,
    route: GriddedRoute,
) -> Result<GriddedHistogramResult, SimError> {
    assert!(
        bins.r_max <= left.grid.geom.r_max,
        "histogram r_max {} exceeds the grid's r_max {}",
        bins.r_max,
        left.grid.geom.r_max
    );
    let pairs = candidate_cross_pairs(&left.grid, &right.grid);
    let stats = cross_prune_stats(&left.grid, &right.grid, &pairs);
    let mut run = GriddedRun::new(stats);
    // Ordered rectangles between two catalogs: never intra, even for
    // equal cell indices.
    let segments: Vec<PackedSegment> = pairs
        .iter()
        .map(|p| {
            let (ls, ll) = left.cell_view(p.a);
            let (rs, rl) = right.cell_view(p.b);
            PackedSegment::cross(ls, ll, rs, rl)
        })
        .collect();
    let buckets = bins.device_spec().buckets;
    let histogram = match route {
        GriddedRoute::Packed => {
            let classes = plan_classes(
                dev,
                segments,
                D as u32,
                <Euclidean as DistanceKernel<D>>::cost(&Euclidean),
                Some(buckets),
            );
            packed_histogram_sweep(dev, left.device(), right.device(), &classes, bins, &mut run)?
        }
        GriddedRoute::PerCellPair => histogram_per_cell_pair(
            dev,
            &segments,
            left.device(),
            right.device(),
            bins,
            plan,
            &mut run,
        )?,
    };
    Ok(GriddedHistogramResult { histogram, run })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcf_gpu;
    use crate::sdh::{sdh_gpu, SdhOutputMode};
    use gpu_sim::DeviceConfig;

    const BOX: f32 = 100.0;

    #[test]
    fn gridded_count_matches_all_pairs_and_cpu() {
        let pts = tbs_datagen::uniform_points::<3>(2048, BOX, 5);
        let plan = PairwisePlan::register_shm(128);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let cat = GriddedCatalog::build_self(
            &mut dev,
            &pts,
            10.0,
            &GridOptions {
                target_points_per_cell: 16,
                max_cells: 1 << 20,
            },
        );
        let got = gridded_count_within(&mut dev, &cat, 10.0, plan).expect("launch");
        let mut dev2 = Device::new(DeviceConfig::titan_x());
        let all = pcf_gpu(&mut dev2, &pts, 10.0, plan).expect("launch");
        assert_eq!(got.count, all.count);
        assert_eq!(got.count, tbs_cpu::pcf_reference(&pts, 10.0));
        assert!(got.run.stats.pruned_fraction() > 0.6, "{:?}", got.run.stats);
        // The point of packing: launches scale with population classes,
        // not cell pairs.
        assert!(got.run.packed_launches > 0);
        assert!(
            (got.run.launches() as u64) < got.run.stats.cell_pairs,
            "{:?}",
            got.run
        );
    }

    #[test]
    fn packed_and_per_cell_pair_routes_are_identical() {
        let pts = tbs_datagen::clustered_points::<3>(1800, BOX, 5, 4.0, 11);
        let plan = PairwisePlan::register_shm(64);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let cat = GriddedCatalog::build_self(
            &mut dev,
            &pts,
            8.0,
            &GridOptions {
                target_points_per_cell: 32,
                max_cells: 1 << 20,
            },
        );
        let packed = gridded_count_within_routed(&mut dev, &cat, 8.0, plan, GriddedRoute::Packed)
            .expect("launch");
        let unpacked =
            gridded_count_within_routed(&mut dev, &cat, 8.0, plan, GriddedRoute::PerCellPair)
                .expect("launch");
        assert_eq!(packed.count, unpacked.count);
        assert!(packed.run.packed_launches > 0);
        assert_eq!(unpacked.run.packed_launches, 0);
        assert!(packed.run.launches() < unpacked.run.launches());
        // Launch budget: within ~10× the population classes.
        assert!(
            packed.run.launches() <= 10 * packed.run.population_classes.max(1),
            "{:?}",
            packed.run
        );
    }

    #[test]
    fn multi_radius_sweep_matches_single_radius_counts() {
        let pts = tbs_datagen::uniform_points::<3>(1500, BOX, 7);
        let plan = PairwisePlan::register_shm(128);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let cat = GriddedCatalog::build_self(
            &mut dev,
            &pts,
            9.0,
            &GridOptions {
                target_points_per_cell: 64,
                max_cells: 1 << 20,
            },
        );
        let radii = [2.5, 9.0, 6.0];
        let (counts, run) =
            gridded_count_within_multi(&mut dev, &cat, &radii, plan).expect("launch");
        for (i, &r) in radii.iter().enumerate() {
            let solo = gridded_count_within(&mut dev, &cat, r, plan).expect("launch");
            assert_eq!(counts[i], solo.count, "radius {r}");
        }
        // The whole multi-radius batch costs the same launches as ONE
        // single-radius sweep.
        assert_eq!(
            run.launches(),
            gridded_count_within(&mut dev, &cat, 9.0, plan)
                .expect("launch")
                .run
                .launches()
        );
    }

    #[test]
    fn gridded_histogram_matches_all_pairs_route() {
        let pts = tbs_datagen::clustered_points::<3>(1536, BOX, 6, 4.0, 9);
        let bins = RadialBins::new(16, 12.0);
        let plan = PairwisePlan::register_shm(128);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let cat = GriddedCatalog::build_self(
            &mut dev,
            &pts,
            12.0,
            &GridOptions {
                target_points_per_cell: 128,
                max_cells: 1 << 20,
            },
        );
        let got = gridded_radial_histogram(&mut dev, &cat, bins, plan).expect("launch");
        let mut dev2 = Device::new(DeviceConfig::titan_x());
        let all = sdh_gpu(
            &mut dev2,
            &pts,
            bins.device_spec(),
            plan,
            SdhOutputMode::Privatized,
        )
        .expect("launch");
        assert_eq!(got.histogram, bins.finalize(&all.histogram));
        assert!(got.run.seconds > 0.0);
        // Route parity on the same catalog.
        let per_pair =
            gridded_radial_histogram_routed(&mut dev, &cat, bins, plan, GriddedRoute::PerCellPair)
                .expect("launch");
        assert_eq!(got.histogram, per_pair.histogram);
    }

    #[test]
    fn gridded_cross_histogram_counts_every_ordered_pair_once() {
        let a = tbs_datagen::uniform_points::<3>(700, BOX, 13);
        let b = tbs_datagen::uniform_points::<3>(900, BOX, 14);
        // r_max ≥ box diagonal: nothing can be pruned, so the histogram
        // total must be exactly |A|·|B|.
        let r = tbs_datagen::box_diagonal(BOX, 3) * 1.01;
        let bins = RadialBins::new(8, r);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let geom = GridGeometry::fit(&[&a, &b], r, &GridOptions::default());
        let ca = GriddedCatalog::build(&mut dev, geom.clone(), &a);
        let cb = GriddedCatalog::build(&mut dev, geom, &b);
        let got = gridded_cross_radial_histogram(
            &mut dev,
            &ca,
            &cb,
            bins,
            PairwisePlan::register_shm(64),
        )
        .expect("launch");
        assert_eq!(got.histogram.total(), 700 * 900);
        // Both routes agree on a pruned cross geometry too.
        let a2 = tbs_datagen::uniform_points::<3>(600, BOX, 15);
        let b2 = tbs_datagen::uniform_points::<3>(800, BOX, 16);
        let bins2 = RadialBins::new(8, 12.0);
        let geom2 = GridGeometry::fit(
            &[&a2, &b2],
            12.0,
            &GridOptions {
                target_points_per_cell: 64,
                max_cells: 1 << 20,
            },
        );
        let ca2 = GriddedCatalog::build(&mut dev, geom2.clone(), &a2);
        let cb2 = GriddedCatalog::build(&mut dev, geom2, &b2);
        let plan = PairwisePlan::register_shm(64);
        let p = gridded_cross_radial_histogram_routed(
            &mut dev,
            &ca2,
            &cb2,
            bins2,
            plan,
            GriddedRoute::Packed,
        )
        .expect("launch");
        let u = gridded_cross_radial_histogram_routed(
            &mut dev,
            &ca2,
            &cb2,
            bins2,
            plan,
            GriddedRoute::PerCellPair,
        )
        .expect("launch");
        assert_eq!(p.histogram, u.histogram);
        assert!(p.run.launches() < u.run.launches());
    }

    #[test]
    fn single_cell_grid_degrades_to_one_launch() {
        let pts = tbs_datagen::uniform_points::<2>(256, BOX, 21);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let cat = GriddedCatalog::build_self(&mut dev, &pts, BOX * 2.0, &GridOptions::default());
        assert_eq!(cat.grid.geom.num_cells(), 1);
        let got = gridded_count_within(&mut dev, &cat, 30.0, PairwisePlan::register_shm(64))
            .expect("launch");
        assert_eq!(got.run.launches(), 1);
        assert_eq!(got.count, tbs_cpu::pcf_reference(&pts, 30.0));
    }

    #[test]
    fn empty_catalog_is_a_noop() {
        let pts = SoaPoints::<3>::new();
        let mut dev = Device::new(DeviceConfig::titan_x());
        let cat = GriddedCatalog::build_self(&mut dev, &pts, 1.0, &GridOptions::default());
        let got = gridded_count_within(&mut dev, &cat, 1.0, PairwisePlan::register_shm(64))
            .expect("launch");
        assert_eq!(got.count, 0);
        assert_eq!(got.run.launches(), 0);
        let (counts, _) =
            gridded_count_within_multi(&mut dev, &cat, &[1.0], PairwisePlan::register_shm(64))
                .expect("launch");
        assert_eq!(counts, vec![0]);
    }

    #[test]
    fn catalog_uploads_once_not_per_cell() {
        // Single-SoA upload: exactly one contiguous buffer per axis
        // (3 × n × 4 bytes for 3-D data), regardless of cell count.
        let pts = tbs_datagen::uniform_points::<3>(4096, BOX, 3);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let before = dev.allocated_bytes();
        let cat = GriddedCatalog::build_self(
            &mut dev,
            &pts,
            5.0,
            &GridOptions {
                target_points_per_cell: 16,
                max_cells: 1 << 20,
            },
        );
        let after = dev.allocated_bytes();
        assert!(cat.grid.occupied_cells().count() > 10);
        assert_eq!(after - before, 3 * 4096 * 4, "one upload per axis");
        assert_eq!(cat.device().n, 4096);
    }
}
