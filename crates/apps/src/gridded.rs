//! The grid-pruned executor: lowers the surviving cell pairs of a
//! [`tbs_core::grid::UniformGrid`] onto the paper's tiled kernels.
//!
//! The surviving cell pairs become [`PackedSegment`] descriptors,
//! grouped into *population classes* (power-of-two buckets of the
//! left-slice length), with one [`tbs_core::plan::choose_plan`] call per
//! class picking the class's block size. Each class runs as a handful of
//! [`PackedPairKernel`] launches (capped at
//! [`MAX_PACKED_BLOCKS_PER_LAUNCH`] blocks each), so a gridded sweep
//! costs O(population classes) launches instead of O(cell pairs). Every
//! entry point runs through one launch loop (`packed_sweep`) driving a
//! [`MultiQueryAction`] — its count sinks and histogram sinks are the
//! entry point's outputs — and supplies only the sink list.
//!
//! The catalog itself is uploaded **once** as a single device SoA in
//! CSR cell order; every cell is a `(start, len)` view into it, so
//! building a catalog costs `D` uploads total instead of `D` per
//! non-empty cell.
//!
//! A sweep reuses one device output buffer per sink across every
//! launch — count sinks and privatized histogram sinks *store* (not
//! accumulate) their per-thread or per-block regions in `end_block`, so
//! a single buffer sized for the largest launch serves them all, with
//! the host merging after each launch.
//!
//! The bit-identity contract (packed == all-pairs == the CPU grid
//! oracle, exactly) is argued in [`tbs_core::grid`] and
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
use tbs_core::output::{MultiCountSink, MultiHistSink, MultiQueryAction};
use tbs_core::plan::{choose_plan, ProblemOutput, ProblemSpec};
use tbs_core::point::{DeviceSoa, SoaPoints};

pub use tbs_core::plan::{
    estimate_packed_launches, MAX_PACKED_BLOCKS_PER_LAUNCH, PACKED_CLASS_ESTIMATE,
};

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
    /// Segmented multi-cell-pair launches.
    pub packed_launches: u32,
    /// Population classes the sweep planned.
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
        self.packed_launches
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

/// Chunk one class's segments into launch layouts of at most
/// [`MAX_PACKED_BLOCKS_PER_LAUNCH`] blocks (a single oversized segment
/// still launches alone — the cap bounds buffers, not correctness).
fn class_chunks(plan: &ClassPlan) -> Vec<PackedLayout> {
    let mut chunks = Vec::new();
    let mut cur = Vec::new();
    let mut cur_blocks = 0u64;
    for &s in &plan.segments {
        let b = num_blocks(s.left_len, plan.block_size) as u64;
        if !cur.is_empty() && cur_blocks + b > MAX_PACKED_BLOCKS_PER_LAUNCH as u64 {
            chunks.push(PackedLayout::new(std::mem::take(&mut cur), plan.block_size));
            cur_blocks = 0;
        }
        cur.push(s);
        cur_blocks += b;
    }
    if !cur.is_empty() {
        chunks.push(PackedLayout::new(cur, plan.block_size));
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
// the packed sweep
// ====================================================================

/// The largest launch of a sweep, in blocks and in threads (the two
/// maxima may come from different launches): what its reused output
/// buffers are sized for.
#[derive(Debug, Clone, Copy)]
struct SweepBounds {
    blocks: u64,
    threads: u64,
}

/// What a packed sweep's folds accumulate: one count per count sink and
/// one histogram per histogram sink of its [`MultiQueryAction`].
struct SweepTotals {
    counts: Vec<u64>,
    hists: Vec<Vec<u64>>,
}

/// The one launch loop behind every gridded entry point. Plans the
/// population classes of `segments` (`buckets` is a histogram sweep's
/// bucket count), chunks each class once, lets `action` allocate the
/// sink buffers for the largest launch, then launches every chunk in
/// class order and folds its output into the returned totals and its
/// profile into `run`. Every slot a launch's fold reads was written by
/// that launch (see the module doc on buffer reuse).
fn packed_sweep<const D: usize>(
    dev: &mut Device,
    left: DeviceSoa<D>,
    right: DeviceSoa<D>,
    segments: Vec<PackedSegment>,
    buckets: Option<u32>,
    run: &mut GriddedRun,
    action: impl FnOnce(&mut Device, SweepBounds) -> MultiQueryAction,
) -> Result<SweepTotals, SimError> {
    let dist_cost = <Euclidean as DistanceKernel<D>>::cost(&Euclidean);
    let classes = plan_classes(dev, segments, D as u32, dist_cost, buckets);
    run.population_classes = classes.len() as u32;
    let layouts: Vec<PackedLayout> = classes.iter().flat_map(class_chunks).collect();
    let bounds = SweepBounds {
        blocks: layouts
            .iter()
            .map(|l| l.num_blocks() as u64)
            .max()
            .unwrap_or(0),
        threads: layouts
            .iter()
            .map(|l| l.launch_config().total_threads())
            .max()
            .unwrap_or(0),
    };
    let action = action(dev, bounds);
    let mut totals = SweepTotals {
        counts: vec![0; action.counts.len()],
        hists: action
            .hists
            .iter()
            .map(|hs| vec![0; hs.spec.buckets as usize])
            .collect(),
    };
    for layout in layouts {
        let lc = layout.launch_config();
        let k = PackedPairKernel::new(left, right, Euclidean, action.clone(), layout);
        let kr = dev.try_launch(&k, lc)?;
        for (c, sink) in totals.counts.iter_mut().zip(&action.counts) {
            *c += dev.u64_slice(sink.out)[..lc.total_threads() as usize]
                .iter()
                .sum::<u64>();
        }
        for (h, sink) in totals.hists.iter_mut().zip(&action.hists) {
            let b = sink.spec.buckets as usize;
            for (i, &c) in dev.u32_slice(sink.private)[..lc.grid_dim as usize * b]
                .iter()
                .enumerate()
            {
                h[i % b] += c as u64;
            }
        }
        run.packed_launches += 1;
        run.add_launch(&kr);
    }
    Ok(totals)
}

// ====================================================================
// public entry points
// ====================================================================

/// The packed segments of a self-join sweep over `cat`, and a run
/// holding the enumeration's pruning stats.
fn self_join_work<const D: usize>(cat: &GriddedCatalog<D>) -> (Vec<PackedSegment>, GriddedRun) {
    let pairs = candidate_pairs(&cat.grid);
    let run = GriddedRun::new(prune_stats(&cat.grid, &pairs));
    (self_join_segments(cat, &pairs), run)
}

/// Count pairs of `cat` with distance `< radius`, visiting only the
/// surviving cell pairs: the one-radius case of
/// [`gridded_count_within_multi`]. `radius` must not exceed the grid's
/// `r_max`. `_plan` is ignored: each population class plans its own
/// block size.
pub fn gridded_count_within<const D: usize>(
    dev: &mut Device,
    cat: &GriddedCatalog<D>,
    radius: f32,
    _plan: PairwisePlan,
) -> Result<GriddedCountResult, SimError> {
    let (counts, run) = gridded_count_within_multi(dev, cat, &[radius], _plan)?;
    Ok(GriddedCountResult {
        count: counts[0],
        run,
    })
}

/// Count pairs of `cat` under **many radii in one packed sweep**: every
/// distance is evaluated once and fed to one count sink per radius (the
/// serve layer's gridded coalescing). All radii must be ≤ the grid's
/// `r_max`; `counts[i]` is bit-identical to
/// [`gridded_count_within`] at `radii[i]`. `_plan` is ignored.
pub fn gridded_count_within_multi<const D: usize>(
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
    let (segments, mut run) = self_join_work(cat);
    if radii.is_empty() {
        return Ok((Vec::new(), run));
    }
    let points = cat.device();
    let totals = dev.scoped(|dev| {
        packed_sweep(dev, points, points, segments, None, &mut run, |dev, max| {
            MultiQueryAction {
                counts: radii
                    .iter()
                    .map(|&radius| MultiCountSink {
                        radius,
                        out: dev.alloc_u64_zeroed(max.threads as usize),
                    })
                    .collect(),
                hists: Vec::new(),
            }
        })
    })?;
    Ok((totals.counts, run))
}

/// A packed privatized-histogram sweep over `segments`, finalized to
/// `bins` (overflow discarded).
fn histogram_sweep<const D: usize>(
    dev: &mut Device,
    left: DeviceSoa<D>,
    right: DeviceSoa<D>,
    segments: Vec<PackedSegment>,
    bins: RadialBins,
    run: &mut GriddedRun,
) -> Result<Histogram, SimError> {
    let spec = bins.device_spec();
    let mut totals = dev.scoped(|dev| {
        packed_sweep(
            dev,
            left,
            right,
            segments,
            Some(spec.buckets),
            run,
            |dev, max| MultiQueryAction {
                counts: Vec::new(),
                hists: vec![MultiHistSink {
                    spec,
                    private: dev
                        .alloc_u32_zeroed((max.blocks.max(1) * spec.buckets as u64) as usize),
                }],
            },
        )
    })?;
    Ok(bins.finalize(&Histogram::from_counts(totals.hists.remove(0))))
}

/// Bounded radial histogram (DD- or RR-style self pair counts) of `cat`
/// over `bins`. The retained bins are bit-identical to the all-pairs
/// route run with [`RadialBins::device_spec`] and finalized the same
/// way. `_plan` is ignored: each population class plans its own block
/// size.
pub fn gridded_radial_histogram<const D: usize>(
    dev: &mut Device,
    cat: &GriddedCatalog<D>,
    bins: RadialBins,
    _plan: PairwisePlan,
) -> Result<GriddedHistogramResult, SimError> {
    assert!(
        bins.r_max <= cat.grid.geom.r_max,
        "histogram r_max {} exceeds the grid's r_max {}",
        bins.r_max,
        cat.grid.geom.r_max
    );
    let (segments, mut run) = self_join_work(cat);
    let points = cat.device();
    let histogram = histogram_sweep(dev, points, points, segments, bins, &mut run)?;
    Ok(GriddedHistogramResult { histogram, run })
}

/// Bounded radial histogram of *cross* pairs (DR-style: every ordered
/// `left × right` pair counted once). Both catalogs must share a
/// geometry (bin them with one [`GridGeometry::fit`] over both sets).
/// `_plan` is ignored: each population class plans its own block size.
pub fn gridded_cross_radial_histogram<const D: usize>(
    dev: &mut Device,
    left: &GriddedCatalog<D>,
    right: &GriddedCatalog<D>,
    bins: RadialBins,
    _plan: PairwisePlan,
) -> Result<GriddedHistogramResult, SimError> {
    assert!(
        bins.r_max <= left.grid.geom.r_max,
        "histogram r_max {} exceeds the grid's r_max {}",
        bins.r_max,
        left.grid.geom.r_max
    );
    let pairs = candidate_cross_pairs(&left.grid, &right.grid);
    let mut run = GriddedRun::new(cross_prune_stats(&left.grid, &right.grid, &pairs));
    // Ordered rectangles between two catalogs: never intra, even for
    // equal cell indices.
    let segments = pairs
        .iter()
        .map(|p| {
            let (ls, ll) = left.cell_view(p.a);
            let (rs, rl) = right.cell_view(p.b);
            PackedSegment::cross(ls, ll, rs, rl)
        })
        .collect();
    let histogram = histogram_sweep(dev, left.device(), right.device(), segments, bins, &mut run)?;
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
    fn packed_count_matches_all_pairs_in_few_launches() {
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
        let packed = gridded_count_within(&mut dev, &cat, 8.0, plan).expect("launch");
        let mut dev2 = Device::new(DeviceConfig::titan_x());
        let all = pcf_gpu(&mut dev2, &pts, 8.0, plan).expect("launch");
        assert_eq!(packed.count, all.count);
        assert!(packed.run.packed_launches > 0);
        // Fewer launches than one per non-empty cell pair.
        let segments = self_join_segments(&cat, &candidate_pairs(&cat.grid));
        assert!((packed.run.launches() as usize) < segments.len());
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
        // A pruned cross geometry bins exactly what the CPU union
        // identity does, in fewer launches than cell pairs.
        let a2 = tbs_datagen::uniform_points::<3>(600, BOX, 15);
        let b2 = tbs_datagen::uniform_points::<3>(800, BOX, 16);
        let bins2 = RadialBins::new(8, 12.0);
        let opts2 = GridOptions {
            target_points_per_cell: 64,
            max_cells: 1 << 20,
        };
        let geom2 = GridGeometry::fit(&[&a2, &b2], 12.0, &opts2);
        let ca2 = GriddedCatalog::build(&mut dev, geom2.clone(), &a2);
        let cb2 = GriddedCatalog::build(&mut dev, geom2, &b2);
        let p = gridded_cross_radial_histogram(
            &mut dev,
            &ca2,
            &cb2,
            bins2,
            PairwisePlan::register_shm(64),
        )
        .expect("launch");
        assert!(p.run.stats.pruned_fraction() > 0.3, "{:?}", p.run.stats);
        assert_eq!(
            p.histogram,
            tbs_cpu::grid_cross_radial_reference(&a2, &b2, bins2, &opts2)
        );
        let cell_pairs = candidate_cross_pairs(&ca2.grid, &cb2.grid).len();
        assert!((p.run.launches() as usize) < cell_pairs);
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
