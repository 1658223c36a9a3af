//! Uniform-grid spatial decomposition — the sub-quadratic front end.
//!
//! Every kernel in this crate is all-pairs O(N²). The production
//! pair-counting toolkits the roadmap names (CUTE, FCFC) win at large N
//! by binning points into a uniform grid sized from the largest radius
//! of interest and *skipping every cell pair whose minimum separation
//! exceeds that radius*: for r_max ≪ box, almost all of the N²/2 pairs
//! are provably beyond range and never evaluated. The surviving cell
//! pairs are then handed to the paper's tiled kernels unchanged — the
//! intra-cell triangle through the regular `HalfPairs` path, inter-cell
//! rectangles through [`crate::kernels::CrossShmKernel`] — so the whole
//! op-by-op / compiled route pair and its bit-identity
//! contract apply *per cell pair* exactly as they do to a monolithic
//! launch.
//!
//! ## The exactness contract
//!
//! Pruning must be invisible in the outputs: grid-pruned pair counts
//! and bounded histograms are **bit-identical** to the all-pairs route.
//! Three properties make that hold (argued in DESIGN.md §"Spatial
//! pruning front end" and enforced by `core/tests/grid_identity.rs`):
//!
//! 1. **No qualifying pair is culled.** A cell pair is skipped only
//!    when the minimum gap between the two cells is at least
//!    `r_cull = r_max · (1 + R_CULL_MARGIN)`. The margin strictly
//!    dominates every rounding source between "true separation" and the
//!    f32 distance the kernels compute (cell assignment happens in f64;
//!    the compiled and op-by-op Euclidean chain is within a few ulp of exact),
//!    so any pair whose *computed* distance is `< r_max` lives in a
//!    surviving cell pair.
//! 2. **No pair is double-counted.** Intra-cell pairs run once through
//!    the triangular `HalfPairs` path; inter-cell pairs are enumerated
//!    over a lexicographically-forward stencil, so each unordered cell
//!    pair `{a, b}` appears exactly once.
//! 3. **Out-of-range pairs cannot leak into bounded outputs.** A pair
//!    evaluated by one route but culled by the other necessarily has
//!    computed distance `≥ r_max`; counts use a strict `< radius ≤
//!    r_max` predicate and [`RadialBins`] histograms shunt everything
//!    `≥ r_max` into a discarded overflow bucket, so such pairs
//!    contribute to neither route's retained output.
//!
//! Integer outputs (u64 counts, u32/u64 bucket counts) are
//! order-insensitive, so "same multiset of contributing pairs" is
//! already bit-identity; no floating-point accumulation crosses a cell
//! pair boundary.

use crate::histogram::{Histogram, HistogramSpec};
use crate::point::SoaPoints;

/// Relative safety margin on the culling radius: a cell pair is pruned
/// only when its minimum gap is ≥ `r_max * (1 + R_CULL_MARGIN)`. The
/// margin (10⁻⁵) exceeds the worst-case relative error of the f32
/// fused-multiply-add distance chain (~7·10⁻⁷ for D ≤ 8) plus the f64
/// cell-assignment rounding (~10⁻¹⁵) by more than an order of
/// magnitude, so culling can only ever drop pairs whose computed
/// distance is strictly above `r_max`. Costs nothing in practice: gaps
/// come in multiples of the cell edge, which the sizing rule keeps
/// ≥ `r_cull`.
pub const R_CULL_MARGIN: f64 = 1e-5;

/// Tuning knobs for grid construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridOptions {
    /// Soft lower bound on the average occupancy of a cell. Smaller
    /// cells prune more pairs but multiply cell pairs, each a packed
    /// segment with its own overhead; the sizing rule refuses to create
    /// more than ~`n / target_points_per_cell` cells.
    pub target_points_per_cell: u32,
    /// Hard cap on total cells (memory guard for adversarial
    /// `r_max / extent` ratios).
    pub max_cells: u32,
}

impl Default for GridOptions {
    fn default() -> Self {
        GridOptions {
            // ~2 blocks of paper-default work per cell pair, chosen when
            // every cell pair paid its own launch. Packing removed that
            // cost and the value has not been re-measured since
            // (ROADMAP item 6).
            target_points_per_cell: 512,
            max_cells: 1 << 20,
        }
    }
}

/// The geometry of a uniform grid: a box partitioned into
/// `dims[0] × … × dims[D-1]` cells of per-axis edge `edge[d]`
/// (f64 — cell assignment and culling arithmetic run in f64 so their
/// rounding is negligible next to [`R_CULL_MARGIN`]).
///
/// Two point sets binned with the *same* `GridGeometry` (see
/// [`GridGeometry::fit`] over multiple sets) share cell indices, which
/// is what makes bipartite (DR-style) pruning valid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridGeometry<const D: usize> {
    /// Lower corner of the covered box.
    pub origin: [f32; D],
    /// Per-axis cell edge length.
    pub edge: [f64; D],
    /// Cells per axis (≥ 1).
    pub dims: [u32; D],
    /// The radius the grid was sized for.
    pub r_max: f32,
    /// Effective culling radius `r_max · (1 + R_CULL_MARGIN)`.
    pub r_cull: f64,
}

impl<const D: usize> GridGeometry<D> {
    /// Fit a grid over the union bounding box of `sets`, sized for
    /// `r_max`: per axis, the largest cell count whose edge stays
    /// ≥ `r_cull`, clamped so average occupancy respects
    /// `opts.target_points_per_cell` and the total respects
    /// `opts.max_cells`. Degenerate inputs (empty sets, zero extent,
    /// `r_max` ≥ extent) collapse to a single cell on the affected
    /// axes — the grid then degrades gracefully toward the all-pairs
    /// launch it replaces.
    pub fn fit(sets: &[&SoaPoints<D>], r_max: f32, opts: &GridOptions) -> Self {
        assert!(r_max > 0.0 && r_max.is_finite(), "r_max must be positive");
        let n: usize = sets.iter().map(|s| s.len()).sum();
        let mut lo = [f32::INFINITY; D];
        let mut hi = [f32::NEG_INFINITY; D];
        for s in sets {
            for d in 0..D {
                for &x in s.coord(d) {
                    assert!(x.is_finite(), "grid input coordinates must be finite");
                    lo[d] = lo[d].min(x);
                    hi[d] = hi[d].max(x);
                }
            }
        }
        if n == 0 {
            (lo, hi) = ([0.0; D], [0.0; D]);
        }
        let r_cull = r_max as f64 * (1.0 + R_CULL_MARGIN);
        // Radius rule: per axis, the most cells whose edge stays
        // ≥ r_cull (so the stencil reach is 1 on every subdivided
        // axis).
        let mut dims = [1u64; D];
        for d in 0..D {
            let extent = (hi[d] - lo[d]) as f64;
            let by_radius = if extent > 0.0 {
                (extent / r_cull).floor() as u64
            } else {
                0
            };
            dims[d] = by_radius.max(1);
        }
        // Occupancy + memory clamp on the *total* cell count (at most
        // ~n / target cells, and never more than max_cells), spent
        // where it matters: repeatedly halve the widest axis until the
        // budget holds. Degenerate axes (dims == 1) cost nothing, so
        // anisotropic data keeps its resolution on the axes that have
        // extent.
        let target = opts.target_points_per_cell.max(1) as u64;
        let budget = (n as u64 / target).max(1).min(opts.max_cells.max(1) as u64);
        // Saturating: per-axis counts reach extent / r_cull, whose plain
        // product overflows u64 past ~2.6e6 per axis in 3-D.
        while dims.iter().fold(1u64, |p, &c| p.saturating_mul(c)) > budget {
            let widest = (0..D).max_by_key(|&d| dims[d]).unwrap();
            if dims[widest] == 1 {
                break;
            }
            dims[widest] = dims[widest].div_ceil(2);
        }
        let mut dims = dims.map(|c| c as u32);
        let mut edge = [0f64; D];
        for d in 0..D {
            let extent = (hi[d] - lo[d]) as f64;
            // f64 division can nudge the edge a hair under r_cull when
            // extent/r_cull is near-integral; back off until the sizing
            // invariant `edge ≥ r_cull` holds (or the axis is one cell).
            while dims[d] > 1 && extent / (dims[d] as f64) < r_cull {
                dims[d] -= 1;
            }
            edge[d] = if extent > 0.0 {
                extent / dims[d] as f64
            } else {
                1.0
            };
        }
        GridGeometry {
            origin: lo,
            edge,
            dims,
            r_max,
            r_cull,
        }
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.dims.iter().map(|&d| d as usize).product()
    }

    /// Row-major index of the cell containing `p` (clamped into the
    /// grid, so points on the upper boundary bin into the last cell).
    pub fn cell_of(&self, p: [f32; D]) -> usize {
        let mut idx = 0usize;
        for (d, &x) in p.iter().enumerate() {
            let rel = (x as f64 - self.origin[d] as f64) / self.edge[d];
            let i = (rel.floor() as i64).clamp(0, self.dims[d] as i64 - 1) as usize;
            idx = idx * self.dims[d] as usize + i;
        }
        idx
    }

    /// Per-axis coordinates of a row-major cell index.
    pub fn cell_coords(&self, mut idx: usize) -> [u32; D] {
        let mut c = [0u32; D];
        for d in (0..D).rev() {
            c[d] = (idx % self.dims[d] as usize) as u32;
            idx /= self.dims[d] as usize;
        }
        c
    }

    /// Squared minimum separation between two cells at per-axis index
    /// offset `off`: adjacent or overlapping axes contribute zero, an
    /// axis `k ≥ 2` apart contributes `((k-1)·edge)²`.
    pub fn min_gap_sq(&self, off: &[i64; D]) -> f64 {
        let mut s = 0.0;
        for (d, &o) in off.iter().enumerate() {
            let gap_cells = (o.abs() - 1).max(0) as f64;
            let g = gap_cells * self.edge[d];
            s += g * g;
        }
        s
    }

    /// True when a cell pair at offset `off` is provably out of range
    /// (minimum separation ≥ `r_cull`) and may be pruned.
    pub fn culled(&self, off: &[i64; D]) -> bool {
        self.min_gap_sq(off) >= self.r_cull * self.r_cull
    }

    /// Per-axis stencil reach: how many cells away a neighbor can be
    /// and still contain in-range points. With the sizing invariant
    /// `edge ≥ r_cull` this is 1 (the 3^D stencil); it widens only on
    /// axes collapsed below `r_cull` by the occupancy clamp or a
    /// degenerate extent.
    pub fn reach(&self) -> [i64; D] {
        std::array::from_fn(|d| {
            if self.dims[d] == 1 {
                0
            } else {
                ((self.r_cull / self.edge[d]).ceil() as i64).clamp(1, self.dims[d] as i64 - 1)
            }
        })
    }

    /// All in-range neighbor offsets that are lexicographically
    /// *forward* (first nonzero component positive): visiting each
    /// cell's forward neighbors enumerates every unordered cell pair
    /// exactly once — the symmetry/dedup rule of the front end.
    pub fn forward_stencil(&self) -> Vec<[i64; D]> {
        self.stencil(true)
    }

    /// All in-range neighbor offsets including zero and backward ones —
    /// the bipartite stencil, where (data cell, random cell) pairs are
    /// ordered and every ordered pair must appear once.
    pub fn full_stencil(&self) -> Vec<[i64; D]> {
        self.stencil(false)
    }

    fn stencil(&self, forward_only: bool) -> Vec<[i64; D]> {
        let reach = self.reach();
        let mut out = Vec::new();
        let mut off = [0i64; D];
        for d in 0..D {
            off[d] = -reach[d];
        }
        loop {
            let fwd = off.iter().find(|&&o| o != 0).is_none_or(|&o| o > 0);
            let include = if forward_only {
                fwd && off != [0i64; D]
            } else {
                true
            };
            if include && !self.culled(&off) {
                out.push(off);
            }
            // Odometer increment over [-reach, reach]^D.
            let mut d = D;
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                if off[d] < reach[d] {
                    off[d] += 1;
                    break;
                }
                off[d] = -reach[d];
            }
        }
    }

    /// Apply offset `off` to cell `idx`; `None` when it leaves the grid.
    pub fn neighbor(&self, idx: usize, off: &[i64; D]) -> Option<usize> {
        let c = self.cell_coords(idx);
        let mut out = 0usize;
        for d in 0..D {
            let i = c[d] as i64 + off[d];
            if i < 0 || i >= self.dims[d] as i64 {
                return None;
            }
            out = out * self.dims[d] as usize + i as usize;
        }
        Some(out)
    }
}

/// A point set binned into a [`GridGeometry`]: points reordered
/// cell-by-cell (CSR layout) so each cell is a contiguous slice ready
/// for upload as its own kernel input.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformGrid<const D: usize> {
    /// The shared geometry.
    pub geom: GridGeometry<D>,
    /// Points reordered so cell `c` owns `points[cell_start[c] ..
    /// cell_start[c+1]]`.
    pub points: SoaPoints<D>,
    /// `perm[i]` is the original index of reordered point `i`.
    pub perm: Vec<u32>,
    /// CSR cell offsets, length `num_cells() + 1`.
    pub cell_start: Vec<u32>,
}

impl<const D: usize> UniformGrid<D> {
    /// Bin `pts` into an existing geometry (counting sort: one pass to
    /// count, prefix-sum, one pass to scatter — O(N + cells)).
    pub fn bin(geom: GridGeometry<D>, pts: &SoaPoints<D>) -> Self {
        let n = pts.len();
        let cells = geom.num_cells();
        let mut counts = vec![0u32; cells + 1];
        let cell_idx: Vec<u32> = (0..n)
            .map(|i| {
                let c = geom.cell_of(pts.point(i)) as u32;
                counts[c as usize + 1] += 1;
                c
            })
            .collect();
        for c in 0..cells {
            counts[c + 1] += counts[c];
        }
        let cell_start = counts.clone();
        let mut perm = vec![0u32; n];
        let mut cursor = counts;
        for (i, &c) in cell_idx.iter().enumerate() {
            let slot = cursor[c as usize];
            cursor[c as usize] += 1;
            perm[slot as usize] = i as u32;
        }
        let mut points = SoaPoints::with_capacity(n);
        for &src in &perm {
            points.push(pts.point(src as usize));
        }
        UniformGrid {
            geom,
            points,
            perm,
            cell_start,
        }
    }

    /// Build geometry and bin in one step (the self-join entry point).
    pub fn build(pts: &SoaPoints<D>, r_max: f32, opts: &GridOptions) -> Self {
        Self::bin(GridGeometry::fit(&[pts], r_max, opts), pts)
    }

    /// Number of points in cell `c`.
    pub fn cell_len(&self, c: usize) -> u32 {
        self.cell_start[c + 1] - self.cell_start[c]
    }

    /// The reordered-point index range of cell `c`.
    pub fn cell_range(&self, c: usize) -> std::ops::Range<usize> {
        self.cell_start[c] as usize..self.cell_start[c + 1] as usize
    }

    /// Indices of non-empty cells.
    pub fn occupied_cells(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.geom.num_cells()).filter(|&c| self.cell_len(c) > 0)
    }
}

/// One surviving cell pair: `a == b` is the triangular intra-cell case,
/// `a != b` the rectangular inter-cell case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellPair {
    pub a: u32,
    pub b: u32,
}

impl CellPair {
    /// Intra-cell (triangular) pair?
    pub fn is_intra(&self) -> bool {
        self.a == self.b
    }
}

/// Enumerate the surviving cell pairs of a self-join: every non-empty
/// cell once against itself (intra), plus each unordered pair of
/// distinct non-empty cells within culling range once (forward
/// stencil).
pub fn candidate_pairs<const D: usize>(grid: &UniformGrid<D>) -> Vec<CellPair> {
    let stencil = grid.geom.forward_stencil();
    let mut out = Vec::new();
    for a in grid.occupied_cells() {
        out.push(CellPair {
            a: a as u32,
            b: a as u32,
        });
        for off in &stencil {
            if let Some(b) = grid.geom.neighbor(a, off) {
                if grid.cell_len(b) > 0 {
                    out.push(CellPair {
                        a: a as u32,
                        b: b as u32,
                    });
                }
            }
        }
    }
    out
}

/// Enumerate surviving *ordered* cell pairs of a bipartite join
/// (`left` cell × `right` cell, full stencil). Both grids must share a
/// geometry — bin both sets with one [`GridGeometry::fit`] over both.
pub fn candidate_cross_pairs<const D: usize>(
    left: &UniformGrid<D>,
    right: &UniformGrid<D>,
) -> Vec<CellPair> {
    assert_eq!(
        left.geom, right.geom,
        "bipartite pruning requires a shared grid geometry"
    );
    let stencil = left.geom.full_stencil();
    let mut out = Vec::new();
    for a in left.occupied_cells() {
        for off in &stencil {
            if let Some(b) = left.geom.neighbor(a, off) {
                if right.cell_len(b) > 0 {
                    out.push(CellPair {
                        a: a as u32,
                        b: b as u32,
                    });
                }
            }
        }
    }
    out
}

/// Closed-form pruning accounting for a set of candidate pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneStats {
    /// Points in the (left) set.
    pub n: u64,
    /// Total cells and non-empty cells.
    pub cells: u64,
    pub occupied_cells: u64,
    /// Surviving cell pairs (intra + inter, as enumerated).
    pub cell_pairs: u64,
    /// Point pairs the pruned route will evaluate.
    pub candidate_point_pairs: u64,
    /// Point pairs the all-pairs route evaluates.
    pub total_point_pairs: u64,
}

impl PruneStats {
    /// Fraction of all-pairs work the grid provably skips.
    pub fn pruned_fraction(&self) -> f64 {
        if self.total_point_pairs == 0 {
            0.0
        } else {
            1.0 - self.candidate_point_pairs as f64 / self.total_point_pairs as f64
        }
    }
}

/// Pruning statistics of a self-join.
pub fn prune_stats<const D: usize>(grid: &UniformGrid<D>, pairs: &[CellPair]) -> PruneStats {
    let n = grid.points.len() as u64;
    let candidate = pairs
        .iter()
        .map(|p| {
            let (ca, cb) = (
                grid.cell_len(p.a as usize) as u64,
                grid.cell_len(p.b as usize) as u64,
            );
            if p.is_intra() {
                ca * (ca - 1) / 2
            } else {
                ca * cb
            }
        })
        .sum();
    PruneStats {
        n,
        cells: grid.geom.num_cells() as u64,
        occupied_cells: grid.occupied_cells().count() as u64,
        cell_pairs: pairs.len() as u64,
        candidate_point_pairs: candidate,
        total_point_pairs: n * n.saturating_sub(1) / 2,
    }
}

/// Pruning statistics of a bipartite join (`total` = |L|·|R| ordered
/// pairs; the executor evaluates each ordered candidate once).
pub fn cross_prune_stats<const D: usize>(
    left: &UniformGrid<D>,
    right: &UniformGrid<D>,
    pairs: &[CellPair],
) -> PruneStats {
    let (nl, nr) = (left.points.len() as u64, right.points.len() as u64);
    let candidate = pairs
        .iter()
        .map(|p| left.cell_len(p.a as usize) as u64 * right.cell_len(p.b as usize) as u64)
        .sum();
    PruneStats {
        n: nl,
        cells: left.geom.num_cells() as u64,
        occupied_cells: left.occupied_cells().count() as u64,
        cell_pairs: pairs.len() as u64,
        candidate_point_pairs: candidate,
        total_point_pairs: nl * nr,
    }
}

// ====================================================================
// Bounded radial histograms — the pruning-compatible Type-II contract
// ====================================================================

/// A bounded distance histogram: `bins` equal-width bins covering
/// `[0, r_max)`, with everything at or beyond `r_max` *discarded*
/// rather than clamped (the cosmology pair-count convention — DD(r) in
/// radial bins).
///
/// The device kernels keep the framework's clamp-into-last-bucket
/// semantics untouched: [`RadialBins::device_spec`] appends one
/// overflow bucket past `r_max`, every out-of-range pair lands there
/// (on either route — see the module docs for why no in-range bucket
/// can absorb a pair the grid culls), and [`RadialBins::finalize`]
/// drops it. The retained `bins` buckets are bit-identical between the
/// grid-pruned and all-pairs routes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadialBins {
    /// Number of retained bins over `[0, r_max)`.
    pub bins: u32,
    /// Upper edge of the retained range; also the grid's pruning
    /// radius.
    pub r_max: f32,
}

impl RadialBins {
    pub fn new(bins: u32, r_max: f32) -> Self {
        assert!(bins > 0, "radial binning needs at least one bin");
        assert!(
            r_max > 0.0 && r_max.is_finite(),
            "r_max must be positive and finite"
        );
        RadialBins { bins, r_max }
    }

    /// Width of one retained bin.
    pub fn bin_width(&self) -> f32 {
        self.r_max / self.bins as f32
    }

    /// The [`HistogramSpec`] the kernels actually run: `bins + 1`
    /// buckets over `[0, r_max · (bins+1)/bins)`, so bucket `bins` is
    /// the overflow/clamp bucket that absorbs every distance ≥ r_max.
    pub fn device_spec(&self) -> HistogramSpec {
        let max = (self.r_max as f64 * (self.bins as f64 + 1.0) / self.bins as f64) as f32;
        HistogramSpec::new(self.bins + 1, max)
    }

    /// Strip the overflow bucket from a device histogram, keeping the
    /// `bins` retained counts.
    pub fn finalize(&self, device: &Histogram) -> Histogram {
        assert_eq!(
            device.counts().len(),
            self.bins as usize + 1,
            "device histogram does not match this RadialBins spec"
        );
        Histogram::from_counts(device.counts()[..self.bins as usize].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_points(n: usize, step: f32) -> SoaPoints<3> {
        SoaPoints::from_points(
            &(0..n)
                .map(|i| [i as f32 * step, 0.0, 0.0])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn fit_respects_radius_and_occupancy() {
        let pts = crate::point::SoaPoints::<3>::from_points(
            &(0..4096)
                .map(|i| {
                    let x = (i % 16) as f32 * 6.25;
                    let y = ((i / 16) % 16) as f32 * 6.25;
                    let z = (i / 256) as f32 * 6.25;
                    [x, y, z]
                })
                .collect::<Vec<_>>(),
        );
        let g = GridGeometry::fit(&[&pts], 5.0, &GridOptions::default());
        for d in 0..3 {
            assert!(g.edge[d] >= g.r_cull, "edge {} < r_cull", g.edge[d]);
            assert!(g.dims[d] >= 1);
        }
        // Occupancy clamp: no more than ~n/target cells.
        assert!(g.num_cells() as f64 <= 4096.0 / 512.0 * 8.0 + 1.0);
    }

    #[test]
    fn fit_survives_extent_over_radius_of_1e7_per_axis() {
        // 1e7 cells per axis by the radius rule: a plain 3-D cell-count
        // product (1e21) overflows u64, the sizing loop must not.
        let pts = SoaPoints::<3>::from_points(&[[0.0, 0.0, 0.0], [1e7, 1e7, 1e7], [5e6, 2e6, 7e6]]);
        let opts = GridOptions {
            target_points_per_cell: 1,
            max_cells: 1 << 20,
        };
        let g = GridGeometry::fit(&[&pts], 1.0, &opts);
        assert!(g.num_cells() >= 1 && g.num_cells() <= opts.max_cells as usize);
        for d in 0..3 {
            assert!(g.edge[d] >= g.r_cull, "edge {} < r_cull", g.edge[d]);
        }
    }

    #[test]
    fn single_cell_when_radius_covers_the_box() {
        let pts = line_points(100, 1.0);
        let g = GridGeometry::fit(&[&pts], 1000.0, &GridOptions::default());
        assert_eq!(g.num_cells(), 1);
        let grid = UniformGrid::bin(g, &pts);
        let pairs = candidate_pairs(&grid);
        assert_eq!(pairs, vec![CellPair { a: 0, b: 0 }]);
        let stats = prune_stats(&grid, &pairs);
        assert_eq!(stats.candidate_point_pairs, stats.total_point_pairs);
        assert_eq!(stats.pruned_fraction(), 0.0);
    }

    #[test]
    fn binning_is_a_permutation() {
        let pts = crate::point::SoaPoints::<2>::from_points(&[
            [0.5, 0.5],
            [9.5, 9.5],
            [0.6, 9.4],
            [9.4, 0.6],
            [5.0, 5.0],
        ]);
        let grid = UniformGrid::build(
            &pts,
            1.0,
            &GridOptions {
                target_points_per_cell: 1,
                max_cells: 1 << 20,
            },
        );
        assert_eq!(grid.points.len(), pts.len());
        let mut seen: Vec<u32> = grid.perm.clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..pts.len() as u32).collect::<Vec<_>>());
        for i in 0..grid.points.len() {
            assert_eq!(grid.points.point(i), pts.point(grid.perm[i] as usize));
        }
        // CSR covers everything exactly once.
        assert_eq!(*grid.cell_start.last().unwrap() as usize, pts.len());
        // Each cell's slice really contains its own points.
        for c in grid.occupied_cells() {
            for i in grid.cell_range(c) {
                assert_eq!(grid.geom.cell_of(grid.points.point(i)), c);
            }
        }
    }

    #[test]
    fn forward_stencil_covers_each_unordered_pair_once() {
        let pts = line_points(1, 1.0);
        let mut g = GridGeometry::fit(&[&pts], 1.0, &GridOptions::default());
        g.dims = [3, 3, 3];
        // Edge ≥ r_cull: the sizing invariant that keeps reach at 1.
        g.edge = [1.1; 3];
        let fwd = g.forward_stencil();
        // 3^3 - 1 = 26 neighbors; forward half = 13, none culled at
        // edge == r_cull-ish scale.
        assert_eq!(fwd.len(), 13);
        for off in &fwd {
            let neg = off.map(|o| -o);
            assert!(
                !fwd.contains(&neg),
                "offset {off:?} and its negation both forward"
            );
        }
        let full = g.full_stencil();
        assert_eq!(full.len(), 27);
    }

    #[test]
    fn culling_skips_far_cells_only() {
        let pts = line_points(1, 1.0);
        let mut g = GridGeometry::fit(&[&pts], 1.0, &GridOptions::default());
        g.dims = [10, 1, 1];
        g.edge = [2.0, 1.0, 1.0];
        g.r_cull = 1.0 * (1.0 + R_CULL_MARGIN);
        // Adjacent cells share a face: never culled.
        assert!(!g.culled(&[1, 0, 0]));
        // Two apart: gap = edge = 2.0 ≥ r_cull.
        assert!(g.culled(&[2, 0, 0]));
        assert!(g.culled(&[-2, 0, 0]));
    }

    #[test]
    fn marginal_gap_is_not_culled() {
        // Gap exactly r_max: the margin keeps the pair (rounding could
        // otherwise drop a computed-distance-< r_max pair).
        let pts = line_points(1, 1.0);
        let mut g = GridGeometry::fit(&[&pts], 1.0, &GridOptions::default());
        g.dims = [10, 1, 1];
        g.edge = [1.0, 1.0, 1.0];
        g.r_cull = 1.0 * (1.0 + R_CULL_MARGIN);
        assert!(!g.culled(&[2, 0, 0]), "gap == r_max must survive");
        assert!(g.culled(&[3, 0, 0]));
    }

    #[test]
    fn prune_stats_account_every_candidate_pair() {
        let pts = line_points(64, 1.0);
        let grid = UniformGrid::build(
            &pts,
            4.0,
            &GridOptions {
                target_points_per_cell: 4,
                max_cells: 1 << 20,
            },
        );
        // Line data: the whole cell budget goes to the one axis with
        // extent, so the x axis actually subdivides.
        assert!(grid.geom.dims[0] >= 8, "{:?}", grid.geom);
        let pairs = candidate_pairs(&grid);
        let stats = prune_stats(&grid, &pairs);
        assert_eq!(stats.total_point_pairs, 64 * 63 / 2);
        assert!(stats.candidate_point_pairs <= stats.total_point_pairs);
        assert!(stats.pruned_fraction() > 0.0, "{stats:?}");
        // Brute-force the candidate pair count.
        let mut brute = 0u64;
        for p in &pairs {
            let (ca, cb) = (
                grid.cell_len(p.a as usize) as u64,
                grid.cell_len(p.b as usize) as u64,
            );
            brute += if p.is_intra() {
                ca * (ca - 1) / 2
            } else {
                ca * cb
            };
        }
        assert_eq!(brute, stats.candidate_point_pairs);
    }

    #[test]
    fn cross_pairs_are_ordered_and_shared_geometry_is_enforced() {
        let a = line_points(32, 1.0);
        let b = line_points(48, 0.7);
        let geom = GridGeometry::fit(
            &[&a, &b],
            3.0,
            &GridOptions {
                target_points_per_cell: 4,
                max_cells: 1 << 20,
            },
        );
        let ga = UniformGrid::bin(geom.clone(), &a);
        let gb = UniformGrid::bin(geom, &b);
        let pairs = candidate_cross_pairs(&ga, &gb);
        let stats = cross_prune_stats(&ga, &gb, &pairs);
        assert_eq!(stats.total_point_pairs, 32 * 48);
        assert!(stats.candidate_point_pairs <= stats.total_point_pairs);
        // Every ordered pair appears at most once.
        let mut seen = std::collections::BTreeSet::new();
        for p in &pairs {
            assert!(seen.insert((p.a, p.b)), "duplicate cross pair {p:?}");
        }
    }

    #[test]
    #[should_panic(expected = "shared grid geometry")]
    fn mismatched_geometries_are_rejected() {
        let a = line_points(8, 1.0);
        let b = line_points(8, 2.0);
        let ga = UniformGrid::build(&a, 1.0, &GridOptions::default());
        let gb = UniformGrid::build(&b, 1.0, &GridOptions::default());
        candidate_cross_pairs(&ga, &gb);
    }

    #[test]
    fn empty_input_yields_no_pairs() {
        let pts = SoaPoints::<3>::new();
        let grid = UniformGrid::build(&pts, 1.0, &GridOptions::default());
        assert!(candidate_pairs(&grid).is_empty());
        let stats = prune_stats(&grid, &[]);
        assert_eq!(stats.candidate_point_pairs, 0);
        assert_eq!(stats.total_point_pairs, 0);
    }

    #[test]
    fn radial_bins_overflow_contract() {
        let rb = RadialBins::new(32, 25.0);
        let spec = rb.device_spec();
        assert_eq!(spec.buckets, 33);
        // Retained-bin width is preserved.
        assert!((spec.bucket_width() - rb.bin_width()).abs() < 1e-4);
        // Distances at/above r_max land in the overflow bucket.
        assert_eq!(spec.bucket_of(25.0), 32);
        assert_eq!(spec.bucket_of(24.999), 31);
        assert_eq!(spec.bucket_of(1e9), 32);
        // finalize drops exactly the overflow bucket.
        let mut dev = Histogram::zeroed(33);
        dev.add(0);
        dev.add(32);
        dev.add(32);
        let kept = rb.finalize(&dev);
        assert_eq!(kept.counts().len(), 32);
        assert_eq!(kept.total(), 1);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn finalize_rejects_wrong_size() {
        RadialBins::new(8, 1.0).finalize(&Histogram::zeroed(8));
    }
}
