//! Grid-pruned CPU counters — the exactness oracle for the GPU-side
//! spatial front end.
//!
//! These visit only the cell pairs that survive [`tbs_core::grid`]
//! culling, with per-pair arithmetic mirroring an all-pairs reference
//! pair-for-pair, so the grid route's integer outputs must be
//! **bit-identical** to the all-pairs route's; the differential tests
//! in `core/tests/grid_identity.rs` assert exactly that.
//!
//! One subtlety: the repo carries **two** within-radius predicates.
//! The CPU comparator ([`crate::pcf_reference`]) uses the paper's
//! algebraic elimination — `dist² < r²`, no sqrt — while the device
//! route (`Euclidean` + `CountWithinRadius`) computes `√dist² < r`.
//! The two agree except on ~1-in-10⁸ boundary pairs where the sqrt
//! rounding flips the compare, so each engine gets its own oracle:
//! [`grid_pcf_reference`] (squared, bit-identical to
//! [`crate::pcf_reference`]) and [`grid_pcf_device_reference`] (sqrt,
//! bit-identical to the device count at any N). Histograms bucket the
//! sqrt'ed distance on both engines, so one oracle suffices there.

use tbs_core::grid::{candidate_pairs, GridOptions, RadialBins, UniformGrid};
use tbs_core::histogram::Histogram;
use tbs_core::point::SoaPoints;

#[inline]
fn dist_sq<const D: usize>(a: [f32; D], b: [f32; D]) -> f32 {
    let mut s = 0.0f32;
    for d in 0..D {
        let diff = a[d] - b[d];
        s = diff.mul_add(diff, s);
    }
    s
}

/// Shared grid-walk: fold `pair(a, b) -> u64` over every candidate
/// pair exactly once.
fn count_over_pairs<const D: usize>(
    pts: &SoaPoints<D>,
    radius: f32,
    opts: &GridOptions,
    pair: impl Fn([f32; D], [f32; D]) -> u64,
) -> u64 {
    if pts.len() < 2 {
        return 0;
    }
    let grid = UniformGrid::build(pts, radius, opts);
    let mut count = 0u64;
    for p in candidate_pairs(&grid) {
        if p.is_intra() {
            let r = grid.cell_range(p.a as usize);
            for i in r.clone() {
                let a = grid.points.point(i);
                for j in (i + 1)..r.end {
                    count += pair(a, grid.points.point(j));
                }
            }
        } else {
            let (ra, rb) = (grid.cell_range(p.a as usize), grid.cell_range(p.b as usize));
            for i in ra {
                let a = grid.points.point(i);
                for j in rb.clone() {
                    count += pair(a, grid.points.point(j));
                }
            }
        }
    }
    count
}

/// Grid-pruned within-radius pair count, CPU predicate (`dist² < r²`,
/// the paper's sqrt-free compare). Must equal [`crate::pcf_reference`]
/// exactly for any `radius ≤` the grid's sizing radius.
pub fn grid_pcf_reference<const D: usize>(
    pts: &SoaPoints<D>,
    radius: f32,
    opts: &GridOptions,
) -> u64 {
    let r2 = radius * radius;
    count_over_pairs(pts, radius, opts, |a, b| u64::from(dist_sq(a, b) < r2))
}

/// Grid-pruned within-radius pair count, *device* predicate
/// (`√dist² < r`, exactly `Euclidean::eval_host` + the
/// `CountWithinRadius` compare). Bit-identical to the gridded device
/// route at any N — the oracle for sizes where running the device
/// all-pairs route is unaffordable.
pub fn grid_pcf_device_reference<const D: usize>(
    pts: &SoaPoints<D>,
    radius: f32,
    opts: &GridOptions,
) -> u64 {
    count_over_pairs(pts, radius, opts, |a, b| {
        u64::from(dist_sq(a, b).sqrt() < radius)
    })
}

/// Grid-pruned bounded radial histogram. Must equal the all-pairs
/// histogram computed with [`RadialBins::device_spec`] and finalized
/// with [`RadialBins::finalize`] — i.e. [`crate::sdh_reference`] run on
/// the overflow-bucket spec, with the overflow dropped.
pub fn grid_radial_reference<const D: usize>(
    pts: &SoaPoints<D>,
    bins: RadialBins,
    opts: &GridOptions,
) -> Histogram {
    let spec = bins.device_spec();
    let mut h = Histogram::zeroed(spec.buckets);
    if pts.len() >= 2 {
        let grid = UniformGrid::build(pts, bins.r_max, opts);
        let mut pair = |a: [f32; D], b: [f32; D]| h.add(spec.bucket_of(dist_sq(a, b).sqrt()));
        for p in candidate_pairs(&grid) {
            if p.is_intra() {
                let r = grid.cell_range(p.a as usize);
                for i in r.clone() {
                    for j in (i + 1)..r.end {
                        pair(grid.points.point(i), grid.points.point(j));
                    }
                }
            } else {
                let (ra, rb) = (grid.cell_range(p.a as usize), grid.cell_range(p.b as usize));
                for i in ra {
                    for j in rb.clone() {
                        pair(grid.points.point(i), grid.points.point(j));
                    }
                }
            }
        }
    }
    bins.finalize(&h)
}

/// Grid-pruned bounded radial histogram of the ordered cross pairs
/// `a × b` (DR-style), by the union identity
/// `ref(a ∪ b) − ref(a) − ref(b)`: every pair of the union is a pair of
/// `a`, a pair of `b` or exactly one cross pair.
pub fn grid_cross_radial_reference<const D: usize>(
    a: &SoaPoints<D>,
    b: &SoaPoints<D>,
    bins: RadialBins,
    opts: &GridOptions,
) -> Histogram {
    let mut union = a.clone();
    for p in b.iter() {
        union.push(p);
    }
    let [u, ra, rb] = [&union, a, b].map(|pts| grid_radial_reference(pts, bins, opts));
    let counts = u.counts().iter().zip(ra.counts().iter().zip(rb.counts()));
    Histogram::from_counts(counts.map(|(u, (x, y))| u - x - y).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbs_core::histogram::HistogramSpec;

    #[test]
    fn grid_count_matches_all_pairs_reference() {
        for (n, r) in [(0, 5.0), (1, 5.0), (500, 5.0), (777, 12.5), (1024, 40.0)] {
            let pts = tbs_datagen::uniform_points::<3>(n, 100.0, n as u64 + 3);
            assert_eq!(
                grid_pcf_reference(&pts, r, &GridOptions::default()),
                crate::pcf_reference(&pts, r),
                "n={n} r={r}"
            );
        }
    }

    #[test]
    fn grid_histogram_matches_overflow_spec_reference() {
        let pts = tbs_datagen::clustered_points::<3>(900, 100.0, 5, 3.0, 77);
        let bins = RadialBins::new(24, 15.0);
        let got = grid_radial_reference(
            &pts,
            bins,
            &GridOptions {
                target_points_per_cell: 32,
                max_cells: 1 << 20,
            },
        );
        let all = crate::sdh_reference(&pts, bins.device_spec());
        assert_eq!(got, bins.finalize(&all));
        // Sanity: the retained mass is exactly the < r_max pair count
        // (strict bucket edges match the count predicate only up to
        // boundary rounding, so compare against the spec itself).
        assert_eq!(got.counts().len(), 24);
    }

    #[test]
    fn fine_grids_agree_with_coarse_grids() {
        let pts = tbs_datagen::uniform_points::<2>(600, 50.0, 9);
        let a = grid_pcf_reference(
            &pts,
            6.0,
            &GridOptions {
                target_points_per_cell: 4,
                max_cells: 1 << 20,
            },
        );
        let b = grid_pcf_reference(
            &pts,
            6.0,
            &GridOptions {
                target_points_per_cell: 256,
                max_cells: 1 << 20,
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_all_points_identical() {
        let pts = SoaPoints::<3>::from_points(&vec![[1.0, 2.0, 3.0]; 64]);
        assert_eq!(
            grid_pcf_reference(&pts, 0.5, &GridOptions::default()),
            64 * 63 / 2
        );
        let spec = HistogramSpec::new(4, 1.0);
        let _ = spec; // bucket 0 holds everything in the radial case:
        let h = grid_radial_reference(&pts, RadialBins::new(4, 1.0), &GridOptions::default());
        assert_eq!(h.counts()[0], 64 * 63 / 2);
    }
    #[test]
    fn cross_reference_bins_every_ordered_cross_pair_once() {
        let a = tbs_datagen::clustered_points::<3>(300, 100.0, 4, 3.0, 5);
        let b = tbs_datagen::uniform_points::<3>(200, 100.0, 6);
        let bins = RadialBins::new(6, 15.0);
        let spec = bins.device_spec();
        let mut direct = Histogram::zeroed(spec.buckets);
        for p in a.iter() {
            for q in b.iter() {
                direct.add(spec.bucket_of(dist_sq(p, q).sqrt()));
            }
        }
        let opts = GridOptions {
            target_points_per_cell: 16,
            max_cells: 1 << 20,
        };
        assert_eq!(
            grid_cross_radial_reference(&a, &b, bins, &opts),
            bins.finalize(&direct)
        );
    }
}
