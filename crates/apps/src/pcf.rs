//! The 2-point correlation function (2-PCF) — the paper's Type-I example
//! application (§IV-B): "the output is of very small size: one scalar
//! describing the number of points within a radius" — plus the
//! cosmology-grade estimator built on it: binned DD/DR/RR pair counts
//! over a random catalog and the Landy–Szalay ξ(r), running through the
//! grid-pruned executor ([`crate::gridded`]) so N = 10⁶–10⁷ catalogs
//! are tractable.

use crate::driver::{launch_pairwise, PairwisePlan};
use crate::gridded::{
    gridded_cross_radial_histogram, gridded_radial_histogram, GriddedCatalog, GriddedRun,
};
use gpu_sim::{Device, KernelRun, SimError};
use tbs_core::distance::Euclidean;
use tbs_core::grid::{GridGeometry, GridOptions, RadialBins};
use tbs_core::histogram::Histogram;
use tbs_core::kernels::{pair_launch, PairScope};
use tbs_core::output::CountWithinRadius;
use tbs_core::point::{DeviceSoa, SoaPoints};

/// Result of a GPU 2-PCF computation.
#[derive(Debug, Clone)]
pub struct PcfResult {
    /// Number of pairs with distance strictly below the radius.
    pub count: u64,
    /// Profile of the pairwise kernel.
    pub run: KernelRun,
}

/// Compute the 2-PCF of `pts` at `radius` on a simulated device.
///
/// The points upload in Morton order (`upload_morton`), so each warp
/// and each tile covers a compact region and the compiled count passes
/// skip the tile chunks their box test proves out of range. The count
/// does not depend on point order, and neither does any Type-I charge:
/// the kernels address points by index only, so the returned tally and
/// simulated time equal those of a caller-ordered launch bit for bit.
pub fn pcf_gpu<const D: usize>(
    dev: &mut Device,
    pts: &SoaPoints<D>,
    radius: f32,
    plan: PairwisePlan,
) -> Result<PcfResult, SimError> {
    dev.scoped(|dev| pcf_gpu_body(dev, pts, radius, plan))
}

/// The body of [`pcf_gpu`]: the caller's [`Device::scoped`]
/// frees what it allocates, however it returns.
fn pcf_gpu_body<const D: usize>(
    dev: &mut Device,
    pts: &SoaPoints<D>,
    radius: f32,
    plan: PairwisePlan,
) -> Result<PcfResult, SimError> {
    let input = upload_morton(dev, pts);
    let lc = pair_launch(input.n, plan.block_size);
    let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
    let run = launch_pairwise(
        dev,
        input,
        Euclidean,
        CountWithinRadius { radius, out },
        plan,
        PairScope::HalfPairs,
    )?;
    // Type-I: per-thread register outputs are transmitted back to the
    // host and summed there (§IV-C "transmit such data back to host when
    // kernel exits").
    let count = dev.u64_slice(out).iter().sum();
    Ok(PcfResult { count, run })
}

/// Upload `pts` sorted along the Morton (Z-order) curve, without a
/// sorted host copy: each coordinate is quantised to `32 / D` bits
/// (at most 16) over the finite extent of its dimension, the bits
/// interleave into a `u32` key, and the points are written in the order
/// of `key << 32 | index` sorted as one `u64` per point.
/// NaN and `−∞` coordinates quantise to 0, `+∞` to the top cell; ties
/// keep caller order.
fn upload_morton<const D: usize>(dev: &mut Device, pts: &SoaPoints<D>) -> DeviceSoa<D> {
    let bits = (32 / D.max(1)).min(16) as u32;
    let top = ((1u64 << bits) - 1) as f32;
    let scale: [(f32, f32); D] = std::array::from_fn(|d| {
        let finite = pts.coord(d).iter().copied().filter(|x| x.is_finite());
        let lo = finite.clone().fold(f32::INFINITY, f32::min);
        let hi = finite.fold(f32::NEG_INFINITY, f32::max);
        let span = hi - lo;
        let s = if span > 0.0 && span.is_finite() {
            top / span
        } else {
            0.0
        };
        (lo, s)
    });
    let key = |i: usize| {
        let q: [u32; D] = std::array::from_fn(|d| {
            let (lo, s) = scale[d];
            // The saturating cast sends NaN and −∞ to 0.
            (((pts.coord(d)[i] - lo) * s) as u32).min(top as u32)
        });
        let mut key = 0u32;
        for b in (0..bits).rev() {
            for &c in &q {
                key = key << 1 | ((c >> b) & 1);
            }
        }
        key
    };
    let mut order: Vec<u64> = (0..pts.len())
        .map(|i| (key(i) as u64) << 32 | i as u64)
        .collect();
    order.sort_unstable();
    DeviceSoa {
        coords: std::array::from_fn(|d| {
            let c = pts.coord(d);
            dev.alloc_f32(order.iter().map(|&k| c[k as u32 as usize]).collect())
        }),
        n: pts.len() as u32,
    }
}

/// Binned DD/DR/RR pair counts of a data catalog against a random
/// catalog, all three computed through the grid-pruned executor over
/// one shared grid geometry.
#[derive(Debug, Clone)]
pub struct LsPairCounts {
    /// Data–data pair counts per radial bin (unordered pairs).
    pub dd: Histogram,
    /// Data–random pair counts per radial bin (ordered pairs).
    pub dr: Histogram,
    /// Random–random pair counts per radial bin (unordered pairs).
    pub rr: Histogram,
    /// Catalog sizes (data, random).
    pub nd: u64,
    pub nr: u64,
    /// The binning the counts were taken over.
    pub bins: RadialBins,
    /// Launch profiles of the three passes.
    pub dd_run: GriddedRun,
    pub dr_run: GriddedRun,
    pub rr_run: GriddedRun,
}

impl LsPairCounts {
    /// Total simulated kernel seconds across DD + DR + RR.
    pub fn total_seconds(&self) -> f64 {
        self.dd_run.seconds + self.dr_run.seconds + self.rr_run.seconds
    }
}

/// Compute DD, DR and RR radial pair counts for `data` against `rand`
/// with one shared grid geometry fit over both catalogs (required for
/// the bipartite DR pass and convenient for the other two).
pub fn ls_pair_counts<const D: usize>(
    dev: &mut Device,
    data: &SoaPoints<D>,
    rand: &SoaPoints<D>,
    bins: RadialBins,
    plan: PairwisePlan,
    opts: &GridOptions,
) -> Result<LsPairCounts, SimError> {
    dev.scoped(|dev| ls_pair_counts_body(dev, data, rand, bins, plan, opts))
}

/// The body of [`ls_pair_counts`]: the caller's [`Device::scoped`]
/// frees what it allocates, however it returns.
fn ls_pair_counts_body<const D: usize>(
    dev: &mut Device,
    data: &SoaPoints<D>,
    rand: &SoaPoints<D>,
    bins: RadialBins,
    plan: PairwisePlan,
    opts: &GridOptions,
) -> Result<LsPairCounts, SimError> {
    let geom = GridGeometry::fit(&[data, rand], bins.r_max, opts);
    let dcat = GriddedCatalog::build(dev, geom.clone(), data);
    let rcat = GriddedCatalog::build(dev, geom, rand);
    let dd = gridded_radial_histogram(dev, &dcat, bins, plan)?;
    let dr = gridded_cross_radial_histogram(dev, &dcat, &rcat, bins, plan)?;
    let rr = gridded_radial_histogram(dev, &rcat, bins, plan)?;
    Ok(LsPairCounts {
        dd: dd.histogram,
        dr: dr.histogram,
        rr: rr.histogram,
        nd: data.len() as u64,
        nr: rand.len() as u64,
        bins,
        dd_run: dd.run,
        dr_run: dr.run,
        rr_run: rr.run,
    })
}

/// The Landy–Szalay estimator ξ(r) = (DD̂ − 2·DR̂ + RR̂) / RR̂ per
/// radial bin, with each count normalized by its number of possible
/// pairs (DD: N_d(N_d−1)/2, DR: N_d·N_r, RR: N_r(N_r−1)/2). Bins whose
/// RR count is zero (no pairs to calibrate against) yield `NaN`.
pub fn landy_szalay(counts: &LsPairCounts) -> Vec<f64> {
    let (nd, nr) = (counts.nd as f64, counts.nr as f64);
    let dd_pairs = nd * (nd - 1.0) / 2.0;
    let dr_pairs = nd * nr;
    let rr_pairs = nr * (nr - 1.0) / 2.0;
    counts
        .dd
        .counts()
        .iter()
        .zip(counts.dr.counts())
        .zip(counts.rr.counts())
        .map(|((&dd, &dr), &rr)| {
            if rr == 0 {
                f64::NAN
            } else {
                let dd_hat = dd as f64 / dd_pairs;
                let dr_hat = dr as f64 / dr_pairs;
                let rr_hat = rr as f64 / rr_pairs;
                (dd_hat - 2.0 * dr_hat + rr_hat) / rr_hat
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use tbs_core::analytic::profiles::InputPath;
    use tbs_core::kernels::IntraMode;

    #[test]
    fn gpu_pcf_matches_cpu_reference() {
        let pts = tbs_datagen::uniform_points::<3>(512, 100.0, 23);
        let expect = tbs_cpu::pcf_reference(&pts, 25.0);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let got = pcf_gpu(&mut dev, &pts, 25.0, PairwisePlan::register_shm(128)).expect("launch");
        assert_eq!(got.count, expect);
        assert!(got.run.timing.seconds > 0.0);
    }

    #[test]
    fn all_input_paths_agree_with_cpu() {
        let pts = tbs_datagen::uniform_points::<3>(384, 100.0, 29);
        let expect = tbs_cpu::pcf_reference(&pts, 40.0);
        for input in [
            InputPath::Naive,
            InputPath::ShmShm,
            InputPath::RegisterShm,
            InputPath::RegisterRoc,
            InputPath::Shuffle,
        ] {
            let mut dev = Device::new(DeviceConfig::titan_x());
            let plan = PairwisePlan {
                input,
                intra: IntraMode::LoadBalanced,
                block_size: 128,
            };
            let got = pcf_gpu(&mut dev, &pts, 40.0, plan).expect("launch");
            assert_eq!(got.count, expect, "{input:?}");
        }
    }

    /// `pcf_gpu` against the CPU oracle, and against a caller-ordered
    /// `launch_pairwise` of the same points: the Morton-ordered upload
    /// may change neither the count nor any modeled charge (tally and
    /// simulated seconds, bit for bit). Returns the rows the compiled
    /// passes culled.
    fn assert_order_invariant<const D: usize>(
        pts: &SoaPoints<D>,
        radius: f32,
        plan: PairwisePlan,
    ) -> u64 {
        let what = format!("D={D} N={} {plan:?}", pts.len());
        let mut dev = Device::new(DeviceConfig::titan_x());
        let got = pcf_gpu(&mut dev, pts, radius, plan).expect("pcf_gpu");
        assert_eq!(
            got.count,
            tbs_cpu::count_within_reference(pts, radius),
            "{what}: count vs the CPU oracle"
        );
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = pts.upload(&mut dev);
        let lc = pair_launch(input.n, plan.block_size);
        let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let action = CountWithinRadius { radius, out };
        let caller = launch_pairwise(
            &mut dev,
            input,
            Euclidean,
            action,
            plan,
            PairScope::HalfPairs,
        )
        .expect("caller-ordered launch");
        assert_eq!(got.count, dev.u64_slice(out).iter().sum::<u64>(), "{what}");
        assert_eq!(got.run.tally, caller.tally, "{what}: tally");
        assert_eq!(
            got.run.timing.seconds.to_bits(),
            caller.timing.seconds.to_bits(),
            "{what}: simulated seconds"
        );
        got.run.interp.culled_rows
    }

    /// `n` uniform points in a 100-wide box.
    fn cloud<const D: usize>(n: usize, seed: u64) -> SoaPoints<D> {
        tbs_datagen::uniform_points::<D>(n, 100.0, seed)
    }

    #[test]
    fn morton_upload_is_invisible_to_counts_and_charges() {
        for n in [0, 1, 33, 1025, 5000] {
            assert_order_invariant(&cloud::<3>(n, 61), 25.0, PairwisePlan::register_shm(1024));
            assert_order_invariant(&cloud::<2>(n, 62), 10.0, PairwisePlan::register_shm(128));
        }
        // On spatially ordered tiles the count passes cull.
        let culled =
            assert_order_invariant(&cloud::<3>(5000, 63), 10.0, PairwisePlan::register_shm(128));
        assert!(culled > 0, "Morton-ordered count passes must cull");
        // Every input path addresses points by index only.
        for input in [
            InputPath::Naive,
            InputPath::ShmShm,
            InputPath::RegisterShm,
            InputPath::RegisterRoc,
            InputPath::Shuffle,
        ] {
            for intra in [IntraMode::Regular, IntraMode::LoadBalanced] {
                let plan = PairwisePlan {
                    input,
                    intra,
                    block_size: 128,
                };
                assert_order_invariant(&cloud::<3>(1025, 64), 25.0, plan);
            }
        }
    }

    #[test]
    fn morton_upload_handles_degenerate_and_non_finite_points() {
        // All points identical: one Morton cell, caller order kept.
        let same = SoaPoints::<3>::from_points(&vec![[4.0, -2.0, 7.5]; 1025]);
        assert_order_invariant(&same, 1.0, PairwisePlan::register_shm(128));
        // NaN and ±inf coordinates quantise to the edge cells; their
        // pairs count on no route.
        for d_bad in 0..3 {
            let mut pts: Vec<[f32; 3]> = cloud::<3>(300, 65 + d_bad as u64).iter().collect();
            for (i, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
                .into_iter()
                .enumerate()
            {
                for k in 0..5 {
                    pts[(i * 97 + k * 13) % 300][d_bad] = bad;
                }
            }
            let pts = SoaPoints::from_points(&pts);
            for b in [32, 128] {
                assert_order_invariant(&pts, 25.0, PairwisePlan::register_shm(b));
            }
        }
        let pts = SoaPoints::<2>::from_points(&[
            [f32::NAN, f32::NAN],
            [f32::INFINITY, f32::NEG_INFINITY],
            [f32::NEG_INFINITY, 0.0],
            [1.0, 2.0],
        ]);
        assert_order_invariant(&pts, 5.0, PairwisePlan::register_shm(32));
    }

    #[test]
    fn ls_estimator_is_near_zero_for_unclustered_data() {
        // Uniform "data" vs a uniform random catalog: no excess
        // clustering, so ξ(r) ≈ 0 in well-populated bins.
        let data = tbs_datagen::uniform_points::<3>(3000, 100.0, 51);
        let rand = tbs_datagen::uniform_points::<3>(3000, 100.0, 52);
        let bins = RadialBins::new(8, 20.0);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let counts = ls_pair_counts(
            &mut dev,
            &data,
            &rand,
            bins,
            PairwisePlan::register_shm(128),
            &GridOptions::default(),
        )
        .expect("launch");
        assert_eq!(counts.nd, 3000);
        let xi = landy_szalay(&counts);
        assert_eq!(xi.len(), 8);
        // Outer bins have tens of thousands of pairs; Poisson noise is
        // at the percent level.
        for (i, &x) in xi.iter().enumerate().skip(3) {
            assert!(x.abs() < 0.2, "bin {i}: xi = {x}");
        }
    }

    #[test]
    fn ls_estimator_detects_clustering() {
        // Strongly clustered data vs a uniform random catalog: ξ must
        // be clearly positive at small separations.
        let data = tbs_datagen::clustered_points::<3>(2000, 100.0, 8, 2.0, 53);
        let rand = tbs_datagen::uniform_points::<3>(4000, 100.0, 54);
        let bins = RadialBins::new(8, 16.0);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let counts = ls_pair_counts(
            &mut dev,
            &data,
            &rand,
            bins,
            PairwisePlan::register_shm(128),
            &GridOptions::default(),
        )
        .expect("launch");
        let xi = landy_szalay(&counts);
        assert!(xi[0] > 1.0, "xi(0) = {}", xi[0]);
        // DD/DR/RR totals are consistent with the pair universes.
        assert!(counts.dd.total() <= counts.nd * (counts.nd - 1) / 2);
        assert!(counts.dr.total() <= counts.nd * counts.nr);
    }
}
