//! grid-ls: DD/DR/RR radial pair counts for the Landy–Szalay estimator,
//! through the uniform grid and packed launches.
//!
//! The sub-quadratic path: binning, cell-pair enumeration, population-
//! class packing (many classes on the clustered catalog, few on the
//! uniform one) and packed self and cross launches. Launch and segment
//! overheads matter here and not on the dense sweep.

use crate::batch::{Batch, Cost, Solved};
use crate::report::Metrics;
use crate::stats::SplitMix64;
use crate::trace::{self, Recorder, Span};
use gpu_sim::{Device, SimError};
use std::hint::black_box;
use tbs_apps::gridded::planned_packed_launches;
use tbs_apps::{
    gridded_cross_radial_histogram, gridded_radial_histogram, ls_pair_counts, GriddedCatalog,
    GriddedRun, PairwisePlan,
};
use tbs_core::distance::{DistanceKernel, Euclidean};
use tbs_core::grid::{
    candidate_cross_pairs, candidate_pairs, cross_prune_stats, prune_stats, GridGeometry,
    GridOptions, RadialBins, UniformGrid,
};
use tbs_core::histogram::Histogram;
use tbs_core::point::SoaPoints;

const BOX: f32 = 100.0;

pub struct GridLs {
    data: SoaPoints<3>,
    rand: SoaPoints<3>,
    bins: RadialBins,
    plan: PairwisePlan,
    opts: GridOptions,
}

impl GridLs {
    /// 64 Gaussian blobs (σ = 4) at [`blob_centers`] plus as many uniform
    /// randoms in a 100³ box, 10 bins up to r = 5; 65536 points per
    /// catalog, or 512 when `tiny`.
    pub fn new(seed: u64, tiny: bool) -> Self {
        let n = if tiny { 512 } else { 65_536 };
        let centers = blob_centers(&mut SplitMix64::stream(seed, 0xb10b));
        GridLs {
            data: tbs_datagen::gaussian_blobs(n, BOX, &centers, &[4.0; 64], seed),
            rand: tbs_datagen::uniform_points(n, BOX, seed ^ 0xfeed),
            bins: RadialBins::new(10, 5.0),
            plan: PairwisePlan::register_shm(256),
            opts: GridOptions::default(),
        }
    }
}

/// Centers of 64 blobs in the 100³ box: a 4 × 4 × 4 lattice of spacing
/// 25, each center moved by up to ±4 per axis. The seed moves every
/// center and point, but blobs barely overlap, so the candidate pairs,
/// and with them an op's work, hardly change with the seed: across
/// seeds 1–6 they vary by 1.8% on grid-ls, against 13% with uniformly
/// drawn centers.
pub fn blob_centers(rng: &mut SplitMix64) -> Vec<[f32; 3]> {
    let spacing = BOX / 4.0;
    (0..64)
        .map(|i| {
            let cell = [i % 4, i / 4 % 4, i / 16];
            std::array::from_fn(|d| (cell[d] as f32 + 0.5) * spacing + (rng.unit_f32() - 0.5) * 8.0)
        })
        .collect()
}

/// DD, DR and RR with the three sweeps' launch profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct LsResult {
    counts: [Histogram; 3],
    runs: [GriddedRun; 3],
}

fn solved(counts: [Histogram; 3], runs: [GriddedRun; 3]) -> Solved<LsResult> {
    let cost = Cost {
        launches: runs.iter().map(|r| r.launches() as u64).sum(),
        sim_seconds: runs.iter().map(|r| r.seconds).sum(),
        pairs: runs.iter().map(|r| r.stats.candidate_point_pairs).sum(),
        ..Cost::default()
    };
    Solved {
        result: LsResult { counts, runs },
        cost,
    }
}

impl Batch for GridLs {
    type Result = LsResult;
    type Oracle = [Histogram; 3];

    fn reps_per_second(&self) -> f64 {
        1.3
    }

    /// `grid_radial_reference` for DD and RR; DR from the union identity
    /// DR = ref(D ∪ R) − DD − RR. The union runs beside DD and RR on a
    /// second thread.
    fn oracle(&self) -> [Histogram; 3] {
        let reference =
            |pts: &SoaPoints<3>| tbs_cpu::grid_radial_reference(pts, self.bins, &self.opts);
        let (union, (dd, rr)) = std::thread::scope(|s| {
            let union = s.spawn(|| {
                let mut all = self.data.clone();
                for p in self.rand.iter() {
                    all.push(p);
                }
                reference(&all)
            });
            let own = (reference(&self.data), reference(&self.rand));
            (union.join().expect("union oracle thread panicked"), own)
        });
        let dr = union
            .counts()
            .iter()
            .zip(dd.counts().iter().zip(rr.counts()))
            .map(|(u, (d, r))| u - d - r)
            .collect();
        [dd, Histogram::from_counts(dr), rr]
    }

    fn matches(&self, oracle: &[Histogram; 3], result: &LsResult) -> bool {
        result.counts == *oracle
    }

    fn solve(&self, dev: &mut Device) -> Result<Solved<LsResult>, SimError> {
        let c = ls_pair_counts(
            dev, &self.data, &self.rand, self.bins, self.plan, &self.opts,
        )?;
        Ok(solved([c.dd, c.dr, c.rr], [c.dd_run, c.dr_run, c.rr_run]))
    }

    /// `ls_pair_counts` made as its public calls, plus probes that time
    /// what its calls do internally: binning and uploading (a catalog
    /// build does both), cell-pair enumeration and launch planning.
    /// Probes repeat work; they add to the traced run only.
    fn solve_traced(
        &self,
        dev: &mut Device,
        rec: &mut Recorder,
        req: u64,
    ) -> Result<Solved<LsResult>, SimError> {
        let top = rec.begin("apps.pcf", "ls_pair_counts", req);
        let got = self.traced_body(dev, rec, req);
        rec.end(top);
        got
    }

    /// Derived: the three sweeps minus the enumeration probe (DD, DR and
    /// RR) and the planning probe (DD and RR). DR's class planning has no
    /// public probe, so it stays in.
    fn launch_s(&self, spans: &[Span]) -> f64 {
        let m = |name| trace::median_per_op(spans, name);
        m("sweep.dd") + m("sweep.dr") + m("sweep.rr") - m("enumerate") - m("plan")
    }

    fn layer_metrics(
        &self,
        spans: &[Span],
        last: &Solved<LsResult>,
        layers: &mut Metrics,
        detail: &mut Metrics,
    ) {
        grid_metrics(&last.result.runs, layers);
        detail.set("apps.gridded.launch_s", self.launch_s(spans), "s");
        for (sweep, run) in ["dd", "dr", "rr"].iter().zip(&last.result.runs) {
            let classes = run.population_classes as f64;
            detail.set(
                format!("apps.gridded.population_classes.{sweep}"),
                classes,
                "count",
            );
        }
    }
}

impl GridLs {
    fn traced_body(
        &self,
        dev: &mut Device,
        rec: &mut Recorder,
        req: u64,
    ) -> Result<Solved<LsResult>, SimError> {
        let geom = rec.span("core.grid", "fit", req, || {
            GridGeometry::fit(&[&self.data, &self.rand], self.bins.r_max, &self.opts)
        });
        // A catalog build bins, then uploads the binned points. The
        // probes time the two apart; the upload probe writes to a scratch
        // device so the measured device's allocations stay as untraced.
        let mut scratch = Device::new(dev.config().clone());
        let mut build = |pts: &SoaPoints<3>| {
            let grid = rec.span("core.grid", "bin", req, || {
                UniformGrid::bin(geom.clone(), pts)
            });
            rec.span("gpu_sim.mem", "upload", req, || {
                black_box(grid.points.upload(&mut scratch));
            });
            rec.span("apps.gridded", "build", req, || {
                GriddedCatalog::build(dev, geom.clone(), pts)
            })
        };
        let dcat = build(&self.data);
        let rcat = build(&self.rand);
        let (dpairs, rpairs) = rec.span("core.grid", "enumerate", req, || {
            let d = candidate_pairs(&dcat.grid);
            let r = candidate_pairs(&rcat.grid);
            let x = candidate_cross_pairs(&dcat.grid, &rcat.grid);
            black_box((
                prune_stats(&dcat.grid, &d),
                prune_stats(&rcat.grid, &r),
                cross_prune_stats(&dcat.grid, &rcat.grid, &x),
            ));
            (d, r)
        });
        rec.span("apps.gridded", "plan", req, || {
            let cost = <Euclidean as DistanceKernel<3>>::cost(&Euclidean);
            let buckets = Some(self.bins.device_spec().buckets);
            black_box(planned_packed_launches(
                dev, &dcat, &dpairs, 3, cost, buckets,
            ));
            black_box(planned_packed_launches(
                dev, &rcat, &rpairs, 3, cost, buckets,
            ));
        });
        let (bins, plan) = (self.bins, self.plan);
        let dd = rec.span("apps.gridded", "sweep.dd", req, || {
            gridded_radial_histogram(dev, &dcat, bins, plan)
        })?;
        let dr = rec.span("apps.gridded", "sweep.dr", req, || {
            gridded_cross_radial_histogram(dev, &dcat, &rcat, bins, plan)
        })?;
        let rr = rec.span("apps.gridded", "sweep.rr", req, || {
            gridded_radial_histogram(dev, &rcat, bins, plan)
        })?;
        Ok(solved(
            [dd.histogram, dr.histogram, rr.histogram],
            [dd.run, dr.run, rr.run],
        ))
    }
}

/// The `core.grid` and `apps.gridded` counts of gridded sweeps over one
/// geometry: summed over the sweeps, except the cell counts, which are
/// those of the first sweep's (left) catalog.
pub fn grid_metrics(runs: &[GriddedRun], layers: &mut Metrics) {
    let sum = |f: fn(&GriddedRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let total = sum(|r| r.stats.total_point_pairs);
    let candidate = sum(|r| r.stats.candidate_point_pairs);
    let first = runs.first().map(|r| r.stats);
    let cells = first.map_or(0, |s| s.cells) as f64;
    let occupied = first.map_or(0, |s| s.occupied_cells) as f64;
    layers.set("core.grid.cells", cells, "count");
    layers.set("core.grid.occupied_cells", occupied, "count");
    layers.set("core.grid.cell_pairs", sum(|r| r.stats.cell_pairs), "count");
    layers.set("core.grid.candidate_pairs", candidate, "count");
    let pruned = if total > 0.0 {
        1.0 - candidate / total
    } else {
        0.0
    };
    layers.set("core.grid.pruned_fraction", pruned, "ratio");
    let classes = sum(|r| r.population_classes as u64);
    layers.set("apps.gridded.population_classes", classes, "count");
    layers.set(
        "apps.gridded.packed_launches",
        sum(|r| r.packed_launches as u64),
        "count",
    );
}
