//! md-rdf: the molecular-dynamics radial distribution function — a
//! periodic (minimum-image) distance histogram, normalized into g(r).
//!
//! The same exec layer as dense-2pcf used differently: a non-Euclidean
//! distance, a Type-II histogram sink and the cross-copy reduction. The
//! compiled route does not cover the periodic distance, so this
//! workload shows what a compiled generic-distance pass would gain.

use crate::batch::{Batch, Cost, Solved};
use crate::dense::half_pairs;
use crate::trace::Recorder;
use gpu_sim::{AccessTally, Device, KernelRun, SimError};
use tbs_apps::{launch_pairwise, normalize_sdh, rdf_gpu_periodic, PairwisePlan};
use tbs_core::distance::{DistanceKernel, PeriodicEuclidean};
use tbs_core::histogram::{Histogram, HistogramSpec};
use tbs_core::kernels::{pair_launch, HistogramReduceKernel, PairScope};
use tbs_core::output::SharedHistogramAction;
use tbs_core::point::SoaPoints;

pub struct MdRdf {
    pts: SoaPoints<3>,
    box_edge: f32,
    spec: HistogramSpec,
    plan: PairwisePlan,
}

impl MdRdf {
    /// Uniform points in a periodic 60³ box, 120 buckets up to L/2,
    /// Register-SHM with B = 1024; N = 16384, or 512 when `tiny`.
    pub fn new(seed: u64, tiny: bool) -> Self {
        let box_edge = 60.0;
        let n = if tiny { 512 } else { 16_384 };
        MdRdf {
            pts: tbs_datagen::uniform_points(n, box_edge, seed),
            box_edge,
            spec: HistogramSpec::new(120, box_edge / 2.0),
            plan: PairwisePlan::register_shm(if tiny { 128 } else { 1024 }),
        }
    }
}

/// The histogram, the g(r) curve's bits and the modeled tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct RdfResult {
    histogram: Histogram,
    g_bits: Vec<u64>,
    tally: AccessTally,
    sim_bits: u64,
}

/// `sdh_gpu_with` in privatized mode made as its public calls (upload,
/// private-copy allocation, pairwise launch, output allocation,
/// reduction launch), each under a span of op `req`.
pub fn sdh_traced<F: DistanceKernel<3> + Copy>(
    dev: &mut Device,
    pts: &SoaPoints<3>,
    dist: F,
    spec: HistogramSpec,
    plan: PairwisePlan,
    rec: &mut Recorder,
    req: u64,
) -> Result<(Histogram, [KernelRun; 2]), SimError> {
    let input = rec.span("gpu_sim.mem", "upload", req, || pts.upload(dev));
    let lc = pair_launch(input.n, plan.block_size);
    let private = rec.span("gpu_sim.mem", "alloc", req, || {
        dev.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize)
    });
    let pair = rec.span("gpu_sim.exec", "launch", req, || {
        let action = SharedHistogramAction { spec, private };
        launch_pairwise(dev, input, dist, action, plan, PairScope::HalfPairs)
    })?;
    let out = rec.span("gpu_sim.mem", "alloc", req, || {
        dev.alloc_u64_zeroed(spec.buckets as usize)
    });
    let reduce = HistogramReduceKernel {
        private,
        out,
        buckets: spec.buckets,
        copies: lc.grid_dim,
    };
    let reduce = rec.span("gpu_sim.exec", "launch", req, || {
        dev.try_launch(&reduce, reduce.launch_config(256))
    })?;
    let histogram = Histogram::from_counts(dev.u64_slice(out).to_vec());
    Ok((histogram, [pair, reduce]))
}

impl MdRdf {
    fn solved(&self, histogram: Histogram, g: &[f64], runs: &[KernelRun]) -> Solved<RdfResult> {
        let mut cost = Cost {
            pairs: half_pairs(self.pts.len()),
            ..Cost::default()
        };
        for run in runs {
            cost.add_run(run);
        }
        Solved {
            result: RdfResult {
                histogram,
                g_bits: g.iter().map(|x| x.to_bits()).collect(),
                tally: cost.tally.clone(),
                sim_bits: cost.sim_seconds.to_bits(),
            },
            cost,
        }
    }
}

impl Batch for MdRdf {
    type Result = RdfResult;
    type Oracle = Histogram;

    fn reps_per_second(&self) -> f64 {
        0.75
    }

    /// A host loop over every pair: the device's own distance
    /// (`eval_host`) binned by the host bucket rule.
    fn oracle(&self) -> Histogram {
        let dist = PeriodicEuclidean::new(self.box_edge);
        let mut h = Histogram::zeroed(self.spec.buckets);
        let n = self.pts.len();
        for i in 0..n {
            let a = self.pts.point(i);
            for j in i + 1..n {
                h.add(self.spec.bucket_of(dist.eval_host(&a, &self.pts.point(j))));
            }
        }
        h
    }

    fn matches(&self, oracle: &Histogram, result: &RdfResult) -> bool {
        result.histogram == *oracle
    }

    fn solve(&self, dev: &mut Device) -> Result<Solved<RdfResult>, SimError> {
        let (rdf, sdh) = rdf_gpu_periodic(dev, &self.pts, self.spec, self.box_edge, self.plan)?;
        let runs = [
            sdh.pair_run,
            sdh.reduce_run.expect("privatized SDH reduces"),
        ];
        Ok(self.solved(sdh.histogram, &rdf.g, &runs))
    }

    fn solve_traced(
        &self,
        dev: &mut Device,
        rec: &mut Recorder,
        req: u64,
    ) -> Result<Solved<RdfResult>, SimError> {
        let top = rec.begin("apps.rdf", "rdf_gpu_periodic", req);
        let dist = PeriodicEuclidean::new(self.box_edge);
        let got = sdh_traced(dev, &self.pts, dist, self.spec, self.plan, rec, req);
        let got = got.map(|(histogram, runs)| {
            let g = rec.span("apps.rdf", "normalize", req, || {
                let volume = (self.box_edge as f64).powi(3);
                let mut rdf = normalize_sdh(&histogram, self.spec, self.pts.len() as u64, volume);
                rdf.g.pop();
                rdf.g
            });
            self.solved(histogram, &g, &runs)
        });
        rec.end(top);
        got
    }
}
