//! dense-2pcf: the paper's Type-I kernel on a uniform box, all pairs.
//!
//! Almost all of its time is in `gpu_sim.exec`'s compiled inner passes
//! and tile loads. N = 131072 sits on the simulated-L2 memo cliff, so
//! tile-fetch and block-ordering work shows here. It bypasses the grid
//! and the service.

use crate::batch::{Batch, Cost, Solved};
use crate::trace::Recorder;
use gpu_sim::{AccessTally, Device, KernelRun, SimError};
use tbs_apps::{launch_pairwise, pcf_gpu, PairwisePlan};
use tbs_core::distance::Euclidean;
use tbs_core::kernels::{pair_launch, PairScope};
use tbs_core::output::CountWithinRadius;
use tbs_core::point::SoaPoints;

pub struct Dense2pcf {
    pts: SoaPoints<3>,
    radius: f32,
    plan: PairwisePlan,
}

impl Dense2pcf {
    /// Uniform 100³ box, r = 25, Register-SHM with B = 1024; N = 131072,
    /// or 512 when `tiny`.
    pub fn new(seed: u64, tiny: bool) -> Self {
        let n = if tiny { 512 } else { 131_072 };
        Dense2pcf {
            pts: tbs_datagen::uniform_points(n, 100.0, seed),
            radius: 25.0,
            plan: PairwisePlan::register_shm(if tiny { 128 } else { 1024 }),
        }
    }
}

/// The count plus the modeled tallies it must repeat with.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseResult {
    count: u64,
    tally: AccessTally,
    sim_bits: u64,
}

/// Unordered pairs of `n` points.
pub fn half_pairs(n: usize) -> u64 {
    let n = n as u64;
    n * n.saturating_sub(1) / 2
}

fn solved(count: u64, run: &KernelRun, n: usize) -> Solved<DenseResult> {
    let mut cost = Cost {
        pairs: half_pairs(n),
        ..Cost::default()
    };
    cost.add_run(run);
    Solved {
        result: DenseResult {
            count,
            tally: run.tally.clone(),
            sim_bits: run.timing.seconds.to_bits(),
        },
        cost,
    }
}

/// `pcf_gpu` made as its public calls (upload, output allocation,
/// pairwise launch, host fold), each under a span of op `req`.
pub fn pcf_traced(
    dev: &mut Device,
    pts: &SoaPoints<3>,
    radius: f32,
    plan: PairwisePlan,
    rec: &mut Recorder,
    req: u64,
) -> Result<(u64, KernelRun), SimError> {
    let input = rec.span("gpu_sim.mem", "upload", req, || pts.upload(dev));
    let lc = pair_launch(input.n, plan.block_size);
    let out = rec.span("gpu_sim.mem", "alloc", req, || {
        dev.alloc_u64_zeroed(lc.total_threads() as usize)
    });
    let run = rec.span("gpu_sim.exec", "launch", req, || {
        let action = CountWithinRadius { radius, out };
        launch_pairwise(dev, input, Euclidean, action, plan, PairScope::HalfPairs)
    })?;
    let count = rec.span("apps.pcf", "fold", req, || {
        dev.u64_slice(out).iter().sum::<u64>()
    });
    Ok((count, run))
}

impl Batch for Dense2pcf {
    type Result = DenseResult;
    type Oracle = u64;

    fn reps_per_second(&self) -> f64 {
        1.0
    }

    fn oracle(&self) -> u64 {
        tbs_cpu::count_within_reference(&self.pts, self.radius)
    }

    fn matches(&self, oracle: &u64, result: &DenseResult) -> bool {
        result.count == *oracle
    }

    fn solve(&self, dev: &mut Device) -> Result<Solved<DenseResult>, SimError> {
        let r = pcf_gpu(dev, &self.pts, self.radius, self.plan)?;
        Ok(solved(r.count, &r.run, self.pts.len()))
    }

    fn solve_traced(
        &self,
        dev: &mut Device,
        rec: &mut Recorder,
        req: u64,
    ) -> Result<Solved<DenseResult>, SimError> {
        let top = rec.begin("apps.pcf", "pcf_gpu", req);
        let got = pcf_traced(dev, &self.pts, self.radius, self.plan, rec, req);
        rec.end(top);
        let (count, run) = got?;
        Ok(solved(count, &run, self.pts.len()))
    }

    fn sequential_probe(&self) -> bool {
        true
    }
}
