//! Automatic kernel selection — the paper's stated vision ("a framework
//! that can automatically generate optimized code for any new 2-BS
//! problems", §I and §V), built on the analytical models of
//! [`crate::analytic`].
//!
//! Given a problem description, [`choose_plan`] enumerates every feasible
//! (input path × output path × intra mode) combination, predicts each
//! one's runtime with the closed-form profiles and the device timing
//! model, and returns the fastest — reproducing the paper's conclusions
//! (Register-SHM for Type-I, Reg-ROC-Out for Type-II) as *derived*
//! results rather than hard-coded rules.
//!
//! ```
//! use gpu_sim::DeviceConfig;
//! use tbs_core::plan::{choose_plan, ProblemOutput, ProblemSpec};
//!
//! let plan = choose_plan(
//!     &ProblemSpec {
//!         n: 512 * 1024,
//!         dims: 3,
//!         dist_cost: 7,
//!         output: ProblemOutput::Histogram { buckets: 4096 },
//!     },
//!     &DeviceConfig::titan_x(),
//! );
//! // Type-II at paper scale: privatized output wins (§IV-D).
//! assert!(matches!(
//!     plan.spec.output,
//!     tbs_core::analytic::OutputPath::SharedHistogram { .. }
//! ));
//! assert!(plan.predicted_seconds > 0.0);
//! ```

use crate::analytic::profiles::{predicted_run, InputPath, KernelSpec, OutputPath, Workload};
use crate::distance::DistanceKernel;
use crate::kernels::IntraMode;
use crate::output::{OutputClass, PairAction};
use gpu_sim::{CompiledKernel, DeviceConfig};

/// A 2-BS problem, described abstractly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProblemSpec {
    /// Input size.
    pub n: u32,
    /// Point dimensionality.
    pub dims: u32,
    /// ALU cost of one distance evaluation.
    pub dist_cost: u64,
    /// Output shape.
    pub output: ProblemOutput,
}

/// Output requirements of a problem (drives the Type-I/II/III choice).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProblemOutput {
    /// A few registers per thread (2-PCF, kNN, KDE).
    Scalar,
    /// A histogram of `buckets` buckets (SDH, RDF).
    Histogram { buckets: u32 },
}

impl ProblemOutput {
    /// The paper's classification of this output.
    pub fn class(&self, cfg: &DeviceConfig) -> OutputClass {
        match *self {
            ProblemOutput::Scalar => OutputClass::TypeI,
            ProblemOutput::Histogram { buckets } => {
                if buckets * 4 <= cfg.shared_mem_per_block {
                    OutputClass::TypeII
                } else {
                    OutputClass::TypeIII
                }
            }
        }
    }
}

/// The chosen execution plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// Kernel configuration to run.
    pub spec: KernelSpec,
    /// Block size to launch with.
    pub block_size: u32,
    /// Predicted kernel time in seconds.
    pub predicted_seconds: f64,
    /// Every candidate considered, best first (for reports/ablations).
    pub candidates: Vec<(KernelSpec, u32, f64)>,
}

/// Block sizes considered by the planner. The paper uses 1024 (from the
/// optimization model of its reference \[23\]) for the main experiments and
/// 256 for the histogram-size study.
pub const CANDIDATE_BLOCK_SIZES: &[u32] = &[128, 256, 512, 1024];

/// Enumerate feasible kernel specs for a problem on a device.
pub fn feasible_specs(p: &ProblemSpec, cfg: &DeviceConfig, b: u32) -> Vec<KernelSpec> {
    let mut specs = Vec::new();
    let outputs: Vec<OutputPath> = match p.output {
        ProblemOutput::Scalar => vec![OutputPath::RegisterCount],
        ProblemOutput::Histogram { buckets } => {
            let mut v = vec![OutputPath::GlobalHistogram { buckets }];
            if buckets * 4 <= cfg.shared_mem_per_block {
                v.push(OutputPath::SharedHistogram { buckets });
            }
            v
        }
    };
    for input in [
        InputPath::Naive,
        InputPath::ShmShm,
        InputPath::RegisterShm,
        InputPath::RegisterRoc,
        InputPath::Shuffle,
    ] {
        if input == InputPath::Shuffle && !cfg.has_shuffle {
            continue;
        }
        for &output in &outputs {
            // Tiles + privatized output must fit the per-block limit.
            let tile = input.tile_shared_bytes(b, p.dims);
            let out_shm = match output {
                OutputPath::SharedHistogram { buckets } => buckets * 4,
                _ => 0,
            };
            if tile + out_shm > cfg.shared_mem_per_block {
                continue;
            }
            for intra in [IntraMode::Regular, IntraMode::LoadBalanced] {
                // Shuffle has its own intra scheme; only emit one.
                if input == InputPath::Shuffle && intra == IntraMode::LoadBalanced {
                    continue;
                }
                specs.push(KernelSpec {
                    input,
                    output,
                    intra,
                });
            }
        }
    }
    specs
}

/// Lower a whole kernel plan — distance function × output action × tile
/// shape — to a [`CompiledKernel`] of closed-form host passes, computed
/// once before launch instead of re-derived on every warp dispatch.
///
/// Lowering succeeds only when every stage of the plan is expressible in
/// straight-line form: the distance must declare a
/// [`DistanceKernel::compiled_form`] (Euclidean or minimum-image
/// Euclidean), whose ALU charge is its own [`DistanceKernel::cost`], and
/// the action must declare a [`gpu_sim::CompiledSinkSpec`] via
/// [`PairAction::compiled_sink`]. Anything else returns `None` and the
/// kernel runs op by op — as it also does, tile by tile, whenever a
/// *lowered* plan meets a shape the compiled passes decline (non-prefix
/// masks, would-fault accesses, load-balanced intra phases). The
/// op-by-op route doubles as the differential oracle for the compiled
/// one.
pub fn lower_pair_plan<const D: usize, F: DistanceKernel<D>, A: PairAction>(
    cfg: &DeviceConfig,
    dist: &F,
    action: &A,
    tile_len: u32,
) -> Option<CompiledKernel> {
    let form = dist.compiled_form()?;
    let sink = action.compiled_sink()?;
    CompiledKernel::lower(cfg, form, dist.cost(), D as u32, tile_len, sink)
}

/// Which front end a [`SpatialPlan`] selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpatialRoute {
    /// One monolithic all-pairs launch (the pre-grid behavior).
    AllPairs,
    /// Uniform-grid pruning: the surviving cell pairs run as packed
    /// segmented sweeps (a handful of launches per population class).
    Grid,
}

/// Cap on blocks per packed launch — shared with the packed executor
/// (`apps::gridded`) so the planner prices exactly the launch chunking
/// the executor performs.
pub const MAX_PACKED_BLOCKS_PER_LAUNCH: u32 = 4096;

/// Typical number of population classes a fitted grid produces: the
/// occupancy-targeted sizing rule keeps cell lengths within a few
/// octaves of `target_points_per_cell`, so the packed route plans a
/// handful of power-of-two classes regardless of N.
pub const PACKED_CLASS_ESTIMATE: u64 = 4;

/// Residual per-segment overhead of a packed sweep, as a fraction of
/// the per-launch floor: ragged last tiles, the own-register reload at
/// each segment's blocks, and last-block padding. Calibrated against
/// measurements of packed sweeps beside one launch per cell pair,
/// before the per-cell-pair route was deleted; the perf gate's
/// `sim_gridpath.model_agreement` bands now hold it.
pub const PACKED_SEGMENT_OVERHEAD: f64 = 1.0 / 64.0;

/// Closed-form estimate of the packed route's launch count from pruning
/// statistics alone: surviving cell pairs occupy ≈ one block each
/// (occupancy-targeted cells span at most a few blocks), chunked at
/// [`MAX_PACKED_BLOCKS_PER_LAUNCH`] blocks per launch, plus roughly one
/// launch per population class.
pub fn estimate_packed_launches(cell_pairs: u64) -> u64 {
    cell_pairs
        .div_ceil(MAX_PACKED_BLOCKS_PER_LAUNCH as u64)
        .max(1)
        + PACKED_CLASS_ESTIMATE
}

/// The spatial layer above [`ExecutionPlan`]: given the pruning
/// accounting of a built grid ([`crate::grid::PruneStats`]), decide
/// whether the grid front end or the monolithic all-pairs launch is
/// predicted faster.
///
/// The model extends the analytic kernel profiles one level up: the
/// tiled kernels' cost is dominated by pair evaluations, so the grid
/// route costs the all-pairs prediction scaled by the surviving-pair
/// fraction, plus a per-launch floor (one minimal-`n` predicted run)
/// for each *packed* launch ([`estimate_packed_launches`] of them, not
/// one per cell pair), plus a small per-segment residual
/// ([`PACKED_SEGMENT_OVERHEAD`]) for tile raggedness and per-segment
/// register reloads. When pruning is weak — `r_max` comparable to the
/// box, so the fraction approaches 1 — the overhead makes the grid
/// strictly worse and the plan falls back to
/// [`SpatialRoute::AllPairs`]; exactly the graceful degradation the
/// grid's single-cell geometry also provides.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialPlan {
    /// The per-launch kernel plan (shared by both routes: the grid
    /// route launches it once per surviving cell pair).
    pub inner: ExecutionPlan,
    /// The selected front end.
    pub route: SpatialRoute,
    /// Predicted seconds for the monolithic all-pairs launch.
    pub all_pairs_seconds: f64,
    /// Predicted seconds for the grid route (scaled work + launch
    /// floors).
    pub grid_seconds: f64,
}

impl SpatialPlan {
    /// Predicted speedup of the grid route over all-pairs (>1 means
    /// the grid wins).
    pub fn predicted_speedup(&self) -> f64 {
        self.all_pairs_seconds / self.grid_seconds
    }
}

/// Choose between the grid front end and a monolithic all-pairs launch
/// for a problem whose grid produced `stats`.
pub fn choose_spatial_plan(
    p: &ProblemSpec,
    stats: &crate::grid::PruneStats,
    cfg: &DeviceConfig,
) -> SpatialPlan {
    let inner = choose_plan(p, cfg);
    let frac = if stats.total_point_pairs == 0 {
        1.0
    } else {
        stats.candidate_point_pairs as f64 / stats.total_point_pairs as f64
    };
    // Launch floor: the predicted cost of the chosen spec at the
    // smallest launchable size — pure per-launch overhead, paid once
    // per *packed* launch (the executor batches cell pairs into
    // segmented sweeps, so launches scale with population classes).
    let floor_wl = Workload {
        n: inner.block_size.min(p.n.max(1)),
        b: inner.block_size,
        dims: p.dims,
        dist_cost: p.dist_cost,
    };
    let per_launch = predicted_run(&floor_wl, &inner.spec, cfg).timing.seconds;
    let all_pairs_seconds = inner.predicted_seconds;
    let launches = estimate_packed_launches(stats.cell_pairs) as f64;
    let per_segment = per_launch * PACKED_SEGMENT_OVERHEAD;
    let grid_seconds =
        all_pairs_seconds * frac + launches * per_launch + stats.cell_pairs as f64 * per_segment;
    let route = if grid_seconds < all_pairs_seconds {
        SpatialRoute::Grid
    } else {
        SpatialRoute::AllPairs
    };
    SpatialPlan {
        inner,
        route,
        all_pairs_seconds,
        grid_seconds,
    }
}

/// Choose the fastest feasible plan for a problem by analytical
/// prediction.
pub fn choose_plan(p: &ProblemSpec, cfg: &DeviceConfig) -> ExecutionPlan {
    let mut candidates: Vec<(KernelSpec, u32, f64)> = Vec::new();
    for &b in CANDIDATE_BLOCK_SIZES {
        if b > cfg.max_threads_per_block || b > p.n {
            continue;
        }
        let wl = Workload {
            n: p.n,
            b,
            dims: p.dims,
            dist_cost: p.dist_cost,
        };
        for spec in feasible_specs(p, cfg, b) {
            let run = predicted_run(&wl, &spec, cfg);
            candidates.push((spec, b, run.timing.seconds));
        }
    }
    assert!(
        !candidates.is_empty(),
        "no feasible kernel for problem {p:?}"
    );
    candidates.sort_by(|a, b| a.2.total_cmp(&b.2));
    let best = candidates[0];
    ExecutionPlan {
        spec: best.0,
        block_size: best.1,
        predicted_seconds: best.2,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn titan() -> DeviceConfig {
        DeviceConfig::titan_x()
    }

    #[test]
    fn type_i_problems_avoid_the_naive_kernel() {
        // §IV-B conclusion: for 2-PCF-like problems the tiled kernels
        // dominate; Register-SHM is the paper's winner.
        let p = ProblemSpec {
            n: 256 * 1024,
            dims: 3,
            dist_cost: 7,
            output: ProblemOutput::Scalar,
        };
        let plan = choose_plan(&p, &titan());
        assert_ne!(plan.spec.input, InputPath::Naive);
        // The winner must beat naive by a clear margin.
        let naive_time = plan
            .candidates
            .iter()
            .filter(|(s, _, _)| s.input == InputPath::Naive)
            .map(|&(_, _, t)| t)
            .fold(f64::INFINITY, f64::min);
        assert!(naive_time > 2.0 * plan.predicted_seconds);
    }

    #[test]
    fn type_ii_problems_choose_privatized_output() {
        // §IV-D: privatization wins by ~an order of magnitude.
        let p = ProblemSpec {
            n: 256 * 1024,
            dims: 3,
            dist_cost: 7,
            output: ProblemOutput::Histogram { buckets: 2048 },
        };
        let plan = choose_plan(&p, &titan());
        assert!(
            matches!(plan.spec.output, OutputPath::SharedHistogram { .. }),
            "planner chose {:?}",
            plan.spec
        );
        let global_best = plan
            .candidates
            .iter()
            .filter(|(s, _, _)| matches!(s.output, OutputPath::GlobalHistogram { .. }))
            .map(|&(_, _, t)| t)
            .fold(f64::INFINITY, f64::min);
        assert!(global_best > 3.0 * plan.predicted_seconds);
    }

    #[test]
    fn oversized_histograms_fall_back_to_global_memory() {
        // > 48 KB of buckets cannot be privatized in shared memory:
        // Type-III territory.
        let p = ProblemSpec {
            n: 64 * 1024,
            dims: 3,
            dist_cost: 7,
            output: ProblemOutput::Histogram { buckets: 100_000 },
        };
        assert_eq!(
            p.output.class(&titan()),
            crate::output::OutputClass::TypeIII
        );
        let plan = choose_plan(&p, &titan());
        assert!(matches!(
            plan.spec.output,
            OutputPath::GlobalHistogram { .. }
        ));
    }

    #[test]
    fn fermi_never_gets_shuffle_plans() {
        let p = ProblemSpec {
            n: 64 * 1024,
            dims: 3,
            dist_cost: 7,
            output: ProblemOutput::Scalar,
        };
        let plan = choose_plan(&p, &DeviceConfig::fermi_gtx580());
        assert!(plan
            .candidates
            .iter()
            .all(|(s, _, _)| s.input != InputPath::Shuffle));
    }

    #[test]
    fn spatial_plan_picks_grid_when_pruning_is_strong() {
        let p = ProblemSpec {
            n: 1 << 20,
            dims: 3,
            dist_cost: 7,
            output: ProblemOutput::Scalar,
        };
        // Small r_max in a big box: ~99% of pairs pruned over ~2k
        // surviving cell pairs.
        let stats = crate::grid::PruneStats {
            n: 1 << 20,
            cells: 4096,
            occupied_cells: 4096,
            cell_pairs: 2_048,
            candidate_point_pairs: (1u64 << 39) / 100,
            total_point_pairs: 1u64 << 39,
        };
        let plan = choose_spatial_plan(&p, &stats, &titan());
        assert_eq!(plan.route, SpatialRoute::Grid);
        assert!(plan.predicted_speedup() > 10.0, "{plan:?}");
    }

    #[test]
    fn spatial_plan_crossover_sits_well_below_a_million_points() {
        // Pruning statistics mirroring the gridpath bench at
        // N = 65,536 and N = 262,144 (where the measured packed route
        // wins): pricing packed launches instead of per-cell-pair
        // launches must move the model's crossover below both.
        for (n, cell_pairs, frac) in [(65_536u32, 1_161u64, 0.141), (262_144, 5_346, 0.041)] {
            let p = ProblemSpec {
                n,
                dims: 3,
                dist_cost: 7,
                output: ProblemOutput::Scalar,
            };
            let total = n as u64 * (n as u64 - 1) / 2;
            let stats = crate::grid::PruneStats {
                n: n as u64,
                cells: 4096,
                occupied_cells: 4096,
                cell_pairs,
                candidate_point_pairs: (total as f64 * frac) as u64,
                total_point_pairs: total,
            };
            let plan = choose_spatial_plan(&p, &stats, &titan());
            assert_eq!(plan.route, SpatialRoute::Grid, "n={n}: {plan:?}");
            assert!(plan.predicted_speedup() > 1.0, "n={n}: {plan:?}");
        }
    }

    #[test]
    fn spatial_plan_falls_back_when_pruning_is_nil() {
        let p = ProblemSpec {
            n: 4096,
            dims: 3,
            dist_cost: 7,
            output: ProblemOutput::Scalar,
        };
        // r_max ≥ box: single cell, nothing pruned — the launch floor
        // makes the grid route strictly worse.
        let stats = crate::grid::PruneStats {
            n: 4096,
            cells: 1,
            occupied_cells: 1,
            cell_pairs: 1,
            candidate_point_pairs: 4096 * 4095 / 2,
            total_point_pairs: 4096 * 4095 / 2,
        };
        let plan = choose_spatial_plan(&p, &stats, &titan());
        assert_eq!(plan.route, SpatialRoute::AllPairs);
        assert!(plan.grid_seconds > plan.all_pairs_seconds);
    }

    #[test]
    fn candidates_are_sorted_best_first() {
        let p = ProblemSpec {
            n: 32 * 1024,
            dims: 2,
            dist_cost: 5,
            output: ProblemOutput::Scalar,
        };
        let plan = choose_plan(&p, &titan());
        for w in plan.candidates.windows(2) {
            assert!(w[0].2 <= w[1].2);
        }
        assert_eq!(plan.predicted_seconds, plan.candidates[0].2);
    }
}
