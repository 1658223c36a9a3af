//! **Grid vs all-pairs** — the uniform-grid spatial front end against
//! the monolithic all-pairs route, in simulated device time, with the
//! host's wall clock alongside.
//!
//! The grid's claim is sub-quadratic *device* work: the simulated GPU
//! charges an all-pairs count for every pair (Type-I charges depend on
//! point indices only), while the grid route launches only the
//! candidate cell pairs. So the headline ratio `grid_vs_allpairs` and
//! `model_agreement` compare simulated seconds — the quantity
//! [`choose_spatial_plan`] prices — and are deterministic for a given
//! catalog. Both routes run the plan-compiled interpreter
//! (`with_compiled(true)`), the same Register-SHM plan and the same
//! seeded uniform catalog, and both are measured directly at every
//! size; nothing is projected. The grid route's count is asserted
//! bit-identical against the all-pairs route at every size, and
//! against the CPU grid oracle when asked.
//!
//! Host wall clock answers a different question and is reported, not
//! gated against all-pairs: `pcf_gpu` uploads in Morton order and its
//! compiled passes skip the tile chunks a box test proves out of range,
//! so the host pays far less than the simulated pair work for an
//! all-pairs count. At the reference radius a culled all-pairs sweep
//! rivals the grid on the host (`host_grid_vs_allpairs`).
//!
//! The grid route runs packed launches (segmented multi-cell-pair
//! launches, O(population classes) launches). The perf gate pins three
//! floors (group `host`, though the first and last are deterministic):
//! `grid_vs_allpairs.n1048576 ≥ 10` — the headline ≥10× win —
//! `pruned_pair_fraction.n262144 ≥ 0.9` at the reference r_max, and
//! `model_agreement ≥ 1` at the gate sizes (the SpatialPlan model's
//! pick matches the simulated winner).
//!
//! Each size also runs a bounded radial histogram (10 bins to r_max)
//! and reports `culled_row_frac`: the share of its histogram rows (one
//! partner against a warp) that compiled passes culled as provably
//! landing in the overflow bucket. The row, launch and class counts of
//! that sweep are deterministic, so the functional gate floors the cull
//! and pins the launches and classes exactly at CI size
//! ([`build_cull_report`]): a change that silently stops culling, or
//! that packs into more launches, fails.

use std::time::Instant;

use crate::report::{Cell, Report, ReportError, SeriesTable};
use gpu_sim::{Device, DeviceConfig};
use tbs_apps::{
    gridded_count_within, gridded_radial_histogram, pcf_gpu, GriddedCatalog, GriddedRun,
    PairwisePlan,
};
use tbs_core::grid::{GridOptions, RadialBins};
use tbs_core::plan::{choose_spatial_plan, ProblemOutput, ProblemSpec, SpatialRoute};
use tbs_core::point::SoaPoints;
use tbs_cpu::grid_pcf_device_reference;
use tbs_datagen::uniform_points;

/// The reference radius: small against the box, the regime the grid
/// exists for (CUTE/FCFC-style correlation scales).
pub const R_MAX: f32 = 5.0;
pub const BOX: f32 = 100.0;
pub const SEED: u64 = 23;
pub const BLOCK: u32 = 1024;

/// Points per cell the sizing rule aims for. ~512 was chosen to balance
/// candidate fraction (∝ target/N) against per-cell-pair launch
/// overhead (∝ N/target) before launch packing; it has not been
/// re-measured since (ROADMAP item 6).
pub const TARGET_PTS: u32 = 512;

/// The reference grid options every measurement uses.
pub fn grid_options() -> GridOptions {
    GridOptions {
        target_points_per_cell: TARGET_PTS,
        max_cells: 1 << 20,
    }
}

/// Both routes run the fastest host route: the plan-compiled
/// interpreter.
fn device() -> Device {
    Device::new(DeviceConfig::titan_x().with_compiled(true))
}

/// One problem size's grid-vs-all-pairs measurement.
#[derive(Debug, Clone)]
pub struct GridSample {
    pub n: usize,
    /// Within-radius pair count (bit-identical across all routes).
    pub count: u64,
    /// Wall-clock of binning + the one-shot SoA upload alone.
    pub build_s: f64,
    /// Total grid-route wall-clock: build + every packed launch.
    pub grid_s: f64,
    /// Simulated device seconds of the grid route's packed launches.
    pub grid_sim_s: f64,
    pub cells: u64,
    pub occupied_cells: u64,
    pub launches: u64,
    /// Packed launches actually issued (≤ ~10× classes).
    pub packed_launches: u64,
    /// Distinct cell-population classes the packer planned for.
    pub population_classes: u64,
    /// Fraction of the N(N−1)/2 pair mass culled before any kernel ran.
    pub pruned_fraction: f64,
    /// Share of a radial histogram's rows culled inside compiled passes
    /// ([`cull_sweep`]).
    pub culled_row_frac: f64,
    /// The [`choose_spatial_plan`] analytic model's predicted speedup.
    pub model_speedup: f64,
    /// Whether the model routed to the grid. On the *modeled* GPU the
    /// per-launch floor makes all-pairs win at small N; the model must
    /// flip to the grid by N = 1048576 (asserted by the bin).
    pub model_picks_grid: bool,
    /// Measured all-pairs wall-clock (`pcf_gpu`, Morton-ordered).
    pub all_pairs_s: f64,
    /// Simulated device seconds of the all-pairs launch.
    pub all_pairs_sim_s: f64,
}

impl GridSample {
    /// The headline ratio: all-pairs over grid simulated device time.
    pub fn speedup(&self) -> f64 {
        self.all_pairs_sim_s / self.grid_sim_s
    }

    /// All-pairs over grid wall-clock on this host.
    pub fn host_speedup(&self) -> f64 {
        self.all_pairs_s / self.grid_s
    }

    /// Whether the SpatialPlan model's pick matches the simulated winner
    /// (grid iff the grid route's simulated time beats all-pairs').
    pub fn model_agrees(&self) -> bool {
        self.model_picks_grid == (self.speedup() > 1.0)
    }
}

/// The profile of a packed radial histogram (10 bins to the reference
/// radius) over `cat`: its culled-row share, launches and population
/// classes. Deterministic for a given catalog.
pub fn cull_sweep(dev: &mut Device, cat: &GriddedCatalog<3>) -> GriddedRun {
    let bins = RadialBins::new(10, R_MAX);
    gridded_radial_histogram(dev, cat, bins, PairwisePlan::register_shm(BLOCK))
        .expect("gridded histogram")
        .run
}

/// The functional-gate report: [`cull_sweep`] on the reference uniform
/// catalog at each of `sizes`, without any wall-clock legs.
pub fn build_cull_report(sizes: &[usize]) -> Result<Report, ReportError> {
    if sizes.is_empty() {
        return Err(ReportError::EmptySeries {
            what: "gridpath cull size list".to_string(),
        });
    }
    let mut rep = Report::new(
        "gridpath_cull",
        "Row culling — share of histogram rows culled in compiled passes",
    )
    .with_context(&format!(
        "uniform catalog in a {BOX}^3 box, packed radial histogram of 10 bins \
         to r={R_MAX}, target {TARGET_PTS} pts/cell, compiled route"
    ));
    let mut t = SeriesTable::new("sizes", &["N", "culled", "classes", "launches"]);
    for &n in sizes {
        let pts = uniform_points::<3>(n, BOX, SEED);
        let mut dev = device();
        let cat = GriddedCatalog::build_self(&mut dev, &pts, R_MAX, &grid_options());
        let run = cull_sweep(&mut dev, &cat);
        let frac = run.culled_row_frac();
        let (classes, launches) = (run.population_classes, run.packed_launches);
        t.row(vec![
            Cell::int(n as u64),
            Cell::num(frac, format!("{:.1}%", frac * 100.0)),
            Cell::int(classes.into()),
            Cell::int(launches.into()),
        ]);
        rep.metric(&format!("culled_row_frac.n{n}"), frac, "frac")?;
        rep.metric(&format!("packed_launches.n{n}"), launches.into(), "count")?;
        rep.metric(&format!("population_classes.n{n}"), classes.into(), "count")?;
    }
    rep.push_table(t);
    rep.push_note(
        "culled = histogram rows (one partner against a warp's active lanes)\n\
         whose partner lies at least the overflow edge from the warp's bounding\n\
         box, charged in closed form instead of bucketed and walked. classes\n\
         and launches are the sweep's population classes and packed launches.",
    );
    Ok(rep)
}

/// Measure the all-pairs route once over `pts` (compiled interpreter):
/// wall-clock seconds, simulated seconds and the count.
pub fn measure_all_pairs(pts: &SoaPoints<3>) -> (f64, f64, u64) {
    let mut dev = device();
    let t = Instant::now();
    let r = pcf_gpu(&mut dev, pts, R_MAX, PairwisePlan::register_shm(BLOCK)).expect("launch");
    (t.elapsed().as_secs_f64(), r.run.timing.seconds, r.count)
}

/// Measure one size: grid route, CPU oracle cross-check (when `oracle`)
/// and the all-pairs route, whose count the grid's must equal.
pub fn measure(n: usize, oracle: bool) -> GridSample {
    let pts = uniform_points::<3>(n, BOX, SEED);
    eprintln!("gridpath N={n}: binning + one SoA catalog upload...");
    let mut dev = device();
    let t = Instant::now();
    let cat = GriddedCatalog::build_self(&mut dev, &pts, R_MAX, &grid_options());
    let build_s = t.elapsed().as_secs_f64();
    let res = gridded_count_within(&mut dev, &cat, R_MAX, PairwisePlan::register_shm(BLOCK))
        .expect("gridded launch");
    let grid_s = t.elapsed().as_secs_f64();
    let stats = res.run.stats;
    eprintln!(
        "gridpath N={n}: grid {grid_s:.3}s (build {build_s:.3}s, {} launches over {} \
         population classes, {}/{} cells, {:.1}% of pairs pruned)",
        res.run.launches(),
        res.run.population_classes,
        stats.occupied_cells,
        stats.cells,
        stats.pruned_fraction() * 100.0
    );

    let culled_row_frac = cull_sweep(&mut dev, &cat).culled_row_frac();

    if oracle {
        eprintln!("gridpath N={n}: CPU grid oracle cross-check...");
        let t = Instant::now();
        // The device predicate is `√dist² < r`, so the cross-engine
        // oracle must mirror that arithmetic (not the CPU comparator's
        // sqrt-free `dist² < r²`, which flips rare boundary pairs).
        let want = grid_pcf_device_reference(&pts, R_MAX, &grid_options());
        assert_eq!(
            res.count, want,
            "grid-pruned device count diverged from the CPU oracle at N={n}"
        );
        eprintln!(
            "gridpath N={n}: oracle agreed ({want} pairs) in {:.3}s",
            t.elapsed().as_secs_f64()
        );
    }

    eprintln!("gridpath N={n}: all-pairs pass...");
    let (all_pairs_s, all_pairs_sim_s, count) = measure_all_pairs(&pts);
    assert_eq!(
        res.count, count,
        "grid-pruned count diverged from the all-pairs route at N={n}"
    );
    eprintln!(
        "gridpath N={n}: all-pairs {all_pairs_s:.3}s host ({:.1}x), simulated {:.1}x",
        all_pairs_s / grid_s,
        all_pairs_sim_s / res.run.seconds
    );

    // The analytic SpatialPlan model's verdict on the same pruning
    // stats. Note this models the *GPU*, not this host: its per-launch
    // floor legitimately keeps all-pairs ahead at small N, and the bin
    // asserts the route flips to the grid by N = 1048576.
    let spatial = choose_spatial_plan(
        &ProblemSpec {
            n: n as u32,
            dims: 3,
            dist_cost: 7,
            output: ProblemOutput::Scalar,
        },
        &stats,
        &DeviceConfig::titan_x(),
    );

    GridSample {
        n,
        count: res.count,
        build_s,
        grid_s,
        grid_sim_s: res.run.seconds,
        cells: stats.cells as u64,
        occupied_cells: stats.occupied_cells as u64,
        launches: u64::from(res.run.launches()),
        packed_launches: u64::from(res.run.packed_launches),
        population_classes: u64::from(res.run.population_classes),
        pruned_fraction: stats.pruned_fraction(),
        culled_row_frac,
        model_speedup: spatial.predicted_speedup(),
        model_picks_grid: spatial.route == SpatialRoute::Grid,
        all_pairs_s,
        all_pairs_sim_s,
    }
}

/// Build the grid-vs-all-pairs report over `sizes`, cross-checking
/// every grid count against the CPU grid oracle when `oracle`.
pub fn build_report(sizes: &[usize], oracle: bool) -> Result<Report, ReportError> {
    if sizes.is_empty() {
        return Err(ReportError::EmptySeries {
            what: "gridpath size list".to_string(),
        });
    }
    let samples: Vec<GridSample> = sizes.iter().map(|&n| measure(n, oracle)).collect();
    build_report_from(&samples)
}

/// Assemble the report from already-taken measurements.
pub fn build_report_from(samples: &[GridSample]) -> Result<Report, ReportError> {
    let mut rep = Report::new(
        "sim_gridpath",
        "Spatial pruning — grid vs all-pairs, simulated device time and host wall clock",
    )
    .with_context(&format!(
        "uniform-grid front end vs monolithic all-pairs, 2-PCF count, \
         r={R_MAX}, {BOX}^3 box, target {TARGET_PTS} pts/cell, \
         register_shm plan, block={BLOCK}, compiled interpreter route"
    ));
    let mut t = SeriesTable::new(
        "sizes",
        &[
            "N",
            "count",
            "cells",
            "occ",
            "classes",
            "launches",
            "pruned",
            "culled",
            "sim_x",
            "model_x",
            "build_s",
            "grid_s",
            "allpairs_s",
            "host_x",
        ],
    );
    for s in samples {
        t.row(vec![
            Cell::int(s.n as u64),
            Cell::int(s.count),
            Cell::int(s.cells),
            Cell::int(s.occupied_cells),
            Cell::int(s.population_classes),
            Cell::int(s.launches),
            Cell::num(
                s.pruned_fraction,
                format!("{:.1}%", s.pruned_fraction * 100.0),
            ),
            Cell::num(
                s.culled_row_frac,
                format!("{:.1}%", s.culled_row_frac * 100.0),
            ),
            Cell::num(s.speedup(), format!("{:.1}x", s.speedup())),
            Cell::num(
                s.model_speedup,
                format!(
                    "{:.1}x {}",
                    s.model_speedup,
                    if s.model_picks_grid {
                        "grid"
                    } else {
                        "allpairs"
                    }
                ),
            ),
            Cell::num(s.build_s, format!("{:.3}", s.build_s)),
            Cell::num(s.grid_s, format!("{:.3}", s.grid_s)),
            Cell::num(s.all_pairs_s, format!("{:.3}", s.all_pairs_s)),
            Cell::num(s.host_speedup(), format!("{:.1}x", s.host_speedup())),
        ]);
        rep.metric(&format!("grid_vs_allpairs.n{}", s.n), s.speedup(), "x")?;
        rep.metric(
            &format!("pruned_pair_fraction.n{}", s.n),
            s.pruned_fraction,
            "frac",
        )?;
        rep.metric(&format!("grid_s.n{}", s.n), s.grid_s, "s")?;
        rep.metric(
            &format!("host_grid_vs_allpairs.n{}", s.n),
            s.host_speedup(),
            "x",
        )?;
        rep.metric(
            &format!("culled_row_frac.n{}", s.n),
            s.culled_row_frac,
            "frac",
        )?;
        rep.metric(&format!("model_speedup.n{}", s.n), s.model_speedup, "x")?;
        rep.metric(
            &format!("model_agreement.n{}", s.n),
            if s.model_agrees() { 1.0 } else { 0.0 },
            "bool",
        )?;
    }
    rep.push_table(t);
    rep.push_note(
        "sim_x is all-pairs over grid in simulated device seconds: the same\n\
         compiled interpreter executing only the candidate cell pairs the\n\
         min-distance cull leaves alive, vs the monolithic all-pairs launch,\n\
         which the device model charges for every pair. grid_s runs packed\n\
         launches (segmented multi-cell-pair launches, O(population classes)\n\
         launches). Counts are bit-identical across the grid route, the\n\
         all-pairs route and, when checked, the CPU grid oracle.\n\
         culled is the share of a 10-bin radial histogram's rows that compiled\n\
         passes culled as provably landing in the overflow bucket.\n\
         model_x is the SpatialPlan analytic model's predicted speedup from the\n\
         same pruning stats on the modeled GPU.\n\
         host_x is all-pairs over grid in wall clock on this host, both measured:\n\
         the all-pairs upload is Morton-ordered and its compiled passes skip\n\
         tile chunks a box test proves out of range, so the host pays far less\n\
         than the pair work the device is charged for.",
    );
    Ok(rep)
}
