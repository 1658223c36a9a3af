//! Grid-vs-all-pairs baseline for the spatial front end.
//!
//! Runs the uniform-grid pruned 2-PCF count and the monolithic
//! all-pairs route over the same seeded catalogs (both on the
//! plan-compiled interpreter), asserts the counts are bit-identical
//! (device vs device and vs the CPU grid oracle), prints the
//! structured report, and records `BENCH_sim_gridpath.json` at the
//! repository root.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tbs-bench --bin gridpath_baseline   # N = 65536, 262144, 1048576
//! ```
//!
//! Both routes are measured directly at every size (about 40 s in all
//! on a 2-vCPU host, most of it the all-pairs pass at N = 1048576).
//! The grid is compared with all-pairs in simulated device time, which
//! charges all-pairs for every pair; host wall clock is reported beside
//! it, where the all-pairs count's box culling makes it far cheaper.
//!
//! Acceptance gates: the grid route must beat all-pairs by ≥10× in
//! simulated time at N = 1048576, the cull must prune ≥90 % of the pair
//! mass at N = 262144 in at most 10× population-classes packed
//! launches, and the SpatialPlan model's pick must match the simulated
//! winner at every size — the same floors the perf gate pins. Pass
//! `--json DIR` (or set `TBS_REPORT_DIR`) to also mirror the
//! schema-versioned `sim_gridpath.json` report.

use tbs_bench::experiments::gridpath::{self, GridSample};
use tbs_bench::report;
use tbs_json::Json;

fn main() {
    let sizes = [65_536usize, 262_144, 1_048_576];
    let samples: Vec<GridSample> = sizes.iter().map(|&n| gridpath::measure(n, true)).collect();
    report::emit_result(gridpath::build_report_from(&samples));

    let entry = |s: &GridSample| {
        Json::obj()
            .with("n", s.n)
            .with("pair_count", s.count)
            .with("cells", s.cells)
            .with("occupied_cells", s.occupied_cells)
            .with("launches", s.launches)
            .with("packed_launches", s.packed_launches)
            .with("population_classes", s.population_classes)
            .with("pruned_pair_fraction", s.pruned_fraction)
            .with("culled_row_frac", s.culled_row_frac)
            .with("grid_sim_s", s.grid_sim_s)
            .with("all_pairs_sim_s", s.all_pairs_sim_s)
            .with("grid_vs_allpairs", s.speedup())
            .with("build_s", s.build_s)
            .with("grid_s", s.grid_s)
            .with("all_pairs_s", s.all_pairs_s)
            .with("host_grid_vs_allpairs", s.host_speedup())
            .with("model_speedup", s.model_speedup)
            .with("model_picks_grid", s.model_picks_grid)
            .with("model_agrees", s.model_agrees())
    };
    let doc = Json::obj()
        .with("benchmark", "sim_gridpath")
        .with(
            "workload",
            "uniform-grid pruned 2-PCF count vs monolithic all-pairs, r=5, 100^3 box, \
             target 512 pts/cell, register_shm plan, block=1024, compiled route",
        )
        .with("bit_identical", true)
        .with("sizes", Json::Arr(samples.iter().map(entry).collect()));

    // crates/bench/ -> repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_gridpath.json");
    std::fs::write(path, doc.render().expect("render gridpath JSON"))
        .expect("write BENCH_sim_gridpath.json");
    eprintln!("wrote {path}");

    let big = samples
        .iter()
        .find(|s| s.n == 1_048_576)
        .expect("N=1048576 run");
    let speedup = big.speedup();
    assert!(
        speedup >= 10.0,
        "acceptance gate failed: grid {speedup:.1}x < 10x over all-pairs in simulated time \
         at N=1048576"
    );
    assert!(
        big.model_picks_grid,
        "acceptance gate failed: SpatialPlan still routes all-pairs at N=1048576 \
         (model predicts {:.2}x)",
        big.model_speedup
    );
    let mid = samples
        .iter()
        .find(|s| s.n == 262_144)
        .expect("N=262144 run");
    assert!(
        mid.pruned_fraction >= 0.9,
        "acceptance gate failed: pruned fraction {:.3} < 0.9 at N=262144",
        mid.pruned_fraction
    );
    assert!(
        mid.launches <= 10 * mid.population_classes.max(1),
        "acceptance gate failed: {} packed launches for {} population classes at N=262144 \
         (must stay within 10x; above that the 4096-block chunk cap adds launches)",
        mid.launches,
        mid.population_classes
    );
    for s in &samples {
        assert!(
            s.model_agrees(),
            "acceptance gate failed: SpatialPlan model pick ({}) disagrees with the simulated \
             winner ({:.1}x grid-over-all-pairs) at N={}",
            if s.model_picks_grid {
                "grid"
            } else {
                "all-pairs"
            },
            s.speedup(),
            s.n
        );
    }
    eprintln!(
        "acceptance gates passed: grid {speedup:.1}x >= 10x over all-pairs in simulated \
         time at N=1048576; pruned fraction {:.3} >= 0.9 and launches within 10x of \
         population classes at N=262144; the model pick matches the simulated winner at \
         every size",
        mid.pruned_fraction
    );
}
