//! Grid-vs-all-pairs wall-clock baseline for the spatial front end.
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
//! cargo run --release -p tbs-bench --bin gridpath_baseline            # N = 65536, 262144, 1048576
//! cargo run --release -p tbs-bench --bin gridpath_baseline -- --full  # measure 1M all-pairs directly (~minutes)
//! ```
//!
//! All-pairs is quadratic (~200 s at N = 1048576 here), so by default
//! it is measured directly only up to N = 131072 and projected
//! quadratically above that — the default run stays in CI-smoke
//! territory while `--full` pays for the direct measurement.
//!
//! Acceptance gates: the grid route must beat all-pairs by ≥10× at
//! N = 1048576, the cull must prune ≥90 % of the pair mass at
//! N = 262144 in at most 10× population-classes packed launches, and
//! the SpatialPlan model's pick must match the measured winner at every
//! size — the same floors the perf gate pins. Pass `--json DIR`
//! (or set `TBS_REPORT_DIR`) to also mirror the schema-versioned
//! `sim_gridpath.json` report.

use tbs_bench::experiments::gridpath::{self, GridSample, GridpathConfig};
use tbs_bench::report;
use tbs_json::Json;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let cfg = if full {
        GridpathConfig::full()
    } else {
        GridpathConfig::default_run()
    };
    let sizes = [65_536usize, 262_144, 1_048_576];

    eprintln!(
        "gridpath: measuring the all-pairs anchor at N={}...",
        cfg.anchor_n
    );
    let (anchor_s, _) = gridpath::measure_all_pairs(cfg.anchor_n);
    eprintln!("gridpath: anchor {anchor_s:.3}s");
    let samples: Vec<GridSample> = sizes
        .iter()
        .map(|&n| gridpath::measure(n, &cfg, (cfg.anchor_n, anchor_s)))
        .collect();
    report::emit_result(gridpath::build_report_from(&samples));

    let entry = |s: &GridSample| {
        let mut e = Json::obj()
            .with("n", s.n)
            .with("pair_count", s.count)
            .with("cells", s.cells)
            .with("occupied_cells", s.occupied_cells)
            .with("launches", s.launches)
            .with("packed_launches", s.packed_launches)
            .with("population_classes", s.population_classes)
            .with("pruned_pair_fraction", s.pruned_fraction)
            .with("culled_row_frac", s.culled_row_frac)
            .with("build_s", s.build_s)
            .with("grid_s", s.grid_s);
        if let Some(v) = s.all_pairs_s {
            e = e.with("all_pairs_s", v).with("all_pairs_measured", true);
        } else {
            e = e
                .with("all_pairs_s", s.all_pairs_projected_s)
                .with("all_pairs_measured", false);
        }
        e.with("grid_vs_allpairs", s.speedup())
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
        .with("anchor_n", cfg.anchor_n)
        .with("anchor_all_pairs_s", anchor_s)
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
        "acceptance gate failed: grid {speedup:.1}x < 10x over all-pairs at N=1048576"
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
            "acceptance gate failed: SpatialPlan model pick ({}) disagrees with the measured \
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
        "acceptance gates passed: grid {speedup:.1}x >= 10x over all-pairs at N=1048576 \
         ({}); pruned fraction {:.3} >= 0.9 and launches within 10x of population \
         classes at N=262144; the model pick matches the measured winner at every size",
        if big.all_pairs_s.is_some() {
            "all-pairs measured directly"
        } else {
            "all-pairs projected quadratically from the anchor"
        },
        mid.pruned_fraction
    );
}
