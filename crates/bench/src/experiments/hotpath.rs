//! **Host throughput** — wall-clock cost of the simulator interpreter
//! itself, across its three routes: the retained scalar reference, the
//! vectorized op-by-op fast paths (`with_compiled(false)`), and the
//! shipping default — the plan-compiled route that lowers whole kernel
//! plans, Type-II output stage included, to closed-form host passes.
//!
//! Unlike every other experiment, this one measures *this machine*, not
//! the modeled GPU: it runs two workloads through the functional
//! simulator once per route — the fig2-style 2-PCF (Type-I output) and
//! a privatized SDH on the Register-SHM plan (Type-II output: histogram
//! scatters in the inner loop plus the Figure-3 cross-copy reduction) —
//! asserts all routes are bit-identical (pair count / histogram, full
//! `AccessTally`, simulated timing), and reports wall-clock times plus
//! the compiled route's interpreter statistics (dispatch count, compiled
//! lane coverage).
//!
//! Every route runs under the config-default block executor
//! (`ExecMode::Parallel { threads: 0 }`); one extra sequential run of
//! the compiled route cross-checks that the speculative parallel engine
//! is bit-identical to the reference block order, and the ratio of the
//! two wall-clock times is reported.
//!
//! The perf gate runs it at a reduced size and pins generous floors on
//! it (see `report::gate`, group `host`).

use std::time::Instant;

use crate::report::{Cell, Report, ReportError, SeriesTable};
use gpu_sim::config::ExecMode;
use gpu_sim::{AccessTally, Device, DeviceConfig, InterpStats};
use tbs_apps::{launch_pairwise, pcf_gpu, sdh_gpu, PairwisePlan, SdhOutputMode};
use tbs_core::distance::Euclidean;
use tbs_core::histogram::{Histogram, HistogramSpec};
use tbs_core::kernels::PairScope;
use tbs_core::output::{MultiCountSink, MultiHistSink, MultiQueryAction};
use tbs_datagen::uniform_points;

/// Workload constants, fixed so every measurement is comparable.
pub const RADIUS: f32 = 25.0;
pub const BOX: f32 = 100.0;
pub const SEED: u64 = 11;
pub const BLOCK: u32 = 1024;

/// Histogram size for the Type-II (SDH) workload: one private `u32`
/// copy is 1 KiB of shared memory, small next to the 12 KiB point tile.
pub const SDH_BUCKETS: u32 = 256;

/// The Type-II histogram spec: `SDH_BUCKETS` buckets over the box
/// diagonal, so every pair distance bins without clamping.
pub fn sdh_spec() -> HistogramSpec {
    HistogramSpec::new(SDH_BUCKETS, tbs_datagen::box_diagonal(BOX, 3))
}

/// The block executor every measured pass runs under: the config
/// default (parallel, one worker per host core). The compiled route
/// gets one extra [`ExecMode::Sequential`] pass as the engine
/// cross-check.
pub fn bench_exec() -> ExecMode {
    ExecMode::Parallel { threads: 0 }
}

#[derive(Clone, Copy, PartialEq)]
enum Route {
    Scalar,
    Vectorized,
    Compiled,
}

/// Which of the two workloads a measurement runs.
#[derive(Clone, Copy, PartialEq)]
enum Workload {
    /// fig2 2-PCF, Type-I output.
    Pcf,
    /// Privatized SDH, Type-II output plus the cross-copy reduction.
    Sdh,
}

impl Workload {
    fn label(self) -> &'static str {
        match self {
            Workload::Pcf => "",
            Workload::Sdh => "SDH ",
        }
    }
}

/// One problem size's per-route measurement.
#[derive(Debug, Clone)]
pub struct Sample {
    pub n: usize,
    pub pair_count: u64,
    /// Wall-clock seconds with the scalar-reference interpreter.
    pub scalar_s: f64,
    /// Wall-clock seconds with the vectorized op-by-op route.
    pub fast_s: f64,
    /// Wall-clock seconds with the plan-compiled route (the shipping
    /// default).
    pub compiled_s: f64,
    /// Wall-clock seconds of the compiled route under the sequential
    /// block executor — the engine cross-check (everything else runs
    /// under [`bench_exec`]).
    pub compiled_seq_s: f64,
    /// Executed lane slots (useful + predicated) — the work measure
    /// behind the throughput numbers.
    pub lane_ops: u64,
    /// Fraction of useful lane work absorbed by compiled passes.
    pub compiled_coverage: f64,
}

impl Sample {
    /// Scalar reference over the compiled route — the whole interpreter
    /// stack.
    pub fn speedup(&self) -> f64 {
        self.scalar_s / self.compiled_s
    }

    /// Scalar reference over vectorized — what the op-by-op fast paths
    /// alone buy.
    pub fn vectorized_speedup(&self) -> f64 {
        self.scalar_s / self.fast_s
    }

    /// Vectorized over compiled — what plan compilation buys on top of
    /// the op-by-op fast paths.
    pub fn compiled_vs_vectorized(&self) -> f64 {
        self.fast_s / self.compiled_s
    }

    /// Sequential over parallel wall-clock on the compiled route: > 1
    /// when the parallel engine wins.
    pub fn parallel_vs_sequential(&self) -> f64 {
        self.compiled_seq_s / self.compiled_s
    }

    /// Lane throughput of the compiled route.
    pub fn lane_ops_per_s(&self) -> f64 {
        self.lane_ops as f64 / self.compiled_s
    }

    /// Absolute cost of the compiled route: wall-clock nanoseconds per
    /// distinct pair, `compiled_s` over N(N−1)/2.
    pub fn compiled_ns_per_pair(&self) -> f64 {
        let n = self.n as f64;
        self.compiled_s * 1e9 / (n * (n - 1.0) / 2.0)
    }
}

fn route_config(route: Route, exec: ExecMode) -> DeviceConfig {
    let cfg = DeviceConfig::titan_x().with_exec_mode(exec);
    match route {
        Route::Scalar => cfg.with_scalar_reference(true),
        Route::Vectorized => cfg.with_compiled(false),
        Route::Compiled => cfg, // compiled is the preset default
    }
}

/// One small untimed launch per engine before any timed pass: the very
/// first launch in a process pays one-off costs (thread spin-up, heap
/// growth, cold i-cache) that would otherwise be billed to whichever
/// route happens to run first and skew its ratios.
fn warm_up() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let pts = uniform_points::<3>(4096, BOX, SEED);
        for exec in [bench_exec(), ExecMode::Sequential] {
            let mut dev = Device::new(route_config(Route::Compiled, exec));
            pcf_gpu(&mut dev, &pts, RADIUS, PairwisePlan::register_shm(BLOCK)).expect("warm-up");
        }
    });
}

/// Everything one route's run of a workload reports: the result (pair
/// count or histogram) plus the folded tally, interpreter statistics
/// and simulated cycles of every kernel it launched.
struct Run {
    count: u64,
    histogram: Option<Histogram>,
    tally: AccessTally,
    interp: InterpStats,
    /// Simulated seconds per launched kernel, in launch order.
    sim_seconds: Vec<u64>,
    /// Per-kernel tallies, in launch order (the identity contract is
    /// per kernel, not just for the fold).
    tallies: Vec<AccessTally>,
    /// Compiled passes of the SDH's cross-copy reduction kernel.
    reduce_compiled_ops: u64,
}

/// Runs every leg makes at least: a single run is at the mercy of one
/// scheduler hiccup, or of a stretch in which another tenant holds the
/// host's second core.
const MIN_RUNS: u32 = 3;
/// Wall-clock every leg keeps repeating for, at least: a 10 ms pass
/// gets many more than [`MIN_RUNS`] tries.
const MIN_BUDGET_S: f64 = 1.0;

/// Time each leg — a `(route, block executor)` pair — on a workload.
/// Every leg follows one rule, whatever its length: it repeats until it
/// has run at least [`MIN_RUNS`] times and for at least
/// [`MIN_BUDGET_S`] in total, and reports its best time, so no leg
/// changes statistic with host load and ratios stay fair. Repeats are
/// interleaved across the legs, so a slow stretch of the host hits them
/// alike. The returned run is each leg's first.
fn timed_runs(n: usize, work: Workload, legs: &[(Route, ExecMode)]) -> Vec<(f64, Run)> {
    let mut out: Vec<(f64, Run)> = legs
        .iter()
        .map(|&(route, exec)| run_once(n, work, route, exec))
        .collect();
    let mut spent: Vec<(u32, f64)> = out.iter().map(|(s, _)| (1, *s)).collect();
    let more = |&(runs, secs): &(u32, f64)| runs < MIN_RUNS || secs < MIN_BUDGET_S;
    while spent.iter().any(more) {
        for ((leg, tally), &(route, exec)) in out.iter_mut().zip(&mut spent).zip(legs) {
            if more(tally) {
                let s = run_once(n, work, route, exec).0;
                leg.0 = leg.0.min(s);
                *tally = (tally.0 + 1, tally.1 + s);
            }
        }
    }
    out
}

fn run_once(n: usize, work: Workload, route: Route, exec: ExecMode) -> (f64, Run) {
    let pts = uniform_points::<3>(n, BOX, SEED);
    let mut dev = Device::new(route_config(route, exec));
    let plan = PairwisePlan::register_shm(BLOCK);
    let t = Instant::now();
    let (count, histogram, runs) = match work {
        Workload::Pcf => {
            let r = pcf_gpu(&mut dev, &pts, RADIUS, plan).expect("launch");
            (r.count, None, vec![r.run])
        }
        Workload::Sdh => {
            let r = sdh_gpu(&mut dev, &pts, sdh_spec(), plan, SdhOutputMode::Privatized)
                .expect("launch");
            let mut runs = vec![r.pair_run];
            runs.extend(r.reduce_run);
            (r.histogram.total(), Some(r.histogram), runs)
        }
    };
    let secs = t.elapsed().as_secs_f64();
    let mut tally = AccessTally::new();
    let mut interp = InterpStats::default();
    for r in &runs {
        tally.merge(&r.tally);
        interp.merge(&r.interp);
    }
    let run = Run {
        count,
        histogram,
        tally,
        interp,
        sim_seconds: runs.iter().map(|r| r.timing.seconds.to_bits()).collect(),
        tallies: runs.iter().map(|r| r.tally.clone()).collect(),
        reduce_compiled_ops: runs.get(1).map_or(0, |r| r.interp.compiled_ops),
    };
    (secs, run)
}

fn assert_routes_identical(n: usize, a: &Run, b: &Run, what: &str) {
    assert_eq!(a.count, b.count, "pair count diverged ({what}) at N={n}");
    assert_eq!(
        a.histogram, b.histogram,
        "histogram diverged ({what}) at N={n}"
    );
    assert_eq!(a.tallies, b.tallies, "tally diverged ({what}) at N={n}");
    assert_eq!(
        a.sim_seconds, b.sim_seconds,
        "simulated time diverged ({what}) at N={n}"
    );
}

/// Measure the 2-PCF workload at one size, asserting every interpreter
/// route is bit-identical (same pair count, tally and simulated timing),
/// and that the parallel block executor matches a sequential run of the
/// same route.
pub fn measure(n: usize) -> Sample {
    measure_workload(Workload::Pcf, n)
}

/// Measure the Type-II (SDH, Register-SHM-Out, privatized) workload at
/// one size, asserting every interpreter route produces bit-identical
/// histograms, tallies and simulated timing for *both* kernels (the
/// pairwise scatter stage and the Figure-3 reduction).
pub fn measure_sdh(n: usize) -> Sample {
    measure_workload(Workload::Sdh, n)
}

fn measure_workload(work: Workload, n: usize) -> Sample {
    let what = work.label();
    warm_up();
    // The compiled route under both block executors, timed together.
    eprintln!("{what}N={n}: compiled pass (+ sequential cross-check)...");
    let legs = [
        (Route::Compiled, bench_exec()),
        (Route::Compiled, ExecMode::Sequential),
    ];
    let mut runs = timed_runs(n, work, &legs).into_iter();
    let (compiled_s, compiled) = runs.next().expect("the compiled leg");
    let (compiled_seq_s, seq) = runs.next().expect("the sequential leg");
    eprintln!(
        "{what}N={n}: compiled {compiled_s:.3}s, sequential {compiled_seq_s:.3}s \
         ({:.2}x from parallel)",
        compiled_seq_s / compiled_s
    );
    assert!(
        compiled.interp.compiled_ops > 0,
        "compiled (default) route took no compiled passes ({what}N={n})"
    );
    if work == Workload::Sdh {
        // The compiled histogram sink lowers the whole inter-tile pass,
        // and the Figure-3 reduction lowers too.
        assert!(
            compiled.reduce_compiled_ops > 0,
            "compiled route took no compiled cross-copy reductions at N={n}"
        );
    }
    assert_routes_identical(n, &compiled, &seq, "parallel vs sequential engine");

    eprintln!("{what}N={n}: vectorized (op-by-op) pass...");
    let (fast_s, fast) = timed_runs(n, work, &[(Route::Vectorized, bench_exec())])
        .pop()
        .expect("one leg");
    eprintln!(
        "{what}N={n}: vectorized {fast_s:.3}s ({:.2}x from compilation)",
        fast_s / compiled_s
    );
    assert_routes_identical(n, &compiled, &fast, "compiled vs vectorized");
    assert_eq!(
        fast.interp.compiled_ops, 0,
        "op-by-op leg took a compiled pass ({what}N={n})"
    );

    eprintln!("{what}N={n}: scalar-reference pass...");
    let (scalar_s, scalar) = timed_runs(n, work, &[(Route::Scalar, bench_exec())])
        .pop()
        .expect("one leg");
    eprintln!(
        "{what}N={n}: scalar {scalar_s:.3}s ({:.2}x)",
        scalar_s / compiled_s
    );
    assert_routes_identical(n, &compiled, &scalar, "compiled vs scalar");

    let t = &compiled.tally;
    Sample {
        n,
        pair_count: compiled.count,
        scalar_s,
        fast_s,
        compiled_s,
        compiled_seq_s,
        lane_ops: t.useful_lane_ops + t.predicated_lane_slots,
        compiled_coverage: compiled.interp.compiled_coverage(t),
    }
}

/// Compiled coverage of a mixed sink list on the hot-path plan: one
/// count sink at [`RADIUS`] and one [`sdh_spec`] histogram sink, fed by
/// one Register-SHM HalfPairs sweep at block [`BLOCK`] over `n` points
/// (the serve layer's coalesced shape). Deterministic, not wall-clock:
/// a sink list whose inter tiles or intra triangles fall back to op by
/// op shows up as lost coverage.
pub fn build_sink_list_report(n: usize) -> Result<Report, ReportError> {
    let pts = uniform_points::<3>(n, BOX, SEED);
    let mut dev = Device::new(DeviceConfig::titan_x());
    let input = pts.upload(&mut dev);
    let lc = tbs_core::kernels::pair_launch(input.n, BLOCK);
    let spec = sdh_spec();
    let action = MultiQueryAction {
        counts: vec![MultiCountSink {
            radius: RADIUS,
            out: dev.alloc_u64_zeroed(lc.total_threads() as usize),
        }],
        hists: vec![MultiHistSink {
            spec,
            private: dev.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize),
        }],
    };
    let run = launch_pairwise(
        &mut dev,
        input,
        Euclidean,
        action,
        PairwisePlan::register_shm(BLOCK),
        PairScope::HalfPairs,
    )
    .expect("launch");
    let mut rep =
        Report::new("sim_sinks", "Compiled coverage of a mixed sink list").with_context(&format!(
            "one count sink (r={RADIUS}) + one privatized histogram sink \
             ({SDH_BUCKETS} buckets), register_shm plan, block={BLOCK}, {BOX}^3 box"
        ));
    rep.metric(
        &format!("compiled_coverage.mixed.n{n}"),
        run.interp.compiled_coverage(&run.tally),
        "ratio",
    )?;
    Ok(rep)
}

/// The Type-II contention charges of one compiled SDH (the workload
/// [`measure_sdh`] times) over `n` points: `shared_atomic_serial`,
/// `shared_transactions` and `shared_bank_replays`, folded over the
/// pairwise scatter kernel and the Figure-3 reduction. Deterministic,
/// not wall-clock: they repeat to the bit on every route and block
/// executor, so any change to the scatter accounting moves them.
pub fn build_sdh_charges_report(n: usize) -> Result<Report, ReportError> {
    let (_, run) = run_once(n, Workload::Sdh, Route::Compiled, bench_exec());
    let t = &run.tally;
    let mut rep = Report::new(
        "sim_sdh_charges",
        "Shared-atomic charges of the compiled SDH",
    )
    .with_context(&format!(
        "privatized SDH ({SDH_BUCKETS} buckets), register_shm plan, block={BLOCK}, \
             {BOX}^3 box, compiled route"
    ));
    for (id, v) in [
        ("shared_atomic_serial", t.shared_atomic_serial),
        ("shared_transactions", t.shared_transactions),
        ("shared_bank_replays", t.shared_bank_replays),
    ] {
        rep.metric(&format!("{id}.n{n}"), v as f64, "count")?;
    }
    Ok(rep)
}

/// Inter-tile rows of a HalfPairs Register-SHM launch over `n` points
/// at block `b`: each warp with a live lane meets every row of each
/// later tile once. These are the rows a compiled pass may cull.
pub fn inter_tile_rows(n: usize, b: usize) -> u64 {
    (0..n.div_ceil(b))
        .map(|i| {
            let warps = (n - i * b).min(b).div_ceil(32);
            (warps * (n - ((i + 1) * b).min(n))) as u64
        })
        .sum()
}

/// Box culling on the hot path: the share of inter-tile rows that the
/// compiled count passes of `pcf_gpu` (Morton-ordered upload) cull, at
/// [`RADIUS`] and block [`BLOCK`] over `n` uniform points.
/// Deterministic, not wall-clock: a change that stops ordering the
/// upload, or stops the chunk test from firing, shows up here.
pub fn build_cull_report(n: usize) -> Result<Report, ReportError> {
    let pts = uniform_points::<3>(n, BOX, SEED);
    let mut dev = Device::new(DeviceConfig::titan_x());
    let interp = pcf_gpu(&mut dev, &pts, RADIUS, PairwisePlan::register_shm(BLOCK))
        .expect("launch")
        .run
        .interp;
    let frac = interp.culled_rows as f64 / inter_tile_rows(n, BLOCK as usize) as f64;
    let mut rep =
        Report::new("sim_cull", "Box culling of the hot-path count passes").with_context(&format!(
            "pcf_gpu (Morton-ordered upload), r={RADIUS}, register_shm plan, \
             block={BLOCK}, {BOX}^3 box, compiled route"
        ));
    rep.metric(&format!("culled_row_frac.n{n}"), frac, "frac")?;
    rep.push_note(
        "culled = inter-tile rows (one partner against a warp's live lanes) in\n\
         chunks whose bounding box lies out of range of the warp's box, skipped\n\
         and charged in closed form.",
    );
    Ok(rep)
}

/// Build the host-throughput report over the given sizes — both
/// workloads (2-PCF and SDH) at every size. Wall-clock numbers are
/// machine-dependent; the gate only pins floors on them. The SDH
/// metrics carry an `_sdh` suffix.
pub fn build_report(sizes: &[usize]) -> Result<Report, ReportError> {
    if sizes.is_empty() {
        return Err(ReportError::EmptySeries {
            what: "hotpath size list".to_string(),
        });
    }
    let samples: Vec<Sample> = sizes.iter().map(|&n| measure(n)).collect();
    let sdh: Vec<Sample> = sizes.iter().map(|&n| measure_sdh(n)).collect();
    let mut rep = Report::new("sim_hotpath", "Host throughput — interpreter fast paths")
        .with_context(&format!(
            "fig2 2-PCF (Type-I) + privatized SDH (Type-II, {SDH_BUCKETS} buckets), \
             register_shm plan, block={BLOCK}, r={RADIUS}, {BOX}^3 box, \
             parallel exec (sequential cross-checked on the compiled route); \
             scalar / vectorized / compiled routes bit-identical"
        ));
    for (table, suffix, set) in [("sizes", "", &samples), ("sdh_sizes", "_sdh", &sdh)] {
        let mut t = SeriesTable::new(
            table,
            &[
                "N",
                "count",
                "scalar_s",
                "vec_s",
                "comp_s",
                "seq_s",
                "comp/vec",
                "ccov",
                "Mlane-ops/s",
            ],
        );
        let secs = |v: f64| Cell::num(v, format!("{v:.3}"));
        for s in set {
            t.row(vec![
                Cell::int(s.n as u64),
                Cell::int(s.pair_count),
                secs(s.scalar_s),
                secs(s.fast_s),
                secs(s.compiled_s),
                secs(s.compiled_seq_s),
                Cell::x(s.compiled_vs_vectorized()),
                Cell::pct(s.compiled_coverage),
                Cell::num(
                    s.lane_ops_per_s(),
                    format!("{:.1}", s.lane_ops_per_s() / 1e6),
                ),
            ]);
            let n = s.n;
            for (id, v, unit) in [
                ("speedup", s.speedup(), "x"),
                ("vectorized_speedup", s.vectorized_speedup(), "x"),
                ("compiled_vs_vectorized", s.compiled_vs_vectorized(), "x"),
                ("parallel_vs_sequential", s.parallel_vs_sequential(), "x"),
                ("compiled_coverage", s.compiled_coverage, "frac"),
                ("lane_ops_per_s", s.lane_ops_per_s(), "ops/s"),
                ("compiled_ns_per_pair", s.compiled_ns_per_pair(), "ns"),
            ] {
                rep.metric(&format!("{id}{suffix}.n{n}"), v, unit)?;
            }
        }
        rep.push_table(t);
    }
    rep.push_note(
        "host wall-clock throughput of the simulator interpreter; the vectorized\n\
         and compiled routes must be bit-identical to the scalar reference, and\n\
         the parallel block executor to a sequential run. The compiled route\n\
         lowers the kernel plan to closed-form straight-line passes (comp/vec is\n\
         what that lowering buys over the op-by-op fast paths); ccov is the\n\
         fraction of useful lane work absorbed by compiled passes. The sdh rows\n\
         exercise the Type-II output stage end-to-end: the compiled route lowers\n\
         the histogram sink itself (sqrt-free squared-edge bucketing +\n\
         closed-form scatter accounting) and the Figure-3 cross-copy reduction.",
    );
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inter_tile_rows_count_every_warp_against_later_tiles() {
        // 16 full blocks of 32 warps: 32 · 1024 · (15 + 14 + … + 0).
        assert_eq!(inter_tile_rows(16_384, 1024), 32 * 1024 * 120);
        // 70 points at B = 64: block 0's two warps meet the 6-row tail.
        assert_eq!(inter_tile_rows(70, 64), 12);
        assert_eq!(inter_tile_rows(0, 64), 0);
    }
}
