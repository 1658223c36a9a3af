//! Host-throughput baseline for the interpreter fast paths.
//!
//! Measures the three interpreter routes — scalar reference, vectorized
//! op-by-op, and the plan-compiled route — via `experiments::hotpath`
//! (which asserts all routes are bit-identical and cross-checks the
//! parallel block executor against a sequential run of the compiled
//! route), prints the structured report, and records
//! `BENCH_sim_hotpath.json` at the repository root. Two workloads run:
//! the fig2 2-PCF (Type-I output) and a privatized SDH on the
//! Register-SHM plan (Type-II output: compiled histogram scatters plus
//! the Figure-3 cross-copy reduction).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tbs-bench --bin hotpath_baseline            # 2-PCF N = 16384, 65536; SDH N = 16384
//! cargo run --release -p tbs-bench --bin hotpath_baseline -- --full  # adds 2-PCF N = 131072, 262144; SDH N = 65536
//! cargo run --release -p tbs-bench --bin hotpath_baseline -- --full --budget-secs 120
//! ```
//!
//! Every route is quadratic in N, so `--full` sweeps used to be an
//! O(N²) footgun: one slow comparison route could hang CI for an hour.
//! Now each size prints per-route projected runtimes (quadratic
//! extrapolation from the previous size) before launching anything,
//! and with `--budget-secs S` any comparison route (scalar reference,
//! vectorized, sequential cross-check) projected over `S` seconds is
//! skipped with a loud note; its fields are omitted from the JSON
//! record and its acceptance gates are reported as skipped. The
//! compiled route always runs.
//!
//! Acceptance gates: at N = 65536 the vectorized 2-PCF route must be
//! ≥2× the scalar reference, the compiled route ≥6× the vectorized
//! route, and the cache memo must replay at least half of its probes;
//! at N = 16384 the compiled 2-PCF route must be ≥6× the vectorized
//! route and the compiled Type-II (SDH) route ≥4× (also gated at
//! N = 65536 under `--full`). Pass `--json DIR` (or set
//! `TBS_REPORT_DIR`) to also mirror the schema-versioned
//! `sim_hotpath.json` report.

use tbs_bench::experiments::hotpath::{self, Sample};
use tbs_bench::report;
use tbs_json::Json;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let budget_secs: Option<f64> = args
        .iter()
        .enumerate()
        .find_map(|(i, a)| match a.strip_prefix("--budget-secs=") {
            Some(v) => Some(v.to_string()),
            None => (a == "--budget-secs").then(|| args.get(i + 1).cloned().unwrap_or_default()),
        })
        .map(|v| {
            v.parse()
                .expect("--budget-secs takes a number of seconds, e.g. --budget-secs 120")
        });
    let mut sizes = vec![16_384usize, 65_536];
    let mut sdh_sizes = vec![16_384usize];
    if full {
        // 262144 exceeds SCALAR_CEILING: vectorized + compiled only.
        sizes.extend([131_072, 262_144]);
        sdh_sizes.push(65_536);
    }

    let mut samples: Vec<Sample> = Vec::new();
    for &n in &sizes {
        let s = hotpath::measure_budgeted(n, budget_secs, samples.last());
        samples.push(s);
    }
    let mut sdh: Vec<Sample> = Vec::new();
    for &n in &sdh_sizes {
        let s = hotpath::measure_sdh_budgeted(n, budget_secs, sdh.last());
        sdh.push(s);
    }
    report::emit_result(hotpath::build_report_from(&samples, &sdh));

    // The flat benchmark record at the repository root, emitted
    // through tbs-json.
    let entry = |s: &Sample| {
        let mut e = Json::obj().with("n", s.n).with("pair_count", s.pair_count);
        if let Some(v) = s.scalar_s {
            e = e.with("scalar_reference_s", v);
        }
        if let Some(v) = s.fast_s {
            e = e.with("vectorized_s", v);
        }
        e = e.with("compiled_s", s.compiled_s);
        if let Some(v) = s.compiled_seq_s {
            e = e.with("compiled_sequential_s", v);
        }
        if let Some(v) = s.speedup() {
            e = e.with("speedup", v);
        }
        if let Some(v) = s.vectorized_speedup() {
            e = e.with("vectorized_speedup", v);
        }
        if let Some(v) = s.compiled_vs_vectorized() {
            e = e.with("compiled_vs_vectorized", v);
        }
        if let Some(v) = s.parallel_vs_sequential() {
            e = e.with("parallel_vs_sequential", v);
        }
        e.with("dispatches", s.dispatches)
            .with("compiled_ops", s.compiled_ops)
            .with("compiled_coverage", s.compiled_coverage)
            .with("memo_hit_rate", s.memo_hit_rate)
            .with("lane_ops", s.lane_ops)
            .with("lane_ops_per_s", s.lane_ops_per_s())
            .with("sim_cycles", s.sim_cycles)
            .with("sim_cycles_per_s", s.sim_cycles_per_s())
    };
    let doc = Json::obj()
        .with("benchmark", "sim_hotpath")
        .with(
            "workload",
            "fig2 2-PCF + privatized SDH (256 buckets), register_shm plan, \
             block=1024, r=25, 100^3 box",
        )
        .with(
            "exec_mode",
            "parallel (sequential cross-checked on the compiled route)",
        )
        .with("bit_identical", true)
        .with("sizes", Json::Arr(samples.iter().map(entry).collect()))
        .with("sdh_sizes", Json::Arr(sdh.iter().map(entry).collect()));

    // crates/bench/ -> repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim_hotpath.json");
    std::fs::write(path, doc.render().expect("render hotpath JSON"))
        .expect("write BENCH_sim_hotpath.json");
    eprintln!("wrote {path}");

    // Acceptance gates: each asserts its floor when the routes behind it
    // ran. A ratio made unmeasurable by a --budget-secs skip is reported
    // (loudly) as skipped, never silently passed; without a budget every
    // route runs and every gate asserts, exactly as before.
    let gate = samples.iter().find(|s| s.n == 65_536).expect("N=65536 run");
    let small = samples.iter().find(|s| s.n == 16_384).expect("N=16384 run");
    let sdh_gate = sdh.iter().find(|s| s.n == 16_384).expect("SDH N=16384 run");
    let mut verdicts: Vec<String> = Vec::new();
    let mut check = |name: &str, value: Option<f64>, floor: f64| match value {
        Some(v) => {
            assert!(
                v >= floor,
                "acceptance gate failed: {name} {v:.2} < {floor} floor"
            );
            verdicts.push(format!("{name} {v:.2} >= {floor}"));
        }
        None => {
            eprintln!("acceptance gate SKIPPED: {name} (route skipped under --budget-secs)");
            verdicts.push(format!("{name} skipped"));
        }
    };
    check(
        "vectorized over scalar at N=65536",
        gate.vectorized_speedup(),
        2.0,
    );
    check(
        "compiled over vectorized at N=65536",
        gate.compiled_vs_vectorized(),
        6.0,
    );
    // The L2 cache memo must keep paying off at large N — its hit rate
    // collapsing was exactly the regression this gate exists to catch.
    check("memo hit rate at N=65536", Some(gate.memo_hit_rate), 0.5);
    check(
        "compiled over vectorized at N=16384",
        small.compiled_vs_vectorized(),
        6.0,
    );
    check(
        "compiled SDH over vectorized at N=16384",
        sdh_gate.compiled_vs_vectorized(),
        4.0,
    );
    if let Some(s) = sdh.iter().find(|s| s.n == 65_536) {
        check(
            "compiled SDH over vectorized at N=65536",
            s.compiled_vs_vectorized(),
            4.0,
        );
    }
    eprintln!("acceptance gates: {}", verdicts.join("; "));
}
