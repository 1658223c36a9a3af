//! Interpreter hot-path throughput: the three interpreter routes — the
//! plan-compiled route (default), vectorized op-by-op
//! (`with_compiled(false)`), and the retained `scalar_reference`
//! implementation — on a small fig2-style 2-PCF workload, under the
//! config-default parallel block executor (`sequential` benches the
//! compiled route's sequential engine for comparison). Guards the
//! speedups measured by the `hotpath_baseline` bin against bitrot; run
//! it with `cargo bench -p tbs-bench --bench hotpath`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpu_sim::config::ExecMode;
use gpu_sim::{Device, DeviceConfig};
use tbs_apps::{pcf_gpu, sdh_gpu, PairwisePlan, SdhOutputMode};
use tbs_core::histogram::HistogramSpec;
use tbs_datagen::uniform_points;

#[derive(Clone, Copy)]
enum Route {
    Compiled,
    CompiledSequential,
    Vectorized,
    Scalar,
}

fn route_config(route: Route) -> DeviceConfig {
    // The config default is the parallel block executor and the
    // compiled route; the oracle routes switch the compiler off
    // explicitly, and only the sequential cross-check overrides the
    // engine.
    let cfg = DeviceConfig::titan_x();
    match route {
        Route::Compiled => cfg,
        Route::CompiledSequential => cfg.with_exec_mode(ExecMode::Sequential),
        Route::Vectorized => cfg.with_compiled(false),
        Route::Scalar => cfg.with_scalar_reference(true),
    }
}

fn run(pts: &tbs_core::SoaPoints<3>, route: Route) -> u64 {
    let mut dev = Device::new(route_config(route));
    pcf_gpu(&mut dev, pts, 25.0, PairwisePlan::register_shm(1024))
        .expect("launch")
        .count
}

/// The Type-II workload: privatized SDH, histogram scatters in the
/// inner loop plus the Figure-3 cross-copy reduction.
fn run_sdh(pts: &tbs_core::SoaPoints<3>, route: Route) -> u64 {
    let mut dev = Device::new(route_config(route));
    sdh_gpu(
        &mut dev,
        pts,
        HistogramSpec::new(256, tbs_datagen::box_diagonal(100.0, 3)),
        PairwisePlan::register_shm(1024),
        SdhOutputMode::Privatized,
    )
    .expect("launch")
    .histogram
    .total()
}

fn bench_hotpath(c: &mut Criterion) {
    let n = 4096usize;
    let pts = uniform_points::<3>(n, 100.0, 11);
    let pairs = (n * (n - 1) / 2) as u64;
    let mut g = c.benchmark_group("sim_hotpath");
    g.throughput(Throughput::Elements(pairs));
    g.sample_size(10);
    for (name, route) in [
        ("vectorized", Route::Vectorized),
        ("scalar_reference", Route::Scalar),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &route, |b, &r| {
            b.iter(|| run(&pts, r))
        });
    }
    g.finish();

    // The plan-compiled route: whole kernel plans lowered to
    // closed-form straight-line host passes (see `gpu_sim::exec`), in
    // its own group so A/B tooling can compare `sim_compiled/default`
    // against `sim_hotpath/vectorized` directly. `sequential` is the
    // same route under the sequential block executor.
    let mut g = c.benchmark_group("sim_compiled");
    g.throughput(Throughput::Elements(pairs));
    g.sample_size(10);
    g.bench_function("default", |b| b.iter(|| run(&pts, Route::Compiled)));
    g.bench_function("sequential", |b| {
        b.iter(|| run(&pts, Route::CompiledSequential))
    });
    g.finish();

    // The compiled Type-II output stage on its own: the histogram sink
    // (sqrt-free bucketing + closed-form scatter accounting) and the
    // compiled Figure-3 reduction, with the op-by-op route as the
    // in-group comparison leg for A/B tooling.
    let mut g = c.benchmark_group("sim_compiled_sdh");
    g.throughput(Throughput::Elements(pairs));
    g.sample_size(10);
    g.bench_function("default", |b| b.iter(|| run_sdh(&pts, Route::Compiled)));
    g.bench_function("vectorized", |b| {
        b.iter(|| run_sdh(&pts, Route::Vectorized))
    });
    g.finish();
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
