//! Property-based cross-crate invariants.

use gpu_sim::config::ExecMode;
use gpu_sim::{Device, DeviceConfig};
use proptest::prelude::*;
use tbs_apps::{sdh_gpu, PairwisePlan, SdhOutputMode};
use tbs_core::analytic::profiles::{predicted_run, predicted_tally, KernelSpec, Workload};
use tbs_core::analytic::{InputPath, OutputPath};
use tbs_core::kernels::IntraMode;
use tbs_core::HistogramSpec;
use tbs_integration::{assert_exact_fields, lcg_points, run_functional};

fn input_strategy() -> impl Strategy<Value = InputPath> {
    prop::sample::select(vec![
        InputPath::Naive,
        InputPath::ShmShm,
        InputPath::RegisterShm,
        InputPath::RegisterRoc,
        InputPath::Shuffle,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every (kernel, size, buckets, intra) combination bins exactly
    /// N(N−1)/2 observations.
    #[test]
    fn histogram_total_is_always_the_pair_count(
        input in input_strategy(),
        n in 40usize..400,
        buckets in 2u32..300,
        lb in any::<bool>(),
    ) {
        let pts = lcg_points(n, 31);
        let spec = HistogramSpec::new(buckets, 100.0 * 1.7320508);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let intra = if lb { IntraMode::LoadBalanced } else { IntraMode::Regular };
        let plan = PairwisePlan { input, intra, block_size: 64 };
        let got = sdh_gpu(&mut dev, &pts, spec, plan, SdhOutputMode::Privatized).expect("launch");
        prop_assert_eq!(got.histogram.total(), (n * (n - 1) / 2) as u64);
    }

    /// The analytic model's exactness contract holds for arbitrary
    /// full-block workloads.
    #[test]
    fn analytic_equals_functional_for_random_full_workloads(
        blocks in 2u32..8,
        b in prop::sample::select(vec![32u32, 64]),
        input in input_strategy(),
        buckets in prop::sample::select(vec![64u32, 200]),
        shared_out in any::<bool>(),
    ) {
        let wl = Workload { n: blocks * b, b, dims: 3, dist_cost: 7 };
        let output = if shared_out {
            OutputPath::SharedHistogram { buckets }
        } else {
            OutputPath::RegisterCount
        };
        let spec = KernelSpec::new(input, output);
        let cfg = DeviceConfig::titan_x();
        let measured = run_functional(&wl, &spec, &cfg);
        let predicted = predicted_tally(&wl, &spec, &cfg);
        assert_exact_fields(
            &format!("{}/{} n={} b={}", spec.input.name(), spec.output.name(), wl.n, wl.b),
            &measured.tally,
            &predicted,
        );
    }

    /// The parallel block-execution engine is bit-identical to the
    /// sequential reference: same histogram, same count, and the same
    /// instrumented tally (sector traffic, atomic serialization, replay
    /// counts) for every kernel variant × output mode over random
    /// problem and block sizes.
    #[test]
    fn parallel_engine_matches_sequential_bit_for_bit(
        input in input_strategy(),
        n in 0usize..500,
        block in prop::sample::select(vec![32u32, 64, 96, 128]),
        buckets in 2u32..300,
        threads in 2usize..6,
        privatized in any::<bool>(),
        lb in any::<bool>(),
    ) {
        let pts = lcg_points(n, 47);
        let spec = HistogramSpec::new(buckets, 100.0 * 1.7320508);
        let intra = if lb { IntraMode::LoadBalanced } else { IntraMode::Regular };
        let plan = PairwisePlan { input, intra, block_size: block };
        let output = if privatized {
            SdhOutputMode::Privatized
        } else {
            SdhOutputMode::GlobalAtomics
        };

        let mut seq_dev = Device::new(
            DeviceConfig::titan_x().with_exec_mode(ExecMode::Sequential),
        );
        let seq = sdh_gpu(&mut seq_dev, &pts, spec, plan, output).expect("sequential");

        let mut par_dev = Device::new(
            DeviceConfig::titan_x().with_exec_mode(ExecMode::Parallel { threads }),
        );
        let par = sdh_gpu(&mut par_dev, &pts, spec, plan, output).expect("parallel");

        prop_assert_eq!(&seq.histogram, &par.histogram);
        prop_assert_eq!(&seq.pair_run.tally, &par.pair_run.tally);
        prop_assert_eq!(seq.pair_run.timing.seconds, par.pair_run.timing.seconds);
        prop_assert_eq!(
            seq.reduce_run.as_ref().map(|r| &r.tally),
            par.reduce_run.as_ref().map(|r| &r.tally)
        );
    }

    /// Type-I (scalar count) outputs are likewise identical across
    /// execution modes.
    #[test]
    fn parallel_pcf_matches_sequential(
        input in input_strategy(),
        n in 0usize..400,
        radius in 5.0f32..120.0,
        threads in 2usize..5,
    ) {
        let pts = lcg_points(n, 53);
        let plan = PairwisePlan { input, intra: IntraMode::Regular, block_size: 64 };
        let mut seq_dev = Device::new(
            DeviceConfig::titan_x().with_exec_mode(ExecMode::Sequential),
        );
        let seq = tbs_apps::pcf_gpu(&mut seq_dev, &pts, radius, plan).expect("sequential");
        let mut par_dev = Device::new(
            DeviceConfig::titan_x().with_exec_mode(ExecMode::Parallel { threads }),
        );
        let par = tbs_apps::pcf_gpu(&mut par_dev, &pts, radius, plan).expect("parallel");
        prop_assert_eq!(seq.count, par.count);
        prop_assert_eq!(&seq.run.tally, &par.run.tally);
    }

    /// Predicted time is monotone in N for a fixed kernel.
    #[test]
    fn predicted_time_is_monotone_in_n(
        base in 32u32..256,
        factor in 2u32..6,
        input in input_strategy(),
    ) {
        let cfg = DeviceConfig::titan_x();
        let b = 1024;
        let spec = KernelSpec::new(input, OutputPath::RegisterCount);
        let small = Workload { n: base * b, b, dims: 3, dist_cost: 7 };
        let large = Workload { n: base * factor * b, b, dims: 3, dist_cost: 7 };
        let ts = predicted_run(&small, &spec, &cfg).seconds();
        let tl = predicted_run(&large, &spec, &cfg).seconds();
        prop_assert!(tl > ts, "{} -> {}", ts, tl);
    }

    /// Simulated time is positive and finite for every configuration.
    #[test]
    fn predictions_are_finite_and_positive(
        blocks in 1u32..2000,
        input in input_strategy(),
        buckets in 16u32..10_000,
    ) {
        let cfg = DeviceConfig::titan_x();
        let wl = Workload { n: blocks * 1024, b: 1024, dims: 3, dist_cost: 7 };
        let run = predicted_run(
            &wl,
            &KernelSpec::new(input, OutputPath::SharedHistogram { buckets }),
            &cfg,
        );
        prop_assert!(run.timing.seconds.is_finite());
        prop_assert!(run.timing.seconds > 0.0);
        prop_assert!(run.occupancy.occupancy > 0.0 && run.occupancy.occupancy <= 1.0);
    }
}

/// Host interpreter statistics describe the compiled route's work, not
/// the block engine that ran it: one compiled `pcf_gpu` launch (64
/// blocks) and one compiled privatized SDH (4 blocks) report equal
/// `InterpStats` under the sequential engine and the speculative
/// parallel one. The 2-PCF runs at N = 65536, B = 1024, the smallest
/// known shape where a per-launch cache statistic once split by engine;
/// its short radius lets box culling skip most rows, which keeps the
/// launch quick.
#[test]
fn interp_stats_do_not_depend_on_the_block_engine() {
    let plan = PairwisePlan::register_shm(1024);
    let big = lcg_points(65_536, 61);
    let small = lcg_points(4_096, 61);
    let spec = HistogramSpec::new(64, 100.0 * 1.7320508);
    let [seq, par] = [ExecMode::Sequential, ExecMode::Parallel { threads: 2 }].map(|mode| {
        let mut dev = Device::new(DeviceConfig::titan_x().with_exec_mode(mode));
        let pcf = tbs_apps::pcf_gpu(&mut dev, &big, 0.5, plan).expect("pcf");
        let sdh = sdh_gpu(&mut dev, &small, spec, plan, SdhOutputMode::Privatized).expect("sdh");
        (pcf.run.interp, sdh.pair_run.interp)
    });
    assert!(
        seq.0.compiled_ops > 0 && seq.1.compiled_ops > 0,
        "both launches compile"
    );
    assert_eq!(seq.0, par.0, "pcf_gpu");
    assert_eq!(seq.1, par.1, "privatized sdh");
}
