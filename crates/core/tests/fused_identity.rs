//! Route-identity tests across the tiling kernels.
//!
//! Every kernel × action pair is run on the three interpreter routes —
//! the plan compiler (the default), op-by-op vectorized
//! (`with_compiled(false)`), and the scalar reference — and must produce
//! bit-identical output buffers, `AccessTally` counters and simulated
//! timing. Host-side `InterpStats` are the only permitted difference:
//! the compiled route must report `compiled_ops > 0` wherever its plan
//! lowers (or exactly zero where it must decline); the op-by-op and
//! scalar routes report zero.
//!
//! The plan compiler lowers two distances: Euclidean and the
//! minimum-image Euclidean of a periodic box (the molecular-dynamics
//! RDF). Every other distance — Gaussian RBF, dot product, … — runs op
//! by op, which the cases at the end pin.

use gpu_sim::{Device, DeviceConfig, ExecMode, KernelRun};
use tbs_core::distance::{DistanceKernel, DotProduct, Euclidean, GaussianRbf, PeriodicEuclidean};
use tbs_core::histogram::HistogramSpec;
use tbs_core::kernels::{
    pair_launch, CrossShmKernel, HistogramReduceKernel, IntraMode, PairScope, RegisterRocKernel,
    RegisterShmKernel, ShmShmKernel, ShuffleKernel,
};
use tbs_core::output::{
    CountWithinRadius, KdeAction, MultiCopyHistogramAction, MultiCountSink, MultiHistSink,
    MultiQueryAction, SharedHistogramAction,
};
use tbs_core::plan::lower_pair_plan;
use tbs_core::point::{DeviceSoa, SoaPoints};

const B: u32 = 64;

/// Deterministic pseudo-random cloud in a 100³ box (xorshift64).
fn cloud(n: usize) -> SoaPoints<3> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let pts: Vec<[f32; 3]> = (0..n)
        .map(|_| {
            std::array::from_fn(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 10_000) as f32 * 0.01
            })
        })
        .collect();
    SoaPoints::from_points(&pts)
}

/// Device output read back as raw bit words.
type Bits = Vec<u64>;

fn routes() -> [DeviceConfig; 3] {
    [
        DeviceConfig::titan_x(), // compiled is the preset default
        DeviceConfig::titan_x().with_compiled(false),
        DeviceConfig::titan_x().with_scalar_reference(true),
    ]
}

/// Run `go` once per interpreter route and demand bit-identical device
/// state; returns `[compiled, op-by-op, scalar]` runs for extra asserts.
/// `expect_compiled` states whether any stage of the plan must lower
/// (`compiled_ops > 0`) or the compiler must decline the whole kernel
/// (`compiled_ops == 0`) — either way the outputs stay bit-identical.
fn assert_routes(
    go: impl Fn(&mut Device) -> (Bits, KernelRun),
    expect_compiled: bool,
) -> [KernelRun; 3] {
    assert_routes_on(routes(), go, expect_compiled)
}

/// [`assert_routes`] over explicit `[compiled, op-by-op, scalar]`
/// device configs.
fn assert_routes_on(
    cfgs: [DeviceConfig; 3],
    go: impl Fn(&mut Device) -> (Bits, KernelRun),
    expect_compiled: bool,
) -> [KernelRun; 3] {
    let [(bits_c, run_c), (bits_v, run_v), (bits_s, run_s)] =
        cfgs.map(|cfg| go(&mut Device::new(cfg)));
    assert_eq!(bits_c, bits_v, "compiled vs op-by-op output bits");
    assert_eq!(bits_c, bits_s, "compiled vs scalar output bits");
    assert_eq!(run_c.tally, run_v.tally, "compiled vs op-by-op tally");
    assert_eq!(run_c.tally, run_s.tally, "compiled vs scalar tally");
    assert_eq!(
        run_c.timing.seconds.to_bits(),
        run_v.timing.seconds.to_bits(),
        "compiled vs op-by-op timing"
    );
    assert_eq!(
        run_c.timing.seconds.to_bits(),
        run_s.timing.seconds.to_bits(),
        "compiled vs scalar timing"
    );
    if expect_compiled {
        assert!(
            run_c.interp.compiled_ops > 0,
            "compiled route must lower at least one pass"
        );
    } else {
        assert_eq!(
            run_c.interp.compiled_ops, 0,
            "this plan must decline compilation entirely"
        );
    }
    for (run, name) in [(&run_v, "op-by-op"), (&run_s, "scalar")] {
        assert_eq!(run.interp.compiled_ops, 0, "{name} route must not compile");
    }
    [run_c, run_v, run_s]
}

/// The common case: the plan lowers, `compiled_ops > 0` on route 0.
fn assert_identical(go: impl Fn(&mut Device) -> (Bits, KernelRun)) -> [KernelRun; 3] {
    assert_routes(go, true)
}

/// For plans the compiler must decline whole (distances with no
/// compiled form on a kernel with no tile fetch, reduction kernels):
/// the compiled route still runs bit-identically with
/// `compiled_ops == 0`.
fn assert_identical_uncompiled(go: impl Fn(&mut Device) -> (Bits, KernelRun)) -> [KernelRun; 3] {
    assert_routes(go, false)
}

fn count_run(
    dev: &mut Device,
    pts: &SoaPoints<3>,
    mk: impl Fn(tbs_core::point::DeviceSoa<3>, CountWithinRadius) -> Box<dyn gpu_sim::Kernel>,
) -> (Bits, KernelRun) {
    let input = pts.upload(dev);
    let lc = pair_launch(input.n, B);
    let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
    let k = mk(input, CountWithinRadius { radius: 9.0, out });
    let run = dev.launch(&*k, lc);
    (dev.u64_slice(out).to_vec(), run)
}

/// A privatized SDH launch of `mk(input, action)`, returning the
/// per-block private copies as bits.
fn sdh_run(
    dev: &mut Device,
    pts: &SoaPoints<3>,
    spec: HistogramSpec,
    mk: impl Fn(DeviceSoa<3>, SharedHistogramAction) -> Box<dyn gpu_sim::Kernel>,
) -> (Bits, KernelRun) {
    let input = pts.upload(dev);
    let lc = pair_launch(input.n, B);
    let private = dev.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize);
    let k = mk(input, SharedHistogramAction { spec, private });
    let run = dev.launch(&*k, lc);
    let bits = dev.u32_slice(private).iter().map(|&x| x as u64).collect();
    (bits, run)
}

/// A Register-SHM HalfPairs kernel under `dist`, for [`sdh_run`].
fn register_shm_sdh<F: DistanceKernel<3> + Copy + 'static>(
    dist: F,
) -> impl Fn(DeviceSoa<3>, SharedHistogramAction) -> Box<dyn gpu_sim::Kernel> {
    move |input, act| {
        Box::new(RegisterShmKernel::new(
            input,
            dist,
            act,
            B,
            PairScope::HalfPairs,
            IntraMode::Regular,
        ))
    }
}

/// Fold per-block private copies into one histogram.
fn merged(bits: &Bits, buckets: u32) -> Vec<u64> {
    let mut out = vec![0u64; buckets as usize];
    for (i, &v) in bits.iter().enumerate() {
        out[i % buckets as usize] += v;
    }
    out
}

#[test]
fn register_shm_count_half_pairs_is_route_identical() {
    // 200 = 3×64 + 8: ragged last block AND ragged last warp.
    let pts = cloud(200);
    assert_identical(|dev| {
        count_run(dev, &pts, |input, act| {
            Box::new(RegisterShmKernel::new(
                input,
                Euclidean,
                act,
                B,
                PairScope::HalfPairs,
                IntraMode::Regular,
            ))
        })
    });
}

#[test]
fn register_shm_count_all_pairs_is_route_identical() {
    // AllPairs exercises the NotEqual predicate in the intra phase.
    let pts = cloud(200);
    let [compiled, _, _] = assert_identical(|dev| {
        count_run(dev, &pts, |input, act| {
            Box::new(RegisterShmKernel::new(
                input,
                Euclidean,
                act,
                B,
                PairScope::AllPairs,
                IntraMode::Regular,
            ))
        })
    });
    // The compiled route must lower essentially all of it: tile
    // fetches, inter passes and the NotEqual intra passes.
    assert!(
        compiled.interp.compiled_coverage(&compiled.tally) > 0.5,
        "compiled coverage {}",
        compiled.interp.compiled_coverage(&compiled.tally)
    );
}

#[test]
fn shm_shm_count_all_pairs_is_route_identical() {
    let pts = cloud(150);
    assert_identical(|dev| {
        count_run(dev, &pts, |input, act| {
            Box::new(ShmShmKernel::new(
                input,
                Euclidean,
                act,
                B,
                PairScope::AllPairs,
                IntraMode::Regular,
            ))
        })
    });
}

#[test]
fn shm_shm_count_half_pairs_is_route_identical() {
    let pts = cloud(150);
    assert_identical(|dev| {
        count_run(dev, &pts, |input, act| {
            Box::new(ShmShmKernel::new(
                input,
                Euclidean,
                act,
                B,
                PairScope::HalfPairs,
                IntraMode::Regular,
            ))
        })
    });
}

#[test]
fn register_roc_count_all_pairs_is_route_identical() {
    let pts = cloud(200);
    let [compiled, _, _] = assert_identical(|dev| {
        count_run(dev, &pts, |input, act| {
            Box::new(RegisterRocKernel::new(
                input,
                Euclidean,
                act,
                B,
                PairScope::AllPairs,
                IntraMode::Regular,
            ))
        })
    });
    // The compiled ROC path must keep the read-only cache hot — same
    // hit pattern the op-by-op route produces (the tally equality above
    // proves equal; this proves non-trivial).
    assert!(compiled.tally.roc_hit_sectors > compiled.tally.roc_miss_sectors);
}

#[test]
fn register_roc_count_half_pairs_is_route_identical() {
    let pts = cloud(200);
    assert_identical(|dev| {
        count_run(dev, &pts, |input, act| {
            Box::new(RegisterRocKernel::new(
                input,
                Euclidean,
                act,
                B,
                PairScope::HalfPairs,
                IntraMode::Regular,
            ))
        })
    });
}

#[test]
fn shuffle_count_half_pairs_is_route_identical() {
    // HalfPairs intra fragments use the LessThan predicate.
    let pts = cloud(150);
    assert_identical(|dev| {
        count_run(dev, &pts, |input, act| {
            Box::new(ShuffleKernel::new(
                input,
                Euclidean,
                act,
                B,
                PairScope::HalfPairs,
            ))
        })
    });
}

#[test]
fn shuffle_count_all_pairs_is_route_identical() {
    let pts = cloud(150);
    assert_identical(|dev| {
        count_run(dev, &pts, |input, act| {
            Box::new(ShuffleKernel::new(
                input,
                Euclidean,
                act,
                B,
                PairScope::AllPairs,
            ))
        })
    });
}

#[test]
fn cross_count_is_route_identical() {
    let a = cloud(130);
    let b = cloud(150);
    assert_identical(|dev| {
        let da = a.upload(dev);
        let db = b.upload(dev);
        let lc = pair_launch(da.n, B);
        let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let k = CrossShmKernel::new(da, db, Euclidean, CountWithinRadius { radius: 9.0, out }, B);
        let run = dev.launch(&k, lc);
        (dev.u64_slice(out).to_vec(), run)
    });
}

#[test]
fn register_shm_histogram_is_route_identical() {
    // Histogram sink: per-step shared atomics inside the compiled pass.
    let pts = cloud(200);
    let spec = HistogramSpec::new(32, 180.0);
    assert_identical(|dev| sdh_run(dev, &pts, spec, register_shm_sdh(Euclidean)));
}

#[test]
fn register_roc_histogram_is_route_identical() {
    // The paper's winning SDH configuration: ROC input, SHM output.
    // The compiled histogram sink lowers the ROC inter-tile passes
    // (sqrt-free bucketing + closed-form scatter accounting) and the
    // NotEqual intra passes.
    let pts = cloud(200);
    let spec = HistogramSpec::new(32, 180.0);
    assert_identical(|dev| {
        sdh_run(dev, &pts, spec, |input, act| {
            Box::new(RegisterRocKernel::new(
                input,
                Euclidean,
                act,
                B,
                PairScope::AllPairs,
                IntraMode::Regular,
            ))
        })
    });
}

#[test]
fn wide_privatized_histograms_are_route_identical() {
    // Figure 4's 4096 buckets and a 1000-bucket point of Figure 5's
    // sweep: a warp step's buckets span hundreds to thousands of bins,
    // so the scatter walk's counter window runs many bank cycles wide.
    // A ragged N leaves partial last warps on both kernels.
    let pts = cloud(300);
    for buckets in [1000u32, 4096] {
        let spec = HistogramSpec::new(buckets, 180.0);
        let shm = assert_identical(|dev| sdh_run(dev, &pts, spec, register_shm_sdh(Euclidean)));
        let roc = assert_identical(|dev| {
            sdh_run(dev, &pts, spec, |input, act| {
                Box::new(RegisterRocKernel::new(
                    input,
                    Euclidean,
                    act,
                    B,
                    PairScope::AllPairs,
                    IntraMode::Regular,
                ))
            })
        });
        for runs in [shm, roc] {
            assert!(runs[0].tally.shared_bank_replays > 0, "{buckets} buckets");
        }
    }
}

#[test]
fn histogram_nan_inputs_follow_device_convention_on_all_routes() {
    // NaN coordinates make NaN distances; the device convention
    // (CUDA `__float2uint_rz`) saturates those lanes to bucket 0. The
    // compiled bucketing must reproduce that bit-for-bit on every route
    // — and every pair must still bin exactly once. The minimum-image
    // wrap carries NaN through (`round(NaN)` is NaN), so the periodic
    // distance must follow the same convention.
    let n = 150usize;
    let mut raw: Vec<[f32; 3]> = (0..n)
        .map(|i| {
            [
                (i as f32 * 1.37) % 100.0,
                (i as f32 * 2.11) % 100.0,
                (i as f32 * 0.59) % 100.0,
            ]
        })
        .collect();
    raw[7] = [f32::NAN, 0.0, 0.0];
    raw[100][1] = f32::NAN;
    let pts = SoaPoints::from_points(&raw);
    let spec = HistogramSpec::new(32, 180.0);
    let check = |(bits, run): (Bits, KernelRun)| {
        let h = merged(&bits, spec.buckets);
        assert_eq!(
            h.iter().sum::<u64>(),
            (n * (n - 1) / 2) as u64,
            "every half-pair must bin exactly once, NaN or not"
        );
        // Pairs touching the two NaN points: (n-1) + (n-1) - 1.
        assert!(
            h[0] >= (2 * (n - 1) - 1) as u64,
            "NaN distances must land in bucket 0"
        );
        (bits, run)
    };
    assert_identical(|dev| check(sdh_run(dev, &pts, spec, register_shm_sdh(Euclidean))));
    assert_identical(|dev| {
        let periodic = register_shm_sdh(PeriodicEuclidean::new(100.0));
        check(sdh_run(dev, &pts, spec, periodic))
    });
}

#[test]
fn histogram_bucket_boundary_distances_are_route_identical() {
    // Points on an exact lattice along x with spacing == bucket width:
    // every distance is a whole number of bucket widths, so every
    // `d * inv_width` lands exactly on a bucket edge — the worst case
    // for any float reassociation in the compiled bucketing. Also
    // exercises the clamp edge: |i-j| >= buckets clamps into the last
    // bucket. In a periodic box of edge n·w the lattice is a ring, and
    // the minimum image of points k apart is min(k, n−k) widths.
    let n = 120usize;
    let w = 5.0f32;
    let spec = HistogramSpec::new(32, 32.0 * w);
    let raw: Vec<[f32; 3]> = (0..n).map(|i| [i as f32 * w, 0.0, 0.0]).collect();
    let pts = SoaPoints::from_points(&raw);
    let check = |separation: fn(usize, usize) -> usize| {
        // Host truth: a pair `separation` widths apart bins into that
        // bucket (clamped).
        let mut expect = vec![0u64; spec.buckets as usize];
        for i in 0..n {
            for j in i + 1..n {
                expect[separation(j - i, n).min(spec.buckets as usize - 1)] += 1;
            }
        }
        move |(bits, run): (Bits, KernelRun)| {
            assert_eq!(
                merged(&bits, spec.buckets),
                expect,
                "boundary distances binned wrong"
            );
            (bits, run)
        }
    };
    let plain = check(|k, _| k);
    assert_identical(|dev| plain(sdh_run(dev, &pts, spec, register_shm_sdh(Euclidean))));
    let ring = check(|k, n| k.min(n - k));
    assert_identical(|dev| {
        let periodic = register_shm_sdh(PeriodicEuclidean::new(n as f32 * w));
        ring(sdh_run(dev, &pts, spec, periodic))
    });
}

#[test]
fn privatized_reduce_is_route_identical() {
    // The Figure-3 cross-copy reduction behind the *-Out family: the
    // compiled route (one `compiled_copy_reduce_u32` per warp, control
    // charge folded in) must match the op-by-op copy loop and the
    // scalar reference bit-for-bit, tally included. The measured launch
    // is the reduce kernel.
    let pts = cloud(300);
    let spec = HistogramSpec::new(48, 180.0);
    assert_identical(|dev| {
        let input = pts.upload(dev);
        let lc = pair_launch(input.n, B);
        let private = dev.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize);
        let k = RegisterShmKernel::new(
            input,
            Euclidean,
            SharedHistogramAction { spec, private },
            B,
            PairScope::HalfPairs,
            IntraMode::Regular,
        );
        dev.launch(&k, lc);
        let out = dev.alloc_u64_zeroed(spec.buckets as usize);
        let r = HistogramReduceKernel {
            private,
            out,
            buckets: spec.buckets,
            copies: lc.grid_dim,
        };
        let run = dev.launch(&r, r.launch_config(64));
        (dev.u64_slice(out).to_vec(), run)
    });
}

#[test]
fn multicopy_end_block_reduce_is_route_identical() {
    // MultiCopyHistogramAction: no compiled sink, so the pairwise
    // stage and the end-of-block copy merge run op by op; only the tile
    // fetches compile.
    let pts = cloud(200);
    let spec = HistogramSpec::new(32, 180.0);
    assert_identical(|dev| {
        let input = pts.upload(dev);
        let lc = pair_launch(input.n, B);
        let private = dev.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize);
        let k = RegisterShmKernel::new(
            input,
            Euclidean,
            MultiCopyHistogramAction {
                spec,
                private,
                copies: 2,
            },
            B,
            PairScope::HalfPairs,
            IntraMode::Regular,
        );
        let run = dev.launch(&k, lc);
        let bits = dev.u32_slice(private).iter().map(|&x| x as u64).collect();
        (bits, run)
    });
}

#[test]
fn register_shm_kde_gaussian_is_route_identical() {
    // KDE: a transcendental distance (exp in eval_host) with no
    // compiled form, so the plan never lowers and every pair runs op by
    // op; only the cooperative tile fetch still compiles —
    // `compiled_ops > 0` from that alone.
    let pts = cloud(200);
    let [compiled, _, _] = assert_identical(|dev| {
        let input = pts.upload(dev);
        let n = input.n;
        let lc = pair_launch(n, B);
        let out = dev.alloc_f32_zeroed(lc.total_threads() as usize);
        let k = RegisterShmKernel::new(
            input,
            GaussianRbf::new(12.0),
            KdeAction { out, n },
            B,
            PairScope::AllPairs,
            IntraMode::Regular,
        );
        let run = dev.launch(&k, lc);
        let bits = dev
            .f32_slice(out)
            .iter()
            .map(|&x| x.to_bits() as u64)
            .collect();
        (bits, run)
    });
    assert!(
        compiled.interp.compiled_coverage(&compiled.tally) < 0.05,
        "tile fetches only (coverage {})",
        compiled.interp.compiled_coverage(&compiled.tally)
    );
}

#[test]
fn shuffle_kde_gaussian_is_route_identical() {
    // A non-Euclidean distance on a kernel with no shared tile fetch:
    // the plan never lowers, so `compiled_ops` must stay zero.
    let pts = cloud(150);
    assert_identical_uncompiled(|dev| {
        let input = pts.upload(dev);
        let n = input.n;
        let lc = pair_launch(n, B);
        let out = dev.alloc_f32_zeroed(lc.total_threads() as usize);
        let k = ShuffleKernel::new(
            input,
            GaussianRbf::new(12.0),
            KdeAction { out, n },
            B,
            PairScope::AllPairs,
        );
        let run = dev.launch(&k, lc);
        let bits = dev
            .f32_slice(out)
            .iter()
            .map(|&x| x.to_bits() as u64)
            .collect();
        (bits, run)
    });
}

/// A boxed kernel constructor over an input and an action.
type KernelCtor<A> = Box<dyn Fn(DeviceSoa<3>, A) -> Box<dyn gpu_sim::Kernel>>;

/// The HalfPairs tiling kernels whose intra triangle runs
/// `compiled_intra_regular`, by name, as boxed constructors over `dist`.
fn triangle_kernels<
    F: DistanceKernel<3> + Copy + 'static,
    A: tbs_core::output::PairAction + 'static,
>(
    dist: F,
) -> [(&'static str, KernelCtor<A>); 3] {
    [
        (
            "register-shm",
            Box::new(move |input, act| {
                Box::new(RegisterShmKernel::new(
                    input,
                    dist,
                    act,
                    B,
                    PairScope::HalfPairs,
                    IntraMode::Regular,
                ))
            }),
        ),
        (
            "register-roc",
            Box::new(move |input, act| {
                Box::new(RegisterRocKernel::new(
                    input,
                    dist,
                    act,
                    B,
                    PairScope::HalfPairs,
                    IntraMode::Regular,
                ))
            }),
        ),
        (
            "shm-shm",
            Box::new(move |input, act| {
                Box::new(ShmShmKernel::new(
                    input,
                    dist,
                    act,
                    B,
                    PairScope::HalfPairs,
                    IntraMode::Regular,
                ))
            }),
        ),
    ]
}

/// A mixed sink list — two count sinks and two histogram sinks — on
/// `mk`, returning every sink's output as bits.
fn mixed_batch_run(
    dev: &mut Device,
    pts: &SoaPoints<3>,
    specs: [HistogramSpec; 2],
    mk: &dyn Fn(DeviceSoa<3>, MultiQueryAction) -> Box<dyn gpu_sim::Kernel>,
) -> (Bits, KernelRun) {
    let input = pts.upload(dev);
    let lc = pair_launch(input.n, B);
    let c0 = dev.alloc_u64_zeroed(lc.total_threads() as usize);
    let c1 = dev.alloc_u64_zeroed(lc.total_threads() as usize);
    let h0 = dev.alloc_u32_zeroed((lc.grid_dim * specs[0].buckets) as usize);
    let h1 = dev.alloc_u32_zeroed((lc.grid_dim * specs[1].buckets) as usize);
    let action = MultiQueryAction {
        counts: vec![
            MultiCountSink {
                radius: 9.0,
                out: c0,
            },
            MultiCountSink {
                radius: 25.0,
                out: c1,
            },
        ],
        hists: vec![
            MultiHistSink {
                spec: specs[0],
                private: h0,
            },
            MultiHistSink {
                spec: specs[1],
                private: h1,
            },
        ],
    };
    let run = dev.launch(&*mk(input, action), lc);
    let mut bits: Bits = dev.u64_slice(c0).to_vec();
    bits.extend(dev.u64_slice(c1));
    bits.extend(dev.u32_slice(h0).iter().map(|&x| x as u64));
    bits.extend(dev.u32_slice(h1).iter().map(|&x| x as u64));
    (bits, run)
}

#[test]
fn multi_query_mixed_batch_is_route_identical() {
    // The serve layer's coalesced sweep: two count sinks + two histogram
    // sinks fed by one pairwise stage. `MultiQueryAction` lowers the
    // whole sink list (`CompiledSinkSpec`), so the compiled inter-tile
    // passes and intra triangles drive all four sinks in one
    // straight-line walk each — on every kernel whose triangle compiles
    // (shared-tile and ROC-gathered partners), under both lowered
    // distances, with a ragged last block (200 = 3·64 + 8 points).
    let pts = cloud(200);
    let specs = [HistogramSpec::new(32, 180.0), HistogramSpec::new(48, 90.0)];
    for (name, mk) in triangle_kernels(Euclidean) {
        let [compiled, _, _] = assert_identical(|dev| mixed_batch_run(dev, &pts, specs, &*mk));
        let coverage = compiled.interp.compiled_coverage(&compiled.tally);
        assert!(
            coverage > 0.9,
            "{name}: multi-sink batches must flow the compiled path (coverage {coverage})"
        );
    }
    let pts = box_cloud(200);
    let specs = [HistogramSpec::new(32, L / 2.0), HistogramSpec::new(48, L)];
    for (name, mk) in triangle_kernels(PeriodicEuclidean::new(L)) {
        let [compiled, _, _] = assert_identical(|dev| mixed_batch_run(dev, &pts, specs, &*mk));
        let coverage = compiled.interp.compiled_coverage(&compiled.tally);
        assert!(
            coverage > 0.9,
            "periodic {name}: multi-sink batches must flow the compiled path (coverage {coverage})"
        );
    }
}

#[test]
fn one_sink_lists_match_single_actions_in_compiled_coverage() {
    // A single action is the one-entry sink list: a `MultiQueryAction`
    // with one count sink (or one histogram sink) must take exactly the
    // compiled passes `CountWithinRadius` (or `SharedHistogramAction`)
    // takes — intra triangles included — with the same tally and bits.
    let pts = cloud(300);
    let spec = HistogramSpec::new(64, 180.0);
    let dev = || Device::new(DeviceConfig::titan_x());
    fn kernel<A: tbs_core::output::PairAction>(
        input: DeviceSoa<3>,
        act: A,
    ) -> RegisterShmKernel<3, Euclidean, A> {
        RegisterShmKernel::new(
            input,
            Euclidean,
            act,
            B,
            PairScope::HalfPairs,
            IntraMode::Regular,
        )
    }
    let (single, list) = {
        let d = &mut dev();
        let input = pts.upload(d);
        let lc = pair_launch(input.n, B);
        let out = d.alloc_u64_zeroed(lc.total_threads() as usize);
        let single = d.launch(&kernel(input, CountWithinRadius { radius: 9.0, out }), lc);
        let bits = d.u64_slice(out).to_vec();
        let list_out = d.alloc_u64_zeroed(lc.total_threads() as usize);
        let action = MultiQueryAction {
            counts: vec![MultiCountSink {
                radius: 9.0,
                out: list_out,
            }],
            hists: vec![],
        };
        let list = d.launch(&kernel(input, action), lc);
        assert_eq!(bits, d.u64_slice(list_out), "one-count list bits");
        (single, list)
    };
    assert_eq!(single.tally, list.tally, "one-count list tally");
    assert_eq!(
        single.interp.compiled_coverage(&single.tally),
        list.interp.compiled_coverage(&list.tally),
        "a one-count list must compile exactly what CountWithinRadius compiles"
    );
    let (single, list) = {
        let d = &mut dev();
        let input = pts.upload(d);
        let lc = pair_launch(input.n, B);
        let private = d.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize);
        let single = d.launch(&kernel(input, SharedHistogramAction { spec, private }), lc);
        let bits = d.u32_slice(private).to_vec();
        let list_private = d.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize);
        let action = MultiQueryAction {
            counts: vec![],
            hists: vec![MultiHistSink {
                spec,
                private: list_private,
            }],
        };
        let list = d.launch(&kernel(input, action), lc);
        assert_eq!(bits, d.u32_slice(list_private), "one-histogram list bits");
        (single, list)
    };
    assert_eq!(single.tally, list.tally, "one-histogram list tally");
    assert_eq!(
        single.interp.compiled_coverage(&single.tally),
        list.interp.compiled_coverage(&list.tally),
        "a one-histogram list must compile exactly what SharedHistogramAction compiles"
    );
}

#[test]
fn multi_query_counts_only_is_route_identical() {
    // A pure 2-PCF batch (many radii, no histograms): Type-I shape, no
    // shared output allocations, still one sweep feeding every radius.
    let pts = cloud(150);
    assert_identical(|dev| {
        let input = pts.upload(dev);
        let lc = pair_launch(input.n, B);
        let outs: Vec<_> = (0..3)
            .map(|_| dev.alloc_u64_zeroed(lc.total_threads() as usize))
            .collect();
        let k = RegisterShmKernel::new(
            input,
            Euclidean,
            MultiQueryAction {
                counts: outs
                    .iter()
                    .enumerate()
                    .map(|(i, &out)| MultiCountSink {
                        radius: 5.0 + 10.0 * i as f32,
                        out,
                    })
                    .collect(),
                hists: vec![],
            },
            B,
            PairScope::HalfPairs,
            IntraMode::Regular,
        );
        let run = dev.launch(&k, lc);
        let mut bits: Bits = Vec::new();
        for &out in &outs {
            bits.extend(dev.u64_slice(out));
        }
        (bits, run)
    });
}

/// A sink list of one count sink per radius in `radii`, then one
/// histogram sink per spec in `hists`, on `mk`; every sink's output as
/// bits.
fn list_run(
    dev: &mut Device,
    pts: &SoaPoints<3>,
    radii: &[f32],
    hists: &[HistogramSpec],
    mk: &dyn Fn(DeviceSoa<3>, MultiQueryAction) -> Box<dyn gpu_sim::Kernel>,
) -> (Bits, KernelRun) {
    let input = pts.upload(dev);
    let lc = pair_launch(input.n, B);
    let action = MultiQueryAction {
        counts: radii
            .iter()
            .map(|&radius| MultiCountSink {
                radius,
                out: dev.alloc_u64_zeroed(lc.total_threads() as usize),
            })
            .collect(),
        hists: hists
            .iter()
            .map(|&spec| MultiHistSink {
                spec,
                private: dev.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize),
            })
            .collect(),
    };
    let run = dev.launch(&*mk(input, action.clone()), lc);
    let mut bits: Bits = Vec::new();
    for c in &action.counts {
        bits.extend(dev.u64_slice(c.out));
    }
    for h in &action.hists {
        bits.extend(dev.u32_slice(h.private).iter().map(|&x| x as u64));
    }
    (bits, run)
}

/// Every tiling kernel whose passes compile, by name: the three
/// triangle kernels in both pair scopes (`AllPairs` runs `NotEqual`
/// passes) and the shuffle kernel, whose lane-broadcast passes run
/// `LessThan` (`HalfPairs`) and `NotEqual` (`AllPairs`).
fn sweep_kernels<F: DistanceKernel<3> + Copy + 'static>(
    dist: F,
) -> Vec<(String, KernelCtor<MultiQueryAction>)> {
    let mut ks: Vec<(String, KernelCtor<MultiQueryAction>)> = Vec::new();
    for scope in [PairScope::HalfPairs, PairScope::AllPairs] {
        ks.push((
            format!("register-shm/{scope:?}"),
            Box::new(move |input, act| {
                Box::new(RegisterShmKernel::new(
                    input,
                    dist,
                    act,
                    B,
                    scope,
                    IntraMode::Regular,
                ))
            }),
        ));
        ks.push((
            format!("register-roc/{scope:?}"),
            Box::new(move |input, act| {
                Box::new(RegisterRocKernel::new(
                    input,
                    dist,
                    act,
                    B,
                    scope,
                    IntraMode::Regular,
                ))
            }),
        ));
        ks.push((
            format!("shm-shm/{scope:?}"),
            Box::new(move |input, act| {
                Box::new(ShmShmKernel::new(
                    input,
                    dist,
                    act,
                    B,
                    scope,
                    IntraMode::Regular,
                ))
            }),
        ));
        ks.push((
            format!("shuffle/{scope:?}"),
            Box::new(move |input, act| Box::new(ShuffleKernel::new(input, dist, act, B, scope))),
        ));
    }
    ks
}

#[test]
fn row_sweep_lists_are_route_identical_on_every_kernel_and_engine() {
    // The one compiled compute sweep, a squared-distance row per step
    // folded into every sink, against the op-by-op and scalar routes:
    // one and three count sinks and three counts beside a histogram, on
    // every compiling kernel (shared, ROC and lane-broadcast sources;
    // unpredicated, `NotEqual` and `LessThan` passes; full and ragged
    // intra triangles), 300 points (a ragged last block whose last warp
    // holds 12 lanes) in caller and Morton order, both distance forms,
    // under both block engines.
    let caller = cloud(300);
    let morton = morton_sorted(&caller);
    let lists: [(&[f32], &[HistogramSpec]); 3] = [
        (&[9.0], &[]),
        (&[3.0, 9.0, 6.0], &[]),
        (&[3.0, 9.0, 6.0], &[HistogramSpec::new(16, 40.0)]),
    ];
    for mode in [ExecMode::Sequential, ExecMode::Parallel { threads: 2 }] {
        let cfgs = routes().map(|cfg| cfg.with_exec_mode(mode));
        let mut culled = 0;
        for (order, pts) in [("caller", &caller), ("morton", &morton)] {
            for (_, mk) in sweep_kernels(Euclidean) {
                for (radii, hists) in lists {
                    let [c, _, _] = assert_routes_on(
                        cfgs.clone(),
                        |dev| list_run(dev, pts, radii, hists, &*mk),
                        true,
                    );
                    if order == "morton" {
                        culled += c.interp.culled_rows;
                    }
                }
            }
        }
        assert!(
            culled > 0,
            "{mode:?}: Morton-ordered passes must cull chunks"
        );
        let pts = box_cloud(300);
        let hist = [HistogramSpec::new(16, L / 2.0)];
        for (name, mk) in sweep_kernels(PeriodicEuclidean::new(L)) {
            for radii in [&[9.0][..], &[3.0, 9.0, 6.0]] {
                for hists in [&[][..], &hist] {
                    let [c, _, _] = assert_routes_on(
                        cfgs.clone(),
                        |dev| list_run(dev, &pts, radii, hists, &*mk),
                        true,
                    );
                    assert_eq!(c.interp.culled_rows, 0, "periodic {name} never culls");
                }
            }
        }
    }
}

#[test]
fn multi_query_batch_matches_single_query_oracles() {
    // Batching must be invisible: every sink of a coalesced sweep must
    // produce the exact bits the standalone single-query action
    // produces. (The route matrix above proves route identity; this
    // proves batched-vs-sequential identity.)
    let pts = cloud(200);
    let spec = HistogramSpec::new(32, 180.0);
    let radii = [4.0f32, 9.0, 30.0];
    for cfg in routes() {
        let dev = &mut Device::new(cfg);
        let input = pts.upload(dev);
        let lc = pair_launch(input.n, B);
        let couts: Vec<_> = radii
            .iter()
            .map(|_| dev.alloc_u64_zeroed(lc.total_threads() as usize))
            .collect();
        let hpriv = dev.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize);
        let k = RegisterShmKernel::new(
            input,
            Euclidean,
            MultiQueryAction {
                counts: radii
                    .iter()
                    .zip(&couts)
                    .map(|(&radius, &out)| MultiCountSink { radius, out })
                    .collect(),
                hists: vec![MultiHistSink {
                    spec,
                    private: hpriv,
                }],
            },
            B,
            PairScope::HalfPairs,
            IntraMode::Regular,
        );
        dev.launch(&k, lc);
        for (&radius, &out) in radii.iter().zip(&couts) {
            let solo = dev.alloc_u64_zeroed(lc.total_threads() as usize);
            let k = RegisterShmKernel::new(
                input,
                Euclidean,
                CountWithinRadius { radius, out: solo },
                B,
                PairScope::HalfPairs,
                IntraMode::Regular,
            );
            dev.launch(&k, lc);
            assert_eq!(
                dev.u64_slice(out),
                dev.u64_slice(solo),
                "batched count at radius {radius} must bit-match the standalone query"
            );
        }
        let solo = dev.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize);
        let k = RegisterShmKernel::new(
            input,
            Euclidean,
            SharedHistogramAction {
                spec,
                private: solo,
            },
            B,
            PairScope::HalfPairs,
            IntraMode::Regular,
        );
        dev.launch(&k, lc);
        assert_eq!(
            dev.u32_slice(hpriv),
            dev.u32_slice(solo),
            "batched histogram must bit-match the standalone query"
        );
    }
}

#[test]
fn sub_block_input_is_route_identical() {
    // n = 20 < B: a single ragged block whose only warp is partially
    // valid — the compiled predicate masks must match lane-exact.
    let pts = cloud(20);
    assert_identical(|dev| {
        count_run(dev, &pts, |input, act| {
            Box::new(RegisterShmKernel::new(
                input,
                Euclidean,
                act,
                B,
                PairScope::AllPairs,
                IntraMode::Regular,
            ))
        })
    });
}

// ---------------------------------------------------------------------
// Minimum-image (periodic) plans — the molecular-dynamics RDF workload
// ---------------------------------------------------------------------

/// Box edge of the md-rdf-shaped cases.
const L: f32 = 60.0;

/// Deterministic pseudo-random cloud in the periodic box `[0, L)³`.
fn box_cloud(n: usize) -> SoaPoints<3> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let pts: Vec<[f32; 3]> = (0..n)
        .map(|_| {
            std::array::from_fn(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 10_000) as f32 * (L / 10_000.0)
            })
        })
        .collect();
    SoaPoints::from_points(&pts)
}

/// Host truth for a half-pair histogram under `dist`: the device's
/// bucket chain (multiply, saturating cast, clamp) on `eval_host`.
fn host_histogram(
    pts: &SoaPoints<3>,
    dist: &impl DistanceKernel<3>,
    spec: HistogramSpec,
) -> Vec<u64> {
    let p: Vec<[f32; 3]> = pts.iter().collect();
    let mut h = vec![0u64; spec.buckets as usize];
    for i in 0..p.len() {
        for j in i + 1..p.len() {
            let d = dist.eval_host(&p[i], &p[j]);
            h[((d * spec.inv_width()) as u32).min(spec.buckets - 1) as usize] += 1;
        }
    }
    h
}

#[test]
fn periodic_sdh_register_shm_is_route_identical() {
    // md-rdf in miniature: uniform points in a periodic box, 120
    // buckets up to L/2 (the minimum-image diagonal clamps into the
    // last bucket), Register-SHM, HalfPairs. Tile fetches, inter-tile
    // passes and intra triangles all lower.
    let pts = box_cloud(200);
    let spec = HistogramSpec::new(120, L / 2.0);
    let [compiled, _, _] = assert_identical(|dev| {
        sdh_run(dev, &pts, spec, register_shm_sdh(PeriodicEuclidean::new(L)))
    });
    assert!(
        compiled.interp.compiled_coverage(&compiled.tally) > 0.9,
        "periodic SDH must run compiled (coverage {})",
        compiled.interp.compiled_coverage(&compiled.tally)
    );
    let mut dev = Device::new(DeviceConfig::titan_x());
    let (bits, _) = sdh_run(
        &mut dev,
        &pts,
        spec,
        register_shm_sdh(PeriodicEuclidean::new(L)),
    );
    assert_eq!(
        merged(&bits, spec.buckets),
        host_histogram(&pts, &PeriodicEuclidean::new(L), spec),
        "device histogram must equal the eval_host oracle"
    );
}

#[test]
fn periodic_sdh_register_roc_is_route_identical() {
    // The paper's winning SDH configuration with the periodic distance:
    // ROC-sourced inter tiles and ROC-gathered intra triangles.
    let pts = box_cloud(200);
    let spec = HistogramSpec::new(120, L / 2.0);
    let [compiled, _, _] = assert_identical(|dev| {
        sdh_run(dev, &pts, spec, |input, act| {
            Box::new(RegisterRocKernel::new(
                input,
                PeriodicEuclidean::new(L),
                act,
                B,
                PairScope::HalfPairs,
                IntraMode::Regular,
            ))
        })
    });
    assert!(
        compiled.interp.compiled_coverage(&compiled.tally) > 0.9,
        "periodic ROC SDH must run compiled (coverage {})",
        compiled.interp.compiled_coverage(&compiled.tally)
    );
}

#[test]
fn periodic_points_straddling_the_box_edge_are_route_identical() {
    // Half the points hug x = 0, half hug x = L: every cross pair is
    // close only through the wrap. A count within a radius far below
    // the plain Euclidean gap must see them, on every route, and match
    // the host oracle.
    let n = 150usize;
    let raw: Vec<[f32; 3]> = (0..n)
        .map(|i| {
            let t = (i as f32 * 0.37) % 1.0;
            let x = if i % 2 == 0 { t } else { L - t };
            [x, (i as f32 * 1.3) % 4.0, (i as f32 * 0.7) % 4.0]
        })
        .collect();
    let pts = SoaPoints::from_points(&raw);
    let dist = PeriodicEuclidean::new(L);
    let radius = 3.0f32;
    assert_identical(|dev| {
        let input = pts.upload(dev);
        let lc = pair_launch(input.n, B);
        let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let k = RegisterShmKernel::new(
            input,
            dist,
            CountWithinRadius { radius, out },
            B,
            PairScope::HalfPairs,
            IntraMode::Regular,
        );
        let run = dev.launch(&k, lc);
        let counts = dev.u64_slice(out).to_vec();
        let mut expect = 0u64;
        let mut wrapped = 0u64;
        for i in 0..n {
            for j in i + 1..n {
                if dist.eval_host(&raw[i], &raw[j]) < radius {
                    expect += 1;
                    wrapped += (i % 2 != j % 2) as u64;
                }
            }
        }
        assert!(wrapped > 0, "some counted pairs must meet through the wrap");
        assert_eq!(counts.iter().sum::<u64>(), expect, "wrapped pair count");
        (counts, run)
    });
}

#[test]
fn periodic_half_box_ties_are_route_identical() {
    // A lattice with spacing L/4 puts many per-dimension differences at
    // exactly ±L/2, where `round(Δ/L)` ties (±0.5 rounds away from
    // zero) — the wrap then lands on ∓L/2, whose square is the same.
    // Distances also sit exactly on the bucket edges of a histogram
    // with width L/4.
    let step = L / 4.0;
    let mut raw = Vec::new();
    for a in 0..4 {
        for b in 0..4 {
            for c in 0..4 {
                raw.push([a as f32 * step, b as f32 * step, c as f32 * step]);
            }
        }
    }
    let pts = SoaPoints::from_points(&raw);
    let spec = HistogramSpec::new(4, L); // width L/4
    let dist = PeriodicEuclidean::new(L);
    assert_eq!(
        <PeriodicEuclidean as DistanceKernel<3>>::eval_host(&dist, &raw[0], &[L / 2.0, 0.0, 0.0]),
        L / 2.0,
        "a half-box difference wraps to exactly L/2"
    );
    assert_identical(|dev| {
        let (bits, run) = sdh_run(dev, &pts, spec, register_shm_sdh(PeriodicEuclidean::new(L)));
        assert_eq!(
            merged(&bits, spec.buckets),
            host_histogram(&pts, &dist, spec),
            "tie distances binned wrong"
        );
        (bits, run)
    });
}

#[test]
fn distances_without_a_compiled_form_never_lower() {
    // Gaussian RBF and the dot product have no compiled form: their
    // plans do not lower even with a compilable sink, and on a kernel
    // with no tile fetch nothing compiles at all.
    let cfg = DeviceConfig::titan_x();
    let mut dev = Device::new(cfg.clone());
    let out = dev.alloc_u64_zeroed(1);
    let count = CountWithinRadius { radius: 9.0, out };
    assert!(lower_pair_plan::<3, _, _>(&cfg, &GaussianRbf::new(12.0), &count, B).is_none());
    assert!(lower_pair_plan::<3, _, _>(&cfg, &DotProduct, &count, B).is_none());
    assert!(lower_pair_plan::<3, _, _>(&cfg, &PeriodicEuclidean::new(L), &count, B).is_some());
    let pts = cloud(150);
    assert_identical_uncompiled(|dev| {
        count_run(dev, &pts, |input, act| {
            Box::new(ShuffleKernel::new(
                input,
                DotProduct,
                CountWithinRadius {
                    radius: 5_000.0,
                    ..act
                },
                B,
                PairScope::HalfPairs,
            ))
        })
    });
}

// ---------------------------------------------------------------------
// Row culling: rows whose partner lies at least the overflow edge from
// the warp's bounding box are charged in closed form on the compiled
// route. Outputs, tallies and timing must not move.
// ---------------------------------------------------------------------

/// `n` xorshift points in the box `lo + [0, side)³`, sorted by x so
/// consecutive lanes (one warp) sit close together, as the grid's
/// cell-ordered catalogs do.
fn box_pts(n: usize, lo: [f32; 3], side: [f32; 3], seed: u64) -> Vec<[f32; 3]> {
    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ seed;
    let mut pts: Vec<[f32; 3]> = (0..n)
        .map(|_| {
            std::array::from_fn(|d| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                lo[d] + (x % 10_000) as f32 * 1e-4 * side[d]
            })
        })
        .collect();
    pts.sort_by(|a, b| a[0].total_cmp(&b[0]));
    pts
}

/// A Cross-SHM privatized SDH of `left` against `right` under `dist`.
fn cross_sdh<F: DistanceKernel<3> + Copy + 'static>(
    dev: &mut Device,
    left: &[[f32; 3]],
    right: &[[f32; 3]],
    spec: HistogramSpec,
    dist: F,
) -> (Bits, KernelRun) {
    let dl = SoaPoints::from_points(left).upload(dev);
    let dr = SoaPoints::from_points(right).upload(dev);
    let lc = pair_launch(dl.n, B);
    let private = dev.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize);
    let k = CrossShmKernel::new(dl, dr, dist, SharedHistogramAction { spec, private }, B);
    let run = dev.launch(&k, lc);
    let bits = dev.u32_slice(private).iter().map(|&x| x as u64).collect();
    (bits, run)
}

/// The overflow edge of [`HistogramSpec::new(8, 20.0)`] is 17.5: a
/// partner that far from a warp's box lands every lane in bucket 7.
fn cull_spec() -> HistogramSpec {
    HistogramSpec::new(8, 20.0)
}

/// Rows culled on the compiled route and histogram rows executed
/// (`shared_atomics`), after checking the oracle routes culled none.
fn culled_of(runs: &[KernelRun; 3]) -> (u64, u64) {
    assert_eq!(runs[1].interp.culled_rows, 0, "op-by-op must not cull");
    assert_eq!(runs[2].interp.culled_rows, 0, "scalar must not cull");
    (runs[0].interp.culled_rows, runs[0].tally.shared_atomics)
}

#[test]
fn culled_passes_are_route_identical_with_all_some_and_no_rows_culled() {
    let spec = cull_spec();
    let left = box_pts(96, [0.0; 3], [10.0; 3], 1);
    // Far: every partner ≥ 50 from the left box. Spread: along x over
    // the whole box, so near partners survive and far ones cull. Near:
    // inside the left box, so no partner clears the 17.5 edge.
    let far = box_pts(100, [60.0; 3], [10.0; 3], 2);
    let spread = box_pts(150, [0.0; 3], [100.0, 10.0, 10.0], 3);
    let near = box_pts(80, [0.0; 3], [10.0; 3], 4);
    for (right, expect) in [(&far, "all"), (&spread, "some"), (&near, "none")] {
        let runs = assert_identical(|dev| cross_sdh(dev, &left, right, spec, Euclidean));
        let (culled, rows) = culled_of(&runs);
        match expect {
            "all" => assert_eq!(culled, rows, "every row must cull"),
            "some" => assert!(0 < culled && culled < rows, "{culled} of {rows}"),
            _ => assert_eq!(culled, 0, "no row may cull"),
        }
    }
}

#[test]
fn culled_partial_prefix_warps_are_route_identical() {
    // 45 own points: warp 1 runs 13 lanes. 70 partners: the second tile
    // is 6 long. Culled rows add 13 (not 32) lanes to the overflow
    // bucket and charge 13-fold serialization.
    let spec = cull_spec();
    let left = box_pts(45, [0.0; 3], [10.0; 3], 5);
    let far = box_pts(70, [60.0; 3], [10.0; 3], 6);
    let spread = box_pts(70, [0.0; 3], [100.0, 10.0, 10.0], 7);
    let runs = assert_identical(|dev| {
        let (bits, run) = cross_sdh(dev, &left, &far, spec, Euclidean);
        let h = merged(&bits, spec.buckets);
        assert_eq!(
            h[7],
            45 * 70,
            "every far pair bins into the overflow bucket"
        );
        (bits, run)
    });
    let (culled, rows) = culled_of(&runs);
    assert_eq!(culled, rows);
    let runs = assert_identical(|dev| cross_sdh(dev, &left, &spread, spec, Euclidean));
    let (culled, rows) = culled_of(&runs);
    assert!(0 < culled && culled < rows, "{culled} of {rows}");
}

#[test]
fn partners_one_ulp_either_side_of_the_cull_threshold_are_route_identical() {
    // Own lanes all at the origin (a point box), partners on the x axis:
    // the bound is g² = fl(x·x). x1 is the first f32 whose bound reaches
    // the threshold, x0 the one below it; only x1's row may cull, and
    // both rows still bin into the overflow bucket.
    let spec = cull_spec();
    let cfg = DeviceConfig::titan_x();
    let mut dev = Device::new(cfg.clone());
    let private = dev.alloc_u32_zeroed(spec.buckets as usize);
    let act = SharedHistogramAction { spec, private };
    let thr = lower_pair_plan::<3, _, _>(&cfg, &Euclidean, &act, B)
        .expect("histogram plan lowers")
        .cull_threshold()
        .expect("Euclidean histogram plan culls");
    let g = |x: f32| x.mul_add(x, 0.0);
    let mut x1 = thr.sqrt();
    while g(x1) >= thr {
        x1 = f32::from_bits(x1.to_bits() - 1);
    }
    while g(x1) < thr {
        x1 = f32::from_bits(x1.to_bits() + 1);
    }
    let x0 = f32::from_bits(x1.to_bits() - 1);
    assert!(g(x0) < thr && g(x1) >= thr);
    let left = vec![[0.0f32; 3]; 32];
    let right = vec![[x0, 0.0, 0.0], [x1, 0.0, 0.0]];
    let runs = assert_identical(|dev| {
        let (bits, run) = cross_sdh(dev, &left, &right, spec, Euclidean);
        assert_eq!(merged(&bits, spec.buckets)[7], 64);
        (bits, run)
    });
    assert_eq!(culled_of(&runs), (1, 2), "exactly the x1 row culls");
}

#[test]
fn nan_partners_are_never_culled() {
    // A NaN coordinate makes the bound NaN: the row is kept and its
    // lanes take the device's NaN → bucket 0 convention.
    let spec = cull_spec();
    let left = box_pts(32, [0.0; 3], [10.0; 3], 8);
    let mut right = box_pts(20, [60.0; 3], [10.0; 3], 9);
    right.push([f32::NAN, 65.0, 65.0]);
    right.push([65.0, 65.0, f32::NAN]);
    let runs = assert_identical(|dev| {
        let (bits, run) = cross_sdh(dev, &left, &right, spec, Euclidean);
        assert_eq!(merged(&bits, spec.buckets)[0], 64, "NaN rows bin to 0");
        (bits, run)
    });
    assert_eq!(culled_of(&runs), (20, 22), "only the finite rows cull");
}

#[test]
fn non_finite_own_lanes_decline_the_cull() {
    // One infinite lane in warp 0, one NaN lane in warp 1: neither
    // warp has a finite bounding box, so neither culls.
    let spec = cull_spec();
    let mut left = box_pts(64, [0.0; 3], [10.0; 3], 10);
    left[3] = [f32::INFINITY, 1.0, 1.0];
    left[40] = [1.0, f32::NAN, 1.0];
    let far = box_pts(50, [60.0; 3], [10.0; 3], 11);
    let runs = assert_identical(|dev| cross_sdh(dev, &left, &far, spec, Euclidean));
    assert_eq!(culled_of(&runs).0, 0);
}

#[test]
fn single_bucket_histograms_never_cull() {
    // hmax = 0: the overflow edge is 0, so there is no threshold to
    // clear (every pair bins to bucket 0 on every route regardless).
    let spec = HistogramSpec::new(1, 20.0);
    let cfg = DeviceConfig::titan_x();
    let mut dev = Device::new(cfg.clone());
    let private = dev.alloc_u32_zeroed(1);
    let act = SharedHistogramAction { spec, private };
    let ck = lower_pair_plan::<3, _, _>(&cfg, &Euclidean, &act, B).expect("lowers");
    assert_eq!(ck.cull_threshold(), None);
    let left = box_pts(64, [0.0; 3], [10.0; 3], 12);
    let far = box_pts(50, [60.0; 3], [10.0; 3], 13);
    let runs = assert_identical(|dev| cross_sdh(dev, &left, &far, spec, Euclidean));
    assert_eq!(culled_of(&runs).0, 0);
}

#[test]
fn culled_multi_sink_passes_are_route_identical() {
    // Two count sinks with and without two histogram sinks: a culled row
    // adds nothing to the counts and its lanes to each histogram's
    // overflow bucket. The mixed batch's threshold is the largest
    // overflow edge (24 for 5 bins to 30), above the count thresholds;
    // the counts-only batch culls whole chunks of the x-sorted tiles
    // (every Euclidean list runs the chunk test, only a histogram list
    // the row test) and stays route-identical all the same.
    let left = box_pts(64, [0.0; 3], [10.0; 3], 14);
    let right = box_pts(150, [0.0; 3], [100.0, 10.0, 10.0], 15);
    let specs = [cull_spec(), HistogramSpec::new(5, 30.0)];
    for n_hists in [2usize, 0] {
        let runs = assert_identical(|dev| {
            let dl = SoaPoints::from_points(&left).upload(dev);
            let dr = SoaPoints::from_points(&right).upload(dev);
            let lc = pair_launch(dl.n, B);
            let counts: Vec<MultiCountSink> = [3.0, 12.0]
                .map(|radius| MultiCountSink {
                    radius,
                    out: dev.alloc_u64_zeroed(lc.total_threads() as usize),
                })
                .into();
            let hists: Vec<MultiHistSink> = specs[..n_hists]
                .iter()
                .map(|&spec| MultiHistSink {
                    spec,
                    private: dev.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize),
                })
                .collect();
            let action = MultiQueryAction {
                counts: counts.clone(),
                hists: hists.clone(),
            };
            let k = CrossShmKernel::new(dl, dr, Euclidean, action, B);
            let run = dev.launch(&k, lc);
            let mut bits: Bits = Vec::new();
            for c in &counts {
                bits.extend(dev.u64_slice(c.out));
            }
            for h in &hists {
                bits.extend(dev.u32_slice(h.private).iter().map(|&x| x as u64));
            }
            (bits, run)
        });
        let (culled, atomics) = culled_of(&runs);
        if n_hists > 0 {
            assert!(culled > 0, "{n_hists} histogram sinks: nothing culled");
            let rows = atomics / n_hists as u64;
            assert!(culled < rows, "{culled} of {rows}");
        } else {
            // Two warps against 150 partners each.
            assert!(
                0 < culled && culled < 300,
                "count list culled {culled} of 300"
            );
        }
    }
}

#[test]
fn periodic_plans_never_cull() {
    // The minimum-image difference has no bounding-box bound: the plan
    // lowers without a cull threshold, and far partners stay walked.
    let spec = cull_spec();
    let periodic = PeriodicEuclidean::new(100.0);
    let cfg = DeviceConfig::titan_x();
    let mut dev = Device::new(cfg.clone());
    let private = dev.alloc_u32_zeroed(spec.buckets as usize);
    let act = SharedHistogramAction { spec, private };
    let ck = lower_pair_plan::<3, _, _>(&cfg, &periodic, &act, B).expect("lowers");
    assert_eq!(ck.cull_threshold(), None);
    let left = box_pts(64, [0.0; 3], [10.0; 3], 16);
    let far = box_pts(50, [60.0; 3], [10.0; 3], 17);
    let runs = assert_identical(|dev| cross_sdh(dev, &left, &far, spec, periodic));
    assert_eq!(culled_of(&runs).0, 0);
}

#[test]
fn culled_roc_sdh_passes_are_route_identical() {
    // ROC-broadcast tiles (Register-ROC) on an x-sorted line of points,
    // so whole warps sit far from later tiles. (The shuffle kernel's
    // lane-broadcast passes all carry a predicate and never cull; the
    // gpu-sim tile probe covers culled lane-broadcast passes.)
    let spec = cull_spec();
    let pts = SoaPoints::from_points(&box_pts(300, [0.0; 3], [100.0, 5.0, 5.0], 18));
    let runs = assert_identical(|dev| {
        sdh_run(dev, &pts, spec, |input, act| {
            Box::new(RegisterRocKernel::new(
                input,
                Euclidean,
                act,
                B,
                PairScope::HalfPairs,
                IntraMode::Regular,
            ))
        })
    });
    assert!(culled_of(&runs).0 > 0, "ROC passes must cull");
}

// ---------------------------------------------------------------------
// Chunk-box culling over recorded tile loads
// ---------------------------------------------------------------------

/// `pts` sorted along a 3-D Morton curve over the 100³ box (10 bits a
/// dimension), the order `pcf_gpu` uploads in.
fn morton_sorted(pts: &SoaPoints<3>) -> SoaPoints<3> {
    let key = |p: [f32; 3]| {
        let q = p.map(|x| (x * 10.23) as u32);
        let mut k = 0u32;
        for b in (0..10).rev() {
            for c in q {
                k = k << 1 | ((c >> b) & 1);
            }
        }
        k
    };
    let mut v: Vec<[f32; 3]> = pts.iter().collect();
    v.sort_by_key(|&p| key(p));
    SoaPoints::from_points(&v)
}

#[test]
fn count_and_mixed_lists_cull_chunks_route_identically_in_both_orders() {
    // 600 points (a ragged last block) in caller and in Morton order.
    // On Morton order, tiles and warps are compact, so count-only and
    // mixed lists cull chunks of the shared tiles; on caller order they
    // barely can. Either way every route agrees bit for bit.
    let caller = cloud(600);
    let morton = morton_sorted(&caller);
    let specs = [cull_spec(), HistogramSpec::new(5, 30.0)];
    let mut culled = [0u64; 2];
    for (k, pts) in [&caller, &morton].into_iter().enumerate() {
        let [count, _, _] = assert_identical(|dev| {
            count_run(dev, pts, |input, act| {
                Box::new(RegisterShmKernel::new(
                    input,
                    Euclidean,
                    act,
                    B,
                    PairScope::HalfPairs,
                    IntraMode::Regular,
                ))
            })
        });
        culled[k] = count.interp.culled_rows;
        for (name, mk) in triangle_kernels(Euclidean) {
            let [mixed, _, _] = assert_identical(|dev| mixed_batch_run(dev, pts, specs, &*mk));
            if k == 1 && name != "register-roc" {
                assert!(
                    mixed.interp.culled_rows > 0,
                    "{name}: Morton mixed list must cull"
                );
            }
        }
    }
    assert!(
        culled[1] > culled[0],
        "Morton order must cull more count rows: {culled:?}"
    );
}

/// A Cross-SHM count of `left` against `right` within `radius`.
fn cross_count(
    dev: &mut Device,
    left: &[[f32; 3]],
    right: &[[f32; 3]],
    radius: f32,
) -> (Bits, KernelRun) {
    let dl = SoaPoints::from_points(left).upload(dev);
    let dr = SoaPoints::from_points(right).upload(dev);
    let lc = pair_launch(dl.n, B);
    let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
    let k = CrossShmKernel::new(dl, dr, Euclidean, CountWithinRadius { radius, out }, B);
    let run = dev.launch(&k, lc);
    (dev.u64_slice(out).to_vec(), run)
}

#[test]
fn count_partners_one_ulp_either_side_of_a_chunk_box_edge_are_route_identical() {
    // One warp at the origin against two 64-row tiles of two chunks.
    // x1 is the first f32 whose bound reaches the cull threshold, x0 the
    // one below it, and xt sits past the count threshold but below the
    // cull threshold (inside the margin). Each x1 chunk carries one
    // partner 50 off-axis, so no tile box lies within reach of the warp
    // box and every chunk is tested: exactly the two x1 chunks cull.
    let radius = 9.0f32;
    let cfg = DeviceConfig::titan_x();
    let mut dev = Device::new(cfg.clone());
    let out = dev.alloc_u64_zeroed(64);
    let act = CountWithinRadius { radius, out };
    let thr = lower_pair_plan::<3, _, _>(&cfg, &Euclidean, &act, B)
        .expect("count plan lowers")
        .cull_threshold()
        .expect("Euclidean count plan culls");
    let g = |x: f32| x.mul_add(x, 0.0);
    let first_at = |t: f32| {
        let mut x = t.sqrt();
        while g(x) >= t {
            x = f32::from_bits(x.to_bits() - 1);
        }
        while g(x) < t {
            x = f32::from_bits(x.to_bits() + 1);
        }
        x
    };
    let x1 = first_at(thr);
    let x0 = f32::from_bits(x1.to_bits() - 1);
    let xt = first_at(gpu_sim::sqrt_lt_threshold(radius));
    assert!(g(x0) < thr && g(x1) >= thr && g(xt) < thr && xt < x0);
    let left = vec![[0.0f32; 3]; 32];
    let mut right = Vec::new();
    for (near, far_off) in [(x0, [x1, 50.0, 0.0]), (xt, [x1, 0.0, 50.0])] {
        right.extend([[near, 0.0, 0.0]; 32]);
        right.extend([[x1, 0.0, 0.0]; 31]);
        right.push(far_off);
    }
    let runs = assert_identical(|dev| cross_count(dev, &left, &right, radius));
    assert_eq!(runs[0].interp.culled_rows, 64, "exactly the x1 chunks cull");
    assert_eq!(runs[1].interp.culled_rows + runs[2].interp.culled_rows, 0);
}

#[test]
fn a_nan_partner_keeps_an_otherwise_culled_chunk() {
    // A mixed list against 64 far partners: the first chunk culls whole;
    // the second holds one NaN partner, so it survives the chunk test,
    // its 31 finite rows cull by the row test and the NaN row bins into
    // bucket 0 on every route.
    let spec = cull_spec();
    let left = box_pts(32, [0.0; 3], [10.0; 3], 19);
    let mut right = box_pts(64, [60.0; 3], [10.0; 3], 20);
    right[40][0] = f32::NAN;
    let runs = assert_identical(|dev| {
        let dl = SoaPoints::from_points(&left).upload(dev);
        let dr = SoaPoints::from_points(&right).upload(dev);
        let lc = pair_launch(dl.n, B);
        let out = dev.alloc_u64_zeroed(lc.total_threads() as usize);
        let private = dev.alloc_u32_zeroed((lc.grid_dim * spec.buckets) as usize);
        let action = MultiQueryAction {
            counts: vec![MultiCountSink { radius: 3.0, out }],
            hists: vec![MultiHistSink { spec, private }],
        };
        let k = CrossShmKernel::new(dl, dr, Euclidean, action, B);
        let run = dev.launch(&k, lc);
        let mut bits: Bits = dev.u64_slice(out).to_vec();
        let hist: Bits = dev.u32_slice(private).iter().map(|&x| x as u64).collect();
        assert_eq!(merged(&hist, spec.buckets)[0], 32, "the NaN row bins to 0");
        bits.extend(hist);
        (bits, run)
    });
    assert_eq!(culled_of(&runs), (63, 64));
}

#[test]
fn non_finite_own_lanes_decline_the_chunk_test() {
    // Count lists: one infinite lane in warp 0, one NaN lane in warp 1,
    // against far partners that would otherwise cull whole.
    let mut left = box_pts(64, [0.0; 3], [10.0; 3], 21);
    left[3] = [f32::INFINITY, 1.0, 1.0];
    left[40] = [1.0, f32::NAN, 1.0];
    let far = box_pts(64, [60.0; 3], [10.0; 3], 22);
    let runs = assert_identical(|dev| cross_count(dev, &left, &far, 9.0));
    assert_eq!(runs[0].interp.culled_rows, 0);
    // The same warps without the non-finite lanes cull every row.
    let left = box_pts(64, [0.0; 3], [10.0; 3], 21);
    let runs = assert_identical(|dev| cross_count(dev, &left, &far, 9.0));
    assert_eq!(runs[0].interp.culled_rows, 128);
}
