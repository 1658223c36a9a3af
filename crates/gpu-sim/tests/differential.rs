//! Differential tests: the vectorized fast paths against the retained
//! scalar reference implementations.
//!
//! `DeviceConfig::with_scalar_reference(true)` routes the interpreter to
//! the original per-lane code (HashMap+VecDeque caches, nested-scan bank
//! conflicts, `from_fn` ALU ops, no access-shape detection). These tests
//! drive randomized kernels and access streams through both routes and
//! assert **bit-identical** outputs, [`AccessTally`] counters, simulated
//! timing and fault reports — the contract that makes the fast paths an
//! optimization rather than a behaviour change.

use gpu_sim::mem::{L2Cache, RocCache, SharedSpace};
use gpu_sim::prelude::*;
use gpu_sim::SimError;
use proptest::prelude::*;

/// The CI matrix pins, parsed from the environment.
///
/// `TBS_DIFF_EXEC=sequential|parallel` pins every device this suite
/// builds to one execution engine, so the whole differential contract
/// is exercised under both the sequential and the speculative parallel
/// block executor (`threads: 2` forces the real speculate/commit path
/// even on a single-core host). Unset, devices keep [`DeviceConfig`]'s
/// own default. The torture proptest keeps its explicit per-case mode
/// axis regardless.
///
/// `TBS_DIFF_ROUTE=op|compiled` is the interpreter-route axis of the
/// same matrix: `op` re-points every *default-route* device (compiled
/// on, not the scalar reference) at the op-by-op route, so CI sweeps
/// {op-by-op, compiled} × {sequential, parallel}; `compiled` (or unset)
/// keeps the default. Devices that explicitly selected a non-default
/// route — the op-by-op (`with_compiled(false)`) and scalar legs of
/// each differential — are never touched, which keeps every
/// bit-identity comparison meaningful under any pin.
///
/// Any other value of either variable panics with the accepted set: a
/// typo must not silently test the default route.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DiffEnv {
    exec: Option<ExecMode>,
    /// `TBS_DIFF_ROUTE=op`: default-route devices run op by op.
    op_route: bool,
}

fn parse_diff_env(exec: Option<&str>, route: Option<&str>) -> DiffEnv {
    let exec = match exec {
        None => None,
        Some("sequential") => Some(ExecMode::Sequential),
        Some("parallel") => Some(ExecMode::Parallel { threads: 2 }),
        Some(v) => panic!("TBS_DIFF_EXEC={v:?} is not one of: sequential, parallel"),
    };
    let op_route = match route {
        None | Some("compiled") => false,
        Some("op") => true,
        Some(v) => panic!("TBS_DIFF_ROUTE={v:?} is not one of: op, compiled"),
    };
    DiffEnv { exec, op_route }
}

fn diff_env() -> DiffEnv {
    let var = |k| std::env::var(k).ok();
    parse_diff_env(
        var("TBS_DIFF_EXEC").as_deref(),
        var("TBS_DIFF_ROUTE").as_deref(),
    )
}

/// Apply the [`DiffEnv`] pins to a device config.
fn exec_override(cfg: DeviceConfig) -> DeviceConfig {
    let env = diff_env();
    let cfg = match env.exec {
        Some(mode) => cfg.with_exec_mode(mode),
        None => cfg,
    };
    if env.op_route && cfg.compiled && !cfg.scalar_reference {
        cfg.with_compiled(false)
    } else {
        cfg
    }
}

/// True when `TBS_DIFF_ROUTE=op` re-points the default-route devices
/// at the op-by-op route: their compiled-engagement asserts must then
/// stand down (identity asserts all still apply). The CI matrix's
/// compiled leg keeps them armed, proving compilation actually engaged
/// rather than silently falling back.
fn route_pinned() -> bool {
    diff_env().op_route
}

#[test]
fn diff_env_accepts_the_matrix_values() {
    assert_eq!(
        parse_diff_env(None, None),
        DiffEnv {
            exec: None,
            op_route: false
        }
    );
    assert_eq!(
        parse_diff_env(Some("sequential"), Some("op")),
        DiffEnv {
            exec: Some(ExecMode::Sequential),
            op_route: true
        }
    );
    assert_eq!(
        parse_diff_env(Some("parallel"), Some("compiled")),
        DiffEnv {
            exec: Some(ExecMode::Parallel { threads: 2 }),
            op_route: false
        }
    );
}

#[test]
fn diff_env_rejects_unknown_values_naming_the_accepted_set() {
    for (exec, route, needle) in [
        (Some("paralel"), None, "sequential, parallel"),
        (None, Some("fused"), "op, compiled"),
        (None, Some(""), "op, compiled"),
    ] {
        let err = std::panic::catch_unwind(|| parse_diff_env(exec, route))
            .expect_err("unknown pin values must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("panic message is a formatted String");
        assert!(msg.contains(needle), "{msg:?} must name {needle:?}");
    }
}

// ---------------------------------------------------------------------------
// Unit-level differentials: cache bodies and bank-conflict counting
// ---------------------------------------------------------------------------

proptest! {
    /// Open-addressed FIFO L2 vs the HashMap+VecDeque reference: every
    /// single access must make the same hit/miss decision, under thrash
    /// (capacity 1) and comfortable capacities alike.
    #[test]
    fn l2_fast_and_reference_agree_per_access(
        cap in 1usize..64,
        sectors in prop::collection::vec(0u64..256, 0..600),
    ) {
        let mut fast = L2Cache::new(cap);
        let mut refc = L2Cache::new_reference(cap);
        for &s in &sectors {
            prop_assert_eq!(fast.access(s), refc.access(s), "sector {}", s);
        }
        prop_assert_eq!(fast.hits(), refc.hits());
        prop_assert_eq!(fast.misses(), refc.misses());
    }

    /// Same contract for the read-only data cache.
    #[test]
    fn roc_fast_and_reference_agree_per_access(
        cap in 1usize..48,
        sectors in prop::collection::vec(0u64..192, 0..600),
    ) {
        let mut fast = RocCache::new(cap);
        let mut refc = RocCache::new_reference(cap);
        for &s in &sectors {
            prop_assert_eq!(fast.access(s), refc.access(s), "sector {}", s);
        }
        prop_assert_eq!(fast.hits(), refc.hits());
        prop_assert_eq!(fast.misses(), refc.misses());
    }

    /// Bank-conflict degree: bitset dedup + broadcast/unit-stride fast
    /// paths vs the original nested scan, across bank counts (including
    /// the degenerate 1-bank and >32-bank configurations) and element
    /// widths (f32 → 1 word/elem, u64 → 2 words/elem).
    #[test]
    fn bank_conflict_degree_matches_reference(
        banks in prop::sample::select(vec![1u32, 2, 16, 32, 33, 48]),
        idxs in prop::collection::vec(0u32..512, 0..32),
        stride in 0u32..40,
        pattern in 0u8..4,
    ) {
        let build = |scalar: bool| {
            let mut shm = SharedSpace::new(banks);
            shm.set_scalar_reference(scalar);
            shm.alloc_f32(2048); // array 0: 1 word/element
            shm.alloc_u64(2048); // array 1: 2 words/element
            shm
        };
        let fast = build(false);
        let refc = build(true);

        let idxs: Vec<u32> = match pattern {
            0 => idxs,                                          // random gather
            1 => (0..idxs.len() as u32).collect(),              // unit stride
            2 => idxs.iter().map(|_| stride % 2048).collect(),  // broadcast
            _ => (0..idxs.len() as u32)
                .map(|k| (k * stride) % 2048)
                .collect(),                                     // strided
        };
        for arr in [0usize, 1] {
            prop_assert_eq!(
                fast.transactions_for(arr, &idxs),
                refc.transactions_for(arr, &idxs),
                "banks={} pattern={} arr={}", banks, pattern, arr
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Histogram scatter walks against the stateless scalar oracle
// ---------------------------------------------------------------------------

/// Histogram length of the scatter-walk differential: room for rows
/// up to 5000 buckets wide at any start, as Figure 5's sweep has.
const SCATTER_LEN: u32 = 5120;

/// One step's bucket indices (`lanes` active lanes) of scatter shape
/// `shape`, drawn from the xorshift stream `x`.
fn scatter_row(shape: u8, lanes: usize, hmax: u32, x: &mut u64) -> Vec<u32> {
    let mut next = |m: u32| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        (*x % m as u64) as u32
    };
    // A width `w` for the wide shapes, 512–5000, and a start that keeps
    // the row inside the histogram.
    let wide = next(4489) + 512;
    let lo = next(SCATTER_LEN - 256);
    let wide_lo = next(SCATTER_LEN - wide);
    // The two ends of a row `w` wide from `lo` are always present, so
    // the row spans exactly `w`; the other lanes land inside it.
    let span = |lo: u32, w: u32, next: &mut dyn FnMut(u32) -> u32| -> Vec<u32> {
        (0..lanes)
            .map(|k| match k {
                0 => lo,
                1 => lo + w,
                _ => lo + next(w + 1),
            })
            .collect()
    };
    match shape {
        // Overflow-heavy: half the lanes in the overflow bucket `hmax`.
        0 => (0..lanes)
            .map(|k| if k % 2 == 0 { hmax } else { next(hmax + 1) })
            .collect(),
        // All distinct, in a scrambled order with gaps.
        1 => (0..lanes as u32).map(|k| lo + (k * 7) % 32 * 3).collect(),
        // All equal.
        2 => vec![lo; lanes],
        // Exactly 255 and 256 wide.
        3 => span(lo, 255, &mut next),
        4 => span(lo, 256, &mut next),
        // Straddling a multiple of 256.
        5 => (0..lanes).map(|_| 200 + next(251)).collect(),
        // Heavy contention on a few buckets.
        6 => (0..lanes).map(|_| lo + next(5) * 32).collect(),
        // 512–5000 wide.
        7 => span(wide_lo, wide, &mut next),
        // 512–5000 wide with same-bank pileups: lanes a multiple of
        // the bank cycle apart.
        8 => (0..lanes)
            .map(|k| match k {
                0 => wide_lo,
                1 => wide_lo + wide,
                _ => wide_lo + next(wide / 48 + 1) * 48,
            })
            .collect(),
        // Anywhere in the histogram.
        _ => (0..lanes).map(|_| next(SCATTER_LEN)).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The batched full-warp walk (`scatter_account_update_rows`) and
    /// the per-step walk (`scatter_account_update`, partial rows of
    /// 1–31 lanes) against the stateless `atomic_scatter_accounting` of
    /// a scalar-reference space with the same layout plus per-lane data
    /// adds: the same charge sums and the same histogram, for base
    /// offsets off the 32-word grid, rows up to 5000 wide and banks
    /// ∈ {32, 16, 24, 48} (a count that is not a power of two, and one
    /// that folds two columns into one bank).
    #[test]
    fn scatter_walks_match_the_stateless_oracle(
        banks in prop::sample::select(vec![32u32, 16, 24, 48]),
        pad in 0usize..70,
        hmax in 1u32..SCATTER_LEN,
        shapes in prop::collection::vec(0u8..10, 1..7),
        partial in prop::collection::vec(1usize..32, 0..4),
        seed in any::<u64>(),
    ) {
        let layout = |scalar: bool| {
            let mut shm = SharedSpace::new(banks);
            shm.set_scalar_reference(scalar);
            shm.alloc_f32(pad); // array 0 shifts the histogram's base word
            let h = shm.alloc_u32(SCATTER_LEN as usize); // array 1
            (shm, h)
        };
        let (mut fast, h) = layout(false);
        let (oracle, _) = layout(true);
        let mut x = seed | 1;
        let mut expect = vec![0u32; SCATTER_LEN as usize];
        let mut want = (0u64, 0u64, 0u64);
        let mut charge = |row: &[u32], want: &mut (u64, u64, u64)| {
            let (mult, txns) = oracle.atomic_scatter_accounting(1, row);
            want.0 += mult;
            want.1 += txns + mult - 1;
            want.2 += txns - 1;
            for &v in row {
                expect[v as usize] += 1;
            }
        };
        let rows: Vec<u32> = shapes
            .iter()
            .flat_map(|&sh| scatter_row(sh, WARP_SIZE, hmax, &mut x))
            .collect();
        for row in rows.chunks_exact(WARP_SIZE) {
            charge(row, &mut want);
        }
        let got = fast.scatter_account_update_rows(h, &rows);
        prop_assert_eq!(got, want, "full rows, shapes {:?}", shapes);
        let mut got = (0u64, 0u64, 0u64);
        want = (0, 0, 0);
        for (i, &lanes) in partial.iter().enumerate() {
            let row = scatter_row(shapes[i % shapes.len()], lanes, hmax, &mut x);
            charge(&row, &mut want);
            let (mult, txns) = fast.scatter_account_update(h, &row);
            got.0 += mult;
            got.1 += txns + mult - 1;
            got.2 += txns - 1;
        }
        prop_assert_eq!(got, want, "partial rows {:?}, shapes {:?}", partial, shapes);
        prop_assert_eq!(fast.u32s(h), &expect[..]);
    }
}

// ---------------------------------------------------------------------------
// Lane-op differential: every vectorized ALU op, arbitrary masks
// ---------------------------------------------------------------------------

/// Applies every vectorized ALU op under an *arbitrary* (not necessarily
/// prefix) mask and stores the full-width results, so inactive-lane
/// values produced by the branch-free blend are directly visible in the
/// output buffers.
struct AluKernel {
    a: BufF32,
    b: BufF32,
    c: BufF32,
    outs: [BufF32; 5],
    lt_out: BufU32,
    u_outs: [BufU32; 2],
    mask_bits: u32,
    scale: f32,
    thresh: f32,
    addend: u32,
    modulus: u32,
}

impl Kernel for AluKernel {
    fn name(&self) -> &'static str {
        "alu_differential"
    }

    fn resources(&self) -> KernelResources {
        KernelResources::new(16, 0)
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        blk.for_each_warp(|w| {
            let tid = w.thread_ids();
            let full = Mask::FULL;
            let m = Mask(self.mask_bits);
            let a = w.global_load_f32(self.a, &tid, full);
            let b = w.global_load_f32(self.b, &tid, full);
            let c = w.global_load_f32(self.c, &tid, full);

            let sub = w.sub_f32x(&a, &b, m);
            let add = w.add_f32x(&a, &b, m);
            let fma = w.fma_f32x(&a, &b, &c, m);
            let mul = w.mul_f32(&a, self.scale, m);
            let sq = w.sqrt_f32x(&fma, m);
            for (out, vals) in self.outs.iter().zip([&sub, &add, &fma, &mul, &sq]) {
                w.global_store_f32(*out, &tid, vals, full);
            }

            // Visualize the lt mask by storing ones under it.
            let ltm = w.lt_f32(&sq, self.thresh, m);
            let ones = [1u32; WARP_SIZE];
            w.global_store_u32(self.lt_out, &tid, &ones, ltm);

            let au = w.add_u32(&tid, self.addend, m);
            let mu = w.mod_u32(&tid, self.modulus, m);
            for (out, vals) in self.u_outs.iter().zip([&au, &mu]) {
                w.global_store_u32(*out, &tid, vals, full);
            }
        });
    }
}

fn run_alu(
    dev: &mut Device,
    k_in: (&[f32], &[f32], &[f32]),
    params: (u32, f32, f32, u32, u32),
) -> (Vec<u32>, KernelRun) {
    let (a, b, c) = k_in;
    let kernel = AluKernel {
        a: dev.alloc_f32(a.to_vec()),
        b: dev.alloc_f32(b.to_vec()),
        c: dev.alloc_f32(c.to_vec()),
        outs: [(); 5].map(|_| dev.alloc_f32_zeroed(WARP_SIZE)),
        lt_out: dev.alloc_u32_zeroed(WARP_SIZE),
        u_outs: [(); 2].map(|_| dev.alloc_u32_zeroed(WARP_SIZE)),
        mask_bits: params.0,
        scale: params.1,
        thresh: params.2,
        addend: params.3,
        modulus: params.4,
    };
    let run = dev.launch(&kernel, LaunchConfig::for_n_threads(WARP_SIZE as u32, 32));
    let mut bits = Vec::new();
    for o in kernel.outs {
        bits.extend(dev.f32_slice(o).iter().map(|v| v.to_bits()));
    }
    bits.extend_from_slice(dev.u32_slice(kernel.lt_out));
    for o in kernel.u_outs {
        bits.extend_from_slice(dev.u32_slice(o));
    }
    (bits, run)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every ALU lane op, fast vs reference, including inactive-lane bit
    /// patterns (blend must produce exactly the reference's zeros) and
    /// the empty mask.
    #[test]
    fn alu_ops_bit_identical_under_any_mask(
        a in prop::collection::vec(-1e4f32..1e4, 32..33),
        b in prop::collection::vec(-1e4f32..1e4, 32..33),
        c in prop::collection::vec(-1e4f32..1e4, 32..33),
        mask_sel in 0u8..3,
        mask_raw in any::<u32>(),
        scale in -8f32..8.0,
        thresh in 0f32..2e8,
        addend in any::<u32>(),
        modulus in 1u32..100,
    ) {
        let mask_bits = match mask_sel {
            0 => Mask::NONE.0,
            1 => Mask::FULL.0,
            _ => mask_raw,
        };
        let params = (mask_bits, scale, thresh, addend, modulus);
        let mut fast = Device::new(exec_override(DeviceConfig::titan_x()));
        let mut refd = Device::new(exec_override(
            DeviceConfig::titan_x().with_scalar_reference(true),
        ));
        let (fo, fr) = run_alu(&mut fast, (&a, &b, &c), params);
        let (ro, rr) = run_alu(&mut refd, (&a, &b, &c), params);
        prop_assert_eq!(fo, ro);
        prop_assert_eq!(&fr.tally, &rr.tally);
        prop_assert_eq!(fr.timing.seconds.to_bits(), rr.timing.seconds.to_bits());
    }
}

// ---------------------------------------------------------------------------
// Whole-kernel differential: memory shapes, divergence, atomics, faults
// ---------------------------------------------------------------------------

/// A torture kernel crossing every access-shape fast path: unit-stride
/// and gathered global loads, ROC loads, shared tiles, shared and global
/// atomics under non-prefix masks, and a data-dependent divergent loop.
/// The launch is padded past `n`, so the tail has a ragged warp and the
/// padding produces fully-empty masks.
struct TortureKernel {
    input: BufF32,
    gidx: BufU32,
    seeds: BufU64,
    out: BufF32,
    out64: BufU64,
    hist: BufU32,
    acc: BufU64,
    n: u32,
    thresh: f32,
}

impl Kernel for TortureKernel {
    fn name(&self) -> &'static str {
        "torture_differential"
    }

    fn resources(&self) -> KernelResources {
        // 192 threads max per block → 192*4 + 64*4 + 32*8 bytes shared.
        KernelResources::new(24, 192 * 4 + 64 * 4 + 32 * 8)
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let tile = blk.shared_alloc_f32(blk.block_dim as usize);
        let shist = blk.shared_alloc_u32(64);
        let stash = blk.shared_alloc_u64(32);
        blk.for_each_warp(|w| {
            let lid = w.lane_ids();
            let tid = w.thread_ids();
            let gtid = w.global_thread_ids();
            let mask = w.mask_lt(&gtid, self.n); // ragged tail + empty pads

            // Unit-stride load, gathered load, ROC load.
            let idx = w.global_load_u32(self.gidx, &gtid, mask);
            let x = w.global_load_f32(self.input, &gtid, mask);
            let y = w.global_load_f32(self.input, &idx, mask);
            let z = w.roc_load_f32(self.input, &idx, mask);

            // ALU chain feeding a non-prefix inner mask.
            let d = w.sub_f32x(&x, &y, mask);
            let zero = [0.0f32; WARP_SIZE];
            let d2 = w.fma_f32x(&d, &d, &zero, mask);
            let s = w.sqrt_f32x(&d2, mask);
            let inner = w.lt_f32(&s, self.thresh, mask); // arbitrary subset

            // Shared tile: unit-stride store/load, gathered atomic.
            w.shared_store_f32(tile, &tid, &x, mask);
            let t = w.shared_load_f32(tile, &tid, mask);
            let bin = w.mod_u32(&idx, 64, mask);
            let ones = [1u32; WARP_SIZE];
            w.shared_atomic_add_u32(shist, &bin, &ones, inner);

            // Shared u64 round-trip on lane ids (broadcast-free stride).
            let sv = w.global_load_u64(self.seeds, &lid, mask);
            w.shared_store_u64(stash, &lid, &sv, mask);
            let sv2 = w.shared_load_u64(stash, &lid, mask);

            // Data-dependent divergent loop with global atomics inside.
            let trips = w.mod_u32(&idx, 5, mask);
            w.divergent_loop(&trips, mask, |w, _j, active| {
                let gbin = w.mod_u32(&idx, 61, active);
                w.global_atomic_add_u32(self.hist, &gbin, &ones, active);
            });

            // Global atomics under the non-prefix inner mask.
            w.global_atomic_add_u64(self.acc, &bin, &sv2, inner);

            // Results out: unit-stride f32 store, gathered u64 store.
            let r = w.add_f32x(&t, &z, mask);
            w.global_store_f32(self.out, &gtid, &r, mask);
            w.global_store_u64(self.out64, &gtid, &sv2, mask);
        });
    }
}

struct TortureSetup {
    input: Vec<f32>,
    gidx: Vec<u32>,
    seeds: Vec<u64>,
    n: u32,
    padded: u32,
    block_dim: u32,
    thresh: f32,
}

fn run_torture(dev: &mut Device, s: &TortureSetup) -> Result<(Vec<u64>, KernelRun), SimError> {
    let kernel = TortureKernel {
        input: dev.alloc_f32(s.input.clone()),
        gidx: dev.alloc_u32(s.gidx.clone()),
        seeds: dev.alloc_u64(s.seeds.clone()),
        out: dev.alloc_f32_zeroed(s.padded as usize),
        out64: dev.alloc_u64_zeroed(s.padded as usize),
        hist: dev.alloc_u32_zeroed(61),
        acc: dev.alloc_u64_zeroed(64),
        n: s.n,
        thresh: s.thresh,
    };
    let run = dev.try_launch(&kernel, LaunchConfig::for_n_threads(s.padded, s.block_dim))?;
    let mut out = Vec::new();
    out.extend(dev.f32_slice(kernel.out).iter().map(|v| v.to_bits() as u64));
    out.extend_from_slice(dev.u64_slice(kernel.out64));
    out.extend(dev.u32_slice(kernel.hist).iter().map(|&v| v as u64));
    out.extend_from_slice(dev.u64_slice(kernel.acc));
    Ok((out, run))
}

/// Assemble a [`TortureSetup`] from independently-generated raw material
/// (the vendored proptest shim has no `prop_flat_map`, so length-coupled
/// vectors are generated at max size and sliced down here).
#[allow(clippy::too_many_arguments)]
fn make_setup(
    n: u32,
    pad: u32,
    block_dim: u32,
    input_raw: &[f32],
    gidx_raw: &[u32],
    seeds: Vec<u64>,
    pattern: u8,
    stride: u32,
    thresh: f32,
) -> TortureSetup {
    let len = n + 4;
    let mut gidx: Vec<u32> = gidx_raw[..(n + pad) as usize].to_vec();
    match pattern {
        0 => {
            for g in &mut gidx {
                *g %= len; // random gather
            }
        }
        1 => {
            for (k, g) in gidx.iter_mut().enumerate() {
                *g = k as u32 % len; // unit stride (mod wrap)
            }
        }
        2 => gidx.fill(stride % len), // broadcast
        _ => {
            for (k, g) in gidx.iter_mut().enumerate() {
                *g = (k as u32 * stride) % len; // strided
            }
        }
    }
    TortureSetup {
        input: input_raw[..len as usize].to_vec(),
        gidx,
        seeds,
        n,
        padded: n + pad,
        block_dim,
        thresh,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full interpreter, fast vs reference: outputs, tallies and
    /// simulated timing must agree bit-for-bit across gather shapes,
    /// ragged tails, empty warps and divergent control flow — in both
    /// execution modes on the fast side.
    #[test]
    fn torture_kernel_bit_identical(
        n in 1u32..260,
        pad in 0u32..70,
        block_dim in prop::sample::select(vec![32u32, 64, 96, 128, 160]),
        input_raw in prop::collection::vec(-100f32..100.0, 264..265),
        gidx_raw in prop::collection::vec(0u32..1 << 30, 330..331),
        seeds in prop::collection::vec(0u64..u64::MAX, 32..33),
        pattern in 0u8..4,
        stride in 1u32..80,
        thresh in 0f32..120.0,
        parallel in any::<bool>(),
    ) {
        let setup = make_setup(
            n, pad, block_dim, &input_raw, &gidx_raw, seeds, pattern, stride, thresh,
        );
        // threads: 2 forces the real speculate/commit path even on a
        // single-core host (threads: 0 would fall back to sequential).
        let mode = if parallel {
            ExecMode::Parallel { threads: 2 }
        } else {
            ExecMode::Sequential
        };
        let mut fast = Device::new(DeviceConfig::titan_x().with_exec_mode(mode));
        let mut refd = Device::new(
            DeviceConfig::titan_x()
                .with_exec_mode(ExecMode::Sequential)
                .with_scalar_reference(true),
        );
        let (fo, fr) = run_torture(&mut fast, &setup).expect("fast run faulted");
        let (ro, rr) = run_torture(&mut refd, &setup).expect("reference run faulted");
        prop_assert_eq!(fo, ro);
        prop_assert_eq!(&fr.tally, &rr.tally);
        prop_assert_eq!(fr.timing.seconds.to_bits(), rr.timing.seconds.to_bits());
    }

    /// Fault parity: a single out-of-bounds gather index must produce the
    /// *same* `SimError` (same blamed index, same buffer) from both
    /// routes, no matter where in the warp it lands — the fast paths'
    /// speculative bounds checks must not change first-fault blame.
    #[test]
    fn out_of_bounds_blame_is_identical(
        n in 1u32..260,
        pad in 0u32..70,
        block_dim in prop::sample::select(vec![32u32, 64, 96, 128, 160]),
        input_raw in prop::collection::vec(-100f32..100.0, 264..265),
        gidx_raw in prop::collection::vec(0u32..1 << 30, 330..331),
        seeds in prop::collection::vec(0u64..u64::MAX, 32..33),
        pattern in 0u8..4,
        stride in 1u32..80,
        oob_pos_seed in any::<u32>(),
        oob_excess in 0u32..10,
    ) {
        let mut setup = make_setup(
            n, pad, block_dim, &input_raw, &gidx_raw, seeds, pattern, stride, 60.0,
        );
        let pos = (oob_pos_seed as usize) % setup.gidx.len();
        setup.gidx[pos] = setup.input.len() as u32 + oob_excess;
        let mut fast = Device::new(exec_override(DeviceConfig::titan_x()));
        let mut refd = Device::new(exec_override(
            DeviceConfig::titan_x().with_scalar_reference(true),
        ));
        let fe = run_torture(&mut fast, &setup).err();
        let re = run_torture(&mut refd, &setup).err();
        prop_assert_eq!(&fe, &re);
        if (pos as u32) < setup.n {
            prop_assert!(fe.is_some(), "OOB index at live position {} not reported", pos);
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge cases
// ---------------------------------------------------------------------------

fn fixed_setup(n: u32, pad: u32, block_dim: u32) -> TortureSetup {
    let len = n as usize + 4;
    TortureSetup {
        input: (0..len).map(|i| (i as f32) * 0.75 - 40.0).collect(),
        gidx: (0..(n + pad)).map(|k| (k * 7) % len as u32).collect(),
        seeds: (0..32)
            .map(|k| 0x9E37_79B9u64.wrapping_mul(k + 1))
            .collect(),
        n,
        padded: n + pad,
        block_dim,
        thresh: 25.0,
    }
}

#[test]
fn ragged_last_warp_and_empty_pad_warps_match() {
    // n = 33: one full warp + a 1-lane ragged warp; pad adds two blocks
    // of entirely-empty masks past n.
    for (n, pad, bd) in [(33, 0, 64), (33, 128, 64), (1, 31, 32), (95, 65, 96)] {
        let setup = fixed_setup(n, pad, bd);
        let mut fast = Device::new(exec_override(DeviceConfig::titan_x()));
        let mut refd = Device::new(exec_override(
            DeviceConfig::titan_x().with_scalar_reference(true),
        ));
        let (fo, fr) = run_torture(&mut fast, &setup).unwrap();
        let (ro, rr) = run_torture(&mut refd, &setup).unwrap();
        assert_eq!(fo, ro, "outputs diverge at n={n} pad={pad} bd={bd}");
        assert_eq!(
            fr.tally, rr.tally,
            "tallies diverge at n={n} pad={pad} bd={bd}"
        );
    }
}

#[test]
fn zero_thread_launch_is_identical_noop() {
    let setup = fixed_setup(1, 0, 32);
    let run = |scalar: bool| {
        let mut dev = Device::new(exec_override(
            DeviceConfig::titan_x().with_scalar_reference(scalar),
        ));
        let kernel = TortureKernel {
            input: dev.alloc_f32(setup.input.clone()),
            gidx: dev.alloc_u32(setup.gidx.clone()),
            seeds: dev.alloc_u64(setup.seeds.clone()),
            out: dev.alloc_f32_zeroed(4),
            out64: dev.alloc_u64_zeroed(4),
            hist: dev.alloc_u32_zeroed(61),
            acc: dev.alloc_u64_zeroed(64),
            n: 0,
            thresh: 1.0,
        };
        dev.try_launch(&kernel, LaunchConfig::for_n_threads(0, 64))
            .unwrap()
    };
    let (f, r) = (run(false), run(true));
    assert_eq!(f.tally, r.tally);
    assert_eq!(f.tally, AccessTally::new());
}

// ---------------------------------------------------------------------------
// Compiled tile passes vs their op-by-op mirror
// ---------------------------------------------------------------------------

/// Which operand source the probe drives through the compiled pass.
#[derive(Clone, Copy, PartialEq, Debug)]
enum ProbeSrc {
    Shared,
    Roc,
    Lane,
}

/// Which closed-form predicate the probe hands to the compiled pass.
#[derive(Clone, Copy, PartialEq, Debug)]
enum ProbePred {
    All,
    NotEqual,
    LessThan,
}

/// Which sink list the probe drives: one count sink of per-lane
/// register tallies (`CountLt`), three of them at different radii
/// (`Counts3`), one privatized shared histogram with the given bucket
/// count (`Hist`), whose compiled route replaces the simulated per-step
/// shared atomic with closed-form scatter accounting, or counts and the
/// histogram in list order — one count (`Mixed`) or three (`Mixed3`),
/// then the histogram.
#[derive(Clone, Copy, PartialEq, Debug)]
enum ProbeOut {
    CountLt,
    Counts3,
    Hist(u32),
    Mixed(u32),
    Mixed3(u32),
}

impl ProbeOut {
    fn buckets(self) -> u32 {
        match self {
            ProbeOut::CountLt | ProbeOut::Counts3 => 0,
            ProbeOut::Hist(b) | ProbeOut::Mixed(b) | ProbeOut::Mixed3(b) => b,
        }
    }

    /// The count sinks' radii, in list order, for a probe radius `r`.
    fn radii(self, r: f32) -> Vec<f32> {
        let n = match self {
            ProbeOut::Hist(_) => 0,
            ProbeOut::CountLt | ProbeOut::Mixed(_) => 1,
            ProbeOut::Counts3 | ProbeOut::Mixed3(_) => 3,
        };
        [r, 0.5 * r, 1.5 * r][..n].to_vec()
    }

    fn hists(self) -> bool {
        self.buckets() > 0
    }
}

/// How the probe stages a shared tile. `OpByOp` stores it lane by lane
/// (no box record); `Compiled` goes through `compiled_tile_load` (the
/// kernels' `load_tile_to_shared`, whose op-by-op fallback is mirrored
/// exactly), which records the tile's chunk boxes; `Reloaded` first
/// loads a decoy of far points the same way, then the tile into the same
/// arrays; `Overwritten` loads the decoy compiled, then stores the tile
/// op by op over it, so the decoy's record must never be used;
/// `Shortened` loads the decoy, then only the tile's first half, so the
/// pass reads rows past the last record.
#[derive(Clone, Copy, PartialEq, Debug)]
enum ProbeLoad {
    OpByOp,
    Compiled,
    Reloaded,
    Overwritten,
    Shortened,
}

impl ProbeLoad {
    fn decoy(self) -> bool {
        !matches!(self, ProbeLoad::OpByOp | ProbeLoad::Compiled)
    }
}

/// Points appended past `n_pts` as the decoy tile: far from every own
/// lane and partner, so a pass that read their boxes would cull rows
/// that count.
const DECOY_PTS: u32 = 64;

#[derive(Clone, Copy, Debug)]
struct ProbeSpec {
    /// Live threads (gid < n) — also an upper bound on point indices.
    n: u32,
    /// Points in the coordinate buffers.
    n_pts: u32,
    /// Tile length handed to the compiled pass.
    len: u32,
    /// Shared-tile allocation length (< `len` forces the fallback to
    /// fault on an OOB shared read the compiled pre-check must also
    /// see).
    tile_len: u32,
    /// Tile base element.
    start: u32,
    radius: f32,
    /// The lowered distance: plain Euclidean, or the minimum image in a
    /// periodic box of this edge.
    box_edge: Option<f32>,
    src: ProbeSrc,
    pred: ProbePred,
    /// ANDed into each warp's valid mask — forces empty / non-prefix
    /// masks onto the compiled entry point.
    squeeze: Option<u32>,
    /// Output stage: register tallies or a privatized histogram.
    out: ProbeOut,
    /// Shared-histogram allocation override (< `buckets` forces the
    /// compiled sink pre-flight to decline so the op-by-op scatter
    /// faults at the exact offending bucket).
    hist_alloc: Option<u32>,
    /// Poison this coordinate index with NaN in both dimensions:
    /// NaN distances must ride the sinks bit-identically (saturating
    /// to bucket 0, failing every radius compare).
    poison: Option<u32>,
    /// Run the intra-block triangle (`compiled_intra_regular` over the
    /// `len` tile elements from `start`, thread `t` against partners
    /// `t+1 …`) instead of one inter-tile pass. Shared and ROC sources
    /// only.
    intra: bool,
    /// How the Shared source's tile is staged.
    load: ProbeLoad,
    /// Sort the partner coordinates ascending, so consecutive tile rows
    /// (and so chunks of 32) sit close together.
    sorted: bool,
    /// Give lane 3 of every warp an infinite own coordinate.
    own_inf: bool,
}

impl ProbeSpec {
    fn form(&self) -> DistanceForm {
        match self.box_edge {
            None => DistanceForm::Euclidean,
            Some(box_edge) => DistanceForm::MinimumImage { box_edge },
        }
    }

    /// The op-by-op distance (`Euclidean::eval_host` or
    /// `PeriodicEuclidean::eval_host` for D = 2) and its ALU cost.
    fn dist(&self, a: [f32; 2], b: [f32; 2]) -> f32 {
        let mut s = 0.0f32;
        for d in 0..2 {
            let mut diff = a[d] - b[d];
            if let Some(l) = self.box_edge {
                diff -= l * (diff / l).round();
            }
            s = diff.mul_add(diff, s);
        }
        s.sqrt()
    }

    fn dist_cost(&self) -> u64 {
        match self.box_edge {
            None => 2 * 2 + 1,
            Some(_) => 5 * 2 + 1,
        }
    }
}

/// A miniature Register-SHM-style inner loop with D = 2: one compiled
/// tile pass per warp, with the exact op-by-op sequence the tiling
/// kernels interpret as the fallback. A run where compilation is
/// declined (mask shape, OOB source, compiled route off, scalar
/// reference) must stay bit-identical to a run where it engages.
struct TileProbeKernel {
    spec: ProbeSpec,
    coords: [BufF32; 2],
    out: BufU64,
    /// Per-block flush of the privatized histogram (`grid × buckets`).
    hist_out: BufU32,
}

impl Kernel for TileProbeKernel {
    fn name(&self) -> &'static str {
        "tile_probe"
    }

    fn resources(&self) -> KernelResources {
        KernelResources::new(32, (2 * self.spec.tile_len + self.spec.out.buckets()) * 4)
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let p = self.spec;
        let radii = p.out.radii(p.radius);
        let slots = radii.len().max(1);
        let mut acc = vec![vec![[0u64; WARP_SIZE]; slots]; blk.num_warps() as usize];

        // Stage the tile in shared memory (both routes, op by op). The
        // allocation happens for every source kind (it is part of the
        // declared resources); only the Shared probe fills and reads it.
        let tile: [ShmF32; 2] = [
            blk.shared_alloc_f32(p.tile_len as usize),
            blk.shared_alloc_f32(p.tile_len as usize),
        ];
        if p.src == ProbeSrc::Shared {
            let count = p.tile_len.min(p.len);
            if p.load.decoy() {
                self.load_tile(blk, &tile, p.n_pts, count);
            }
            if matches!(p.load, ProbeLoad::Compiled | ProbeLoad::Reloaded) {
                self.load_tile(blk, &tile, p.start, count);
            } else if p.load == ProbeLoad::Shortened {
                self.load_tile(blk, &tile, p.start, count / 2);
            } else {
                blk.for_each_warp(|w| {
                    let tid = w.thread_ids();
                    let m = w.mask_lt(&tid, count).and(w.active_threads());
                    for (t, c) in tile.iter().zip(self.coords.iter()) {
                        let src: U32x32 = std::array::from_fn(|i| p.start + tid[i]);
                        let v = w.global_load_f32(*c, &src, m);
                        w.shared_store_f32(*t, &tid, &v, m);
                    }
                });
            }
            blk.syncthreads();
        }

        // Privatized histogram staging for the `Hist` sink: allocate
        // and cooperatively zero it, exactly like
        // `SharedHistogramAction::begin_block`. A `hist_alloc` override
        // under-sizes the allocation (the zero/flush loops stay in
        // bounds; only the scatter faults).
        let hb = p.out.buckets();
        let hb_alloc = p.hist_alloc.unwrap_or(hb).min(hb.max(1));
        let shist = (hb > 0).then(|| blk.shared_alloc_u32(hb_alloc as usize));
        if let Some(h) = shist {
            let bd = blk.block_dim;
            blk.for_each_warp(|w| {
                let tid = w.thread_ids();
                let mut off = 0u32;
                while off < hb_alloc {
                    let idx: U32x32 = std::array::from_fn(|i| off + tid[i]);
                    let m = w.mask_lt(&idx, hb_alloc).and(w.active_threads());
                    if m.any() {
                        w.shared_store_u32(h, &idx, &[0; WARP_SIZE], m);
                    }
                    off += bd;
                }
            });
            blk.syncthreads();
        }
        // Histogram geometry: the probe's distances overflow the top
        // bucket on purpose, so the clamp produces scatter pileups.
        let inv_width = hb as f32 / (4.0 * p.radius);
        let hmax = hb.saturating_sub(1);

        // Lower the plan once per block, like the tiling kernels do
        // (`None` unless the device enables the compiled route).
        let sink = CompiledSinkSpec {
            counts: radii.clone(),
            hists: if p.out.hists() {
                vec![(inv_width, hmax)]
            } else {
                vec![]
            },
        };
        let ck = CompiledKernel::lower(blk.config(), p.form(), p.dist_cost(), 2, p.len, sink);

        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let tid = w.thread_ids();
            let mut valid = w.mask_lt(&gid, p.n).and(w.active_threads());
            if p.intra {
                valid = valid.and(w.mask_lt(&tid, p.len));
            }
            if let Some(s) = p.squeeze {
                valid = valid.and(Mask(s));
            }

            // Own point, derived host-side — identical on every route.
            let own: [F32x32; 2] = std::array::from_fn(|d| {
                std::array::from_fn(|i| {
                    if p.own_inf && d == 0 && i == 3 {
                        f32::INFINITY
                    } else {
                        (gid[i] % 97) as f32 * 0.37 + d as f32
                    }
                })
            });

            // Lane source: one coalesced load per lane, like the shuffle
            // kernel's fragment prologue (outside the compiled region).
            let lane = w.lane_ids();
            let reg1: [F32x32; 2] = if p.src == ProbeSrc::Lane {
                let idx: U32x32 = std::array::from_fn(|i| p.start + lane[i]);
                let lm = w.mask_lt(&lane, p.len).and(w.active_threads());
                std::array::from_fn(|d| w.global_load_f32(self.coords[d], &idx, lm))
            } else {
                [[0.0; WARP_SIZE]; 2]
            };

            let pred = match p.pred {
                ProbePred::All => TilePred::All,
                ProbePred::NotEqual => TilePred::NotEqual {
                    gid0: gid[0],
                    base: p.start,
                },
                ProbePred::LessThan => TilePred::LessThan {
                    gid0: gid[0],
                    base: p.start,
                },
            };
            let src = match p.src {
                ProbeSrc::Shared => TileSrc::SharedBroadcast(&tile),
                ProbeSrc::Roc => TileSrc::RocBroadcast {
                    bufs: &self.coords,
                    start: p.start,
                },
                ProbeSrc::Lane => TileSrc::LaneBroadcast(&reg1),
            };

            if !p.intra {
                w.charge_control(p.len as u64 + 1, valid);
            }
            let a = &mut acc[w.warp_id as usize];
            // Route order exactly as the tiling kernels: compiled, then
            // the op-by-op mirror below.
            if let Some(ckk) = ck.as_ref() {
                let sink = TileSink {
                    counts: radii
                        .iter()
                        .zip(a.iter_mut())
                        .map(|(&radius, acc)| CountSink { radius, acc })
                        .collect(),
                    hists: shist
                        .map(|shm| HistSink {
                            inv_width,
                            hmax,
                            shm,
                        })
                        .into_iter()
                        .collect(),
                };
                let done = if p.intra {
                    let tile = match p.src {
                        ProbeSrc::Shared => CompiledTile::Shared(&tile),
                        ProbeSrc::Roc => CompiledTile::Roc(&self.coords),
                        ProbeSrc::Lane => unreachable!("intra probes read a tile"),
                    };
                    w.compiled_intra_regular(ckk, tile, p.start, p.len, &own, sink, valid)
                } else {
                    w.compiled_tile_pass(ckk, src, p.len, pred, &own, sink, valid)
                };
                if done {
                    return;
                }
            }

            // The per-pair sinks, in list order: the counts, then the
            // histogram.
            let feed = |w: &mut WarpCtx<'_, '_>, a: &mut [U64x32], dval: &F32x32, pm: Mask| {
                for (a, &r) in a.iter_mut().zip(&radii) {
                    // CountWithinRadius::process — compare + predicated
                    // add.
                    let hits = w.lt_f32(dval, r, pm);
                    w.charge_alu(1, pm);
                    for l in hits.lanes() {
                        a[l] += 1;
                    }
                }
                if let Some(h) = shist {
                    // SharedHistogramAction::process — `bucket_lanes` (2
                    // ALU, CUDA saturate-to-zero cast + clamp) and one
                    // simulated shared atomic whose data-dependent
                    // serialization the compiled route must reproduce in
                    // closed form.
                    w.charge_alu(2, pm);
                    let bucket: U32x32 = std::array::from_fn(|i| {
                        if pm.lane(i) {
                            ((dval[i] * inv_width) as u32).min(hmax)
                        } else {
                            0
                        }
                    });
                    w.shared_atomic_add_u32(h, &bucket, &[1; WARP_SIZE], pm);
                }
            };
            // DistanceKernel::eval ≡ cost ALU charge + per-lane host math.
            let eval = |w: &mut WarpCtx<'_, '_>, rj: &[F32x32; 2], pm: Mask| -> F32x32 {
                w.charge_alu(p.dist_cost(), pm);
                std::array::from_fn(|i| {
                    if pm.lane(i) {
                        p.dist([own[0][i], own[1][i]], [rj[0][i], rj[1][i]])
                    } else {
                        0.0
                    }
                })
            };

            if p.intra {
                // The op-by-op triangle, as `tbs-core`'s `intra_triangle`
                // interprets it for both tile sources: thread t pairs with
                // t+1 … len−1 in divergent trips.
                let trips: U32x32 = std::array::from_fn(|i| {
                    if valid.lane(i) {
                        p.len.saturating_sub(1).saturating_sub(tid[i])
                    } else {
                        0
                    }
                });
                w.divergent_loop(&trips, valid, |w2, k, active| {
                    let pidx: U32x32 = std::array::from_fn(|i| tid[i] + 1 + k);
                    w2.charge_alu(1, active);
                    let rj: [F32x32; 2] = match p.src {
                        ProbeSrc::Shared => {
                            std::array::from_fn(|d| w2.shared_load_f32(tile[d], &pidx, active))
                        }
                        _ => std::array::from_fn(|d| {
                            let g: U32x32 = std::array::from_fn(|i| p.start + pidx[i]);
                            w2.roc_load_f32(self.coords[d], &g, active)
                        }),
                    };
                    let dval = eval(w2, &rj, active);
                    feed(w2, a, &dval, active);
                });
                return;
            }

            // The op-by-op mirror — the exact sequence the tiling
            // kernels interpret when compilation is unavailable.
            for j in 0..p.len {
                let rj: [F32x32; 2] = match p.src {
                    ProbeSrc::Shared => {
                        std::array::from_fn(|d| w.shared_load_f32(tile[d], &[j; WARP_SIZE], valid))
                    }
                    ProbeSrc::Roc => std::array::from_fn(|d| {
                        w.roc_load_f32(self.coords[d], &[p.start + j; WARP_SIZE], valid)
                    }),
                    ProbeSrc::Lane => std::array::from_fn(|d| w.shfl_bcast_f32(&reg1[d], j, valid)),
                };
                let pm = match p.pred {
                    ProbePred::All => valid,
                    ProbePred::NotEqual => {
                        Mask::from_fn(|i| valid.lane(i) && gid[i] != p.start + j)
                    }
                    ProbePred::LessThan => Mask::from_fn(|i| valid.lane(i) && gid[i] < p.start + j),
                };
                if p.pred != ProbePred::All {
                    w.charge_alu(1, valid);
                }
                if !pm.any() {
                    continue;
                }
                let dval = eval(w, &rj, pm);
                feed(w, a, &dval, pm);
            }
        });

        // Sink k's per-thread counts at `k · threads + gid`.
        let out = self.out;
        let threads = blk.grid_dim * blk.block_dim;
        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let m = w.active_threads();
            for (k, a) in acc[w.warp_id as usize].iter().enumerate() {
                let slot: U32x32 = std::array::from_fn(|i| k as u32 * threads + gid[i]);
                w.global_store_u64(out, &slot, a, m);
            }
        });

        // Flush the private histogram to its per-block region so the
        // host can compare route outputs (cf.
        // `SharedHistogramAction::end_block`).
        if let Some(h) = shist {
            blk.syncthreads();
            let base = blk.block_id * hb;
            let bd = blk.block_dim;
            let hist_out = self.hist_out;
            blk.for_each_warp(|w| {
                let tid = w.thread_ids();
                let mut off = 0u32;
                while off < hb_alloc {
                    let idx: U32x32 = std::array::from_fn(|i| off + tid[i]);
                    let m = w.mask_lt(&idx, hb_alloc).and(w.active_threads());
                    if m.any() {
                        let vals = w.shared_load_u32(h, &idx, m);
                        let slot: U32x32 = std::array::from_fn(|i| base + idx[i]);
                        w.global_store_u32(hist_out, &slot, &vals, m);
                    }
                    off += bd;
                }
            });
        }
    }
}

impl TileProbeKernel {
    /// `load_tile_to_shared`: the compiled cooperative load, or, when it
    /// declines, the op-by-op loop it replaces.
    fn load_tile(&self, blk: &mut BlockCtx<'_>, tile: &[ShmF32; 2], start: u32, count: u32) {
        if blk.compiled_tile_load(tile, &self.coords, start, count) {
            return;
        }
        blk.for_each_warp(|w| {
            let tid = w.thread_ids();
            let m = w.mask_lt(&tid, count).and(w.active_threads());
            if !m.any() {
                return;
            }
            let src: U32x32 = std::array::from_fn(|i| start + tid[i]);
            w.charge_alu(1, m);
            for (t, c) in tile.iter().zip(self.coords.iter()) {
                let v = w.global_load_f32(*c, &src, m);
                w.shared_store_f32(*t, &tid, &v, m);
            }
        });
    }
}

fn probe_coords(n_pts: u32) -> Vec<f32> {
    (0..n_pts)
        .map(|i| ((i * 37 + 11) % 113) as f32 * 0.29 - 12.0)
        .collect()
}

fn run_probe(cfg: DeviceConfig, spec: ProbeSpec) -> Result<(Vec<u64>, KernelRun), SimError> {
    let mut dev = Device::new(exec_override(cfg));
    let mut c0 = probe_coords(spec.n_pts);
    if spec.sorted {
        c0.sort_by(f32::total_cmp);
    }
    let mut c1: Vec<f32> = c0.iter().map(|x| x * 1.7 + 3.0).collect();
    if let Some(i) = spec.poison {
        c0[i as usize] = f32::NAN;
        c1[i as usize] = f32::NAN;
    }
    if spec.load.decoy() {
        for c in [&mut c0, &mut c1] {
            c.extend((0..DECOY_PTS).map(|i| 1000.0 + i as f32));
        }
    }
    let coords = [dev.alloc_f32(c0), dev.alloc_f32(c1)];
    let lc = LaunchConfig::for_n_threads(spec.n.max(1), 64);
    let slots = spec.out.radii(spec.radius).len().max(1);
    let out = dev.alloc_u64_zeroed(lc.total_threads() as usize * slots);
    let hist_out = dev.alloc_u32_zeroed((lc.grid_dim * spec.out.buckets()).max(1) as usize);
    let kernel = TileProbeKernel {
        spec,
        coords,
        out,
        hist_out,
    };
    let run = dev.try_launch(&kernel, lc)?;
    let mut o: Vec<u64> = dev.u64_slice(out).to_vec();
    o.extend(dev.u32_slice(hist_out).iter().map(|&v| v as u64));
    Ok((o, run))
}

/// The three routes a probe runs on: the default (compiled) device —
/// the only one the environment may re-point — then the explicit
/// op-by-op and scalar-reference legs.
fn probe_routes() -> [DeviceConfig; 3] {
    [
        DeviceConfig::titan_x(),
        DeviceConfig::titan_x().with_compiled(false),
        DeviceConfig::titan_x().with_scalar_reference(true),
    ]
}

/// Run a probe on the default (compiled), op-by-op and scalar routes;
/// demand bit-identical outputs, tallies and timing; return the default
/// run for engagement asserts. The explicit op-by-op and scalar legs
/// must never compile, under every `TBS_DIFF_ROUTE` pin.
fn probe_identical(spec: ProbeSpec) -> KernelRun {
    let [(oc, rc), (ov, rv), (os, rs)] = probe_routes().map(|cfg| run_probe(cfg, spec).unwrap());
    assert_eq!(oc, ov, "compiled vs op-by-op outputs ({spec:?})");
    assert_eq!(oc, os, "compiled vs scalar outputs ({spec:?})");
    assert_eq!(rc.tally, rv.tally, "compiled vs op-by-op tally ({spec:?})");
    assert_eq!(rc.tally, rs.tally, "compiled vs scalar tally ({spec:?})");
    assert_eq!(rc.timing.seconds.to_bits(), rv.timing.seconds.to_bits());
    assert_eq!(rc.timing.seconds.to_bits(), rs.timing.seconds.to_bits());
    assert_eq!(rv.interp.compiled_ops, 0, "op-by-op leg must not compile");
    assert_eq!(rs.interp.compiled_ops, 0, "scalar leg must not compile");
    rc
}

/// First-fault blame of a probe on all three routes, asserted equal.
fn probe_blame(spec: ProbeSpec, what: &str) -> Option<SimError> {
    let [ce, ve, se] = probe_routes().map(|cfg| run_probe(cfg, spec).err());
    assert_eq!(ce, ve, "{what}: compiled blame differs from op-by-op");
    assert_eq!(ce, se, "{what}: compiled blame differs from scalar");
    ce
}

fn base_spec() -> ProbeSpec {
    ProbeSpec {
        n: 128,
        n_pts: 128,
        len: 48,
        tile_len: 48,
        start: 40,
        radius: 9.0,
        box_edge: None,
        src: ProbeSrc::Shared,
        pred: ProbePred::All,
        squeeze: None,
        out: ProbeOut::CountLt,
        hist_alloc: None,
        poison: None,
        intra: false,
        load: ProbeLoad::OpByOp,
        sorted: false,
        own_inf: false,
    }
}

#[test]
fn fused_probe_engages_for_every_source_and_predicate() {
    // Both lowered distance forms: plain Euclidean, and a periodic box
    // small enough (the probe's coordinates span ~60) that the
    // minimum-image wrap changes most distances. Every sink list, on
    // full warps and on a partial last warp (n = 100 leaves it four
    // lanes).
    for box_edge in [None, Some(13.0f32)] {
        for out in [
            ProbeOut::CountLt,
            ProbeOut::Counts3,
            ProbeOut::Hist(32),
            ProbeOut::Mixed(32),
            ProbeOut::Mixed3(32),
        ] {
            for src in [ProbeSrc::Shared, ProbeSrc::Roc, ProbeSrc::Lane] {
                for pred in [ProbePred::All, ProbePred::NotEqual, ProbePred::LessThan] {
                    for n in [128, 100] {
                        let mut spec = base_spec();
                        spec.box_edge = box_edge;
                        spec.out = out;
                        spec.src = src;
                        spec.pred = pred;
                        spec.n = n;
                        if src == ProbeSrc::Lane {
                            spec.len = 24; // lane tiles are at most one warp wide
                        }
                        let rc = probe_identical(spec);
                        if !route_pinned() {
                            assert!(
                                rc.interp.compiled_ops > 0,
                                "{box_edge:?}/{out:?}/{src:?}/{pred:?}/n={n} must lower on the compiled route"
                            );
                        }
                    }
                }
            }
            // The intra triangle over the same sink lists, from a shared
            // tile and through the read-only cache, with full warps and
            // a ragged last warp (n = 100 leaves warp 3 four lanes).
            for src in [ProbeSrc::Shared, ProbeSrc::Roc] {
                for n in [128, 100] {
                    let mut spec = base_spec();
                    spec.box_edge = box_edge;
                    spec.out = out;
                    spec.src = src;
                    spec.n = n;
                    spec.intra = true;
                    let rc = probe_identical(spec);
                    if !route_pinned() {
                        assert!(
                            rc.interp.compiled_ops > 0,
                            "{box_edge:?}/{out:?}/{src:?}/n={n}: the intra triangle must lower"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn tile_probe_culls_overflow_rows_identically() {
    // A small radius shrinks the histogram (overflow edge 7.75): most
    // partners sit that far from a warp's lanes, so unpredicated passes
    // over tile columns cull their rows, for full and ragged warps,
    // with a NaN partner kept — all bit-identical to the op-by-op walk.
    // Lane-broadcast passes never cull.
    for (src, out) in [
        (ProbeSrc::Shared, ProbeOut::Hist(32)),
        (ProbeSrc::Roc, ProbeOut::Hist(32)),
        (ProbeSrc::Lane, ProbeOut::Hist(32)),
        (ProbeSrc::Shared, ProbeOut::Mixed(32)),
        (ProbeSrc::Roc, ProbeOut::Mixed(32)),
    ] {
        for (n, poison) in [(128, None), (100, Some(45))] {
            let mut spec = base_spec();
            spec.radius = 2.0;
            spec.out = out;
            spec.src = src;
            spec.n = n;
            spec.poison = poison;
            if src == ProbeSrc::Lane {
                spec.len = 24;
            }
            let culled = probe_identical(spec).interp.culled_rows;
            if src == ProbeSrc::Lane {
                assert_eq!(culled, 0, "{spec:?}");
            } else if !route_pinned() {
                assert!(culled > 0, "{spec:?} must cull");
            }
        }
    }
    // Predicated and periodic passes never cull.
    for (pred, box_edge) in [(ProbePred::NotEqual, None), (ProbePred::All, Some(13.0f32))] {
        let mut spec = base_spec();
        spec.radius = 2.0;
        spec.out = ProbeOut::Hist(32);
        spec.pred = pred;
        spec.box_edge = box_edge;
        assert_eq!(probe_identical(spec).interp.culled_rows, 0, "{spec:?}");
    }
}

/// The probe's outputs on the op-by-op route.
fn probe_outputs(spec: ProbeSpec) -> Vec<u64> {
    let cfg = DeviceConfig::titan_x().with_compiled(false);
    run_probe(cfg, spec).expect("probe").0
}

/// A probe over a sorted 64-row tile staged by compiled loads, where the
/// chunk test applies.
fn chunk_spec(out: ProbeOut, load: ProbeLoad) -> ProbeSpec {
    let mut spec = base_spec();
    spec.len = 64;
    spec.tile_len = 64;
    spec.radius = 3.0;
    spec.sorted = true;
    spec.out = out;
    spec.load = load;
    spec
}

#[test]
fn tile_probe_chunk_test_culls_recorded_tiles_identically() {
    // Count-only and mixed lists over sorted tiles from compiled loads,
    // a second load into the same arrays included, for full and ragged
    // warps: whole chunks cull, and the sweep visits only the surviving
    // row runs, bit-identically to the op-by-op walk.
    for out in [
        ProbeOut::CountLt,
        ProbeOut::Counts3,
        ProbeOut::Mixed(32),
        ProbeOut::Mixed3(32),
    ] {
        for load in [ProbeLoad::Compiled, ProbeLoad::Reloaded] {
            for n in [128, 100] {
                let mut spec = chunk_spec(out, load);
                spec.n = n;
                let culled = probe_identical(spec).interp.culled_rows;
                if !route_pinned() {
                    assert!(culled > 0, "{spec:?} must cull");
                }
            }
        }
        // Unsorted rows: still identical.
        let mut spec = chunk_spec(out, ProbeLoad::Compiled);
        spec.sorted = false;
        probe_identical(spec);
    }
    // The tile counts pairs, so a pass reading the decoy's far boxes
    // would cull rows that count.
    let spec = chunk_spec(ProbeOut::CountLt, ProbeLoad::Reloaded);
    assert!(probe_outputs(spec).iter().any(|&c| c > 0));
}

#[test]
fn tile_probe_never_culls_with_a_stale_or_missing_record() {
    // A count list culls only through a recorded load that covers the
    // pass: a tile stored op by op has no record, one stored op by op
    // over a recorded decoy (a declined load) retires the decoy's
    // record, and a half-length load records too few rows.
    let spec = chunk_spec(ProbeOut::CountLt, ProbeLoad::Shortened);
    assert_eq!(probe_identical(spec).interp.culled_rows, 0, "{spec:?}");
    // Mixed lists keep the row test, which culls exactly as without any
    // record.
    for load in [ProbeLoad::OpByOp, ProbeLoad::Overwritten] {
        let spec = chunk_spec(ProbeOut::CountLt, load);
        assert!(probe_outputs(spec).iter().any(|&c| c > 0));
        assert_eq!(probe_identical(spec).interp.culled_rows, 0, "{spec:?}");
        let mixed = chunk_spec(ProbeOut::Mixed(32), load);
        let with_record = probe_identical(chunk_spec(ProbeOut::Mixed(32), ProbeLoad::Compiled));
        assert_eq!(
            probe_identical(mixed).interp.culled_rows,
            with_record.interp.culled_rows,
            "{mixed:?}: the row test culls the same rows"
        );
    }
}

#[test]
fn tile_probe_chunk_test_keeps_nan_chunks_and_declines_non_finite_lanes() {
    // A NaN partner in an otherwise culled chunk of a histogram list:
    // the chunk survives, the row test culls its finite rows, the NaN
    // row bins to 0 on every route.
    let mut spec = chunk_spec(ProbeOut::Hist(32), ProbeLoad::Compiled);
    let clean = probe_identical(spec).interp.culled_rows;
    spec.poison = Some(spec.start + 60);
    let poisoned = probe_identical(spec).interp.culled_rows;
    if !route_pinned() {
        assert!(clean > 0 && poisoned > 0, "{clean} / {poisoned}");
    }
    // A non-finite own lane declines every cull of its warp.
    for out in [ProbeOut::CountLt, ProbeOut::Mixed(32)] {
        let mut spec = chunk_spec(out, ProbeLoad::Compiled);
        spec.own_inf = true;
        assert_eq!(probe_identical(spec).interp.culled_rows, 0, "{spec:?}");
    }
}

#[test]
fn fused_declines_ragged_and_sub_warp_masks_identically() {
    // Live-thread raggedness keeps valid a prefix: still compiled.
    let mut spec = base_spec();
    spec.n = 100; // last warp holds 4 live lanes
    let rc = probe_identical(spec);
    if !route_pinned() {
        assert!(rc.interp.compiled_ops > 0, "prefix ragged warps must lower");
    }

    // A non-prefix valid mask must decline — bit-identically.
    spec.n = 128;
    spec.squeeze = Some(0xFFFF_FFF7); // hole at lane 3
    let rc = probe_identical(spec);
    assert_eq!(rc.interp.compiled_ops, 0, "non-prefix masks must not lower");
}

#[test]
fn fused_is_a_noop_on_empty_masks_and_empty_tiles() {
    // Empty valid mask: the compiled entry must return false with no
    // side effects; every route then runs the (empty-mask) op-by-op
    // loop.
    let mut spec = base_spec();
    spec.squeeze = Some(0);
    assert_eq!(probe_identical(spec).interp.compiled_ops, 0);

    // Zero-length tile: nothing to do on any route.
    let mut spec = base_spec();
    spec.len = 0;
    spec.tile_len = 1; // keep a non-empty shared allocation
    assert_eq!(probe_identical(spec).interp.compiled_ops, 0);
}

#[test]
fn fused_oob_blame_matches_op_by_op_exactly() {
    // Shared source: tile shorter than the pass — the compiled
    // pre-check must decline so the fallback faults at the exact
    // op-by-op step, with identical blame.
    let mut spec = base_spec();
    spec.tile_len = 20; // reads j = 20.. fault
    assert!(
        probe_blame(spec, "short shared tile").is_some(),
        "short shared tile must fault"
    );

    // ROC source: tile range runs past the coordinate buffers.
    let mut spec = base_spec();
    spec.src = ProbeSrc::Roc;
    spec.start = 100; // 100 + 48 > 128 points
    assert!(
        probe_blame(spec, "OOB ROC tile").is_some(),
        "OOB ROC tile must fault"
    );
}

// ---------------------------------------------------------------------------
// Compiled scatter accounting vs the op-by-op simulated shared atomic
// ---------------------------------------------------------------------------

#[test]
fn fused_scatter_conflict_accounting_matches_op_by_op() {
    // The compiled Histogram sink replaces the simulated per-step
    // shared atomic with closed-form scatter accounting; the
    // serialization, transaction and bank-replay counters (and the
    // histogram contents) must agree bit-for-bit with the op-by-op and
    // scalar routes on every conflict shape — from a single-bucket
    // pileup (full warp-wide serialization) through spread scatters
    // with same-bank word conflicts.
    for buckets in [1u32, 4, 48, 64] {
        for pred in [ProbePred::All, ProbePred::NotEqual, ProbePred::LessThan] {
            let mut spec = base_spec();
            spec.out = ProbeOut::Hist(buckets);
            spec.pred = pred;
            let rc = probe_identical(spec);
            if !route_pinned() {
                // The compiled histogram sink covers every bucket count
                // and predicate here — no op-by-op fallback.
                assert!(
                    rc.interp.compiled_ops > 0,
                    "hist({buckets})/{pred:?} must lower on the compiled route"
                );
            }
            assert!(rc.tally.shared_atomics > 0, "hist({buckets}) must scatter");
            if buckets == 1 {
                // Pileup sanity: every active lane lands on the same
                // word, so serialization must exceed the atomic count.
                assert!(rc.tally.shared_atomic_serial > rc.tally.shared_atomics);
            }
        }
    }
}

#[test]
fn fused_scatter_declines_to_op_by_op_atomics_identically() {
    // A ragged prefix mask still compiles — closed-form accounting
    // covers the partial warp.
    let mut spec = base_spec();
    spec.out = ProbeOut::Hist(32);
    spec.n = 100; // last warp holds 4 live lanes
    let rc = probe_identical(spec);
    if !route_pinned() {
        assert!(
            rc.interp.compiled_ops > 0,
            "ragged-prefix histogram sinks must lower"
        );
    }
    assert!(rc.tally.shared_atomics > 0);

    // A non-prefix squeeze declines the whole pass, so the op-by-op
    // simulated atomics must reproduce exactly what the closed form
    // would have charged (the tally comparison inside
    // `probe_identical` enforces this against the other routes).
    spec.n = 128;
    spec.squeeze = Some(0x0F0F_0F0F);
    let rc = probe_identical(spec);
    assert_eq!(
        rc.interp.compiled_ops, 0,
        "non-prefix masks must scatter op-by-op"
    );
    assert!(rc.tally.shared_atomics > 0);
}

#[test]
fn compiled_sink_oob_bucket_blame_matches_op_by_op() {
    // The shared histogram is allocated smaller than the bucket range,
    // so scatters past the allocation fault. The compiled sink
    // pre-flight (`check_bounds(shm, hmax)`) must decline
    // side-effect-free and hand the pass to the op-by-op loop, whose
    // simulated shared atomic faults at the exact offending bucket —
    // identical op-by-op blame on every route.
    for alloc in [1u32, 8, 31] {
        let mut spec = base_spec();
        spec.out = ProbeOut::Hist(32);
        spec.hist_alloc = Some(alloc);
        let what = format!("alloc={alloc}");
        assert!(
            probe_blame(spec, &what).is_some(),
            "{what}: short histogram must fault"
        );
    }
}

#[test]
fn compiled_sink_nan_distances_are_route_identical() {
    // A NaN coordinate inside the tile makes NaN distances for every
    // lane at that step. The compiled sink's sqrt-free compares and
    // edge-table bucketing must reproduce the device convention
    // bit-for-bit: NaN fails every radius compare (CountLt adds
    // nothing) and saturates to bucket 0 (`__float2uint_rz`), while the
    // broadcast detector's compare chain must fail closed onto the
    // general path. The minimum-image wrap must carry NaN through
    // (`round(NaN)` is NaN) on both forms.
    for box_edge in [None, Some(13.0f32)] {
        for out in [ProbeOut::CountLt, ProbeOut::Hist(32), ProbeOut::Mixed(32)] {
            let mut spec = base_spec();
            spec.box_edge = box_edge;
            spec.out = out;
            spec.poison = Some(45); // inside the tile range [40, 88)
            let rc = probe_identical(spec);
            if !route_pinned() {
                assert!(
                    rc.interp.compiled_ops > 0,
                    "{box_edge:?}/{out:?}: NaN tile must still lower"
                );
            }
            if out.hists() {
                assert!(rc.tally.shared_atomics > 0);
            }
        }
    }
}
