//! Exact tally pins for the pass shapes only the op-by-op route runs.
//!
//! The route-identity suite (`fused_identity.rs`) proves the compiled,
//! op-by-op and scalar routes agree with one another. It cannot see a
//! change that moves all of them at once: where the compiled pass
//! declines a shape — a load-balanced triangle, a kNN insertion network,
//! a Gaussian-RBF weight — the op-by-op and scalar routes both run the
//! same `tbs-core` loops. These pins hold those loops to fixed numbers:
//! every tiling kernel, both pair scopes where the kernel has them, both
//! intra modes, two ragged sizes, and two actions that never lower.
//!
//! Each pinned row is the case name, the `AccessTally` counters in
//! [`COUNTERS`] order, and an FNV-1a checksum of the output buffers.

use gpu_sim::{AccessTally, Device, DeviceConfig, KernelRun, LaunchConfig};
use tbs_core::distance::{DistanceKernel, Euclidean, GaussianRbf};
use tbs_core::kernels::{
    pair_launch, CrossShmKernel, IntraMode, PackedLayout, PackedPairKernel, PackedSegment,
    PairScope, RegisterRocKernel, RegisterShmKernel, ShmShmKernel, ShuffleKernel,
};
use tbs_core::output::{KdeAction, KnnAction, PairAction};
use tbs_core::point::{DeviceSoa, SoaPoints};

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

/// A pinned counter: its name and how to read it.
type Counter = (&'static str, fn(&AccessTally) -> u64);

/// The pinned counters, in row order.
const COUNTERS: [Counter; 19] = [
    ("warp_instructions", |t| t.warp_instructions),
    ("alu_instructions", |t| t.alu_instructions),
    ("control_instructions", |t| t.control_instructions),
    ("shuffle_instructions", |t| t.shuffle_instructions),
    ("sync_instructions", |t| t.sync_instructions),
    ("useful_lane_ops", |t| t.useful_lane_ops),
    ("predicated_lane_slots", |t| t.predicated_lane_slots),
    ("divergent_iterations", |t| t.divergent_iterations),
    ("shared_load_instructions", |t| t.shared_load_instructions),
    ("shared_store_instructions", |t| t.shared_store_instructions),
    ("shared_transactions", |t| t.shared_transactions),
    ("shared_bytes", |t| t.shared_bytes),
    ("roc_load_instructions", |t| t.roc_load_instructions),
    ("roc_hit_sectors", |t| t.roc_hit_sectors),
    ("roc_miss_sectors", |t| t.roc_miss_sectors),
    ("global_load_instructions", |t| t.global_load_instructions),
    ("global_store_instructions", |t| t.global_store_instructions),
    ("l2_hit_sectors", |t| t.l2_hit_sectors),
    ("dram_sectors", |t| t.dram_sectors),
];

/// FNV-1a over 64-bit words: a checksum whose value does not depend on
/// the toolchain (unlike `DefaultHasher`).
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[derive(Debug, Clone, Copy)]
enum Path {
    ShmShm,
    RegisterShm,
    RegisterRoc,
    Shuffle,
    Cross,
    Packed,
}

#[derive(Debug, Clone, Copy)]
enum Act {
    Knn,
    Kde,
}

/// One pinned case.
struct Case {
    path: Path,
    scope: PairScope,
    intra: IntraMode,
    act: Act,
    n: usize,
    b: u32,
}

impl Case {
    fn name(&self) -> String {
        let scope = match self.scope {
            PairScope::HalfPairs => "half",
            PairScope::AllPairs => "all",
        };
        let intra = match self.intra {
            IntraMode::Regular => "reg",
            IntraMode::LoadBalanced => "lb",
        };
        let path = format!("{:?}", self.path).to_lowercase();
        let act = format!("{:?}", self.act).to_lowercase();
        format!("{path}/{scope}/{intra}/{act}/{}@{}", self.n, self.b)
    }

    /// Self-join segments of the packed case: one triangle over the
    /// first three fifths, one rectangle from the rest back onto it.
    fn layout(&self) -> PackedLayout {
        let n = self.n as u32;
        let split = n * 3 / 5;
        PackedLayout::new(
            vec![
                PackedSegment::intra(0, split),
                PackedSegment::cross(split, n - split, 0, split),
            ],
            self.b,
        )
    }

    fn launch_config(&self) -> LaunchConfig {
        match self.path {
            Path::Packed => self.layout().launch_config(),
            _ => pair_launch(self.n as u32, self.b),
        }
    }

    fn launch<F: DistanceKernel<3>, A: PairAction>(
        &self,
        dev: &mut Device,
        input: DeviceSoa<3>,
        dist: F,
        action: A,
    ) -> KernelRun {
        let (b, scope, intra) = (self.b, self.scope, self.intra);
        let lc = self.launch_config();
        match self.path {
            Path::ShmShm => {
                dev.launch(&ShmShmKernel::new(input, dist, action, b, scope, intra), lc)
            }
            Path::RegisterShm => dev.launch(
                &RegisterShmKernel::new(input, dist, action, b, scope, intra),
                lc,
            ),
            Path::RegisterRoc => dev.launch(
                &RegisterRocKernel::new(input, dist, action, b, scope, intra),
                lc,
            ),
            Path::Shuffle => dev.launch(&ShuffleKernel::new(input, dist, action, b, scope), lc),
            Path::Cross => dev.launch(&CrossShmKernel::new(input, input, dist, action, b), lc),
            Path::Packed => dev.launch(
                &PackedPairKernel::self_join(input, dist, action, self.layout()),
                lc,
            ),
        }
    }

    /// Run the case on a fresh device: the pinned counters, then the
    /// output checksum.
    fn run(&self) -> Vec<u64> {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = cloud(self.n).upload(&mut dev);
        // Packed blocks own launch-global thread ids, so their per-point
        // outputs span the whole launch.
        let n = match self.path {
            Path::Packed => self.launch_config().total_threads() as u32,
            _ => input.n,
        };
        let (run, checksum) = match self.act {
            Act::Knn => {
                let out_dist = dev.alloc_f32_zeroed(2 * n as usize);
                let out_idx = dev.alloc_u32_zeroed(2 * n as usize);
                let action = KnnAction::<2> {
                    out_dist,
                    out_idx,
                    n,
                };
                let run = self.launch(&mut dev, input, Euclidean, action);
                let dists = dev.f32_slice(out_dist).iter().map(|x| x.to_bits() as u64);
                let idxs = dev.u32_slice(out_idx).iter().map(|&x| x as u64);
                (run, fnv(dists.chain(idxs)))
            }
            Act::Kde => {
                let out = dev.alloc_f32_zeroed(n as usize);
                let action = KdeAction { out, n };
                let run = self.launch(&mut dev, input, GaussianRbf::new(12.0), action);
                (
                    run,
                    fnv(dev.f32_slice(out).iter().map(|x| x.to_bits() as u64)),
                )
            }
        };
        let mut row: Vec<u64> = COUNTERS.iter().map(|(_, f)| f(&run.tally)).collect();
        row.push(checksum);
        row
    }
}

fn cases() -> Vec<Case> {
    use IntraMode::{LoadBalanced, Regular};
    use PairScope::{AllPairs, HalfPairs};
    let mut shapes = Vec::new();
    for path in [Path::ShmShm, Path::RegisterShm, Path::RegisterRoc] {
        shapes.push((path, HalfPairs, Regular));
        shapes.push((path, HalfPairs, LoadBalanced));
        shapes.push((path, AllPairs, Regular));
    }
    shapes.push((Path::Shuffle, HalfPairs, Regular));
    shapes.push((Path::Shuffle, AllPairs, Regular));
    shapes.push((Path::Cross, HalfPairs, Regular));
    shapes.push((Path::Packed, HalfPairs, Regular));
    let mut cases = Vec::new();
    for (n, b) in [(200, 64), (37, 32)] {
        for &(path, scope, intra) in &shapes {
            for act in [Act::Knn, Act::Kde] {
                cases.push(Case {
                    path,
                    scope,
                    intra,
                    act,
                    n,
                    b,
                });
            }
        }
    }
    cases
}

/// One row per case: name, the [`COUNTERS`] in order, output checksum.
const PINS: &str = "
shmshm/half/reg/knn/200@64 12096 8973 740 0 32 331948 55124 193 2220 48 2268 250800 0 0 0 48 28 81 175 6000613324085939703
shmshm/half/reg/kde/200@64 9893 6794 740 0 32 271248 45328 193 2220 48 2268 250800 0 0 0 48 7 81 100 15128471672568224886
shmshm/half/lb/knn/200@64 10786 8010 672 0 32 338708 6444 0 1941 48 1989 250800 0 0 0 48 28 81 175 5194255434809883846
shmshm/half/lb/kde/200@64 8862 6110 672 0 32 278008 5576 0 1941 48 1989 250800 0 0 0 48 7 81 100 5602495302804575203
shmshm/all/reg/knn/200@64 23204 17236 1428 0 56 661744 80784 0 4284 84 4368 499200 0 0 0 84 28 225 175 5966827344517157428
shmshm/all/reg/kde/200@64 18964 13020 1428 0 56 541344 65504 0 4284 84 4368 499200 0 0 0 84 7 225 100 16582213575113304604
registershm/half/reg/knn/200@64 12060 8973 740 0 32 330796 55124 193 2163 48 2211 243792 0 0 0 69 28 156 175 6000613324085939703
registershm/half/reg/kde/200@64 9857 6794 740 0 32 270096 45328 193 2163 48 2211 243792 0 0 0 69 7 156 100 15128471672568224886
registershm/half/lb/knn/200@64 10750 8010 672 0 32 337556 6444 0 1884 48 1932 243792 0 0 0 69 28 156 175 5194255434809883846
registershm/half/lb/kde/200@64 8826 6110 672 0 32 276856 5576 0 1884 48 1932 243792 0 0 0 69 7 156 100 5602495302804575203
registershm/all/reg/knn/200@64 23144 17236 1428 0 56 659944 80664 0 4200 84 4284 489600 0 0 0 105 28 300 175 5966827344517157428
registershm/all/reg/kde/200@64 18904 13020 1428 0 56 539544 65384 0 4200 84 4284 489600 0 0 0 105 7 300 100 16582213575113304604
registerroc/half/reg/knn/200@64 11916 8957 740 0 0 326860 54452 193 0 0 0 0 2163 3933 156 21 28 156 175 6000613324085939703
registerroc/half/reg/kde/200@64 9713 6778 740 0 0 266160 44656 193 0 0 0 0 2163 3933 156 21 7 156 100 15128471672568224886
registerroc/half/lb/knn/200@64 10606 7994 672 0 0 333620 5772 0 0 0 0 0 1884 3933 156 21 28 156 175 5194255434809883846
registerroc/half/lb/kde/200@64 8682 6094 672 0 0 272920 4904 0 0 0 0 0 1884 3933 156 21 7 156 100 5602495302804575203
registerroc/all/reg/knn/200@64 22892 17208 1428 0 0 652552 79992 0 0 0 0 0 4200 3900 300 21 28 300 175 5966827344517157428
registerroc/all/reg/kde/200@64 18652 12992 1428 0 0 532152 64712 0 0 0 0 0 4200 3900 300 21 7 300 100 16582213575113304604
shuffle/half/reg/knn/200@64 12999 9523 855 2472 0 375744 40224 0 0 0 0 0 0 0 0 114 28 309 175 6000613324085939703
shuffle/half/reg/kde/200@64 10796 7344 855 2472 0 315044 30428 0 0 0 0 0 0 0 0 114 7 309 100 15128471672568224886
shuffle/all/reg/knn/200@64 24117 18265 1449 4200 0 686400 85344 0 0 0 0 0 0 0 0 168 28 525 175 5966827344517157428
shuffle/all/reg/kde/200@64 19877 14049 1449 4200 0 566000 70064 0 0 0 0 0 0 0 0 168 7 525 100 16582213575113304604
cross/half/reg/knn/200@64 22760 16844 1428 0 64 650248 78072 0 4200 84 4284 489600 0 0 0 105 28 300 175 2068129562879931037
cross/half/reg/kde/200@64 18520 12628 1428 0 64 529248 63392 0 4200 84 4284 489600 0 0 0 105 7 300 100 8069495086002762591
packed/half/reg/knn/200@64 10682 7930 656 0 24 277556 64268 116 1932 42 1974 205872 0 0 0 63 32 156 203 6655656218834711746
packed/half/reg/kde/200@64 8710 5982 656 0 24 226056 52664 116 1932 42 1974 205872 0 0 0 63 8 156 107 14887251655345513910
shmshm/half/reg/knn/37@32 724 522 43 0 4 12082 11086 35 129 9 138 9324 0 0 0 9 8 7 35 11717588598387839803
shmshm/half/reg/kde/37@32 594 398 43 0 4 9899 9109 35 129 9 138 9324 0 0 0 9 2 3 20 18233326548682296076
shmshm/half/lb/knn/37@32 525 371 40 0 4 12798 4002 1 84 9 93 9324 0 0 0 9 8 7 35 13247030182139133502
shmshm/half/lb/kde/37@32 440 292 40 0 4 10615 3465 1 84 9 93 9324 0 0 0 9 2 3 20 5541265178779549753
shmshm/all/reg/knn/37@32 1283 933 78 0 6 23737 17319 0 234 12 246 18204 0 0 0 12 8 19 35 1148375424822623276
shmshm/all/reg/kde/37@32 1051 707 78 0 6 19556 14076 0 234 12 246 18204 0 0 0 12 2 15 20 5714648871603220328
registershm/half/reg/knn/37@32 721 522 43 0 4 11986 11086 35 120 9 129 8496 0 0 0 15 8 22 35 11717588598387839803
registershm/half/reg/kde/37@32 591 398 43 0 4 9803 9109 35 120 9 129 8496 0 0 0 15 2 18 20 18233326548682296076
registershm/half/lb/knn/37@32 522 371 40 0 4 12702 4002 1 75 9 84 8496 0 0 0 15 8 22 35 13247030182139133502
registershm/half/lb/kde/37@32 437 292 40 0 4 10519 3465 1 75 9 84 8496 0 0 0 15 2 18 20 5541265178779549753
registershm/all/reg/knn/37@32 1277 933 78 0 6 23626 17238 0 222 12 234 17316 0 0 0 18 8 34 35 1148375424822623276
registershm/all/reg/kde/37@32 1045 707 78 0 6 19445 13995 0 222 12 234 17316 0 0 0 18 2 30 20 5714648871603220328
registerroc/half/reg/knn/37@32 696 519 43 0 0 11564 10708 35 0 0 0 0 120 237 18 6 8 22 35 11717588598387839803
registerroc/half/reg/kde/37@32 566 395 43 0 0 9381 8731 35 0 0 0 0 120 237 18 6 2 18 20 18233326548682296076
registerroc/half/lb/knn/37@32 497 368 40 0 0 12280 3624 1 0 0 0 0 75 195 18 6 8 22 35 13247030182139133502
registerroc/half/lb/kde/37@32 412 289 40 0 0 10097 3087 1 0 0 0 0 75 195 18 6 2 18 20 5541265178779549753
registerroc/all/reg/knn/37@32 1243 929 78 0 0 22916 16860 0 0 0 0 0 222 192 30 6 8 34 35 1148375424822623276
registerroc/all/reg/kde/37@32 1011 703 78 0 0 18735 13617 0 0 0 0 0 222 192 30 6 2 30 20 5714648871603220328
shuffle/half/reg/knn/37@32 723 529 45 126 0 14607 8529 0 0 0 0 0 0 0 0 15 8 22 35 11717588598387839803
shuffle/half/reg/kde/37@32 593 405 45 126 0 12424 6552 0 0 0 0 0 0 0 0 15 2 18 20 18233326548682296076
shuffle/all/reg/knn/37@32 1296 970 78 222 0 23532 17940 0 0 0 0 0 0 0 0 18 8 34 35 1148375424822623276
shuffle/all/reg/kde/37@32 1064 744 78 222 0 19351 14697 0 0 0 0 0 0 0 0 18 2 30 20 5714648871603220328
cross/half/reg/knn/37@32 1242 896 78 0 8 23085 16659 0 222 12 234 17316 0 0 0 18 8 34 35 5349716751941991258
cross/half/reg/kde/37@32 1010 670 78 0 8 18793 13527 0 222 12 234 17316 0 0 0 18 2 30 20 17691819981894893072
packed/half/reg/knn/37@32 746 543 45 0 3 10143 13729 21 129 6 135 7260 0 0 0 12 8 21 47 4723328759169262954
packed/half/reg/kde/37@32 607 410 45 0 3 8140 11284 21 129 6 135 7260 0 0 0 12 2 21 23 17688664708518963968
";

#[test]
fn op_by_op_shapes_hold_their_pinned_tallies() {
    let pins: Vec<(&str, Vec<u64>)> = PINS
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let mut it = l.split_whitespace();
            let name = it.next().unwrap();
            (name, it.map(|v| v.parse().unwrap()).collect())
        })
        .collect();
    let cases = cases();
    let mut failures = Vec::new();
    let mut got_rows = Vec::new();
    for case in &cases {
        let name = case.name();
        let got = case.run();
        got_rows.push(format!(
            "{name} {}",
            got.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
        ));
        let Some((_, want)) = pins.iter().find(|(n, _)| *n == name) else {
            failures.push(format!("{name}: no pinned row"));
            continue;
        };
        let labels = COUNTERS.iter().map(|(l, _)| *l).chain(["output_checksum"]);
        for ((label, g), w) in labels.zip(&got).zip(want) {
            if g != w {
                failures.push(format!("{name}: {label} = {g}, pinned {w}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{}\n\nmeasured rows:\n{}",
        failures.join("\n"),
        got_rows.join("\n")
    );
    assert_eq!(pins.len(), cases.len(), "one pinned row per case");
}
