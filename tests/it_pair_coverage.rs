//! Pair-coverage exactness: every kernel variant must evaluate *exactly*
//! the set of unordered pairs {i, j}, i < j — no pair missed, none
//! duplicated. Verified by collecting the actual pairs through a
//! Type-III pair-list output with an infinite radius.

use gpu_sim::{Device, DeviceConfig};
use tbs_apps::{launch_pairwise, PairwisePlan};
use tbs_core::analytic::InputPath;
use tbs_core::kernels::{IntraMode, PairScope};
use tbs_core::output::PairListAction;
use tbs_core::{Euclidean, SoaPoints};
use tbs_integration::lcg_points;

fn collect_pairs(
    pts: &SoaPoints<3>,
    input: InputPath,
    intra: IntraMode,
    block: u32,
    scope: PairScope,
) -> Vec<(u32, u32)> {
    let mut dev = Device::new(DeviceConfig::titan_x());
    let d_input = pts.upload(&mut dev);
    let n = d_input.n as u64;
    let cap = (n * n) as u32;
    let cursor = dev.alloc_u32_zeroed(1);
    let out_left = dev.alloc_u32(vec![u32::MAX; cap as usize]);
    let out_right = dev.alloc_u32(vec![u32::MAX; cap as usize]);
    let action = PairListAction {
        radius: f32::INFINITY,
        cursor,
        out_left,
        out_right,
        capacity: cap,
        aggregated: false,
    };
    let plan = PairwisePlan {
        input,
        intra,
        block_size: block,
    };
    launch_pairwise(&mut dev, d_input, Euclidean, action, plan, scope).expect("launch");
    let total = dev.u32_slice(cursor)[0] as usize;
    let lhs = dev.u32_slice(out_left);
    let rhs = dev.u32_slice(out_right);
    let mut pairs: Vec<(u32, u32)> = (0..total).map(|k| (lhs[k], rhs[k])).collect();
    pairs.sort_unstable();
    pairs
}

fn all_half_pairs(n: u32) -> Vec<(u32, u32)> {
    let mut v = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            v.push((i, j));
        }
    }
    v
}

fn check_half(input: InputPath, intra: IntraMode, n: usize, block: u32) {
    let pts = lcg_points(n, 5);
    let mut got = collect_pairs(&pts, input, intra, block, PairScope::HalfPairs);
    // Canonicalize (i, j) ordering — the kernels emit (left, right) where
    // left is the thread's own point.
    for p in got.iter_mut() {
        *p = (p.0.min(p.1), p.0.max(p.1));
    }
    got.sort_unstable();
    assert_eq!(
        got,
        all_half_pairs(n as u32),
        "{input:?}/{intra:?} n={n} b={block}: wrong pair coverage"
    );
}

#[test]
fn naive_covers_all_pairs() {
    check_half(InputPath::Naive, IntraMode::Regular, 150, 32);
}

#[test]
fn register_shm_regular_covers_all_pairs() {
    check_half(InputPath::RegisterShm, IntraMode::Regular, 192, 64);
}

#[test]
fn register_shm_load_balanced_covers_all_pairs() {
    // The (t + j) mod B pairing with the half-iteration tail is subtle:
    // prove it produces each pair exactly once, including ragged blocks.
    check_half(InputPath::RegisterShm, IntraMode::LoadBalanced, 192, 64);
    check_half(InputPath::RegisterShm, IntraMode::LoadBalanced, 173, 64); // ragged
}

#[test]
fn shm_shm_both_intra_modes_cover_all_pairs() {
    check_half(InputPath::ShmShm, IntraMode::Regular, 160, 32);
    check_half(InputPath::ShmShm, IntraMode::LoadBalanced, 160, 32);
    check_half(InputPath::ShmShm, IntraMode::LoadBalanced, 161, 32); // ragged
}

#[test]
fn register_roc_both_intra_modes_cover_all_pairs() {
    check_half(InputPath::RegisterRoc, IntraMode::Regular, 128, 64);
    check_half(InputPath::RegisterRoc, IntraMode::LoadBalanced, 130, 64); // ragged
}

#[test]
fn shuffle_covers_all_pairs() {
    check_half(InputPath::Shuffle, IntraMode::Regular, 200, 64);
    check_half(InputPath::Shuffle, IntraMode::Regular, 96, 32);
}

#[test]
fn all_pairs_scope_covers_each_ordered_pair_once() {
    let n = 96u32;
    let pts = lcg_points(n as usize, 9);
    for input in [
        InputPath::Naive,
        InputPath::ShmShm,
        InputPath::RegisterShm,
        InputPath::RegisterRoc,
        InputPath::Shuffle,
    ] {
        let got = collect_pairs(&pts, input, IntraMode::Regular, 32, PairScope::AllPairs);
        let mut expect = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    expect.push((i, j));
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(got, expect, "{input:?} ordered-pair coverage");
    }
}

#[test]
fn tiny_inputs_smaller_than_one_block() {
    for n in [1usize, 2, 5, 31, 33] {
        check_half(InputPath::RegisterShm, IntraMode::Regular, n, 32);
        check_half(InputPath::RegisterShm, IntraMode::LoadBalanced, n, 32);
    }
}
