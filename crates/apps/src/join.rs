//! Spatial distance join — a Type-III application (paper §III-B:
//! "relational join... total number of output tuples can be quadratic").
//!
//! Emits every pair within a radius into a global-memory pair list whose
//! slots are allocated through an atomic cursor. The paper defers
//! Type-III optimization to future work; this module implements both the
//! obvious per-lane allocation and a **warp-aggregated** allocation (one
//! atomic per warp) as the extension studied in `ext_type3` benches.

use crate::driver::{launch_pairwise, PairwisePlan};
use gpu_sim::{Device, KernelRun, SimError};
use tbs_core::distance::Euclidean;
use tbs_core::kernels::PairScope;
use tbs_core::output::PairListAction;
use tbs_core::point::SoaPoints;

/// Join result.
#[derive(Debug, Clone)]
pub struct JoinResult {
    /// Matched pairs `(i, j)`, `i < j`, in canonical sorted order.
    pub pairs: Vec<(u32, u32)>,
    /// Total matches found (may exceed `pairs.len()` if the output
    /// buffer capacity was exceeded).
    pub total_matches: u64,
    /// Kernel profile.
    pub run: KernelRun,
}

/// Self-join `pts` within `radius` on the simulated device.
///
/// `aggregated` selects warp-aggregated output-slot allocation.
pub fn distance_join_gpu<const D: usize>(
    dev: &mut Device,
    pts: &SoaPoints<D>,
    radius: f32,
    capacity: u32,
    aggregated: bool,
    plan: PairwisePlan,
) -> Result<JoinResult, SimError> {
    dev.scoped(|dev| distance_join_gpu_body(dev, pts, radius, capacity, aggregated, plan))
}

/// The body of [`distance_join_gpu`]: the caller's [`Device::scoped`]
/// frees what it allocates, however it returns.
fn distance_join_gpu_body<const D: usize>(
    dev: &mut Device,
    pts: &SoaPoints<D>,
    radius: f32,
    capacity: u32,
    aggregated: bool,
    plan: PairwisePlan,
) -> Result<JoinResult, SimError> {
    let input = pts.upload(dev);
    let cursor = dev.alloc_u32_zeroed(1);
    let out_left = dev.alloc_u32(vec![u32::MAX; capacity as usize]);
    let out_right = dev.alloc_u32(vec![u32::MAX; capacity as usize]);
    let action = PairListAction {
        radius,
        cursor,
        out_left,
        out_right,
        capacity,
        aggregated,
    };
    let run = launch_pairwise(dev, input, Euclidean, action, plan, PairScope::HalfPairs)?;
    let total_matches = dev.u32_slice(cursor)[0] as u64;
    let stored = (total_matches as usize).min(capacity as usize);
    let l = dev.u32_slice(out_left);
    let r = dev.u32_slice(out_right);
    let mut pairs: Vec<(u32, u32)> = (0..stored)
        .map(|k| (l[k].min(r[k]), l[k].max(r[k])))
        .collect();
    pairs.sort_unstable();
    Ok(JoinResult {
        pairs,
        total_matches,
        run,
    })
}

/// Bipartite distance join `R ⋈_{dist<r} S` between two tables — the
/// relational-join shape of the paper's Type-III example (He et al. join
/// *two* tables; the self-join above is the special case R = S). Runs on
/// the bipartite [`CrossShmKernel`](tbs_core::kernels::CrossShmKernel).
pub fn distance_join_two_gpu<const D: usize>(
    dev: &mut Device,
    left: &SoaPoints<D>,
    right: &SoaPoints<D>,
    radius: f32,
    capacity: u32,
    aggregated: bool,
    block_size: u32,
) -> Result<JoinResult, SimError> {
    dev.scoped(|dev| {
        distance_join_two_gpu_body(dev, left, right, radius, capacity, aggregated, block_size)
    })
}

/// The body of [`distance_join_two_gpu`]: the caller's [`Device::scoped`]
/// frees what it allocates, however it returns.
fn distance_join_two_gpu_body<const D: usize>(
    dev: &mut Device,
    left: &SoaPoints<D>,
    right: &SoaPoints<D>,
    radius: f32,
    capacity: u32,
    aggregated: bool,
    block_size: u32,
) -> Result<JoinResult, SimError> {
    use tbs_core::kernels::{pair_launch, CrossShmKernel};
    let dl = left.upload(dev);
    let dr = right.upload(dev);
    let cursor = dev.alloc_u32_zeroed(1);
    let out_left = dev.alloc_u32(vec![u32::MAX; capacity as usize]);
    let out_right = dev.alloc_u32(vec![u32::MAX; capacity as usize]);
    let action = PairListAction {
        radius,
        cursor,
        out_left,
        out_right,
        capacity,
        aggregated,
    };
    let k = CrossShmKernel::new(dl, dr, Euclidean, action, block_size);
    let run = dev.try_launch(&k, pair_launch(dl.n, block_size))?;
    let total_matches = dev.u32_slice(cursor)[0] as u64;
    let stored = (total_matches as usize).min(capacity as usize);
    let l = dev.u32_slice(out_left);
    let r = dev.u32_slice(out_right);
    // Bipartite pairs keep their (left, right) identity — no
    // canonicalization.
    let mut pairs: Vec<(u32, u32)> = (0..stored).map(|i| (l[i], r[i])).collect();
    pairs.sort_unstable();
    Ok(JoinResult {
        pairs,
        total_matches,
        run,
    })
}

/// Host reference for the bipartite join.
pub fn distance_join_two_reference<const D: usize>(
    left: &SoaPoints<D>,
    right: &SoaPoints<D>,
    radius: f32,
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for i in 0..left.len() {
        let a = left.point(i);
        for j in 0..right.len() {
            let b = right.point(j);
            let mut s = 0.0f32;
            for d in 0..D {
                let diff = a[d] - b[d];
                s = diff.mul_add(diff, s);
            }
            if s.sqrt() < radius {
                out.push((i as u32, j as u32));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Host reference join.
pub fn distance_join_reference<const D: usize>(pts: &SoaPoints<D>, radius: f32) -> Vec<(u32, u32)> {
    let n = pts.len();
    let mut out = Vec::new();
    for i in 0..n {
        let a = pts.point(i);
        for j in (i + 1)..n {
            let b = pts.point(j);
            let mut s = 0.0f32;
            for d in 0..D {
                let diff = a[d] - b[d];
                s = diff.mul_add(diff, s);
            }
            if s.sqrt() < radius {
                out.push((i as u32, j as u32));
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;

    #[test]
    fn join_matches_reference_exactly() {
        let pts = tbs_datagen::uniform_points::<2>(400, 100.0, 89);
        let expect = distance_join_reference(&pts, 6.0);
        for aggregated in [false, true] {
            let mut dev = Device::new(DeviceConfig::titan_x());
            let got = distance_join_gpu(
                &mut dev,
                &pts,
                6.0,
                100_000,
                aggregated,
                PairwisePlan::register_shm(64),
            )
            .expect("launch");
            assert_eq!(got.pairs, expect, "aggregated={aggregated}");
            assert_eq!(got.total_matches as usize, expect.len());
        }
    }

    #[test]
    fn aggregated_allocation_issues_fewer_atomics() {
        // Dense hits (radius ≈ box/2) so most lanes of a warp match:
        // per-lane allocation then serializes ~hit-count deep per warp,
        // while aggregation stays at one allocation per warp.
        let pts = tbs_datagen::uniform_points::<2>(512, 100.0, 97);
        let mut dev1 = Device::new(DeviceConfig::titan_x());
        let naive = distance_join_gpu(
            &mut dev1,
            &pts,
            50.0,
            1 << 20,
            false,
            PairwisePlan::register_shm(64),
        )
        .expect("launch");
        let mut dev2 = Device::new(DeviceConfig::titan_x());
        let agg = distance_join_gpu(
            &mut dev2,
            &pts,
            50.0,
            1 << 20,
            true,
            PairwisePlan::register_shm(64),
        )
        .expect("launch");
        assert_eq!(naive.pairs.len(), agg.pairs.len());
        // Same number of atomic instructions, but the serialized cost
        // collapses: one lane per warp instead of every hit lane.
        assert!(
            agg.run.tally.global_atomic_serial * 3 < naive.run.tally.global_atomic_serial,
            "agg serial {} vs naive serial {}",
            agg.run.tally.global_atomic_serial,
            naive.run.tally.global_atomic_serial
        );
    }

    #[test]
    fn capacity_overflow_truncates_but_counts() {
        let pts = tbs_datagen::uniform_points::<2>(256, 10.0, 101); // dense
        let expect = distance_join_reference(&pts, 5.0);
        assert!(expect.len() > 64);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let got = distance_join_gpu(
            &mut dev,
            &pts,
            5.0,
            64,
            false,
            PairwisePlan::register_shm(64),
        )
        .expect("launch");
        assert_eq!(
            got.total_matches as usize,
            expect.len(),
            "cursor counts all matches"
        );
        assert_eq!(got.pairs.len(), 64, "list truncated at capacity");
        for p in &got.pairs {
            assert!(expect.binary_search(p).is_ok(), "{p:?} not a real match");
        }
    }

    #[test]
    fn bipartite_join_matches_reference() {
        let users = tbs_datagen::uniform_points::<2>(150, 100.0, 107);
        let items = tbs_datagen::clustered_points::<2>(220, 100.0, 5, 4.0, 109);
        let expect = distance_join_two_reference(&users, &items, 8.0);
        assert!(!expect.is_empty());
        for aggregated in [false, true] {
            let mut dev = Device::new(DeviceConfig::titan_x());
            let got = distance_join_two_gpu(&mut dev, &users, &items, 8.0, 1 << 18, aggregated, 64)
                .expect("launch");
            assert_eq!(got.pairs, expect, "aggregated={aggregated}");
        }
    }

    #[test]
    fn bipartite_join_with_self_equals_self_join_plus_diagonal() {
        // R ⋈ R contains each unordered pair twice plus the diagonal.
        let pts = tbs_datagen::uniform_points::<2>(120, 100.0, 113);
        let half = distance_join_reference(&pts, 9.0);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let both =
            distance_join_two_gpu(&mut dev, &pts, &pts, 9.0, 1 << 18, true, 32).expect("launch");
        assert_eq!(both.total_matches as usize, 2 * half.len() + 120);
    }

    #[test]
    fn empty_result_when_radius_is_zero() {
        let pts = tbs_datagen::uniform_points::<2>(128, 100.0, 103);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let got = distance_join_gpu(
            &mut dev,
            &pts,
            0.0,
            1024,
            true,
            PairwisePlan::register_shm(32),
        )
        .expect("launch");
        assert!(got.pairs.is_empty());
        assert_eq!(got.total_matches, 0);
    }
}
