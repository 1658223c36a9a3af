//! All-point k-nearest neighbors (small k) — a Type-I application per the
//! paper's §III-B classification: per-point results fit in registers.
//!
//! Runs in [`PairScope::AllPairs`] mode: unlike 2-PCF/SDH, every point
//! must observe every other point, so each ordered pair is evaluated.

use crate::driver::{launch_pairwise, PairwisePlan};
use gpu_sim::{Device, KernelRun, SimError};
use tbs_core::distance::Euclidean;
use tbs_core::kernels::{pair_launch, PairScope};
use tbs_core::output::KnnAction;
use tbs_core::point::SoaPoints;

/// k-NN result: per point, the k nearest neighbor indices and distances,
/// ascending.
#[derive(Debug, Clone)]
pub struct KnnResult<const K: usize> {
    /// `neighbors[i]` = indices of point `i`'s k nearest neighbors.
    pub neighbors: Vec<[u32; K]>,
    /// Matching distances.
    pub distances: Vec<[f32; K]>,
    /// Kernel profile.
    pub run: KernelRun,
}

/// Compute exact k-NN for every point on the simulated GPU.
pub fn knn_gpu<const D: usize, const K: usize>(
    dev: &mut Device,
    pts: &SoaPoints<D>,
    plan: PairwisePlan,
) -> Result<KnnResult<K>, SimError> {
    dev.scoped(|dev| knn_gpu_body(dev, pts, plan))
}

/// The body of [`knn_gpu`]: the caller's [`Device::scoped`]
/// frees what it allocates, however it returns.
fn knn_gpu_body<const D: usize, const K: usize>(
    dev: &mut Device,
    pts: &SoaPoints<D>,
    plan: PairwisePlan,
) -> Result<KnnResult<K>, SimError> {
    let input = pts.upload(dev);
    let n = input.n;
    let lc = pair_launch(n, plan.block_size);
    let slots = (lc.total_threads() as usize).max(n as usize) * K;
    let out_dist = dev.alloc_f32(vec![f32::INFINITY; slots]);
    let out_idx = dev.alloc_u32(vec![u32::MAX; slots]);
    let run = launch_pairwise(
        dev,
        input,
        Euclidean,
        KnnAction::<K> {
            out_dist,
            out_idx,
            n,
        },
        plan,
        PairScope::AllPairs,
    )?;
    // Device layout is out[k*n + i]; transpose back per point.
    let d = dev.f32_slice(out_dist);
    let ix = dev.u32_slice(out_idx);
    let mut neighbors = Vec::with_capacity(n as usize);
    let mut distances = Vec::with_capacity(n as usize);
    for i in 0..n as usize {
        neighbors.push(std::array::from_fn(|k| ix[k * n as usize + i]));
        distances.push(std::array::from_fn(|k| d[k * n as usize + i]));
    }
    Ok(KnnResult {
        neighbors,
        distances,
        run,
    })
}

/// Host-side exact reference.
pub fn knn_reference<const D: usize, const K: usize>(
    pts: &SoaPoints<D>,
) -> (Vec<[u32; K]>, Vec<[f32; K]>) {
    let n = pts.len();
    let mut nbrs = Vec::with_capacity(n);
    let mut dists = Vec::with_capacity(n);
    for i in 0..n {
        let a = pts.point(i);
        let mut all: Vec<(f32, u32)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| {
                let b = pts.point(j);
                let mut s = 0.0f32;
                for d in 0..D {
                    let diff = a[d] - b[d];
                    s = diff.mul_add(diff, s);
                }
                (s.sqrt(), j as u32)
            })
            .collect();
        all.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
        nbrs.push(std::array::from_fn(|k| all[k].1));
        dists.push(std::array::from_fn(|k| all[k].0));
    }
    (nbrs, dists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use tbs_core::analytic::profiles::InputPath;
    use tbs_core::kernels::IntraMode;

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn gpu_knn_distances_match_reference() {
        let pts = tbs_datagen::uniform_points::<3>(256, 100.0, 61);
        let (_, ref_d) = knn_reference::<3, 4>(&pts);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let got = knn_gpu::<3, 4>(&mut dev, &pts, PairwisePlan::register_shm(64)).expect("launch");
        for i in 0..pts.len() {
            for k in 0..4 {
                assert!(
                    (got.distances[i][k] - ref_d[i][k]).abs() < 1e-4,
                    "point {i} k={k}: {} vs {}",
                    got.distances[i][k],
                    ref_d[i][k]
                );
            }
            // Distances ascending.
            for k in 1..4 {
                assert!(got.distances[i][k] >= got.distances[i][k - 1]);
            }
        }
    }

    #[test]
    fn neighbor_indices_are_valid_and_not_self() {
        let pts = tbs_datagen::uniform_points::<2>(200, 100.0, 67);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let got = knn_gpu::<2, 3>(&mut dev, &pts, PairwisePlan::register_shm(64)).expect("launch");
        for (i, nb) in got.neighbors.iter().enumerate() {
            for &j in nb {
                assert!(
                    j != i as u32 && (j as usize) < pts.len(),
                    "point {i}: neighbor {j}"
                );
            }
            assert!(nb[0] != nb[1] && nb[1] != nb[2] && nb[0] != nb[2]);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn knn_agrees_across_input_paths() {
        let pts = tbs_datagen::uniform_points::<3>(160, 100.0, 71);
        let mut reference: Option<Vec<[f32; 2]>> = None;
        for input in [InputPath::Naive, InputPath::RegisterShm, InputPath::Shuffle] {
            let mut dev = Device::new(DeviceConfig::titan_x());
            let plan = PairwisePlan {
                input,
                intra: IntraMode::Regular,
                block_size: 32,
            };
            let got = knn_gpu::<3, 2>(&mut dev, &pts, plan).expect("launch");
            match &reference {
                None => reference = Some(got.distances),
                Some(r) => {
                    for i in 0..pts.len() {
                        for k in 0..2 {
                            assert!(
                                (got.distances[i][k] - r[i][k]).abs() < 1e-5,
                                "{input:?} point {i}"
                            );
                        }
                    }
                }
            }
        }
    }
}
