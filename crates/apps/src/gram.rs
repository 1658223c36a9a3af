//! Kernel (Gram) matrix computation — the paper's §III-B Type-III
//! example "Kernel methods which compute kernel functions for all pairs
//! of data in the feature space" (SVM training).
//!
//! The N×N output is quadratic in the input: it can only live in global
//! memory. Stores are issued into the row of the broadcast operand so
//! they coalesce; the mirrored entry costs a strided store (the honest
//! price of symmetric Type-III output, measured by the benches).

use crate::driver::{launch_pairwise, PairwisePlan};
use gpu_sim::{Device, KernelRun, SimError};
use tbs_core::distance::DistanceKernel;
use tbs_core::kernels::PairScope;
use tbs_core::output::MatrixWriteAction;
use tbs_core::point::SoaPoints;

/// Gram-matrix result.
#[derive(Debug, Clone)]
pub struct GramResult {
    /// Row-major N×N kernel matrix.
    pub matrix: Vec<f32>,
    /// Matrix dimension.
    pub n: usize,
    /// Kernel profile.
    pub run: KernelRun,
}

impl GramResult {
    /// Entry (i, j).
    pub fn at(&self, i: usize, j: usize) -> f32 {
        self.matrix[i * self.n + j]
    }
}

/// Compute the Gram matrix of `pts` under kernel `k` (diagonal entries
/// are filled on the host with `k(x, x)` — the pair kernels only visit
/// `i ≠ j`).
pub fn gram_gpu<const D: usize, K: DistanceKernel<D> + Copy>(
    dev: &mut Device,
    pts: &SoaPoints<D>,
    k: K,
    plan: PairwisePlan,
) -> Result<GramResult, SimError> {
    dev.scoped(|dev| gram_gpu_body(dev, pts, k, plan))
}

/// The body of [`gram_gpu`]: the caller's [`Device::scoped`]
/// frees what it allocates, however it returns.
fn gram_gpu_body<const D: usize, K: DistanceKernel<D> + Copy>(
    dev: &mut Device,
    pts: &SoaPoints<D>,
    k: K,
    plan: PairwisePlan,
) -> Result<GramResult, SimError> {
    let input = pts.upload(dev);
    let n = input.n;
    let out = dev.alloc_f32_zeroed((n as usize) * (n as usize));
    let action = MatrixWriteAction {
        out,
        n,
        symmetric: true,
    };
    let run = launch_pairwise(dev, input, k, action, plan, PairScope::HalfPairs)?;
    let mut matrix = dev.f32_slice(out).to_vec();
    for i in 0..n as usize {
        let p = pts.point(i);
        matrix[i * n as usize + i] = k.eval_host(&p, &p);
    }
    Ok(GramResult {
        matrix,
        n: n as usize,
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use tbs_core::distance::{DotProduct, GaussianRbf};

    #[test]
    fn gram_matrix_matches_host_evaluation() {
        let pts = tbs_datagen::uniform_points::<3>(128, 10.0, 107);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let g =
            gram_gpu(&mut dev, &pts, DotProduct, PairwisePlan::register_shm(32)).expect("launch");
        for i in (0..128).step_by(17) {
            for j in (0..128).step_by(13) {
                let expect = <DotProduct as DistanceKernel<3>>::eval_host(
                    &DotProduct,
                    &pts.point(i),
                    &pts.point(j),
                );
                assert!(
                    (g.at(i, j) - expect).abs() < 1e-3,
                    "({i},{j}): {} vs {expect}",
                    g.at(i, j)
                );
            }
        }
    }

    #[test]
    fn gram_matrix_is_symmetric_with_unit_rbf_diagonal() {
        let pts = tbs_datagen::uniform_points::<2>(96, 10.0, 109);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let g = gram_gpu(
            &mut dev,
            &pts,
            GaussianRbf::new(2.0),
            PairwisePlan::register_shm(32),
        )
        .expect("launch");
        for i in 0..96 {
            assert!((g.at(i, i) - 1.0).abs() < 1e-6, "diagonal {i}");
            for j in 0..96 {
                assert_eq!(g.at(i, j), g.at(j, i), "symmetry ({i},{j})");
            }
        }
    }

    #[test]
    fn type_iii_output_traffic_is_quadratic() {
        let pts = tbs_datagen::uniform_points::<2>(256, 10.0, 113);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let g =
            gram_gpu(&mut dev, &pts, DotProduct, PairwisePlan::register_shm(64)).expect("launch");
        // Two stores per pair (symmetric): bytes ≈ 2 × pairs × 4.
        let pairs = 256u64 * 255 / 2;
        assert_eq!(g.run.tally.global_store_bytes % 4, 0);
        assert!(g.run.tally.global_store_bytes >= 2 * pairs * 4);
    }
}
