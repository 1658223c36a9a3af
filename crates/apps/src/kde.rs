//! Kernel density estimation — the paper's §III-B "Kernel
//! density/regression" Type-I example: each point accumulates a sum of
//! kernel weights over all other points in a register.

use crate::driver::{launch_pairwise, PairwisePlan};
use gpu_sim::{Device, KernelRun, SimError};
use tbs_core::distance::GaussianRbf;
use tbs_core::kernels::{pair_launch, PairScope};
use tbs_core::output::KdeAction;
use tbs_core::point::SoaPoints;

/// KDE result: unnormalized and normalized densities per point.
#[derive(Debug, Clone)]
pub struct KdeResult {
    /// Σ_j≠i K(xᵢ, xⱼ) per point.
    pub weight_sums: Vec<f32>,
    /// Density estimate `weight_sums / ((n−1)·(2πσ²)^{D/2})`.
    pub densities: Vec<f64>,
    /// Kernel profile.
    pub run: KernelRun,
}

/// Gaussian-kernel density estimate at every data point.
pub fn kde_gpu<const D: usize>(
    dev: &mut Device,
    pts: &SoaPoints<D>,
    sigma: f32,
    plan: PairwisePlan,
) -> Result<KdeResult, SimError> {
    dev.scoped(|dev| kde_gpu_body(dev, pts, sigma, plan))
}

/// The body of [`kde_gpu`]: the caller's [`Device::scoped`]
/// frees what it allocates, however it returns.
fn kde_gpu_body<const D: usize>(
    dev: &mut Device,
    pts: &SoaPoints<D>,
    sigma: f32,
    plan: PairwisePlan,
) -> Result<KdeResult, SimError> {
    let input = pts.upload(dev);
    let n = input.n;
    let lc = pair_launch(n, plan.block_size);
    let out = dev.alloc_f32_zeroed((lc.total_threads() as usize).max(n as usize));
    let run = launch_pairwise(
        dev,
        input,
        GaussianRbf::new(sigma),
        KdeAction { out, n },
        plan,
        PairScope::AllPairs,
    )?;
    let weight_sums: Vec<f32> = dev.f32_slice(out)[..n as usize].to_vec();
    let norm = ((n as f64) - 1.0)
        * (2.0 * std::f64::consts::PI * (sigma as f64) * (sigma as f64)).powf(D as f64 / 2.0);
    let densities = weight_sums.iter().map(|&w| w as f64 / norm).collect();
    Ok(KdeResult {
        weight_sums,
        densities,
        run,
    })
}

/// Host reference for the weight sums.
pub fn kde_reference<const D: usize>(pts: &SoaPoints<D>, sigma: f32) -> Vec<f32> {
    let n = pts.len();
    let inv = 1.0 / (2.0 * sigma * sigma);
    (0..n)
        .map(|i| {
            let a = pts.point(i);
            let mut sum = 0.0f32;
            for j in 0..n {
                if j == i {
                    continue;
                }
                let b = pts.point(j);
                let mut s = 0.0f32;
                for d in 0..D {
                    let diff = a[d] - b[d];
                    s = diff.mul_add(diff, s);
                }
                sum += (-s * inv).exp();
            }
            sum
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn gpu_kde_matches_reference() {
        let pts = tbs_datagen::uniform_points::<2>(300, 100.0, 73);
        let expect = kde_reference(&pts, 5.0);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let got = kde_gpu(&mut dev, &pts, 5.0, PairwisePlan::register_shm(64)).expect("launch");
        for i in 0..pts.len() {
            let rel = (got.weight_sums[i] - expect[i]).abs() / expect[i].max(1e-6);
            assert!(
                rel < 1e-3,
                "point {i}: {} vs {}",
                got.weight_sums[i],
                expect[i]
            );
        }
    }

    #[test]
    fn cluster_members_are_denser_than_outliers() {
        // One tight cluster plus hand-placed far outliers: the members'
        // densities must dwarf the outliers'.
        let mut pts = tbs_datagen::clustered_points::<2>(480, 100.0, 1, 1.5, 79);
        for k in 0..16 {
            pts.push([(k % 4) as f32 * 3.0, 90.0 + (k / 4) as f32 * 2.0]);
        }
        let mut dev = Device::new(DeviceConfig::titan_x());
        let got = kde_gpu(&mut dev, &pts, 2.0, PairwisePlan::register_shm(64)).expect("launch");
        let member_mean: f32 = got.weight_sums[..480].iter().sum::<f32>() / 480.0;
        let outlier_mean: f32 = got.weight_sums[480..].iter().sum::<f32>() / 16.0;
        assert!(
            member_mean > 5.0 * outlier_mean.max(1e-3),
            "members {member_mean} vs outliers {outlier_mean}"
        );
    }

    #[test]
    fn densities_integrate_to_order_one_scale() {
        // Sanity on the normalization: for a uniform box, density ≈
        // 1/area = 1e-4 for a 100×100 box.
        let pts = tbs_datagen::uniform_points::<2>(1000, 100.0, 83);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let got = kde_gpu(&mut dev, &pts, 8.0, PairwisePlan::register_shm(128)).expect("launch");
        let mean: f64 = got.densities.iter().sum::<f64>() / 1000.0;
        assert!((5e-5..2e-4).contains(&mean), "mean density {mean}");
    }
}
