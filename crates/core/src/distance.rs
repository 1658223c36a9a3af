//! Distance functions.
//!
//! The paper's abstraction (§I): a 2-BS is "solved by computing a
//! function between all pairs of datum... such a function often demands
//! constant time to compute; for convenience of presentation, let us call
//! them distance functions."
//!
//! A [`DistanceKernel`] computes 32 lane values at once on the simulated
//! device, charging a fixed, documented instruction cost (so the analytic
//! access model can mirror it exactly), and also offers a host-side
//! scalar evaluation used by the CPU baseline and by verification tests.
//!
//! Kernels run on one of two interpreter routes: the plan compiler,
//! when the distance declares a [`DistanceKernel::compiled_form`] (only
//! [`Euclidean`] and [`PeriodicEuclidean`] do), and the op-by-op route
//! otherwise. Both produce the same bits.

use gpu_sim::{DistanceForm, F32x32, Mask, WarpCtx, WARP_SIZE};

/// A constant-time pairwise function (the paper's "distance function").
pub trait DistanceKernel<const D: usize>: Sync {
    /// Name for reports.
    fn name(&self) -> &'static str;

    /// ALU warp instructions charged per warp evaluation. Must be
    /// independent of the data (SIMT predication executes both sides of
    /// short branches anyway).
    fn cost(&self) -> u64;

    /// Evaluate all lanes: `a` and `b` hold per-lane coordinates.
    /// Implementations must charge exactly [`DistanceKernel::cost`] ALU
    /// instructions under `mask`.
    fn eval(&self, w: &mut WarpCtx<'_, '_>, a: &[F32x32; D], b: &[F32x32; D], mask: Mask)
        -> F32x32;

    /// Host-side scalar evaluation (reference semantics for the GPU
    /// path; used by the CPU baseline).
    fn eval_host(&self, a: &[f32; D], b: &[f32; D]) -> f32;

    /// The form the plan compiler lowers this distance to, when
    /// [`DistanceKernel::eval`] is exactly *charge
    /// [`DistanceKernel::cost`] ALU under the mask, then
    /// [`DistanceKernel::eval_host`] per active lane* and `eval_host` is
    /// exactly that form's operation sequence (see [`DistanceForm`]).
    /// The compiled passes then charge `cost()` in closed form and
    /// evaluate the form themselves, bit-identically. `None` — the
    /// default — runs the distance op by op.
    fn compiled_form(&self) -> Option<DistanceForm> {
        None
    }
}

#[inline]
fn lanes<const D: usize>(
    a: &[F32x32; D],
    b: &[F32x32; D],
    mask: Mask,
    f: impl Fn([f32; D], [f32; D]) -> f32,
) -> F32x32 {
    std::array::from_fn(|i| {
        if mask.lane(i) {
            f(
                std::array::from_fn(|d| a[d][i]),
                std::array::from_fn(|d| b[d][i]),
            )
        } else {
            0.0
        }
    })
}

/// Euclidean (L2) distance — the distance of 2-PCF, SDH and RDF.
///
/// Cost: one subtract + one FMA per dimension, plus one square root:
/// `2·D + 1` instructions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Euclidean;

impl<const D: usize> DistanceKernel<D> for Euclidean {
    fn name(&self) -> &'static str {
        "euclidean"
    }

    fn cost(&self) -> u64 {
        2 * D as u64 + 1
    }

    fn compiled_form(&self) -> Option<DistanceForm> {
        Some(DistanceForm::Euclidean)
    }

    fn eval(
        &self,
        w: &mut WarpCtx<'_, '_>,
        a: &[F32x32; D],
        b: &[F32x32; D],
        mask: Mask,
    ) -> F32x32 {
        w.charge_alu(<Self as DistanceKernel<D>>::cost(self), mask);
        lanes(a, b, mask, |pa, pb| self.eval_host(&pa, &pb))
    }

    fn eval_host(&self, a: &[f32; D], b: &[f32; D]) -> f32 {
        let mut s = 0.0f32;
        for d in 0..D {
            let diff = a[d] - b[d];
            s = diff.mul_add(diff, s);
        }
        s.sqrt()
    }
}

/// Squared Euclidean distance (saves the square root when only
/// comparisons against a squared radius are needed — e.g. joins).
///
/// Cost: `2·D` instructions.
#[derive(Debug, Clone, Copy, Default)]
pub struct SquaredEuclidean;

impl<const D: usize> DistanceKernel<D> for SquaredEuclidean {
    fn name(&self) -> &'static str {
        "squared-euclidean"
    }

    fn cost(&self) -> u64 {
        2 * D as u64
    }

    fn eval(
        &self,
        w: &mut WarpCtx<'_, '_>,
        a: &[F32x32; D],
        b: &[F32x32; D],
        mask: Mask,
    ) -> F32x32 {
        w.charge_alu(<Self as DistanceKernel<D>>::cost(self), mask);
        lanes(a, b, mask, |pa, pb| self.eval_host(&pa, &pb))
    }

    fn eval_host(&self, a: &[f32; D], b: &[f32; D]) -> f32 {
        let mut s = 0.0f32;
        for d in 0..D {
            let diff = a[d] - b[d];
            s = diff.mul_add(diff, s);
        }
        s
    }
}

/// Manhattan (L1) distance.
///
/// Cost: subtract + abs + add per dimension: `3·D` instructions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Manhattan;

impl<const D: usize> DistanceKernel<D> for Manhattan {
    fn name(&self) -> &'static str {
        "manhattan"
    }

    fn cost(&self) -> u64 {
        3 * D as u64
    }

    fn eval(
        &self,
        w: &mut WarpCtx<'_, '_>,
        a: &[F32x32; D],
        b: &[F32x32; D],
        mask: Mask,
    ) -> F32x32 {
        w.charge_alu(<Self as DistanceKernel<D>>::cost(self), mask);
        lanes(a, b, mask, |pa, pb| self.eval_host(&pa, &pb))
    }

    fn eval_host(&self, a: &[f32; D], b: &[f32; D]) -> f32 {
        let mut s = 0.0f32;
        for d in 0..D {
            s += (a[d] - b[d]).abs();
        }
        s
    }
}

/// Euclidean distance under periodic boundary conditions (the
/// minimum-image convention of molecular-dynamics codes — the RDF
/// application the paper cites computes exactly this).
///
/// Per dimension: `Δ = a − b; Δ −= L·round(Δ/L)`, then the usual square
/// root. Cost: subtract, scale, round, FMA-correct, FMA-accumulate per
/// dimension plus the square root: `5·D + 1`.
#[derive(Debug, Clone, Copy)]
pub struct PeriodicEuclidean {
    /// Box edge length L (> 0); the box is `[0, L)^D`.
    pub box_edge: f32,
}

impl PeriodicEuclidean {
    pub fn new(box_edge: f32) -> Self {
        assert!(box_edge > 0.0, "periodic box edge must be positive");
        PeriodicEuclidean { box_edge }
    }
}

impl<const D: usize> DistanceKernel<D> for PeriodicEuclidean {
    fn name(&self) -> &'static str {
        "periodic-euclidean"
    }

    fn cost(&self) -> u64 {
        5 * D as u64 + 1
    }

    fn compiled_form(&self) -> Option<DistanceForm> {
        Some(DistanceForm::MinimumImage {
            box_edge: self.box_edge,
        })
    }

    fn eval(
        &self,
        w: &mut WarpCtx<'_, '_>,
        a: &[F32x32; D],
        b: &[F32x32; D],
        mask: Mask,
    ) -> F32x32 {
        w.charge_alu(<Self as DistanceKernel<D>>::cost(self), mask);
        lanes(a, b, mask, |pa, pb| self.eval_host(&pa, &pb))
    }

    fn eval_host(&self, a: &[f32; D], b: &[f32; D]) -> f32 {
        let l = self.box_edge;
        let mut s = 0.0f32;
        for d in 0..D {
            let mut diff = a[d] - b[d];
            diff -= l * (diff / l).round();
            s = diff.mul_add(diff, s);
        }
        s.sqrt()
    }
}

/// Cosine *dissimilarity* `1 − cos(a, b)` — the pairwise-comparison
/// measure of the recommendation-system applications the paper cites
/// (§II: content-based and collaborative filtering).
///
/// Cost: three FMAs per dimension plus normalization (rsqrt ×2, mul,
/// sub): `3·D + 4`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CosineDissimilarity;

impl<const D: usize> DistanceKernel<D> for CosineDissimilarity {
    fn name(&self) -> &'static str {
        "cosine"
    }

    fn cost(&self) -> u64 {
        3 * D as u64 + 4
    }

    fn eval(
        &self,
        w: &mut WarpCtx<'_, '_>,
        a: &[F32x32; D],
        b: &[F32x32; D],
        mask: Mask,
    ) -> F32x32 {
        w.charge_alu(<Self as DistanceKernel<D>>::cost(self), mask);
        lanes(a, b, mask, |pa, pb| self.eval_host(&pa, &pb))
    }

    fn eval_host(&self, a: &[f32; D], b: &[f32; D]) -> f32 {
        let (mut dot, mut na, mut nb) = (0.0f32, 0.0f32, 0.0f32);
        for d in 0..D {
            dot = a[d].mul_add(b[d], dot);
            na = a[d].mul_add(a[d], na);
            nb = b[d].mul_add(b[d], nb);
        }
        let denom = (na * nb).sqrt();
        if denom == 0.0 {
            1.0
        } else {
            1.0 - dot / denom
        }
    }
}

/// Gaussian (RBF) kernel value `exp(−‖a−b‖² / (2σ²))` — the kernel-method
/// "distance function" of the paper's Type-III examples (SVM Gram
/// matrices) and the weight function of kernel density estimation.
///
/// Cost: `2·D` for the squared distance + scale + exp: `2·D + 2`.
#[derive(Debug, Clone, Copy)]
pub struct GaussianRbf {
    /// Bandwidth σ (> 0).
    pub sigma: f32,
}

impl GaussianRbf {
    pub fn new(sigma: f32) -> Self {
        assert!(sigma > 0.0, "RBF bandwidth must be positive");
        GaussianRbf { sigma }
    }
}

impl<const D: usize> DistanceKernel<D> for GaussianRbf {
    fn name(&self) -> &'static str {
        "gaussian-rbf"
    }

    fn cost(&self) -> u64 {
        2 * D as u64 + 2
    }

    fn eval(
        &self,
        w: &mut WarpCtx<'_, '_>,
        a: &[F32x32; D],
        b: &[F32x32; D],
        mask: Mask,
    ) -> F32x32 {
        w.charge_alu(<Self as DistanceKernel<D>>::cost(self), mask);
        lanes(a, b, mask, |pa, pb| self.eval_host(&pa, &pb))
    }

    fn eval_host(&self, a: &[f32; D], b: &[f32; D]) -> f32 {
        let mut s = 0.0f32;
        for d in 0..D {
            let diff = a[d] - b[d];
            s = diff.mul_add(diff, s);
        }
        (-s / (2.0 * self.sigma * self.sigma)).exp()
    }
}

/// Dot product `a · b` — the linear-kernel Gram matrix entry.
///
/// Cost: one FMA per dimension: `D`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DotProduct;

impl<const D: usize> DistanceKernel<D> for DotProduct {
    fn name(&self) -> &'static str {
        "dot-product"
    }

    fn cost(&self) -> u64 {
        D as u64
    }

    fn eval(
        &self,
        w: &mut WarpCtx<'_, '_>,
        a: &[F32x32; D],
        b: &[F32x32; D],
        mask: Mask,
    ) -> F32x32 {
        w.charge_alu(<Self as DistanceKernel<D>>::cost(self), mask);
        lanes(a, b, mask, |pa, pb| self.eval_host(&pa, &pb))
    }

    fn eval_host(&self, a: &[f32; D], b: &[f32; D]) -> f32 {
        let mut s = 0.0f32;
        for d in 0..D {
            s = a[d].mul_add(b[d], s);
        }
        s
    }
}

/// Split a warp's worth of lane coordinates out of a host slice, for
/// tests and host-side reference paths.
pub fn lanes_from_host<const D: usize>(pts: &[[f32; D]]) -> [F32x32; D] {
    std::array::from_fn(|d| {
        std::array::from_fn(|i| {
            if i < pts.len() && i < WARP_SIZE {
                pts[i][d]
            } else {
                0.0
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_host_matches_hand_computation() {
        let e = Euclidean;
        let d = <Euclidean as DistanceKernel<3>>::eval_host(&e, &[0.0, 0.0, 0.0], &[3.0, 4.0, 0.0]);
        assert!((d - 5.0).abs() < 1e-6);
        assert_eq!(<Euclidean as DistanceKernel<3>>::cost(&e), 7);
    }

    #[test]
    fn squared_euclidean_is_square_of_euclidean() {
        let a = [1.0, -2.0];
        let b = [4.0, 2.0];
        let d = <Euclidean as DistanceKernel<2>>::eval_host(&Euclidean, &a, &b);
        let d2 = <SquaredEuclidean as DistanceKernel<2>>::eval_host(&SquaredEuclidean, &a, &b);
        assert!((d * d - d2).abs() < 1e-4);
    }

    #[test]
    fn manhattan_and_dot() {
        let a = [1.0, 2.0, 3.0];
        let b = [2.0, 0.0, 3.0];
        assert_eq!(
            <Manhattan as DistanceKernel<3>>::eval_host(&Manhattan, &a, &b),
            3.0
        );
        assert_eq!(
            <DotProduct as DistanceKernel<3>>::eval_host(&DotProduct, &a, &b),
            11.0
        );
    }

    #[test]
    fn cosine_identical_vectors_is_zero() {
        let a = [0.5, 0.5];
        let d = <CosineDissimilarity as DistanceKernel<2>>::eval_host(&CosineDissimilarity, &a, &a);
        assert!(d.abs() < 1e-6);
        // Orthogonal vectors -> 1.
        let d = <CosineDissimilarity as DistanceKernel<2>>::eval_host(
            &CosineDissimilarity,
            &[1.0, 0.0],
            &[0.0, 1.0],
        );
        assert!((d - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rbf_is_one_at_zero_distance_and_decays() {
        let k = GaussianRbf::new(1.0);
        let same = <GaussianRbf as DistanceKernel<2>>::eval_host(&k, &[1.0, 1.0], &[1.0, 1.0]);
        assert!((same - 1.0).abs() < 1e-6);
        let far = <GaussianRbf as DistanceKernel<2>>::eval_host(&k, &[0.0, 0.0], &[10.0, 0.0]);
        assert!(far < 1e-6);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn rbf_rejects_zero_sigma() {
        GaussianRbf::new(0.0);
    }

    #[test]
    fn periodic_wraps_across_the_boundary() {
        let pe = PeriodicEuclidean::new(100.0);
        // 1 and 99 are 2 apart through the boundary, not 98.
        let d = <PeriodicEuclidean as DistanceKernel<1>>::eval_host(&pe, &[1.0], &[99.0]);
        assert!((d - 2.0).abs() < 1e-4, "{d}");
        // Interior pairs match plain Euclidean.
        let d =
            <PeriodicEuclidean as DistanceKernel<2>>::eval_host(&pe, &[10.0, 10.0], &[13.0, 14.0]);
        assert!((d - 5.0).abs() < 1e-4);
    }

    #[test]
    fn periodic_distance_never_exceeds_half_diagonal() {
        let pe = PeriodicEuclidean::new(10.0);
        for i in 0..20 {
            for j in 0..20 {
                let a = [i as f32 * 0.5, (i * 7 % 20) as f32 * 0.5];
                let b = [j as f32 * 0.5, (j * 3 % 20) as f32 * 0.5];
                let d = <PeriodicEuclidean as DistanceKernel<2>>::eval_host(&pe, &a, &b);
                assert!(d <= 5.0 * 2f32.sqrt() + 1e-4, "{a:?} {b:?} -> {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn periodic_rejects_zero_box() {
        PeriodicEuclidean::new(0.0);
    }

    #[test]
    fn lanes_from_host_packs_coordinates() {
        let pts = vec![[1.0, 10.0], [2.0, 20.0]];
        let l = lanes_from_host(&pts);
        assert_eq!(l[0][0], 1.0);
        assert_eq!(l[1][1], 20.0);
        assert_eq!(l[0][5], 0.0);
    }
}
