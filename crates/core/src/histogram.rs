//! Histogram specification and host-side histogram type (the SDH/RDF
//! output structure — the paper's Type-II output).

use gpu_sim::{F32x32, Mask, U32x32, WarpCtx};

/// Specification of a distance histogram: `buckets` equal-width buckets
/// covering `[0, max_distance)`; distances beyond the range clamp into
/// the last bucket (matching the usual SDH convention where
/// `max_distance` is the domain diagonal, so nothing actually clamps).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSpec {
    /// Number of buckets (the paper's histogram size `Hs`).
    pub buckets: u32,
    /// Upper edge of the histogram range.
    pub max_distance: f32,
}

impl HistogramSpec {
    pub fn new(buckets: u32, max_distance: f32) -> Self {
        assert!(buckets > 0, "histogram needs at least one bucket");
        assert!(max_distance > 0.0, "histogram range must be positive");
        HistogramSpec {
            buckets,
            max_distance,
        }
    }

    /// Bucket width `w = max_distance / buckets`.
    pub fn bucket_width(&self) -> f32 {
        self.max_distance / self.buckets as f32
    }

    /// Reciprocal width, the constant the kernels multiply by.
    pub fn inv_width(&self) -> f32 {
        self.buckets as f32 / self.max_distance
    }

    /// Host-side bucket index for a distance.
    ///
    /// Requires a finite, non-negative distance: a NaN or negative input
    /// is a bug in the caller's distance function, not a valid
    /// observation, so debug builds reject it instead of silently binning
    /// it into bucket 0 (Rust's saturating `as u32` cast sends NaN and
    /// negatives to 0, which corrupts the histogram undetectably).
    /// `+inf` is fine — it clamps into the last bucket like any
    /// beyond-range distance.
    pub fn bucket_of(&self, d: f32) -> u32 {
        debug_assert!(
            !d.is_nan(),
            "bucket_of(NaN): distance function produced NaN"
        );
        debug_assert!(d >= 0.0, "bucket_of({d}): distances must be non-negative");
        ((d * self.inv_width()) as u32).min(self.buckets - 1)
    }

    /// Device-side bucket computation: multiply by the reciprocal width,
    /// truncate, clamp. Charges exactly 2 ALU warp instructions
    /// (`FMUL` + `F2I`-with-clamp), the cost the analytic model mirrors.
    ///
    /// Matches CUDA `__float2uint_rz` semantics for exceptional inputs:
    /// NaN and negative lanes convert to 0 (bucket 0). That is the
    /// documented device-path convention — the host-side
    /// [`bucket_of`](HistogramSpec::bucket_of)
    /// additionally debug-asserts finiteness because on the host such
    /// inputs indicate a broken distance function rather than hardware
    /// saturation behavior.
    pub fn bucket_lanes(&self, w: &mut WarpCtx<'_, '_>, d: &F32x32, mask: Mask) -> U32x32 {
        w.charge_alu(2, mask);
        let out = self.bucket_lanes_all(d);
        std::array::from_fn(|i| if mask.lane(i) { out[i] } else { 0 })
    }

    /// All 32 lanes' bucket indices in one flat vectorizable pass — no
    /// mask, no warp context, no charge. Per lane the result is exactly
    /// [`bucket_lanes`](HistogramSpec::bucket_lanes)'s active-lane value
    /// (`FMUL` then saturating truncation, then clamp); callers apply
    /// their own predicate. This is the bucketing the compiled histogram
    /// sink reproduces.
    pub fn bucket_lanes_all(&self, d: &F32x32) -> U32x32 {
        let inv = self.inv_width();
        let hmax = self.buckets - 1;
        let mut out = [0u32; 32];
        for (o, &v) in out.iter_mut().zip(d.iter()) {
            *o = ((v * inv) as u32).min(hmax);
        }
        out
    }

    /// Bytes one private `u32` copy of this histogram occupies in shared
    /// memory.
    pub fn shared_bytes(&self) -> u32 {
        self.buckets * 4
    }
}

/// A host-side distance histogram with `u64` counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
}

impl Histogram {
    /// A zeroed histogram with `buckets` buckets.
    pub fn zeroed(buckets: u32) -> Self {
        Histogram {
            counts: vec![0; buckets as usize],
        }
    }

    /// Wrap existing counts.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        Histogram { counts }
    }

    /// The bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Add one observation to bucket `b`.
    pub fn add(&mut self, b: u32) {
        self.counts[b as usize] += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, o: &Histogram) {
        assert_eq!(self.counts.len(), o.counts.len(), "histogram sizes differ");
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_edges() {
        let spec = HistogramSpec::new(10, 10.0);
        assert_eq!(spec.bucket_of(0.0), 0);
        assert_eq!(spec.bucket_of(0.999), 0);
        assert_eq!(spec.bucket_of(1.0), 1);
        assert_eq!(spec.bucket_of(9.99), 9);
        // Clamping at and beyond the range.
        assert_eq!(spec.bucket_of(10.0), 9);
        assert_eq!(spec.bucket_of(1e9), 9);
        // +inf is just "beyond the range": last bucket, like CUDA's
        // saturating float-to-uint conversion.
        assert_eq!(spec.bucket_of(f32::INFINITY), 9);
        // Denormals and true zero land in bucket 0.
        assert_eq!(spec.bucket_of(f32::MIN_POSITIVE), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "produced NaN")]
    fn bucket_of_rejects_nan_in_debug_builds() {
        HistogramSpec::new(10, 10.0).bucket_of(f32::NAN);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-negative")]
    fn bucket_of_rejects_negative_in_debug_builds() {
        HistogramSpec::new(10, 10.0).bucket_of(-1.0);
    }

    #[test]
    fn device_lane_convention_sends_nan_to_bucket_zero() {
        // The device path mirrors CUDA `__float2uint_rz`: NaN and
        // negative lanes saturate to 0. Exercised through a real warp
        // context by the `nan_lanes_follow_device_convention` test in
        // the simulator-backed integration suite; here we pin the scalar
        // rule the lanes implement.
        let spec = HistogramSpec::new(10, 10.0);
        assert_eq!((f32::NAN * spec.inv_width()) as u32, 0);
        assert_eq!((-3.0f32 * spec.inv_width()) as u32, 0);
    }

    #[test]
    fn widths_are_consistent() {
        let spec = HistogramSpec::new(250, 173.2);
        assert!((spec.bucket_width() * spec.buckets as f32 - spec.max_distance).abs() < 1e-3);
        assert!((spec.inv_width() - 1.0 / spec.bucket_width()).abs() < 1e-6);
        assert_eq!(spec.shared_bytes(), 1000);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        HistogramSpec::new(0, 1.0);
    }

    #[test]
    fn histogram_accumulates_and_merges() {
        let mut h = Histogram::zeroed(4);
        h.add(0);
        h.add(3);
        h.add(3);
        assert_eq!(h.total(), 3);
        let mut g = Histogram::zeroed(4);
        g.add(1);
        g.merge(&h);
        assert_eq!(g.counts(), &[1, 1, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "sizes differ")]
    fn merge_rejects_mismatched_sizes() {
        Histogram::zeroed(3).merge(&Histogram::zeroed(4));
    }
}
