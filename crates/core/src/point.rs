//! Input data layout.
//!
//! The paper's first implementation decision (§IV-A): *"the input data is
//! stored in the form of multiple arrays of single-dimension values
//! instead of using an array of structures... This will ensure coalesced
//! memory access."* [`SoaPoints`] is that structure-of-arrays layout, and
//! [`DeviceSoa`] is its uploaded, device-resident form.

use gpu_sim::{BufF32, Device};

/// An `N × D` point set in structure-of-arrays layout: one contiguous
/// array per coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct SoaPoints<const D: usize> {
    coords: [Vec<f32>; D],
}

impl<const D: usize> SoaPoints<D> {
    /// Create an empty point set.
    pub fn new() -> Self {
        SoaPoints {
            coords: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// Create with capacity for `n` points.
    pub fn with_capacity(n: usize) -> Self {
        SoaPoints {
            coords: std::array::from_fn(|_| Vec::with_capacity(n)),
        }
    }

    /// Build from a list of points.
    pub fn from_points(pts: &[[f32; D]]) -> Self {
        let mut s = Self::with_capacity(pts.len());
        for p in pts {
            s.push(*p);
        }
        s
    }

    /// Append one point.
    pub fn push(&mut self, p: [f32; D]) {
        for (d, &c) in p.iter().enumerate() {
            self.coords[d].push(c);
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.coords[0].len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `d`-th coordinate array.
    pub fn coord(&self, d: usize) -> &[f32] {
        &self.coords[d]
    }

    /// Point `i` as an array.
    pub fn point(&self, i: usize) -> [f32; D] {
        std::array::from_fn(|d| self.coords[d][i])
    }

    /// Iterate points as arrays.
    pub fn iter(&self) -> impl Iterator<Item = [f32; D]> + '_ {
        (0..self.len()).map(move |i| self.point(i))
    }

    /// Extract a contiguous sub-range of points (used by the multi-GPU
    /// decomposition to form per-device chunks).
    pub fn slice(&self, range: std::ops::Range<usize>) -> SoaPoints<D> {
        SoaPoints {
            coords: std::array::from_fn(|d| self.coords[d][range.clone()].to_vec()),
        }
    }

    /// Upload to a device (one buffer per coordinate — the coalesced
    /// layout of §IV-A).
    pub fn upload(&self, dev: &mut Device) -> DeviceSoa<D> {
        DeviceSoa {
            coords: std::array::from_fn(|d| dev.alloc_f32(self.coords[d].clone())),
            n: self.len() as u32,
        }
    }
}

impl<const D: usize> Default for SoaPoints<D> {
    fn default() -> Self {
        Self::new()
    }
}

/// Device-resident structure-of-arrays point set: `D` coordinate buffers
/// plus the point count. `Copy`, so kernels capture it by value the way
/// CUDA kernels capture device pointers.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSoa<const D: usize> {
    /// One global buffer per coordinate.
    pub coords: [BufF32; D],
    /// Number of points.
    pub n: u32,
}

impl<const D: usize> DeviceSoa<D> {
    /// Free the coordinate buffers. Refused with
    /// [`gpu_sim::SimError::FreedBuffer`] if they were already freed.
    pub fn free(self, dev: &mut Device) -> Result<(), gpu_sim::SimError> {
        self.coords.into_iter().try_for_each(|b| dev.free(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;

    #[test]
    fn soa_roundtrip() {
        let pts = vec![[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]];
        let s = SoaPoints::<3>::from_points(&pts);
        assert_eq!(s.len(), 2);
        assert_eq!(s.point(1), [4.0, 5.0, 6.0]);
        assert_eq!(s.coord(2), &[3.0, 6.0]);
        let collected: Vec<_> = s.iter().collect();
        assert_eq!(collected, pts);
    }

    #[test]
    fn upload_produces_per_dimension_buffers() {
        let s = SoaPoints::<2>::from_points(&[[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]);
        let mut dev = Device::new(DeviceConfig::titan_x());
        let d = s.upload(&mut dev);
        assert_eq!(d.n, 3);
        assert_eq!(dev.f32_slice(d.coords[0]), &[1.0, 2.0, 3.0]);
        assert_eq!(dev.f32_slice(d.coords[1]), &[10.0, 20.0, 30.0]);
    }

    #[test]
    fn empty_and_push() {
        let mut s = SoaPoints::<1>::new();
        assert!(s.is_empty());
        s.push([7.0]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.point(0), [7.0]);
    }
}
