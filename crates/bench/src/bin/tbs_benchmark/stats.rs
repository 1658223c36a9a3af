//! Determinism and statistics helpers shared by every workload: the
//! seeded generator, the one percentile rule, and host facts.

/// SplitMix64 (Steele, Lea & Flood): a 64-bit generator with a single
/// word of state. `rand` is only a dev-dependency of the bench crate, and
/// the op mix must be reproducible from `--seed` alone.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for `(seed, tag)`: the tag is mixed through
    /// one generator step so nearby tags give unrelated streams.
    pub fn stream(seed: u64, tag: u64) -> Self {
        SplitMix64(SplitMix64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2⁻⁵⁸ for
    /// the small `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)` with 24 bits, exact in `f32`.
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// The `q`-quantile of `samples` by the nearest-rank rule: sort, then
/// take index `ceil(q·n) − 1`. `q = 0.5` is the (lower) median. Panics on
/// an empty slice or a `q` outside `(0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q)]
}

/// Number of samples that lie beyond the `q`-quantile of `n` samples.
/// A percentile is reported only when at least [`MIN_BEYOND`] do.
pub fn beyond(n: usize, q: f64) -> usize {
    n - 1 - rank(n, q)
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Logical CPUs of this host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM` of `/proc/self/status`) in MiB, or `None`
/// where procfs is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_the_nearest_rank() {
        let xs: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 5.0);
        assert_eq!(percentile(&xs, 0.9), 9.0);
        assert_eq!(percentile(&xs, 0.91), 10.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        // 1200 samples: p99 is the 1188th smallest, 12 lie beyond it.
        let big: Vec<f64> = (0..1200).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), 1187.0);
        assert_eq!(beyond(1200, 0.99), 12);
        assert!(beyond(1200, 0.99) >= MIN_BEYOND);
        assert!(beyond(1000, 0.995) < MIN_BEYOND);
    }

    #[test]
    fn splitmix_streams_are_reproducible_and_distinct() {
        let draw = |seed, tag| {
            let mut s = SplitMix64::stream(seed, tag);
            [s.next_u64(), s.next_u64(), s.below(10)]
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        assert_ne!(draw(1, 0), draw(2, 0));
        let mut s = SplitMix64::stream(9, 0);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&s.unit_f32())));
    }
}
