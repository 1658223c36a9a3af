//! A functional, device-wide L2 cache model.
//!
//! The L2 is shared by all SMs (paper §III-A). We model it as a
//! fully-associative FIFO over 32-byte sectors — coarse, but enough to
//! capture the two regimes that matter for 2-BS kernels: the working set
//! fits (the naive kernel becomes L2-bound, paper Table II) or it streams
//! (DRAM-bound).
//!
//! Two interchangeable bodies make identical hit/miss decisions: the
//! default [`FifoSet`]-backed one (flat arrays, no steady-state
//! allocation) and the original `HashMap + VecDeque` kept as the scalar
//! reference for differential tests and before/after measurement
//! (`DeviceConfig::with_scalar_reference`).

use std::collections::{HashMap, VecDeque};

use super::fifo::FifoSet;

#[derive(Debug)]
enum Body {
    /// Open-addressed table + intrusive FIFO ring.
    Fast(FifoSet),
    /// The pre-optimization implementation, byte-for-byte.
    Reference {
        /// sector id -> generation marker (presence implies residency).
        resident: HashMap<u64, u64>,
        fifo: VecDeque<u64>,
        capacity_sectors: usize,
    },
}

/// FIFO sector cache keyed by flat device byte address / sector size.
#[derive(Debug)]
pub struct L2Cache {
    body: Body,
    hits: u64,
    misses: u64,
}

impl L2Cache {
    /// Create an empty cache holding `capacity_sectors` sectors.
    pub fn new(capacity_sectors: usize) -> Self {
        L2Cache {
            body: Body::Fast(FifoSet::new(capacity_sectors)),
            hits: 0,
            misses: 0,
        }
    }

    /// Create the cache with the legacy map+deque body. Hit/miss
    /// decisions are identical to [`L2Cache::new`]; this exists so the
    /// hotpath baseline and differential tests can run the seed
    /// algorithm in the same binary.
    pub fn new_reference(capacity_sectors: usize) -> Self {
        L2Cache {
            body: Body::Reference {
                resident: HashMap::with_capacity(capacity_sectors.min(1 << 20)),
                fifo: VecDeque::with_capacity(capacity_sectors.min(1 << 20)),
                capacity_sectors: capacity_sectors.max(1),
            },
            hits: 0,
            misses: 0,
        }
    }

    /// Access one sector; returns `true` on hit. A miss inserts the sector,
    /// evicting FIFO-oldest if full.
    #[inline]
    pub fn access(&mut self, sector: u64) -> bool {
        match &mut self.body {
            Body::Fast(set) => {
                let hit = set.touch(sector);
                if hit {
                    self.hits += 1;
                } else {
                    self.misses += 1;
                }
                hit
            }
            Body::Reference {
                resident,
                fifo,
                capacity_sectors,
            } => {
                if resident.contains_key(&sector) {
                    self.hits += 1;
                    return true;
                }
                self.misses += 1;
                if resident.len() >= *capacity_sectors {
                    // Evict until a slot frees up. Entries may be stale if the
                    // sector was re-inserted; the generation check skips those.
                    while let Some(old) = fifo.pop_front() {
                        if resident.remove(&old).is_some() {
                            break;
                        }
                    }
                }
                resident.insert(sector, 0);
                fifo.push_back(sector);
                false
            }
        }
    }

    /// Access the contiguous ascending sector run `[base, base+count)`;
    /// returns the number of hits. Equivalent to `count` calls to
    /// [`L2Cache::access`] in ascending order.
    pub fn access_run(&mut self, base: u64, count: u32) -> u64 {
        let sectors = base..base + count as u64;
        let Body::Fast(set) = &mut self.body else {
            return sectors.filter(|&s| self.access(s)).count() as u64;
        };
        let hits = sectors.filter(|&s| set.touch(s)).count() as u64;
        self.hits += hits;
        self.misses += count as u64 - hits;
        hits
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of accesses that hit, or 0 when never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss() {
        let mut l2 = L2Cache::new(16);
        assert!(!l2.access(5));
        assert!(l2.access(5));
        assert_eq!(l2.misses(), 1);
        assert_eq!(l2.hits(), 1);
        assert!((l2.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fifo_eviction_when_full() {
        let mut l2 = L2Cache::new(2);
        l2.access(1);
        l2.access(2);
        l2.access(3); // evicts 1
        assert!(!l2.access(1), "1 must have been evicted");
        assert!(l2.access(3), "3 must still be resident");
    }

    #[test]
    fn streaming_larger_than_capacity_never_hits() {
        let mut l2 = L2Cache::new(8);
        for pass in 0..2 {
            for s in 0..100u64 {
                let hit = l2.access(s);
                assert!(!hit, "pass {pass} sector {s} unexpectedly hit");
            }
        }
    }

    #[test]
    fn working_set_within_capacity_always_hits_after_warmup() {
        let mut l2 = L2Cache::new(64);
        for s in 0..32u64 {
            l2.access(s);
        }
        for s in 0..32u64 {
            assert!(l2.access(s));
        }
    }

    #[test]
    fn fast_and_reference_bodies_agree() {
        // A sawtooth with re-touches and sector runs exercises hit, cold
        // miss, and capacity-eviction paths in both bodies.
        for cap in [1usize, 2, 7, 64] {
            let mut fast = L2Cache::new(cap);
            let mut refr = L2Cache::new_reference(cap);
            let mut x = 0x9e37u64;
            for _ in 0..5_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let sector = x % 96;
                assert_eq!(fast.access(sector), refr.access(sector), "cap {cap}");
                // Sector runs take the fast body's own loop.
                let (base, count) = (x % 96, (x >> 8) as u32 % 40);
                assert_eq!(
                    fast.access_run(base, count),
                    refr.access_run(base, count),
                    "cap {cap} run {base}+{count}"
                );
            }
            assert_eq!(fast.hits(), refr.hits());
            assert_eq!(fast.misses(), refr.misses());
        }
    }
}
