//! The read-only data cache (ROC) path.
//!
//! In CUDA this is the cache reached through `const __restrict__`
//! pointers or `__ldg()` (paper §IV-A: "read-only data cache, also named
//! texture memory... not fully programmable"). It is a small per-SM cache
//! in front of L2 with its own (higher-than-shared) latency.
//!
//! The simulator gives each *block* its own `RocCache` instance. That is a
//! conservative approximation of per-SM sharing: blocks scheduled on the
//! same SM would share it, so our miss counts are an upper bound — the
//! differences are compulsory misses only, which both the analytic model
//! and the functional engine count identically.
//!
//! Like [`super::l2::L2Cache`], the default body is the open-addressed
//! [`FifoSet`]; the legacy map+deque is retained as the scalar reference.

use std::collections::{HashMap, VecDeque};

use super::fifo::FifoSet;

#[derive(Debug)]
enum Body {
    Fast(FifoSet),
    Reference {
        resident: HashMap<u64, ()>,
        fifo: VecDeque<u64>,
        capacity_sectors: usize,
    },
}

/// FIFO sector cache modeling one SM's read-only data cache.
#[derive(Debug)]
pub struct RocCache {
    body: Body,
    hits: u64,
    misses: u64,
}

impl RocCache {
    pub fn new(capacity_sectors: usize) -> Self {
        RocCache {
            body: Body::Fast(FifoSet::new(capacity_sectors)),
            hits: 0,
            misses: 0,
        }
    }

    /// Legacy map+deque body with identical hit/miss decisions; see
    /// `DeviceConfig::with_scalar_reference`.
    pub fn new_reference(capacity_sectors: usize) -> Self {
        RocCache {
            body: Body::Reference {
                resident: HashMap::new(),
                fifo: VecDeque::new(),
                capacity_sectors: capacity_sectors.max(1),
            },
            hits: 0,
            misses: 0,
        }
    }

    /// Access one sector; `true` on hit, inserting on miss.
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
                    while let Some(old) = fifo.pop_front() {
                        if resident.remove(&old).is_some() {
                            break;
                        }
                    }
                }
                resident.insert(sector, ());
                fifo.push_back(sector);
                false
            }
        }
    }

    /// The eviction generation of the fast body (see
    /// [`FifoSet::generation`]): `None` for the reference body. While the
    /// generation is unchanged, residency is monotone — a sector observed
    /// resident stays resident — which is what lets the compiled tile pass
    /// replay whole arithmetic sector runs as hits.
    pub fn generation(&self) -> Option<u64> {
        match &self.body {
            Body::Fast(set) => Some(set.generation()),
            Body::Reference { .. } => None,
        }
    }

    /// Credit `n` further touches of sectors proven resident at the
    /// current eviction generation (see [`RocCache::generation`]) as
    /// hits. A FIFO hit mutates nothing but the hit counter, so crediting
    /// the hits without per-sector probes is bit-exact for every future
    /// decision.
    pub fn credit_replayed_hits(&mut self, n: u64) {
        self.hits += n;
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_fits_and_is_reused() {
        // A 1024-element f32 tile = 4 KB = 128 sectors, well within the
        // 24 KB (768-sector) Maxwell ROC: after the fill, every re-access
        // hits. This is exactly the reuse pattern of the Register-ROC
        // kernel's R tile.
        let mut roc = RocCache::new(768);
        for s in 0..128u64 {
            assert!(!roc.access(s));
        }
        for _round in 0..10 {
            for s in 0..128u64 {
                assert!(roc.access(s));
            }
        }
        assert_eq!(roc.misses(), 128);
        assert_eq!(roc.hits(), 1280);
    }

    #[test]
    fn capacity_overflow_evicts() {
        let mut roc = RocCache::new(4);
        for s in 0..5u64 {
            roc.access(s);
        }
        assert!(!roc.access(0), "oldest sector evicted");
    }

    #[test]
    fn bulk_credit_matches_per_sector_replay() {
        // The compiled tile pass probes a sector run's first round for real,
        // then — if the eviction generation is unchanged — credits the
        // remaining rounds in bulk. Drive both protocols over the same
        // element stream and require identical hit/miss totals.
        let mut bulk = RocCache::new(768);
        let mut per = RocCache::new(768);
        for _round in 0..4 {
            let mut e = 0u64;
            while e < 1024 {
                let s = e / 8;
                let run = (8 - e % 8).min(1024 - e);
                // Per-sector protocol: every element touch probes.
                for _ in 0..run {
                    per.access(s);
                }
                // Bulk protocol: one real probe, then a generation check.
                let gen0 = bulk.generation();
                bulk.access(s);
                assert_eq!(bulk.generation(), gen0, "no eviction at this size");
                bulk.credit_replayed_hits(run - 1);
                e += run;
            }
        }
        assert_eq!(bulk.hits(), per.hits());
        assert_eq!(bulk.misses(), per.misses());
    }

    #[test]
    fn fast_and_reference_bodies_agree() {
        let mut fast = RocCache::new(8);
        let mut refr = RocCache::new_reference(8);
        let mut x = 0xdeadu64;
        for _ in 0..3_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let sector = x % 24;
            assert_eq!(fast.access(sector), refr.access(sector));
        }
        assert_eq!(fast.hits(), refr.hits());
        assert_eq!(fast.misses(), refr.misses());
    }
}
