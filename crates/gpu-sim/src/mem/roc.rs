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

/// A sector observed resident at `generation` — replayable as a hit
/// while the eviction generation is unchanged (see `mem/fifo.rs`).
#[derive(Debug, Clone, Copy)]
struct SectorMemo {
    sector: u64,
    generation: u64,
}

/// Direct-mapped memo size. Tile loops walk sectors slowly (8 `f32`
/// elements per 32-byte sector), so even a few slots catch the re-reads.
const MEMO_SLOTS: usize = 8;

/// FIFO sector cache modeling one SM's read-only data cache.
#[derive(Debug)]
pub struct RocCache {
    body: Body,
    hits: u64,
    misses: u64,
    /// Generation-stamped hit memoization (None = disabled).
    memo: Option<Box<[Option<SectorMemo>; MEMO_SLOTS]>>,
    /// Hits replayed from the memo without a table probe.
    memo_replayed: u64,
    /// Accesses that took a real table probe while the memo was enabled.
    memo_probed: u64,
}

impl RocCache {
    pub fn new(capacity_sectors: usize) -> Self {
        RocCache {
            body: Body::Fast(FifoSet::new(capacity_sectors)),
            hits: 0,
            misses: 0,
            memo: None,
            memo_replayed: 0,
            memo_probed: 0,
        }
    }

    /// Like [`RocCache::new`] with generation-stamped hit memoization:
    /// a sector whose residency was observed at the current eviction
    /// generation replays as a hit through [`RocCache::try_replay_hit`]
    /// without probing the FIFO table. Hit/miss decisions and counters
    /// are identical to the unmemoized cache (a FIFO hit mutates
    /// nothing, and residency within one generation is monotone).
    pub fn new_memoized(capacity_sectors: usize) -> Self {
        let mut c = Self::new(capacity_sectors);
        c.memo = Some(Box::new([None; MEMO_SLOTS]));
        c
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
            memo: None,
            memo_replayed: 0,
            memo_probed: 0,
        }
    }

    /// Replay `sector` as a hit if the memo proves it resident at the
    /// current eviction generation; returns `false` (taking no action)
    /// when the caller must fall back to a real [`RocCache::access`].
    /// Only a hit can be replayed, and a FIFO hit mutates nothing but
    /// the hit counter, so the replay is bit-exact.
    #[inline]
    pub fn try_replay_hit(&mut self, sector: u64) -> bool {
        let (Some(memo), Body::Fast(set)) = (self.memo.as_deref(), &self.body) else {
            return false;
        };
        match memo[sector as usize % MEMO_SLOTS] {
            Some(m) if m.sector == sector && m.generation == set.generation() => {
                self.hits += 1;
                self.memo_replayed += 1;
                true
            }
            _ => false,
        }
    }

    /// Access one sector; `true` on hit, inserting on miss.
    #[inline]
    pub fn access(&mut self, sector: u64) -> bool {
        match &mut self.body {
            Body::Fast(set) => {
                let hit = if set.contains(sector) {
                    self.hits += 1;
                    true
                } else {
                    self.misses += 1;
                    if set.is_full() {
                        set.pop_oldest();
                    }
                    set.insert_new(sector);
                    false
                };
                // Either way the sector is resident *now*, at the
                // post-access generation — record that observation.
                if let Some(memo) = self.memo.as_deref_mut() {
                    self.memo_probed += 1;
                    memo[sector as usize % MEMO_SLOTS] = Some(SectorMemo {
                        sector,
                        generation: set.generation(),
                    });
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
    /// current eviction generation — the bulk form of
    /// [`RocCache::try_replay_hit`] for an arithmetic sector run. A FIFO
    /// hit mutates nothing but the hit counter, so crediting the hits
    /// without per-sector probes is bit-exact for every future decision.
    pub fn credit_replayed_hits(&mut self, n: u64) {
        self.hits += n;
        self.memo_replayed += n;
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hits replayed from the generation-stamped memo.
    pub fn memo_replayed(&self) -> u64 {
        self.memo_replayed
    }

    /// Real table probes taken while the memo was enabled.
    pub fn memo_probed(&self) -> u64 {
        self.memo_probed
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
    fn memoized_replay_matches_plain_access_stream() {
        // Drive a memoized cache (try_replay first, as the interpreter
        // does) and a plain one through the same stream: hit/miss totals
        // must agree, and the broadcast reuse pattern must mostly replay.
        // The stream walks f32 *elements* the way a broadcast tile loop
        // does — 8 consecutive touches of each 32-byte sector.
        let mut memo = RocCache::new_memoized(768);
        let mut plain = RocCache::new(768);
        let drive = |c: &mut RocCache, s: u64| -> bool {
            if c.try_replay_hit(s) {
                true
            } else {
                c.access(s)
            }
        };
        for _round in 0..4 {
            for e in 0..1024u64 {
                let s = e / 8;
                assert_eq!(drive(&mut memo, s), drive(&mut plain, s));
            }
        }
        assert_eq!(memo.hits(), plain.hits());
        assert_eq!(memo.misses(), plain.misses());
        assert!(memo.memo_replayed() > 0, "steady-state reuse must replay");
    }

    #[test]
    fn memoized_replay_never_outlives_eviction() {
        // Capacity 4 with a 6-sector loop: constant eviction. The memo
        // must invalidate on every generation bump; decisions stay
        // identical to the unmemoized cache.
        let mut memo = RocCache::new_memoized(4);
        let mut plain = RocCache::new(4);
        let mut x = 0x77u64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let s = x % 6;
            let m = if memo.try_replay_hit(s) {
                true
            } else {
                memo.access(s)
            };
            assert_eq!(m, plain.access(s), "sector {s}");
        }
        assert_eq!(memo.hits(), plain.hits());
        assert_eq!(memo.misses(), plain.misses());
    }

    #[test]
    fn bulk_credit_matches_per_sector_replay() {
        // The compiled tile pass probes a sector run's first round for real,
        // then — if the eviction generation is unchanged — credits the
        // remaining rounds in bulk. Drive both protocols over the same
        // element stream and require identical hit/miss totals.
        let mut bulk = RocCache::new_memoized(768);
        let mut per = RocCache::new_memoized(768);
        for _round in 0..4 {
            let mut e = 0u64;
            while e < 1024 {
                let s = e / 8;
                let run = (8 - e % 8).min(1024 - e);
                // Per-sector protocol: every element touch probes.
                for _ in 0..run {
                    if !per.try_replay_hit(s) {
                        per.access(s);
                    }
                }
                // Bulk protocol: one real probe, then a generation check.
                let gen0 = bulk.generation();
                if !bulk.try_replay_hit(s) {
                    bulk.access(s);
                }
                assert_eq!(bulk.generation(), gen0, "no eviction at this size");
                bulk.credit_replayed_hits(run - 1);
                e += run;
            }
        }
        assert_eq!(bulk.hits(), per.hits());
        assert_eq!(bulk.misses(), per.misses());
        assert!(bulk.memo_replayed() > 0);
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
