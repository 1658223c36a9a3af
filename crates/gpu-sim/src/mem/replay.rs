//! Deterministic-replay machinery for the parallel block engine.
//!
//! The parallel engine executes blocks *speculatively* against an immutable
//! snapshot of global memory and records, per block:
//!
//! * a [`WriteOp`] log — every global-memory mutation in program order;
//! * a [`SectorTrace`] — every L2-bound sector touch in program order,
//!   run-length-compressed (warp accesses are overwhelmingly unit-stride
//!   or broadcast);
//! * [`BufSet`]s of the buffers the block read and wrote.
//!
//! At commit time the engine walks blocks in grid order: conflict-free
//! blocks have their trace replayed through the single device-wide
//! [`crate::mem::L2Cache`] (producing the exact hit/miss split the
//! sequential engine would have measured) and their write log applied to
//! global memory. This is what makes parallel execution bit-identical to
//! sequential execution — see `exec::engine`.

use crate::mem::L2Cache;
use crate::tally::AccessTally;

/// One logged global-memory mutation (4-byte-aligned payloads keep the
/// log at 16 bytes per op). `buf` is the buffer's handle slot, checked
/// live when the op was logged; nothing is freed during a launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum WriteOp {
    StoreF32 {
        buf: u32,
        idx: u32,
        val: f32,
    },
    StoreU32 {
        buf: u32,
        idx: u32,
        val: u32,
    },
    StoreU64 {
        buf: u32,
        idx: u32,
        val: u64,
    },
    /// `wrapping_add` delta from a `u64` atomic (commutative, so deltas
    /// applied in block order reproduce the sequential result exactly).
    AddU64 {
        buf: u32,
        idx: u32,
        val: u64,
    },
}

/// Program-order trace of L2-bound sector accesses, compressed as runs of
/// `(base, count, step)` with `step ∈ {0, 1}` sectors.
#[derive(Debug, Default, Clone)]
pub(crate) struct SectorTrace {
    runs: Vec<(u64, u32, u8)>,
}

impl SectorTrace {
    /// Append one sector access, extending the last run when possible.
    pub(crate) fn push(&mut self, sector: u64) {
        if let Some((base, count, step)) = self.runs.last_mut() {
            if *count == 1 && (sector == *base || sector == *base + 1) {
                *step = (sector - *base) as u8;
                *count = 2;
                return;
            }
            if *count > 1 && sector == *base + *count as u64 * *step as u64 {
                *count += 1;
                return;
            }
        }
        self.runs.push((sector, 1, 0));
    }

    /// Append `count` consecutive sectors starting at `base` — the shape
    /// the coalesced fast path produces. Identical to pushing each sector
    /// (a warp access spans at most 8 sectors, so the loop is tiny; the
    /// saving is upstream, in not materializing per-lane addresses).
    pub(crate) fn push_run(&mut self, base: u64, count: u32) {
        for k in 0..count as u64 {
            self.push(base + k);
        }
    }

    /// Replay the trace through the device-wide L2, crediting hit/miss
    /// sectors to `tally` exactly as the sequential engine would.
    /// Unit-stride runs go through [`L2Cache::access_run`], as in direct
    /// execution.
    pub(crate) fn replay(&self, l2: &mut L2Cache, tally: &mut AccessTally) {
        for &(base, count, step) in &self.runs {
            if step == 1 {
                let hits = l2.access_run(base, count);
                tally.l2_hit_sectors += hits;
                tally.dram_sectors += count as u64 - hits;
            } else {
                // Broadcast run: `count` touches of one sector.
                for _ in 0..count {
                    if l2.access(base) {
                        tally.l2_hit_sectors += 1;
                    } else {
                        tally.dram_sectors += 1;
                    }
                }
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn num_runs(&self) -> usize {
        self.runs.len()
    }
}

/// A set of global-buffer ids, used for read/write conflict detection
/// between speculatively-executed blocks. Buffer ids are small dense
/// integers, so a growable bitset beats hashing.
#[derive(Debug, Default, Clone)]
pub(crate) struct BufSet {
    words: Vec<u64>,
}

impl BufSet {
    pub(crate) fn insert(&mut self, id: u32) {
        let w = id as usize / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (id % 64);
    }

    pub(crate) fn contains(&self, id: u32) -> bool {
        self.words
            .get(id as usize / 64)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    pub(crate) fn intersects(&self, other: &BufSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    pub(crate) fn union_with(&mut self, other: &BufSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_compresses_unit_stride_and_broadcast_runs() {
        let mut t = SectorTrace::default();
        for s in [10, 11, 12, 13] {
            t.push(s); // unit-stride run
        }
        for _ in 0..8 {
            t.push(40); // broadcast run
        }
        t.push(7); // singleton
        assert_eq!(t.num_runs(), 3);

        let mut l2 = L2Cache::new(1024);
        let mut tally = AccessTally::new();
        t.replay(&mut l2, &mut tally);
        // 6 distinct cold sectors; the 7 repeat touches of sector 40 hit.
        assert_eq!(tally.dram_sectors, 6);
        assert_eq!(tally.l2_hit_sectors, 7);
    }

    #[test]
    fn trace_replay_preserves_program_order() {
        // Same sector stream through replay and through direct access must
        // produce the same hit/miss sequence even with evictions.
        let stream: Vec<u64> = (0..10).chain(0..10).chain([3, 99, 3]).collect();
        let mut t = SectorTrace::default();
        let mut direct_l2 = L2Cache::new(4); // tiny: forces FIFO evictions
        let mut direct = AccessTally::new();
        for &s in &stream {
            t.push(s);
            if direct_l2.access(s) {
                direct.l2_hit_sectors += 1;
            } else {
                direct.dram_sectors += 1;
            }
        }
        let mut replay_l2 = L2Cache::new(4);
        let mut replayed = AccessTally::new();
        t.replay(&mut replay_l2, &mut replayed);
        assert_eq!(replayed.l2_hit_sectors, direct.l2_hit_sectors);
        assert_eq!(replayed.dram_sectors, direct.dram_sectors);
    }

    #[test]
    fn bufset_insert_contains_intersect() {
        let mut a = BufSet::default();
        a.insert(3);
        a.insert(130);
        assert!(a.contains(3) && a.contains(130) && !a.contains(4));
        let mut b = BufSet::default();
        b.insert(4);
        assert!(!a.intersects(&b));
        b.insert(130);
        assert!(a.intersects(&b));
        let mut c = BufSet::default();
        c.union_with(&a);
        assert!(c.contains(3) && c.contains(130));
    }
}
