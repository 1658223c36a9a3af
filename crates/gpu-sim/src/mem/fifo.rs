//! Open-addressed FIFO set: the allocation-free engine behind the
//! sector caches.
//!
//! [`FifoSet`] stores up to `capacity` distinct `u64` keys and can
//! report membership, append at the tail, and evict the oldest key —
//! exactly the operations a fully-associative FIFO cache needs. The
//! membership test is an open-addressed table (linear probing,
//! Fibonacci hashing) and arrival order is a fixed-size ring buffer, so
//! a steady-state access performs no heap allocation and touches two
//! small flat arrays instead of a `HashMap` plus `VecDeque`.
//!
//! Hit/miss decisions are a function of the key sequence alone and are
//! identical to the map+deque implementation they replace; the
//! differential proptests in `tests/differential.rs` pin that down.

/// Sentinel for an empty table slot. Sector keys are byte addresses
/// divided by the sector size, so `u64::MAX` is unreachable in practice;
/// inserts debug-assert it anyway.
const EMPTY: u64 = u64::MAX;

/// A set of `u64` keys with FIFO arrival order and O(1) expected-time
/// membership, insert, and evict-oldest.
#[derive(Debug)]
pub struct FifoSet {
    /// Open-addressed slots holding keys (or [`EMPTY`]); power-of-two
    /// length ≥ 2× capacity so load factor stays ≤ 0.5.
    table: Vec<u64>,
    /// `table.len() - 1`, for masking hashes into slot indices.
    slot_mask: usize,
    /// Arrival-order ring of the resident keys.
    ring: Vec<u64>,
    /// Index of the oldest key in `ring`.
    head: usize,
    /// Number of resident keys.
    len: usize,
    /// Eviction generation: bumped every time a key leaves the set.
    /// Residency is monotone within one generation (inserts only add
    /// keys): a key observed resident at generation `g` is still
    /// resident while `generation() == g`. The compiled ROC tile pass
    /// relies on this to credit a sector run's repeat touches as hits.
    generation: u64,
}

impl FifoSet {
    /// Create a set holding at most `capacity` keys (at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let slots = (capacity * 2).next_power_of_two();
        FifoSet {
            table: vec![EMPTY; slots],
            slot_mask: slots - 1,
            ring: vec![0; capacity],
            head: 0,
            len: 0,
            generation: 0,
        }
    }

    /// Current eviction generation. Advances exactly when a key is
    /// evicted ([`FifoSet::pop_oldest`]), never on hits or inserts.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    #[inline]
    fn home_slot(&self, key: u64) -> usize {
        // Fibonacci hashing: multiply by 2^64/phi and keep the top bits,
        // which a power-of-two mask selects after the shift.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & self.slot_mask
    }

    /// Number of resident keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are resident.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the set is at capacity and the next insert must evict.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len == self.ring.len()
    }

    /// Is `key` resident?
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        let mut slot = self.home_slot(key);
        loop {
            let k = self.table[slot];
            if k == key {
                return true;
            }
            if k == EMPTY {
                return false;
            }
            slot = (slot + 1) & self.slot_mask;
        }
    }

    /// Insert a key known to be absent. Panics (debug) on duplicates and
    /// refuses to exceed capacity — callers evict first.
    #[inline]
    pub fn insert_new(&mut self, key: u64) {
        debug_assert_ne!(key, EMPTY, "u64::MAX is the empty-slot sentinel");
        debug_assert!(!self.contains(key), "insert_new on resident key");
        assert!(self.len < self.ring.len(), "FifoSet over capacity");
        let mut slot = self.home_slot(key);
        while self.table[slot] != EMPTY {
            slot = (slot + 1) & self.slot_mask;
        }
        self.table[slot] = key;
        let tail = (self.head + self.len) % self.ring.len();
        self.ring[tail] = key;
        self.len += 1;
    }

    /// One FIFO cache access: `true` if `key` is resident (a hit changes
    /// nothing); otherwise insert it, evicting the oldest key first when
    /// full, and return `false`.
    #[inline]
    pub fn touch(&mut self, key: u64) -> bool {
        if self.contains(key) {
            return true;
        }
        if self.is_full() {
            self.pop_oldest();
        }
        self.insert_new(key);
        false
    }

    /// Remove and return the oldest resident key.
    pub fn pop_oldest(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let key = self.ring[self.head];
        self.head = (self.head + 1) % self.ring.len();
        self.len -= 1;
        self.generation += 1;
        self.remove_from_table(key);
        Some(key)
    }

    /// Delete `key` from the probe table with backward-shift deletion,
    /// so later probes never cross a spurious hole.
    fn remove_from_table(&mut self, key: u64) {
        let mut slot = self.home_slot(key);
        while self.table[slot] != key {
            debug_assert_ne!(self.table[slot], EMPTY, "key must be resident");
            slot = (slot + 1) & self.slot_mask;
        }
        // Backward-shift: walk the cluster after `slot`; any entry whose
        // home slot is outside the (hole, entry] probe span moves into
        // the hole, re-opening the hole at its old position.
        let mut hole = slot;
        let mut probe = (slot + 1) & self.slot_mask;
        loop {
            let k = self.table[probe];
            if k == EMPTY {
                break;
            }
            let home = self.home_slot(k);
            // Does `k`'s probe path from `home` reach `hole` before
            // `probe`? (Cyclic interval test.)
            let dist_home_to_hole = hole.wrapping_sub(home) & self.slot_mask;
            let dist_home_to_probe = probe.wrapping_sub(home) & self.slot_mask;
            if dist_home_to_hole <= dist_home_to_probe {
                self.table[hole] = k;
                hole = probe;
            }
            probe = (probe + 1) & self.slot_mask;
        }
        self.table[hole] = EMPTY;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_evict_cycle() {
        let mut s = FifoSet::new(3);
        for k in [10u64, 20, 30] {
            assert!(!s.contains(k));
            s.insert_new(k);
            assert!(s.contains(k));
        }
        assert!(s.is_full());
        assert_eq!(s.pop_oldest(), Some(10));
        assert!(!s.contains(10));
        s.insert_new(40);
        assert_eq!(s.pop_oldest(), Some(20));
        assert_eq!(s.pop_oldest(), Some(30));
        assert_eq!(s.pop_oldest(), Some(40));
        assert_eq!(s.pop_oldest(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn matches_naive_fifo_under_adversarial_stream() {
        use std::collections::{HashMap, VecDeque};
        // Keys chosen from a small universe force heavy probe clustering
        // and constant eviction; compare against the obvious model.
        let capacity = 16;
        let mut fast = FifoSet::new(capacity);
        let mut resident: HashMap<u64, ()> = HashMap::new();
        let mut fifo: VecDeque<u64> = VecDeque::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..20_000 {
            // xorshift keystream over a universe of 48 keys.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 48;
            let naive_hit = resident.contains_key(&key);
            if !naive_hit {
                if fifo.len() == capacity {
                    let victim = fifo.pop_front().unwrap();
                    resident.remove(&victim);
                }
                resident.insert(key, ());
                fifo.push_back(key);
            }
            let fast_hit = fast.contains(key);
            if !fast_hit {
                if fast.is_full() {
                    fast.pop_oldest();
                }
                fast.insert_new(key);
            }
            assert_eq!(fast_hit, naive_hit, "key {key}");
            assert_eq!(fast.len(), fifo.len());
        }
    }

    #[test]
    fn generation_advances_only_on_eviction() {
        let mut s = FifoSet::new(2);
        assert_eq!(s.generation(), 0);
        s.insert_new(1);
        s.insert_new(2);
        assert!(s.contains(1));
        assert_eq!(s.generation(), 0, "hits and inserts must not bump");
        s.pop_oldest();
        assert_eq!(s.generation(), 1);
        s.insert_new(3);
        assert_eq!(s.generation(), 1);
        s.pop_oldest();
        s.pop_oldest();
        assert_eq!(s.generation(), 3);
    }

    #[test]
    fn capacity_one_thrashes_correctly() {
        let mut s = FifoSet::new(1);
        s.insert_new(5);
        assert!(s.contains(5));
        assert_eq!(s.pop_oldest(), Some(5));
        s.insert_new(6);
        assert!(s.contains(6) && !s.contains(5));
    }
}
