//! Per-block programmable shared memory with 32-bank conflict modeling.
//!
//! Shared memory is the fastest programmable store on the SM (paper
//! §IV-A: 28-cycle latency, ≈ 3 TB/s aggregate bandwidth) and the home of
//! the paper's output-privatization technique. Conflicts follow the
//! hardware rule: lanes of a warp accessing *different 4-byte words in
//! the same bank* serialize; lanes reading the *same* word broadcast.

use crate::error::SimError;
use crate::WARP_SIZE;

/// Handle to an `f32` shared-memory array within one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmF32(pub(crate) usize);

/// Handle to a `u32` shared-memory array within one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmU32(pub(crate) usize);

/// Handle to a `u64` shared-memory array within one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShmU64(pub(crate) usize);

#[derive(Debug)]
enum ShmStorage {
    F32(Vec<f32>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

impl ShmStorage {
    fn words_per_elem(&self) -> u64 {
        match self {
            ShmStorage::F32(_) | ShmStorage::U32(_) => 1,
            ShmStorage::U64(_) => 2,
        }
    }

    fn len(&self) -> usize {
        match self {
            ShmStorage::F32(v) => v.len(),
            ShmStorage::U32(v) => v.len(),
            ShmStorage::U64(v) => v.len(),
        }
    }
}

/// One block's shared-memory allocations.
#[derive(Debug, Default)]
pub struct SharedSpace {
    arrays: Vec<ShmStorage>,
    /// Base offset of each array in 4-byte words (determines banks).
    base_words: Vec<u64>,
    /// Per array, how many times its `f32` storage was handed out for
    /// writing ([`Self::f32s_mut`]): a record derived from an array's
    /// contents stays valid while this generation is unchanged.
    f32_gens: Vec<u64>,
    next_word: u64,
    banks: u32,
    /// Route conflict counting through the legacy nested-scan
    /// implementation (differential testing / before-after measurement).
    scalar_reference: bool,
    /// The scatter walk's occurrence counters ([`span_walk`]), grown to
    /// the widest walked `u32` array plus [`WINDOW_BLOCK`] + 1 bank
    /// cycles. All zero between walks: each walk clears exactly the
    /// window it read.
    cnt: Vec<u8>,
}

impl SharedSpace {
    pub fn new(banks: u32) -> Self {
        SharedSpace {
            arrays: Vec::new(),
            base_words: Vec::new(),
            f32_gens: Vec::new(),
            next_word: 0,
            banks: banks.max(1),
            scalar_reference: false,
            cnt: Vec::new(),
        }
    }

    /// Toggle the legacy conflict-counting path; the counts are
    /// identical either way (see `DeviceConfig::with_scalar_reference`).
    pub fn set_scalar_reference(&mut self, on: bool) {
        self.scalar_reference = on;
    }

    fn push(&mut self, s: ShmStorage) -> usize {
        let id = self.arrays.len();
        self.base_words.push(self.next_word);
        self.f32_gens.push(0);
        self.next_word += s.words_per_elem() * s.len() as u64;
        self.arrays.push(s);
        id
    }

    /// Allocate a zero-initialized `f32` array ("`__shared__ float[]`").
    pub fn alloc_f32(&mut self, len: usize) -> ShmF32 {
        ShmF32(self.push(ShmStorage::F32(vec![0.0; len])))
    }

    /// Allocate a zero-initialized `u32` array.
    pub fn alloc_u32(&mut self, len: usize) -> ShmU32 {
        ShmU32(self.push(ShmStorage::U32(vec![0; len])))
    }

    /// Allocate a zero-initialized `u64` array.
    pub fn alloc_u64(&mut self, len: usize) -> ShmU64 {
        ShmU64(self.push(ShmStorage::U64(vec![0; len])))
    }

    /// Bytes allocated so far (for occupancy accounting / limit checks).
    pub fn allocated_bytes(&self) -> u64 {
        self.next_word * 4
    }

    pub fn f32s(&self, h: ShmF32) -> &[f32] {
        match &self.arrays[h.0] {
            ShmStorage::F32(v) => v,
            _ => unreachable!("handle type guarantees f32 storage"),
        }
    }

    /// Mutable access to an `f32` array; advances its write generation
    /// (`f32_generation`), so every store moves it.
    pub fn f32s_mut(&mut self, h: ShmF32) -> &mut [f32] {
        self.f32_gens[h.0] += 1;
        match &mut self.arrays[h.0] {
            ShmStorage::F32(v) => v,
            _ => unreachable!("handle type guarantees f32 storage"),
        }
    }

    /// The write generation of an `f32` array: equal at two points in
    /// time only if nothing was stored to the array in between.
    pub(crate) fn f32_generation(&self, h: ShmF32) -> u64 {
        self.f32_gens[h.0]
    }

    pub fn u32s(&self, h: ShmU32) -> &[u32] {
        match &self.arrays[h.0] {
            ShmStorage::U32(v) => v,
            _ => unreachable!("handle type guarantees u32 storage"),
        }
    }

    pub fn u32s_mut(&mut self, h: ShmU32) -> &mut [u32] {
        match &mut self.arrays[h.0] {
            ShmStorage::U32(v) => v,
            _ => unreachable!("handle type guarantees u32 storage"),
        }
    }

    pub fn u64s(&self, h: ShmU64) -> &[u64] {
        match &self.arrays[h.0] {
            ShmStorage::U64(v) => v,
            _ => unreachable!("handle type guarantees u64 storage"),
        }
    }

    pub fn u64s_mut(&mut self, h: ShmU64) -> &mut [u64] {
        match &mut self.arrays[h.0] {
            ShmStorage::U64(v) => v,
            _ => unreachable!("handle type guarantees u64 storage"),
        }
    }

    pub(crate) fn check_bounds(&self, array: usize, idx: u32, what: &str) -> Result<(), SimError> {
        let len = self.arrays[array].len();
        if (idx as usize) < len {
            Ok(())
        } else {
            Err(SimError::OutOfBounds {
                what: what.to_string(),
                index: idx as usize,
                len,
            })
        }
    }

    /// Number of serialized transactions for a warp access to element
    /// indices `idxs` (active lanes only) of array `array`.
    ///
    /// Implements the hardware rule: the access replays once per extra
    /// distinct word mapped to the same bank; same-word lanes broadcast.
    /// Returns at least 1 when any lane is active.
    pub fn transactions_for(&self, array: usize, idxs: &[u32]) -> u64 {
        if self.scalar_reference {
            return self.transactions_for_reference(array, idxs);
        }
        if idxs.is_empty() {
            return 0;
        }
        let base = self.base_words[array];
        let wpe = self.arrays[array].words_per_elem();
        let banks = self.banks as u64;

        // Shape fast paths for the two warp access patterns the kernels
        // actually emit — broadcast (tile reuse) and unit stride (tile
        // loads / privatized outputs) — where the conflict degree follows
        // arithmetically from the shape.
        let first = idxs[0] as u64;
        if idxs.iter().all(|&i| i as u64 == first) {
            // Broadcast: one element, `wpe` adjacent words. One word is
            // always a single transaction; two adjacent words land in two
            // distinct banks whenever 2 <= banks <= 32.
            if wpe == 1 || (2..=32).contains(&banks) {
                return 1;
            }
        } else if banks == 32
            && idxs
                .iter()
                .enumerate()
                .all(|(k, &v)| v as u64 == first + k as u64)
        {
            // Unit stride: `len * wpe` contiguous words spread round-robin
            // over the 32 banks, so the fullest bank holds the ceiling.
            return (idxs.len() as u64 * wpe).div_ceil(32).max(1);
        }

        // General path: dedup words only against words already placed in
        // the same bank. `bank_entries[b]` is a bitmask over the slots of
        // `words` that hold bank-`b` words, so membership scans walk just
        // the (usually tiny) per-bank population and the per-bank counts
        // fall out as popcounts.
        let mut words = [0u64; 2 * WARP_SIZE];
        let mut n_words = 0usize;
        let mut bank_entries = [0u64; WARP_SIZE];
        for &idx in idxs {
            for w in 0..wpe {
                let word = base + idx as u64 * wpe + w;
                let bank = (word % banks) as usize % WARP_SIZE;
                let mut m = bank_entries[bank];
                let mut dup = false;
                while m != 0 {
                    let e = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if words[e] == word {
                        dup = true;
                        break;
                    }
                }
                if !dup {
                    words[n_words] = word;
                    bank_entries[bank] |= 1 << n_words;
                    n_words += 1;
                }
            }
        }
        let max_count = bank_entries
            .iter()
            .map(|m| m.count_ones() as u64)
            .max()
            .unwrap_or(0);
        max_count.max(1)
    }

    /// The pre-optimization conflict counter, kept verbatim as the
    /// scalar reference for the differential tests.
    pub fn transactions_for_reference(&self, array: usize, idxs: &[u32]) -> u64 {
        if idxs.is_empty() {
            return 0;
        }
        let base = self.base_words[array];
        let wpe = self.arrays[array].words_per_elem();
        let banks = self.banks as u64;
        // Collect the distinct words touched by the warp (≤ 32 lanes × 2
        // words for u64), then count distinct words per bank: the access
        // serializes once per extra word in the fullest bank, and lanes
        // reading the same word broadcast in a single transaction.
        let mut words = [u64::MAX; 2 * WARP_SIZE];
        let mut n_words = 0usize;
        for &idx in idxs {
            for w in 0..wpe {
                let word = base + idx as u64 * wpe + w;
                if !words[..n_words].contains(&word) {
                    words[n_words] = word;
                    n_words += 1;
                }
            }
        }
        let mut bank_counts = [0u64; WARP_SIZE];
        let mut max_count = 0u64;
        for &word in &words[..n_words] {
            let bank = (word % banks) as usize % WARP_SIZE;
            bank_counts[bank] += 1;
            max_count = max_count.max(bank_counts[bank]);
        }
        max_count.max(1)
    }

    /// Closed-form accounting for a warp-wide atomic scatter: the maximum
    /// same-element multiplicity and the serialized bank transactions of
    /// the active-lane element indices `vals`: the stateless oracle of
    /// the scatter walks ([`Self::scatter_account_update`]).
    ///
    /// Bit-identical to running the two halves separately — the quadratic
    /// same-address scan the op-by-op atomic uses, then
    /// [`SharedSpace::transactions_for`] on the same slice. The bank rule
    /// depends only on the *distinct*-element set, so the deduplicating
    /// multiplicity scan can feed the conflict counter its survivors
    /// directly (`transactions_for` would re-deduplicate the full slice
    /// to the same words; its broadcast/unit-stride shortcuts agree with
    /// the general count by construction). `vals` must hold at most one
    /// entry per warp lane. Returns `(0, 0)` for an empty slice.
    pub fn atomic_scatter_accounting(&self, array: usize, vals: &[u32]) -> (u64, u64) {
        debug_assert!(vals.len() <= WARP_SIZE);
        if vals.is_empty() {
            return (0, 0);
        }
        // The same shape shortcuts the op-by-op atomic takes: a broadcast
        // fully serializes on one element, a unit-stride scatter has no
        // same-address contention at all.
        let first = vals[0];
        if vals.iter().all(|&v| v == first) {
            return (vals.len() as u64, self.transactions_for(array, &vals[..1]));
        }
        if vals
            .iter()
            .enumerate()
            .all(|(k, &v)| v as u64 == first as u64 + k as u64)
        {
            return (1, self.transactions_for(array, vals));
        }
        let mut uniq = [0u32; WARP_SIZE];
        let mut count = [0u64; WARP_SIZE];
        let mut n = 0usize;
        let mut mult = 0u64;
        'outer: for &v in vals {
            for e in 0..n {
                if uniq[e] == v {
                    count[e] += 1;
                    mult = mult.max(count[e]);
                    continue 'outer;
                }
            }
            uniq[n] = v;
            count[n] = 1;
            mult = mult.max(1);
            n += 1;
        }
        (mult, self.transactions_for(array, &uniq[..n]))
    }

    /// [`Self::atomic_scatter_accounting`] combined with the histogram
    /// data update: one walk over the active-lane bucket indices `vals`
    /// yields the accounting pair *and* applies `data[v] += 1` per lane
    /// (wrapping u32 adds commute, so batching them changes no
    /// observable state). The compiled histogram sinks use this for
    /// partial-warp steps — ragged warps, intra-triangle tails, gridded
    /// segment ends — and [`Self::scatter_account_update_rows`] for
    /// full-warp steps; both run the one scatter walk described there.
    /// A [`ShmU32`] is one word per element by type, and the
    /// scalar-reference route never gets here (every compiled pass
    /// declines under it); the stateless
    /// [`Self::atomic_scatter_accounting`] is the oracle the walk is
    /// tested against.
    pub fn scatter_account_update(&mut self, h: ShmU32, vals: &[u32]) -> (u64, u64) {
        debug_assert!(vals.len() <= WARP_SIZE);
        if vals.is_empty() {
            return (0, 0);
        }
        let (data, cnt, base, banks) = self.walk_parts(h);
        walk_row(data, cnt, base, banks, vals)
    }

    /// [`Self::scatter_account_update`] batched over whole full-warp
    /// tile steps: `rows` holds `rows.len() / 32` steps' bucket
    /// indices, 32 lanes each. One call hoists the array binding and
    /// the counter sizing out of the per-step loop and returns the
    /// accumulated charge sums `(Σ mult, Σ (txns + mult − 1),
    /// Σ (txns − 1))` — exactly what the compiled histogram sinks add
    /// to `shared_atomic_serial`, `shared_transactions` and
    /// `shared_bank_replays`. Per step the accounting pair and the data
    /// update are those of [`Self::scatter_account_update`] on that
    /// step's lanes (the same walk), and the wrapping data adds commute
    /// across steps.
    ///
    /// The walk counts a step's lanes in the block's occurrence
    /// counters, aligned to the bank cycle: bucket `v` counts at
    /// `i = v + b0`, where `b0` is the bank of element 0, so `i mod
    /// banks` is `v`'s bank. The lane loop only bumps the counter and
    /// adds to the bin. The window — the counter rows of `banks`
    /// entries from `lo`'s row through `hi`'s, in whole blocks of eight
    /// rows — is then read and cleared as it is read: the multiplicity
    /// is the largest entry, and column `c` holds bank `c`'s distinct
    /// words (folded into bank `c mod 32`, as
    /// [`Self::transactions_for`] folds), so the largest per-bank count
    /// of non-zero entries is the transaction count. `lo == hi` is the
    /// broadcast test. This is exact for every span and bank count.
    /// Min and max are separate folds and the lane loop carries no
    /// maxima, so the folds and the row reads vectorize (EXPERIMENTS.md,
    /// "Vectorized scatter accounting" and "One scatter walk").
    ///
    /// Every index must be in bounds for `h` (the compiled pre-flights
    /// guarantee `hmax < len`, and buckets clamp to `hmax`).
    pub fn scatter_account_update_rows(&mut self, h: ShmU32, rows: &[u32]) -> (u64, u64, u64) {
        debug_assert_eq!(rows.len() % WARP_SIZE, 0);
        let (mut serial, mut txns_sum, mut replays) = (0u64, 0u64, 0u64);
        let (data, cnt, base, banks) = self.walk_parts(h);
        for row in rows.chunks_exact(WARP_SIZE) {
            let row: &[u32; WARP_SIZE] = row.try_into().expect("chunks_exact yields warp rows");
            let (mult, txns) = walk_row(data, cnt, base, banks, row);
            serial += mult;
            txns_sum += txns + mult - 1;
            replays += txns - 1;
        }
        (serial, txns_sum, replays)
    }

    /// The walk's operands for array `h`: its data, the occurrence
    /// counters (grown to cover any window over it), its base word and
    /// the bank count.
    fn walk_parts(&mut self, h: ShmU32) -> (&mut [u32], &mut [u8], u64, usize) {
        let (base, banks) = (self.base_words[h.0], self.banks as usize);
        let ShmStorage::U32(data) = &mut self.arrays[h.0] else {
            unreachable!("handle type guarantees u32 storage")
        };
        // Counters run to `len − 1 + base mod banks < len + banks`; a
        // window ends less than one block past its last counter.
        let need = data.len() + (WINDOW_BLOCK + 1) * banks;
        if self.cnt.len() < need {
            self.cnt.resize(need, 0);
        }
        (data, &mut self.cnt, base, banks)
    }

    /// `rows` warp steps whose `lanes` active lanes all scatter into
    /// bucket `v`, in closed form: the same data update and charge sums
    /// `(serial, transactions, replays)` as
    /// [`Self::scatter_account_update_rows`] or
    /// [`Self::scatter_account_update`] on each such step. A one-word
    /// broadcast is one transaction with `lanes`-fold serialization, so
    /// each step adds `lanes` to serial and to transactions
    /// (`1 + lanes − 1`) and nothing to replays.
    pub fn scatter_broadcast_rows(
        &mut self,
        h: ShmU32,
        v: u32,
        rows: u64,
        lanes: u64,
    ) -> (u64, u64, u64) {
        let n = rows * lanes;
        let data = self.u32s_mut(h);
        // Wrapping adds commute: n single-lane adds equal one add of n
        // modulo 2³².
        data[v as usize] = data[v as usize].wrapping_add(n as u32);
        (n, n, 0)
    }
}

/// One step's scatter walk over a one-word array whose element 0 is
/// word `base`: the step's `(mult, txns)` with `data[v] += 1` applied
/// per lane of `row` (1–32 active lanes). On 32 banks the bank count is
/// a constant in [`span_walk`]'s body, so its bank arithmetic is masks
/// and its row reads compile to fixed 32-byte vector operations.
#[inline(always)]
fn walk_row(data: &mut [u32], cnt: &mut [u8], base: u64, banks: usize, row: &[u32]) -> (u64, u64) {
    if banks == WARP_SIZE {
        span_walk(data, cnt, base, WARP_SIZE, row)
    } else {
        span_walk(data, cnt, base, banks, row)
    }
}

/// Rows per block of a scatter walk's window. A window is read in whole
/// blocks, so every step narrower than eight bank cycles (256 buckets
/// on 32 banks) reads one block: a fixed trip count that does not
/// mispredict with each step's span.
const WINDOW_BLOCK: usize = 8;

/// The scatter walk (see [`SharedSpace::scatter_account_update_rows`]).
/// `cnt` is all zero on entry and on return.
#[inline(always)]
fn span_walk(data: &mut [u32], cnt: &mut [u8], base: u64, banks: usize, row: &[u32]) -> (u64, u64) {
    let lo = row.iter().fold(u32::MAX, |m, &v| m.min(v));
    let hi = row.iter().fold(0, |m, &v| m.max(v));
    if lo == hi {
        // Broadcast: one word, one transaction, fully serialized.
        data[lo as usize] = data[lo as usize].wrapping_add(row.len() as u32);
        return (row.len() as u64, 1);
    }
    // With `b0` the bank of element 0, counter `v + b0` has bank
    // `(v + b0) mod banks`; the window starts at the row of `lo` and
    // covers `hi` in whole blocks of rows.
    let b0 = (base % banks as u64) as usize;
    let start = (lo as usize + b0) / banks * banks;
    let end = start + (hi as usize + b0 + 1 - start).next_multiple_of(WINDOW_BLOCK * banks);
    for &v in row {
        cnt[v as usize + b0] += 1;
        data[v as usize] = data[v as usize].wrapping_add(1);
    }
    // Column `c` of the window's rows holds bank `c`'s words; above
    // 32 banks it folds into bank `c mod 32`, as `transactions_for`
    // folds.
    let mut peak = [0u8; WARP_SIZE];
    let mut distinct = [0u8; WARP_SIZE];
    for block in cnt[start..end].chunks_exact_mut(WINDOW_BLOCK * banks) {
        for r in block.chunks_exact_mut(banks) {
            for (c, x) in r.iter_mut().enumerate() {
                peak[c % WARP_SIZE] = peak[c % WARP_SIZE].max(*x);
                distinct[c % WARP_SIZE] += (*x).min(1);
                *x = 0;
            }
        }
    }
    let mult = peak.iter().fold(0, |m, &c| m.max(c));
    let txns = distinct.iter().fold(0, |m, &c| m.max(c));
    (mult as u64, txns as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scatter walk's counter buffer is all zero.
    fn is_clean(s: &SharedSpace) -> bool {
        s.cnt.iter().all(|&c| c == 0)
    }

    #[test]
    fn conflict_free_unit_stride() {
        let mut s = SharedSpace::new(32);
        let a = s.alloc_f32(64);
        let idxs: Vec<u32> = (0..32).collect();
        assert_eq!(s.transactions_for(a.0, &idxs), 1);
    }

    #[test]
    fn broadcast_same_word_is_one_transaction() {
        let mut s = SharedSpace::new(32);
        let a = s.alloc_f32(64);
        let idxs = vec![7u32; 32];
        assert_eq!(s.transactions_for(a.0, &idxs), 1);
    }

    #[test]
    fn stride_two_gives_two_way_conflict() {
        let mut s = SharedSpace::new(32);
        let a = s.alloc_f32(128);
        let idxs: Vec<u32> = (0..32).map(|i| i * 2).collect();
        assert_eq!(s.transactions_for(a.0, &idxs), 2);
    }

    #[test]
    fn stride_thirty_two_fully_serializes() {
        let mut s = SharedSpace::new(32);
        let a = s.alloc_f32(32 * 32);
        let idxs: Vec<u32> = (0..32).map(|i| i * 32).collect();
        assert_eq!(s.transactions_for(a.0, &idxs), 32);
    }

    #[test]
    fn u64_arrays_occupy_two_banks_per_element() {
        let mut s = SharedSpace::new(32);
        let a = s.alloc_u64(64);
        // Unit-stride u64: lane i touches words 2i, 2i+1 -> each bank gets
        // two distinct words across the warp -> 2 transactions.
        let idxs: Vec<u32> = (0..32).collect();
        assert_eq!(s.transactions_for(a.0, &idxs), 2);
    }

    #[test]
    fn base_offsets_shift_banks() {
        let mut s = SharedSpace::new(32);
        let _pad = s.alloc_f32(1);
        let a = s.alloc_f32(64);
        // Array starts at word 1; unit stride still conflict-free.
        let idxs: Vec<u32> = (0..32).collect();
        assert_eq!(s.transactions_for(a.0, &idxs), 1);
        assert_eq!(s.allocated_bytes(), 4 * 65);
    }

    #[test]
    fn duplicate_words_in_a_conflicted_bank_still_broadcast() {
        let mut s = SharedSpace::new(32);
        let a = s.alloc_f32(64);
        // Words 0 and 32 share bank 0; many lanes reading word 32 must
        // not add transactions beyond the 2-way word conflict.
        let mut idxs = vec![32u32; 30];
        idxs.push(0);
        assert_eq!(s.transactions_for(a.0, &idxs), 2);
    }

    #[test]
    fn fast_and_reference_counters_agree() {
        for banks in [1u32, 2, 16, 32, 33, 48] {
            let mut s = SharedSpace::new(banks);
            let _pad = s.alloc_f32(3);
            let f = s.alloc_f32(4096);
            let u = s.alloc_u64(4096);
            let mut x = 0xace1u64;
            for trial in 0..400 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let len = (x % 33) as usize;
                let mut idxs = Vec::with_capacity(len);
                for k in 0..len {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    idxs.push(match trial % 4 {
                        0 => (x % 4096) as u32,              // random gather
                        1 => ((x % 64) + k as u64) as u32,   // unit stride
                        2 => (x % 64) as u32 * (trial % 33), // strided
                        _ => 7,                              // broadcast
                    });
                }
                for arr in [f.0, u.0] {
                    assert_eq!(
                        s.transactions_for(arr, &idxs),
                        s.transactions_for_reference(arr, &idxs),
                        "banks {banks} trial {trial} arr {arr} idxs {idxs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_accounting_matches_split_computation() {
        // The compiled histogram sinks rely on this equivalence: one
        // combined pass == (reference multiplicity scan, transactions_for).
        let max_multiplicity = |vals: &[u32]| -> u64 {
            vals.iter()
                .map(|v| vals.iter().filter(|&w| w == v).count() as u64)
                .max()
                .unwrap_or(0)
        };
        for banks in [1u32, 2, 16, 32, 48] {
            let mut s = SharedSpace::new(banks);
            let _pad = s.alloc_f32(5);
            let f = s.alloc_f32(256);
            let u = s.alloc_u64(256);
            let mut x = 0xbeefu64;
            for trial in 0..400 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let len = (x % 33) as usize;
                let mut vals = Vec::with_capacity(len);
                for k in 0..len {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    vals.push(match trial % 4 {
                        0 => (x % 256) as u32,             // random scatter
                        1 => ((x % 32) + k as u64) as u32, // unit stride
                        2 => (x % 17) as u32,              // heavy contention
                        _ => 9,                            // broadcast
                    });
                }
                for arr in [f.0, u.0] {
                    assert_eq!(
                        s.atomic_scatter_accounting(arr, &vals),
                        (max_multiplicity(&vals), s.transactions_for(arr, &vals)),
                        "banks {banks} trial {trial} arr {arr} vals {vals:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_account_update_matches_split_halves() {
        // The merged accounting+update walk must equal the stateless
        // `atomic_scatter_accounting` and then incrementing per lane,
        // for every scatter shape, with the counter buffer coming back
        // clean between calls.
        let mut s = SharedSpace::new(32);
        let _pad = s.alloc_f32(3);
        // `b` sits 256 words (≡ 0 mod 32 banks) past `a`, so both map
        // every element to the same bank and the accounting agrees.
        let a = s.alloc_u32(256);
        let b = s.alloc_u32(256);
        let mut x = 0xabc1u64;
        let mut expect = vec![0u32; 256];
        for trial in 0..600 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let len = if trial % 3 == 0 {
                32
            } else {
                (x % 33) as usize
            };
            let mut vals = Vec::with_capacity(len);
            for k in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                vals.push(match trial % 5 {
                    0 => (x % 256) as u32,
                    1 => ((x % 32) + k as u64) as u32,
                    2 => (x % 17) as u32,
                    3 => (x % 2) as u32 * 32,
                    _ => 9,
                });
            }
            let oracle = s.atomic_scatter_accounting(b.0, &vals);
            assert_eq!(
                s.scatter_account_update(a, &vals),
                oracle,
                "trial {trial} vals {vals:?}"
            );
            for &v in &vals {
                expect[v as usize] = expect[v as usize].wrapping_add(1);
            }
            assert!(is_clean(&s), "counters not cleared");
        }
        assert_eq!(s.u32s(a), &expect[..], "merged updates diverge");
    }

    #[test]
    fn scatter_account_update_rows_matches_per_step() {
        // The batched full-warp walk must equal per-step
        // `scatter_account_update` calls and the stateless scalar
        // oracle — same charge sums, same final histogram — across
        // banked layouts and every step shape, with the counter buffer
        // coming back clean between batches.
        for banks in [32u32, 16] {
            let layout = |scalar: bool| {
                let mut s = SharedSpace::new(banks);
                s.set_scalar_reference(scalar);
                let _pad = s.alloc_f32(7);
                (s.alloc_u32(1024), s.alloc_u32(1024), s)
            };
            let (a, b, mut s) = layout(false);
            let (_, _, oracle) = layout(true);
            let mut x = 0x5eed5u64;
            for trial in 0..200 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let steps = (x % 9) as usize;
                let mut rows = Vec::with_capacity(steps * WARP_SIZE);
                for j in 0..steps {
                    for k in 0..WARP_SIZE {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        rows.push(match (trial + j) % 6 {
                            0 => (x % 256) as u32,
                            1 => ((x % 32) + k as u64) as u32,
                            2 => (x % 17) as u32,
                            3 => (x % 2) as u32 * 32,
                            // Spread wider than 256 buckets.
                            4 => (x % 1024) as u32,
                            _ => 9,
                        });
                    }
                }
                let mut expect = (0u64, 0u64, 0u64);
                let mut stateless = (0u64, 0u64, 0u64);
                for row in rows.chunks_exact(WARP_SIZE) {
                    let (mult, txns) = s.scatter_account_update(a, row);
                    expect.0 += mult;
                    expect.1 += txns + mult - 1;
                    expect.2 += txns.saturating_sub(1);
                    let (mult, txns) = oracle.atomic_scatter_accounting(a.0, row);
                    stateless.0 += mult;
                    stateless.1 += txns + mult - 1;
                    stateless.2 += txns.saturating_sub(1);
                }
                assert_eq!(expect, stateless, "banks {banks} trial {trial}");
                assert_eq!(
                    s.scatter_account_update_rows(b, &rows),
                    expect,
                    "banks {banks} trial {trial}"
                );
                assert!(is_clean(&s), "counters not cleared");
            }
            // `b` sits 1024 words past `a` (≡ 0 mod either bank count),
            // so both map every element to the same bank and the
            // accounting comparison above is apples to apples; the
            // data must also agree since both saw the same rows.
            assert_eq!(s.u32s(a), s.u32s(b), "batched updates diverge");
        }
    }

    #[test]
    fn scatter_broadcast_rows_matches_the_walks() {
        // Closed-form same-bucket rows must equal the batched full-warp
        // walk and the per-step walk of partial rows, with the data
        // update wrapping like the per-lane adds.
        for banks in [32u32, 16] {
            let mut s = SharedSpace::new(banks);
            let a = s.alloc_u32(64);
            let b = s.alloc_u32(64);
            s.u32s_mut(a)[9] = u32::MAX - 40;
            s.u32s_mut(b)[9] = u32::MAX - 40;
            let rows = vec![9u32; 3 * WARP_SIZE];
            assert_eq!(
                s.scatter_broadcast_rows(b, 9, 3, WARP_SIZE as u64),
                s.scatter_account_update_rows(a, &rows)
            );
            let mut expect = (0u64, 0u64, 0u64);
            for _ in 0..4 {
                let (mult, txns) = s.scatter_account_update(a, &[9u32; 5]);
                expect.0 += mult;
                expect.1 += txns + mult - 1;
                expect.2 += txns.saturating_sub(1);
            }
            assert_eq!(s.scatter_broadcast_rows(b, 9, 4, 5), expect);
            assert_eq!(s.u32s(a), s.u32s(b), "banks {banks}");
        }
    }

    #[test]
    fn readback_roundtrip_and_bounds() {
        let mut s = SharedSpace::new(32);
        let a = s.alloc_u32(4);
        s.u32s_mut(a)[2] = 42;
        assert_eq!(s.u32s(a)[2], 42);
        assert!(s.check_bounds(a.0, 3, "t").is_ok());
        assert!(s.check_bounds(a.0, 4, "t").is_err());
    }
}
