//! Warp-level SIMT operations.
//!
//! Every method on [`WarpCtx`] is one *warp instruction*: it acts on all
//! 32 lanes under an explicit [`Mask`] and charges the block tally
//! according to fixed, documented rules. The analytic model in
//! `tbs-core::analytic` mirrors these rules, which is what lets property
//! tests prove closed-form access counts equal functionally-measured
//! ones.
//!
//! ## Charging rules
//!
//! | operation | tally effects |
//! |---|---|
//! | any op | `warp_instructions += 1`, `useful_lane_ops += active`, `predicated_lane_slots += 32 − active` |
//! | `charge_alu(n, …)` / arithmetic helpers | `alu_instructions += n` |
//! | `charge_control(n, …)` | `control_instructions += n` |
//! | global load | `global_load_instructions += 1`, bytes += 4·active (or 8), sectors filtered through L2 → `l2_hit_sectors` / `dram_sectors` |
//! | ROC load | `roc_load_instructions += 1`, sectors through the per-block ROC; misses continue into L2/DRAM |
//! | global store | `global_store_instructions += 1`, write-allocate through L2 |
//! | global atomic | `global_atomics += 1`, `global_atomic_serial += max` same-address multiplicity, sectors through L2 |
//! | shared load/store | `shared_{load,store}_instructions += 1`, `shared_transactions += serialized transactions` (bank rule), replays recorded |
//! | shared atomic | `shared_atomics += 1`, `shared_atomic_serial += max multiplicity`, `shared_transactions += bank-conflict + contention replays` |
//! | shuffle | `shuffle_instructions += 1` (faults on pre-Kepler devices) |
//! | `divergent_loop` | per iteration: one control instruction; iterations with a partially-active mask also bump `divergent_iterations` |

use crate::error::SimError;
use crate::exec::block::BlockCtx;
use crate::exec::mask::Mask;
use crate::mem::{self, BufF32, BufU32, BufU64, ShmF32, ShmU32, ShmU64};
use crate::tally::AccessTally;
use crate::{F32x32, U32x32, U64x32, WARP_SIZE};

/// One batched tally charge: `n` warp instructions under `active` lanes.
/// All three per-instruction counters update in a single pass so every
/// `charge*` entry point shares one code path and counts lanes once.
#[inline]
pub(crate) fn charge_lanes(t: &mut AccessTally, n: u64, active: u64) {
    t.warp_instructions += n;
    t.useful_lane_ops += n * active;
    t.predicated_lane_slots += n * (WARP_SIZE as u64 - active);
}

/// Zero the inactive lanes of a full-width `f32` result. Branch-free
/// (bitwise and with an all-ones/all-zeros lane mask) so the surrounding
/// full-width op loops stay auto-vectorizable.
#[inline]
fn blend_f32(v: &mut F32x32, mask: Mask) {
    if mask.all() {
        return;
    }
    for (i, x) in v.iter_mut().enumerate() {
        let keep = 0u32.wrapping_sub(mask.lane(i) as u32);
        *x = f32::from_bits(x.to_bits() & keep);
    }
}

/// Zero the inactive lanes of a full-width `u32` result.
#[inline]
fn blend_u32(v: &mut U32x32, mask: Mask) {
    if mask.all() {
        return;
    }
    for (i, x) in v.iter_mut().enumerate() {
        *x &= 0u32.wrapping_sub(mask.lane(i) as u32);
    }
}

/// Shape of one warp's gather/scatter index pattern, detected once per
/// memory instruction and reused for bounds checks, sector-set
/// computation, and value movement. The fast shapes only arise under
/// prefix masks (`Mask::is_prefix`), where the active lanes are exactly
/// `0..n` and the active indices are exactly `idx[..n]`.
/// (The variant size gap is deliberate: the enum lives on the stack for
/// one instruction and is never stored.)
#[allow(clippy::large_enum_variant)]
enum GatherShape {
    /// Active lanes access consecutive elements `idx[0] .. idx[0]+n`.
    UnitStride { first: u32, n: u32 },
    /// All active lanes access the same element `idx[0]`.
    Broadcast { idx: u32 },
    /// Arbitrary pattern: compacted per-lane byte addresses.
    Gather { addrs: [u64; WARP_SIZE], n: usize },
}

/// Shape of one warp's shared-memory index pattern (same detection as
/// [`GatherShape`], but indices stay element-granular because the bank
/// rule works on words, handled by `SharedSpace::transactions_for`).
enum ShmShape {
    /// Prefix mask, all active lanes read element `idx[0]`.
    Broadcast { n: usize },
    /// Prefix mask, active lanes read `idx[0] .. idx[0]+n`.
    UnitStride { n: usize },
    /// Prefix mask, arbitrary indices — active indices are `idx[..n]`.
    Prefix { n: usize },
    /// Non-prefix mask (or scalar-reference mode): compacted indices.
    Packed { idxs: [u32; WARP_SIZE], n: usize },
}

impl ShmShape {
    /// The active index slice this shape describes.
    #[inline]
    fn idxs<'s>(&'s self, idx: &'s U32x32) -> &'s [u32] {
        match self {
            ShmShape::Broadcast { n } | ShmShape::UnitStride { n } | ShmShape::Prefix { n } => {
                &idx[..*n]
            }
            ShmShape::Packed { idxs, n } => &idxs[..*n],
        }
    }
}

/// Move loaded values into lane positions according to the access shape.
/// Identical to the per-lane `from_fn` gather for every shape.
#[inline]
fn gather_values<T: Copy + Default>(
    data: &[T],
    idx: &U32x32,
    mask: Mask,
    shape: &GatherShape,
) -> [T; WARP_SIZE] {
    let mut out = [T::default(); WARP_SIZE];
    match *shape {
        GatherShape::Broadcast { idx: e } => {
            out[..mask.count() as usize].fill(data[e as usize]);
        }
        GatherShape::UnitStride { first, n } => {
            let first = first as usize;
            out[..n as usize].copy_from_slice(&data[first..first + n as usize]);
        }
        GatherShape::Gather { .. } => {
            for (i, o) in out.iter_mut().enumerate() {
                if mask.lane(i) {
                    *o = data[idx[i] as usize];
                }
            }
        }
    }
    out
}

/// Move shared-memory loads into lane positions according to shape.
#[inline]
fn shm_gather_values<T: Copy + Default>(
    data: &[T],
    idx: &U32x32,
    mask: Mask,
    shape: &ShmShape,
) -> [T; WARP_SIZE] {
    let mut out = [T::default(); WARP_SIZE];
    match *shape {
        ShmShape::Broadcast { n } => out[..n].fill(data[idx[0] as usize]),
        ShmShape::UnitStride { n } => {
            let first = idx[0] as usize;
            out[..n].copy_from_slice(&data[first..first + n]);
        }
        _ => {
            for (i, o) in out.iter_mut().enumerate() {
                if mask.lane(i) {
                    *o = data[idx[i] as usize];
                }
            }
        }
    }
    out
}

/// Execution context of one warp within a block phase.
pub struct WarpCtx<'b, 'a> {
    pub(crate) blk: &'b mut BlockCtx<'a>,
    /// Warp index within the block.
    pub warp_id: u32,
}

impl<'b, 'a> WarpCtx<'b, 'a> {
    pub(crate) fn new(blk: &'b mut BlockCtx<'a>, warp_id: u32) -> Self {
        WarpCtx { blk, warp_id }
    }

    /// The block context (read-only view).
    pub fn block_id(&self) -> u32 {
        self.blk.block_id
    }

    /// Grid size of the launch.
    pub fn grid_dim(&self) -> u32 {
        self.blk.grid_dim
    }

    /// Threads per block.
    pub fn block_dim(&self) -> u32 {
        self.blk.block_dim
    }

    /// Lane indices `0..32`.
    pub fn lane_ids(&self) -> U32x32 {
        std::array::from_fn(|i| i as u32)
    }

    /// Thread ids within the block: `warp_id * 32 + lane`.
    pub fn thread_ids(&self) -> U32x32 {
        std::array::from_fn(|i| self.warp_id * WARP_SIZE as u32 + i as u32)
    }

    /// Global thread ids: `block_id * block_dim + thread_id`.
    pub fn global_thread_ids(&self) -> U32x32 {
        let base = self.blk.block_id * self.blk.block_dim;
        let t = self.thread_ids();
        std::array::from_fn(|i| base + t[i])
    }

    /// Mask of lanes whose thread id is a real thread of this block
    /// (handles the ragged last warp of a non-multiple-of-32 block).
    pub fn active_threads(&self) -> Mask {
        let first = self.warp_id * WARP_SIZE as u32;
        Mask::first_n(self.blk.block_dim.saturating_sub(first))
    }

    /// Mask of lanes where `vals[i] < limit`.
    pub fn mask_lt(&self, vals: &U32x32, limit: u32) -> Mask {
        Mask::from_fn(|i| vals[i] < limit)
    }

    // ---------------------------------------------------------------
    // cost accounting
    // ---------------------------------------------------------------

    #[inline]
    fn charge(&mut self, mask: Mask) {
        self.blk.interp.dispatches += 1;
        charge_lanes(&mut self.blk.tally, 1, mask.count() as u64);
    }

    /// True when the device routes through the retained scalar reference
    /// implementations instead of the vectorized fast paths.
    #[inline]
    fn scalar_ref(&self) -> bool {
        self.blk.cfg.scalar_reference
    }

    /// Charge `n` arithmetic warp instructions executed under `mask`.
    /// Use this when computing lane values in plain Rust (e.g. a distance
    /// function) so the simulated cost matches the work.
    pub fn charge_alu(&mut self, n: u64, mask: Mask) {
        self.blk.interp.dispatches += 1;
        let t = &mut self.blk.tally;
        charge_lanes(t, n, mask.count() as u64);
        t.alu_instructions += n;
    }

    /// Charge `n` control-flow warp instructions (loop tests, branches).
    pub fn charge_control(&mut self, n: u64, mask: Mask) {
        self.blk.interp.dispatches += 1;
        let t = &mut self.blk.tally;
        charge_lanes(t, n, mask.count() as u64);
        t.control_instructions += n;
    }

    // ---------------------------------------------------------------
    // arithmetic helpers (each = 1 ALU warp instruction)
    // ---------------------------------------------------------------

    /// Lane-wise `a - b`.
    pub fn sub_f32x(&mut self, a: &F32x32, b: &F32x32, mask: Mask) -> F32x32 {
        self.charge_alu(1, mask);
        if self.scalar_ref() {
            return std::array::from_fn(|i| if mask.lane(i) { a[i] - b[i] } else { 0.0 });
        }
        let mut out = [0.0f32; WARP_SIZE];
        for i in 0..WARP_SIZE {
            out[i] = a[i] - b[i];
        }
        blend_f32(&mut out, mask);
        out
    }

    /// Lane-wise `a + b`.
    pub fn add_f32x(&mut self, a: &F32x32, b: &F32x32, mask: Mask) -> F32x32 {
        self.charge_alu(1, mask);
        if self.scalar_ref() {
            return std::array::from_fn(|i| if mask.lane(i) { a[i] + b[i] } else { 0.0 });
        }
        let mut out = [0.0f32; WARP_SIZE];
        for i in 0..WARP_SIZE {
            out[i] = a[i] + b[i];
        }
        blend_f32(&mut out, mask);
        out
    }

    /// Lane-wise fused multiply-add `a * b + c`.
    pub fn fma_f32x(&mut self, a: &F32x32, b: &F32x32, c: &F32x32, mask: Mask) -> F32x32 {
        self.charge_alu(1, mask);
        if self.scalar_ref() {
            return std::array::from_fn(|i| {
                if mask.lane(i) {
                    a[i].mul_add(b[i], c[i])
                } else {
                    0.0
                }
            });
        }
        let mut out = [0.0f32; WARP_SIZE];
        for i in 0..WARP_SIZE {
            out[i] = a[i].mul_add(b[i], c[i]);
        }
        blend_f32(&mut out, mask);
        out
    }

    /// Vector × scalar.
    pub fn mul_f32(&mut self, a: &F32x32, s: f32, mask: Mask) -> F32x32 {
        self.charge_alu(1, mask);
        if self.scalar_ref() {
            return std::array::from_fn(|i| if mask.lane(i) { a[i] * s } else { 0.0 });
        }
        let mut out = [0.0f32; WARP_SIZE];
        for i in 0..WARP_SIZE {
            out[i] = a[i] * s;
        }
        blend_f32(&mut out, mask);
        out
    }

    /// Lane-wise square root (one SFU instruction).
    pub fn sqrt_f32x(&mut self, a: &F32x32, mask: Mask) -> F32x32 {
        self.charge_alu(1, mask);
        if self.scalar_ref() {
            return std::array::from_fn(|i| if mask.lane(i) { a[i].sqrt() } else { 0.0 });
        }
        let mut out = [0.0f32; WARP_SIZE];
        for i in 0..WARP_SIZE {
            out[i] = a[i].sqrt();
        }
        blend_f32(&mut out, mask);
        out
    }

    /// Lane-wise `a < s` comparison producing a mask.
    pub fn lt_f32(&mut self, a: &F32x32, s: f32, mask: Mask) -> Mask {
        self.charge_alu(1, mask);
        if self.scalar_ref() {
            return Mask::from_fn(|i| mask.lane(i) && a[i] < s);
        }
        let mut bits = 0u32;
        for (i, &x) in a.iter().enumerate() {
            bits |= ((x < s) as u32) << i;
        }
        Mask(bits & mask.0)
    }

    /// Lane-wise u32 add with scalar.
    pub fn add_u32(&mut self, a: &U32x32, s: u32, mask: Mask) -> U32x32 {
        self.charge_alu(1, mask);
        if self.scalar_ref() {
            return std::array::from_fn(|i| {
                if mask.lane(i) {
                    a[i].wrapping_add(s)
                } else {
                    0
                }
            });
        }
        let mut out = [0u32; WARP_SIZE];
        for i in 0..WARP_SIZE {
            out[i] = a[i].wrapping_add(s);
        }
        blend_u32(&mut out, mask);
        out
    }

    /// Lane-wise `a mod m` (m > 0).
    pub fn mod_u32(&mut self, a: &U32x32, m: u32, mask: Mask) -> U32x32 {
        self.charge_alu(1, mask);
        if self.scalar_ref() {
            return std::array::from_fn(|i| if mask.lane(i) { a[i] % m } else { 0 });
        }
        let mut out = [0u32; WARP_SIZE];
        for i in 0..WARP_SIZE {
            out[i] = a[i] % m;
        }
        blend_u32(&mut out, mask);
        out
    }

    // ---------------------------------------------------------------
    // global memory
    // ---------------------------------------------------------------

    /// Bounds-check a warp gather and classify its index pattern.
    ///
    /// Fault behavior is exactly the scalar loop's: the first active lane
    /// whose index fails the check is reported. The fast shapes make that
    /// cheap — a broadcast's lanes share one index, and a unit-stride
    /// pattern's indices ascend, so its *last* lane's check covers all of
    /// them (on failure we fall back to the scalar loop, which blames the
    /// first offending lane).
    fn gather_shape<const EL: u64>(
        &mut self,
        base: u64,
        len_check: impl Fn(&BlockCtx<'_>, u32) -> Result<(), SimError>,
        idx: &U32x32,
        mask: Mask,
    ) -> Option<GatherShape> {
        if !self.scalar_ref() && mask.is_prefix() {
            let n = mask.count() as usize;
            let first = idx[0];
            let lanes = &idx[..n];
            if lanes.iter().all(|&v| v == first) {
                if let Err(e) = len_check(self.blk, first) {
                    self.blk.record_fault(e);
                    return None;
                }
                return Some(GatherShape::Broadcast { idx: first });
            }
            if lanes
                .iter()
                .enumerate()
                .all(|(k, &v)| v as u64 == first as u64 + k as u64)
                && len_check(self.blk, idx[n - 1]).is_ok()
            {
                return Some(GatherShape::UnitStride { first, n: n as u32 });
            }
        }
        let mut addrs = [0u64; WARP_SIZE];
        let mut n = 0usize;
        for lane in mask.lanes() {
            if let Err(e) = len_check(self.blk, idx[lane]) {
                self.blk.record_fault(e);
                return None;
            }
            addrs[n] = base + idx[lane] as u64 * EL;
            n += 1;
        }
        Some(GatherShape::Gather { addrs, n })
    }

    /// Route a gather's sector set through L2, in the exact first-touch
    /// order the per-lane dedup scan would visit. Broadcast touches one
    /// sector; a unit-stride access's ascending addresses touch one
    /// ascending contiguous sector run (lane stride ≤ 8 bytes < the
    /// 32-byte sector), both computed arithmetically.
    fn global_path_shape<const EL: u64>(&mut self, base: u64, shape: &GatherShape) {
        let sb = self.blk.cfg.sector_bytes as u64;
        match *shape {
            GatherShape::Broadcast { idx } => {
                self.blk.l2_access((base + idx as u64 * EL) / sb);
            }
            GatherShape::UnitStride { first, n } => {
                let s0 = (base + first as u64 * EL) / sb;
                let s1 = (base + (first as u64 + n as u64 - 1) * EL) / sb;
                self.blk.l2_access_run(s0, (s1 - s0 + 1) as u32);
            }
            GatherShape::Gather { ref addrs, n } => {
                let sector_bytes = self.blk.cfg.sector_bytes;
                // Collect sectors first (cannot borrow l2 inside the
                // closure that borrows cfg immutably via self).
                let mut sectors = [0u64; WARP_SIZE];
                let mut ns = 0usize;
                mem::for_each_sector(&addrs[..n], sector_bytes, |s| {
                    sectors[ns] = s;
                    ns += 1;
                });
                for &s in &sectors[..ns] {
                    self.blk.l2_access(s);
                }
            }
        }
    }

    /// Same as [`Self::global_path_shape`], but sectors go through the
    /// per-block read-only cache first; misses continue into L2.
    fn roc_path_shape<const EL: u64>(&mut self, base: u64, shape: &GatherShape) {
        let sb = self.blk.cfg.sector_bytes as u64;
        match *shape {
            GatherShape::Broadcast { idx } => {
                self.roc_one_sector((base + idx as u64 * EL) / sb);
            }
            GatherShape::UnitStride { first, n } => {
                let s0 = (base + first as u64 * EL) / sb;
                let s1 = (base + (first as u64 + n as u64 - 1) * EL) / sb;
                for s in s0..=s1 {
                    self.roc_one_sector(s);
                }
            }
            GatherShape::Gather { ref addrs, n } => {
                let sector_bytes = self.blk.cfg.sector_bytes;
                let mut sectors = [0u64; WARP_SIZE];
                let mut ns = 0usize;
                mem::for_each_sector(&addrs[..n], sector_bytes, |s| {
                    sectors[ns] = s;
                    ns += 1;
                });
                for &s in &sectors[..ns] {
                    self.roc_one_sector(s);
                }
            }
        }
    }

    #[inline]
    pub(crate) fn roc_one_sector(&mut self, s: u64) {
        if self.blk.roc.access(s) {
            self.blk.tally.roc_hit_sectors += 1;
        } else {
            self.blk.tally.roc_miss_sectors += 1;
            // ROC misses continue down the global path.
            self.blk.l2_access(s);
        }
    }

    /// Gather-load `f32` values from a global buffer.
    pub fn global_load_f32(&mut self, buf: BufF32, idx: &U32x32, mask: Mask) -> F32x32 {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return [0.0; WARP_SIZE];
        }
        let base = self.blk.global_base_addr(buf.0);
        let Some(shape) = self.gather_shape::<4>(
            base,
            |b, i| b.check_global_bounds(buf.0, i, "global f32 load"),
            idx,
            mask,
        ) else {
            return [0.0; WARP_SIZE];
        };
        self.blk.tally.global_load_instructions += 1;
        self.blk.tally.global_load_bytes += 4 * mask.count() as u64;
        self.global_path_shape::<4>(base, &shape);
        let data = self.blk.global_read_f32s(buf);
        gather_values(data, idx, mask, &shape)
    }

    /// Gather-load `f32` values through the read-only data cache
    /// (`const __restrict__` / `__ldg` path).
    pub fn roc_load_f32(&mut self, buf: BufF32, idx: &U32x32, mask: Mask) -> F32x32 {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return [0.0; WARP_SIZE];
        }
        let base = self.blk.global_base_addr(buf.0);
        let Some(shape) = self.gather_shape::<4>(
            base,
            |b, i| b.check_global_bounds(buf.0, i, "roc f32 load"),
            idx,
            mask,
        ) else {
            return [0.0; WARP_SIZE];
        };
        self.blk.tally.roc_load_instructions += 1;
        self.blk.tally.roc_bytes += 4 * mask.count() as u64;
        self.roc_path_shape::<4>(base, &shape);
        let data = self.blk.global_read_f32s(buf);
        gather_values(data, idx, mask, &shape)
    }

    /// Scatter-store `f32` values to a global buffer.
    pub fn global_store_f32(&mut self, buf: BufF32, idx: &U32x32, vals: &F32x32, mask: Mask) {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return;
        }
        let base = self.blk.global_base_addr(buf.0);
        let Some(shape) = self.gather_shape::<4>(
            base,
            |b, i| b.check_global_bounds(buf.0, i, "global f32 store"),
            idx,
            mask,
        ) else {
            return;
        };
        self.blk.tally.global_store_instructions += 1;
        self.blk.tally.global_store_bytes += 4 * mask.count() as u64;
        self.global_path_shape::<4>(base, &shape);
        self.blk.global_write_f32(buf, idx, vals, mask);
    }

    /// Scatter-store `u64` values to a global buffer.
    pub fn global_store_u64(&mut self, buf: BufU64, idx: &U32x32, vals: &U64x32, mask: Mask) {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return;
        }
        let base = self.blk.global_base_addr(buf.0);
        let Some(shape) = self.gather_shape::<8>(
            base,
            |b, i| b.check_global_bounds(buf.0, i, "global u64 store"),
            idx,
            mask,
        ) else {
            return;
        };
        self.blk.tally.global_store_instructions += 1;
        self.blk.tally.global_store_bytes += 8 * mask.count() as u64;
        self.global_path_shape::<8>(base, &shape);
        self.blk.global_write_u64(buf, idx, vals, mask);
    }

    /// Scatter-store `u32` values to a global buffer.
    pub fn global_store_u32(&mut self, buf: BufU32, idx: &U32x32, vals: &U32x32, mask: Mask) {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return;
        }
        let base = self.blk.global_base_addr(buf.0);
        let Some(shape) = self.gather_shape::<4>(
            base,
            |b, i| b.check_global_bounds(buf.0, i, "global u32 store"),
            idx,
            mask,
        ) else {
            return;
        };
        self.blk.tally.global_store_instructions += 1;
        self.blk.tally.global_store_bytes += 4 * mask.count() as u64;
        self.global_path_shape::<4>(base, &shape);
        self.blk.global_write_u32(buf, idx, vals, mask);
    }

    /// Gather-load `u32` values from a global buffer.
    pub fn global_load_u32(&mut self, buf: BufU32, idx: &U32x32, mask: Mask) -> U32x32 {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return [0; WARP_SIZE];
        }
        let base = self.blk.global_base_addr(buf.0);
        let Some(shape) = self.gather_shape::<4>(
            base,
            |b, i| b.check_global_bounds(buf.0, i, "global u32 load"),
            idx,
            mask,
        ) else {
            return [0; WARP_SIZE];
        };
        self.blk.tally.global_load_instructions += 1;
        self.blk.tally.global_load_bytes += 4 * mask.count() as u64;
        self.global_path_shape::<4>(base, &shape);
        let data = self.blk.global_read_u32s(buf);
        gather_values(data, idx, mask, &shape)
    }

    /// Gather-load `u64` values from a global buffer.
    pub fn global_load_u64(&mut self, buf: BufU64, idx: &U32x32, mask: Mask) -> U64x32 {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return [0; WARP_SIZE];
        }
        let base = self.blk.global_base_addr(buf.0);
        let Some(shape) = self.gather_shape::<8>(
            base,
            |b, i| b.check_global_bounds(buf.0, i, "global u64 load"),
            idx,
            mask,
        ) else {
            return [0; WARP_SIZE];
        };
        self.blk.tally.global_load_instructions += 1;
        self.blk.tally.global_load_bytes += 8 * mask.count() as u64;
        self.global_path_shape::<8>(base, &shape);
        let data = self.blk.global_read_u64s(buf);
        gather_values(data, idx, mask, &shape)
    }

    fn atomic_max_multiplicity(idx: &U32x32, mask: Mask) -> u64 {
        let mut seen = [(u32::MAX, 0u64); WARP_SIZE];
        let mut n = 0usize;
        let mut max = 0u64;
        'outer: for lane in mask.lanes() {
            let a = idx[lane];
            for e in seen[..n].iter_mut() {
                if e.0 == a {
                    e.1 += 1;
                    max = max.max(e.1);
                    continue 'outer;
                }
            }
            seen[n] = (a, 1);
            max = max.max(1);
            n += 1;
        }
        max
    }

    /// Same-address multiplicity with shape shortcuts: a broadcast's
    /// multiplicity is the active-lane count, a unit-stride access has
    /// no duplicates at all. Everything else takes the quadratic scan.
    fn atomic_max_multiplicity_fast(idx: &U32x32, mask: Mask) -> u64 {
        if mask.is_prefix() && mask.any() {
            let n = mask.count() as usize;
            let first = idx[0];
            let lanes = &idx[..n];
            if lanes.iter().all(|&v| v == first) {
                return n as u64;
            }
            if lanes
                .iter()
                .enumerate()
                .all(|(k, &v)| v as u64 == first as u64 + k as u64)
            {
                return 1;
            }
        }
        Self::atomic_max_multiplicity(idx, mask)
    }

    /// Dispatch between the shape-shortcut and reference multiplicity
    /// scans (identical results; see `DeviceConfig::scalar_reference`).
    fn multiplicity(&self, idx: &U32x32, mask: Mask) -> u64 {
        if self.scalar_ref() {
            Self::atomic_max_multiplicity(idx, mask)
        } else {
            Self::atomic_max_multiplicity_fast(idx, mask)
        }
    }

    /// Warp-wide `atomicAdd` on a global `u64` buffer. Serialization is
    /// charged from the actual same-address multiplicity in the warp.
    pub fn global_atomic_add_u64(&mut self, buf: BufU64, idx: &U32x32, vals: &U64x32, mask: Mask) {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return;
        }
        let base = self.blk.global_base_addr(buf.0);
        let Some(shape) = self.gather_shape::<8>(
            base,
            |b, i| b.check_global_bounds(buf.0, i, "global u64 atomicAdd"),
            idx,
            mask,
        ) else {
            return;
        };
        self.blk.tally.global_atomics += 1;
        self.blk.tally.global_atomic_serial += self.multiplicity(idx, mask);
        self.global_path_shape::<8>(base, &shape);
        self.blk.global_rmw_add_u64(buf, idx, vals, mask);
    }

    /// Warp-wide `atomicAdd` on a global `u32` buffer; returns the
    /// pre-add values each lane observed (as CUDA's `atomicAdd` does) —
    /// used for Type-III output-slot allocation.
    pub fn global_atomic_add_u32(
        &mut self,
        buf: BufU32,
        idx: &U32x32,
        vals: &U32x32,
        mask: Mask,
    ) -> U32x32 {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return [0; WARP_SIZE];
        }
        let base = self.blk.global_base_addr(buf.0);
        let Some(shape) = self.gather_shape::<4>(
            base,
            |b, i| b.check_global_bounds(buf.0, i, "global u32 atomicAdd"),
            idx,
            mask,
        ) else {
            return [0; WARP_SIZE];
        };
        self.blk.tally.global_atomics += 1;
        self.blk.tally.global_atomic_serial += self.multiplicity(idx, mask);
        self.global_path_shape::<4>(base, &shape);
        self.blk.global_rmw_add_u32(buf, idx, vals, mask)
    }

    // ---------------------------------------------------------------
    // shared memory
    // ---------------------------------------------------------------

    /// Bounds-check a shared-memory warp access and classify its index
    /// pattern. Fault behavior matches the scalar loop exactly (see
    /// [`Self::gather_shape`] — same argument): a broadcast needs one
    /// check, a unit-stride pattern only its last (largest) lane's, and
    /// prefix-mask accesses skip compaction entirely because the active
    /// indices are already the `idx[..n]` slice.
    fn shm_shape(
        &mut self,
        array: usize,
        idx: &U32x32,
        mask: Mask,
        what: &str,
    ) -> Option<ShmShape> {
        if !self.scalar_ref() && mask.is_prefix() {
            let n = mask.count() as usize;
            let first = idx[0];
            let lanes = &idx[..n];
            if lanes.iter().all(|&v| v == first) {
                if let Err(e) = self.blk.shared.check_bounds(array, first, what) {
                    self.blk.record_fault(e);
                    return None;
                }
                return Some(ShmShape::Broadcast { n });
            }
            if lanes
                .iter()
                .enumerate()
                .all(|(k, &v)| v as u64 == first as u64 + k as u64)
            {
                if self
                    .blk
                    .shared
                    .check_bounds(array, idx[n - 1], what)
                    .is_ok()
                {
                    return Some(ShmShape::UnitStride { n });
                }
                // Out of bounds somewhere: fall through to the scalar
                // loop so the fault blames the first offending lane.
            } else {
                for &v in lanes {
                    if let Err(e) = self.blk.shared.check_bounds(array, v, what) {
                        self.blk.record_fault(e);
                        return None;
                    }
                }
                return Some(ShmShape::Prefix { n });
            }
        }
        let mut idxs = [0u32; WARP_SIZE];
        let mut n = 0usize;
        for lane in mask.lanes() {
            if let Err(e) = self.blk.shared.check_bounds(array, idx[lane], what) {
                self.blk.record_fault(e);
                return None;
            }
            idxs[n] = idx[lane];
            n += 1;
        }
        Some(ShmShape::Packed { idxs, n })
    }

    /// The index slice to feed the bank-conflict counter. A broadcast's
    /// lanes all carry one index, so a single element suffices — the
    /// conflict degree depends only on the distinct-word set.
    #[inline]
    fn shm_charge_idxs<'s>(idx: &'s U32x32, shape: &'s ShmShape) -> &'s [u32] {
        match shape {
            ShmShape::Broadcast { .. } => &idx[..1],
            _ => shape.idxs(idx),
        }
    }

    fn shm_charge_access(&mut self, array: usize, idxs: &[u32], bytes_per_lane: u64, lanes: u64) {
        let txns = self.blk.shared.transactions_for(array, idxs);
        let t = &mut self.blk.tally;
        t.shared_transactions += txns;
        t.shared_bank_replays += txns.saturating_sub(1);
        t.shared_bytes += bytes_per_lane * lanes;
    }

    /// Store `f32` values to a shared array.
    pub fn shared_store_f32(&mut self, arr: ShmF32, idx: &U32x32, vals: &F32x32, mask: Mask) {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return;
        }
        let Some(shape) = self.shm_shape(arr.0, idx, mask, "shared f32 store") else {
            return;
        };
        self.blk.tally.shared_store_instructions += 1;
        let charge_idxs = Self::shm_charge_idxs(idx, &shape);
        self.shm_charge_access(arr.0, charge_idxs, 4, mask.count() as u64);
        let data = self.blk.shared.f32s_mut(arr);
        if let ShmShape::UnitStride { n } = shape {
            let first = idx[0] as usize;
            data[first..first + n].copy_from_slice(&vals[..n]);
        } else {
            for lane in mask.lanes() {
                data[idx[lane] as usize] = vals[lane];
            }
        }
    }

    /// Load `f32` values from a shared array.
    pub fn shared_load_f32(&mut self, arr: ShmF32, idx: &U32x32, mask: Mask) -> F32x32 {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return [0.0; WARP_SIZE];
        }
        let Some(shape) = self.shm_shape(arr.0, idx, mask, "shared f32 load") else {
            return [0.0; WARP_SIZE];
        };
        self.blk.tally.shared_load_instructions += 1;
        let charge_idxs = Self::shm_charge_idxs(idx, &shape);
        self.shm_charge_access(arr.0, charge_idxs, 4, mask.count() as u64);
        let data = self.blk.shared.f32s(arr);
        shm_gather_values(data, idx, mask, &shape)
    }

    /// Load `u64` values from a shared array.
    pub fn shared_load_u64(&mut self, arr: ShmU64, idx: &U32x32, mask: Mask) -> U64x32 {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return [0; WARP_SIZE];
        }
        let Some(shape) = self.shm_shape(arr.0, idx, mask, "shared u64 load") else {
            return [0; WARP_SIZE];
        };
        self.blk.tally.shared_load_instructions += 1;
        let charge_idxs = Self::shm_charge_idxs(idx, &shape);
        self.shm_charge_access(arr.0, charge_idxs, 8, mask.count() as u64);
        let data = self.blk.shared.u64s(arr);
        shm_gather_values(data, idx, mask, &shape)
    }

    /// Store `u64` values to a shared array.
    pub fn shared_store_u64(&mut self, arr: ShmU64, idx: &U32x32, vals: &U64x32, mask: Mask) {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return;
        }
        let Some(shape) = self.shm_shape(arr.0, idx, mask, "shared u64 store") else {
            return;
        };
        self.blk.tally.shared_store_instructions += 1;
        let charge_idxs = Self::shm_charge_idxs(idx, &shape);
        self.shm_charge_access(arr.0, charge_idxs, 8, mask.count() as u64);
        let data = self.blk.shared.u64s_mut(arr);
        if let ShmShape::UnitStride { n } = shape {
            let first = idx[0] as usize;
            data[first..first + n].copy_from_slice(&vals[..n]);
        } else {
            for lane in mask.lanes() {
                data[idx[lane] as usize] = vals[lane];
            }
        }
    }

    /// Warp-wide `atomicAdd` on a shared `u32` array — the paper's
    /// privatized-output update (Algorithm 3, line 7). Contention is
    /// charged from the actual same-address multiplicity; distinct
    /// addresses additionally pay the bank-conflict rule.
    pub fn shared_atomic_add_u32(&mut self, arr: ShmU32, idx: &U32x32, vals: &U32x32, mask: Mask) {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return;
        }
        let Some(shape) = self.shm_shape(arr.0, idx, mask, "shared u32 atomicAdd") else {
            return;
        };
        let mult = self.multiplicity(idx, mask);
        let bank_txns = self
            .blk
            .shared
            .transactions_for(arr.0, Self::shm_charge_idxs(idx, &shape));
        let t = &mut self.blk.tally;
        t.shared_atomics += 1;
        t.shared_atomic_serial += mult;
        // Total serialized shared transactions: one per replay group —
        // bank conflicts among distinct addresses plus same-address
        // contention replays.
        t.shared_transactions += bank_txns + mult - 1;
        t.shared_bank_replays += bank_txns.saturating_sub(1);
        t.shared_bytes += 4 * mask.count() as u64;
        let data = self.blk.shared.u32s_mut(arr);
        for lane in mask.lanes() {
            data[idx[lane] as usize] = data[idx[lane] as usize].wrapping_add(vals[lane]);
        }
    }

    /// Store `u32` values to a shared array.
    pub fn shared_store_u32(&mut self, arr: ShmU32, idx: &U32x32, vals: &U32x32, mask: Mask) {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return;
        }
        let Some(shape) = self.shm_shape(arr.0, idx, mask, "shared u32 store") else {
            return;
        };
        self.blk.tally.shared_store_instructions += 1;
        let charge_idxs = Self::shm_charge_idxs(idx, &shape);
        self.shm_charge_access(arr.0, charge_idxs, 4, mask.count() as u64);
        let data = self.blk.shared.u32s_mut(arr);
        if let ShmShape::UnitStride { n } = shape {
            let first = idx[0] as usize;
            data[first..first + n].copy_from_slice(&vals[..n]);
        } else {
            for lane in mask.lanes() {
                data[idx[lane] as usize] = vals[lane];
            }
        }
    }

    /// Load `u32` values from a shared array.
    pub fn shared_load_u32(&mut self, arr: ShmU32, idx: &U32x32, mask: Mask) -> U32x32 {
        self.charge(mask);
        if self.blk.dead() || !mask.any() {
            return [0; WARP_SIZE];
        }
        let Some(shape) = self.shm_shape(arr.0, idx, mask, "shared u32 load") else {
            return [0; WARP_SIZE];
        };
        self.blk.tally.shared_load_instructions += 1;
        let charge_idxs = Self::shm_charge_idxs(idx, &shape);
        self.shm_charge_access(arr.0, charge_idxs, 4, mask.count() as u64);
        let data = self.blk.shared.u32s(arr);
        shm_gather_values(data, idx, mask, &shape)
    }

    // ---------------------------------------------------------------
    // warp shuffle (§IV-E2)
    // ---------------------------------------------------------------

    fn check_shuffle(&mut self) -> bool {
        if !self.blk.cfg.has_shuffle {
            let device = self.blk.cfg.name;
            self.blk
                .record_fault(SimError::ShuffleUnsupported { device });
            return false;
        }
        true
    }

    /// Broadcast lane `src_lane`'s value to all lanes
    /// (`__shfl_sync(…, src_lane)`), the primitive of the paper's
    /// register-tiling technique (Algorithm 4, line 6).
    pub fn shfl_bcast_f32(&mut self, vals: &F32x32, src_lane: u32, mask: Mask) -> F32x32 {
        self.charge(mask);
        if !self.check_shuffle() || self.blk.dead() {
            return [0.0; WARP_SIZE];
        }
        self.blk.tally.shuffle_instructions += 1;
        let v = vals[(src_lane as usize) % WARP_SIZE];
        std::array::from_fn(|i| if mask.lane(i) { v } else { 0.0 })
    }

    /// Broadcast lane `src_lane`'s `u32` value to all lanes — used by the
    /// warp-aggregated Type-III output allocator to share the base output
    /// slot obtained by one lane's `atomicAdd`.
    pub fn shfl_bcast_u32(&mut self, vals: &U32x32, src_lane: u32, mask: Mask) -> U32x32 {
        self.charge(mask);
        if !self.check_shuffle() || self.blk.dead() {
            return [0; WARP_SIZE];
        }
        self.blk.tally.shuffle_instructions += 1;
        let v = vals[(src_lane as usize) % WARP_SIZE];
        std::array::from_fn(|i| if mask.lane(i) { v } else { 0 })
    }

    /// `__shfl_down_sync`: lane `i` receives lane `i + delta`'s value.
    /// Used by warp-level reductions (Type-I output stage).
    pub fn shfl_down_u64(&mut self, vals: &U64x32, delta: u32, mask: Mask) -> U64x32 {
        self.charge(mask);
        if !self.check_shuffle() || self.blk.dead() {
            return [0; WARP_SIZE];
        }
        self.blk.tally.shuffle_instructions += 1;
        std::array::from_fn(|i| {
            let src = i + delta as usize;
            if mask.lane(i) && src < WARP_SIZE {
                vals[src]
            } else if mask.lane(i) {
                vals[i]
            } else {
                0
            }
        })
    }

    // ---------------------------------------------------------------
    // divergence-aware looping
    // ---------------------------------------------------------------

    /// Execute a loop whose per-lane trip counts may differ — the SIMT
    /// hardware behaviour the paper's load-balancing technique (§IV-E1)
    /// eliminates. The warp iterates `max(trips)` times; each iteration
    /// runs the body under the mask of lanes still in the loop and pays
    /// one control instruction; iterations with a *partially* active mask
    /// additionally count as `divergent_iterations` (re-convergence
    /// penalty in the timing model).
    pub fn divergent_loop(
        &mut self,
        trips: &U32x32,
        mask: Mask,
        mut body: impl FnMut(&mut Self, u32, Mask),
    ) {
        let scalar_ref = self.scalar_ref();
        let max_trips = if scalar_ref {
            mask.lanes().map(|l| trips[l]).max().unwrap_or(0)
        } else {
            // Full-width max; inactive lanes contribute 0, matching the
            // reference's `unwrap_or(0)`.
            let mut mx = 0u32;
            for (i, &t) in trips.iter().enumerate() {
                let v = if mask.lane(i) { t } else { 0 };
                mx = mx.max(v);
            }
            mx
        };
        for j in 0..max_trips {
            let active = if scalar_ref {
                Mask::from_fn(|i| mask.lane(i) && trips[i] > j)
            } else {
                let mut bits = 0u32;
                for (i, &t) in trips.iter().enumerate() {
                    bits |= ((t > j) as u32) << i;
                }
                Mask(bits & mask.0)
            };
            if !active.any() {
                break;
            }
            self.charge_control(1, active);
            if active != mask {
                self.blk.tally.divergent_iterations += 1;
            }
            body(self, j, active);
            if self.blk.dead() {
                return;
            }
        }
        // Final (failing) loop test.
        if max_trips > 0 {
            self.charge_control(1, mask);
        }
    }

    // ---------------------------------------------------------------
    // compiled-pass helpers
    // ---------------------------------------------------------------

    /// Compiled form of the `*-Out` family's cross-copy reduction loop:
    /// `copies` iterations of *unit-stride load `buf[c·stride + gid]`,
    /// address + accumulate ALU, widen into `acc`*, plus the loop-control
    /// charge (`charge_control(m+1)`), as one call.
    ///
    /// Tally effects are bit-identical to the op-by-op loop: every copy
    /// still charges 3 warp instructions (2 of them ALU), one coalesced
    /// load, `4·lanes` bytes, and one ascending unit-stride L2 sector
    /// run, in copy order. Only the host-side interpreter stats differ
    /// (one compiled dispatch instead of one per operation).
    /// Returns `false` with no side effects — including the control
    /// charge — on any declined shape (scalar-reference mode, compiled
    /// route off, a dead block, fewer than two active lanes or a
    /// non-prefix mask, non-contiguous `gid`s, an access that could
    /// fault, or a read that would abandon speculation), and the caller
    /// runs the op-by-op loop.
    pub fn compiled_copy_reduce_u32(
        &mut self,
        buf: BufU32,
        gid: &U32x32,
        stride: u32,
        copies: u32,
        acc: &mut U64x32,
        mask: Mask,
    ) -> bool {
        if self.scalar_ref()
            || !self.blk.cfg.compiled
            || self.blk.dead()
            || copies == 0
            || !mask.is_prefix()
            || mask.count() < 2
        {
            return false;
        }
        let n = mask.count() as usize;
        let first = gid[0] as u64;
        if !gid[..n]
            .iter()
            .enumerate()
            .all(|(k, &v)| v as u64 == first + k as u64)
        {
            return false;
        }
        let last = (copies as u64 - 1) * stride as u64 + first + n as u64 - 1;
        if u32::try_from(last).is_err()
            || self
                .blk
                .check_global_bounds(buf.0, last as u32, "global u32 load")
                .is_err()
            || self.blk.read_would_abandon(buf.0)
        {
            return false;
        }

        let a = n as u64;
        let m = copies as u64;
        {
            let t = &mut self.blk.tally;
            // The copy loop's control charge (m tests + 1 failing test)
            // plus the per-copy load/address/accumulate instructions.
            charge_lanes(t, (m + 1) + 3 * m, a);
            t.control_instructions += m + 1;
            t.alu_instructions += 2 * m;
            t.global_load_instructions += m;
            t.global_load_bytes += m * 4 * a;
        }
        // The stateful L2 stream keeps its op-by-op granularity and
        // order: one ascending unit-stride sector run per copy.
        let base = self.blk.global_base_addr(buf.0);
        let sb = self.blk.cfg.sector_bytes as u64;
        for c in 0..m {
            let e0 = c * stride as u64 + first;
            let s0 = (base + e0 * 4) / sb;
            let s1 = (base + (e0 + a - 1) * 4) / sb;
            self.blk.l2_access_run(s0, (s1 - s0 + 1) as u32);
        }
        {
            // Read-set bookkeeping; cannot abandon (pre-checked). The
            // accumulation runs flat over each copy's contiguous row.
            let data = self.blk.global_read_u32s(buf);
            for c in 0..copies {
                let off = c as usize * stride as usize + first as usize;
                for (al, &v) in acc[..n].iter_mut().zip(data[off..off + n].iter()) {
                    *al += v as u64;
                }
            }
        }
        let interp = &mut self.blk.interp;
        interp.dispatches += 1;
        interp.compiled_ops += 1;
        interp.compiled_lane_ops += (4 * m + 1) * a;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use crate::device::Device;
    use crate::exec::{Kernel, KernelResources, LaunchConfig};

    /// Harness: run a single-block closure kernel and return the device +
    /// merged tally.
    struct ClosureKernel<F: Fn(&mut BlockCtx<'_>) + Sync> {
        f: F,
        res: KernelResources,
    }
    impl<F: Fn(&mut BlockCtx<'_>) + Sync> Kernel for ClosureKernel<F> {
        fn name(&self) -> &'static str {
            "closure"
        }
        fn resources(&self) -> KernelResources {
            self.res
        }
        fn run_block(&self, blk: &mut BlockCtx<'_>) {
            (self.f)(blk)
        }
    }

    fn run_one_block<F: Fn(&mut BlockCtx<'_>) + Sync>(
        dev: &mut Device,
        block_dim: u32,
        f: F,
    ) -> crate::exec::KernelRun {
        let k = ClosureKernel {
            f,
            res: KernelResources::new(16, 48 * 1024),
        };
        dev.launch(&k, LaunchConfig::new(1, block_dim))
    }

    #[test]
    fn coalesced_load_counts_four_sectors_per_warp() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let buf = dev.alloc_f32((0..1024).map(|i| i as f32).collect());
        let run = run_one_block(&mut dev, 64, move |blk| {
            blk.for_each_warp(|w| {
                let tid = w.thread_ids();
                let v = w.global_load_f32(buf, &tid, Mask::FULL);
                assert_eq!(v[3], (w.warp_id * 32 + 3) as f32);
            });
        });
        // 2 warps × 4 sectors, all cold -> DRAM.
        assert_eq!(run.tally.global_load_instructions, 2);
        assert_eq!(run.tally.dram_sectors, 8);
        assert_eq!(run.tally.global_load_bytes, 2 * 32 * 4);
    }

    #[test]
    fn second_load_hits_l2() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let buf = dev.alloc_f32(vec![1.0; 64]);
        let run = run_one_block(&mut dev, 32, move |blk| {
            blk.for_each_warp(|w| {
                let tid = w.thread_ids();
                w.global_load_f32(buf, &tid, Mask::FULL);
                w.global_load_f32(buf, &tid, Mask::FULL);
            });
        });
        assert_eq!(run.tally.dram_sectors, 4);
        assert_eq!(run.tally.l2_hit_sectors, 4);
    }

    #[test]
    fn roc_load_fills_then_hits() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let buf = dev.alloc_f32(vec![2.0; 64]);
        let run = run_one_block(&mut dev, 32, move |blk| {
            blk.for_each_warp(|w| {
                let tid = w.thread_ids();
                let v = w.roc_load_f32(buf, &tid, Mask::FULL);
                assert_eq!(v[0], 2.0);
                w.roc_load_f32(buf, &tid, Mask::FULL);
                w.roc_load_f32(buf, &tid, Mask::FULL);
            });
        });
        assert_eq!(run.tally.roc_load_instructions, 3);
        assert_eq!(run.tally.roc_miss_sectors, 4);
        assert_eq!(run.tally.roc_hit_sectors, 8);
        assert_eq!(run.tally.dram_sectors, 4, "ROC misses flow to DRAM");
    }

    #[test]
    fn shared_atomic_contention_is_measured() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let run = run_one_block(&mut dev, 32, |blk| {
            let hist = blk.shared_alloc_u32(64);
            blk.for_each_warp(|w| {
                // All 32 lanes hit bucket 5: contention degree 32.
                let idx = [5u32; 32];
                w.shared_atomic_add_u32(hist, &idx, &[1; 32], Mask::FULL);
                // Conflict-free: lanes hit distinct buckets.
                let spread = w.lane_ids();
                w.shared_atomic_add_u32(hist, &spread, &[1; 32], Mask::FULL);
            });
            assert_eq!(blk.shared_u32s(hist)[5], 32 + 1);
        });
        assert_eq!(run.tally.shared_atomics, 2);
        assert_eq!(run.tally.shared_atomic_serial, 32 + 1);
    }

    #[test]
    fn global_atomics_accumulate_and_serialize() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let out = dev.alloc_u64(vec![0; 8]);
        let run = run_one_block(&mut dev, 64, move |blk| {
            blk.for_each_warp(|w| {
                let idx = [0u32; 32];
                w.global_atomic_add_u64(out, &idx, &[1; 32], Mask::FULL);
            });
        });
        assert_eq!(dev.u64_slice(out)[0], 64);
        assert_eq!(run.tally.global_atomics, 2);
        assert_eq!(run.tally.global_atomic_serial, 64);
    }

    #[test]
    fn shuffle_broadcast_moves_register_content() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let run = run_one_block(&mut dev, 32, |blk| {
            blk.for_each_warp(|w| {
                let vals: F32x32 = std::array::from_fn(|i| i as f32 * 10.0);
                let b = w.shfl_bcast_f32(&vals, 7, Mask::FULL);
                assert!(b.iter().all(|&x| x == 70.0));
            });
        });
        assert_eq!(run.tally.shuffle_instructions, 1);
    }

    #[test]
    fn shuffle_faults_on_fermi() {
        let mut dev = Device::new(DeviceConfig::fermi_gtx580());
        let k = ClosureKernel {
            f: |blk: &mut BlockCtx<'_>| {
                blk.for_each_warp(|w| {
                    let vals = [0.0; 32];
                    w.shfl_bcast_f32(&vals, 0, Mask::FULL);
                });
            },
            res: KernelResources::new(16, 0),
        };
        let err = dev.try_launch(&k, LaunchConfig::new(1, 32)).unwrap_err();
        assert!(matches!(err, SimError::ShuffleUnsupported { .. }));
    }

    #[test]
    fn divergent_loop_tracks_divergence() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let run = run_one_block(&mut dev, 32, |blk| {
            blk.for_each_warp(|w| {
                // Triangular trip counts, like the paper's intra-block
                // loop: lane i runs 31-i iterations.
                let trips: U32x32 = std::array::from_fn(|i| 31 - i as u32);
                let mut total = 0u64;
                w.divergent_loop(&trips, Mask::FULL, |w2, _j, active| {
                    total += active.count() as u64;
                    w2.charge_alu(1, active);
                });
                // Σ (31-i) = 496 useful lane-iterations.
                assert_eq!(total, 496);
            });
        });
        // 31 iterations total; lane 31 has zero trips, so even the first
        // iteration is partially masked -> all 31 are divergent.
        assert_eq!(run.tally.divergent_iterations, 31);
    }

    #[test]
    fn uniform_loop_has_no_divergence() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let run = run_one_block(&mut dev, 32, |blk| {
            blk.for_each_warp(|w| {
                let trips = [16u32; 32];
                w.divergent_loop(&trips, Mask::FULL, |w2, _j, active| {
                    assert!(active.all());
                    w2.charge_alu(1, active);
                });
            });
        });
        assert_eq!(run.tally.divergent_iterations, 0);
        assert_eq!(run.tally.control_instructions, 17); // 16 tests + exit
    }

    #[test]
    fn out_of_bounds_load_faults_launch() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let buf = dev.alloc_f32(vec![0.0; 8]);
        let k = ClosureKernel {
            f: move |blk: &mut BlockCtx<'_>| {
                blk.for_each_warp(|w| {
                    let idx = [100u32; 32];
                    w.global_load_f32(buf, &idx, Mask::FULL);
                });
            },
            res: KernelResources::new(16, 0),
        };
        let err = dev.try_launch(&k, LaunchConfig::new(1, 32)).unwrap_err();
        assert!(matches!(err, SimError::OutOfBounds { .. }));
    }

    #[test]
    fn arithmetic_helpers_compute_and_charge() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let run = run_one_block(&mut dev, 32, |blk| {
            blk.for_each_warp(|w| {
                let a: F32x32 = std::array::from_fn(|i| i as f32);
                let b: F32x32 = std::array::from_fn(|_| 2.0);
                let d = w.sub_f32x(&a, &b, Mask::FULL);
                let sq = w.fma_f32x(&d, &d, &[0.0; 32], Mask::FULL);
                let r = w.sqrt_f32x(&sq, Mask::FULL);
                assert_eq!(r[5], 3.0);
                let near = w.lt_f32(&r, 2.5, Mask::FULL);
                assert_eq!(near.count(), 5); // lanes 0..4 -> |i-2| < 2.5
            });
        });
        assert_eq!(run.tally.alu_instructions, 4);
    }

    #[test]
    fn masked_lanes_do_not_touch_memory() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let buf = dev.alloc_f32(vec![1.0; 4]);
        // Lanes ≥ 4 would be out of bounds but are masked off.
        let run = run_one_block(&mut dev, 32, move |blk| {
            blk.for_each_warp(|w| {
                let tid = w.thread_ids();
                let m = w.mask_lt(&tid, 4);
                let v = w.global_load_f32(buf, &tid, m);
                assert_eq!(v[2], 1.0);
                assert_eq!(v[10], 0.0);
            });
        });
        assert_eq!(run.tally.global_load_bytes, 16);
        assert_eq!(run.tally.predicated_lane_slots, 28);
    }
}
