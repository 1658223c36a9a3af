//! Device global memory: typed buffers addressed by opaque handles.
//!
//! A buffer lives until it is freed ([`GlobalMem::free`], or the end of
//! the [`crate::Device::scoped`] call that allocated it) or its
//! [`crate::Device`] is dropped. Kernels refer to buffers through the
//! `Copy` handles [`BufF32`], [`BufU32`] and [`BufU64`], mirroring how
//! CUDA kernels capture device pointers by value.
//!
//! Freeing drops the host storage at once, but the buffer's simulated
//! address range is never handed out again: base addresses only grow,
//! so adding frees to a program moves none of its addresses, sector
//! ids or tallies. (A launch's tally does not depend on absolute
//! addresses anyway: caches start cold at every launch and every base
//! is 256-byte aligned.) Handle slots *are* reused,
//! under a generation check, so the bookkeeping stays as large as the
//! most buffers ever live at once. A handle whose buffer was freed is
//! stale: a kernel access through it faults with
//! [`SimError::FreedBuffer`], and freeing it again is refused the same
//! way, so it can never reach the buffer that now occupies its slot.

use crate::error::SimError;

/// Identity of one allocation: a slot index plus the slot's generation
/// when the buffer was allocated. Opaque outside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufId {
    pub(crate) slot: u32,
    gen: u64,
}

/// Handle to an `f32` buffer in global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufF32(pub(crate) BufId);

/// Handle to a `u32` buffer in global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufU32(pub(crate) BufId);

/// Handle to a `u64` buffer in global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufU64(pub(crate) BufId);

/// A handle of any element type, for [`GlobalMem::free`] and
/// [`crate::Device::free`].
pub trait DeviceBuffer: Copy {
    /// The allocation this handle names.
    fn id(self) -> BufId;
}

impl DeviceBuffer for BufF32 {
    fn id(self) -> BufId {
        self.0
    }
}

impl DeviceBuffer for BufU32 {
    fn id(self) -> BufId {
        self.0
    }
}

impl DeviceBuffer for BufU64 {
    fn id(self) -> BufId {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Storage {
    F32(Vec<f32>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

impl Storage {
    fn elem_bytes(&self) -> u64 {
        match self {
            Storage::F32(_) | Storage::U32(_) => 4,
            Storage::U64(_) => 8,
        }
    }

    fn len(&self) -> usize {
        match self {
            Storage::F32(v) => v.len(),
            Storage::U32(v) => v.len(),
            Storage::U64(v) => v.len(),
        }
    }

    fn bytes(&self) -> u64 {
        self.elem_bytes() * self.len() as u64
    }
}

/// One handle slot: the live buffer (if any) and its placement.
#[derive(Debug)]
struct Slot {
    /// Bumped on every free, so handles to earlier occupants go stale
    /// (64 bits: it never wraps).
    gen: u64,
    /// Allocation sequence number of the occupant (scope marks).
    seq: u64,
    base: u64,
    data: Option<Storage>,
}

/// The global-memory address space of a simulated device.
///
/// Each buffer is placed at a distinct 256-byte-aligned base address so
/// sector ids never collide between buffers (matching `cudaMalloc`'s
/// alignment guarantee).
#[derive(Debug, Default)]
pub struct GlobalMem {
    slots: Vec<Slot>,
    /// Slots whose buffer was freed, ready for reuse.
    vacant: Vec<u32>,
    next_base: u64,
    /// Allocations made so far; the next one gets this sequence number.
    next_seq: u64,
    live_bytes: u64,
}

/// Alignment of every allocation (CUDA guarantees ≥ 256 bytes).
const ALLOC_ALIGN: u64 = 256;

impl GlobalMem {
    pub fn new() -> Self {
        GlobalMem {
            // Leave address 0 unused so a base address is never 0.
            next_base: ALLOC_ALIGN,
            ..Default::default()
        }
    }

    fn push(&mut self, s: Storage) -> BufId {
        let bytes = s.bytes();
        let base = self.next_base;
        self.next_base += bytes.div_ceil(ALLOC_ALIGN).max(1) * ALLOC_ALIGN;
        self.live_bytes += bytes;
        let seq = self.next_seq;
        self.next_seq += 1;
        let fresh = Slot {
            gen: 0,
            seq,
            base,
            data: Some(s),
        };
        let slot = match self.vacant.pop() {
            Some(slot) => {
                let entry = &mut self.slots[slot as usize];
                *entry = Slot {
                    gen: entry.gen,
                    ..fresh
                };
                slot
            }
            None => {
                self.slots.push(fresh);
                (self.slots.len() - 1) as u32
            }
        };
        BufId {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    pub fn alloc_f32(&mut self, data: Vec<f32>) -> BufF32 {
        BufF32(self.push(Storage::F32(data)))
    }

    pub fn alloc_u32(&mut self, data: Vec<u32>) -> BufU32 {
        BufU32(self.push(Storage::U32(data)))
    }

    pub fn alloc_u64(&mut self, data: Vec<u64>) -> BufU64 {
        BufU64(self.push(Storage::U64(data)))
    }

    /// Free a buffer: its host storage is dropped and its handle (and
    /// every copy of it) goes stale. Freeing a stale handle is refused
    /// with [`SimError::FreedBuffer`] and changes nothing.
    pub fn free(&mut self, b: impl DeviceBuffer) -> Result<(), SimError> {
        let id = b.id();
        if self.storage(id).is_none() {
            return Err(SimError::FreedBuffer {
                what: "free".to_string(),
            });
        }
        self.release(id.slot);
        Ok(())
    }

    /// Free `slot`'s buffer, if it holds one, and stale its handles.
    fn release(&mut self, slot: u32) {
        let entry = &mut self.slots[slot as usize];
        if let Some(data) = entry.data.take() {
            entry.gen += 1;
            self.live_bytes -= data.bytes();
            self.vacant.push(slot);
        }
    }

    /// Sequence number the next allocation will get: a scope mark for
    /// [`Self::free_since`].
    pub(crate) fn alloc_mark(&self) -> u64 {
        self.next_seq
    }

    /// Free every live buffer allocated at or after `mark`.
    pub(crate) fn free_since(&mut self, mark: u64) {
        for slot in 0..self.slots.len() as u32 {
            if self.slots[slot as usize].seq >= mark {
                self.release(slot);
            }
        }
    }

    /// The live storage `id` names, or `None` if it was freed.
    fn storage(&self, id: BufId) -> Option<&Storage> {
        self.slots
            .get(id.slot as usize)
            .filter(|s| s.gen == id.gen)
            .and_then(|s| s.data.as_ref())
    }

    fn storage_mut(&mut self, id: BufId) -> Option<&mut Storage> {
        self.slots
            .get_mut(id.slot as usize)
            .filter(|s| s.gen == id.gen)
            .and_then(|s| s.data.as_mut())
    }

    /// Base byte address of buffer `id` in the flat device address
    /// space. A stale handle (or one from another device) may yield
    /// any base: every access through it faults in
    /// [`Self::check_bounds`] before the base is used.
    pub(crate) fn base_addr(&self, id: BufId) -> u64 {
        self.slots.get(id.slot as usize).map_or(0, |s| s.base)
    }

    pub fn f32_slice(&self, b: BufF32) -> &[f32] {
        match self.storage(b.0) {
            Some(Storage::F32(v)) => v,
            Some(_) => unreachable!("handle type guarantees f32 storage"),
            None => panic!("{STALE}"),
        }
    }

    pub fn f32_slice_mut(&mut self, b: BufF32) -> &mut [f32] {
        match self.storage_mut(b.0) {
            Some(Storage::F32(v)) => v,
            Some(_) => unreachable!("handle type guarantees f32 storage"),
            None => panic!("{STALE}"),
        }
    }

    pub fn u32_slice(&self, b: BufU32) -> &[u32] {
        match self.storage(b.0) {
            Some(Storage::U32(v)) => v,
            Some(_) => unreachable!("handle type guarantees u32 storage"),
            None => panic!("{STALE}"),
        }
    }

    pub fn u32_slice_mut(&mut self, b: BufU32) -> &mut [u32] {
        match self.storage_mut(b.0) {
            Some(Storage::U32(v)) => v,
            Some(_) => unreachable!("handle type guarantees u32 storage"),
            None => panic!("{STALE}"),
        }
    }

    pub fn u64_slice(&self, b: BufU64) -> &[u64] {
        match self.storage(b.0) {
            Some(Storage::U64(v)) => v,
            Some(_) => unreachable!("handle type guarantees u64 storage"),
            None => panic!("{STALE}"),
        }
    }

    pub fn u64_slice_mut(&mut self, b: BufU64) -> &mut [u64] {
        match self.storage_mut(b.0) {
            Some(Storage::U64(v)) => v,
            Some(_) => unreachable!("handle type guarantees u64 storage"),
            None => panic!("{STALE}"),
        }
    }

    /// Bounds-check an element access, reporting a kernel-style fault.
    /// An access through a stale handle faults as
    /// [`SimError::FreedBuffer`], whatever the index.
    pub(crate) fn check_bounds(&self, id: BufId, idx: u32, what: &str) -> Result<(), SimError> {
        let Some(data) = self.storage(id) else {
            return Err(SimError::FreedBuffer {
                what: what.to_string(),
            });
        };
        let len = data.len();
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

    /// Total bytes of the live buffers.
    pub fn allocated_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Apply a speculative block's write log in program order (parallel
    /// engine commit path). Ops name slots whose handles were checked
    /// live, and indices in bounds, when logged; nothing is freed
    /// during a launch.
    pub(crate) fn apply_log(&mut self, log: &[crate::mem::replay::WriteOp]) {
        use crate::mem::replay::WriteOp;
        for &op in log {
            let slot = match op {
                WriteOp::StoreF32 { buf, .. }
                | WriteOp::StoreU32 { buf, .. }
                | WriteOp::StoreU64 { buf, .. }
                | WriteOp::AddU64 { buf, .. } => buf,
            };
            let data = self.slots[slot as usize]
                .data
                .as_mut()
                .expect("logged writes target live buffers");
            match (op, data) {
                (WriteOp::StoreF32 { idx, val, .. }, Storage::F32(v)) => v[idx as usize] = val,
                (WriteOp::StoreU32 { idx, val, .. }, Storage::U32(v)) => v[idx as usize] = val,
                (WriteOp::StoreU64 { idx, val, .. }, Storage::U64(v)) => v[idx as usize] = val,
                (WriteOp::AddU64 { idx, val, .. }, Storage::U64(v)) => {
                    let slot = &mut v[idx as usize];
                    *slot = slot.wrapping_add(val);
                }
                _ => unreachable!("handle type guarantees the logged element type"),
            }
        }
    }
}

/// Host access through a stale handle is a bug in the caller.
const STALE: &str = "device buffer used after it was freed";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_readback() {
        let mut g = GlobalMem::new();
        let b = g.alloc_f32(vec![1.0, 2.0, 3.0]);
        assert_eq!(g.f32_slice(b), &[1.0, 2.0, 3.0]);
        g.f32_slice_mut(b)[1] = 9.0;
        assert_eq!(g.f32_slice(b)[1], 9.0);
    }

    #[test]
    fn buffers_get_disjoint_aligned_bases() {
        let mut g = GlobalMem::new();
        let a = g.alloc_f32(vec![0.0; 3]); // 12 bytes -> one 256B slot
        let b = g.alloc_u64(vec![0; 100]); // 800 bytes -> four slots
        let c = g.alloc_u32(vec![0; 1]);
        let (a, b, c) = (g.base_addr(a.0), g.base_addr(b.0), g.base_addr(c.0));
        assert!(a % ALLOC_ALIGN == 0 && b % ALLOC_ALIGN == 0 && c % ALLOC_ALIGN == 0);
        assert!(a < b && b < c);
        assert!(b - a >= 256);
        assert!(c - b >= 800);
    }

    #[test]
    fn bounds_checking() {
        let mut g = GlobalMem::new();
        let b = g.alloc_u32(vec![0; 4]);
        assert!(g.check_bounds(b.0, 3, "t").is_ok());
        assert!(g.check_bounds(b.0, 4, "t").is_err());
    }

    #[test]
    fn allocated_bytes_sums_buffers() {
        let mut g = GlobalMem::new();
        g.alloc_f32(vec![0.0; 10]);
        g.alloc_u64(vec![0; 2]);
        assert_eq!(g.allocated_bytes(), 40 + 16);
    }
}
