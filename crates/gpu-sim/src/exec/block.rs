//! Per-block execution context.

use crate::config::DeviceConfig;
use crate::error::SimError;
use crate::exec::compiled::CompiledScratch;
use crate::exec::mask::Mask;
use crate::exec::warp::WarpCtx;
use crate::mem::replay::{BufSet, SectorTrace, WriteOp};
use crate::mem::{
    BufF32, BufId, BufU32, BufU64, GlobalMem, L2Cache, RocCache, SharedSpace, ShmF32, ShmU32,
    ShmU64,
};
use crate::tally::{AccessTally, InterpStats};
use crate::{F32x32, U32x32, U64x32, WARP_SIZE};

/// What a speculatively-executed block recorded for the commit phase.
#[derive(Debug, Default)]
pub(crate) struct SpecRecord {
    /// Global-memory mutations in program order.
    pub log: Vec<WriteOp>,
    /// L2-bound sector accesses in program order.
    pub trace: SectorTrace,
}

/// The block's route to global memory and the device-wide L2.
///
/// * `Direct` — the sequential engine (and the parallel engine's conflict
///   re-execution path): mutations land immediately, sector accesses go
///   through the real L2.
/// * `Speculative` — the parallel engine's first pass: reads come from an
///   immutable snapshot; mutations and sector touches are recorded for a
///   deterministic in-order commit.
pub(crate) enum GlobalPort<'a> {
    Direct {
        global: &'a mut GlobalMem,
        l2: &'a mut L2Cache,
    },
    Speculative {
        global: &'a GlobalMem,
        rec: SpecRecord,
    },
}

/// Execution context of one thread block.
///
/// Created by the engine for every block in the grid; gives the kernel
/// access to global memory, the block's shared memory, and its warps.
pub struct BlockCtx<'a> {
    pub(crate) port: GlobalPort<'a>,
    pub(crate) roc: RocCache,
    pub(crate) shared: SharedSpace,
    pub(crate) tally: AccessTally,
    /// Host-side interpreter statistics (dispatch counts, compiled-pass
    /// coverage). Not part of the simulated device state.
    pub(crate) interp: InterpStats,
    pub(crate) cfg: &'a DeviceConfig,
    pub(crate) fault: Option<SimError>,
    /// Buffers this block loaded from (conflict detection).
    pub(crate) reads: BufSet,
    /// Buffers this block stored or atomically updated (conflict
    /// detection).
    pub(crate) writes: BufSet,
    /// Set when speculative execution cannot stand in for sequential
    /// execution (value-returning atomics, reads of self-written buffers):
    /// remaining ops become no-ops and the engine re-executes the block
    /// in `Direct` mode at commit time.
    pub(crate) needs_reexec: bool,
    /// This block's id within the grid (`blockIdx.x`).
    pub block_id: u32,
    /// Number of blocks in the grid (`gridDim.x`).
    pub grid_dim: u32,
    /// Threads per block (`blockDim.x`).
    pub block_dim: u32,
    /// Reusable buffers for the compiled output-stage passes (sink
    /// rows, row runs, tile boxes); host-side only, never part
    /// of the simulated device state.
    pub(crate) compiled_scratch: CompiledScratch,
}

impl<'a> BlockCtx<'a> {
    fn with_port(
        port: GlobalPort<'a>,
        cfg: &'a DeviceConfig,
        block_id: u32,
        grid_dim: u32,
        block_dim: u32,
    ) -> Self {
        let roc = if cfg.scalar_reference {
            RocCache::new_reference(cfg.roc_sectors())
        } else {
            RocCache::new(cfg.roc_sectors())
        };
        let mut shared = SharedSpace::new(cfg.shared_banks);
        shared.set_scalar_reference(cfg.scalar_reference);
        BlockCtx {
            port,
            roc,
            shared,
            tally: AccessTally::new(),
            interp: InterpStats::default(),
            cfg,
            fault: None,
            reads: BufSet::default(),
            writes: BufSet::default(),
            needs_reexec: false,
            block_id,
            grid_dim,
            block_dim,
            compiled_scratch: CompiledScratch::default(),
        }
    }

    pub(crate) fn direct(
        global: &'a mut GlobalMem,
        l2: &'a mut L2Cache,
        cfg: &'a DeviceConfig,
        block_id: u32,
        grid_dim: u32,
        block_dim: u32,
    ) -> Self {
        Self::with_port(
            GlobalPort::Direct { global, l2 },
            cfg,
            block_id,
            grid_dim,
            block_dim,
        )
    }

    pub(crate) fn speculative(
        global: &'a GlobalMem,
        cfg: &'a DeviceConfig,
        block_id: u32,
        grid_dim: u32,
        block_dim: u32,
    ) -> Self {
        Self::with_port(
            GlobalPort::Speculative {
                global,
                rec: SpecRecord::default(),
            },
            cfg,
            block_id,
            grid_dim,
            block_dim,
        )
    }

    /// Device configuration being simulated.
    pub fn config(&self) -> &DeviceConfig {
        self.cfg
    }

    /// Number of warps in this block.
    pub fn num_warps(&self) -> u32 {
        self.block_dim.div_ceil(crate::WARP_SIZE as u32)
    }

    /// Run `f` once per warp — one SIMT phase of the block. Stops early if
    /// a fault was recorded or speculation was abandoned.
    pub fn for_each_warp(&mut self, mut f: impl FnMut(&mut WarpCtx<'_, 'a>)) {
        for w in 0..self.num_warps() {
            if self.dead() {
                return;
            }
            let mut wc = WarpCtx::new(self, w);
            f(&mut wc);
        }
    }

    /// Block-wide barrier (`__syncthreads()`): charges one sync
    /// instruction per warp. Phase ordering is provided by the engine
    /// running `for_each_warp` sweeps to completion, so this is purely a
    /// cost-accounting call — but kernels must place it exactly where the
    /// CUDA code would, because the tally (and the analytic model that
    /// mirrors it) depends on it.
    pub fn syncthreads(&mut self) {
        let w = self.num_warps() as u64;
        self.tally.sync_instructions += w;
        self.tally.warp_instructions += w;
        self.tally.useful_lane_ops += w * crate::WARP_SIZE as u64;
    }

    /// Allocate a zeroed `f32` shared-memory array.
    pub fn shared_alloc_f32(&mut self, len: usize) -> ShmF32 {
        let h = self.shared.alloc_f32(len);
        self.check_shared_limit();
        h
    }

    /// Allocate a zeroed `u32` shared-memory array.
    pub fn shared_alloc_u32(&mut self, len: usize) -> ShmU32 {
        let h = self.shared.alloc_u32(len);
        self.check_shared_limit();
        h
    }

    /// Allocate a zeroed `u64` shared-memory array.
    pub fn shared_alloc_u64(&mut self, len: usize) -> ShmU64 {
        let h = self.shared.alloc_u64(len);
        self.check_shared_limit();
        h
    }

    fn check_shared_limit(&mut self) {
        let used = self.shared.allocated_bytes();
        if used > self.cfg.shared_mem_per_block as u64 && self.fault.is_none() {
            self.fault = Some(SimError::SharedMemOverflow {
                requested: used,
                limit: self.cfg.shared_mem_per_block as u64,
            });
        }
    }

    /// Read a shared `u32` array directly (host-style debugging access —
    /// carries no simulated cost).
    pub fn shared_u32s(&self, h: ShmU32) -> &[u32] {
        self.shared.u32s(h)
    }

    /// Bytes of shared memory allocated so far by this block.
    pub fn shared_allocated(&self) -> u64 {
        self.shared.allocated_bytes()
    }

    pub(crate) fn record_fault(&mut self, e: SimError) {
        if self.fault.is_none() {
            self.fault = Some(e);
        }
    }

    /// Whether a fault has been recorded (subsequent ops are no-ops).
    pub fn faulted(&self) -> bool {
        self.fault.is_some()
    }

    /// Whether the block stopped executing: faulted, or speculation was
    /// abandoned pending sequential re-execution.
    pub(crate) fn dead(&self) -> bool {
        self.fault.is_some() || self.needs_reexec
    }

    /// Abandon speculative execution: the remaining ops no-op and the
    /// engine re-runs this block in `Direct` mode at commit time. Never
    /// fires in `Direct` mode.
    fn abandon_speculation(&mut self) {
        self.needs_reexec = true;
    }

    // ---------------------------------------------------------------
    // global-memory port (used by WarpCtx)
    // ---------------------------------------------------------------

    /// The global memory visible to this block's loads.
    pub(crate) fn gmem(&self) -> &GlobalMem {
        match &self.port {
            GlobalPort::Direct { global, .. } => global,
            GlobalPort::Speculative { global, .. } => global,
        }
    }

    /// Base byte address of buffer `id`.
    pub(crate) fn global_base_addr(&self, id: BufId) -> u64 {
        self.gmem().base_addr(id)
    }

    /// Bounds-check a global element access.
    pub(crate) fn check_global_bounds(
        &self,
        id: BufId,
        idx: u32,
        what: &str,
    ) -> Result<(), SimError> {
        self.gmem().check_bounds(id, idx, what)
    }

    /// Route one L2-bound sector access: through the real L2 in `Direct`
    /// mode (crediting the hit/miss tally immediately), into the replay
    /// trace in `Speculative` mode (the commit phase replays it through
    /// the single device-wide L2 in block order).
    pub(crate) fn l2_access(&mut self, sector: u64) {
        match &mut self.port {
            GlobalPort::Direct { l2, .. } => {
                if l2.access(sector) {
                    self.tally.l2_hit_sectors += 1;
                } else {
                    self.tally.dram_sectors += 1;
                }
            }
            GlobalPort::Speculative { rec, .. } => rec.trace.push(sector),
        }
    }

    /// Route `count` consecutive sectors starting at `base` — the
    /// coalesced fast path's arithmetic sector set. Access order (and so
    /// every hit/miss decision) is identical to calling [`Self::l2_access`]
    /// on each sector in ascending order.
    pub(crate) fn l2_access_run(&mut self, base: u64, count: u32) {
        match &mut self.port {
            GlobalPort::Direct { l2, .. } => {
                let hits = l2.access_run(base, count);
                self.tally.l2_hit_sectors += hits;
                self.tally.dram_sectors += count as u64 - hits;
            }
            GlobalPort::Speculative { rec, .. } => rec.trace.push_run(base, count),
        }
    }

    /// Would [`Self::note_read`] of this buffer abandon speculation?
    /// The compiled passes pre-check this so they never have to unwind
    /// mid-pass.
    pub(crate) fn read_would_abandon(&self, id: BufId) -> bool {
        matches!(self.port, GlobalPort::Speculative { .. }) && self.writes.contains(id.slot)
    }

    fn note_read(&mut self, id: BufId) {
        self.reads.insert(id.slot);
        if matches!(self.port, GlobalPort::Speculative { .. }) && self.writes.contains(id.slot) {
            // Read-after-own-write: the snapshot is stale for this buffer.
            self.abandon_speculation();
        }
    }

    /// Load path for `f32` buffers (records the read set).
    pub(crate) fn global_read_f32s(&mut self, buf: BufF32) -> &[f32] {
        self.note_read(buf.0);
        self.gmem().f32_slice(buf)
    }

    /// Load path for `u32` buffers.
    pub(crate) fn global_read_u32s(&mut self, buf: BufU32) -> &[u32] {
        self.note_read(buf.0);
        self.gmem().u32_slice(buf)
    }

    /// Load path for `u64` buffers.
    pub(crate) fn global_read_u64s(&mut self, buf: BufU64) -> &[u64] {
        self.note_read(buf.0);
        self.gmem().u64_slice(buf)
    }

    /// Scatter-store lanes of an `f32` warp access.
    pub(crate) fn global_write_f32(
        &mut self,
        buf: BufF32,
        idx: &U32x32,
        vals: &F32x32,
        mask: Mask,
    ) {
        self.writes.insert(buf.0.slot);
        match &mut self.port {
            GlobalPort::Direct { global, .. } => {
                let data = global.f32_slice_mut(buf);
                for lane in mask.lanes() {
                    data[idx[lane] as usize] = vals[lane];
                }
            }
            GlobalPort::Speculative { rec, .. } => {
                for lane in mask.lanes() {
                    rec.log.push(WriteOp::StoreF32 {
                        buf: buf.0.slot,
                        idx: idx[lane],
                        val: vals[lane],
                    });
                }
            }
        }
    }

    /// Scatter-store lanes of a `u32` warp access.
    pub(crate) fn global_write_u32(
        &mut self,
        buf: BufU32,
        idx: &U32x32,
        vals: &U32x32,
        mask: Mask,
    ) {
        self.writes.insert(buf.0.slot);
        match &mut self.port {
            GlobalPort::Direct { global, .. } => {
                let data = global.u32_slice_mut(buf);
                for lane in mask.lanes() {
                    data[idx[lane] as usize] = vals[lane];
                }
            }
            GlobalPort::Speculative { rec, .. } => {
                for lane in mask.lanes() {
                    rec.log.push(WriteOp::StoreU32 {
                        buf: buf.0.slot,
                        idx: idx[lane],
                        val: vals[lane],
                    });
                }
            }
        }
    }

    /// Scatter-store lanes of a `u64` warp access.
    pub(crate) fn global_write_u64(
        &mut self,
        buf: BufU64,
        idx: &U32x32,
        vals: &U64x32,
        mask: Mask,
    ) {
        self.writes.insert(buf.0.slot);
        match &mut self.port {
            GlobalPort::Direct { global, .. } => {
                let data = global.u64_slice_mut(buf);
                for lane in mask.lanes() {
                    data[idx[lane] as usize] = vals[lane];
                }
            }
            GlobalPort::Speculative { rec, .. } => {
                for lane in mask.lanes() {
                    rec.log.push(WriteOp::StoreU64 {
                        buf: buf.0.slot,
                        idx: idx[lane],
                        val: vals[lane],
                    });
                }
            }
        }
    }

    /// Lane-wise `wrapping_add` of a `u64` atomic (no return value, so the
    /// commutative deltas can be logged and applied in block order).
    pub(crate) fn global_rmw_add_u64(
        &mut self,
        buf: BufU64,
        idx: &U32x32,
        vals: &U64x32,
        mask: Mask,
    ) {
        self.writes.insert(buf.0.slot);
        match &mut self.port {
            GlobalPort::Direct { global, .. } => {
                let data = global.u64_slice_mut(buf);
                for lane in mask.lanes() {
                    let slot = &mut data[idx[lane] as usize];
                    *slot = slot.wrapping_add(vals[lane]);
                }
            }
            GlobalPort::Speculative { rec, .. } => {
                for lane in mask.lanes() {
                    rec.log.push(WriteOp::AddU64 {
                        buf: buf.0.slot,
                        idx: idx[lane],
                        val: vals[lane],
                    });
                }
            }
        }
    }

    /// Lane-wise `wrapping_add` of a `u32` atomic returning the pre-add
    /// values. The returned values are inherently block-order-dependent,
    /// so in `Speculative` mode the block abandons speculation (returning
    /// zeros; the sequential re-execution produces the real values).
    pub(crate) fn global_rmw_add_u32(
        &mut self,
        buf: BufU32,
        idx: &U32x32,
        vals: &U32x32,
        mask: Mask,
    ) -> U32x32 {
        self.writes.insert(buf.0.slot);
        match &mut self.port {
            GlobalPort::Direct { global, .. } => {
                let data = global.u32_slice_mut(buf);
                let mut out = [0u32; WARP_SIZE];
                for lane in mask.lanes() {
                    out[lane] = data[idx[lane] as usize];
                    data[idx[lane] as usize] = data[idx[lane] as usize].wrapping_add(vals[lane]);
                }
                out
            }
            GlobalPort::Speculative { .. } => {
                self.abandon_speculation();
                [0; WARP_SIZE]
            }
        }
    }
}
