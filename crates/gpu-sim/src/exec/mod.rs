//! SIMT execution: launch configuration, block/warp contexts and the
//! [`Kernel`] trait.
//!
//! Kernels are written at *warp granularity*: [`Kernel::run_block`] is
//! called once per thread block and iterates its warps through
//! [`BlockCtx::for_each_warp`]; every [`WarpCtx`] operation acts on all 32
//! lanes under an explicit active [`Mask`]. `__syncthreads()` corresponds
//! to finishing one `for_each_warp` sweep and starting the next after
//! [`BlockCtx::syncthreads`] — the engine runs warps of a block in
//! lock-step phases, which is exactly the programming discipline the
//! paper's Algorithm 2/3 tiling kernels rely on.

mod block;
mod compiled;
pub(crate) mod engine;
mod launch;
mod mask;
mod tile;
mod warp;

pub use block::BlockCtx;
pub use compiled::{
    sqrt_lt_threshold, CompiledKernel, CompiledSinkSpec, CompiledTile, DistanceForm,
};
pub use launch::LaunchConfig;
pub use mask::Mask;
pub use tile::{CountSink, HistSink, TilePred, TileSink, TileSrc};
pub use warp::WarpCtx;

use crate::occupancy::Occupancy;
use crate::profile::KernelProfile;
use crate::tally::{AccessTally, InterpStats};
use crate::timing::TimingBreakdown;

/// Static resource usage a kernel declares up front, the way `nvcc`
/// reports registers-per-thread and static shared memory. Drives the
/// occupancy calculation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelResources {
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Static shared memory per block, in bytes. Dynamic allocations made
    /// inside `run_block` must stay within this declaration.
    pub shared_mem_bytes: u32,
}

impl KernelResources {
    pub fn new(regs_per_thread: u32, shared_mem_bytes: u32) -> Self {
        KernelResources {
            regs_per_thread,
            shared_mem_bytes,
        }
    }
}

/// A device kernel.
///
/// Implementations capture their buffer handles and launch parameters by
/// value, like a CUDA kernel captures device pointers. `Sync` is required
/// so the parallel block engine can execute a kernel's blocks from
/// multiple host threads — kernels hold only `Copy` handles and launch
/// parameters, so this is automatic in practice.
pub trait Kernel: Sync {
    /// Kernel name for profiles and reports.
    fn name(&self) -> &'static str;

    /// Declared register/shared-memory usage (occupancy inputs).
    fn resources(&self) -> KernelResources;

    /// Execute one thread block.
    fn run_block(&self, blk: &mut BlockCtx<'_>);
}

/// Everything a completed launch reports: functional output lives in the
/// device buffers; this struct carries the measured execution profile.
#[derive(Debug, Clone)]
pub struct KernelRun {
    /// Kernel name.
    pub kernel: String,
    /// The launch geometry used.
    pub launch: LaunchConfig,
    /// Instrumented access counts.
    pub tally: AccessTally,
    /// Occupancy achieved by the launch.
    pub occupancy: Occupancy,
    /// Simulated timing breakdown.
    pub timing: TimingBreakdown,
    /// Profiler-style report (utilizations, bandwidths).
    pub profile: KernelProfile,
    /// Host-side interpreter statistics (dispatches, compiled-pass
    /// coverage, culled rows). Not part of the simulated device state.
    pub interp: InterpStats,
}

impl KernelRun {
    /// Simulated kernel time in seconds.
    pub fn seconds(&self) -> f64 {
        self.timing.seconds
    }
}
