//! # gpu-sim — a warp-level SIMT GPU simulator
//!
//! This crate is the hardware substrate for the `twobody-rs` reproduction of
//! *"Efficient 2-Body Statistics Computation on GPUs: Parallelization &
//! Beyond"* (Pitaksirianan, Nouri, Tu — ICPP 2016). The paper's experiments
//! ran on an NVidia Titan X; this crate provides a software model of that
//! class of device so the paper's kernels can be executed, instrumented and
//! timed without GPU hardware.
//!
//! ## What is modeled
//!
//! * **SIMT execution** — kernels are written at *warp* granularity: every
//!   operation acts on 32 lanes under an explicit active [`Mask`], so
//!   divergence is a first-class, measurable effect (see
//!   [`exec::WarpCtx::divergent_loop`]).
//! * **The memory hierarchy** — global memory with coalescing into 32-byte
//!   sectors and a functional FIFO L2 cache, the read-only data cache
//!   (a.k.a. texture path, `const __restrict__` in CUDA), per-block shared
//!   memory with 32-bank conflict modeling, and registers.
//! * **Atomics** — shared- and global-memory atomic adds with contention
//!   serialization measured from the actual addresses touched by each warp.
//! * **Occupancy** — blocks-per-SM limits from threads, registers, shared
//!   memory and block slots, reproducing the step functions of the paper's
//!   Figure 5.
//! * **Timing** — a calibrated throughput/latency model
//!   ([`timing::TimingModel`]) converts instrumented access tallies into
//!   simulated kernel time, per-unit utilization and achieved bandwidth —
//!   the same quantities the paper reads off the NVidia Visual Profiler
//!   (its Tables II, III and IV).
//!
//! ## What is *not* modeled
//!
//! Instruction encodings, ECC, TLBs, texture filtering, and clock
//! throttling. The goal is faithful *relative* behaviour of the paper's
//! optimization techniques, not cycle-exact emulation; every calibration
//! constant lives in [`config::DeviceConfig`] with a comment citing its
//! source.
//!
//! ## Quick example
//!
//! ```
//! use gpu_sim::prelude::*;
//!
//! /// A kernel that doubles every element of a buffer.
//! struct DoubleKernel {
//!     input: BufF32,
//!     output: BufF32,
//!     n: u32,
//! }
//!
//! impl Kernel for DoubleKernel {
//!     fn name(&self) -> &'static str {
//!         "double"
//!     }
//!
//!     fn resources(&self) -> KernelResources {
//!         KernelResources::new(8, 0)
//!     }
//!
//!     fn run_block(&self, blk: &mut BlockCtx<'_>) {
//!         blk.for_each_warp(|w| {
//!             let tid = w.thread_ids();
//!             let mask = w.mask_lt(&tid, self.n);
//!             let x = w.global_load_f32(self.input, &tid, mask);
//!             let doubled = w.mul_f32(&x, 2.0, mask);
//!             w.global_store_f32(self.output, &tid, &doubled, mask);
//!         });
//!     }
//! }
//!
//! let mut dev = Device::new(DeviceConfig::titan_x());
//! let input = dev.alloc_f32((0..100).map(|i| i as f32).collect());
//! let output = dev.alloc_f32_zeroed(100);
//! let kernel = DoubleKernel { input, output, n: 100 };
//! let run = dev.launch(&kernel, LaunchConfig::for_n_threads(100, 64));
//! assert_eq!(dev.f32_slice(output)[3], 6.0);
//! assert!(run.timing.seconds > 0.0);
//! ```

pub mod config;
pub mod device;
pub mod error;
pub mod exec;
pub mod mem;
pub mod occupancy;
pub mod profile;
pub mod serialize;
pub mod tally;
pub mod timing;

/// Number of lanes in a warp. Fixed at 32 on every NVidia architecture the
/// paper considers (Fermi, Kepler, Maxwell).
pub const WARP_SIZE: usize = 32;

/// A 32-lane vector of `f32` values, one per warp lane.
pub type F32x32 = [f32; WARP_SIZE];
/// A 32-lane vector of `u32` values, one per warp lane.
pub type U32x32 = [u32; WARP_SIZE];
/// A 32-lane vector of `u64` values, one per warp lane.
pub type U64x32 = [u64; WARP_SIZE];

pub use config::{DeviceConfig, ExecMode, Latencies, Throughputs};
pub use device::Device;
pub use error::SimError;
pub use exec::{
    sqrt_lt_threshold, BlockCtx, CompiledKernel, CompiledSinkSpec, CompiledTile, CountSink,
    DistanceForm, HistSink, Kernel, KernelResources, KernelRun, LaunchConfig, Mask, TilePred,
    TileSink, TileSrc, WarpCtx,
};
pub use mem::{BufF32, BufId, BufU32, BufU64, DeviceBuffer, ShmF32, ShmU32, ShmU64};
pub use occupancy::{Occupancy, OccupancyLimiter};
pub use profile::KernelProfile;
pub use tally::{AccessTally, InterpStats};
pub use timing::{Resource, TimingBreakdown, TimingModel};

/// One-stop imports for writing and launching kernels.
pub mod prelude {
    pub use crate::config::{DeviceConfig, ExecMode};
    pub use crate::device::Device;
    pub use crate::exec::{
        BlockCtx, CompiledKernel, CompiledSinkSpec, CompiledTile, CountSink, DistanceForm,
        HistSink, Kernel, KernelResources, KernelRun, LaunchConfig, Mask, TilePred, TileSink,
        TileSrc, WarpCtx,
    };
    pub use crate::mem::{BufF32, BufU32, BufU64, ShmF32, ShmU32, ShmU64};
    pub use crate::occupancy::Occupancy;
    pub use crate::profile::KernelProfile;
    pub use crate::tally::{AccessTally, InterpStats};
    pub use crate::timing::{Resource, TimingBreakdown};
    pub use crate::{F32x32, U32x32, U64x32, WARP_SIZE};
}
