//! The simulated device: owns global memory and runs kernels.

use crate::config::DeviceConfig;
use crate::error::SimError;
use crate::exec::{engine, Kernel, KernelRun, LaunchConfig};
use crate::mem::{BufF32, BufU32, BufU64, DeviceBuffer, GlobalMem};
use crate::occupancy::occupancy;
use crate::profile::KernelProfile;
use crate::tally::{AccessTally, InterpStats};
use crate::timing::TimingModel;

/// A simulated GPU.
///
/// Allocate buffers, launch kernels, read results back, free — the
/// same lifecycle as a CUDA context. Kernel launches are *functional*:
/// they really compute, and the returned [`KernelRun`] carries the
/// measured access tally, occupancy, simulated timing and a
/// profiler-style report. Temporaries belong in a [`Device::scoped`]
/// call, which frees them however it returns.
pub struct Device {
    cfg: DeviceConfig,
    global: GlobalMem,
}

impl Device {
    /// Create a device with the given configuration.
    pub fn new(cfg: DeviceConfig) -> Self {
        Device {
            cfg,
            global: GlobalMem::new(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Allocate and upload an `f32` buffer (`cudaMalloc` + `cudaMemcpy`).
    pub fn alloc_f32(&mut self, data: Vec<f32>) -> BufF32 {
        self.global.alloc_f32(data)
    }

    /// Allocate a zeroed `f32` buffer.
    pub fn alloc_f32_zeroed(&mut self, len: usize) -> BufF32 {
        self.global.alloc_f32(vec![0.0; len])
    }

    /// Allocate and upload a `u32` buffer.
    pub fn alloc_u32(&mut self, data: Vec<u32>) -> BufU32 {
        self.global.alloc_u32(data)
    }

    /// Allocate a zeroed `u32` buffer.
    pub fn alloc_u32_zeroed(&mut self, len: usize) -> BufU32 {
        self.global.alloc_u32(vec![0; len])
    }

    /// Allocate and upload a `u64` buffer.
    pub fn alloc_u64(&mut self, data: Vec<u64>) -> BufU64 {
        self.global.alloc_u64(data)
    }

    /// Allocate a zeroed `u64` buffer.
    pub fn alloc_u64_zeroed(&mut self, len: usize) -> BufU64 {
        self.global.alloc_u64(vec![0; len])
    }

    /// Read an `f32` buffer back (`cudaMemcpy` device→host).
    pub fn f32_slice(&self, b: BufF32) -> &[f32] {
        self.global.f32_slice(b)
    }

    /// Read a `u32` buffer back.
    pub fn u32_slice(&self, b: BufU32) -> &[u32] {
        self.global.u32_slice(b)
    }

    /// Read a `u64` buffer back.
    pub fn u64_slice(&self, b: BufU64) -> &[u64] {
        self.global.u64_slice(b)
    }

    /// Total bytes of the live buffers in global memory.
    pub fn allocated_bytes(&self) -> u64 {
        self.global.allocated_bytes()
    }

    /// Free a buffer (`cudaFree`). Its host storage is released and
    /// every copy of the handle goes stale: a kernel access through it
    /// faults, and a second free is refused with
    /// [`SimError::FreedBuffer`]. Simulated addresses are never reused,
    /// so freeing changes no later launch's tally or timing.
    pub fn free(&mut self, b: impl DeviceBuffer) -> Result<(), SimError> {
        self.global.free(b)
    }

    /// Run `f` on this device, then free every buffer `f` allocated
    /// that is still live — on every return path, `Ok` or `Err` alike.
    /// Buffers allocated before the call are untouched, so scopes nest
    /// and [`Device::allocated_bytes`] reads the same before and after.
    /// Handles allocated inside must not escape `f`'s result.
    pub fn scoped<R>(&mut self, f: impl FnOnce(&mut Device) -> R) -> R {
        let mark = self.global.alloc_mark();
        let out = f(self);
        self.global.free_since(mark);
        out
    }

    /// Launch a kernel, propagating simulated faults as errors.
    ///
    /// The engine runs blocks under the configured
    /// [`crate::config::ExecMode`]: sequentially, or sharded across a
    /// host-thread worker pool with a deterministic in-order commit
    /// (see [`crate::exec::engine`](crate::exec) internals). Either way
    /// there is one cold, device-wide L2 per launch, each block gets
    /// fresh shared memory and read-only-cache state, and outputs,
    /// tallies and first-fault reporting are identical across modes.
    ///
    /// A `grid_dim == 0` launch is a valid no-op: it executes nothing,
    /// touches no memory, and reports an empty tally.
    pub fn try_launch<K: Kernel + ?Sized>(
        &mut self,
        kernel: &K,
        lc: LaunchConfig,
    ) -> Result<KernelRun, SimError> {
        lc.validate(&self.cfg)?;
        let res = kernel.resources();
        if res.regs_per_thread > self.cfg.max_registers_per_thread {
            return Err(SimError::TooManyRegisters {
                requested: res.regs_per_thread,
                limit: self.cfg.max_registers_per_thread,
            });
        }
        if res.shared_mem_bytes > self.cfg.shared_mem_per_block {
            return Err(SimError::SharedMemOverflow {
                requested: res.shared_mem_bytes as u64,
                limit: self.cfg.shared_mem_per_block as u64,
            });
        }

        let occ = occupancy(
            &self.cfg,
            lc.grid_dim,
            lc.block_dim,
            res.regs_per_thread,
            res.shared_mem_bytes,
        );

        let (total, interp) = engine::run_grid(&mut self.global, &self.cfg, kernel, lc, res)?;

        let timing = TimingModel::new(&self.cfg).estimate(&total, &occ, lc.grid_dim);
        let profile = KernelProfile::build(kernel.name(), &self.cfg, &total, &occ, &timing);
        Ok(KernelRun {
            kernel: kernel.name().to_string(),
            launch: lc,
            tally: total,
            occupancy: occ,
            timing,
            profile,
            interp,
        })
    }

    /// Launch a kernel, panicking on simulated faults (out-of-bounds
    /// accesses, invalid launches). Use [`Device::try_launch`] to handle
    /// faults as values.
    pub fn launch<K: Kernel + ?Sized>(&mut self, kernel: &K, lc: LaunchConfig) -> KernelRun {
        match self.try_launch(kernel, lc) {
            Ok(run) => run,
            Err(e) => panic!("kernel '{}' faulted: {e}", kernel.name()),
        }
    }

    /// Run only the timing model against an externally-produced tally
    /// (e.g. the closed-form access profiles of `tbs-core::analytic`),
    /// using this device's configuration. This is how paper-scale sweeps
    /// (N up to 2×10⁶) are timed without executing O(N²) lane operations.
    pub fn estimate(
        &self,
        kernel_name: &str,
        tally: &AccessTally,
        lc: LaunchConfig,
        regs_per_thread: u32,
        shared_mem_bytes: u32,
    ) -> KernelRun {
        let occ = occupancy(
            &self.cfg,
            lc.grid_dim,
            lc.block_dim,
            regs_per_thread,
            shared_mem_bytes,
        );
        let timing = TimingModel::new(&self.cfg).estimate(tally, &occ, lc.grid_dim);
        let profile = KernelProfile::build(kernel_name, &self.cfg, tally, &occ, &timing);
        KernelRun {
            kernel: kernel_name.to_string(),
            launch: lc,
            tally: tally.clone(),
            occupancy: occ,
            timing,
            profile,
            interp: InterpStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{BlockCtx, KernelResources, Mask};

    struct FillKernel {
        out: BufF32,
        n: u32,
        value: f32,
    }
    impl Kernel for FillKernel {
        fn name(&self) -> &'static str {
            "fill"
        }
        fn resources(&self) -> KernelResources {
            KernelResources::new(8, 0)
        }
        fn run_block(&self, blk: &mut BlockCtx<'_>) {
            let (value, out, n) = (self.value, self.out, self.n);
            blk.for_each_warp(|w| {
                let gid = w.global_thread_ids();
                let m = w.mask_lt(&gid, n);
                w.global_store_f32(out, &gid, &[value; 32], m);
            });
        }
    }

    #[test]
    fn launch_runs_all_blocks_and_reports() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let out = dev.alloc_f32_zeroed(1000);
        let k = FillKernel {
            out,
            n: 1000,
            value: 3.5,
        };
        let run = dev.launch(&k, LaunchConfig::for_n_threads(1000, 128));
        assert!(dev.f32_slice(out).iter().all(|&x| x == 3.5));
        assert_eq!(run.tally.blocks_executed, 8);
        assert_eq!(run.tally.warps_executed, 32);
        assert!(run.timing.seconds > 0.0);
        assert!(run.occupancy.occupancy > 0.0);
    }

    #[test]
    fn undeclared_shared_allocation_is_rejected() {
        struct Greedy;
        impl Kernel for Greedy {
            fn name(&self) -> &'static str {
                "greedy"
            }
            fn resources(&self) -> KernelResources {
                KernelResources::new(8, 16) // declares 16 B
            }
            fn run_block(&self, blk: &mut BlockCtx<'_>) {
                blk.shared_alloc_f32(1024); // allocates 4 KB
            }
        }
        let mut dev = Device::new(DeviceConfig::titan_x());
        let err = dev
            .try_launch(&Greedy, LaunchConfig::new(1, 32))
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidLaunch { .. }));
    }

    #[test]
    fn register_over_declaration_is_rejected() {
        struct Hungry;
        impl Kernel for Hungry {
            fn name(&self) -> &'static str {
                "hungry"
            }
            fn resources(&self) -> KernelResources {
                KernelResources::new(10_000, 0)
            }
            fn run_block(&self, _blk: &mut BlockCtx<'_>) {}
        }
        let mut dev = Device::new(DeviceConfig::titan_x());
        let err = dev
            .try_launch(&Hungry, LaunchConfig::new(1, 32))
            .unwrap_err();
        assert!(matches!(err, SimError::TooManyRegisters { .. }));
    }

    #[test]
    fn estimate_times_external_tallies() {
        let dev = Device::new(DeviceConfig::titan_x());
        let t = AccessTally {
            warp_instructions: 1_000_000,
            alu_instructions: 800_000,
            ..Default::default()
        };
        let run = dev.estimate("analytic", &t, LaunchConfig::new(1000, 1024), 32, 0);
        assert!(run.timing.seconds > 0.0);
        assert_eq!(run.kernel, "analytic");
    }

    /// A kernel exercising every replay path: L2-visible loads, stores,
    /// u64 atomics, and a ROC load, with cross-block L2 reuse.
    struct MixedKernel {
        input: BufF32,
        out: BufF32,
        hist: BufU64,
        n: u32,
    }
    impl Kernel for MixedKernel {
        fn name(&self) -> &'static str {
            "mixed"
        }
        fn resources(&self) -> KernelResources {
            KernelResources::new(16, 0)
        }
        fn run_block(&self, blk: &mut BlockCtx<'_>) {
            let (input, out, hist, n) = (self.input, self.out, self.hist, self.n);
            blk.for_each_warp(|w| {
                let gid = w.global_thread_ids();
                let m = w.mask_lt(&gid, n);
                let x = w.global_load_f32(input, &gid, m);
                // Every block also re-reads the head of the buffer: the
                // resulting L2 hit pattern depends on cross-block order.
                let r = w.roc_load_f32(input, &w.lane_ids(), m);
                let y = w.add_f32x(&x, &r, m);
                w.global_store_f32(out, &gid, &y, m);
                let bucket = w.mod_u32(&gid, 7, m);
                w.global_atomic_add_u64(hist, &bucket, &[1; 32], m);
            });
        }
    }

    fn run_mixed(mode: crate::config::ExecMode) -> (Vec<f32>, Vec<u64>, AccessTally) {
        let n = 4096u32;
        let mut dev = Device::new(DeviceConfig::titan_x().with_exec_mode(mode));
        let input = dev.alloc_f32((0..n).map(|i| (i as f32).sin()).collect());
        let out = dev.alloc_f32_zeroed(n as usize);
        let hist = dev.alloc_u64_zeroed(7);
        let k = MixedKernel {
            input,
            out,
            hist,
            n,
        };
        let run = dev.launch(&k, LaunchConfig::for_n_threads(n, 128));
        (
            dev.f32_slice(out).to_vec(),
            dev.u64_slice(hist).to_vec(),
            run.tally,
        )
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_sequential() {
        use crate::config::ExecMode;
        let (seq_out, seq_hist, seq_tally) = run_mixed(ExecMode::Sequential);
        for threads in [2, 3, 5] {
            let (out, hist, tally) = run_mixed(ExecMode::Parallel { threads });
            let same_bits = out
                .iter()
                .zip(&seq_out)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_bits, "outputs differ with {threads} threads");
            assert_eq!(hist, seq_hist, "histogram differs with {threads} threads");
            assert_eq!(tally, seq_tally, "tally differs with {threads} threads");
        }
    }

    #[test]
    fn parallel_engine_reports_first_fault_in_block_order() {
        use crate::config::ExecMode;
        // Block 5 reads out of bounds; earlier blocks' stores must land,
        // later blocks must not change the error.
        struct FaultyKernel {
            buf: BufF32,
            out: BufF32,
        }
        impl Kernel for FaultyKernel {
            fn name(&self) -> &'static str {
                "faulty"
            }
            fn resources(&self) -> KernelResources {
                KernelResources::new(8, 0)
            }
            fn run_block(&self, blk: &mut BlockCtx<'_>) {
                let (buf, out) = (self.buf, self.out);
                let b = blk.block_id;
                blk.for_each_warp(|w| {
                    let idx = if b == 5 { [1_000_000u32; 32] } else { [b; 32] };
                    w.global_load_f32(buf, &idx, Mask::FULL);
                    w.global_store_f32(out, &[b; 32], &[b as f32; 32], Mask::FULL);
                });
            }
        }
        for mode in [ExecMode::Sequential, ExecMode::Parallel { threads: 4 }] {
            let mut dev = Device::new(DeviceConfig::titan_x().with_exec_mode(mode));
            let buf = dev.alloc_f32(vec![0.0; 64]);
            let out = dev.alloc_f32_zeroed(64);
            let err = dev.try_launch(&FaultyKernel { buf, out }, LaunchConfig::new(12, 32));
            assert!(matches!(err, Err(SimError::OutOfBounds { .. })), "{mode:?}");
            let data = dev.f32_slice(out);
            // Blocks 0..5 committed before the fault; block 5+ did not.
            #[allow(clippy::needless_range_loop)]
            for b in 0..5 {
                assert_eq!(data[b], b as f32, "{mode:?}");
            }
            #[allow(clippy::needless_range_loop)]
            for b in 5..12 {
                assert_eq!(data[b], 0.0, "{mode:?}");
            }
        }
    }

    #[test]
    fn empty_grid_launch_is_a_noop() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let out = dev.alloc_f32_zeroed(4);
        let k = FillKernel {
            out,
            n: 0,
            value: 9.0,
        };
        let run = dev.launch(&k, LaunchConfig::new(0, 128));
        assert!(dev.f32_slice(out).iter().all(|&x| x == 0.0));
        assert_eq!(run.tally.blocks_executed, 0);
        assert_eq!(run.tally.warp_instructions, 0);
        assert_eq!(run.timing.cycles, 0.0);
    }

    #[test]
    fn atomic_add_is_deterministic_across_blocks() {
        struct CountKernel {
            out: BufU64,
        }
        impl Kernel for CountKernel {
            fn name(&self) -> &'static str {
                "count"
            }
            fn resources(&self) -> KernelResources {
                KernelResources::new(8, 0)
            }
            fn run_block(&self, blk: &mut BlockCtx<'_>) {
                let out = self.out;
                blk.for_each_warp(|w| {
                    w.global_atomic_add_u64(out, &[0; 32], &[1; 32], Mask::FULL);
                });
            }
        }
        let mut dev = Device::new(DeviceConfig::titan_x());
        let out = dev.alloc_u64_zeroed(1);
        let k = CountKernel { out };
        dev.launch(&k, LaunchConfig::new(10, 256));
        assert_eq!(dev.u64_slice(out)[0], 10 * 256);
    }

    /// Run [`MixedKernel`] on `dev`, returning outputs, tally and the
    /// simulated seconds' bits.
    fn mixed_on(dev: &mut Device) -> (Vec<f32>, Vec<u64>, AccessTally, u64) {
        let n = 4096u32;
        dev.scoped(|dev| {
            let input = dev.alloc_f32((0..n).map(|i| (i as f32).sin()).collect());
            let out = dev.alloc_f32_zeroed(n as usize);
            let hist = dev.alloc_u64_zeroed(7);
            let k = MixedKernel {
                input,
                out,
                hist,
                n,
            };
            let run = dev.launch(&k, LaunchConfig::for_n_threads(n, 128));
            (
                dev.f32_slice(out).to_vec(),
                dev.u64_slice(hist).to_vec(),
                run.tally,
                run.timing.seconds.to_bits(),
            )
        })
    }

    #[test]
    fn launch_through_a_freed_buffer_faults_without_touching_the_slots_new_owner() {
        use crate::config::ExecMode;
        for mode in [ExecMode::Sequential, ExecMode::Parallel { threads: 3 }] {
            let cfg = DeviceConfig::titan_x().with_exec_mode(mode);
            // A stale input: the slot now holds a different buffer.
            let mut dev = Device::new(cfg.clone());
            let input = dev.alloc_f32(vec![1.0; 256]);
            dev.free(input).unwrap();
            let reused = dev.alloc_f32(vec![7.0; 256]);
            assert_eq!(reused.0.slot, input.0.slot, "the slot is reused");
            let (out, hist) = (dev.alloc_f32_zeroed(256), dev.alloc_u64_zeroed(7));
            let k = MixedKernel {
                input,
                out,
                hist,
                n: 256,
            };
            let err = dev.try_launch(&k, LaunchConfig::for_n_threads(256, 128));
            assert!(
                matches!(&err, Err(SimError::FreedBuffer { what }) if what == "global f32 load"),
                "{mode:?}: {err:?}"
            );
            assert!(dev.f32_slice(out).iter().all(|&x| x == 0.0), "{mode:?}");
            // A stale output: the new owner of the slot is not written.
            let mut dev = Device::new(cfg);
            let out = dev.alloc_f32_zeroed(64);
            dev.free(out).unwrap();
            let reused = dev.alloc_f32(vec![5.0; 64]);
            let k = FillKernel {
                out,
                n: 64,
                value: 9.0,
            };
            let err = dev.try_launch(&k, LaunchConfig::for_n_threads(64, 32));
            assert!(
                matches!(&err, Err(SimError::FreedBuffer { what }) if what == "global f32 store"),
                "{mode:?}: {err:?}"
            );
            assert!(dev.f32_slice(reused).iter().all(|&x| x == 5.0), "{mode:?}");
        }
    }

    #[test]
    fn double_free_is_refused_and_frees_nothing_else() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let a = dev.alloc_u32(vec![1; 10]);
        let keep = dev.alloc_u64(vec![2; 3]);
        dev.free(a).unwrap();
        let bytes = dev.allocated_bytes();
        assert!(matches!(dev.free(a), Err(SimError::FreedBuffer { .. })));
        // The slot's next owner survives a stale free too.
        let b = dev.alloc_u32(vec![3; 10]);
        assert_eq!(b.0.slot, a.0.slot);
        assert!(matches!(dev.free(a), Err(SimError::FreedBuffer { .. })));
        assert_eq!(dev.allocated_bytes(), bytes + 40);
        assert_eq!(dev.u32_slice(b), &[3; 10]);
        assert_eq!(dev.u64_slice(keep), &[2; 3]);
    }

    #[test]
    fn allocated_bytes_falls_by_exactly_the_freed_bytes() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let a = dev.alloc_f32_zeroed(10);
        let b = dev.alloc_u64_zeroed(3);
        let c = dev.alloc_u32_zeroed(1);
        assert_eq!(dev.allocated_bytes(), 40 + 24 + 4);
        dev.free(b).unwrap();
        assert_eq!(dev.allocated_bytes(), 40 + 4);
        dev.free(a).unwrap();
        dev.free(c).unwrap();
        assert_eq!(dev.allocated_bytes(), 0);
    }

    #[test]
    fn launches_are_identical_across_unrelated_allocations_and_frees() {
        use crate::config::ExecMode;
        for mode in [ExecMode::Sequential, ExecMode::Parallel { threads: 2 }] {
            let cfg = DeviceConfig::titan_x().with_exec_mode(mode);
            let fresh = mixed_on(&mut Device::new(cfg.clone()));
            let mut dev = Device::new(cfg);
            // Odd sizes shift every later base address; frees leave
            // holes and vacant slots behind.
            let bufs: Vec<_> = (1..40).map(|i| dev.alloc_f32_zeroed(i * 37)).collect();
            for b in bufs.iter().step_by(2) {
                dev.free(*b).unwrap();
            }
            let live = dev.alloc_u64_zeroed(1000);
            assert_eq!(mixed_on(&mut dev), fresh, "{mode:?}");
            dev.free(live).unwrap();
            assert_eq!(mixed_on(&mut dev), fresh, "{mode:?}");
        }
    }

    #[test]
    fn scoped_frees_its_allocations_on_every_return_path() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let outer = dev.alloc_f32(vec![1.0; 8]);
        let before = dev.allocated_bytes();
        let got: Result<u64, SimError> = dev.scoped(|dev| {
            let out = dev.alloc_f32_zeroed(1000);
            let inner = dev.scoped(|dev| {
                dev.alloc_u64_zeroed(5);
                dev.allocated_bytes()
            });
            assert_eq!(dev.allocated_bytes(), before + 4000, "inner scope freed");
            dev.free(out)?;
            dev.try_launch(
                &FillKernel {
                    out,
                    n: 1,
                    value: 0.0,
                },
                LaunchConfig::new(1, 32),
            )?;
            Ok(inner)
        });
        assert!(matches!(got, Err(SimError::FreedBuffer { .. })));
        assert_eq!(dev.allocated_bytes(), before);
        let err = dev.scoped(|dev| {
            let out = dev.alloc_f32_zeroed(64);
            dev.try_launch(
                &FillKernel {
                    out,
                    n: 64,
                    value: 1.0,
                },
                LaunchConfig::new(1, 4096),
            )
        });
        assert!(matches!(err, Err(SimError::InvalidLaunch { .. })));
        assert_eq!(dev.allocated_bytes(), before);
        assert_eq!(dev.f32_slice(outer), &[1.0; 8]);
    }
}
