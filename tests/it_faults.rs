//! Simulated-fault behaviour: the engine must surface kernel bugs the way
//! CUDA surfaces them, not silently corrupt results.

use gpu_sim::prelude::*;
use gpu_sim::SimError;

struct OobKernel {
    buf: BufF32,
}
impl Kernel for OobKernel {
    fn name(&self) -> &'static str {
        "oob"
    }
    fn resources(&self) -> KernelResources {
        KernelResources::new(8, 0)
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let buf = self.buf;
        blk.for_each_warp(|w| {
            let idx = [1_000_000u32; 32];
            w.global_load_f32(buf, &idx, Mask::FULL);
        });
    }
}

#[test]
fn out_of_bounds_surfaces_as_error_with_context() {
    let mut dev = Device::new(DeviceConfig::titan_x());
    let buf = dev.alloc_f32(vec![0.0; 16]);
    let err = dev
        .try_launch(&OobKernel { buf }, LaunchConfig::new(4, 64))
        .unwrap_err();
    match err {
        SimError::OutOfBounds { what, index, len } => {
            assert!(what.contains("global"));
            assert_eq!(index, 1_000_000);
            assert_eq!(len, 16);
        }
        other => panic!("wrong fault: {other:?}"),
    }
}

#[test]
#[should_panic(expected = "faulted")]
fn launch_panics_on_fault() {
    let mut dev = Device::new(DeviceConfig::titan_x());
    let buf = dev.alloc_f32(vec![0.0; 16]);
    dev.launch(&OobKernel { buf }, LaunchConfig::new(1, 32));
}

struct ShmOob;
impl Kernel for ShmOob {
    fn name(&self) -> &'static str {
        "shm-oob"
    }
    fn resources(&self) -> KernelResources {
        KernelResources::new(8, 64)
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let arr = blk.shared_alloc_u32(16);
        blk.for_each_warp(|w| {
            w.shared_atomic_add_u32(arr, &[999; 32], &[1; 32], Mask::FULL);
        });
    }
}

#[test]
fn shared_out_of_bounds_is_caught() {
    let mut dev = Device::new(DeviceConfig::titan_x());
    let err = dev
        .try_launch(&ShmOob, LaunchConfig::new(1, 32))
        .unwrap_err();
    assert!(matches!(err, SimError::OutOfBounds { .. }));
}

struct ShmHog;
impl Kernel for ShmHog {
    fn name(&self) -> &'static str {
        "shm-hog"
    }
    fn resources(&self) -> KernelResources {
        KernelResources::new(8, 48 * 1024)
    }
    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        // 13,000 u32 = 52 KB > the 48 KB per-block limit.
        blk.shared_alloc_u32(13_000);
    }
}

#[test]
fn shared_overflow_is_caught_at_allocation() {
    let mut dev = Device::new(DeviceConfig::titan_x());
    let err = dev
        .try_launch(&ShmHog, LaunchConfig::new(1, 32))
        .unwrap_err();
    assert!(matches!(err, SimError::SharedMemOverflow { .. }), "{err:?}");
}

#[test]
fn invalid_launches_are_rejected_before_execution() {
    struct Noop;
    impl Kernel for Noop {
        fn name(&self) -> &'static str {
            "noop"
        }
        fn resources(&self) -> KernelResources {
            KernelResources::new(8, 0)
        }
        fn run_block(&self, _blk: &mut BlockCtx<'_>) {
            panic!("must not execute");
        }
    }
    let mut dev = Device::new(DeviceConfig::titan_x());
    // An empty grid is a valid no-op launch — Noop panics if any block
    // actually executes, so success here proves nothing ran.
    let run = dev
        .try_launch(&Noop, LaunchConfig::new(0, 32))
        .expect("empty launch is a no-op");
    assert_eq!(run.tally.blocks_executed, 0);
    assert!(matches!(
        dev.try_launch(&Noop, LaunchConfig::new(1, 0)),
        Err(SimError::InvalidLaunch { .. })
    ));
    assert!(matches!(
        dev.try_launch(&Noop, LaunchConfig::new(1, 4096)),
        Err(SimError::InvalidLaunch { .. })
    ));
}

#[test]
fn out_of_range_bank_count_is_an_invalid_launch() {
    struct Noop;
    impl Kernel for Noop {
        fn name(&self) -> &'static str {
            "noop"
        }
        fn resources(&self) -> KernelResources {
            KernelResources::new(8, 0)
        }
        fn run_block(&self, _blk: &mut BlockCtx<'_>) {
            panic!("must not execute");
        }
    }
    // The scatter walk's counters grow with the bank cycle: a huge bank
    // count must be refused before any block allocates them.
    let mut dev = Device::new(DeviceConfig {
        shared_banks: u32::MAX,
        ..DeviceConfig::titan_x()
    });
    assert!(matches!(
        dev.try_launch(&Noop, LaunchConfig::new(1, 32)),
        Err(SimError::InvalidLaunch { .. })
    ));
}

#[test]
fn faulted_launch_leaves_device_usable() {
    let mut dev = Device::new(DeviceConfig::titan_x());
    let buf = dev.alloc_f32(vec![1.0; 16]);
    let _ = dev.try_launch(&OobKernel { buf }, LaunchConfig::new(1, 32));
    // Device state is still coherent: buffers readable, new launches run.
    assert_eq!(dev.f32_slice(buf)[0], 1.0);
    struct Fill(BufF32);
    impl Kernel for Fill {
        fn name(&self) -> &'static str {
            "fill"
        }
        fn resources(&self) -> KernelResources {
            KernelResources::new(8, 0)
        }
        fn run_block(&self, blk: &mut BlockCtx<'_>) {
            let b = self.0;
            blk.for_each_warp(|w| {
                let tid = w.thread_ids();
                let m = w.mask_lt(&tid, 16);
                w.global_store_f32(b, &tid, &[7.0; 32], m);
            });
        }
    }
    dev.launch(&Fill(buf), LaunchConfig::new(1, 32));
    assert_eq!(dev.f32_slice(buf)[5], 7.0);
}
