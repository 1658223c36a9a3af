//! The output-reduction kernel — the paper's Figure 3.
//!
//! After a privatized SDH/RDF kernel finishes, global memory holds one
//! private `u32` histogram copy per block. This kernel is "configured to
//! have one thread handle one element in the output array": thread `h`
//! sums `private[m·H + h]` over all `m` copies (coalesced loads — copies
//! are contiguous) and writes the final `u64` count.

use gpu_sim::{BlockCtx, BufU32, BufU64, Kernel, KernelResources, U32x32, U64x32, WARP_SIZE};

/// Figure-3 reduction: combine per-block private histogram copies.
#[derive(Debug, Clone, Copy)]
pub struct HistogramReduceKernel {
    /// Private copies, `copies × buckets` u32 values.
    pub private: BufU32,
    /// Final histogram, `buckets` u64 values.
    pub out: BufU64,
    /// Histogram size H.
    pub buckets: u32,
    /// Number of private copies (the pair kernel's grid size M).
    pub copies: u32,
}

impl HistogramReduceKernel {
    /// The launch geometry the paper prescribes: one thread per bucket.
    pub fn launch_config(&self, block_dim: u32) -> gpu_sim::LaunchConfig {
        gpu_sim::LaunchConfig::for_n_threads(self.buckets, block_dim)
    }
}

impl Kernel for HistogramReduceKernel {
    fn name(&self) -> &'static str {
        "histogram-reduce"
    }

    fn resources(&self) -> KernelResources {
        KernelResources::new(16, 0)
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let (private, out, h, m) = (self.private, self.out, self.buckets, self.copies);
        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let mask = w.mask_lt(&gid, h).and(w.active_threads());
            if !mask.any() {
                return;
            }
            let mut acc: U64x32 = [0; WARP_SIZE];
            // The compiled route lowers the whole copy loop — control
            // charge included — to one call (bit-identical tally and L2
            // stream). On decline (scalar reference, compiled route off,
            // ragged masks, out-of-bounds copies) the op-by-op loop runs.
            if !w.compiled_copy_reduce_u32(private, &gid, h, m, &mut acc, mask) {
                w.charge_control(m as u64 + 1, mask);
                for copy in 0..m {
                    let idx: U32x32 = std::array::from_fn(|i| copy * h + gid[i]);
                    let vals = w.global_load_u32(private, &idx, mask);
                    w.charge_alu(2, mask); // address + accumulate
                    for lane in mask.lanes() {
                        acc[lane] += vals[lane] as u64;
                    }
                }
            }
            w.global_store_u64(out, &gid, &acc, mask);
        });
    }
}

/// Device-side sum reduction of a `u64` array to a single value —
/// warp-level `shfl_down` tree (the technique of the paper's reduction
/// reference \[24\]) plus one global atomic per warp. Used to finish
/// Type-I outputs on-device instead of summing on the host.
#[derive(Debug, Clone, Copy)]
pub struct SumReduceKernel {
    /// Values to sum.
    pub input: BufU64,
    /// One-element output accumulator (must be zeroed by the host).
    pub out: BufU64,
    /// Number of valid input elements.
    pub n: u32,
}

impl SumReduceKernel {
    /// One thread per element.
    pub fn launch_config(&self, block_dim: u32) -> gpu_sim::LaunchConfig {
        gpu_sim::LaunchConfig::for_n_threads(self.n, block_dim)
    }
}

impl Kernel for SumReduceKernel {
    fn name(&self) -> &'static str {
        "sum-reduce"
    }

    fn resources(&self) -> KernelResources {
        KernelResources::new(12, 0)
    }

    fn run_block(&self, blk: &mut BlockCtx<'_>) {
        let (input, out, n) = (self.input, self.out, self.n);
        blk.for_each_warp(|w| {
            let gid = w.global_thread_ids();
            let mask = w.mask_lt(&gid, n).and(w.active_threads());
            if !mask.any() {
                return;
            }
            let mut vals = w.global_load_u64(input, &gid, mask);
            // shfl_down tree: after log2(32) steps lane 0 holds the warp
            // sum. Inactive lanes contribute zero (the load masked them).
            let mut delta = WARP_SIZE as u32 / 2;
            while delta > 0 {
                let shifted = w.shfl_down_u64(&vals, delta, gpu_sim::Mask::FULL);
                w.charge_alu(1, gpu_sim::Mask::FULL);
                for lane in 0..WARP_SIZE {
                    // Lanes beyond 32-delta receive their own value from
                    // shfl_down; add only the genuinely shifted ones.
                    vals[lane] = vals[lane].wrapping_add(if lane + (delta as usize) < WARP_SIZE {
                        shifted[lane]
                    } else {
                        0
                    });
                }
                delta /= 2;
            }
            // One atomic per warp, from lane 0.
            let leader = gpu_sim::Mask(1);
            w.global_atomic_add_u64(out, &[0; WARP_SIZE], &vals, leader);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{Device, DeviceConfig};

    #[test]
    fn reduces_private_copies_to_final_histogram() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        // 3 copies × 5 buckets.
        let private = dev.alloc_u32(vec![
            1, 2, 3, 4, 5, // copy 0
            10, 20, 30, 40, 50, // copy 1
            100, 200, 300, 400, 500, // copy 2
        ]);
        let out = dev.alloc_u64_zeroed(5);
        let k = HistogramReduceKernel {
            private,
            out,
            buckets: 5,
            copies: 3,
        };
        dev.launch(&k, k.launch_config(32));
        assert_eq!(dev.u64_slice(out), &[111, 222, 333, 444, 555]);
    }

    #[test]
    fn handles_more_buckets_than_one_block() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let h = 300u32;
        let copies = 4u32;
        let data: Vec<u32> = (0..h * copies).map(|i| i % 7).collect();
        let out = dev.alloc_u64_zeroed(h as usize);
        let private = dev.alloc_u32(data.clone());
        let k = HistogramReduceKernel {
            private,
            out,
            buckets: h,
            copies,
        };
        dev.launch(&k, k.launch_config(128));
        let result = dev.u64_slice(out);
        for b in 0..h {
            let expect: u64 = (0..copies).map(|c| data[(c * h + b) as usize] as u64).sum();
            assert_eq!(result[b as usize], expect, "bucket {b}");
        }
    }

    #[test]
    fn sum_reduce_matches_host_sum() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let data: Vec<u64> = (0..1000u64).map(|i| i * 3 + 1).collect();
        let expect: u64 = data.iter().sum();
        let input = dev.alloc_u64(data);
        let out = dev.alloc_u64_zeroed(1);
        let k = SumReduceKernel {
            input,
            out,
            n: 1000,
        };
        dev.launch(&k, k.launch_config(128));
        assert_eq!(dev.u64_slice(out)[0], expect);
    }

    #[test]
    fn sum_reduce_uses_one_atomic_per_warp() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = dev.alloc_u64(vec![1; 256]);
        let out = dev.alloc_u64_zeroed(1);
        let k = SumReduceKernel { input, out, n: 256 };
        let run = dev.launch(&k, k.launch_config(64));
        assert_eq!(dev.u64_slice(out)[0], 256);
        assert_eq!(run.tally.global_atomics, 8, "8 warps -> 8 atomics");
        // 5 shfl_down steps per warp.
        assert_eq!(run.tally.shuffle_instructions, 8 * 5);
    }

    #[test]
    fn sum_reduce_handles_ragged_tail() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = dev.alloc_u64((1..=77u64).collect());
        let out = dev.alloc_u64_zeroed(1);
        let k = SumReduceKernel { input, out, n: 77 };
        dev.launch(&k, k.launch_config(32));
        assert_eq!(dev.u64_slice(out)[0], 77 * 78 / 2);
    }

    #[test]
    fn reduction_loads_are_coalesced() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let h = 256u32;
        let copies = 8u32;
        let private = dev.alloc_u32(vec![1; (h * copies) as usize]);
        let out = dev.alloc_u64_zeroed(h as usize);
        let k = HistogramReduceKernel {
            private,
            out,
            buckets: h,
            copies,
        };
        let run = dev.launch(&k, k.launch_config(256));
        // 8 warps × 8 copies coalesced loads, 4 sectors each.
        assert_eq!(run.tally.global_load_instructions, 64);
        assert_eq!(
            run.tally.global_sectors() - run.tally.global_sectors() % 4,
            run.tally.global_sectors()
        );
    }
}
