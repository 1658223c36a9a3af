//! Device configurations and calibration constants.
//!
//! Latency numbers follow the sources the paper cites in §IV-A/§IV-B:
//! global memory ≈ 350 cycles, read-only data cache ≈ 92 cycles, shared
//! memory ≈ 28 cycles, registers ≈ 1 cycle, and bandwidths of ≈ 3 TB/s for
//! shared memory vs ≈ 1 TB/s for the read-only cache on a Maxwell-class
//! part. Everything else (SM counts, shared-memory sizes, register files)
//! comes from the public GTX 980/Titan X whitepapers referenced by the
//! paper.

/// How the engine schedules thread blocks onto host threads.
///
/// Both modes produce **bit-identical** outputs, access tallies and
/// first-fault reports: the parallel engine executes blocks speculatively
/// against a memory snapshot, then commits write logs and L2 sector
/// traces in block order (see `exec::engine`). The knob therefore only
/// trades host wall-clock time, never simulation results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// One host thread runs every block in grid order (the reference
    /// semantics).
    Sequential,
    /// Blocks are sharded across a scoped worker pool and committed
    /// deterministically in block order. `threads == 0` means "use
    /// [`std::thread::available_parallelism`]".
    Parallel { threads: usize },
}

impl Default for ExecMode {
    fn default() -> Self {
        ExecMode::Parallel { threads: 0 }
    }
}

impl ExecMode {
    /// Number of worker threads this mode resolves to on this host.
    pub fn resolved_threads(&self) -> usize {
        match self {
            ExecMode::Sequential => 1,
            ExecMode::Parallel { threads: 0 } => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            ExecMode::Parallel { threads } => *threads,
        }
    }
}

/// Access latencies in clock cycles for each step of the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latencies {
    /// DRAM (global-memory miss) latency. Paper §IV-A: "about 350 cycles".
    pub global: f64,
    /// L2-hit latency. Measured ≈ 190 cycles on Maxwell (LPGPU poster the
    /// paper cites).
    pub l2: f64,
    /// Read-only data cache (texture path) hit latency. Paper §IV-A:
    /// "about 64 clock cycles higher" than shared memory, i.e. ≈ 92.
    pub roc: f64,
    /// Shared-memory latency. Paper §IV-A: 28 cycles, "lowest in GPUs".
    pub shared: f64,
    /// Register access latency (one cycle, paper §IV-A citing the CUDA
    /// best-practices guide).
    pub register: f64,
    /// Dependent-issue latency of a simple arithmetic instruction
    /// (Maxwell FP32 pipeline depth ≈ 6 cycles).
    pub alu: f64,
    /// Extra serialization cycles charged per *additional* lane that hits
    /// the same shared-memory address in one atomic warp instruction.
    pub shared_atomic_replay: f64,
    /// Extra serialization cycles per additional same-address lane for a
    /// global atomic (round-trips through L2's atomic units).
    pub global_atomic_replay: f64,
}

/// Sustained throughputs used by the timing model's busy-cycle accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Throughputs {
    /// Device-wide DRAM bandwidth in bytes per clock cycle.
    /// Titan X: 336 GB/s at ~1.0 GHz ⇒ 336 B/cycle.
    pub dram_bytes_per_cycle: f64,
    /// Device-wide *sustained* L2 bandwidth in bytes per cycle. The
    /// paper's Table III shows the L2-bound Naive-Out kernel achieving
    /// 437 GB/s; a 600 B/cycle (≈600 GB/s) sustained ceiling reproduces
    /// the ≈5.5× Naive-vs-tiled gap of its Figure 2.
    pub l2_bytes_per_cycle: f64,
    /// Read-only cache bandwidth per SM in bytes per cycle.
    /// Paper §IV-B: ≈ 1 TB/s aggregate ⇒ 1000/24 ≈ 42 B/cycle/SM.
    pub roc_bytes_per_cycle_per_sm: f64,
    /// Shared-memory bandwidth per SM in bytes per cycle: one 128-byte
    /// warp-wide access per cycle ⇒ 128 B/cycle/SM (≈ 3 TB/s aggregate on
    /// 24 SMs at 1 GHz, matching the paper's §IV-B).
    pub shared_bytes_per_cycle_per_sm: f64,
    /// Warp instructions issued per cycle per SM (number of warp
    /// schedulers; 4 on Kepler/Maxwell).
    pub issue_per_cycle_per_sm: f64,
    /// FP32 warp-instructions retired per cycle per SM
    /// (= cores_per_sm / 32; 4 on Maxwell's 128-core SM).
    pub alu_warps_per_cycle_per_sm: f64,
    /// Global atomic operations resolved per cycle, device-wide, in the
    /// absence of address conflicts (one per L2 slice; GM200 has 24
    /// slices but the atomic units sustain far less — calibrated so the
    /// naive SDH kernel lands an order of magnitude behind the privatized
    /// kernels, as in the paper's Figure 4).
    pub global_atomics_per_cycle: f64,
}

/// Full description of a simulated device.
///
/// The default preset, [`DeviceConfig::titan_x`], models the GTX Titan X
/// (Maxwell GM200) used in the paper's evaluation. Fermi and Kepler
/// presets are provided to study how the winning technique shifts across
/// architecture generations (the paper's §III-A observation that newer
/// architectures add features such as warp shuffle).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Human-readable device name.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// CUDA cores (FP32 lanes) per SM.
    pub cores_per_sm: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block accepted by a launch.
    pub max_threads_per_block: u32,
    /// Shared memory capacity per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Shared memory limit per block in bytes.
    pub shared_mem_per_block: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Maximum registers addressable by one thread.
    pub max_registers_per_thread: u32,
    /// Read-only data cache capacity per SM in bytes (24 KB usable per
    /// Maxwell SM partition pair).
    pub roc_capacity_per_sm: u32,
    /// L2 cache capacity in bytes (3 MB on GM200).
    pub l2_capacity: u32,
    /// Memory transaction granularity in bytes (32-byte sectors on
    /// Kepler+).
    pub sector_bytes: u32,
    /// Shared-memory banks per SM (32 four-byte-wide banks). Launches
    /// refuse a count outside `1..=64` (`LaunchConfig::validate`).
    pub shared_banks: u32,
    /// Core clock in GHz; converts cycles to seconds.
    pub clock_ghz: f64,
    /// Whether the device supports warp shuffle (Kepler and later — the
    /// paper's §IV-E2 notes shuffle arrived with Kepler).
    pub has_shuffle: bool,
    /// Latency table.
    pub lat: Latencies,
    /// Throughput table.
    pub thr: Throughputs,
    /// Host→device transfer bandwidth in GB/s (PCI-E; §III-A "Host can
    /// transfer data to the global memory via DMA over PCI-E link").
    /// PCIe 3.0 ×16 sustains ≈ 12 GB/s.
    pub pcie_gbps: f64,
    /// Fixed per-transfer launch/DMA-setup latency in microseconds.
    pub pcie_latency_us: f64,
    /// Memory-level parallelism per warp: how many outstanding memory
    /// operations a warp keeps in flight on average (dual-issue +
    /// non-blocking loads). Divides the latency-exposure bound.
    pub latency_ilp: f64,
    /// Fixed pipeline cost of a `__syncthreads()` per warp, in cycles.
    pub sync_cycles: f64,
    /// Re-convergence overhead charged whenever a warp executes an
    /// iteration with a partially-active mask (models the branch
    /// re-convergence stack; calibrated so removing intra-block
    /// divergence wins ≈ 12 % as in the paper's Figure 7).
    pub divergence_penalty_cycles: f64,
    /// How the functional engine maps thread blocks onto host threads.
    /// Purely a host-performance knob: results are bit-identical across
    /// modes.
    pub exec_mode: ExecMode,
    /// Route the interpreter through the retained scalar reference
    /// implementations (per-lane ALU loops, map+deque caches, nested-scan
    /// bank-conflict counting) instead of the vectorized fast paths.
    /// Results are bit-identical either way — this knob exists for
    /// differential testing and before/after host-performance
    /// measurement, never for accuracy.
    pub scalar_reference: bool,
    /// Execute whole kernel plans through the compiled route
    /// (`exec::compiled`): tile fetches, inner tile passes and
    /// intra-block loops run as straight-line host code with their
    /// instruction/byte/sector accounting charged from precomputed
    /// closed-form tally deltas instead of per-dispatch interpretation.
    /// It selects no cache body: the L2 and ROC use the same fast body
    /// on both routes. Any shape the compiler does not support — and
    /// any pass whose fault pre-flight fails — falls back
    /// to the op-by-op route, which stays bit-identical and serves as
    /// the differential oracle. Like `scalar_reference` this is purely a
    /// host-speed choice: outputs, tallies, timing and fault blame never
    /// change. Ignored (treated as off) when `scalar_reference` is set.
    /// On by default in every preset; the differential suites select
    /// the op-by-op oracle route with `with_compiled(false)`.
    pub compiled: bool,
}

impl DeviceConfig {
    /// GTX Titan X (Maxwell GM200) — the paper's evaluation platform:
    /// 24 SMs × 128 cores, 12 GB GDDR5, 96 KB shared memory per SM.
    pub fn titan_x() -> Self {
        DeviceConfig {
            name: "GTX Titan X (Maxwell GM200)",
            num_sms: 24,
            cores_per_sm: 128,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            shared_mem_per_sm: 96 * 1024,
            shared_mem_per_block: 48 * 1024,
            registers_per_sm: 64 * 1024,
            max_registers_per_thread: 255,
            roc_capacity_per_sm: 24 * 1024,
            l2_capacity: 3 * 1024 * 1024,
            sector_bytes: 32,
            shared_banks: 32,
            clock_ghz: 1.0,
            has_shuffle: true,
            lat: Latencies {
                global: 350.0,
                l2: 190.0,
                roc: 92.0,
                shared: 28.0,
                register: 1.0,
                alu: 6.0,
                shared_atomic_replay: 6.0,
                global_atomic_replay: 120.0,
            },
            thr: Throughputs {
                dram_bytes_per_cycle: 336.0,
                l2_bytes_per_cycle: 600.0,
                roc_bytes_per_cycle_per_sm: 42.0,
                shared_bytes_per_cycle_per_sm: 128.0,
                issue_per_cycle_per_sm: 4.0,
                alu_warps_per_cycle_per_sm: 4.0,
                global_atomics_per_cycle: 0.5,
            },
            pcie_gbps: 12.0,
            pcie_latency_us: 10.0,
            latency_ilp: 1.5,
            sync_cycles: 24.0,
            divergence_penalty_cycles: 10.0,
            exec_mode: ExecMode::Parallel { threads: 0 },
            scalar_reference: false,
            compiled: true,
        }
    }

    /// Tesla K40 (Kepler GK110b): 15 SMX × 192 cores, 48 KB shared/SM.
    /// First generation with warp shuffle.
    pub fn kepler_k40() -> Self {
        DeviceConfig {
            name: "Tesla K40 (Kepler GK110b)",
            num_sms: 15,
            cores_per_sm: 192,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            shared_mem_per_sm: 48 * 1024,
            shared_mem_per_block: 48 * 1024,
            registers_per_sm: 64 * 1024,
            max_registers_per_thread: 255,
            roc_capacity_per_sm: 48 * 1024,
            l2_capacity: 1536 * 1024,
            sector_bytes: 32,
            shared_banks: 32,
            clock_ghz: 0.745,
            has_shuffle: true,
            lat: Latencies {
                global: 340.0,
                l2: 200.0,
                roc: 110.0,
                shared: 48.0,
                register: 1.0,
                alu: 9.0,
                shared_atomic_replay: 18.0,
                global_atomic_replay: 150.0,
            },
            thr: Throughputs {
                dram_bytes_per_cycle: 386.0,
                l2_bytes_per_cycle: 430.0,
                roc_bytes_per_cycle_per_sm: 48.0,
                shared_bytes_per_cycle_per_sm: 128.0,
                issue_per_cycle_per_sm: 4.0,
                alu_warps_per_cycle_per_sm: 6.0,
                global_atomics_per_cycle: 1.0,
            },
            pcie_gbps: 12.0,
            pcie_latency_us: 10.0,
            latency_ilp: 1.3,
            sync_cycles: 30.0,
            divergence_penalty_cycles: 14.0,
            exec_mode: ExecMode::Parallel { threads: 0 },
            scalar_reference: false,
            compiled: true,
        }
    }

    /// GTX 580 (Fermi GF110): 16 SM × 32 cores; no warp shuffle, no
    /// dedicated read-only data cache path, much slower atomics.
    pub fn fermi_gtx580() -> Self {
        DeviceConfig {
            name: "GTX 580 (Fermi GF110)",
            num_sms: 16,
            cores_per_sm: 32,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 8,
            max_threads_per_block: 1024,
            shared_mem_per_sm: 48 * 1024,
            shared_mem_per_block: 48 * 1024,
            registers_per_sm: 32 * 1024,
            max_registers_per_thread: 63,
            roc_capacity_per_sm: 12 * 1024,
            l2_capacity: 768 * 1024,
            sector_bytes: 32,
            shared_banks: 32,
            clock_ghz: 1.544,
            has_shuffle: false,
            lat: Latencies {
                global: 420.0,
                l2: 240.0,
                roc: 160.0,
                shared: 50.0,
                register: 1.0,
                alu: 18.0,
                shared_atomic_replay: 40.0,
                global_atomic_replay: 300.0,
            },
            thr: Throughputs {
                dram_bytes_per_cycle: 124.0,
                l2_bytes_per_cycle: 250.0,
                roc_bytes_per_cycle_per_sm: 16.0,
                shared_bytes_per_cycle_per_sm: 64.0,
                issue_per_cycle_per_sm: 2.0,
                alu_warps_per_cycle_per_sm: 1.0,
                global_atomics_per_cycle: 0.25,
            },
            pcie_gbps: 6.0,
            pcie_latency_us: 12.0,
            latency_ilp: 1.1,
            sync_cycles: 40.0,
            divergence_penalty_cycles: 16.0,
            exec_mode: ExecMode::Parallel { threads: 0 },
            scalar_reference: false,
            compiled: true,
        }
    }

    /// Builder-style override of the block-scheduling mode.
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Self {
        self.exec_mode = mode;
        self
    }

    /// Builder-style toggle of the scalar reference interpreter (see the
    /// [`DeviceConfig::scalar_reference`] field). Host-speed knob only;
    /// simulation results never change.
    pub fn with_scalar_reference(mut self, on: bool) -> Self {
        self.scalar_reference = on;
        self
    }

    /// Builder-style toggle of the compiled plan-execution layer (see
    /// the [`DeviceConfig::compiled`] field). Host-speed knob only;
    /// simulation results never change. Unsupported shapes fall back to
    /// the vectorized op-by-op route.
    pub fn with_compiled(mut self, on: bool) -> Self {
        self.compiled = on;
        self
    }

    /// Maximum resident warps per SM.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / crate::WARP_SIZE as u32
    }

    /// Convert a cycle count into seconds at this device's clock.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1e9)
    }

    /// Number of 32-byte sectors the L2 can hold.
    pub fn l2_sectors(&self) -> usize {
        (self.l2_capacity / self.sector_bytes) as usize
    }

    /// Number of sectors the per-SM read-only cache can hold.
    pub fn roc_sectors(&self) -> usize {
        (self.roc_capacity_per_sm / self.sector_bytes) as usize
    }

    /// Simulated host↔device transfer time for `bytes` over PCI-E.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.pcie_latency_us * 1e-6 + bytes as f64 / (self.pcie_gbps * 1e9)
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::titan_x()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_x_matches_paper_platform() {
        let cfg = DeviceConfig::titan_x();
        // Paper §III-A: up to 16+ multiprocessors, 96 KB shared memory,
        // warp size 32; §IV-A latencies 350/92/28/1.
        assert_eq!(cfg.shared_mem_per_sm, 96 * 1024);
        assert_eq!(cfg.lat.global, 350.0);
        assert_eq!(cfg.lat.roc, 92.0);
        assert_eq!(cfg.lat.shared, 28.0);
        assert_eq!(cfg.lat.register, 1.0);
        assert!(cfg.has_shuffle);
    }

    #[test]
    fn aggregate_bandwidths_match_paper_claims() {
        let cfg = DeviceConfig::titan_x();
        // §IV-B: shared ≈ 3 TB/s vs ROC ≈ 1 TB/s.
        let shared_tbps =
            cfg.thr.shared_bytes_per_cycle_per_sm * cfg.num_sms as f64 * cfg.clock_ghz / 1000.0;
        let roc_tbps =
            cfg.thr.roc_bytes_per_cycle_per_sm * cfg.num_sms as f64 * cfg.clock_ghz / 1000.0;
        assert!(
            (2.5..3.5).contains(&shared_tbps),
            "shared {shared_tbps} TB/s"
        );
        assert!((0.8..1.2).contains(&roc_tbps), "roc {roc_tbps} TB/s");
    }

    #[test]
    fn max_warps_and_unit_conversions() {
        let cfg = DeviceConfig::titan_x();
        assert_eq!(cfg.max_warps_per_sm(), 64);
        assert_eq!(cfg.cycles_to_seconds(1e9), 1.0);
        assert_eq!(cfg.l2_sectors(), 3 * 1024 * 1024 / 32);
    }

    #[test]
    fn pcie_transfer_model() {
        let cfg = DeviceConfig::titan_x();
        // 1 GB at 12 GB/s ≈ 83 ms; tiny transfers are latency-bound.
        let big = cfg.transfer_seconds(1 << 30);
        assert!((0.08..0.1).contains(&big), "{big}");
        let tiny = cfg.transfer_seconds(64);
        assert!(tiny >= 1e-5, "{tiny}");
        // An N = 2M 3-D upload (24 MB) is ~2 ms — small next to the
        // seconds-scale kernels, which is why the paper can ignore it.
        let upload = cfg.transfer_seconds(2_000_000 * 12);
        assert!(upload < 5e-3, "{upload}");
    }

    #[test]
    fn fermi_lacks_shuffle() {
        assert!(!DeviceConfig::fermi_gtx580().has_shuffle);
        assert!(DeviceConfig::kepler_k40().has_shuffle);
    }
}
