//! Instrumentation counters collected while a kernel executes.
//!
//! An [`AccessTally`] is the bridge between the functional engine and the
//! timing model: the engine fills one in from the *actual* addresses and
//! masks each warp issues, and `tbs-core::analytic` produces the same
//! structure from closed-form expressions (the paper's equations 2–7),
//! letting property tests assert the two agree.

/// Counters for every event class the timing model charges for.
///
/// All counts are whole-kernel totals; the timing model divides by the SM
/// count where appropriate.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AccessTally {
    // ---- instruction issue ----
    /// Total warp instructions issued (arithmetic + memory + control +
    /// shuffle + sync).
    pub warp_instructions: u64,
    /// Arithmetic (FP32/int) warp instructions.
    pub alu_instructions: u64,
    /// Control-flow warp instructions (loop tests, branches).
    pub control_instructions: u64,
    /// Warp shuffle instructions (register content exchange, §IV-E2).
    pub shuffle_instructions: u64,
    /// `__syncthreads()` executions, counted per warp.
    pub sync_instructions: u64,
    /// Sum of active lanes over all issued instructions (useful work).
    pub useful_lane_ops: u64,
    /// Sum of *inactive* lane slots over all issued instructions — the
    /// SIMD capacity wasted to divergence/predication.
    pub predicated_lane_slots: u64,
    /// Number of loop iterations executed with a partially-active mask
    /// (each one pays the re-convergence penalty).
    pub divergent_iterations: u64,

    // ---- global memory ----
    /// 32-byte sectors requested from the global-memory path that *hit*
    /// in L2.
    pub l2_hit_sectors: u64,
    /// 32-byte sectors that missed L2 and went to DRAM.
    pub dram_sectors: u64,
    /// Warp-level global load instructions.
    pub global_load_instructions: u64,
    /// Warp-level global store instructions.
    pub global_store_instructions: u64,
    /// Bytes usefully loaded from global memory (active lanes × width).
    pub global_load_bytes: u64,
    /// Bytes usefully stored to global memory.
    pub global_store_bytes: u64,
    /// Warp-level global atomic instructions.
    pub global_atomics: u64,
    /// Serialization: Σ over global atomic instructions of the maximum
    /// number of active lanes sharing one address (≥ 1 per instruction).
    pub global_atomic_serial: u64,

    // ---- read-only data cache ----
    /// Warp-level load instructions issued on the ROC path.
    pub roc_load_instructions: u64,
    /// 32-byte sectors served by the read-only cache (hits).
    pub roc_hit_sectors: u64,
    /// 32-byte sectors that missed the ROC (also counted in L2/DRAM
    /// traffic above).
    pub roc_miss_sectors: u64,
    /// Bytes usefully loaded through the ROC path.
    pub roc_bytes: u64,

    // ---- shared memory ----
    /// Warp-level shared load instructions.
    pub shared_load_instructions: u64,
    /// Warp-level shared store instructions.
    pub shared_store_instructions: u64,
    /// Warp-level shared-memory transactions, *including* bank-conflict
    /// replays and atomic serialization replays.
    pub shared_transactions: u64,
    /// Bytes moved to/from shared memory (active lanes × width).
    pub shared_bytes: u64,
    /// Extra transactions caused by bank conflicts (degree − 1 summed).
    pub shared_bank_replays: u64,
    /// Warp-level shared atomic instructions.
    pub shared_atomics: u64,
    /// Serialization: Σ over shared atomic instructions of the maximum
    /// number of active lanes sharing one address.
    pub shared_atomic_serial: u64,

    // ---- bookkeeping ----
    /// Thread blocks executed.
    pub blocks_executed: u64,
    /// Warps executed (blocks × warps per block).
    pub warps_executed: u64,
}

impl AccessTally {
    /// Create an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulate another tally into this one (used to merge per-block
    /// tallies into the kernel total).
    pub fn merge(&mut self, o: &AccessTally) {
        self.warp_instructions += o.warp_instructions;
        self.alu_instructions += o.alu_instructions;
        self.control_instructions += o.control_instructions;
        self.shuffle_instructions += o.shuffle_instructions;
        self.sync_instructions += o.sync_instructions;
        self.useful_lane_ops += o.useful_lane_ops;
        self.predicated_lane_slots += o.predicated_lane_slots;
        self.divergent_iterations += o.divergent_iterations;
        self.l2_hit_sectors += o.l2_hit_sectors;
        self.dram_sectors += o.dram_sectors;
        self.global_load_instructions += o.global_load_instructions;
        self.global_store_instructions += o.global_store_instructions;
        self.global_load_bytes += o.global_load_bytes;
        self.global_store_bytes += o.global_store_bytes;
        self.global_atomics += o.global_atomics;
        self.global_atomic_serial += o.global_atomic_serial;
        self.roc_load_instructions += o.roc_load_instructions;
        self.roc_hit_sectors += o.roc_hit_sectors;
        self.roc_miss_sectors += o.roc_miss_sectors;
        self.roc_bytes += o.roc_bytes;
        self.shared_load_instructions += o.shared_load_instructions;
        self.shared_store_instructions += o.shared_store_instructions;
        self.shared_transactions += o.shared_transactions;
        self.shared_bytes += o.shared_bytes;
        self.shared_bank_replays += o.shared_bank_replays;
        self.shared_atomics += o.shared_atomics;
        self.shared_atomic_serial += o.shared_atomic_serial;
        self.blocks_executed += o.blocks_executed;
        self.warps_executed += o.warps_executed;
    }

    /// Total sectors requested on the global path (L2 hits + DRAM).
    pub fn global_sectors(&self) -> u64 {
        self.l2_hit_sectors + self.dram_sectors
    }

    /// SIMD efficiency: fraction of issued lane slots doing useful work.
    /// 1.0 means no divergence at all.
    pub fn simd_efficiency(&self) -> f64 {
        let total = self.useful_lane_ops + self.predicated_lane_slots;
        if total == 0 {
            1.0
        } else {
            self.useful_lane_ops as f64 / total as f64
        }
    }

    /// Average global atomic contention degree (1.0 = conflict-free).
    pub fn global_atomic_contention(&self) -> f64 {
        if self.global_atomics == 0 {
            1.0
        } else {
            self.global_atomic_serial as f64 / self.global_atomics as f64
        }
    }

    /// Average shared atomic contention degree (1.0 = conflict-free).
    pub fn shared_atomic_contention(&self) -> f64 {
        if self.shared_atomics == 0 {
            1.0
        } else {
            self.shared_atomic_serial as f64 / self.shared_atomics as f64
        }
    }
}

/// Host-side interpreter statistics: dispatch counts, compiled-pass
/// coverage and culled rows.
///
/// Deliberately a separate struct from [`AccessTally`]: the tally models
/// the *simulated device* and is compared bit-for-bit by the differential
/// tests, while these counters describe how the *interpreter* executed —
/// the compiled route and the op-by-op route produce identical tallies
/// but very different `InterpStats`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct InterpStats {
    /// Interpreter op dispatches: one per warp-level charge entry
    /// (`charge`/`charge_alu`/`charge_control`), i.e. one per
    /// individually-interpreted warp instruction. Compiled passes
    /// charge whole tiles in closed form and so count as few dispatches
    /// for many warp instructions.
    pub dispatches: u64,
    /// Compiled (plan-lowered) passes executed: whole tile loads, inner
    /// tile passes and intra-block triangles run as straight-line host
    /// code with closed-form charges.
    pub compiled_ops: u64,
    /// Useful lane ops covered by compiled passes (compare against
    /// `AccessTally::useful_lane_ops` for coverage).
    pub compiled_lane_ops: u64,
    /// Tile-pass rows (one partner against a warp's active lanes) that
    /// compiled Euclidean passes culled, by the chunk-box test or a
    /// histogram list's row test: rows provably landing every lane in
    /// each histogram's overflow bucket and outside every count radius,
    /// charged in closed form instead of being evaluated, bucketed and
    /// walked.
    pub culled_rows: u64,
}

impl InterpStats {
    /// Accumulate another stats block into this one.
    pub fn merge(&mut self, o: &InterpStats) {
        self.dispatches += o.dispatches;
        self.compiled_ops += o.compiled_ops;
        self.compiled_lane_ops += o.compiled_lane_ops;
        self.culled_rows += o.culled_rows;
    }

    /// Always 0.0: there is no fused route — every lane op runs
    /// compiled or op by op. Kept for reports that print a
    /// fused-coverage column, so they read an honest zero.
    pub fn fused_coverage(&self, _tally: &AccessTally) -> f64 {
        0.0
    }

    /// Fraction of useful lane ops executed by compiled (plan-lowered)
    /// passes, given the run's tally. 0.0 when nothing ran.
    pub fn compiled_coverage(&self, tally: &AccessTally) -> f64 {
        if tally.useful_lane_ops == 0 {
            0.0
        } else {
            self.compiled_lane_ops as f64 / tally.useful_lane_ops as f64
        }
    }

    /// Always 0.0: the simulated caches keep no memo table. Kept for
    /// reports that print a memo-hit-rate column, so they read an
    /// honest zero.
    pub fn memo_hit_rate(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AccessTally {
        AccessTally {
            warp_instructions: 100,
            alu_instructions: 60,
            useful_lane_ops: 1600,
            predicated_lane_slots: 400,
            shared_atomics: 10,
            shared_atomic_serial: 25,
            l2_hit_sectors: 7,
            dram_sectors: 3,
            ..Default::default()
        }
    }

    #[test]
    fn merge_adds_all_fields() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.warp_instructions, 200);
        assert_eq!(a.alu_instructions, 120);
        assert_eq!(a.shared_atomic_serial, 50);
        assert_eq!(a.global_sectors(), 20);
    }

    #[test]
    fn simd_efficiency_counts_predication() {
        let t = sample();
        assert!((t.simd_efficiency() - 0.8).abs() < 1e-12);
        assert_eq!(AccessTally::default().simd_efficiency(), 1.0);
    }

    #[test]
    fn contention_degrees() {
        let t = sample();
        assert!((t.shared_atomic_contention() - 2.5).abs() < 1e-12);
        assert_eq!(t.global_atomic_contention(), 1.0);
    }
}
