//! Operand sources, predicates and sinks of a compiled inner tile pass.
//!
//! The paper's tiling kernels spend almost all of their time in one inner
//! loop shape: *for each element `j` of a resident tile, broadcast the
//! element to the warp, evaluate a distance against per-lane registers
//! under a predicate, and fold the value into a per-lane accumulator.*
//! [`WarpCtx::compiled_tile_pass`](super::WarpCtx::compiled_tile_pass)
//! executes that whole loop from a lowered plan in one call, with every
//! instruction/byte/lane charge in closed form — bit-identical to the
//! op-by-op route (`tests/differential.rs` proves it).
//!
//! The three enums here describe the loop to the compiled pass: where
//! the broadcast operand comes from ([`TileSrc`]), which lanes
//! participate at each step ([`TilePred`]), and what happens to the
//! distance value ([`TileSink`]).

use crate::mem::{BufF32, ShmF32, ShmU32};
use crate::{F32x32, U64x32};

/// Where the per-step broadcast operand of a tile pass comes from.
///
/// At step `j` (0-based) the pass materializes one `D`-dimensional
/// point that every active lane compares against its own registers.
#[derive(Debug, Clone, Copy)]
pub enum TileSrc<'t, const D: usize> {
    /// Element `j` of each of `D` shared-memory tile arrays
    /// (`broadcast_from_shared` per step). Charged as one shared load
    /// instruction / one broadcast transaction per dimension per step.
    SharedBroadcast(&'t [ShmF32; D]),
    /// Element `start + j` of each of `D` global coordinate buffers read
    /// through the read-only data cache (`roc_broadcast` per step). The
    /// per-sector hit/miss stream is driven in batched sector runs: the
    /// first touch of each sector probes for real, and while the FIFO's
    /// eviction generation is unchanged the remaining touches of the run
    /// replay as bulk hits — ROC/L2 state and counters match the op-by-op
    /// route exactly.
    RocBroadcast {
        /// One coordinate buffer per dimension.
        bufs: &'t [BufF32; D],
        /// Global element index of tile step 0.
        start: u32,
    },
    /// Lane `j % 32` of a register fragment held by the warp itself
    /// (`shfl_bcast_f32` per step, the paper's §IV-E2 shuffle kernel).
    /// Charged as one shuffle instruction per dimension per step.
    LaneBroadcast(&'t [F32x32; D]),
}

/// Which lanes evaluate the distance at step `j` of a tile pass.
///
/// The predicates mirror the three guard expressions the tiling kernels
/// emit. `gid0` is the global thread id of lane 0 and `base` the global
/// element index of step 0; lane `l` holds element `gid0 + l` and step
/// `j` broadcasts element `base + j` — contiguity is what makes the
/// masks computable in closed form.
#[derive(Debug, Clone, Copy)]
pub enum TilePred {
    /// Every valid lane participates at every step (inter-block tiles:
    /// the sets are disjoint). No predicate ALU charge.
    All,
    /// Skip the self-pair `gid0 + l == base + j` (intra-block
    /// `AllPairs`). Charged one ALU op per step, as `ne_u32` would be.
    NotEqual {
        /// Global thread id of lane 0.
        gid0: u32,
        /// Global element index of tile step 0.
        base: u32,
    },
    /// Only lanes with `gid0 + l < base + j` participate (intra-block
    /// `HalfPairs` in the shuffle kernel). Charged one ALU op per step.
    LessThan {
        /// Global thread id of lane 0.
        gid0: u32,
        /// Global element index of tile step 0.
        base: u32,
    },
}

/// What a tile pass does with each per-lane distance value.
///
/// These mirror the `PairAction::process` bodies of the actions that
/// declare a compiled sink; the ALU charges per step are identical to
/// the op-by-op calls.
#[derive(Debug)]
pub enum TileSink<'c> {
    /// `CountWithinRadius`: `acc[l] += 1` where the value is strictly
    /// below `radius` (two ALU ops per step: compare + add).
    CountLt {
        /// Exclusive distance threshold.
        radius: f32,
        /// Per-lane hit counters for this warp.
        acc: &'c mut U64x32,
    },
    /// `SharedHistogramAction`: bucket the value (two ALU ops) and
    /// scatter into the privatized histogram. The atomic's
    /// data-dependent serialization is accounted in closed form from the
    /// bucket indices instead of dispatching a simulated 32-lane atomic
    /// per step; a fault pre-flight declines the whole pass to the
    /// op-by-op route if any scatter could go out of bounds.
    Histogram {
        /// `buckets / max_distance` (see `HistogramSpec::inv_width`).
        inv_width: f32,
        /// Highest valid bucket index (`buckets - 1`).
        hmax: u32,
        /// The privatized per-block histogram.
        shm: ShmU32,
    },
    /// `MultiQueryAction` (the serve layer's coalesced batch): one
    /// distance evaluation per step feeds every sink in order, so k
    /// queries over the same dataset share a single pairwise sweep.
    /// ALU, warp-instruction, and scatter charges are the sums of the
    /// per-sink charges — the pass stays bit-identical (outputs *and*
    /// tallies) to driving the same sinks through the op-by-op route.
    Multi(Vec<QuerySink<'c>>),
}

/// One query's sink inside a [`TileSink::Multi`] batched pass.
///
/// Each sink mirrors the corresponding single-sink variant's per-step
/// behaviour and ALU charge (two ops: compare+add / bucket+clamp), but
/// shares the one distance evaluation with every other sink in the
/// batch.
#[derive(Debug)]
pub enum QuerySink<'c> {
    /// `CountWithinRadius`-shaped: `acc[l] += 1` where the value is
    /// strictly below `radius`.
    CountLt {
        /// Exclusive distance threshold.
        radius: f32,
        /// Per-lane hit counters for this warp.
        acc: &'c mut U64x32,
    },
    /// `SharedHistogramAction`-shaped: bucketing plus one privatized
    /// shared atomic per step, with the scatter's data-dependent
    /// serialization accounted in closed form exactly as
    /// [`TileSink::Histogram`] does.
    Histogram {
        /// `buckets / max_distance` (see `HistogramSpec::inv_width`).
        inv_width: f32,
        /// Highest valid bucket index (`buckets - 1`).
        hmax: u32,
        /// The privatized per-block histogram for this sink.
        shm: ShmU32,
    },
}
