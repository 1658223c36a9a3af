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
//! The types here describe the loop to the compiled pass: where the
//! broadcast operand comes from ([`TileSrc`]), which lanes participate
//! at each step ([`TilePred`]), and what happens to the distance value
//! ([`TileSink`]: a list of count sinks followed by histogram sinks —
//! the one sink shape, so a single query and a coalesced batch take the
//! same pass).

use crate::exec::mask::Mask;
use crate::mem::{BufF32, ShmF32, ShmU32};
use crate::{F32x32, U64x32, WARP_SIZE};

/// Where the per-step broadcast operand of a tile pass comes from.
///
/// At step `j` (0-based) the pass materializes one `D`-dimensional
/// point that every active lane compares against its own registers.
#[derive(Debug, Clone, Copy)]
pub enum TileSrc<'t, const D: usize> {
    /// Element `j` of each of `D` shared-memory tile arrays
    /// (one `shared_load_f32` broadcast per step). Charged as one shared load
    /// instruction / one broadcast transaction per dimension per step.
    SharedBroadcast(&'t [ShmF32; D]),
    /// Element `start + j` of each of `D` global coordinate buffers read
    /// through the read-only data cache (one `roc_load_f32` per step). The
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

impl TilePred {
    /// The lanes that evaluate the distance at step `j`: `valid` less
    /// the lanes the guard expression rejects, in closed form through
    /// the lane→element contiguity documented above. The compiled pass
    /// and the op-by-op tile loop both read their masks here.
    #[inline]
    pub fn mask(self, j: u32, valid: Mask) -> Mask {
        match self {
            TilePred::All => valid,
            TilePred::NotEqual { gid0, base } => {
                let l = (base + j).wrapping_sub(gid0);
                if l < WARP_SIZE as u32 {
                    Mask(valid.0 & !(1u32 << l))
                } else {
                    valid
                }
            }
            TilePred::LessThan { gid0, base } => {
                valid.and(Mask::first_n((base + j).saturating_sub(gid0)))
            }
        }
    }
}

/// What a tile pass does with each per-lane distance value: a list of
/// count sinks followed by histogram sinks, fed in that order by every
/// route.
///
/// One distance evaluation per step feeds every sink, so `k` queries
/// over the same dataset share a single pairwise sweep; a single query
/// is the one-entry list. The per-step ALU, warp-instruction and scatter
/// charges are the sums of the per-sink charges, so the pass stays
/// bit-identical (outputs *and* tallies) to driving the same sinks
/// through the op-by-op route. These mirror the `PairAction::process`
/// bodies of the actions that declare a compiled sink.
#[derive(Debug)]
pub struct TileSink<'c> {
    /// Count sinks, fed first, in order.
    pub counts: Vec<CountSink<'c>>,
    /// Histogram sinks, fed after the counts, in order.
    pub hists: Vec<HistSink>,
}

/// A `CountWithinRadius`-shaped sink: `acc[l] += 1` where the value is
/// strictly below `radius` (two ALU ops per step: compare + add).
#[derive(Debug)]
pub struct CountSink<'c> {
    /// Exclusive distance threshold.
    pub radius: f32,
    /// Per-lane hit counters for this warp.
    pub acc: &'c mut U64x32,
}

/// A `SharedHistogramAction`-shaped sink: bucket the value (two ALU
/// ops) and scatter into the privatized histogram. The atomic's
/// data-dependent serialization is accounted in closed form from the
/// bucket indices instead of dispatching a simulated 32-lane atomic per
/// step; a fault pre-flight declines the whole pass to the op-by-op
/// route if any scatter could go out of bounds.
#[derive(Debug, Clone, Copy)]
pub struct HistSink {
    /// `buckets / max_distance` (see `HistogramSpec::inv_width`).
    pub inv_width: f32,
    /// Highest valid bucket index (`buckets - 1`).
    pub hmax: u32,
    /// The privatized per-block histogram.
    pub shm: ShmU32,
}
