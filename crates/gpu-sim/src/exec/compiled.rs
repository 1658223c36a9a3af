//! The plan compiler: whole kernel plans lowered to closed-form host
//! passes.
//!
//! Interpreted op by op, a tiling kernel pays one interpreter dispatch
//! per warp instruction, and every dispatch re-derives its tally charge
//! — coalescing sectors, bank-conflict degrees, scatter contention,
//! predicate overlap. At realistic sizes (the intra triangle alone is
//! `B²/2` pairs per block) that dominates host wall-clock.
//!
//! This module *lowers* a `(distance, action, tile shape)` plan once —
//! [`CompiledKernel::lower`] — into straight-line passes whose tally
//! charges are precomputed closed forms:
//!
//! * [`BlockCtx::compiled_tile_load`] — the whole cooperative
//!   global→shared tile fetch of every warp in one call, recorded for
//!   box culling.
//! * [`WarpCtx::compiled_tile_pass`] — the inner tile pass (broadcast,
//!   distance, sink fold × tile length) with a branch-free sqrt-free
//!   count loop and closed-form predicate-overlap accounting.
//! * [`WarpCtx::compiled_intra_regular`] — the triangular intra-block
//!   phase (`IntraMode::Regular`), previously a `divergent_loop` of
//!   op-by-op iterations, now one call with arithmetic-series charge
//!   totals.
//!
//! Two distance forms lower ([`DistanceForm`]): plain Euclidean and the
//! minimum-image Euclidean of a periodic box. Both are the same
//! squared-sum chain — only the per-dimension difference is wrapped —
//! so the sqrt-free thresholds, the squared bin edges and every sink
//! are shared. Any other distance runs op by op.
//!
//! ## One sink shape
//!
//! Every plan lowers one output shape, [`CompiledSinkSpec`]: a list of
//! count sinks followed by histogram sinks. A single query is the
//! one-entry list, a coalesced batch the longer one, and both passes
//! run one row-major sweep for every list: one squared-distance row
//! across the warp's lanes per step ([`sq_row`]), which each count sink
//! compares sqrt-free into per-lane counters and each histogram sink
//! buckets into a batch for the scatter walks ([`SinkRows::fold_row`]).
//!
//! ## Box culling
//!
//! An unpredicated Euclidean inter-tile pass skips the partners it can
//! prove land outside every count radius and in every histogram's
//! overflow bucket, by the rule on [`cull_threshold`]: the per-chunk
//! bounding boxes of a recorded tile load ([`TileBoxes`]) are tested
//! against the warp's box, and a histogram list then tests each
//! surviving row; the sweep visits only the surviving row runs. The
//! charges of a culled row do not depend on where its partner lies, so
//! they stay in closed form and bit-identical; on spatially ordered
//! tiles most of the pair work drops out.
//!
//! ## The contract
//!
//! Bit-identity with the op-by-op route in everything the differential
//! suite compares: outputs, the full [`crate::tally::AccessTally`],
//! L2/ROC cache state (hit/miss splits, eviction order) and first-fault
//! behavior. Every pass therefore pre-flights all faults it could hit
//! and returns `false` **with no side effects** on any unsupported
//! shape — a non-prefix mask, a foreign sink, a would-fault access, a
//! speculation-abandoning read — and the caller falls back to the
//! op-by-op route, which doubles as the differential oracle.
//!
//! Only host-side [`crate::tally::InterpStats`] differ between routes
//! (`compiled_ops` / `compiled_lane_ops` instead of per-op dispatches).
//!
//! ## Why `s < T` can replace `sqrt(s) < r`
//!
//! The 2-PCF hot loop compares `sqrt(s) < radius` per pair. `sqrt` is
//! monotone on `[0, ∞)` and every lane's `s` is a sum of `mul_add`
//! squares (never negative, possibly NaN). [`sqrt_lt_threshold`]
//! computes the unique `T` with `s < T ⟺ s.sqrt() < radius` for every
//! such `s` (NaN fails both sides), so the compiled count loop drops
//! the sqrt *without changing a single count* — verified exhaustively
//! around the boundary by the unit tests below.

use crate::config::DeviceConfig;
use crate::exec::block::BlockCtx;
use crate::exec::mask::Mask;
use crate::exec::tile::{CountSink, HistSink, TilePred, TileSink, TileSrc};
use crate::exec::warp::{charge_lanes, WarpCtx};
use crate::mem::{BufF32, SharedSpace, ShmF32};
use crate::{F32x32, U32x32, WARP_SIZE};

/// The output-sink list of a lowered plan, declared by the action
/// (`PairAction::compiled_sink` in `tbs-core`): count sinks followed by
/// histogram sinks, the order every route feeds them. Mirrors
/// [`TileSink`] minus the borrowed accumulator state: lowering happens
/// once per block, before any per-warp state exists. A single query is
/// the one-entry list.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSinkSpec {
    /// Count-sink radii (`distance < radius`), in sink order.
    pub counts: Vec<f32>,
    /// Histogram-sink `(inv_width, hmax)` geometry, in sink order
    /// (`HistogramSpec::inv_width`, `buckets − 1`).
    pub hists: Vec<(f32, u32)>,
}

/// The distance a plan lowers to, declared by the distance function
/// (`DistanceKernel::compiled_form` in `tbs-core`). Both forms are the
/// chain *per dimension ascending: `diff = a − b` (wrapped for
/// `MinimumImage`), `s = diff.mul_add(diff, s)`; then `sqrt(s)`* — so
/// every sink consumes the same squared sum `s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistanceForm {
    /// Plain Euclidean: `diff = a − b`.
    Euclidean,
    /// Minimum-image Euclidean in a periodic box `[0, L)^D`: `diff = a −
    /// b; diff −= L·round(diff / L)`, with `round` rounding half away
    /// from zero.
    MinimumImage {
        /// Box edge length `L`.
        box_edge: f32,
    },
}

/// One dimension's difference under a [`DistanceForm`], as a type so
/// each form's loops monomorphize: the Euclidean passes compile exactly
/// as if the wrap did not exist.
trait Diff: Copy {
    /// Whether a warp's bounding box bounds this difference from below,
    /// so that chunks and rows can be culled ([`box_gap2`]). `false`
    /// compiles the culling branches out of the form's passes.
    const CULLS: bool;
    fn diff(self, a: f32, b: f32) -> f32;
}

/// [`DistanceForm::Euclidean`].
#[derive(Clone, Copy)]
struct Plain;

impl Diff for Plain {
    const CULLS: bool = true;
    #[inline(always)]
    fn diff(self, a: f32, b: f32) -> f32 {
        a - b
    }
}

/// [`DistanceForm::MinimumImage`] with box edge `.0` — the exact
/// operation sequence of `PeriodicEuclidean::eval_host`.
#[derive(Clone, Copy)]
struct Wrapped(f32);

impl Diff for Wrapped {
    const CULLS: bool = false;
    #[inline(always)]
    fn diff(self, a: f32, b: f32) -> f32 {
        let d = a - b;
        d - self.0 * (d / self.0).round()
    }
}

/// Edge-table cap: a histogram with more buckets than this keeps the
/// per-lane sqrt chain (the table would cost more to build and to hold
/// in cache than the sqrts it can skip).
const EDGE_TABLE_MAX_BUCKETS: u32 = 1 << 16;

/// A lowered histogram sink: the bucket geometry plus precomputed
/// squared-distance bin edges (see [`squared_bin_edges`]).
#[derive(Debug, Clone, PartialEq)]
struct LoweredHist {
    inv_width: f32,
    hmax: u32,
    /// `edges[b] ≤ s < edges[b+1] ⟺ bucket(sqrt(s)) = b` for every
    /// `b ≤ hmax` and every non-NaN squared distance `s` (with
    /// `edges[hmax+1] = +inf`). Empty when the geometry is degenerate
    /// (non-finite or non-positive `inv_width`, oversized table) — the
    /// sink then classifies through the sqrt chain only.
    edges: Vec<f32>,
}

impl LoweredHist {
    fn lower(inv_width: f32, hmax: u32) -> Self {
        LoweredHist {
            inv_width,
            hmax,
            edges: squared_bin_edges(inv_width, hmax),
        }
    }
}

/// Squared-distance bin edges for the bucket map
/// `bucket(d) = min((d · inv_width) as u32, hmax)` applied to
/// `d = s.sqrt()`: `edges[b]` is the smallest `f32` `s ≥ 0` whose raw
/// (pre-clamp) bucket reaches `b`, `edges[0] = 0` and
/// `edges[hmax+1] = +inf`, so for non-NaN `s`
///
/// ```text
/// edges[b] ≤ s < edges[b+1]  ⟺  bucket(s.sqrt()) = b      (b ≤ hmax)
/// ```
///
/// This is exact at the ulp like [`sqrt_lt_threshold`]: the composite
/// `s → (s.sqrt() · inv_width) as u32` is monotone in `s` (`sqrt` and
/// multiplication by a positive finite constant are monotone under
/// round-to-nearest; the saturating truncating cast — CUDA's
/// `__float2uint_rz` — is monotone too), and non-negative `f32` order
/// equals bit order, so each boundary is found by bit-space binary
/// search rather than arithmetic that could be off by an ulp.
fn squared_bin_edges(inv_width: f32, hmax: u32) -> Vec<f32> {
    if !(inv_width.is_finite() && inv_width > 0.0) || hmax >= EDGE_TABLE_MAX_BUCKETS {
        return Vec::new();
    }
    let raw = |s: f32| (s.sqrt() * inv_width) as u32;
    let mut edges = Vec::with_capacity(hmax as usize + 2);
    edges.push(0.0f32);
    for b in 1..=hmax {
        // Invariant: raw(lo) < b ≤ raw(hi); raw(+inf) saturates to
        // u32::MAX so the upper end always qualifies.
        let mut lo = 0u32;
        let mut hi = f32::INFINITY.to_bits();
        if raw(0.0) >= b {
            hi = 0;
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if raw(f32::from_bits(mid)) >= b {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        edges.push(f32::from_bits(hi));
    }
    edges.push(f32::INFINITY);
    edges
}

/// Which partner-tile storage an intra-block compiled pass reads.
#[derive(Debug, Clone, Copy)]
pub enum CompiledTile<'t, const D: usize> {
    /// Partners gathered from a shared-memory tile (local indices).
    Shared(&'t [ShmF32; D]),
    /// Partners gathered through the read-only cache (global indices).
    Roc(&'t [BufF32; D]),
}

/// A kernel plan lowered to closed-form host passes: the sqrt-free
/// comparison threshold, the per-step instruction widths, and the
/// hot tile shape's predicate-overlap counts, all computed once at
/// `lower` time instead of on every dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// The lowered distance.
    form: DistanceForm,
    dims: u32,
    /// The plan's full tile length (= block size).
    full_steps: u32,
    /// Precomputed step counts for the hot shape: a full tile under a
    /// full warp with no predicate (`npm` executed steps, `sum_apm`
    /// active lane-steps).
    full_npm: u64,
    full_sum_apm: u64,
    /// Warp instructions per executed inner step (distance + two per
    /// sink + one shared atomic per histogram sink).
    wi: u64,
    /// ALU instructions per executed inner step.
    per: u64,
    /// Histogram sinks per pair.
    n_hist: u64,
    /// Lowered histogram geometry, in sink order.
    hists: Vec<LoweredHist>,
    /// Per count sink: `(radius, sqrt_lt_threshold(radius))`, in sink
    /// order — `s < threshold ⟺ s.sqrt() < radius` for every
    /// non-negative (or NaN) `s`.
    count_thresholds: Vec<(f32, f32)>,
    /// Cull threshold on a squared gap to the warp's bounding box
    /// ([`cull_threshold`]); `None` when the plan never culls.
    cull_thr: Option<f32>,
}

/// Smallest `T` such that `s < T ⟺ s.sqrt() < radius` for every
/// non-negative (or NaN) `f32` value `s`.
///
/// `T` is the infimum of `{ s ≥ 0 : s.sqrt() ≥ radius }`: we start from
/// `radius²` and ulp-walk to the exact boundary, so the equivalence
/// holds at the representable values adjacent to it. Degenerate radii:
/// `radius ≤ 0` or NaN never accepts any `s` (`T = 0`); `radius = +inf`
/// accepts exactly the finite `s` (`T = +inf`: `s = +inf` fails both
/// `inf < inf` and `sqrt(inf) < inf`), so every radius compares
/// sqrt-free.
pub fn sqrt_lt_threshold(radius: f32) -> f32 {
    // The negated form is the point: NaN radii must land in this arm.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(radius > 0.0) {
        // radius ≤ 0 or NaN: sqrt(s) ≥ 0 never satisfies `< radius`.
        return 0.0;
    }
    if radius == f32::INFINITY {
        return f32::INFINITY;
    }
    let sq = radius * radius;
    let mut t = if sq.is_finite() { sq } else { f32::MAX };
    // Walk up while `t` itself would still be accepted: T must exclude
    // every s with sqrt(s) ≥ radius, so t.sqrt() < radius means t is
    // too small to be the boundary.
    while t.sqrt() < radius {
        t = f32::from_bits(t.to_bits() + 1);
    }
    // Walk down while the predecessor is still excluded by the sqrt
    // form: then it must be excluded by `s < T` too.
    loop {
        let p = f32::from_bits(t.to_bits() - 1);
        if p.sqrt() < radius {
            break;
        }
        t = p;
    }
    t
}

impl CompiledKernel {
    /// Lower a plan: `form` is the distance, `dist_cost` its ALU charge
    /// per warp evaluation (`DistanceKernel::cost`), `dims` its
    /// dimension, `full_steps` the plan's tile length and `sink` the
    /// action's sink list. Returns `None` when the compiled route is off
    /// (or overridden by scalar-reference mode) so call sites can hold
    /// an `Option<CompiledKernel>` and skip every compiled attempt.
    pub fn lower(
        cfg: &DeviceConfig,
        form: DistanceForm,
        dist_cost: u64,
        dims: u32,
        full_steps: u32,
        sink: CompiledSinkSpec,
    ) -> Option<CompiledKernel> {
        if !cfg.compiled || cfg.scalar_reference {
            return None;
        }
        let n_hist = sink.hists.len() as u64;
        // Two ALU ops per sink: compare + add, or bucket + clamp.
        let per = dist_cost + 2 * (sink.counts.len() as u64 + n_hist);
        let hists: Vec<LoweredHist> = sink
            .hists
            .iter()
            .map(|&(inv_width, hmax)| LoweredHist::lower(inv_width, hmax))
            .collect();
        let count_thresholds: Vec<(f32, f32)> = sink
            .counts
            .iter()
            .map(|&r| (r, sqrt_lt_threshold(r)))
            .collect();
        let cull_thr = cull_threshold(form, &hists, &count_thresholds);
        Some(CompiledKernel {
            form,
            dims,
            full_steps,
            full_npm: full_steps as u64,
            full_sum_apm: full_steps as u64 * WARP_SIZE as u64,
            wi: per + n_hist,
            per,
            n_hist,
            hists,
            count_thresholds,
            cull_thr,
        })
    }

    /// Whether `sink` is the list this plan lowered: the same count
    /// radii and histogram geometry, bit for bit, in the same order.
    /// Anything else is the wrong plan, and the passes decline.
    fn lowered_for(&self, sink: &TileSink<'_>) -> bool {
        sink.counts.len() == self.count_thresholds.len()
            && sink.hists.len() == self.hists.len()
            && sink
                .counts
                .iter()
                .zip(&self.count_thresholds)
                .all(|(c, &(r, _))| c.radius.to_bits() == r.to_bits())
            && sink
                .hists
                .iter()
                .zip(&self.hists)
                .all(|(h, l)| h.inv_width.to_bits() == l.inv_width.to_bits() && h.hmax == l.hmax)
    }

    /// The cull threshold on a squared gap to the warp's bounding box,
    /// `None` when the plan never culls (exposed for tests).
    pub fn cull_threshold(&self) -> Option<f32> {
        self.cull_thr
    }

    /// Executed-step counts `(npm, Σ active lanes)` for one inner tile
    /// pass — the quantities the op-by-op loop accumulates step by
    /// step, in closed form for the hot shapes and by a cheap mask walk
    /// for predicated ones.
    fn pass_counts(&self, len: u32, pred: TilePred, valid: Mask) -> (u64, u64) {
        let steps = len as u64;
        let a = valid.count() as u64;
        match pred {
            TilePred::All => {
                if len == self.full_steps && a == WARP_SIZE as u64 {
                    (self.full_npm, self.full_sum_apm)
                } else {
                    (steps, steps * a)
                }
            }
            _ => {
                // Predicated passes are short (≤ one tile) and rare
                // relative to the All-pred hot path; an exact mask walk
                // keeps them trivially bit-identical.
                let mut npm = 0u64;
                let mut sum_apm = 0u64;
                for j in 0..len {
                    let pm = pred.mask(j, valid);
                    if pm.any() {
                        npm += 1;
                        sum_apm += pm.count() as u64;
                    }
                }
                (npm, sum_apm)
            }
        }
    }
}

/// Resolved per-step view of a [`TileSrc`] for the compiled compute
/// sweep: column slices plus a start offset, or a register fragment
/// (step `j` reads lane `j % 32`, as the broadcast wraps).
enum SrcView<'s, const D: usize> {
    Cols { cols: [&'s [f32]; D], start: usize },
    Lanes(&'s [F32x32; D]),
}

/// Per-block reusable buffers for the compiled output-stage passes,
/// owned by [`BlockCtx`] so the hot tile loop never reallocates: the
/// per-lane count sink counters, the deferred bucket batches and the
/// surviving row runs. Their contents are dead between passes (the
/// counters and batches are cleared), so reuse cannot leak state
/// across passes — only the capacity persists. The one exception is
/// the tile-box record, which a pass reads only while the shared arrays
/// it was taken from are unchanged ([`TileBoxes::covers`]).
#[derive(Debug, Default)]
pub struct CompiledScratch {
    /// What the pass's sweep folded into its sinks.
    sinks: SinkRows,
    /// Row runs `[a, b)` that the sweep visits, ascending: what survives
    /// the chunk test ([`TileBoxes::survivors`]) and, for a histogram
    /// list, the row test ([`cull_survivors`]).
    runs: Vec<(u32, u32)>,
    /// The row test's output, swapped into `runs`.
    keep: Vec<(u32, u32)>,
    /// The bounding boxes of the block's last compiled tile load.
    boxes: TileBoxes,
}

/// A pass's sink state while its sweep runs ([`Self::fold_row`]).
#[derive(Debug, Default)]
struct SinkRows {
    /// Per count sink, the pass's per-lane counts.
    cnts: Vec<U32x32>,
    /// Per histogram sink, the bucket indices of the pass's full-warp
    /// steps, step-major, batched for one
    /// [`crate::mem::SharedSpace::scatter_account_update_rows`] walk.
    bs: Vec<Vec<u32>>,
    /// Per histogram sink, the active-lane buckets of the pass's
    /// partial-warp (or degenerate-geometry) steps, concatenated.
    pbs: Vec<Vec<u32>>,
    /// Per histogram sink, each deferred partial step's lane count
    /// (indexes `pbs`).
    pbn: Vec<Vec<u32>>,
}

/// Rows per chunk of a tile-box record: one warp's width.
const BOX_CHUNK: usize = 32;

/// Bounding boxes of the tile staged by the block's last compiled tile
/// load ([`BlockCtx::compiled_tile_load`]): per dimension, the min and
/// max of every [`BOX_CHUNK`]-row chunk and of the whole tile. A chunk
/// holding a NaN coordinate spans `(−∞, +∞)` in every dimension, so it
/// never culls.
///
/// The load records which shared arrays it wrote, at the write
/// generation each had right after it
/// ([`crate::mem::SharedSpace::f32_generation`]). Any later store to
/// one of them — an op-by-op (declined) load, a second load, a kernel's
/// own store — moves the generation and retires the record. The boxes
/// are computed from the arrays by the first pass that box-tests them
/// ([`Self::bound`]), so plans that never cull pay nothing for them.
#[derive(Debug, Default)]
struct TileBoxes {
    /// `(array, write generation)` per dimension; empty until a load
    /// records.
    arrays: Vec<(ShmF32, u64)>,
    /// Rows the load wrote (`[0, rows)` of every array).
    rows: usize,
    /// Whether the boxes below describe the current record.
    bounded: bool,
    /// Chunk `c`'s corners: dimension `d` at `c · D + d`.
    lo: Vec<f32>,
    hi: Vec<f32>,
    /// Whether chunk `c` holds a NaN coordinate.
    nan: Vec<bool>,
    /// The whole tile's box: the union of the chunk boxes.
    tile_lo: Vec<f32>,
    tile_hi: Vec<f32>,
}

impl TileBoxes {
    /// Record that rows `[0, rows)` of `tile` were just loaded.
    fn record<const D: usize>(&mut self, tile: &[ShmF32; D], rows: usize, shared: &SharedSpace) {
        self.arrays.clear();
        self.arrays
            .extend(tile.iter().map(|&t| (t, shared.f32_generation(t))));
        self.rows = rows;
        self.bounded = false;
    }

    /// Compute the boxes of the recorded rows from `tile`, once per
    /// record. Only valid while [`Self::covers`] holds, so the arrays
    /// still hold what the load wrote.
    fn bound<const D: usize>(&mut self, tile: &[ShmF32; D], shared: &SharedSpace) {
        if self.bounded {
            return;
        }
        let chunks = self.rows.div_ceil(BOX_CHUNK);
        for v in [&mut self.lo, &mut self.hi] {
            v.clear();
            v.resize(chunks * D, 0.0);
        }
        self.nan.clear();
        self.nan.resize(chunks, false);
        for (d, &t) in tile.iter().enumerate() {
            let col = &shared.f32s(t)[..self.rows];
            for (c, chunk) in col.chunks(BOX_CHUNK).enumerate() {
                let (lo, hi, nan) = min_max_nan(chunk);
                self.lo[c * D + d] = lo;
                self.hi[c * D + d] = hi;
                self.nan[c] |= nan;
            }
        }
        self.tile_lo.clear();
        self.tile_lo.resize(D, f32::INFINITY);
        self.tile_hi.clear();
        self.tile_hi.resize(D, f32::NEG_INFINITY);
        for c in 0..chunks {
            let (lo, hi) = (&mut self.lo[c * D..][..D], &mut self.hi[c * D..][..D]);
            if self.nan[c] {
                lo.fill(f32::NEG_INFINITY);
                hi.fill(f32::INFINITY);
            }
            for d in 0..D {
                self.tile_lo[d] = self.tile_lo[d].min(lo[d]);
                self.tile_hi[d] = self.tile_hi[d].max(hi[d]);
            }
        }
        self.bounded = true;
    }

    /// Whether the record describes rows `[0, len)` of `tile` as they
    /// are now: the same arrays, nothing stored to them since, and no
    /// row past the recorded ones.
    fn covers<const D: usize>(&self, tile: &[ShmF32; D], len: u32, shared: &SharedSpace) -> bool {
        self.arrays.len() == D
            && len as usize <= self.rows
            && tile
                .iter()
                .zip(&self.arrays)
                .all(|(&t, &(a, g))| t == a && shared.f32_generation(t) == g)
    }

    /// The chunk test of one pass over rows `[0, len)` against the warp
    /// box `[lo, hi]`, leaving the surviving row runs in `runs` (which
    /// holds `[(0, len)]` on entry). Three outcomes: the tile box's gap
    /// reaches `thr`, so every row culls; the tile box lies inside the
    /// warp box grown by `√thr`, so few chunks could cull and none are
    /// tested (caller-ordered data lands here and pays two box
    /// compares); otherwise each chunk whose gap reaches `thr` culls.
    /// A chunk's gap bounds every row's ([`box_gap2`]), and a culled
    /// row's own bound reaches `thr` too, so a histogram list's row test
    /// over the survivors culls exactly the rows it would over the tile.
    fn survivors<const D: usize>(
        &self,
        lo: &[f32; D],
        hi: &[f32; D],
        len: u32,
        thr: f32,
        runs: &mut Vec<(u32, u32)>,
    ) {
        if box_gap2(lo, hi, &self.tile_lo, &self.tile_hi) >= thr {
            runs.clear();
            return;
        }
        let r = thr.sqrt();
        if (0..D).all(|d| self.tile_lo[d] >= lo[d] - r && self.tile_hi[d] <= hi[d] + r) {
            return;
        }
        runs.clear();
        let len = len as usize;
        for c in 0..len.div_ceil(BOX_CHUNK) {
            let k = c * D;
            if box_gap2(lo, hi, &self.lo[k..k + D], &self.hi[k..k + D]) >= thr {
                continue;
            }
            let (a, b) = (
                (c * BOX_CHUNK) as u32,
                ((c + 1) * BOX_CHUNK).min(len) as u32,
            );
            match runs.last_mut() {
                Some(last) if last.1 == a => last.1 = b,
                _ => runs.push((a, b)),
            }
        }
    }
}

/// The min and max of `xs` and whether it holds a NaN (when it does,
/// the min and max are meaningless), in compare-select form.
#[inline]
fn min_max_nan(xs: &[f32]) -> (f32, f32, bool) {
    let fold = |(lo, hi, nan): (f32, f32, bool), &x: &f32| {
        let lo = if x < lo { x } else { lo };
        let hi = if x > hi { x } else { hi };
        (lo, hi, nan | x.is_nan())
    };
    xs.iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY, false), fold)
}

/// The bounding box `[lo, hi]` of a warp's `nl` active own lanes, `None`
/// when a lane holds a non-finite coordinate (such a warp never culls).
fn own_box<const D: usize>(own: &[F32x32; D], nl: usize) -> Option<([f32; D], [f32; D])> {
    let mut lo = [0.0f32; D];
    let mut hi = [0.0f32; D];
    for d in 0..D {
        let (l, h, nan) = min_max_nan(&own[d][..nl]);
        if nan || l == f32::NEG_INFINITY || h == f32::INFINITY {
            return None;
        }
        (lo[d], hi[d]) = (l, h);
    }
    Some((lo, hi))
}

/// A lower bound on the squared distance between any point of the finite
/// box `[lo, hi]` and any point of the box `[plo, phi]` (bounds
/// possibly infinite, never NaN), evaluated with the distance chain's
/// own operations: per dimension ascending, `gap = max(plo − hi, lo −
/// phi)` floored at zero and `g = gap.mul_add(gap, g)`. For `o` in the
/// first box and `p` in the second, `plo − hi ≤ p − o` holds exactly and
/// rounding is monotone, so `fl(gap) ≤ |fl(o − p)|`, and each fma step
/// keeps the pair's running sum `≥ g`. A point is the box `[p, p]`.
#[inline]
fn box_gap2<const D: usize>(lo: &[f32; D], hi: &[f32; D], plo: &[f32], phi: &[f32]) -> f32 {
    let mut g = 0.0f32;
    for d in 0..D {
        let x = (plo[d] - hi[d]).max(lo[d] - phi[d]);
        let gap = if x < 0.0 { 0.0 } else { x };
        g = gap.mul_add(gap, g);
    }
    g
}

impl SinkRows {
    /// Zero the counters of `n_counts` count sinks, and size and clear
    /// the bucket batches of `n_hists` histogram sinks for a sweep of
    /// at most `rows` full-warp rows (reserved up front, so a batch
    /// grows to the pass's size, not to the next doubling).
    fn clear(&mut self, n_counts: usize, n_hists: usize, rows: usize) {
        self.cnts.clear();
        self.cnts.resize(n_counts, [0; WARP_SIZE]);
        for v in [&mut self.bs, &mut self.pbs, &mut self.pbn] {
            if v.len() < n_hists {
                v.resize_with(n_hists, Vec::new);
            }
            v[..n_hists].iter_mut().for_each(Vec::clear);
        }
        for b in &mut self.bs[..n_hists] {
            b.reserve(rows * WARP_SIZE);
        }
    }

    /// Fold one squared-distance row into every sink in list order,
    /// its values counting on the lanes of `mask`: the count sinks
    /// ([`Self::fold_counts`]), then the histogram sinks
    /// ([`Self::fold_hists`]).
    #[inline(always)]
    fn fold_row(&mut self, row: &[f32; WARP_SIZE], mask: u32, ck: &CompiledKernel) {
        self.fold_counts(row, mask, &ck.count_thresholds);
        self.fold_hists(row, mask, &ck.hists);
    }

    /// Each count sink compares the row sqrt-free against its lowered
    /// threshold into per-lane counters, branch-free so it vectorizes
    /// across the lanes (a pass never exceeds a block's rows, far below
    /// `u32::MAX`).
    #[inline(always)]
    fn fold_counts(&mut self, row: &[f32; WARP_SIZE], mask: u32, thrs: &[(f32, f32)]) {
        for (cnt, &(_, thr)) in self.cnts.iter_mut().zip(thrs) {
            for (l, (c, &s)) in cnt.iter_mut().zip(row).enumerate() {
                *c += ((s < thr) & (mask >> l & 1 != 0)) as u32;
            }
        }
    }

    /// Each histogram sink buckets the row's active lanes: a full-warp
    /// row into its batch, any other row into its per-step list (a
    /// ragged warp's prefix mask as one slice copy; lane by lane, it cost
    /// gridded histogram sweeps, whose segments end in ragged warps,
    /// about 10 %). The buckets come from the vectorized cast of
    /// `bucket_row_exact` (identical bits), or, when the sink's geometry
    /// has no edge table, from the scalar cast chain.
    #[inline(always)]
    fn fold_hists(&mut self, row: &[f32; WARP_SIZE], mask: u32, hists: &[LoweredHist]) {
        for (k, lh) in hists.iter().enumerate() {
            let (iw, h) = (lh.inv_width, lh.hmax);
            let mut b = [0u32; WARP_SIZE];
            if lh.edges.is_empty() {
                for l in Mask(mask).lanes() {
                    b[l] = ((row[l].sqrt() * iw) as u32).min(h);
                }
            } else {
                bucket_row_exact(row, iw, h, &mut b);
            }
            let m = Mask(mask);
            if mask == u32::MAX {
                self.bs[k].extend_from_slice(&b);
            } else if m.is_prefix() {
                self.pbs[k].extend_from_slice(&b[..m.count() as usize]);
                self.pbn[k].push(m.count());
            } else {
                self.pbs[k].extend(m.lanes().map(|l| b[l]));
                self.pbn[k].push(m.count());
            }
        }
    }

    /// Add the pass's per-lane counts into the count sinks.
    fn add_counts(&self, counts: &mut [CountSink<'_>]) {
        for (c, cnt) in counts.iter_mut().zip(&self.cnts) {
            for (a, &n) in c.acc.iter_mut().zip(cnt.iter()) {
                *a += n as u64;
            }
        }
    }
}

/// One lane's exact bucket index from an already-sqrt'd distance,
/// branch-free and vectorizable: bit-identical to the op-by-op chain
/// `((d * inv_width) as u32).min(hmax)` under the callers' gate (a
/// non-empty lowered edge table, which requires a finite positive
/// `inv_width` and `hmax` < 2¹⁶), with `hmax_f == hmax as f32`
/// (exact, since `hmax` < 2²⁴) and `d ≥ 0` or NaN.
///
/// Rust's saturating float→int cast (`fptosi.sat`) scalarizes on
/// AVX2, so the cast is replaced by a clamp plus the 2²³
/// magic-number floor — every step lowers to plain vector ops
/// (`vmaxps`/`vminps`/`vaddps`/`vpand`/`vcmpps`):
///
/// - `t = (d * inv_width).max(0.0).min(hmax_f)` ∈ [0, hmax]: NaN
///   becomes 0 (`max` returns the non-NaN operand), matching the
///   saturating cast's NaN → 0; products above `hmax` clamp to
///   `hmax_f`, matching cast-then-`min`; in-range products are
///   untouched, and `⌊t⌋` then equals the cast's truncation.
/// - `r = t + 2²³` rounds to `2²³ + rne(t)` (the sum sits in
///   [2²³, 2²⁴) where the ulp is 1), so `r`'s low 23 mantissa bits
///   are `rne(t)`, round-half-even's integer; `f = r − 2²³` recovers
///   it exactly (the difference is a representable integer ≤ 2¹⁶).
/// - `rne(t)` is either `⌊t⌋` or `⌊t⌋ + 1`, and overshoots exactly
///   when `f > t` — subtracting that flag yields `⌊t⌋`.
#[inline(always)]
fn floor_bucket_exact(d: f32, inv_width: f32, hmax_f: f32) -> u32 {
    const MAGIC: f32 = 8_388_608.0; // 2^23
    let t = (d * inv_width).max(0.0).min(hmax_f);
    let r = t + MAGIC;
    let f = r - MAGIC;
    (r.to_bits() & 0x007F_FFFF) - ((f > t) as u32)
}

/// Vectorized exact bucketing of one full-warp row of squared
/// distances: lane `l` gets `((s[l].sqrt() * inv_width) as
/// u32).min(hmax)`, via [`floor_bucket_exact`] (same bits, vector
/// codegen).
#[inline]
fn bucket_row_exact(row: &[f32], inv_width: f32, hmax: u32, out: &mut [u32]) {
    let hf = hmax as f32;
    for (b, &s) in out.iter_mut().zip(row.iter()) {
        *b = floor_bucket_exact(s.sqrt(), inv_width, hf);
    }
}

/// One squared-distance row: lane `l`'s chain against partner `p` — the
/// exact `eval_host` operation sequence of the lowered distance minus
/// the final sqrt, per dimension ascending: `diff = w.diff(own, p); s =
/// diff.mul_add(diff, s)`. Every lane computes, so the row vectorizes
/// across the warp; the sinks keep only the active lanes' values.
#[inline(always)]
fn sq_row<W: Diff, const D: usize>(w: W, own: &[F32x32; D], p: &[f32; D]) -> [f32; WARP_SIZE] {
    let mut row = [0.0f32; WARP_SIZE];
    for d in 0..D {
        for (sl, &ol) in row.iter_mut().zip(own[d].iter()) {
            let diff = w.diff(ol, p[d]);
            *sl = diff.mul_add(diff, *sl);
        }
    }
    row
}

/// The compute sweep of one tile pass: every step `j` of `runs` whose
/// lane mask `mask(j)` is not empty computes one squared-distance row
/// against the step's partner `point(j)` and folds it into every sink.
/// Generic in the partner source and the mask, so the hot shape's
/// constant full mask compiles out, and kept out of line, so the row
/// loop gets the registers to itself. A list without a histogram sink
/// folds through a loop that carries no bucket code: with the
/// (never-taken) bucket branch in its loop, a caller-ordered count
/// launch at N = 65536, B = 1024 ran about 15 % slower.
#[inline(never)]
fn sweep<W: Diff, const D: usize>(
    w: W,
    own: &[F32x32; D],
    point: impl Fn(usize) -> [f32; D],
    runs: &[(u32, u32)],
    mask: impl Fn(u32) -> u32,
    ck: &CompiledKernel,
    sinks: &mut SinkRows,
) {
    if ck.hists.is_empty() {
        for_rows(w, own, &point, runs, &mask, |row, m| {
            sinks.fold_counts(row, m, &ck.count_thresholds)
        });
    } else {
        for_rows(w, own, &point, runs, &mask, |row, m| {
            sinks.fold_row(row, m, ck)
        });
    }
}

/// Every step `j` of `runs` whose mask `mask(j)` is not empty: one
/// squared-distance row against `point(j)`, handed to `fold`.
#[inline(always)]
fn for_rows<W: Diff, const D: usize>(
    w: W,
    own: &[F32x32; D],
    point: &impl Fn(usize) -> [f32; D],
    runs: &[(u32, u32)],
    mask: &impl Fn(u32) -> u32,
    mut fold: impl FnMut(&[f32; WARP_SIZE], u32),
) {
    for &(a, b) in runs {
        for j in a..b {
            let m = mask(j);
            if m != 0 {
                fold(&sq_row(w, own, &point(j as usize)), m);
            }
        }
    }
}

/// Relative margin between a plan's largest edge `T` and its cull
/// threshold `(1 + CULL_MARGIN)·T`: slack on top of bounds that are
/// exact on their own ([`box_gap2`]).
const CULL_MARGIN: f32 = 1e-3;

/// The cull threshold of a sink list, used by one rule: **every
/// Euclidean list box-tests its chunks, and only a histogram list also
/// tests rows.** A chunk test costs a few box compares per
/// [`BOX_CHUNK`] rows and needs the tile's recorded boxes
/// ([`TileBoxes`]); a row test costs one bound per row, which a
/// histogram row (a bucket and a scatter per lane on top of the
/// distance) repays, but a count row (one compare per lane in the row
/// sweep) does not: on uniform caller-ordered data, where nothing
/// culls, a count launch that row-tests took about 1.2× as long
/// (1.1–1.5× over four alternating medians of 15 runs) at N = 16384,
/// B = 1024.
///
/// A partner whose squared gap `g²` to the warp's bounding box reaches
/// the threshold lands every active lane in the overflow bucket `hmax`
/// of every histogram sink and below no count sink's radius. `T` is the
/// largest overflow edge `edges[hmax]` and sqrt-free count threshold;
/// the threshold is `(1 + CULL_MARGIN)·T`. `None` — never cull — for
/// the minimum-image form (its wrapped differences have no box bound),
/// a histogram sink without an exact edge table, or a `T` that is zero,
/// subnormal or non-finite (a `+inf` count radius included).
fn cull_threshold(
    form: DistanceForm,
    hists: &[LoweredHist],
    count_thresholds: &[(f32, f32)],
) -> Option<f32> {
    if form != DistanceForm::Euclidean || hists.iter().any(|h| h.edges.is_empty()) {
        return None;
    }
    let t = hists
        .iter()
        .map(|h| h.edges[h.hmax as usize])
        .chain(count_thresholds.iter().map(|&(_, t)| t))
        .fold(0.0f32, f32::max);
    let thr = t * (1.0 + CULL_MARGIN);
    (t.is_normal() && thr.is_finite()).then_some(thr)
}

/// Row culling for an unpredicated Euclidean tile pass of a histogram
/// list: narrows `runs` (the chunk test's survivors) to the runs of
/// rows that some active lane could bucket below the overflow bucket,
/// using `keep` as the output buffer.
///
/// Each partner `p` gets the lower bound `g² = box_gap2(lo, hi, p, p)`
/// on every active lane's squared distance, from the bounding box
/// `[lo, hi]` of the active own lanes ([`own_box`]). A NaN partner
/// coordinate makes `g²` NaN, so its row is kept. A lane-broadcast
/// source never culls (every shipped pass over one is predicated).
// `!(g >= thr)` is deliberate: NaN bounds must keep their row.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn cull_survivors<const D: usize>(
    view: &SrcView<'_, D>,
    (lo, hi): &([f32; D], [f32; D]),
    thr: f32,
    runs: &mut Vec<(u32, u32)>,
    keep: &mut Vec<(u32, u32)>,
) {
    let &SrcView::Cols { cols, start } = view else {
        return;
    };
    keep.clear();
    // Chunked so the bound computes vectorized, dimension-outer (each
    // element still accumulates in ascending dimensions).
    const CHUNK: usize = 64;
    for &(a, b) in runs.iter() {
        let (a, b) = (a as usize, b as usize);
        let c: [&[f32]; D] = std::array::from_fn(|d| &cols[d][start + a..start + b]);
        let mut j0 = 0;
        while j0 < b - a {
            let n = CHUNK.min(b - a - j0);
            let mut g = [0.0f32; CHUNK];
            for d in 0..D {
                for (gj, &p) in g[..n].iter_mut().zip(&c[d][j0..j0 + n]) {
                    let x = (p - hi[d]).max(lo[d] - p);
                    let gap = if x < 0.0 { 0.0 } else { x };
                    *gj = gap.mul_add(gap, *gj);
                }
            }
            for (k, &gj) in g[..n].iter().enumerate() {
                if !(gj >= thr) {
                    let j = (a + j0 + k) as u32;
                    match keep.last_mut() {
                        Some(last) if last.1 == j => last.1 = j + 1,
                        _ => keep.push((j, j + 1)),
                    }
                }
            }
            j0 += n;
        }
    }
    std::mem::swap(runs, keep);
}

impl<'b, 'a> WarpCtx<'b, 'a> {
    /// Source pre-flight shared by both compiled passes: every read up
    /// to element `last` of `tile` — global element `start + last` for
    /// a ROC source — stays in bounds and, through the ROC, cannot
    /// abandon speculation. A `false` lets the pass decline with no side
    /// effects and the op-by-op route reproduce the exact fault point.
    fn tile_readable<const D: usize>(
        &self,
        tile: CompiledTile<'_, D>,
        start: u32,
        last: u32,
    ) -> bool {
        match tile {
            CompiledTile::Shared(tile) => tile.iter().all(|h| {
                self.blk
                    .shared
                    .check_bounds(h.0, last, "shared f32 load")
                    .is_ok()
            }),
            CompiledTile::Roc(bufs) => start.checked_add(last).is_some_and(|last| {
                bufs.iter().all(|b| {
                    self.blk
                        .check_global_bounds(b.0, last, "roc f32 load")
                        .is_ok()
                        && !self.blk.read_would_abandon(b.0)
                })
            }),
        }
    }

    /// Histogram-sink pre-flight: a private histogram shorter than its
    /// bucket range would fault mid-scatter, so the pass declines
    /// side-effect-free and the op-by-op route assigns exact blame.
    fn hist_sinks_in_bounds(&self, hists: &[HistSink]) -> bool {
        hists.iter().all(|h| {
            self.blk
                .shared
                .check_bounds(h.shm.0, h.hmax, "shared u32 atomicAdd")
                .is_ok()
        })
    }

    /// The scatter walks of a pass's histogram sinks over the batches
    /// its sweep deferred in `scr`: per sink, the batched walk over the
    /// full-warp rows, the other steps one at a time, then
    /// `culled_rows` rows of `nl` lanes in the overflow bucket in closed
    /// form. Charges one shared atomic per executed step (`npm`) per
    /// sink, with the serialization the walks accumulate — summed after
    /// the sweep, because tally adds commute.
    fn scatter_hists(
        &mut self,
        hists: &[HistSink],
        scr: &mut CompiledScratch,
        culled_rows: u64,
        nl: u64,
        npm: u64,
        sum_apm: u64,
    ) {
        if hists.is_empty() {
            return;
        }
        // Σ multiplicity, Σ transactions, Σ bank + contention replays.
        let (mut serial, mut txns, mut replays) = (0u64, 0u64, 0u64);
        let shared = &mut self.blk.shared;
        for (k, h) in hists.iter().enumerate() {
            let (s_b, t_b, r_b) = shared.scatter_account_update_rows(h.shm, &scr.sinks.bs[k]);
            serial += s_b;
            txns += t_b;
            replays += r_b;
            let mut off = 0usize;
            for &na in &scr.sinks.pbn[k] {
                let na = na as usize;
                let (mult, t) =
                    shared.scatter_account_update(h.shm, &scr.sinks.pbs[k][off..off + na]);
                off += na;
                serial += mult;
                txns += t + mult - 1;
                replays += t.saturating_sub(1);
            }
            if culled_rows != 0 {
                let (s_c, t_c, r_c) = shared.scatter_broadcast_rows(h.shm, h.hmax, culled_rows, nl);
                serial += s_c;
                txns += t_c;
                replays += r_c;
            }
        }
        let n_hist = hists.len() as u64;
        let t = &mut self.blk.tally;
        t.shared_atomics += npm * n_hist;
        t.shared_atomic_serial += serial;
        t.shared_transactions += txns;
        t.shared_bank_replays += replays;
        t.shared_bytes += 4 * sum_apm * n_hist;
    }

    /// Compiled inner tile pass: `len` steps of *broadcast an element
    /// from `src`, evaluate the lowered distance against each lane's
    /// `own` point under `pred`, fold the value into every sink of
    /// `sink`* in one
    /// call. Outputs, tally, ROC/L2 cache state and fault behavior are
    /// bit-identical to the op-by-op loop the tiling kernels otherwise
    /// interpret (`broadcast → dist.eval → action.process` per step);
    /// every count sink compares sqrt-free against its lowered
    /// threshold, one squared-distance row across the lanes per step.
    ///
    /// Returns `false` with no side effects — and the caller runs the
    /// op-by-op loop, which reproduces the exact fault point — whenever
    /// a precondition fails: compiled route off or scalar-reference
    /// mode, a dead block, a zero-length tile, an empty or non-prefix
    /// `valid` mask, a source or sink that could fault mid-pass, a ROC
    /// source whose read would abandon speculation, or a sink list that
    /// does not match the lowered one (wrong plan). Histogram
    /// scatters share one accounting-plus-update walk
    /// ([`crate::mem::SharedSpace::scatter_account_update`]).
    /// Unpredicated Euclidean passes skip the rows that provably land
    /// every lane outside every count radius and in each histogram's
    /// overflow bucket: the chunks of a
    /// shared tile whose recorded box is out of range
    /// (`TileBoxes::survivors`), then, for a histogram list, the
    /// surviving rows whose own bound is (`cull_survivors`). Histograms
    /// charge them in closed form
    /// ([`crate::mem::SharedSpace::scatter_broadcast_rows`]).
    #[allow(clippy::too_many_arguments)]
    pub fn compiled_tile_pass<const D: usize>(
        &mut self,
        ck: &CompiledKernel,
        src: TileSrc<'_, D>,
        len: u32,
        pred: TilePred,
        own: &[F32x32; D],
        sink: TileSink<'_>,
        valid: Mask,
    ) -> bool {
        match ck.form {
            DistanceForm::Euclidean => {
                self.tile_pass_impl(Plain, ck, src, len, pred, own, sink, valid)
            }
            DistanceForm::MinimumImage { box_edge } => {
                self.tile_pass_impl(Wrapped(box_edge), ck, src, len, pred, own, sink, valid)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn tile_pass_impl<W: Diff, const D: usize>(
        &mut self,
        w: W,
        ck: &CompiledKernel,
        src: TileSrc<'_, D>,
        len: u32,
        pred: TilePred,
        own: &[F32x32; D],
        sink: TileSink<'_>,
        valid: Mask,
    ) -> bool {
        if !self.blk.cfg.compiled
            || self.blk.cfg.scalar_reference
            || self.blk.dead()
            || len == 0
            || !valid.any()
            || !valid.is_prefix()
            || ck.dims != D as u32
        {
            return false;
        }
        // Every parameter the lowered plan baked in (radii, bucket
        // geometry, sink order) must match the sink list bit for bit.
        if !ck.lowered_for(&sink) {
            return false;
        }
        // Pre-flight every fault/abandon the pass could hit.
        let readable = match &src {
            TileSrc::SharedBroadcast(tile) => {
                self.tile_readable(CompiledTile::Shared(tile), 0, len - 1)
            }
            TileSrc::RocBroadcast { bufs, start } => {
                self.tile_readable(CompiledTile::Roc(bufs), *start, len - 1)
            }
            TileSrc::LaneBroadcast(_) => self.blk.cfg.has_shuffle,
        };
        if !readable || !self.hist_sinks_in_bounds(&sink.hists) {
            return false;
        }

        let a = valid.count() as u64;
        let steps = len as u64;
        let dims = D as u64;

        // ---- operand charges, batched in closed form ----
        // Every step's broadcast is a prefix-mask single-element access,
        // so each per-op charge is a constant (a one-element f32
        // broadcast is always one conflict-free shared transaction);
        // only the ROC sector stream is stateful.
        match &src {
            TileSrc::SharedBroadcast(_) => {
                let t = &mut self.blk.tally;
                charge_lanes(t, steps * dims, a);
                t.shared_load_instructions += steps * dims;
                t.shared_transactions += steps * dims;
                t.shared_bytes += 4 * a * steps * dims;
            }
            TileSrc::RocBroadcast { bufs, start } => {
                {
                    let t = &mut self.blk.tally;
                    charge_lanes(t, steps * dims, a);
                    t.roc_load_instructions += steps * dims;
                    t.roc_bytes += 4 * a * steps * dims;
                }
                // The stateful ROC sector stream keeps its op-by-op
                // order, batched in sector runs: consecutive elements
                // share a sector (8 f32s per 32-byte sector), so the
                // op-by-op stream touches each dimension's current
                // sector `run` times in a row. Probe the first round for
                // real; if the FIFO's eviction generation is unchanged
                // afterwards, every probed sector is provably still
                // resident (residency is monotone within a generation
                // and hits mutate nothing), so the remaining `run − 1`
                // rounds replay as hits in bulk. An eviction mid-round
                // falls back to per-element probes for the rest of the
                // run.
                let sb = self.blk.cfg.sector_bytes as u64;
                let bases: [u64; D] = std::array::from_fn(|d| self.blk.global_base_addr(bufs[d].0));
                let mut j = 0u64;
                while j < steps {
                    let e0 = *start as u64 + j;
                    let mut run = steps - j;
                    let mut sectors = [0u64; D];
                    for (s, &base) in sectors.iter_mut().zip(bases.iter()) {
                        let addr = base + e0 * 4;
                        *s = addr / sb;
                        run = run.min(((*s + 1) * sb - addr).div_ceil(4));
                    }
                    let gen0 = self.blk.roc.generation();
                    for &s in sectors.iter() {
                        self.roc_one_sector(s);
                    }
                    if run > 1 {
                        if self.blk.roc.generation() == gen0 {
                            let n = (run - 1) * dims;
                            self.blk.tally.roc_hit_sectors += n;
                            self.blk.roc.credit_replayed_hits(n);
                        } else {
                            for jj in 1..run {
                                for &base in &bases {
                                    self.roc_one_sector((base + (e0 + jj) * 4) / sb);
                                }
                            }
                        }
                    }
                    j += run;
                }
                for b in bufs.iter() {
                    // Read-set bookkeeping; cannot abandon (pre-checked).
                    let _ = self.blk.global_read_f32s(*b);
                }
            }
            TileSrc::LaneBroadcast(_) => {
                let t = &mut self.blk.tally;
                charge_lanes(t, steps * dims, a);
                t.shuffle_instructions += steps * dims;
            }
        }
        let pred_alu = !matches!(pred, TilePred::All) as u64;
        if pred_alu != 0 {
            let t = &mut self.blk.tally;
            charge_lanes(t, steps, a);
            t.alu_instructions += steps;
        }

        // ---- distance + sink charges from the lowered formulas ----
        let (npm, sum_apm) = ck.pass_counts(len, pred, valid);
        {
            let t = &mut self.blk.tally;
            t.warp_instructions += npm * ck.wi;
            t.useful_lane_ops += ck.wi * sum_apm;
            t.predicated_lane_slots += ck.wi * (npm * WARP_SIZE as u64 - sum_apm);
            t.alu_instructions += npm * ck.per;
        }

        // ---- the compiled compute sweep ----
        // The block's persistent scratch is taken out of `self.blk`
        // before the view borrows it (the view holds the whole block
        // immutably); restored after the scatter walks.
        let mut scr = std::mem::take(&mut self.blk.compiled_scratch);
        let view = match &src {
            TileSrc::SharedBroadcast(tile) => SrcView::Cols {
                cols: std::array::from_fn(|d| self.blk.shared.f32s(tile[d])),
                start: 0,
            },
            TileSrc::RocBroadcast { bufs, start } => SrcView::Cols {
                cols: std::array::from_fn(|d| self.blk.gmem().f32_slice(bufs[d])),
                start: *start as usize,
            },
            TileSrc::LaneBroadcast(lanes) => SrcView::Lanes(lanes),
        };
        let nl = valid.count() as usize;
        // Box culling, on unpredicated Euclidean passes whose own lanes
        // are finite: the chunk test over a recorded shared tile leaves
        // the surviving row runs in `scr.runs`, and a histogram list
        // row-tests the survivors. Culled rows land every active lane
        // outside every count radius and in each histogram's overflow
        // bucket; the histograms charge them in closed form after the
        // walks.
        let warp_box = match ck.cull_thr {
            Some(thr) if W::CULLS && matches!(pred, TilePred::All) => {
                own_box(own, nl).map(|b| (b, thr))
            }
            _ => None,
        };
        scr.runs.clear();
        scr.runs.push((0, len));
        let TileSink { mut counts, hists } = sink;
        if let Some((b, thr)) = &warp_box {
            if let TileSrc::SharedBroadcast(tile) = &src {
                if scr.boxes.covers(tile, len, &self.blk.shared) {
                    scr.boxes.bound(tile, &self.blk.shared);
                    scr.boxes.survivors(&b.0, &b.1, len, *thr, &mut scr.runs);
                }
            }
            if !hists.is_empty() {
                cull_survivors(&view, b, *thr, &mut scr.runs, &mut scr.keep);
            }
        }
        let kept: usize = scr.runs.iter().map(|&(a, b)| (b - a) as usize).sum();
        let culled_rows = (len as usize - kept) as u64;

        // One squared-distance row per surviving step, straight off the
        // tile view, folded into every sink in list order. The per-pair
        // arithmetic is the op-by-op chain, and integer counts commute.
        // Deferring the scatters is sound: the sink pre-flights above
        // ruled out faults, and the accounting sums and wrapping data
        // adds commute across steps.
        scr.sinks.clear(counts.len(), hists.len(), kept);
        let full = matches!(pred, TilePred::All) && valid.0 == u32::MAX;
        let mask = |j| pred.mask(j, valid).0;
        let (runs, sinks) = (&scr.runs[..], &mut scr.sinks);
        match view {
            // Unpredicated full-valid passes — the hot shape: every step
            // is a full-warp row.
            SrcView::Cols { cols, start } if full => {
                let point = |j: usize| std::array::from_fn(|d| cols[d][start + j]);
                sweep(w, own, point, runs, |_| u32::MAX, ck, sinks)
            }
            SrcView::Cols { cols, start } => {
                let point = |j: usize| std::array::from_fn(|d| cols[d][start + j]);
                sweep(w, own, point, runs, mask, ck, sinks)
            }
            SrcView::Lanes(l) => {
                let point = |j: usize| std::array::from_fn(|d| l[d][j % WARP_SIZE]);
                sweep(w, own, point, runs, mask, ck, sinks)
            }
        }
        scr.sinks.add_counts(&mut counts);
        self.scatter_hists(&hists, &mut scr, culled_rows, nl as u64, npm, sum_apm);
        self.blk.compiled_scratch = scr;

        let interp = &mut self.blk.interp;
        interp.dispatches += 1;
        interp.compiled_ops += 1;
        interp.compiled_lane_ops += a * steps * (dims + pred_alu) + ck.wi * sum_apm;
        interp.culled_rows += culled_rows;
        true
    }

    /// Compiled triangular intra-block pass (`IntraMode::Regular`,
    /// `HalfPairs`): thread `t` pairs with partners `t+1 … block_n−1`.
    /// Replaces the whole `divergent_loop` — per iteration one control
    /// charge, one address ALU, `D` partner gathers, the distance
    /// evaluation and every sink of the list — with arithmetic-series
    /// charge totals and one row-major compute sweep (one
    /// squared-distance row per iteration feeding every sink). The
    /// op-by-op loop it replaces stays as the differential
    /// oracle (and the fallback for every declined shape: load-balanced
    /// intra, non-prefix masks, would-fault tiles).
    ///
    /// `valid` must be the caller's `tid < block_n ∧ active` mask and
    /// `own` the warp's register-resident points, exactly as the
    /// op-by-op triangle of `tbs-core`'s `kernels::intra_triangle`
    /// receives them.
    #[allow(clippy::too_many_arguments)]
    pub fn compiled_intra_regular<const D: usize>(
        &mut self,
        ck: &CompiledKernel,
        tile: CompiledTile<'_, D>,
        block_start: u32,
        block_n: u32,
        own: &[F32x32; D],
        sink: TileSink<'_>,
        valid: Mask,
    ) -> bool {
        match ck.form {
            DistanceForm::Euclidean => {
                self.intra_regular_impl(Plain, ck, tile, block_start, block_n, own, sink, valid)
            }
            DistanceForm::MinimumImage { box_edge } => self.intra_regular_impl(
                Wrapped(box_edge),
                ck,
                tile,
                block_start,
                block_n,
                own,
                sink,
                valid,
            ),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn intra_regular_impl<W: Diff, const D: usize>(
        &mut self,
        w: W,
        ck: &CompiledKernel,
        tile: CompiledTile<'_, D>,
        block_start: u32,
        block_n: u32,
        own: &[F32x32; D],
        sink: TileSink<'_>,
        valid: Mask,
    ) -> bool {
        if !self.blk.cfg.compiled
            || self.blk.cfg.scalar_reference
            || self.blk.dead()
            || !valid.is_prefix()
            || ck.dims != D as u32
        {
            return false;
        }
        if !ck.lowered_for(&sink) {
            return false;
        }
        let v = valid.count() as u64;
        let tid0 = self.warp_id * WARP_SIZE as u32;
        // Lane l's trip count is block_n−1−(tid0+l); the masked maximum
        // is lane 0's. An empty mask or a zero maximum runs zero
        // iterations and charges nothing — same as the divergent loop.
        let t_max = if v == 0 {
            0
        } else {
            block_n.saturating_sub(1).saturating_sub(tid0) as u64
        };
        if t_max == 0 {
            return true;
        }
        // Pre-flight: the deepest gather reaches element block_n−1;
        // histogram scatters reach hmax.
        if !self.tile_readable(tile, block_start, block_n - 1)
            || !self.hist_sinks_in_bounds(&sink.hists)
        {
            return false;
        }

        // Iteration j runs a_j = min(v, T−j) lanes; the series sums in
        // closed form.
        let s_total = if t_max <= v {
            t_max * (t_max + 1) / 2
        } else {
            v * (v + 1) / 2 + (t_max - v) * v
        };
        let dims = D as u64;
        // Per-iteration warp instructions: loop test (1) + address ALU
        // (1) + D gathers + distance eval + two per sink; each
        // histogram sink adds the atomic memory op.
        let wi_j = 1 + 1 + dims + ck.wi;
        let alu_j = 1 + ck.per;
        {
            let t = &mut self.blk.tally;
            t.warp_instructions += t_max * wi_j;
            t.useful_lane_ops += wi_j * s_total;
            t.predicated_lane_slots += wi_j * (t_max * WARP_SIZE as u64 - s_total);
            t.alu_instructions += t_max * alu_j;
            t.control_instructions += t_max;
            t.divergent_iterations += t_max.min(v.saturating_sub(1));
            match &tile {
                CompiledTile::Shared(_) => {
                    t.shared_load_instructions += t_max * dims;
                    // Unit-stride (or single-lane broadcast) f32
                    // gathers: one conflict-free transaction each.
                    t.shared_transactions += t_max * dims;
                    t.shared_bytes += 4 * dims * s_total;
                }
                CompiledTile::Roc(_) => {
                    t.roc_load_instructions += t_max * dims;
                    t.roc_bytes += 4 * dims * s_total;
                }
            }
        }
        // Final (failing) loop test under the full mask.
        {
            let t = &mut self.blk.tally;
            charge_lanes(t, 1, v);
            t.control_instructions += 1;
        }
        // The stateful ROC sector stream replays per iteration in
        // op-by-op order: iteration j gathers elements
        // block_start+tid0+1+j … +a_j−1 per dimension (an ascending
        // contiguous sector run).
        if let CompiledTile::Roc(bufs) = &tile {
            let sb = self.blk.cfg.sector_bytes as u64;
            let bases: [u64; D] = std::array::from_fn(|d| self.blk.global_base_addr(bufs[d].0));
            let first0 = block_start as u64 + tid0 as u64 + 1;
            for j in 0..t_max {
                let a_j = v.min(t_max - j);
                let first = first0 + j;
                for &base in bases.iter() {
                    let s0 = (base + first * 4) / sb;
                    let s1 = (base + (first + a_j - 1) * 4) / sb;
                    for s in s0..=s1 {
                        self.roc_one_sector(s);
                    }
                }
            }
            for b in bufs.iter() {
                let _ = self.blk.global_read_f32s(*b);
            }
        }

        // ---- compute ----
        // Partner element index for lane l at iteration j (element
        // space of the tile columns).
        let elem0 = match &tile {
            CompiledTile::Shared(_) => tid0 as usize,
            CompiledTile::Roc(_) => (block_start + tid0) as usize,
        };
        let TileSink { mut counts, hists } = sink;
        let mut scr = std::mem::take(&mut self.blk.compiled_scratch);
        scr.sinks.clear(counts.len(), hists.len(), t_max as usize);
        {
            let cols: [&[f32]; D] = match &tile {
                CompiledTile::Shared(tile) => {
                    std::array::from_fn(|d| self.blk.shared.f32s(tile[d]))
                }
                CompiledTile::Roc(bufs) => {
                    std::array::from_fn(|d| self.blk.gmem().f32_slice(bufs[d]))
                }
            };
            // The whole triangle's rows, step-major: iteration j runs
            // a_j = min(v, t_max−j) lanes, lane l against partner
            // elem0 + l + 1 + j (in bounds: the deepest reach is
            // elem0 + t_max, the tile's last element, pre-flighted
            // above). Per pair the operation sequence is exactly the
            // op-by-op chain. The deferred bucket batches end the tile
            // columns' borrow, so the scatter walks can write into
            // `self.blk.shared`.
            for j in 0..t_max as usize {
                let a_j = (v as usize).min((t_max as usize) - j);
                let e0 = elem0 + 1 + j;
                let mut srow = [0.0f32; WARP_SIZE];
                for d in 0..D {
                    let col = &cols[d][e0..e0 + a_j];
                    for ((sl, &ol), &pd) in
                        srow[..a_j].iter_mut().zip(own[d].iter()).zip(col.iter())
                    {
                        let diff = w.diff(ol, pd);
                        *sl = diff.mul_add(diff, *sl);
                    }
                }
                scr.sinks.fold_row(&srow, Mask::first_n(a_j as u32).0, ck);
            }
        }
        scr.sinks.add_counts(&mut counts);
        self.scatter_hists(&hists, &mut scr, 0, v, t_max, s_total);
        self.blk.compiled_scratch = scr;

        let interp = &mut self.blk.interp;
        interp.dispatches += 1;
        interp.compiled_ops += 1;
        interp.compiled_lane_ops += wi_j * s_total + v;
        true
    }
}

impl BlockCtx<'_> {
    /// Compiled cooperative tile fetch: the whole
    /// `load_tile_to_shared` sweep — every warp's coalesced global load
    /// and conflict-free shared store, per dimension — in one call.
    /// L2 sector runs issue in the exact op-by-op order (warp-major,
    /// dimension-minor); charges are per-warp closed forms. The load is
    /// recorded for the passes' box culling (`TileBoxes`). Returns
    /// `false` with no side effects when the compiled route is off or
    /// any access could fault/abandon, and the caller runs the op-by-op
    /// loop (which reproduces the exact fault point, and whose stores
    /// retire any earlier record of the tile).
    pub fn compiled_tile_load<const D: usize>(
        &mut self,
        tile: &[ShmF32; D],
        bufs: &[BufF32; D],
        start: u32,
        count: u32,
    ) -> bool {
        if !self.cfg.compiled || self.cfg.scalar_reference || self.dead() {
            return false;
        }
        // Elements actually loaded: threads 0..min(count, block_dim).
        let nn = count.min(self.block_dim);
        if nn == 0 {
            // Every warp's mask is empty; the op-by-op loop charges
            // nothing either.
            return true;
        }
        let Some(last) = start.checked_add(nn - 1) else {
            return false;
        };
        for d in 0..D {
            if self
                .check_global_bounds(bufs[d].0, last, "global f32 load")
                .is_err()
                || self.read_would_abandon(bufs[d].0)
                || self
                    .shared
                    .check_bounds(tile[d].0, nn - 1, "shared f32 store")
                    .is_err()
            {
                return false;
            }
        }
        let dims = D as u64;
        let sb = self.cfg.sector_bytes as u64;
        let num_warps = self.num_warps();
        let mut warps_charged = 0u64;
        let mut lanes_total = 0u64;
        for w in 0..num_warps {
            let a = nn
                .saturating_sub(w * WARP_SIZE as u32)
                .min(WARP_SIZE as u32) as u64;
            if a == 0 {
                break;
            }
            warps_charged += 1;
            lanes_total += a;
            // Per-warp: one address ALU + per dimension (load + store).
            charge_lanes(&mut self.tally, 1 + 2 * dims, a);
            self.tally.alu_instructions += 1;
            // The L2 stream: one ascending sector run per (warp, dim),
            // dimension-minor — identical to the op-by-op loop order.
            let e0 = start as u64 + w as u64 * WARP_SIZE as u64;
            for buf in bufs {
                let base = self.global_base_addr(buf.0);
                let s0 = (base + e0 * 4) / sb;
                let s1 = (base + (e0 + a - 1) * 4) / sb;
                self.l2_access_run(s0, (s1 - s0 + 1) as u32);
            }
        }
        {
            let t = &mut self.tally;
            t.global_load_instructions += warps_charged * dims;
            t.global_load_bytes += 4 * lanes_total * dims;
            t.shared_store_instructions += warps_charged * dims;
            // Unit-stride (or single-lane) f32 stores: one
            // conflict-free transaction per warp per dimension.
            t.shared_transactions += warps_charged * dims;
            t.shared_bytes += 4 * lanes_total * dims;
        }
        // Data movement: tile[d][t] = buf[d][start + t] for t < nn.
        let mut row = vec![0.0f32; nn as usize];
        for d in 0..D {
            {
                let data = self.global_read_f32s(bufs[d]);
                row.copy_from_slice(&data[start as usize..(start + nn) as usize]);
            }
            let dst = self.shared.f32s_mut(tile[d]);
            dst[..nn as usize].copy_from_slice(&row);
        }
        // The passes' box culling may bound these rows.
        self.compiled_scratch
            .boxes
            .record(tile, nn as usize, &self.shared);
        self.interp.dispatches += 1;
        self.interp.compiled_ops += 1;
        self.interp.compiled_lane_ops += (1 + 2 * dims) * lanes_total;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_equiv(radius: f32, s: f32) {
        let t = sqrt_lt_threshold(radius);
        assert_eq!(
            s < t,
            s.sqrt() < radius,
            "radius={radius} s={s} T={t}: sqrt-free compare diverges"
        );
    }

    #[test]
    fn threshold_matches_sqrt_compare_around_boundaries() {
        for &radius in &[
            0.5f32, 1.0, 1.5, 25.0, 1e-20, 1e20, 3.0e19, 1.7e19, 123.456, 0.1,
        ] {
            let sq = radius * radius;
            let base = if sq.is_finite() { sq } else { f32::MAX };
            let mut probes = vec![0.0f32, base];
            let mut up = base;
            let mut dn = base;
            for _ in 0..64 {
                up = f32::from_bits(up.to_bits() + 1);
                if dn > 0.0 {
                    dn = f32::from_bits(dn.to_bits() - 1);
                }
                probes.push(up);
                probes.push(dn);
            }
            for s in probes {
                check_equiv(radius, s);
            }
        }
    }

    #[test]
    // The literal negated comparisons (including against NaN) are the
    // property under test: both forms must reject, not order.
    #[allow(clippy::neg_cmp_op_on_partial_ord, invalid_nan_comparisons)]
    fn threshold_degenerate_radii() {
        // radius ≤ 0 or NaN accepts nothing.
        for &radius in &[0.0f32, -1.0, f32::NAN] {
            let t = sqrt_lt_threshold(radius);
            assert_eq!(t, 0.0);
            for &s in &[0.0f32, 1.0, f32::MAX] {
                assert!(!(s < t));
                assert!(!(s.sqrt() < radius));
            }
        }
        // NaN distances fail both forms.
        let t = sqrt_lt_threshold(25.0);
        assert!(!(f32::NAN < t));
        assert!(!(f32::NAN.sqrt() < 25.0));
        // +inf radius accepts exactly the finite s, sqrt-free too.
        assert_eq!(sqrt_lt_threshold(f32::INFINITY), f32::INFINITY);
        for s in [0.0f32, 1.0, f32::MAX, f32::INFINITY, f32::NAN] {
            check_equiv(f32::INFINITY, s);
        }
    }

    #[test]
    fn threshold_exhaustive_small_grid() {
        // Dense sweep: many radii × many sums, including subnormals.
        let mut s_vals = vec![0.0f32];
        let mut x = f32::MIN_POSITIVE / 4.0;
        while x < 1e30 {
            s_vals.push(x);
            x *= 3.7;
        }
        for i in 1..200u32 {
            let radius = i as f32 * 0.37;
            for &s in &s_vals {
                check_equiv(radius, s);
            }
        }
    }

    #[test]
    fn lower_respects_config_gates() {
        let mut cfg = crate::config::DeviceConfig::titan_x();
        let count = CompiledSinkSpec {
            counts: vec![25.0],
            hists: vec![],
        };
        let lower = |cfg: &DeviceConfig, form, cost| {
            CompiledKernel::lower(cfg, form, cost, 3, 256, count.clone())
        };
        cfg.compiled = false;
        assert!(
            lower(&cfg, DistanceForm::Euclidean, 7).is_none(),
            "compiled off must not lower"
        );
        cfg.compiled = true;
        cfg.scalar_reference = true;
        assert!(
            lower(&cfg, DistanceForm::Euclidean, 7).is_none(),
            "scalar reference overrides"
        );
        cfg.scalar_reference = false;
        let ck = lower(&cfg, DistanceForm::Euclidean, 7).expect("lowering");
        assert_eq!(ck.full_steps, 256);
        // Euclidean cost 2·3+1 plus one count sink's compare+increment.
        assert_eq!(ck.wi, 9);
        assert_eq!(ck.per, 9);
        assert_eq!(ck.count_thresholds, vec![(25.0, sqrt_lt_threshold(25.0))]);
        // The minimum-image form charges the distance's own cost
        // (5·3+1), not the Euclidean one.
        let ck = lower(&cfg, DistanceForm::MinimumImage { box_edge: 60.0 }, 16).expect("lowering");
        assert_eq!(ck.per, 18);
        assert_eq!(ck.wi, 18);
    }

    /// The device's bucket index for a squared distance `s`: one sqrt,
    /// scale, truncate, clamp — the chain the edge table must replace
    /// exactly.
    fn sqrt_bucket(s: f32, inv_width: f32, hmax: u32) -> u32 {
        ((s.sqrt() * inv_width) as u32).min(hmax)
    }

    #[test]
    fn squared_bin_edges_are_exact_at_every_boundary() {
        // For every bucket b, the table must satisfy
        //   edges[b] <= s < edges[b+1]  <=>  sqrt_bucket(s) == b
        // including at the edges themselves and one ulp either side.
        for (inv_width, hmax) in [
            (0.2f32, 31u32),
            (1.0, 63),
            (3.7, 7),
            (0.177, 255),
            (1e-3, 1023),
            (12.5, 0),
        ] {
            let edges = squared_bin_edges(inv_width, hmax);
            assert_eq!(edges.len(), hmax as usize + 2, "inv_width={inv_width}");
            assert_eq!(edges[0], 0.0);
            assert_eq!(edges[hmax as usize + 1], f32::INFINITY);
            for b in 0..=hmax {
                let (lo, hi) = (edges[b as usize], edges[b as usize + 1]);
                assert!(lo <= hi, "edge order b={b}");
                // Probe the boundary neighborhood from both sides.
                for s in [
                    lo,
                    f32::from_bits(lo.to_bits() + 1),
                    if hi.is_finite() {
                        f32::from_bits(hi.to_bits().saturating_sub(1))
                    } else {
                        f32::MAX
                    },
                ] {
                    if s < hi && lo <= s {
                        assert_eq!(
                            sqrt_bucket(s, inv_width, hmax),
                            b,
                            "inside bucket b={b} s={s} inv_width={inv_width}"
                        );
                    }
                }
                if b > 0 {
                    // Just below the lower edge must fall in an earlier bucket.
                    let below = f32::from_bits(lo.to_bits().wrapping_sub(1));
                    if below.is_finite() && below >= 0.0 {
                        assert!(
                            sqrt_bucket(below, inv_width, hmax) < b,
                            "below edge b={b} inv_width={inv_width}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn squared_bin_edges_cover_random_samples() {
        // Dense pseudo-random sweep: table lookup == sqrt chain for
        // every sample, degenerate values included.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for &(inv_width, hmax) in &[(0.35f32, 47u32), (2.2, 15), (0.05, 511)] {
            let edges = squared_bin_edges(inv_width, hmax);
            assert!(!edges.is_empty());
            let lookup = |s: f32| {
                debug_assert!(!s.is_nan());
                // Binary-search the table exactly as a device lane would
                // walk it: greatest b with edges[b] <= s.
                edges.partition_point(|&e| e <= s).saturating_sub(1) as u32
            };
            for _ in 0..4000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let s = ((x >> 32) as f32 / u32::MAX as f32) * 2.0 / (inv_width * inv_width);
                assert_eq!(
                    lookup(s),
                    sqrt_bucket(s, inv_width, hmax),
                    "s={s} inv_width={inv_width} hmax={hmax}"
                );
            }
            assert_eq!(lookup(0.0), 0);
            assert_eq!(lookup(f32::MAX), hmax);
        }
    }

    #[test]
    fn squared_bin_edges_decline_degenerate_geometry() {
        // Non-finite / non-positive scales and oversized tables must
        // return the empty sentinel: the sink keeps the sqrt chain.
        assert!(squared_bin_edges(f32::INFINITY, 31).is_empty());
        assert!(squared_bin_edges(f32::NAN, 31).is_empty());
        assert!(squared_bin_edges(0.0, 31).is_empty());
        assert!(squared_bin_edges(-1.0, 31).is_empty());
        assert!(squared_bin_edges(0.5, EDGE_TABLE_MAX_BUCKETS).is_empty());
        // Largest admissible table still builds.
        let edges = squared_bin_edges(0.5, EDGE_TABLE_MAX_BUCKETS - 1);
        assert_eq!(edges.len(), EDGE_TABLE_MAX_BUCKETS as usize + 1);
    }

    #[test]
    fn pass_counts_match_mask_walk() {
        let cfg = {
            let mut c = crate::config::DeviceConfig::titan_x();
            c.compiled = true;
            c
        };
        let ck = CompiledKernel::lower(
            &cfg,
            DistanceForm::Euclidean,
            5,
            2,
            128,
            CompiledSinkSpec {
                counts: vec![1.0],
                hists: vec![],
            },
        )
        .unwrap();
        // Closed form for the All-pred shapes vs the explicit walk.
        for &(len, nv) in &[(128u32, 32u32), (128, 7), (17, 32), (1, 1)] {
            let valid = Mask::first_n(nv);
            let (npm, sum) = ck.pass_counts(len, TilePred::All, valid);
            let mut npm2 = 0;
            let mut sum2 = 0;
            for j in 0..len {
                let pm = TilePred::All.mask(j, valid);
                if pm.any() {
                    npm2 += 1;
                    sum2 += pm.count() as u64;
                }
            }
            assert_eq!((npm, sum), (npm2, sum2), "len={len} nv={nv}");
        }
    }
}
