//! The block-execution engine: sequential reference semantics and the
//! deterministic parallel engine.
//!
//! ## Sequential semantics (the contract)
//!
//! Blocks run in grid order against one device-wide, cold-per-launch
//! [`L2Cache`]; each block gets fresh shared memory and ROC state; the
//! first faulting block (in grid order) aborts the launch, leaving the
//! memory mutations of all earlier blocks — and of the faulting block up
//! to its fault — in place.
//!
//! ## The parallel engine
//!
//! Reproducing those semantics bit-for-bit on multiple host threads is the
//! whole game: the device-wide L2 means even "independent" blocks share
//! cache state, and the analytic model (`tbs-core::analytic`) depends on
//! the resulting cross-block reuse. The engine therefore splits every
//! window of blocks into two phases:
//!
//! 1. **Speculate (parallel)** — workers execute blocks against an
//!    immutable snapshot of global memory, recording a write log, an
//!    L2 sector trace in program order, and read/write buffer sets
//!    (see [`crate::mem::replay`]). Blocks whose results could depend on
//!    block ordering — value-returning atomics, reads of self-written
//!    buffers — abandon speculation early.
//! 2. **Commit (in block order)** — for each block: if it abandoned
//!    speculation *or* reads a buffer written by an earlier block of the
//!    same window, it is re-executed directly (exactly the sequential
//!    path); otherwise its sector trace is replayed through the single L2
//!    (yielding the sequential hit/miss split) and its write log applied.
//!    Fault and shared-memory checks run in block order.
//!
//! Windows bound both memory (logs/traces of at most `threads × 8` blocks
//! are alive) and staleness (each window's snapshot includes every prior
//! window's writes). The result: outputs, tallies, and first-fault
//! behaviour are bit-identical to [`run_sequential`], which the
//! `it_properties` suite asserts across kernel variants and output modes.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::config::{DeviceConfig, ExecMode};
use crate::error::SimError;
use crate::exec::block::{BlockCtx, GlobalPort, SpecRecord};
use crate::exec::{Kernel, KernelResources, LaunchConfig};
use crate::mem::replay::BufSet;
use crate::mem::{GlobalMem, L2Cache};
use crate::tally::{AccessTally, InterpStats};

/// Blocks speculated per worker thread before a commit barrier.
const WINDOW_BLOCKS_PER_THREAD: usize = 8;

/// Everything one executed block hands to the commit phase.
struct BlockOutcome {
    tally: AccessTally,
    /// Host interpreter statistics (block-local dispatch and compiled-pass
    /// counts).
    interp: InterpStats,
    fault: Option<SimError>,
    shared_allocated: u64,
    reads: BufSet,
    writes: BufSet,
    /// Write log + sector trace (speculative runs only).
    spec: Option<SpecRecord>,
    /// Speculation abandoned: commit must re-execute directly.
    needs_reexec: bool,
}

/// The device-wide L2 for one launch: the legacy body in scalar-reference
/// mode, the fast body otherwise. Both make identical hit/miss decisions.
fn new_l2(cfg: &DeviceConfig) -> L2Cache {
    if cfg.scalar_reference {
        L2Cache::new_reference(cfg.l2_sectors())
    } else {
        L2Cache::new(cfg.l2_sectors())
    }
}

/// Run the whole grid under the configured [`ExecMode`], returning the
/// merged tally and host interpreter statistics. Mutations land in
/// `global`; the first fault (in block order) aborts the launch exactly
/// as the sequential engine would.
pub(crate) fn run_grid<K: Kernel + ?Sized>(
    global: &mut GlobalMem,
    cfg: &DeviceConfig,
    kernel: &K,
    lc: LaunchConfig,
    res: KernelResources,
) -> Result<(AccessTally, InterpStats), SimError> {
    let threads = match cfg.exec_mode {
        ExecMode::Sequential => 1,
        m => m.resolved_threads(),
    };
    if threads < 2 || lc.grid_dim < 2 {
        run_sequential(global, cfg, kernel, lc, res)
    } else {
        run_parallel(global, cfg, kernel, lc, res, threads)
    }
}

/// The reference engine: one host thread, blocks in grid order.
fn run_sequential<K: Kernel + ?Sized>(
    global: &mut GlobalMem,
    cfg: &DeviceConfig,
    kernel: &K,
    lc: LaunchConfig,
    res: KernelResources,
) -> Result<(AccessTally, InterpStats), SimError> {
    let mut l2 = new_l2(cfg);
    let mut total = AccessTally::new();
    let mut stats = InterpStats::default();
    for b in 0..lc.grid_dim {
        let outcome = run_block_direct(global, &mut l2, cfg, kernel, b, lc);
        commit_checks(outcome, kernel, res, lc, &mut total, &mut stats)?;
    }
    Ok((total, stats))
}

/// The deterministic parallel engine: speculate in windows, commit in
/// block order.
fn run_parallel<K: Kernel + ?Sized>(
    global: &mut GlobalMem,
    cfg: &DeviceConfig,
    kernel: &K,
    lc: LaunchConfig,
    res: KernelResources,
    threads: usize,
) -> Result<(AccessTally, InterpStats), SimError> {
    let mut l2 = new_l2(cfg);
    let mut total = AccessTally::new();
    let mut stats = InterpStats::default();
    let window = (threads * WINDOW_BLOCKS_PER_THREAD) as u32;
    let mut committed = 0u32;
    let mut reexecuted = 0u32;
    let mut start = 0u32;
    // Per-worker result buffers, reused across windows (`drain` keeps
    // their capacity) so the steady-state speculate phase allocates
    // nothing per window.
    let mut worker_bufs: Vec<Vec<(u32, BlockOutcome)>> = (0..threads).map(|_| Vec::new()).collect();
    while start < lc.grid_dim {
        // A launch where every block abandons speculation (e.g. pair-list
        // kernels allocating output slots from a global cursor) gains
        // nothing from further speculative passes: finish sequentially.
        if committed >= window && reexecuted == committed {
            for b in start..lc.grid_dim {
                let outcome = run_block_direct(global, &mut l2, cfg, kernel, b, lc);
                commit_checks(outcome, kernel, res, lc, &mut total, &mut stats)?;
            }
            return Ok((total, stats));
        }

        let end = (start + window).min(lc.grid_dim);
        let count = end - start;

        // ---- phase 1: speculate this window's blocks in parallel ----
        let mut slots: Vec<Option<BlockOutcome>> = std::iter::repeat_with(|| None)
            .take(count as usize)
            .collect();
        {
            let snapshot: &GlobalMem = global;
            let next = AtomicU32::new(0);
            std::thread::scope(|s| {
                let workers: Vec<_> = worker_bufs
                    .iter_mut()
                    .take(threads.min(count as usize))
                    .map(|done| {
                        let next = &next;
                        s.spawn(move || loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= count {
                                return;
                            }
                            done.push((i, run_block_spec(snapshot, cfg, kernel, start + i, lc)));
                        })
                    })
                    .collect();
                for w in workers {
                    // Preserve kernel host-code panics (test asserts).
                    if let Err(payload) = w.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
            for done in worker_bufs.iter_mut() {
                for (i, outcome) in done.drain(..) {
                    slots[i as usize] = Some(outcome);
                }
            }
        }

        // ---- phase 2: commit in block order ----
        let mut window_writes = BufSet::default();
        for i in 0..count {
            let b = start + i;
            let mut outcome = slots[i as usize]
                .take()
                .expect("every block was speculated");
            if outcome.needs_reexec || outcome.reads.intersects(&window_writes) {
                outcome = run_block_direct(global, &mut l2, cfg, kernel, b, lc);
                reexecuted += 1;
            } else {
                let spec = outcome.spec.take().expect("speculative record");
                spec.trace.replay(&mut l2, &mut outcome.tally);
                global.apply_log(&spec.log);
            }
            window_writes.union_with(&outcome.writes);
            committed += 1;
            commit_checks(outcome, kernel, res, lc, &mut total, &mut stats)?;
        }
        start = end;
    }
    Ok((total, stats))
}

/// Run one block directly against global memory and the shared L2.
fn run_block_direct<K: Kernel + ?Sized>(
    global: &mut GlobalMem,
    l2: &mut L2Cache,
    cfg: &DeviceConfig,
    kernel: &K,
    block_id: u32,
    lc: LaunchConfig,
) -> BlockOutcome {
    let mut blk = BlockCtx::direct(global, l2, cfg, block_id, lc.grid_dim, lc.block_dim);
    kernel.run_block(&mut blk);
    into_outcome(blk)
}

/// Run one block speculatively against a global-memory snapshot.
fn run_block_spec<K: Kernel + ?Sized>(
    global: &GlobalMem,
    cfg: &DeviceConfig,
    kernel: &K,
    block_id: u32,
    lc: LaunchConfig,
) -> BlockOutcome {
    let mut blk = BlockCtx::speculative(global, cfg, block_id, lc.grid_dim, lc.block_dim);
    kernel.run_block(&mut blk);
    into_outcome(blk)
}

fn into_outcome(blk: BlockCtx<'_>) -> BlockOutcome {
    let shared_allocated = blk.shared.allocated_bytes();
    BlockOutcome {
        tally: blk.tally,
        interp: blk.interp,
        fault: blk.fault,
        shared_allocated,
        reads: blk.reads,
        writes: blk.writes,
        spec: match blk.port {
            GlobalPort::Direct { .. } => None,
            GlobalPort::Speculative { rec, .. } => Some(rec),
        },
        needs_reexec: blk.needs_reexec,
    }
}

/// Post-block bookkeeping shared by both engines, applied in block order:
/// first-fault propagation, the shared-memory over-allocation check, and
/// the per-block tally merge.
fn commit_checks<K: Kernel + ?Sized>(
    mut outcome: BlockOutcome,
    kernel: &K,
    res: KernelResources,
    lc: LaunchConfig,
    total: &mut AccessTally,
    stats: &mut InterpStats,
) -> Result<(), SimError> {
    if let Some(fault) = outcome.fault {
        return Err(fault);
    }
    if outcome.shared_allocated > res.shared_mem_bytes as u64 {
        return Err(SimError::InvalidLaunch {
            reason: format!(
                "kernel '{}' allocated {} B of shared memory but declared {} B \
                 (occupancy would be wrong)",
                kernel.name(),
                outcome.shared_allocated,
                res.shared_mem_bytes
            ),
        });
    }
    outcome.tally.blocks_executed = 1;
    outcome.tally.warps_executed = lc.warps_per_block() as u64;
    total.merge(&outcome.tally);
    stats.merge(&outcome.interp);
    Ok(())
}
