//! **Extension: multiple private copies per block** — reproducing the
//! paper's §IV-C aside: *"We tested more private copies per block and
//! found that it does not bring overall performance advantage (data not
//! shown)."*
//!
//! Mechanism: warp `w` updates private copy `w mod K`, cutting
//! same-address atomic contention by up to the copy count — but each
//! copy costs shared memory (occupancy) and widens the end-of-block
//! merge. This functional study measures both sides.

use crate::report::{Cell, Report, ReportError, SeriesTable};
use gpu_sim::{Device, DeviceConfig};
use tbs_core::histogram::HistogramSpec;
use tbs_core::kernels::{pair_launch, IntraMode, PairScope, RegisterShmKernel};
use tbs_core::output::MultiCopyHistogramAction;
use tbs_core::{Euclidean, Histogram};

/// One copy-count sample.
#[derive(Debug, Clone)]
pub struct Row {
    pub copies: u32,
    pub contention: f64,
    pub occupancy: f64,
    pub seconds: f64,
}

/// Sweep private-copy counts on a functional SDH. A copy count whose
/// launch faults is reported and skipped; the rest of the sweep runs.
pub fn series(n: usize, buckets: u32, block: u32, copy_counts: &[u32]) -> Vec<Row> {
    let pts = tbs_datagen::uniform_points::<3>(n, tbs_datagen::DEFAULT_BOX, 5);
    let spec = HistogramSpec::new(
        buckets,
        tbs_datagen::box_diagonal(tbs_datagen::DEFAULT_BOX, 3),
    );
    let mut reference: Option<Histogram> = None;
    copy_counts
        .iter()
        .filter_map(|&copies| {
            let mut dev = Device::new(DeviceConfig::titan_x());
            let input = pts.upload(&mut dev);
            let lc = pair_launch(input.n, block);
            let private = dev.alloc_u32_zeroed((lc.grid_dim * buckets) as usize);
            let k = RegisterShmKernel::new(
                input,
                Euclidean,
                MultiCopyHistogramAction {
                    spec,
                    private,
                    copies,
                },
                block,
                PairScope::HalfPairs,
                IntraMode::Regular,
            );
            let run = match dev.try_launch(&k, lc) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("ext_multicopy: skipping copies = {copies}: {e}");
                    return None;
                }
            };
            // Correctness: merge the per-block private copies and compare
            // against the single-copy result.
            let vals = dev.u32_slice(private);
            let mut counts = vec![0u64; buckets as usize];
            for (i, &v) in vals.iter().enumerate() {
                counts[i % buckets as usize] += v as u64;
            }
            let merged = Histogram::from_counts(counts);
            match &reference {
                None => reference = Some(merged),
                Some(r) => assert_eq!(&merged, r, "copies={copies} changed the histogram"),
            }
            Some(Row {
                copies,
                contention: run.tally.shared_atomic_contention(),
                occupancy: run.occupancy.occupancy,
                seconds: run.timing.seconds,
            })
        })
        .collect()
}

/// Build the structured multi-copy report for a contended
/// (small-histogram) and an occupancy-bound (large-histogram)
/// configuration.
pub fn build_report(n: usize, block: u32) -> Result<Report, ReportError> {
    let mut rep = Report::new(
        "ext_multicopy",
        "Extension — multiple private histogram copies per block",
    )
    .with_context(&format!("functional simulation, N = {n}, B = {block}"));
    let mut t = SeriesTable::new(
        "sweep",
        &["config", "copies", "contention", "occupancy", "sim time"],
    );
    // 4 copies × 16 KB would overflow the 48 KB block limit at 4096
    // buckets — the shared-memory ceiling is itself part of the paper's
    // point, so the realistic sweep stops at 2.
    let mut contended_rows = Vec::new();
    for (label, buckets, copy_counts) in [
        ("contended: 32 buckets", 32u32, &[1u32, 2, 4][..]),
        ("realistic: 4096 buckets", 4096, &[1, 2][..]),
    ] {
        let rows = series(n, buckets, block, copy_counts);
        for r in &rows {
            t.row(vec![
                Cell::text(label),
                Cell::int(r.copies as u64),
                Cell::num(r.contention, format!("{:.2}x", r.contention)),
                Cell::pct(r.occupancy),
                Cell::secs(r.seconds),
            ]);
        }
        if buckets == 32 {
            contended_rows = rows;
        }
    }
    rep.push_table(t);

    let at = |copies: u32| -> Result<f64, ReportError> {
        contended_rows
            .iter()
            .find(|r| r.copies == copies)
            .map(|r| r.contention)
            .ok_or_else(|| ReportError::EmptySeries {
                what: format!("ext_multicopy copies = {copies} row"),
            })
    };
    rep.metric("contention_ratio.copies1_over_4", at(1)? / at(4)?, "ratio")?;
    rep.push_note(
        "paper (§IV-C): \"more private copies per block ... does not bring overall\n\
         performance advantage\" — extra copies trade contention against occupancy\n\
         and a wider reduction; at realistic histogram sizes the trade nets ~zero.",
    );
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extra_copies_cut_contention() {
        let rows = series(1024, 32, 128, &[1, 4]);
        assert!(
            rows[1].contention < rows[0].contention * 0.75,
            "4 copies: {:.2} vs 1 copy: {:.2}",
            rows[1].contention,
            rows[0].contention
        );
    }

    #[test]
    fn extra_copies_cost_occupancy_at_realistic_sizes() {
        // Occupancy is a static function of the kernel's resources; check
        // it at a paper-scale grid (functional test sizes are grid-limited
        // and would mask the shared-memory ceiling).
        use tbs_core::output::PairAction;
        let cfg = DeviceConfig::titan_x();
        let spec = HistogramSpec::new(4096, tbs_datagen::box_diagonal(tbs_datagen::DEFAULT_BOX, 3));
        let occ = |copies: u32| {
            let mut dev = Device::new(cfg.clone());
            let private = dev.alloc_u32_zeroed(4096);
            let action = MultiCopyHistogramAction {
                spec,
                private,
                copies,
            };
            // Tile (3 KB at B=256, D=3) + copies × 16 KB.
            let shm = 256 * 4 * 3 + action.shared_bytes(256);
            gpu_sim::occupancy::occupancy(&cfg, 10_000, 256, 32, shm).occupancy
        };
        let (one, two) = (occ(1), occ(2));
        assert!(
            two < one,
            "2×16 KB copies must reduce occupancy: {two} vs {one}"
        );
    }

    #[test]
    fn no_overall_advantage_at_realistic_sizes() {
        // The paper's claim, as a measured fact.
        let rows = series(2048, 4096, 256, &[1, 2]);
        assert!(
            rows[1].seconds > rows[0].seconds * 0.9,
            "multi-copy {} must not beat single-copy {} by >10%",
            rows[1].seconds,
            rows[0].seconds
        );
    }

    #[test]
    fn four_realistic_copies_overflow_shared_memory() {
        // 4 × 16 KB private copies + the input tile exceed the 48 KB
        // per-block limit — the hardware ceiling that motivates keeping
        // one copy per block.
        let pts = tbs_datagen::uniform_points::<3>(512, tbs_datagen::DEFAULT_BOX, 5);
        let spec = HistogramSpec::new(4096, tbs_datagen::box_diagonal(tbs_datagen::DEFAULT_BOX, 3));
        let mut dev = Device::new(DeviceConfig::titan_x());
        let input = pts.upload(&mut dev);
        let lc = pair_launch(input.n, 256);
        let private = dev.alloc_u32_zeroed((lc.grid_dim * 4096) as usize);
        let k = RegisterShmKernel::new(
            input,
            Euclidean,
            MultiCopyHistogramAction {
                spec,
                private,
                copies: 4,
            },
            256,
            PairScope::HalfPairs,
            IntraMode::Regular,
        );
        assert!(matches!(
            dev.try_launch(&k, lc),
            Err(gpu_sim::SimError::SharedMemOverflow { .. })
        ));
    }
}
