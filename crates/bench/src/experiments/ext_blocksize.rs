//! **Extension: block-size study** — the paper sets "the value of
//! threads per block to 1024, which is derived from an optimization
//! model developed in our previous work \[23\] — that model guarantees
//! best kernel performance among all possible parameters" (§IV-B).
//!
//! Our analytical model reproduces that choice from first principles:
//! sweep B and predict each kernel's time. Larger B means fewer, larger
//! tiles (less tile-staging and loop overhead per pair) until occupancy
//! or shared memory pushes back.

use crate::report::{Cell, Report, ReportError, SeriesTable};
use gpu_sim::DeviceConfig;
use tbs_core::analytic::{predicted_run, InputPath, KernelSpec, OutputPath, Workload};

/// One (kernel, B) sample.
#[derive(Debug, Clone)]
pub struct Row {
    pub block: u32,
    pub seconds: f64,
    pub occupancy: f64,
}

/// Sweep block sizes for one kernel at size `n`.
pub fn series(n: u32, input: InputPath, output: OutputPath, cfg: &DeviceConfig) -> Vec<Row> {
    [32u32, 64, 128, 256, 512, 1024]
        .iter()
        .map(|&b| {
            let wl = Workload {
                n: n / b * b,
                b,
                dims: 3,
                dist_cost: 7,
            };
            let run = predicted_run(&wl, &KernelSpec::new(input, output), cfg);
            Row {
                block: b,
                seconds: run.seconds(),
                occupancy: run.occupancy.occupancy,
            }
        })
        .collect()
}

/// Build the structured block-size report.
pub fn build_report(n: u32, cfg: &DeviceConfig) -> Result<Report, ReportError> {
    let mut rep =
        Report::new("ext_blocksize", "Extension — block-size optimization").with_context(&format!(
            "2-PCF and SDH, N ≈ {n}; the paper fixes B = 1024 from its reference [23]'s model"
        ));
    let mut t = SeriesTable::new("sweep", &["kernel", "B", "time", "occupancy", "vs best"]);
    for (label, input, output) in [
        (
            "Register-SHM / 2-PCF",
            InputPath::RegisterShm,
            OutputPath::RegisterCount,
        ),
        (
            "Reg-ROC-Out / SDH (4096 buckets)",
            InputPath::RegisterRoc,
            OutputPath::SharedHistogram { buckets: 4096 },
        ),
    ] {
        let rows = series(n, input, output, cfg);
        let best = rows.iter().map(|r| r.seconds).fold(f64::INFINITY, f64::min);
        for r in &rows {
            t.row(vec![
                Cell::text(label),
                Cell::int(r.block as u64),
                Cell::secs(r.seconds),
                Cell::pct(r.occupancy),
                Cell::num(r.seconds / best, format!("{:.2}x", r.seconds / best)),
            ]);
        }
        if input == InputPath::RegisterShm {
            let b1024 =
                rows.iter()
                    .find(|r| r.block == 1024)
                    .ok_or_else(|| ReportError::EmptySeries {
                        what: "ext_blocksize B = 1024 row".to_string(),
                    })?;
            rep.metric("b1024_over_best", b1024.seconds / best, "ratio")?;
        }
    }
    rep.push_table(t);
    rep.push_note("large blocks amortize tile staging; B = 1024 is at or near the optimum.");
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_papers_block_size_is_near_optimal() {
        let cfg = DeviceConfig::titan_x();
        let rows = series(
            1024 * 1024,
            InputPath::RegisterShm,
            OutputPath::RegisterCount,
            &cfg,
        );
        let best = rows.iter().map(|r| r.seconds).fold(f64::INFINITY, f64::min);
        let b1024 = rows.iter().find(|r| r.block == 1024).unwrap();
        assert!(
            b1024.seconds <= best * 1.1,
            "B=1024 ({}) must be within 10% of the best ({})",
            b1024.seconds,
            best
        );
        // And tiny blocks pay measurable tile-staging/loop overhead (the
        // model only counts instruction/sync costs, so the margin is
        // smaller than on real hardware where launch/barrier costs grow).
        let b32 = rows.iter().find(|r| r.block == 32).unwrap();
        assert!(
            b32.seconds > best * 1.03,
            "B=32 should pay overhead: {}",
            b32.seconds / best
        );
    }

    #[test]
    fn report_renders() {
        let rep = build_report(512 * 1024, &DeviceConfig::titan_x())
            .expect("report")
            .render();
        assert!(rep.contains("B = 1024"));
    }
}
