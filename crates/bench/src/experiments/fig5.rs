//! **Figure 5** — "Performance of the Reg-ROC-Out kernel under different
//! bin sizes: running time and occupancy."
//!
//! Workload: SDH of 512,000 points while sweeping the histogram size.
//! The paper's observations: (1) running time increases as a *step
//! function* of output size, because the per-block private histogram in
//! shared memory reduces occupancy in steps; (2) very small outputs also
//! degrade performance through atomic contention ("the many threads in
//! the block always compete for accessing an output element").
//!
//! Block size: 256 (the occupancy steps require blocks small enough that
//! several fit one SM — with B = 1024 the shared-memory limit cannot
//! bind before the 48 KB per-block cap).

use crate::report::{Cell, Report, ReportError, SeriesTable};
use gpu_sim::DeviceConfig;
use tbs_core::analytic::{
    predicted_reduction_run, predicted_run, InputPath, KernelSpec, OutputPath, Workload,
};

/// The paper's Figure-5 data size.
pub const FIG5_N: u32 = 512_000;

/// Block size for the occupancy study.
pub const FIG5_BLOCK: u32 = 256;

/// One bucket-count sample.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub buckets: u32,
    pub seconds: f64,
    pub occupancy: f64,
}

/// Sweep Reg-ROC-Out over histogram sizes.
pub fn series(buckets: &[u32], n: u32, cfg: &DeviceConfig) -> Vec<Row> {
    buckets
        .iter()
        .map(|&h| {
            let wl = Workload {
                n,
                b: FIG5_BLOCK,
                dims: 3,
                dist_cost: 7,
            };
            let spec = KernelSpec::new(
                InputPath::RegisterRoc,
                OutputPath::SharedHistogram { buckets: h },
            );
            let run = predicted_run(&wl, &spec, cfg);
            let reduce = predicted_reduction_run(h, wl.m() as u32, cfg);
            Row {
                buckets: h,
                seconds: run.seconds() + reduce.seconds(),
                occupancy: run.occupancy.occupancy,
            }
        })
        .collect()
}

/// The default bucket sweep (matching the paper's 0–5000 axis, plus the
/// tiny sizes that expose contention).
pub fn default_buckets() -> Vec<u32> {
    vec![
        16, 32, 64, 128, 256, 512, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000,
    ]
}

/// Build the structured Figure-5 report (table + gate metrics).
pub fn build_report(n: u32, cfg: &DeviceConfig) -> Result<Report, ReportError> {
    let rows = series(&default_buckets(), n, cfg);
    let mut rep = Report::new(
        "fig5",
        "Figure 5 — Reg-ROC-Out SDH vs histogram size: running time and occupancy",
    )
    .with_context(&format!("N = {n}, B = {FIG5_BLOCK}"));

    let mut t = SeriesTable::new("sweep", &["buckets", "time", "occupancy"]);
    for r in &rows {
        t.row(vec![
            Cell::int(r.buckets as u64),
            Cell::secs(r.seconds),
            Cell::pct(r.occupancy),
        ]);
    }
    rep.push_table(t);

    // Gate metrics: the step-function shape (≥ 3 occupancy plateaus)
    // and both ends of the U — big histograms lose occupancy, tiny
    // ones pay atomic contention.
    let plateaus: std::collections::BTreeSet<u64> =
        rows.iter().map(|r| (r.occupancy * 1000.0) as u64).collect();
    rep.metric("occupancy_plateaus", plateaus.len() as f64, "count")?;
    let at = |buckets: u32| -> Result<f64, ReportError> {
        rows.iter()
            .find(|r| r.buckets == buckets)
            .map(|r| r.seconds)
            .ok_or_else(|| ReportError::EmptySeries {
                what: format!("fig5 bucket count {buckets}"),
            })
    };
    rep.metric(
        "time_ratio.buckets5000_over_1000",
        at(5000)? / at(1000)?,
        "ratio",
    )?;
    rep.metric(
        "time_ratio.buckets16_over_1000",
        at(16)? / at(1000)?,
        "ratio",
    )?;

    rep.push_note(
        "paper: time rises as a step function of output size; occupancy falls in\n\
         steps as the shared-memory private histogram grows; very small outputs\n\
         suffer from atomic contention instead.",
    );
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_falls_in_steps() {
        let cfg = DeviceConfig::titan_x();
        let rows = series(&default_buckets(), FIG5_N, &cfg);
        // Monotone non-increasing occupancy over the growing histogram.
        for w in rows.windows(2) {
            assert!(w[1].occupancy <= w[0].occupancy + 1e-9);
        }
        // There must be at least two distinct occupancy plateaus.
        let distinct: std::collections::BTreeSet<u64> =
            rows.iter().map(|r| (r.occupancy * 1000.0) as u64).collect();
        assert!(distinct.len() >= 3, "steps: {distinct:?}");
        // Large histograms run slower than the mid-range sweet spot.
        let mid = rows.iter().find(|r| r.buckets == 1000).unwrap();
        let big = rows.iter().find(|r| r.buckets == 5000).unwrap();
        assert!(
            big.seconds > mid.seconds,
            "{} vs {}",
            big.seconds,
            mid.seconds
        );
        assert!(big.occupancy < mid.occupancy);
    }

    #[test]
    fn tiny_histograms_pay_contention() {
        // "the kernel also shows degraded performance when the output
        // size is too small".
        let cfg = DeviceConfig::titan_x();
        let rows = series(&[16, 1000], FIG5_N, &cfg);
        assert!(
            rows[0].seconds > rows[1].seconds,
            "16 buckets {} must be slower than 1000 buckets {}",
            rows[0].seconds,
            rows[1].seconds
        );
    }

    #[test]
    fn report_renders() {
        let cfg = DeviceConfig::titan_x();
        let rep = build_report(256_000, &cfg).expect("report").render();
        assert!(rep.contains("occupancy"));
    }
}
