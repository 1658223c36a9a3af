//! **Figure 2** — "Performance of different GPU-based algorithms for
//! computing 2-PCF: total running time and speedup over naive algorithm."
//!
//! Workload: 2-point correlation function, 3-D uniform points, N from
//! 512 to 2 M, 1024 threads per block (§IV-B). Series: Naive, SHM-SHM,
//! Register-SHM, Register-ROC.
//!
//! Paper's reported shape: quadratic growth; Register-SHM best (avg
//! speedup 5.5×, max 6×); SHM-SHM close behind (5.3×); Register-ROC
//! least improved (4.7×, max 5×).

use crate::paper_workload;
use crate::report::{Cell, Report, ReportError, SeriesTable};
use crate::table::fmt_x;
use crate::try_geomean;
use gpu_sim::DeviceConfig;
use tbs_core::analytic::{predicted_run, InputPath, KernelSpec, OutputPath};

/// The four kernels of Figure 2, in plot order.
pub const KERNELS: [InputPath; 4] = [
    InputPath::Naive,
    InputPath::ShmShm,
    InputPath::RegisterShm,
    InputPath::RegisterRoc,
];

/// One N point of the sweep.
#[derive(Debug, Clone)]
pub struct Row {
    pub n: u32,
    /// Seconds per kernel, indexed like [`KERNELS`].
    pub seconds: [f64; 4],
}

impl Row {
    /// Speedup of kernel `k` over Naive.
    pub fn speedup(&self, k: usize) -> f64 {
        self.seconds[0] / self.seconds[k]
    }
}

/// Predict the Figure-2 series over the given sizes.
pub fn series(sizes: &[u32], cfg: &DeviceConfig) -> Vec<Row> {
    sizes
        .iter()
        .map(|&n| {
            let wl = paper_workload(n);
            let seconds = std::array::from_fn(|k| {
                predicted_run(
                    &wl,
                    &KernelSpec::new(KERNELS[k], OutputPath::RegisterCount),
                    cfg,
                )
                .seconds()
            });
            Row { n, seconds }
        })
        .collect()
}

/// Build the structured Figure-2 report (tables + gate metrics).
pub fn build_report(sizes: &[u32], cfg: &DeviceConfig) -> Result<Report, ReportError> {
    let rows = series(sizes, cfg);
    let mut rep = Report::new(
        "fig2",
        "Figure 2 — 2-PCF: total running time and speedup over the naive kernel",
    )
    .with_context("uniform 3-D points, B = 1024, Euclidean distance");

    let mut t = SeriesTable::new(
        "times",
        &["N", "Naive", "SHM-SHM", "Register-SHM", "Register-ROC"],
    );
    for r in &rows {
        t.row(vec![
            Cell::int(r.n as u64),
            Cell::secs(r.seconds[0]),
            Cell::secs(r.seconds[1]),
            Cell::secs(r.seconds[2]),
            Cell::secs(r.seconds[3]),
        ]);
    }
    rep.push_table(t);

    let mut s = SeriesTable::new(
        "speedups",
        &["N", "SHM-SHM", "Register-SHM", "Register-ROC"],
    );
    for r in &rows {
        s.row(vec![
            Cell::int(r.n as u64),
            Cell::x(r.speedup(1)),
            Cell::x(r.speedup(2)),
            Cell::x(r.speedup(3)),
        ]);
    }
    rep.push_table(s);

    // Average over the saturated regime the paper plots (N ≥ 100 K).
    let saturated: Vec<&Row> = rows.iter().filter(|r| r.n >= 100_000).collect();
    let speedups = |k: usize| -> Vec<f64> { saturated.iter().map(|r| r.speedup(k)).collect() };
    let avg = [
        try_geomean("fig2 SHM-SHM saturated speedups", &speedups(1))?,
        try_geomean("fig2 Register-SHM saturated speedups", &speedups(2))?,
        try_geomean("fig2 Register-ROC saturated speedups", &speedups(3))?,
    ];
    rep.metric("speedup.shm_shm.geomean_saturated", avg[0], "x")?;
    rep.metric("speedup.register_shm.geomean_saturated", avg[1], "x")?;
    rep.metric("speedup.register_roc.geomean_saturated", avg[2], "x")?;

    // Paper-shape invariants the perf gate pins: Register-SHM ≥ 4× at
    // every fully saturated size, and SHM-SHM never beats Register-SHM.
    let deep: Vec<&&Row> = saturated.iter().filter(|r| r.n >= 400_000).collect();
    if deep.is_empty() {
        return Err(ReportError::EmptySeries {
            what: "fig2 N >= 400K rows".to_string(),
        });
    }
    let reg_min = deep
        .iter()
        .map(|r| r.speedup(2))
        .fold(f64::INFINITY, f64::min);
    let shm_over_reg = deep
        .iter()
        .map(|r| r.speedup(1) / r.speedup(2))
        .fold(f64::NEG_INFINITY, f64::max);
    rep.metric("invariant.register_shm_min_saturated", reg_min, "x")?;
    rep.metric("invariant.shm_over_register_shm_max", shm_over_reg, "ratio")?;

    rep.push_note(&format!(
        "average speedup over naive:  SHM-SHM {}  Register-SHM {}  Register-ROC {}\n\
         paper:                       SHM-SHM 5.3x Register-SHM 5.5x Register-ROC 4.7x",
        fmt_x(avg[0]),
        fmt_x(avg[1]),
        fmt_x(avg[2]),
    ));
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbs_datagen::paper_sweep;

    #[test]
    fn shape_matches_paper_claims() {
        let cfg = DeviceConfig::titan_x();
        let sizes = paper_sweep(6, 1024);
        let rows = series(&sizes, &cfg);
        // Quadratic growth once the device is saturated (small N cannot
        // even fill the grid — the paper's log-log plot flattens there
        // too).
        let big: Vec<&Row> = rows.iter().filter(|r| r.n >= 100_000).collect();
        let (first, last) = (big[0], big[big.len() - 1]);
        let growth = last.seconds[2] / first.seconds[2];
        let expected = (last.n as f64 / first.n as f64).powi(2);
        assert!(
            growth > expected * 0.3 && growth < expected * 3.0,
            "growth {growth} vs quadratic {expected}"
        );
        // At paper scale (≥ 400 K), ordering + factors.
        for r in rows.iter().filter(|r| r.n >= 400_000) {
            let (shm, reg, roc) = (r.speedup(1), r.speedup(2), r.speedup(3));
            assert!(
                reg >= shm * 0.99,
                "Register-SHM must win: {reg} vs {shm} at {}",
                r.n
            );
            assert!(roc < reg, "Register-ROC least improved at {}", r.n);
            assert!(
                (3.0..9.0).contains(&reg),
                "Register-SHM speedup {reg} at N={}",
                r.n
            );
            assert!(
                (2.5..8.0).contains(&roc),
                "Register-ROC speedup {roc} at N={}",
                r.n
            );
        }
    }

    #[test]
    fn report_renders() {
        let cfg = DeviceConfig::titan_x();
        let rep = build_report(&[102_400, 409_600], &cfg)
            .expect("report")
            .render();
        assert!(rep.contains("Register-SHM"));
        assert!(rep.contains("average speedup"));
    }

    #[test]
    fn build_report_rejects_unsaturated_sweeps() {
        // A sweep with no saturated sizes cannot support the paper's
        // speedup claims — the reporting path must say so, not emit NaN.
        let cfg = DeviceConfig::titan_x();
        let err = build_report(&[1024, 2048], &cfg).unwrap_err();
        assert!(matches!(
            err,
            crate::report::ReportError::EmptySeries { .. }
        ));
    }

    #[test]
    fn build_report_exposes_gate_metrics() {
        let cfg = DeviceConfig::titan_x();
        let rep = build_report(&paper_sweep(6, 1024), &cfg).unwrap();
        let reg = rep
            .metric_value("speedup.register_shm.geomean_saturated")
            .unwrap();
        assert!(reg > 4.0, "Register-SHM geomean {reg}");
        assert!(
            rep.metric_value("invariant.shm_over_register_shm_max")
                .unwrap()
                <= 1.01
        );
    }
}
