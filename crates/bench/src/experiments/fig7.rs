//! **Figure 7** — "Performance of different GPU-based algorithm for
//! computing SDH: total running time and speedup over Register-SHM
//! kernel" (the load-balancing study, §IV-E1).
//!
//! The paper isolates the *intra-block* distance phase ("we only record
//! the time for processing intra-block distance function computations")
//! and compares the regular triangular loop against the `(t + j) mod B`
//! load-balanced pairing, reporting a 12–13 % improvement.

use crate::report::{Cell, Report, ReportError, SeriesTable};
use crate::try_geomean;
use gpu_sim::DeviceConfig;
use tbs_core::analytic::{predicted_intra_only_run, Workload};
use tbs_core::kernels::IntraMode;

/// One N sample: intra-phase-only times.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub n: u32,
    pub regular: f64,
    pub balanced: f64,
}

impl Row {
    pub fn speedup(&self) -> f64 {
        self.regular / self.balanced
    }
}

/// Predict the Figure-7 series (B = 1024, 3-D Euclidean).
pub fn series(sizes: &[u32], cfg: &DeviceConfig) -> Vec<Row> {
    sizes
        .iter()
        .map(|&n| {
            let wl = Workload {
                n,
                b: 1024,
                dims: 3,
                dist_cost: 7,
            };
            Row {
                n,
                regular: predicted_intra_only_run(&wl, IntraMode::Regular, cfg).seconds(),
                balanced: predicted_intra_only_run(&wl, IntraMode::LoadBalanced, cfg).seconds(),
            }
        })
        .collect()
}

/// The paper's Figure-7 sweep: 600 K → 3 M.
pub fn default_sizes() -> Vec<u32> {
    (1..=5).map(|i| i * 600 * 1024).collect()
}

/// Build the structured Figure-7 report (table + gate metric).
pub fn build_report(cfg: &DeviceConfig) -> Result<Report, ReportError> {
    let rows = series(&default_sizes(), cfg);
    let mut rep = Report::new(
        "fig7",
        "Figure 7 — intra-block phase: regular vs load-balanced iteration",
    )
    .with_context("Register-SHM kernel, intra-block distance computations only");

    let mut t = SeriesTable::new(
        "times",
        &["N", "Register-SHM", "Register-SHM-LB", "speedup"],
    );
    for r in &rows {
        t.row(vec![
            Cell::int(r.n as u64),
            Cell::secs(r.regular),
            Cell::secs(r.balanced),
            Cell::x3(r.speedup()),
        ]);
    }
    rep.push_table(t);

    let speedups: Vec<f64> = rows.iter().map(Row::speedup).collect();
    rep.metric(
        "lb_speedup.geomean",
        try_geomean("fig7 LB speedups", &speedups)?,
        "x",
    )?;
    rep.push_note("paper: a 12%-13% improvement (speedup 1.04–1.14 across the sweep)");
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_balancing_wins_by_paper_margin() {
        let cfg = DeviceConfig::titan_x();
        let rows = series(&default_sizes(), &cfg);
        for r in &rows {
            let s = r.speedup();
            assert!(
                (1.03..1.25).contains(&s),
                "LB speedup {s:.3} at N={} outside the paper band",
                r.n
            );
        }
    }

    #[test]
    fn intra_time_scales_linearly_with_n() {
        // The intra phase is O(N·B): doubling N doubles it.
        let cfg = DeviceConfig::titan_x();
        let rows = series(&[614_400, 1_228_800], &cfg);
        let ratio = rows[1].regular / rows[0].regular;
        assert!((1.8..2.2).contains(&ratio), "{ratio}");
    }

    #[test]
    fn report_renders() {
        let rep = build_report(&DeviceConfig::titan_x())
            .expect("report")
            .render();
        assert!(rep.contains("speedup"));
    }
}
