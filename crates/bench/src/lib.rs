//! # tbs-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation, each producing
//! the same rows/series the paper reports (see DESIGN.md §4 for the
//! experiment index). `all_experiments` prints the reports listed in
//! [`experiments::SECTIONS`], and `tests/it_capture.rs` pins that output
//! to `results/all_experiments.txt`; other integration tests run the
//! experiments at reduced sizes; `EXPERIMENTS.md` records
//! paper-vs-measured values.
//!
//! Methodology: series over the paper's N range (512 → 2×10⁶) use the
//! validated closed-form access profiles (`tbs_core::analytic`) fed
//! through the device timing model — the property tests in
//! `tests/it_analytic.rs` prove those profiles equal functional
//! execution; rows that need *functional* artifacts (real histograms,
//! contention measured from data) run the simulator directly at sizes
//! this host can execute.

pub mod experiments;
pub mod report;
pub mod table;

pub use table::Table;

use tbs_core::analytic::Workload;

/// The paper's default pairwise workload shape: 3-D points, Euclidean
/// distance (cost 2·D+1 = 7), B = 1024 threads per block (§IV-B).
pub fn paper_workload(n: u32) -> Workload {
    Workload {
        n,
        b: 1024,
        dims: 3,
        dist_cost: 7,
    }
}

/// Geometric mean of a slice (speedup summaries).
///
/// Returns NaN on an empty slice — callers that feed reports/JSON must
/// use [`try_geomean`], which surfaces the empty case as an error
/// instead of letting NaN leak into serialized metrics.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// [`geomean`] with the empty-series case made explicit. `what` names
/// the series in the error so a misconfigured sweep is diagnosable.
pub fn try_geomean(what: &str, xs: &[f64]) -> Result<f64, report::ReportError> {
    if xs.is_empty() {
        return Err(report::ReportError::EmptySeries {
            what: what.to_string(),
        });
    }
    Ok(geomean(xs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn try_geomean_makes_empty_loud() {
        assert!((try_geomean("s", &[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
        assert!(matches!(
            try_geomean("speedups", &[]),
            Err(report::ReportError::EmptySeries { .. })
        ));
    }

    #[test]
    fn paper_workload_shape() {
        let wl = paper_workload(1024 * 100);
        assert_eq!(wl.b, 1024);
        assert_eq!(wl.dist_cost, 7);
        assert!(wl.is_full());
    }
}
