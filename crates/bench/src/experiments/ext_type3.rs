//! **Extension: Type-III output study** — warp-aggregated output
//! allocation for the distance join.
//!
//! Type-III 2-BS optimization is the paper's declared future work
//! (§V: "techniques that can improve the efficiency of type-III 2-BSs").
//! This study compares the two output-slot allocation strategies of
//! [`tbs_core::output::PairListAction`] across join selectivities:
//! per-lane `atomicAdd` on the output cursor vs one aggregated
//! `atomicAdd` per warp (ballot + prefix + shuffle broadcast).

use crate::report::{Cell, Report, ReportError, SeriesTable};
use gpu_sim::{Device, DeviceConfig};
use tbs_apps::{distance_join_gpu, PairwisePlan};
use tbs_core::SoaPoints;

/// One (radius, strategy-pair) sample.
#[derive(Debug, Clone)]
pub struct Row {
    pub radius: f32,
    /// Fraction of pairs that match.
    pub selectivity: f64,
    pub naive_seconds: f64,
    pub aggregated_seconds: f64,
    pub naive_serial: u64,
    pub aggregated_serial: u64,
}

/// Sweep join selectivity on a functional simulation. A radius whose
/// launch faults is reported and skipped; the rest of the sweep runs.
pub fn series(pts: &SoaPoints<2>, radii: &[f32], block: u32) -> Vec<Row> {
    let n = pts.len() as u64;
    let pairs = n * (n - 1) / 2;
    radii
        .iter()
        .filter_map(|&radius| {
            let cap = (pairs as u32).max(1);
            let mut dev = Device::new(DeviceConfig::titan_x());
            let naive = distance_join_gpu(
                &mut dev,
                pts,
                radius,
                cap,
                false,
                PairwisePlan::register_shm(block),
            );
            let mut dev2 = Device::new(DeviceConfig::titan_x());
            let agg = distance_join_gpu(
                &mut dev2,
                pts,
                radius,
                cap,
                true,
                PairwisePlan::register_shm(block),
            );
            let (naive, agg) = match (naive, agg) {
                (Ok(naive), Ok(agg)) => (naive, agg),
                (naive, agg) => {
                    let err = naive.err().or(agg.err()).expect("one side faulted");
                    eprintln!("ext_type3: skipping radius {radius}: {err}");
                    return None;
                }
            };
            assert_eq!(naive.pairs, agg.pairs, "strategies must agree");
            Some(Row {
                radius,
                selectivity: naive.total_matches as f64 / pairs as f64,
                naive_seconds: naive.run.timing.seconds,
                aggregated_seconds: agg.run.timing.seconds,
                naive_serial: naive.run.tally.global_atomic_serial,
                aggregated_serial: agg.run.tally.global_atomic_serial,
            })
        })
        .collect()
}

/// Build the structured Type-III study report.
pub fn build_report(n: usize, block: u32) -> Result<Report, ReportError> {
    let pts = tbs_datagen::uniform_points::<2>(n, 100.0, 11);
    let rows = series(&pts, &[2.0, 5.0, 10.0, 20.0, 40.0, 80.0], block);
    let mut rep = Report::new(
        "ext_type3",
        "Extension — Type-III join output: per-lane vs warp-aggregated slot allocation",
    )
    .with_context(&format!("functional simulation, N = {n}, B = {block}"));
    let mut t = SeriesTable::new(
        "selectivity_sweep",
        &[
            "radius",
            "selectivity",
            "per-lane",
            "aggregated",
            "speedup",
            "serial ops (lane/agg)",
        ],
    );
    for r in &rows {
        t.row(vec![
            Cell::num(r.radius as f64, format!("{:.0}", r.radius)),
            Cell::num(r.selectivity, format!("{:.3}%", r.selectivity * 100.0)),
            Cell::secs(r.naive_seconds),
            Cell::secs(r.aggregated_seconds),
            Cell::x(r.naive_seconds / r.aggregated_seconds),
            Cell::text(format!("{}/{}", r.naive_serial, r.aggregated_serial)),
        ]);
    }
    rep.push_table(t);

    // The densest (largest-radius) row is where aggregation must win.
    let dense = rows.last().ok_or_else(|| ReportError::EmptySeries {
        what: "ext_type3 selectivity sweep".to_string(),
    })?;
    rep.metric(
        "serial_ratio.dense",
        dense.naive_serial as f64 / dense.aggregated_serial.max(1) as f64,
        "ratio",
    )?;
    rep.metric(
        "agg_speedup.dense",
        dense.naive_seconds / dense.aggregated_seconds,
        "x",
    )?;
    rep.push_note(
        "warp aggregation pays off as selectivity grows: the per-lane cursor\n\
         serializes once per matching lane, aggregation once per warp.",
    );
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_wins_at_high_selectivity() {
        let pts = tbs_datagen::uniform_points::<2>(768, 100.0, 11);
        let rows = series(&pts, &[5.0, 60.0], 64);
        let dense = &rows[1];
        assert!(dense.selectivity > 0.3, "{}", dense.selectivity);
        assert!(
            dense.naive_serial > 4 * dense.aggregated_serial,
            "serial {} vs {}",
            dense.naive_serial,
            dense.aggregated_serial
        );
        assert!(
            dense.naive_seconds > dense.aggregated_seconds,
            "{} vs {}",
            dense.naive_seconds,
            dense.aggregated_seconds
        );
    }

    #[test]
    fn selectivity_is_monotone_in_radius() {
        let pts = tbs_datagen::uniform_points::<2>(512, 100.0, 13);
        let rows = series(&pts, &[2.0, 10.0, 50.0], 64);
        assert!(rows[0].selectivity < rows[1].selectivity);
        assert!(rows[1].selectivity < rows[2].selectivity);
    }
}
