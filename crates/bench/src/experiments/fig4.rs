//! **Figure 4** — "Performance of different GPU-based algorithms for
//! computing SDH: total running time and speedup over CPU algorithm."
//!
//! Workload: spatial distance histogram, 3-D uniform points, B = 1024.
//! Series: the CPU baseline; Register-SHM standing in for the three
//! non-privatized kernels ("the three kernels without the output
//! privatization technique run almost at the same speed"); and the three
//! output-privatized kernels Naive-Out, Reg-SHM-Out, Reg-ROC-Out
//! (privatized times include the Figure-3 reduction kernel).
//!
//! Paper's reported shape: privatization wins ~an order of magnitude
//! (Reg-ROC-Out ≈ 11× Register-SHM); Reg-ROC-Out best overall at ≈ 50×
//! the CPU; even the least-optimized GPU kernel beats the CPU (≈ 3.5×).

use crate::paper_workload;
use crate::report::{Cell, Report, ReportError, SeriesTable};
use crate::table::fmt_x;
use gpu_sim::DeviceConfig;
use tbs_core::analytic::{
    predicted_reduction_run, predicted_run, InputPath, KernelSpec, OutputPath,
};
use tbs_cpu::CpuModel;

/// Histogram size used throughout the SDH experiments: 4096 buckets =
/// 16 KB per private copy ("tens of kilobytes", §IV-D).
pub const SDH_BUCKETS: u32 = 4096;

/// One N point of the sweep.
#[derive(Debug, Clone)]
pub struct Row {
    pub n: u32,
    pub cpu: f64,
    /// Register-SHM with direct global-atomic output.
    pub register_shm: f64,
    /// Privatized-output kernels (pair stage + reduction).
    pub naive_out: f64,
    pub reg_shm_out: f64,
    pub reg_roc_out: f64,
}

/// Predict the Figure-4 series.
pub fn series(sizes: &[u32], cfg: &DeviceConfig, cpu: &CpuModel) -> Vec<Row> {
    let priv_out = OutputPath::SharedHistogram {
        buckets: SDH_BUCKETS,
    };
    let glob_out = OutputPath::GlobalHistogram {
        buckets: SDH_BUCKETS,
    };
    sizes
        .iter()
        .map(|&n| {
            let wl = paper_workload(n);
            let reduction = predicted_reduction_run(SDH_BUCKETS, wl.m() as u32, cfg).seconds();
            let privatized = |input| {
                predicted_run(&wl, &KernelSpec::new(input, priv_out), cfg).seconds() + reduction
            };
            Row {
                n,
                cpu: cpu.seconds(n as u64),
                register_shm: predicted_run(
                    &wl,
                    &KernelSpec::new(InputPath::RegisterShm, glob_out),
                    cfg,
                )
                .seconds(),
                naive_out: privatized(InputPath::Naive),
                reg_shm_out: privatized(InputPath::RegisterShm),
                reg_roc_out: privatized(InputPath::RegisterRoc),
            }
        })
        .collect()
}

/// Build the structured Figure-4 report (tables + gate metrics).
pub fn build_report(
    sizes: &[u32],
    cfg: &DeviceConfig,
    cpu: &CpuModel,
) -> Result<Report, ReportError> {
    let rows = series(sizes, cfg, cpu);
    let mut rep = Report::new(
        "fig4",
        "Figure 4 — SDH: total running time and speedup over the CPU algorithm",
    )
    .with_context(
        "uniform 3-D points, B = 1024, 4096-bucket histogram; privatized \
         kernels include the Figure-3 reduction stage",
    );

    let mut t = SeriesTable::new(
        "times",
        &[
            "N",
            "CPU",
            "Register-SHM",
            "Naive-Out",
            "Reg-SHM-Out",
            "Reg-ROC-Out",
        ],
    );
    for r in &rows {
        t.row(vec![
            Cell::int(r.n as u64),
            Cell::secs(r.cpu),
            Cell::secs(r.register_shm),
            Cell::secs(r.naive_out),
            Cell::secs(r.reg_shm_out),
            Cell::secs(r.reg_roc_out),
        ]);
    }
    rep.push_table(t);

    let mut s = SeriesTable::new(
        "speedups_over_cpu",
        &[
            "N",
            "Register-SHM",
            "Naive-Out",
            "Reg-SHM-Out",
            "Reg-ROC-Out",
        ],
    );
    for r in &rows {
        s.row(vec![
            Cell::int(r.n as u64),
            Cell::x(r.cpu / r.register_shm),
            Cell::x(r.cpu / r.naive_out),
            Cell::x(r.cpu / r.reg_shm_out),
            Cell::x(r.cpu / r.reg_roc_out),
        ]);
    }
    rep.push_table(s);

    let last = rows.last().ok_or_else(|| ReportError::EmptySeries {
        what: "fig4 sweep".to_string(),
    })?;
    rep.metric(
        "privatization_gain.at_max_n",
        last.register_shm / last.reg_roc_out,
        "x",
    )?;
    rep.metric(
        "best_gpu_over_cpu.at_max_n",
        last.cpu / last.reg_roc_out,
        "x",
    )?;
    rep.metric(
        "register_shm_over_cpu.at_max_n",
        last.cpu / last.register_shm,
        "x",
    )?;
    rep.push_note(&format!(
        "at N = {}: Reg-ROC-Out is {} as fast as Register-SHM (paper: ~11x)\n\
         best-GPU over CPU: {} (paper: ~50x); Register-SHM over CPU: {} (paper: ~3.5x)",
        last.n,
        fmt_x(last.register_shm / last.reg_roc_out),
        fmt_x(last.cpu / last.reg_roc_out),
        fmt_x(last.cpu / last.register_shm),
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
        let cpu = CpuModel::xeon_e5_2640_v2();
        let sizes = paper_sweep(5, 1024);
        let rows = series(&sizes, &cfg, &cpu);
        for r in rows.iter().filter(|r| r.n >= 400_000) {
            // Privatization ~order of magnitude (paper 11×; accept 5–20×).
            let priv_gain = r.register_shm / r.reg_roc_out;
            assert!(
                (5.0..20.0).contains(&priv_gain),
                "priv gain {priv_gain} at N={}",
                r.n
            );
            // Reg-ROC-Out is the best kernel.
            assert!(
                r.reg_roc_out <= r.reg_shm_out * 1.001,
                "ROC-out best at N={}",
                r.n
            );
            assert!(
                r.reg_roc_out < r.naive_out,
                "ROC-out beats naive-out at N={}",
                r.n
            );
            // Best GPU ≈ 50× CPU (accept 25–100×).
            let best = r.cpu / r.reg_roc_out;
            assert!(
                (25.0..100.0).contains(&best),
                "best-vs-CPU {best} at N={}",
                r.n
            );
            // Every GPU kernel beats the CPU.
            assert!(
                r.cpu / r.register_shm > 1.5,
                "even global-atomic SDH beats CPU"
            );
        }
    }

    #[test]
    fn report_renders() {
        let cfg = DeviceConfig::titan_x();
        let cpu = CpuModel::xeon_e5_2640_v2();
        let rep = build_report(&[409_600], &cfg, &cpu)
            .expect("report")
            .render();
        assert!(rep.contains("Reg-ROC-Out"));
        assert!(rep.contains("paper"));
    }
}
