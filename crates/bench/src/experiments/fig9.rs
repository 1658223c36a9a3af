//! **Figure 9** — "Performance of different GPU-based algorithm for
//! computing SDH: total running time and speedup over CPU algorithm"
//! (the shuffle-tiling study, §IV-E2).
//!
//! Compares register tiling via warp shuffle against tiling via shared
//! memory (Reg-SHM-Out) and the read-only cache (Reg-ROC-Out), all with
//! privatized output, plus the CPU baseline. The paper's conclusion:
//! "tiling with shuffle instruction has almost the same performance as
//! tiling with read-only cache and tiling with shared memory" — an
//! alternative when both caches are busy elsewhere.

use crate::experiments::fig4::SDH_BUCKETS;
use crate::paper_workload;
use crate::report::{Cell, Report, ReportError, SeriesTable};
use gpu_sim::DeviceConfig;
use tbs_core::analytic::{
    predicted_reduction_run, predicted_run, InputPath, KernelSpec, OutputPath,
};
use tbs_cpu::CpuModel;

/// One N sample.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub n: u32,
    pub cpu: f64,
    pub reg_shm_out: f64,
    pub reg_roc_out: f64,
    pub shuffle_out: f64,
}

/// Predict the Figure-9 series.
pub fn series(sizes: &[u32], cfg: &DeviceConfig, cpu: &CpuModel) -> Vec<Row> {
    let out = OutputPath::SharedHistogram {
        buckets: SDH_BUCKETS,
    };
    sizes
        .iter()
        .map(|&n| {
            let wl = paper_workload(n);
            let reduction = predicted_reduction_run(SDH_BUCKETS, wl.m() as u32, cfg).seconds();
            let t =
                |input| predicted_run(&wl, &KernelSpec::new(input, out), cfg).seconds() + reduction;
            Row {
                n,
                cpu: cpu.seconds(n as u64),
                reg_shm_out: t(InputPath::RegisterShm),
                reg_roc_out: t(InputPath::RegisterRoc),
                shuffle_out: t(InputPath::Shuffle),
            }
        })
        .collect()
}

/// Build the structured Figure-9 report (tables + gate metrics).
pub fn build_report(
    sizes: &[u32],
    cfg: &DeviceConfig,
    cpu: &CpuModel,
) -> Result<Report, ReportError> {
    let rows = series(sizes, cfg, cpu);
    let mut rep = Report::new(
        "fig9",
        "Figure 9 — SDH with shuffle-instruction tiling vs cache tiling",
    )
    .with_context("privatized output; times include the reduction stage");

    let mut t = SeriesTable::new(
        "times",
        &["N", "CPU", "Reg-SHM-Out", "Reg-ROC-Out", "Shuffle"],
    );
    for r in &rows {
        t.row(vec![
            Cell::int(r.n as u64),
            Cell::secs(r.cpu),
            Cell::secs(r.reg_shm_out),
            Cell::secs(r.reg_roc_out),
            Cell::secs(r.shuffle_out),
        ]);
    }
    rep.push_table(t);

    let mut s = SeriesTable::new(
        "speedups_over_cpu",
        &["N", "Reg-SHM-Out", "Reg-ROC-Out", "Shuffle"],
    );
    for r in &rows {
        s.row(vec![
            Cell::int(r.n as u64),
            Cell::x(r.cpu / r.reg_shm_out),
            Cell::x(r.cpu / r.reg_roc_out),
            Cell::x(r.cpu / r.shuffle_out),
        ]);
    }
    rep.push_table(s);

    // Gate metrics over the saturated regime: shuffle stays within the
    // paper's "almost the same" band of the best cache-tiled kernel, and
    // still crushes the CPU.
    let saturated: Vec<&Row> = rows.iter().filter(|r| r.n >= 400_000).collect();
    if saturated.is_empty() {
        return Err(ReportError::EmptySeries {
            what: "fig9 N >= 400K rows".to_string(),
        });
    }
    let worst_ratio = saturated
        .iter()
        .map(|r| r.shuffle_out / r.reg_shm_out.min(r.reg_roc_out))
        .fold(f64::NEG_INFINITY, f64::max);
    let min_cpu_speedup = saturated
        .iter()
        .map(|r| r.cpu / r.shuffle_out)
        .fold(f64::INFINITY, f64::min);
    rep.metric("shuffle_over_best_cache.max", worst_ratio, "ratio")?;
    rep.metric("speedup_over_cpu.min", min_cpu_speedup, "x")?;

    rep.push_note(
        "paper: the shuffle kernel has almost the same performance as the\n\
         shared-memory and read-only-cache tiled kernels (speedups ~45-55x).",
    );
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tbs_datagen::paper_sweep;

    #[test]
    fn shuffle_is_competitive_with_cache_tiling() {
        let cfg = DeviceConfig::titan_x();
        let cpu = CpuModel::xeon_e5_2640_v2();
        let rows = series(&paper_sweep(5, 1024), &cfg, &cpu);
        for r in rows.iter().filter(|r| r.n >= 400_000) {
            let best_cache = r.reg_shm_out.min(r.reg_roc_out);
            let ratio = r.shuffle_out / best_cache;
            assert!(
                (0.6..1.6).contains(&ratio),
                "shuffle must be within ~±50% of cache tiling, got {ratio} at N={}",
                r.n
            );
            assert!(
                r.cpu / r.shuffle_out > 15.0,
                "shuffle still crushes the CPU"
            );
        }
    }

    #[test]
    fn report_renders() {
        let rep = build_report(
            &[409_600],
            &DeviceConfig::titan_x(),
            &CpuModel::xeon_e5_2640_v2(),
        )
        .expect("report")
        .render();
        assert!(rep.contains("Shuffle"));
    }
}
