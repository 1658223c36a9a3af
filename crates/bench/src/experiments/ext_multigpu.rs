//! **Extension: multi-GPU decomposition** — the paper's §V future work
//! ("extended to a multi-GPU environment ... to handle very large
//! input/output data").
//!
//! Functional study: the SDH pair triangle is chunked into self- and
//! cross-join tasks, LPT-scheduled across simulated devices
//! (`tbs_apps::multi_gpu`). Run on a deliberately small device profile
//! (4 SMs) so the functional workload sizes this host can execute still
//! *saturate* each device — on a full Titan X the same N would be
//! grid-limited and splitting would not help, which the negative-control
//! unit test documents.

use crate::report::{Cell, Report, ReportError, SeriesTable};
use gpu_sim::DeviceConfig;
use tbs_apps::multi_gpu::sdh_multi_gpu;
use tbs_apps::PairwisePlan;
use tbs_core::HistogramSpec;
use tbs_datagen::{box_diagonal, uniform_points, DEFAULT_BOX};

/// The scaled-down device used for the functional scaling study.
pub fn study_device() -> DeviceConfig {
    DeviceConfig {
        num_sms: 4,
        max_blocks_per_sm: 4,
        ..DeviceConfig::titan_x()
    }
}

/// One device-count sample.
#[derive(Debug, Clone)]
pub struct Row {
    pub devices: usize,
    pub makespan: f64,
    pub speedup: f64,
    pub efficiency: f64,
    pub tasks: usize,
}

/// Sweep device counts for an N-point SDH. A device count whose
/// simulation faults is reported and skipped; the rest of the sweep runs.
pub fn series(n: usize, block: u32, device_counts: &[usize]) -> Vec<Row> {
    let pts = uniform_points::<3>(n, DEFAULT_BOX, 3);
    let spec = HistogramSpec::new(256, box_diagonal(DEFAULT_BOX, 3));
    let cfg = study_device();
    let plan = PairwisePlan::register_shm(block);
    let baseline = match sdh_multi_gpu(&pts, spec, plan, 1, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ext_multigpu: single-device baseline faulted: {e}");
            return Vec::new();
        }
    };
    let base = baseline.makespan();
    device_counts
        .iter()
        .filter_map(|&g| {
            let r = match sdh_multi_gpu(&pts, spec, plan, g, &cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("ext_multigpu: skipping G = {g}: {e}");
                    return None;
                }
            };
            assert_eq!(
                r.histogram, baseline.histogram,
                "decomposition must preserve the histogram"
            );
            Some(Row {
                devices: g,
                makespan: r.makespan(),
                speedup: base / r.makespan(),
                efficiency: r.efficiency(),
                tasks: r.schedule.len(),
            })
        })
        .collect()
}

/// Build the structured functional multi-GPU report.
pub fn build_report(n: usize, block: u32) -> Result<Report, ReportError> {
    let rows = series(n, block, &[1, 2, 3, 4]);
    let mut rep = Report::new("ext_multigpu", "Extension — multi-GPU SDH decomposition")
        .with_context(&format!(
            "functional, N = {n}, B = {block}, scaled 4-SM device so the workload \
             saturates each GPU"
        ));
    let mut t = SeriesTable::new(
        "scaling",
        &["devices", "tasks", "makespan", "speedup", "efficiency"],
    );
    for r in &rows {
        t.row(vec![
            Cell::int(r.devices as u64),
            Cell::int(r.tasks as u64),
            Cell::secs(r.makespan),
            Cell::num(r.speedup, format!("{:.2}x", r.speedup)),
            Cell::pct(r.efficiency),
        ]);
    }
    rep.push_table(t);

    let at = |g: usize| -> Result<&Row, ReportError> {
        rows.iter()
            .find(|r| r.devices == g)
            .ok_or_else(|| ReportError::EmptySeries {
                what: format!("ext_multigpu G = {g} row"),
            })
    };
    rep.metric("speedup.2dev", at(2)?.speedup, "x")?;
    rep.metric(
        "speedup.4dev_over_2dev",
        at(4)?.speedup / at(2)?.speedup,
        "ratio",
    )?;
    rep.push_note(
        "the chunked self/cross task graph scales to multiple devices with\n\
         O(G·H) inter-device traffic; LPT scheduling keeps the devices balanced.",
    );
    Ok(rep)
}

// ====================================================================
// paper-scale prediction (closed forms; N = 2M is far beyond functional
// execution but trivial for the validated analytic profiles)
// ====================================================================

/// Predicted makespan of the chunked decomposition at paper scale on the
/// full Titan X, using the validated closed-form profiles for self
/// (Register-SHM) and cross (CrossShm) tasks plus per-task reductions.
pub fn predicted_makespan(
    n: u32,
    b: u32,
    buckets: u32,
    devices: usize,
    cfg: &DeviceConfig,
) -> (f64, f64) {
    use tbs_apps::multi_gpu::{build_tasks, chunk_ranges, lpt_schedule, SdhTask};
    use tbs_core::analytic::{
        predicted_cross_run, predicted_reduction_run, predicted_run, InputPath, KernelSpec,
        OutputPath, Workload,
    };
    let g = devices.max(1);
    let sizes: Vec<usize> = chunk_ranges(n as usize, g)
        .iter()
        .map(|r| r.len())
        .collect();
    let out = OutputPath::SharedHistogram { buckets };
    let assignment = lpt_schedule(&build_tasks(&sizes), &sizes, g);
    let task_secs = |t: &SdhTask| -> f64 {
        match *t {
            SdhTask::SelfJoin { chunk } => {
                let c = sizes[chunk] as u32;
                let wl = Workload {
                    n: c,
                    b,
                    dims: 3,
                    dist_cost: 7,
                };
                predicted_run(&wl, &KernelSpec::new(InputPath::RegisterShm, out), cfg).seconds()
                    + predicted_reduction_run(buckets, wl.m() as u32, cfg).seconds()
            }
            SdhTask::CrossJoin { left, right } => {
                let (a, c) = (sizes[left] as u32, sizes[right] as u32);
                predicted_cross_run(a, c, b, 3, 7, out, cfg).seconds()
                    + predicted_reduction_run(buckets, a.div_ceil(b), cfg).seconds()
            }
        }
    };
    let loads: Vec<f64> = assignment
        .iter()
        .map(|ts| ts.iter().map(task_secs).sum())
        .collect();
    let makespan = loads.iter().cloned().fold(0.0, f64::max);
    let eff = loads.iter().sum::<f64>() / (g as f64 * makespan.max(1e-30));
    (makespan, eff)
}

/// Build the paper-scale predicted-scaling report.
pub fn build_predicted_report(n: u32, cfg: &DeviceConfig) -> Result<Report, ReportError> {
    let mut rep = Report::new(
        "ext_multigpu_predicted",
        "Predicted multi-GPU scaling at paper scale",
    )
    .with_context(&format!(
        "N = {n}, B = 1024, 4096-bucket SDH on full Titan X devices; closed-form profiles"
    ));
    let (base, _) = predicted_makespan(n, 1024, 4096, 1, cfg);
    let mut t = SeriesTable::new("scaling", &["devices", "makespan", "speedup", "efficiency"]);
    let mut speedup4 = None;
    for g in [1usize, 2, 4, 8] {
        let (m, e) = predicted_makespan(n, 1024, 4096, g, cfg);
        t.row(vec![
            Cell::int(g as u64),
            Cell::secs(m),
            Cell::num(base / m, format!("{:.2}x", base / m)),
            Cell::pct(e),
        ]);
        if g == 4 {
            speedup4 = Some(base / m);
        }
    }
    rep.push_table(t);
    rep.metric(
        "speedup.4dev",
        speedup4.ok_or_else(|| ReportError::EmptySeries {
            what: "ext_multigpu_predicted G = 4 row".to_string(),
        })?,
        "x",
    )?;
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_prediction_scales_well() {
        let cfg = DeviceConfig::titan_x();
        let (m1, _) = predicted_makespan(2_000_896, 1024, 4096, 1, &cfg);
        let (m4, e4) = predicted_makespan(2_000_896, 1024, 4096, 4, &cfg);
        let speedup = m1 / m4;
        assert!(
            (3.0..4.2).contains(&speedup),
            "4-device speedup {speedup:.2}"
        );
        assert!(e4 > 0.8, "efficiency {e4:.2}");
    }

    #[test]
    fn scaling_improves_with_devices() {
        let rows = series(2048, 64, &[1, 2, 4]);
        assert!((rows[0].speedup - 1.0).abs() < 1e-9);
        assert!(rows[1].speedup > 1.4, "2 devices: {:.2}", rows[1].speedup);
        assert!(rows[2].speedup > rows[1].speedup, "4 devices must beat 2");
        for r in &rows {
            assert!(
                r.efficiency > 0.4,
                "efficiency {:.2} at G={}",
                r.efficiency,
                r.devices
            );
        }
    }
}
