//! **Extension: architecture study** — how the winning technique shifts
//! across GPU generations (Fermi → Kepler → Maxwell).
//!
//! The paper (§III-A) notes that each architecture generation adds
//! features (Kepler's shuffle, Maxwell's larger shared memory) and its
//! §V future work asks for models that adapt to "more environmental and
//! kernel features". This study runs the same 2-PCF workload through the
//! analytical model on all three device presets and reports each
//! kernel's speedup over Naive — showing, e.g., that shuffle tiling only
//! exists from Kepler on and that slow Fermi atomics change the
//! privatization payoff.

use crate::paper_workload;
use crate::report::{Cell, Report, ReportError, SeriesTable};
use gpu_sim::DeviceConfig;
use tbs_core::analytic::{predicted_run, InputPath, KernelSpec, OutputPath};

/// Per-device kernel times for one N.
#[derive(Debug, Clone)]
pub struct DeviceRow {
    pub device: &'static str,
    /// (kernel name, seconds); shuffle omitted where unsupported.
    pub kernels: Vec<(&'static str, f64)>,
}

/// Evaluate the 2-PCF kernel family on every device preset.
pub fn series(n: u32) -> Vec<DeviceRow> {
    let wl = paper_workload(n);
    [
        DeviceConfig::fermi_gtx580(),
        DeviceConfig::kepler_k40(),
        DeviceConfig::titan_x(),
    ]
    .into_iter()
    .map(|cfg| {
        let mut kernels = Vec::new();
        for (name, input) in [
            ("naive", InputPath::Naive),
            ("shm-shm", InputPath::ShmShm),
            ("register-shm", InputPath::RegisterShm),
            ("register-roc", InputPath::RegisterRoc),
            ("shuffle", InputPath::Shuffle),
        ] {
            if input == InputPath::Shuffle && !cfg.has_shuffle {
                continue;
            }
            let run = predicted_run(
                &wl,
                &KernelSpec::new(input, OutputPath::RegisterCount),
                &cfg,
            );
            kernels.push((name, run.seconds()));
        }
        DeviceRow {
            device: cfg.name,
            kernels,
        }
    })
    .collect()
}

/// Build the structured architecture-study report.
pub fn build_report(n: u32) -> Result<Report, ReportError> {
    let rows = series(n);
    let mut rep = Report::new("ext_arch", "Extension — 2-PCF across GPU generations")
        .with_context(&format!("N = {n}"));

    let mut t = SeriesTable::new("devices", &["device", "kernel", "time", "speedup vs naive"]);
    let mut tiling_gain_min = f64::INFINITY;
    let mut best_times = Vec::new();
    for r in &rows {
        let find = |k: &str| -> Result<f64, ReportError> {
            r.kernels
                .iter()
                .find(|(name, _)| *name == k)
                .map(|&(_, s)| s)
                .ok_or_else(|| ReportError::EmptySeries {
                    what: format!("ext_arch kernel `{k}` on {}", r.device),
                })
        };
        let naive = find("naive")?;
        for (k, secs) in &r.kernels {
            t.row(vec![
                Cell::text(r.device),
                Cell::text(*k),
                Cell::secs(*secs),
                Cell::x(naive / secs),
            ]);
        }
        tiling_gain_min = tiling_gain_min.min(naive / find("register-shm")?);
        best_times.push(
            r.kernels
                .iter()
                .map(|&(_, s)| s)
                .fold(f64::INFINITY, f64::min),
        );
    }
    rep.push_table(t);

    rep.metric("tiling_gain.min_across_devices", tiling_gain_min, "x")?;
    if best_times.len() == 3 {
        // Index order follows `series`: Fermi, Kepler, Maxwell.
        rep.metric(
            "best_time_ratio.fermi_over_kepler",
            best_times[0] / best_times[1],
            "ratio",
        )?;
        rep.metric(
            "best_time_ratio.kepler_over_maxwell",
            best_times[1] / best_times[2],
            "ratio",
        )?;
    }
    rep.push_note(
        "notes: shuffle tiling requires Kepler+; newer generations widen the\n\
         tiled-vs-naive gap as arithmetic throughput outgrows memory latency.",
    );
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fermi_has_no_shuffle_kernel() {
        let rows = series(256 * 1024);
        assert!(rows[0].device.contains("Fermi"));
        assert!(rows[0].kernels.iter().all(|(k, _)| *k != "shuffle"));
        assert!(rows[1].kernels.iter().any(|(k, _)| *k == "shuffle"));
        assert!(rows[2].kernels.iter().any(|(k, _)| *k == "shuffle"));
    }

    #[test]
    fn tiling_wins_on_every_generation() {
        for r in series(256 * 1024) {
            let naive = r.kernels.iter().find(|(k, _)| *k == "naive").unwrap().1;
            let reg = r
                .kernels
                .iter()
                .find(|(k, _)| *k == "register-shm")
                .unwrap()
                .1;
            assert!(
                naive / reg > 1.5,
                "{}: tiling must win ({})",
                r.device,
                naive / reg
            );
        }
    }

    #[test]
    fn newer_devices_are_absolutely_faster() {
        let rows = series(512 * 1024);
        let best = |r: &DeviceRow| {
            r.kernels
                .iter()
                .map(|&(_, s)| s)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(best(&rows[2]) < best(&rows[1]), "Maxwell beats Kepler");
        assert!(best(&rows[1]) < best(&rows[0]), "Kepler beats Fermi");
    }

    #[test]
    fn report_renders() {
        let rep = build_report(128 * 1024).expect("report").render();
        assert!(rep.contains("Fermi") && rep.contains("Kepler") && rep.contains("Maxwell"));
    }
}
