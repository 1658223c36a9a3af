//! **Extension: data-skew study** — atomic contention under clustered
//! inputs.
//!
//! The paper evaluates on uniform data only; its Figure-5 discussion
//! observes that contention appears when many threads compete for few
//! output elements. Clustered (Gaussian-mixture) inputs produce exactly
//! that: most pairwise distances collapse into a few histogram buckets.
//! This *functional* study measures real same-address serialization on
//! the simulator for uniform vs clustered data.
//!
//! It also pins two deterministic invariants of the compiled histogram
//! sink on the most contended dataset: every half-pair bins exactly
//! once, and the sink's closed-form scatter accounting reproduces the
//! serialization the op-by-op route's simulated atomics measure.

use crate::report::{Cell, Report, ReportError, SeriesTable};
use gpu_sim::{AccessTally, Device, DeviceConfig};
use tbs_core::histogram::HistogramSpec;
use tbs_core::kernels::{pair_launch, IntraMode, PairScope, RegisterShmKernel};
use tbs_core::output::SharedHistogramAction;
use tbs_core::{Euclidean, SoaPoints};

/// Measured contention for one dataset.
#[derive(Debug, Clone)]
pub struct Row {
    pub label: String,
    /// Average same-address serialization degree per shared atomic.
    pub contention: f64,
    /// Simulated kernel seconds.
    pub seconds: f64,
    /// Fraction of all counts landing in the busiest bucket.
    pub peak_bucket_share: f64,
    /// Pairs binned, summed over every bucket and private copy.
    pub binned: u64,
    /// Compiled passes the interpreter took.
    pub compiled_ops: u64,
    /// Full instrumentation snapshot of the run (embedded in the JSON
    /// report so contention regressions can be diffed at counter level).
    pub tally: AccessTally,
}

/// Run the functional SDH kernel on one dataset and measure contention.
/// A faulting launch is reported and yields `None` so dataset sweeps can
/// skip the bad configuration and continue.
pub fn measure(pts: &SoaPoints<3>, label: &str, buckets: u32, block: u32) -> Option<Row> {
    measure_on(DeviceConfig::titan_x(), pts, label, buckets, block)
}

/// [`measure`] on an explicit device configuration (interpreter route).
fn measure_on(
    cfg: DeviceConfig,
    pts: &SoaPoints<3>,
    label: &str,
    buckets: u32,
    block: u32,
) -> Option<Row> {
    let mut dev = Device::new(cfg);
    let input = pts.upload(&mut dev);
    let lc = pair_launch(input.n, block);
    let spec = HistogramSpec::new(
        buckets,
        tbs_datagen::box_diagonal(tbs_datagen::DEFAULT_BOX, 3),
    );
    let private = dev.alloc_u32_zeroed((lc.grid_dim * buckets) as usize);
    let k = RegisterShmKernel::new(
        input,
        Euclidean,
        SharedHistogramAction { spec, private },
        block,
        PairScope::HalfPairs,
        IntraMode::Regular,
    );
    let run = match dev.try_launch(&k, lc) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("ext_skew: skipping dataset '{label}': {e}");
            return None;
        }
    };
    let counts = dev.u32_slice(private);
    let mut per_bucket = vec![0u64; buckets as usize];
    for (i, &c) in counts.iter().enumerate() {
        per_bucket[i % buckets as usize] += c as u64;
    }
    let total: u64 = per_bucket.iter().sum();
    let peak = per_bucket.iter().copied().max().unwrap_or(0);
    Some(Row {
        label: label.to_string(),
        contention: run.tally.shared_atomic_contention(),
        seconds: run.timing.seconds,
        peak_bucket_share: peak as f64 / total.max(1) as f64,
        binned: total,
        compiled_ops: run.interp.compiled_ops,
        tally: run.tally,
    })
}

/// Uniform data, then increasingly tight clusters (the last dataset is
/// the most contended).
fn datasets(n: usize) -> Vec<(String, SoaPoints<3>)> {
    let mut sets = vec![(
        "uniform".to_string(),
        tbs_datagen::uniform_points::<3>(n, tbs_datagen::DEFAULT_BOX, 7),
    )];
    for (clusters, spread) in [(8usize, 5.0f32), (4, 2.0), (1, 1.0)] {
        sets.push((
            format!("clustered k={clusters} sigma={spread}"),
            tbs_datagen::clustered_points::<3>(n, tbs_datagen::DEFAULT_BOX, clusters, spread, 7),
        ));
    }
    sets
}

/// Compare uniform vs increasingly-tight clustered data. Faulting
/// datasets are skipped (see [`measure`]).
pub fn series(n: usize, buckets: u32, block: u32) -> Vec<Row> {
    datasets(n)
        .iter()
        .filter_map(|(label, pts)| measure(pts, label, buckets, block))
        .collect()
}

/// Build the structured skew-study report.
pub fn build_report(n: usize, buckets: u32, block: u32) -> Result<Report, ReportError> {
    let rows = series(n, buckets, block);
    let mut rep = Report::new(
        "ext_skew",
        "Extension — SDH atomic contention under data skew",
    )
    .with_context(&format!(
        "functional simulation, N = {n}, {buckets} buckets, B = {block}"
    ));
    let mut t = SeriesTable::new(
        "datasets",
        &["dataset", "contention", "peak-bucket share", "sim time"],
    );
    for r in &rows {
        t.row(vec![
            Cell::text(r.label.as_str()),
            Cell::num(r.contention, format!("{:.2}x", r.contention)),
            Cell::num(
                r.peak_bucket_share,
                format!("{:.0}%", r.peak_bucket_share * 100.0),
            ),
            Cell::secs(r.seconds),
        ]);
    }
    rep.push_table(t);

    let uniform =
        rows.iter()
            .find(|r| r.label == "uniform")
            .ok_or_else(|| ReportError::EmptySeries {
                what: "ext_skew uniform dataset".to_string(),
            })?;
    let tightest = rows.last().ok_or_else(|| ReportError::EmptySeries {
        what: "ext_skew clustered datasets".to_string(),
    })?;
    rep.metric("uniform_contention", uniform.contention, "x")?;
    rep.metric(
        "contention_ratio.tightest_over_uniform",
        tightest.contention / uniform.contention,
        "ratio",
    )?;

    // The compiled sink's invariants, on the most contended dataset,
    // against the op-by-op route.
    let (label, pts) = datasets(n).pop().expect("datasets are non-empty");
    let run = |cfg| {
        measure_on(cfg, &pts, &label, buckets, block).ok_or_else(|| ReportError::EmptySeries {
            what: format!("ext_skew {label} run"),
        })
    };
    let compiled = run(DeviceConfig::titan_x())?;
    let op = run(DeviceConfig::titan_x().with_compiled(false))?;
    assert!(
        compiled.compiled_ops > 0 && op.compiled_ops == 0,
        "ext_skew: the default run must compile and the op-by-op run must not"
    );
    assert_eq!(
        compiled.tally, op.tally,
        "ext_skew: compiled and op-by-op tallies diverged"
    );
    let pairs = (n as u64 * (n as u64 - 1) / 2) as f64;
    rep.metric(
        "hist_total_over_pairs",
        compiled.binned as f64 / pairs,
        "ratio",
    )?;
    rep.metric(
        "scatter_contention_parity",
        compiled.contention / op.contention,
        "ratio",
    )?;
    // The tightest cluster is the interesting instrumentation snapshot:
    // it is the run whose serialization the gate pins.
    rep.tally = Some(tightest.tally.clone());
    rep.push_note(
        "skewed inputs concentrate distances into few buckets, raising the\n\
         same-address serialization of the privatized output's shared atomics —\n\
         the contention regime the paper only reaches via tiny histograms.",
    );
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustering_raises_contention_and_time() {
        let rows = series(1024, 256, 64);
        let uniform = &rows[0];
        let tightest = rows.last().unwrap();
        assert!(
            tightest.contention > uniform.contention * 1.5,
            "contention {:.2} vs uniform {:.2}",
            tightest.contention,
            uniform.contention
        );
        assert!(tightest.peak_bucket_share > uniform.peak_bucket_share);
        assert!(tightest.seconds > uniform.seconds);
    }

    #[test]
    fn compiled_sink_invariants_hold_at_ci_size() {
        let rep = build_report(512, 64, 64).expect("report");
        let get = |id: &str| {
            rep.metrics
                .iter()
                .find(|m| m.id == id)
                .unwrap_or_else(|| panic!("missing metric {id}"))
                .value
        };
        assert_eq!(get("hist_total_over_pairs"), 1.0);
        assert_eq!(get("scatter_contention_parity"), 1.0);
    }

    #[test]
    fn uniform_contention_is_mild() {
        let rows = series(512, 256, 64);
        assert!(rows[0].contention < 2.5, "{}", rows[0].contention);
    }
}
