//! The perf-regression gate: tolerance-banded baselines for every
//! experiment metric, checked by CI on each PR.
//!
//! ## How it fits together
//!
//! * Each experiment's `build_report` emits named [`Metric`]s (speedup
//!   geomeans, utilizations, contention ratios, host throughput).
//! * [`gate_groups`] declares, **in code**, which metrics are gated and
//!   with what [`Band`] — relative tolerance around the blessed value,
//!   hard floors for paper-shape invariants ("Register-SHM beats Naive
//!   by ≥ 4× at saturated N"), hard ceilings for "must not exceed"
//!   claims ("SHM-SHM ≤ Register-SHM").
//! * `perf_gate --bless` measures the canonical reduced-size sweep and
//!   writes `results/baseline/{model,functional,host}.json`, each check
//!   carrying its blessed value and the *resolved* `[min, max]` band.
//! * `perf_gate` (CI) re-measures and [`evaluate`]s: any metric outside
//!   its band — or missing entirely — is a violation; the delta table
//!   names it and the process exits non-zero.
//!
//! ## Why three baseline files
//!
//! The groups differ in determinism, which dictates their tolerances:
//!
//! * **model** — closed-form analytic profiles through the timing
//!   model: pure f64 arithmetic, bit-reproducible everywhere. Bands are
//!   tight (±10–20 %) and exist only to absorb deliberate model
//!   retunes; any drift is a real change to predicted performance.
//! * **functional** — seeded simulator runs: deterministic, but small
//!   (CI-sized) workloads, so bands guard shape invariants rather than
//!   exact times.
//! * **host** — wall-clock throughput of the interpreter itself (the
//!   PR-2 fast paths). Machine-dependent, so only generous floors: they
//!   catch a 2× interpreter regression, not a 5 % one.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use super::{arr_field, str_field, Metric, Report, ReportError, SCHEMA_VERSION};
use crate::experiments::*;
use crate::table::Table;
use gpu_sim::DeviceConfig;
use tbs_cpu::CpuModel;
use tbs_datagen::paper_sweep;
use tbs_json::Json;

/// Document-type tag for baseline files.
pub const BASELINE_KIND: &str = "tbs-bench/baseline";

// ---------------------------------------------------------------------
// bands & specs
// ---------------------------------------------------------------------

/// Tolerance policy for one gated metric. The *resolved* band is the
/// intersection of the relative window around the blessed value and the
/// hard limits, so an invariant floor can never be relaxed by blessing
/// a lucky measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Relative tolerance around the blessed value (0.15 = ±15 %).
    pub rel: Option<f64>,
    /// Hard floor (paper-shape invariant).
    pub hard_min: Option<f64>,
    /// Hard ceiling.
    pub hard_max: Option<f64>,
}

impl Band {
    pub const fn rel(rel: f64) -> Band {
        Band {
            rel: Some(rel),
            hard_min: None,
            hard_max: None,
        }
    }

    pub const fn min(hard_min: f64) -> Band {
        Band {
            rel: None,
            hard_min: Some(hard_min),
            hard_max: None,
        }
    }

    pub const fn max(hard_max: f64) -> Band {
        Band {
            rel: None,
            hard_min: None,
            hard_max: Some(hard_max),
        }
    }

    pub const fn range(hard_min: f64, hard_max: f64) -> Band {
        Band {
            rel: None,
            hard_min: Some(hard_min),
            hard_max: Some(hard_max),
        }
    }

    /// Relative window plus a hard floor.
    pub const fn rel_min(rel: f64, hard_min: f64) -> Band {
        Band {
            rel: Some(rel),
            hard_min: Some(hard_min),
            hard_max: None,
        }
    }

    /// Resolve to concrete `[min, max]` limits around a blessed value.
    pub fn resolve(&self, value: f64) -> (Option<f64>, Option<f64>) {
        let (mut lo, mut hi) = (self.hard_min, self.hard_max);
        if let Some(rel) = self.rel {
            let rlo = value - value.abs() * rel;
            let rhi = value + value.abs() * rel;
            lo = Some(lo.map_or(rlo, |h| h.max(rlo)));
            hi = Some(hi.map_or(rhi, |h| h.min(rhi)));
        }
        (lo, hi)
    }
}

/// One gated metric: its fully-qualified id (`<report>.<metric>`) and
/// tolerance policy.
#[derive(Debug, Clone, Copy)]
pub struct GateSpec {
    pub metric: &'static str,
    pub band: Band,
}

const fn spec(metric: &'static str, band: Band) -> GateSpec {
    GateSpec { metric, band }
}

/// Which measurement pipeline produces a group's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKind {
    /// Closed-form analytic model — bit-reproducible.
    Model,
    /// Seeded functional simulation — deterministic, CI-sized.
    Functional,
    /// Wall-clock host throughput — machine-dependent floors only.
    Host,
}

/// A baseline file's worth of gated metrics.
#[derive(Debug, Clone, Copy)]
pub struct GateGroup {
    pub name: &'static str,
    pub kind: GroupKind,
    pub specs: &'static [GateSpec],
}

/// Every gated metric, grouped by baseline file. This table — not the
/// baseline JSON — is the source of truth for *which* metrics are
/// gated and their hard invariants; the JSON records blessed values and
/// resolved bands.
pub fn gate_groups() -> &'static [GateGroup] {
    const MODEL: &[GateSpec] = &[
        // Figure 2 — 2-PCF speedups over Naive at saturated N.
        spec("fig2.speedup.shm_shm.geomean_saturated", Band::rel(0.15)),
        spec(
            "fig2.speedup.register_shm.geomean_saturated",
            Band::rel_min(0.15, 4.0),
        ),
        spec(
            "fig2.speedup.register_roc.geomean_saturated",
            Band::rel(0.15),
        ),
        // Paper-shape invariant: Register-SHM ≥ 4× Naive at every
        // saturated size, not just on average.
        spec(
            "fig2.invariant.register_shm_min_saturated",
            Band::rel_min(0.15, 4.0),
        ),
        // Paper-shape invariant: SHM-SHM never beats Register-SHM.
        spec("fig2.invariant.shm_over_register_shm_max", Band::max(1.01)),
        // Figure 4 — SDH privatization.
        spec("fig4.privatization_gain.at_max_n", Band::rel_min(0.2, 5.0)),
        spec("fig4.best_gpu_over_cpu.at_max_n", Band::rel_min(0.2, 25.0)),
        spec(
            "fig4.register_shm_over_cpu.at_max_n",
            Band::rel_min(0.2, 1.5),
        ),
        // Figure 5 — occupancy steps & contention at tiny outputs.
        spec("fig5.occupancy_plateaus", Band::min(3.0)),
        spec(
            "fig5.time_ratio.buckets5000_over_1000",
            Band::rel_min(0.2, 1.0),
        ),
        spec("fig5.time_ratio.buckets16_over_1000", Band::min(1.0)),
        // Figure 7 — load-balanced intra loop, the paper's 12–13 % win.
        spec("fig7.lb_speedup.geomean", Band::range(1.03, 1.25)),
        // Figure 9 — shuffle tiling competitive with cache tiling.
        spec("fig9.shuffle_over_best_cache.max", Band::max(1.6)),
        spec("fig9.speedup_over_cpu.min", Band::rel_min(0.2, 15.0)),
        // Tables II–IV — profiler-shape claims.
        spec("table2.naive.arithmetic_utilization", Band::max(0.35)),
        spec(
            "table2.reg_shm.arithmetic_utilization",
            Band::rel_min(0.15, 0.4),
        ),
        spec("table2.naive.memory_is_l2", Band::min(1.0)),
        spec(
            "table3.reg_shm_out.shared_gbps",
            Band::rel_min(0.25, 1500.0),
        ),
        spec("table4.reg_shm_out.shared_is_bottleneck", Band::min(1.0)),
        spec(
            "table4.reg_roc_out.roc_utilization",
            Band::rel_min(0.25, 0.2),
        ),
        // Extension studies (closed-form parts).
        spec(
            "ext_arch.tiling_gain.min_across_devices",
            Band::rel_min(0.2, 1.5),
        ),
        spec("ext_arch.best_time_ratio.fermi_over_kepler", Band::min(1.0)),
        spec(
            "ext_arch.best_time_ratio.kepler_over_maxwell",
            Band::min(1.0),
        ),
        spec("ext_blocksize.b1024_over_best", Band::max(1.1)),
        spec("ext_multigpu_predicted.speedup.4dev", Band::range(3.0, 4.2)),
    ];
    const FUNCTIONAL: &[GateSpec] = &[
        spec(
            "ext_skew.contention_ratio.tightest_over_uniform",
            Band::rel_min(0.25, 1.5),
        ),
        spec("ext_skew.uniform_contention", Band::max(2.5)),
        // Compiled histogram sink — shape invariants (deterministic, on
        // the most contended dataset): every half-pair bins exactly
        // once, and the closed-form scatter accounting reproduces the
        // op-by-op route's atomic serialization.
        spec("ext_skew.hist_total_over_pairs", Band::range(1.0, 1.0)),
        spec("ext_skew.scatter_contention_parity", Band::range(1.0, 1.0)),
        spec("ext_type3.serial_ratio.dense", Band::rel_min(0.25, 4.0)),
        spec("ext_type3.agg_speedup.dense", Band::min(1.0)),
        spec(
            "ext_multicopy.contention_ratio.copies1_over_4",
            Band::rel_min(0.25, 1.33),
        ),
        spec("ext_multigpu.speedup.2dev", Band::min(1.4)),
        spec("ext_multigpu.speedup.4dev_over_2dev", Band::min(1.0)),
        // Landy–Szalay pipeline over the gridded executor — exact
        // pair-mass conservation (a lost or doubled pair anywhere in
        // the spatial front end shifts these off 1.0), plus the
        // estimator's shape: the blob catalog must correlate strongly
        // at short range and the uniform control must not.
        spec("ext_ls.dd_mass_over_expected", Band::range(1.0, 1.0)),
        spec("ext_ls.dr_mass_over_expected", Band::range(1.0, 1.0)),
        spec("ext_ls.rr_mass_over_expected", Band::range(1.0, 1.0)),
        spec("ext_ls.xi_clustered_peak", Band::rel_min(0.5, 5.0)),
        spec("ext_ls.xi_uniform_tail_absmax", Band::max(0.5)),
        // Row culling in compiled histogram passes (deterministic row
        // counts): most rows of a gridded radial histogram put their
        // whole warp in the overflow bucket and must be culled (0.867
        // measured), or the grid route silently pays for them again.
        spec("gridpath_cull.culled_row_frac.n65536", Band::min(0.85)),
        // Launch packing, counted exactly on the same sweep: every
        // candidate cell pair maps onto one segmented launch per
        // (population class, 4096-block chunk). A planner or packer
        // change that adds launches or classes moves these.
        spec(
            "gridpath_cull.packed_launches.n65536",
            Band::range(2.0, 2.0),
        ),
        spec(
            "gridpath_cull.population_classes.n65536",
            Band::range(2.0, 2.0),
        ),
        // A mixed sink list (one count, one histogram) must compile like
        // a single action, intra triangles included: 0.875 while the
        // list's intra triangle ran op by op, 0.941 with it compiled.
        spec("sim_sinks.compiled_coverage.mixed.n16384", Band::min(0.9)),
        // Box culling on the hot path (deterministic row counts): the
        // Morton-ordered 2-PCF's count passes must skip most inter-tile
        // rows by the chunk test (0.814 measured), or dense counts pay
        // for every pair again.
        spec("sim_cull.culled_row_frac.n16384", Band::min(0.8)),
        // The Type-II contention charges of the compiled SDH at
        // N = 16384 (Figure 5's output privatization), pinned exactly:
        // the host's scatter accounting must reproduce them to the
        // count on every route and engine, so any change to how a warp
        // step's multiplicity or bank conflicts are counted fails here.
        spec(
            "sim_sdh_charges.shared_atomic_serial.n16384",
            Band::range(9_544_663.0, 9_544_663.0),
        ),
        spec(
            "sim_sdh_charges.shared_transactions.n16384",
            Band::range(29_649_332.0, 29_649_332.0),
        ),
        spec(
            "sim_sdh_charges.shared_bank_replays.n16384",
            Band::range(7_485_405.0, 7_485_405.0),
        ),
    ];
    const HOST: &[GateSpec] = &[
        // Wall-clock floors — deliberately ~2× under the slowest
        // observed CI-class machine, so they trip on an interpreter
        // regression, not on scheduler noise. `speedup` is the whole
        // interpreter stack (compiled route) over the scalar reference;
        // `vectorized_speedup` the op-by-op fast paths alone.
        spec("sim_hotpath.speedup.n16384", Band::min(20.0)),
        spec("sim_hotpath.vectorized_speedup.n16384", Band::min(1.3)),
        // Absolute throughput of the compiled route: a quarter of the
        // lowest of five gate runs on a 2-vCPU host (7.8e10), so a 100×
        // slowdown fails.
        spec("sim_hotpath.lane_ops_per_s.n16384", Band::min(1.9e10)),
        // The plan-compiled route must stay a genuine multiplier over
        // the op-by-op vectorized route on the Type-I hot path.
        spec("sim_hotpath.compiled_vs_vectorized.n16384", Band::min(6.0)),
        // On the Type-II (SDH) workload the compiled route lowers the
        // histogram sink itself — squared-edge bucketing rows feeding
        // the windowed scatter walk, whose contention charges are read
        // off a per-step counter array in vector code — plus the
        // Figure-3 reduction, so it must stay a genuine multiplier over
        // the op-by-op route too.
        spec(
            "sim_hotpath.compiled_vs_vectorized_sdh.n16384",
            Band::min(4.0),
        ),
        // Absolute cost of the compiled SDH on the default route:
        // wall-clock ns per distinct pair. The ceiling is about 2× the
        // slowest of six gate runs on a 2-vCPU host (1.01–1.27), so a
        // 2× host regression of the Type-II pass fails.
        spec(
            "sim_hotpath.compiled_ns_per_pair_sdh.n16384",
            Band::max(2.5),
        ),
        // The parallel block executor is the benched default; its win
        // over a sequential run of the compiled route is floored on the
        // SDH workload, a pass of a few tenths of a second (the 2-PCF
        // pass takes about 10 ms, too short for a stable ratio).
        spec(
            "sim_hotpath.parallel_vs_sequential_sdh.n16384",
            Band::min(1.3),
        ),
        // Most useful lane work must flow through compiled passes on
        // the fig2 workload (deterministic, not wall-clock, so the
        // floor can sit just under the 0.93 measured: with the output
        // stage lowered, any pass falling back to op-by-op shows up
        // here).
        spec("sim_hotpath.compiled_coverage.n16384", Band::min(0.9)),
        // Spatial front end — the headline sub-quadratic claim: the
        // grid route must beat the all-pairs route ≥10× in simulated
        // device time at N = 1048576, both measured directly. Simulated
        // time, not wall clock, because the host culls an all-pairs
        // count's out-of-range tile chunks while the device model
        // charges every pair; deterministic for the seeded catalog.
        spec("sim_gridpath.grid_vs_allpairs.n1048576", Band::min(10.0)),
        // Deterministic cull geometry (not wall-clock): the
        // min-distance cull must discard ≥90 % of the pair mass at
        // N = 262144 with the reference r_max.
        spec("sim_gridpath.pruned_pair_fraction.n262144", Band::min(0.9)),
        // Launch packing at scale (deterministic): one segmented launch
        // per population class unless the 4096-block chunk cap splits
        // one; past 10 per class the packer has lost its O(classes)
        // launch count.
        spec("sim_gridpath.launches_per_class.n262144", Band::max(10.0)),
        // The SpatialPlan analytic model's pick must match the
        // simulated winner at both gate sizes (1.0 = agrees;
        // deterministic — a mispriced per-launch floor shows up here,
        // the regression this band exists for).
        spec("sim_gridpath.model_agreement.n262144", Band::min(1.0)),
        spec("sim_gridpath.model_agreement.n1048576", Band::min(1.0)),
        // Query-service SLO bands (extension). Coalescing k = 12
        // same-dataset queries into one multi-consumer sweep must stay
        // a genuine multiplier over one-at-a-time serving (the PR's
        // ≥2× claim at the acceptance size, asserted bit-identical
        // in-run; gated at the reduced size like the hotpath bands).
        // Each coalescing leg takes the best of three alternating
        // sequential and batched rounds after the shard upload, so a
        // slow stretch of the host cannot land on one side only.
        spec("ext_serve.batched_vs_sequential.n16384", Band::min(2.0)),
        // The SDH-heavy mix must coalesce too: identical-spec histogram
        // sinks dedup at admission and the compiled multi-consumer
        // sweep serves what remains (~4–5× observed; floored at ≥2×).
        spec("ext_serve.batched_vs_sequential_sdh.n16384", Band::min(2.0)),
        // A burst of gridded count-withins must coalesce into one
        // packed multi-radius sweep over a shared covering catalog
        // instead of paying one sweep + covering-grid build per query
        // (floored at ≥2× like the other coalescing legs).
        spec(
            "ext_serve.batched_vs_sequential_gridded.n16384",
            Band::min(2.0),
        ),
        // Single-query round-trip ceiling at CI size (p99 over 40
        // probes, cold shard upload included). Wall-clock, so the
        // ceiling sits ~5× over the slowest observed CI-class run —
        // it trips on a dispatcher/cache regression, not on noise.
        spec("ext_serve.p99_latency_ms.n4096", Band::max(2_000.0)),
        // The shard-upload cache must replay most probes across the
        // throughput leg (deterministic: 0.975 with the 2-worker layout
        // over the upload query and three rounds); repeat queries must
        // never re-upload.
        spec("ext_serve.cache_hit_rate", Band::min(0.5)),
    ];
    const GROUPS: &[GateGroup] = &[
        GateGroup {
            name: "model",
            kind: GroupKind::Model,
            specs: MODEL,
        },
        GateGroup {
            name: "functional",
            kind: GroupKind::Functional,
            specs: FUNCTIONAL,
        },
        GateGroup {
            name: "host",
            kind: GroupKind::Host,
            specs: HOST,
        },
    ];
    GROUPS
}

// ---------------------------------------------------------------------
// canonical reduced-size sweeps
// ---------------------------------------------------------------------

/// The reduced sweep the gate runs (6 log-spaced sizes instead of the
/// full 10 — still reaching the saturated ≥ 400 K regime the paper's
/// claims are about).
pub fn gate_sweep() -> Vec<u32> {
    paper_sweep(6, 1024)
}

/// Build every model-group report (closed-form; milliseconds of work).
pub fn model_reports() -> Result<Vec<Report>, ReportError> {
    let cfg = DeviceConfig::titan_x();
    let cpu = CpuModel::xeon_e5_2640_v2();
    let sweep = gate_sweep();
    Ok(vec![
        fig2::build_report(&sweep, &cfg)?,
        fig4::build_report(&sweep, &cfg, &cpu)?,
        fig5::build_report(fig5::FIG5_N, &cfg)?,
        fig7::build_report(&cfg)?,
        fig9::build_report(&sweep, &cfg, &cpu)?,
        tables::build_table2_report(512 * 1024, &cfg)?,
        tables::build_table3_report(512 * 1024, &cfg)?,
        tables::build_table4_report(512 * 1024, &cfg)?,
        ext_arch::build_report(512 * 1024)?,
        ext_blocksize::build_report(512 * 1024, &cfg)?,
        ext_multigpu::build_predicted_report(2_000_896, &cfg)?,
    ])
}

/// Build every functional-group report at CI-sized workloads (a few
/// seconds of simulation, deterministic by seed).
pub fn functional_reports() -> Result<Vec<Report>, ReportError> {
    Ok(vec![
        ext_skew::build_report(1024, 256, 64)?,
        ext_type3::build_report(768, 64)?,
        ext_multicopy::build_report(1024, 128)?,
        ext_multigpu::build_report(2048, 64)?,
        ext_ls::build_report(768, 2048, 8)?,
        gridpath::build_cull_report(&[65_536])?,
        hotpath::build_sink_list_report(16_384)?,
        hotpath::build_cull_report(16_384)?,
        hotpath::build_sdh_charges_report(16_384)?,
    ])
}

/// Build the host-throughput reports at the gate's reduced sizes: the
/// interpreter hot path, the grid-vs-all-pairs sweep (each size also
/// cross-checked against the CPU grid oracle) and the query service.
pub fn host_reports() -> Result<Vec<Report>, ReportError> {
    Ok(vec![
        hotpath::build_report(&[16_384])?,
        gridpath::build_report(&[262_144, 1_048_576])?,
        ext_serve::build_report(&[16_384], &[16_384], 4_096)?,
    ])
}

/// Flatten reports into `"<report>.<metric>" → Metric`.
pub fn metric_map(reports: &[Report]) -> BTreeMap<String, Metric> {
    let mut map = BTreeMap::new();
    for r in reports {
        for m in &r.metrics {
            let prev = map.insert(format!("{}.{}", r.name, m.id), m.clone());
            assert!(prev.is_none(), "duplicate metric {}.{}", r.name, m.id);
        }
    }
    map
}

// ---------------------------------------------------------------------
// baselines
// ---------------------------------------------------------------------

/// One banded check inside a committed baseline file.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub metric: String,
    /// The blessed (committed) measurement.
    pub value: f64,
    pub unit: String,
    pub min: Option<f64>,
    pub max: Option<f64>,
}

/// A committed baseline document: the blessed checks for one group.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    pub name: String,
    pub checks: Vec<Check>,
}

impl Baseline {
    /// Bless a group from fresh measurements: every gated metric must
    /// be present and finite, and the blessed value must itself sit
    /// inside the resolved band (otherwise the code's hard invariants
    /// disagree with reality and committing would be meaningless).
    pub fn bless(
        group: &GateGroup,
        measured: &BTreeMap<String, Metric>,
    ) -> Result<Baseline, ReportError> {
        let mut checks = Vec::new();
        for s in group.specs {
            let m = measured.get(s.metric).ok_or_else(|| {
                ReportError::Schema(format!(
                    "cannot bless `{}`: metric `{}` was not produced by the gate sweep",
                    group.name, s.metric
                ))
            })?;
            let (min, max) = s.band.resolve(m.value);
            let ok = min.is_none_or_at_most(m.value) && max.is_none_or_at_least(m.value);
            if !ok {
                return Err(ReportError::Schema(format!(
                    "cannot bless `{}`: measured {} = {} violates its own hard band [{}, {}]",
                    group.name,
                    s.metric,
                    m.value,
                    fmt_opt(min),
                    fmt_opt(max),
                )));
            }
            checks.push(Check {
                metric: s.metric.to_string(),
                value: m.value,
                unit: m.unit.clone(),
                min,
                max,
            });
        }
        Ok(Baseline {
            name: group.name.to_string(),
            checks,
        })
    }

    pub fn to_json(&self) -> Result<Json, ReportError> {
        let mut checks = Vec::new();
        for c in &self.checks {
            let mut j = Json::obj()
                .with("metric", c.metric.as_str())
                .with("value", c.value)
                .with("unit", c.unit.as_str());
            if let Some(min) = c.min {
                j.push("min", min);
            }
            if let Some(max) = c.max {
                j.push("max", max);
            }
            checks.push(j);
        }
        let j = Json::obj()
            .with("schema", SCHEMA_VERSION)
            .with("kind", BASELINE_KIND)
            .with("name", self.name.as_str())
            .with("checks", Json::Arr(checks));
        j.render()?; // validate (non-finite bands etc.)
        Ok(j)
    }

    pub fn from_json(j: &Json) -> Result<Baseline, ReportError> {
        let schema = j
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or_else(|| ReportError::Schema("baseline missing `schema`".into()))?;
        if schema != SCHEMA_VERSION as u64 {
            return Err(ReportError::Schema(format!(
                "baseline schema {schema} != supported {SCHEMA_VERSION}"
            )));
        }
        let kind = str_field(j, "baseline", "kind")?;
        if kind != BASELINE_KIND {
            return Err(ReportError::Schema(format!(
                "kind `{kind}` is not `{BASELINE_KIND}`"
            )));
        }
        let mut checks = Vec::new();
        for c in arr_field(j, "baseline", "checks")? {
            let value = c
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| ReportError::Schema("check missing `value`".into()))?;
            let band = |key: &str| -> Result<Option<f64>, ReportError> {
                match c.get(key) {
                    None => Ok(None),
                    Some(v) => v
                        .as_f64()
                        .map(Some)
                        .ok_or_else(|| ReportError::Schema(format!("check `{key}` not a number"))),
                }
            };
            checks.push(Check {
                metric: str_field(c, "check", "metric")?,
                value,
                unit: str_field(c, "check", "unit")?,
                min: band("min")?,
                max: band("max")?,
            });
        }
        Ok(Baseline {
            name: str_field(j, "baseline", "name")?,
            checks,
        })
    }

    /// Load `<dir>/<name>.json`.
    pub fn load(dir: &Path, name: &str) -> Result<Baseline, ReportError> {
        let path = dir.join(format!("{name}.json"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| ReportError::Io(format!("{}: {e}", path.display())))?;
        Baseline::from_json(&Json::parse(&text)?)
    }

    /// Write `<dir>/<name>.json`.
    pub fn write(&self, dir: &Path) -> Result<PathBuf, ReportError> {
        std::fs::create_dir_all(dir).map_err(|e| ReportError::Io(format!("{dir:?}: {e}")))?;
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, self.to_json()?.render()?)
            .map_err(|e| ReportError::Io(format!("{}: {e}", path.display())))?;
        Ok(path)
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or("-inf/inf".to_string(), |v| format!("{v:.4}"))
}

/// `Option<f64>` band-limit helpers (None = unbounded).
trait BandLimit {
    fn is_none_or_at_most(&self, v: f64) -> bool;
    fn is_none_or_at_least(&self, v: f64) -> bool;
}

impl BandLimit for Option<f64> {
    /// True when this lower limit admits `v`.
    fn is_none_or_at_most(&self, v: f64) -> bool {
        self.is_none_or(|lo| lo <= v)
    }
    /// True when this upper limit admits `v`.
    fn is_none_or_at_least(&self, v: f64) -> bool {
        self.is_none_or(|hi| v <= hi)
    }
}

// ---------------------------------------------------------------------
// evaluation
// ---------------------------------------------------------------------

/// The outcome of checking one baseline metric against a fresh run.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub metric: String,
    pub unit: String,
    pub baseline: f64,
    /// `None` — the gate sweep no longer produces this metric at all.
    pub measured: Option<f64>,
    pub min: Option<f64>,
    pub max: Option<f64>,
    pub ok: bool,
}

/// Check every baseline metric against fresh measurements. A metric
/// that disappeared from the sweep is a violation — deleting a
/// regression's metric must not silence the gate.
pub fn evaluate(baseline: &Baseline, measured: &BTreeMap<String, Metric>) -> Vec<Verdict> {
    baseline
        .checks
        .iter()
        .map(|c| {
            let m = measured.get(&c.metric);
            let ok = match m {
                None => false,
                Some(m) => c.min.is_none_or_at_most(m.value) && c.max.is_none_or_at_least(m.value),
            };
            Verdict {
                metric: c.metric.clone(),
                unit: c.unit.clone(),
                baseline: c.value,
                measured: m.map(|m| m.value),
                min: c.min,
                max: c.max,
                ok,
            }
        })
        .collect()
}

/// Render verdicts as a human-readable delta table. Violations sort
/// first so the failure cause tops the CI log.
pub fn delta_table(verdicts: &[Verdict]) -> String {
    let mut sorted: Vec<&Verdict> = verdicts.iter().collect();
    sorted.sort_by_key(|v| (v.ok, v.metric.clone()));
    let mut t = Table::new(&["metric", "baseline", "current", "delta", "band", "status"]);
    for v in sorted {
        let fmt = |x: f64| {
            if x.fract() == 0.0 && x.abs() < 1e15 {
                // Counts and exact pins read back in full.
                format!("{x:.0}")
            } else if x.abs() >= 1e-3 && x.abs() < 1e7 {
                format!("{x:.4}")
            } else {
                format!("{x:.3e}")
            }
        };
        let current = v.measured.map_or("MISSING".to_string(), fmt);
        let delta = match v.measured {
            Some(m) if v.baseline != 0.0 => format!("{:+.1}%", (m / v.baseline - 1.0) * 100.0),
            _ => "-".to_string(),
        };
        let band = format!(
            "[{}, {}]",
            v.min.map_or("-inf".to_string(), &fmt),
            v.max.map_or("inf".to_string(), &fmt)
        );
        t.row(&[
            v.metric.clone(),
            fmt(v.baseline),
            current,
            delta,
            band,
            if v.ok {
                "ok".into()
            } else {
                "VIOLATION".into()
            },
        ]);
    }
    t.render()
}

/// Count failed verdicts.
pub fn violations(verdicts: &[Verdict]) -> usize {
    verdicts.iter().filter(|v| !v.ok).count()
}

/// The committed baseline directory (`results/baseline/` at the repo
/// root), resolved relative to this crate so bins and tests agree.
pub fn baseline_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/baseline")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(id: &str, value: f64) -> (String, Metric) {
        (
            id.to_string(),
            Metric {
                id: id.to_string(),
                value,
                unit: "x".to_string(),
            },
        )
    }

    #[test]
    fn band_resolution_intersects_rel_and_hard_limits() {
        let (lo, hi) = Band::rel(0.1).resolve(10.0);
        assert_eq!((lo, hi), (Some(9.0), Some(11.0)));
        // The hard floor wins over the looser relative floor.
        let (lo, hi) = Band::rel_min(0.5, 8.0).resolve(10.0);
        assert_eq!((lo, hi), (Some(8.0), Some(15.0)));
        // The relative floor wins when it is tighter than the hard one.
        let (lo, _) = Band::rel_min(0.1, 2.0).resolve(10.0);
        assert_eq!(lo, Some(9.0));
        let (lo, hi) = Band::max(1.01).resolve(0.97);
        assert_eq!((lo, hi), (None, Some(1.01)));
    }

    #[test]
    fn bless_then_evaluate_round_trips() {
        const SPECS: &[GateSpec] = &[spec("g.a", Band::rel(0.1)), spec("g.b", Band::min(2.0))];
        let group = GateGroup {
            name: "g",
            kind: GroupKind::Model,
            specs: SPECS,
        };
        let measured: BTreeMap<_, _> = [metric("g.a", 5.0), metric("g.b", 3.0)].into();
        let baseline = Baseline::bless(&group, &measured).unwrap();
        // Same measurements pass.
        assert_eq!(violations(&evaluate(&baseline, &measured)), 0);
        // JSON round trip preserves everything.
        let text = baseline.to_json().unwrap().render().unwrap();
        let back = Baseline::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, baseline);
        // A degraded measurement violates.
        let degraded: BTreeMap<_, _> = [metric("g.a", 4.0), metric("g.b", 3.0)].into();
        let verdicts = evaluate(&baseline, &degraded);
        assert_eq!(violations(&verdicts), 1);
        assert!(delta_table(&verdicts).contains("VIOLATION"));
        // A missing metric violates too.
        let partial: BTreeMap<_, _> = [metric("g.a", 5.0)].into();
        let verdicts = evaluate(&baseline, &partial);
        assert_eq!(violations(&verdicts), 1);
        assert!(delta_table(&verdicts).contains("MISSING"));
    }

    #[test]
    fn delta_table_prints_exact_pins_in_full() {
        const SPECS: &[GateSpec] = &[spec("g.pin", Band::rel(0.0))];
        let group = GateGroup {
            name: "g",
            kind: GroupKind::Functional,
            specs: SPECS,
        };
        let measured: BTreeMap<_, _> = [metric("g.pin", 29_649_332.0)].into();
        let baseline = Baseline::bless(&group, &measured).unwrap();
        let table = delta_table(&evaluate(&baseline, &measured));
        assert!(table.contains("29649332"), "{table}");
    }

    #[test]
    fn bless_rejects_missing_and_invariant_violating_metrics() {
        const SPECS: &[GateSpec] = &[spec("g.a", Band::min(4.0))];
        let group = GateGroup {
            name: "g",
            kind: GroupKind::Model,
            specs: SPECS,
        };
        let empty = BTreeMap::new();
        assert!(Baseline::bless(&group, &empty).is_err());
        // Measured 3.0 is below the hard invariant floor 4.0 — blessing
        // must refuse rather than commit a self-violating baseline.
        let bad: BTreeMap<_, _> = [metric("g.a", 3.0)].into();
        assert!(Baseline::bless(&group, &bad).is_err());
    }

    #[test]
    fn gate_group_metrics_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for g in gate_groups() {
            for s in g.specs {
                assert!(seen.insert(s.metric), "duplicate gate metric {}", s.metric);
            }
        }
        assert!(
            seen.len() > 25,
            "expected a substantive gate: {}",
            seen.len()
        );
    }
}
