//! What a run reports: the declared metric lists (mirrored in the
//! repository's `BENCHMARK.json`), the outcome of one workload, and the
//! result line.

use crate::trace::Span;
use tbs_json::Json;

/// End-to-end metrics, measured with tracing off, on every workload.
/// An *op* is one entry call on the batch workloads and one client
/// request on serve-mix.
pub const END_TO_END: &[(&str, &str)] = &[
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, measured by the traced run. A layer a workload
/// does not exercise, or that the benchmark cannot see on it, reads 0
/// (README.md lists which metric is measured on which workload).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gpu_sim.exec.launch_s", "s"),
    ("gpu_sim.exec.ns_per_pair", "ns"),
    ("gpu_sim.exec.lane_ops_per_s", "1/s"),
    ("gpu_sim.exec.launches", "count"),
    ("gpu_sim.exec.dispatches", "count"),
    ("gpu_sim.exec.compiled_coverage", "ratio"),
    ("gpu_sim.exec.fused_coverage", "ratio"),
    ("gpu_sim.exec.memo_hit_rate", "ratio"),
    ("gpu_sim.exec.sim_cycles", "cycles"),
    ("gpu_sim.exec.dram_mb", "MB"),
    ("gpu_sim.exec.parallel_vs_sequential", "ratio"),
    ("gpu_sim.mem.upload_s", "s"),
    ("gpu_sim.mem.allocated_mb", "MiB"),
    ("core.grid.cells", "count"),
    ("core.grid.occupied_cells", "count"),
    ("core.grid.cell_pairs", "count"),
    ("core.grid.candidate_pairs", "count"),
    ("core.grid.pruned_fraction", "ratio"),
    ("apps.gridded.population_classes", "count"),
    ("apps.gridded.packed_launches", "count"),
    ("apps.serve.coalesced_frac", "ratio"),
    ("apps.serve.queries_per_sweep", "ratio"),
    ("apps.serve.tasks_per_query", "ratio"),
    ("apps.serve.cache_hit_rate", "ratio"),
    ("apps.serve.misses_per_query", "ratio"),
    ("cpu.reference_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Named values with units, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Set `name`, replacing an earlier value.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| (n.clone(), Json::obj().with("value", *v).with("unit", *u)))
                .collect(),
        )
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops (and set-up ops) whose result was checked.
    pub attempted: u64,
    /// Checked ops whose result differed from the oracle or from the
    /// first rep, or whose error was not the expected one.
    pub failed: u64,
    /// End-to-end metrics of the untraced run (`rss_mb` is added by the
    /// caller at exit).
    pub e2e: Metrics,
    /// Declared per-layer metrics of the traced run.
    pub layers: Metrics,
    /// Further traced-run measurements: per-span and per-layer self
    /// times, tail latencies, modeled seconds. Printed and written to the
    /// spans file, not part of the result line.
    pub detail: Metrics,
    /// The traced run's spans.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Count one checked op.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("tbs_benchmark: MISMATCH: {}", what());
        }
    }

    /// The result line: every end-to-end metric with `trace = false`,
    /// every per-layer metric with `trace = true`.
    pub fn result_json(&self, trace: bool) -> Json {
        let mut m = Metrics::default();
        if trace {
            for &(name, unit) in PER_LAYER {
                m.set(name, self.layers.get(name).unwrap_or(0.0), unit);
            }
        } else {
            for &(name, unit) in END_TO_END {
                let v = self.e2e.get(name);
                m.set(name, v.expect("every end-to-end metric is measured"), unit);
            }
        }
        Json::obj()
            .with("correct", self.failed == 0)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", m.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root describes this bin: its
    /// metric names and units must be the lists above.
    #[test]
    fn benchmark_json_declares_these_metrics() {
        let doc = Json::parse(include_str!("../../../../../BENCHMARK.json")).expect("parse");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn unmeasured_layers_read_zero_and_failures_count() {
        let mut o = Outcome::default();
        o.layers.set("cpu.reference_s", 2.5, "s");
        o.check(true, String::new);
        o.check(false, || "off by one".into());
        let line = o.result_json(true);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
        let m = line.get("metrics").expect("metrics");
        assert_eq!(m.as_obj().map(<[_]>::len), Some(PER_LAYER.len()));
        let v = |n: &str| m.get(n).and_then(|x| x.get("value")).and_then(Json::as_f64);
        assert_eq!(v("cpu.reference_s"), Some(2.5));
        assert_eq!(v("core.grid.cells"), Some(0.0));
    }
}
