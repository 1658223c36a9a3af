//! The loop shared by the three batch workloads (dense-2pcf, md-rdf,
//! grid-ls): cold set-ups, a timed loop of entry calls on one device,
//! the optional traced loop, and the oracle check.

use crate::report::{Metrics, Outcome};
use crate::stats::percentile;
use crate::trace::{self, Recorder, Span};
use gpu_sim::{AccessTally, Device, DeviceConfig, ExecMode, InterpStats, KernelRun, SimError};
use std::time::Instant;

/// Fresh-device set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Timed (and traced) reps run at least this often, however short the
/// run length.
pub const MIN_REPS: usize = 3;

/// How long to measure and whether to trace.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seconds: f64,
    pub trace: bool,
    pub device: DeviceConfig,
}

impl RunCfg {
    /// Ops one timed loop runs: the run length times the workload's
    /// nominal ops per second on the reference host, at least `min`. A
    /// count rather than a deadline, so that both sides of a comparison
    /// do the same work, and a faster program does not run more ops,
    /// allocate more never-freed device memory and read a larger
    /// `rss_mb`.
    pub fn ops(&self, per_second: f64, min: usize) -> usize {
        ((self.seconds * per_second).round() as usize).max(min)
    }
}

/// Work counts of one op, summed over its launches.
#[derive(Debug, Clone, Default)]
pub struct Cost {
    pub launches: u64,
    /// Modeled device seconds.
    pub sim_seconds: f64,
    /// Zero where the entry call does not return its launches' tallies.
    pub tally: AccessTally,
    pub interp: InterpStats,
    /// Point pairs the launches evaluated.
    pub pairs: u64,
}

impl Cost {
    pub fn add_run(&mut self, run: &KernelRun) {
        self.launches += 1;
        self.sim_seconds += run.timing.seconds;
        self.tally.merge(&run.tally);
        self.interp.merge(&run.interp);
    }

    /// The `gpu_sim.exec` per-layer metrics of `ops` ops that cost
    /// `self` in total on `device` and spent `launch_s` per op inside
    /// launches.
    pub fn exec_metrics(&self, ops: f64, launch_s: f64, device: &DeviceConfig, m: &mut Metrics) {
        let launch_total = launch_s * ops;
        let ns_per_pair = if self.pairs > 0 {
            launch_total * 1e9 / self.pairs as f64
        } else {
            0.0
        };
        let lane_ops_per_s = if launch_total > 0.0 {
            self.tally.useful_lane_ops as f64 / launch_total
        } else {
            0.0
        };
        m.set("gpu_sim.exec.launch_s", launch_s, "s");
        m.set("gpu_sim.exec.ns_per_pair", ns_per_pair, "ns");
        m.set("gpu_sim.exec.lane_ops_per_s", lane_ops_per_s, "1/s");
        m.set("gpu_sim.exec.launches", self.launches as f64 / ops, "count");
        m.set(
            "gpu_sim.exec.dispatches",
            self.interp.dispatches as f64 / ops,
            "count",
        );
        m.set(
            "gpu_sim.exec.compiled_coverage",
            self.interp.compiled_coverage(&self.tally),
            "ratio",
        );
        m.set(
            "gpu_sim.exec.fused_coverage",
            self.interp.fused_coverage(&self.tally),
            "ratio",
        );
        m.set(
            "gpu_sim.exec.memo_hit_rate",
            self.interp.memo_hit_rate(),
            "ratio",
        );
        m.set(
            "gpu_sim.exec.sim_cycles",
            self.sim_seconds * device.clock_ghz * 1e9 / ops,
            "cycles",
        );
        m.set(
            "gpu_sim.exec.dram_mb",
            (self.tally.dram_sectors * device.sector_bytes as u64) as f64 * 1e-6 / ops,
            "MB",
        );
    }
}

/// One entry call's result with its cost.
pub struct Solved<R> {
    pub result: R,
    pub cost: Cost,
}

/// A batch workload: one public entry call, repeated.
pub trait Batch {
    /// What must repeat bit for bit from rep to rep: the statistic and
    /// the modeled device tallies.
    type Result: PartialEq + Clone + std::fmt::Debug;
    /// The CPU oracle's answer.
    type Oracle;

    /// Entry calls per second of run length (`--seconds`): about one
    /// call's rate on the reference host.
    fn reps_per_second(&self) -> f64;
    fn oracle(&self) -> Self::Oracle;
    /// Does the statistic in `result` equal the oracle's?
    fn matches(&self, oracle: &Self::Oracle, result: &Self::Result) -> bool;
    /// The public entry call.
    fn solve(&self, dev: &mut Device) -> Result<Solved<Self::Result>, SimError>;
    /// The entry call made as its layers' public calls, each under a
    /// span of op `req`. Must return what [`Batch::solve`] returns.
    fn solve_traced(
        &self,
        dev: &mut Device,
        rec: &mut Recorder,
        req: u64,
    ) -> Result<Solved<Self::Result>, SimError>;
    /// Wall time per op inside device launches.
    fn launch_s(&self, spans: &[Span]) -> f64 {
        trace::median_per_op(spans, "launch")
    }
    /// Workload-specific per-layer metrics from the traced spans and the
    /// last traced op.
    fn layer_metrics(
        &self,
        _spans: &[Span],
        _last: &Solved<Self::Result>,
        _layers: &mut Metrics,
        _detail: &mut Metrics,
    ) {
    }
    /// Whether the traced run adds one rep on a sequential-engine device
    /// for `gpu_sim.exec.parallel_vs_sequential`.
    fn sequential_probe(&self) -> bool {
        false
    }
}

/// Run `w`: oracle, set-ups, timed loop, then the traced loop if asked.
pub fn run<W: Batch>(w: &W, cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let t = Instant::now();
    let oracle = w.oracle();
    let reference_s = t.elapsed().as_secs_f64();

    let mut first: Option<W::Result> = None;
    let mut judge = |out: &mut Outcome, what: &str, got: Result<Solved<W::Result>, SimError>| {
        let solved = match got {
            Ok(s) => s,
            Err(e) => {
                out.check(false, || format!("{what}: {e}"));
                return None;
            }
        };
        let reference = first.get_or_insert_with(|| solved.result.clone());
        let ok = w.matches(&oracle, &solved.result) && solved.result == *reference;
        out.check(ok, || format!("{what}: {:?}", solved.result));
        Some(solved)
    };

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut dev = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let mut d = Device::new(cfg.device.clone());
        let got = w.solve(&mut d);
        setup_s.push(t.elapsed().as_secs_f64());
        judge(&mut out, &format!("set-up {i}"), got);
        dev = Some(d);
    }
    let mut dev = dev.expect("SETUPS > 0");

    let reps = cfg.ops(w.reps_per_second(), MIN_REPS);
    let mut rep_s = Vec::with_capacity(reps);
    let alloc0 = dev.allocated_bytes();
    let t_loop = Instant::now();
    while rep_s.len() < reps {
        let t = Instant::now();
        let got = w.solve(&mut dev);
        rep_s.push(t.elapsed().as_secs_f64());
        judge(&mut out, &format!("rep {}", rep_s.len()), got);
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    let alloc_per_rep = (dev.allocated_bytes() - alloc0) as f64 / rep_s.len() as f64;
    let p50_s = percentile(&rep_s, 0.5);
    out.e2e.set("p50_ms", p50_s * 1e3, "ms");
    out.e2e.set("ops_per_s", rep_s.len() as f64 / loop_s, "1/s");
    out.e2e.set("setup_s", percentile(&setup_s, 0.5), "s");
    if !cfg.trace {
        return out;
    }

    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let mut traced_s = Vec::with_capacity(reps);
    let mut last = None;
    while traced_s.len() < reps {
        let t = Instant::now();
        let got = w.solve_traced(&mut dev, &mut rec, traced_s.len() as u64);
        traced_s.push(t.elapsed().as_secs_f64());
        last = judge(&mut out, &format!("traced rep {}", traced_s.len()), got).or(last);
    }
    let wall_s = epoch.elapsed().as_secs_f64();
    let spans = rec.into_spans();

    let layers = &mut out.layers;
    if let Some(last) = &last {
        last.cost
            .exec_metrics(1.0, w.launch_s(&spans), &cfg.device, layers);
        let upload_s = trace::median_per_op(&spans, "upload");
        layers.set("gpu_sim.mem.upload_s", upload_s, "s");
        w.layer_metrics(&spans, last, layers, &mut out.detail);
        out.detail.set("sim_s", last.cost.sim_seconds, "s");
    }
    layers.set(
        "gpu_sim.mem.allocated_mb",
        alloc_per_rep / (1 << 20) as f64,
        "MiB",
    );
    layers.set("cpu.reference_s", reference_s, "s");
    layers.set(
        "trace.unattributed_frac",
        trace::unattributed_frac(&spans, 1, wall_s),
        "ratio",
    );
    layers.set(
        "trace.overhead_frac",
        percentile(&traced_s, 0.5) / p50_s - 1.0,
        "ratio",
    );
    if w.sequential_probe() {
        // Warm the sequential device with one untimed rep, so that the
        // timed one compares with the warm parallel median.
        let mut seq = Device::new(cfg.device.clone().with_exec_mode(ExecMode::Sequential));
        let got = w.solve(&mut seq);
        judge(&mut out, "sequential warm-up rep", got);
        let t = Instant::now();
        let got = w.solve(&mut seq);
        let seq_s = t.elapsed().as_secs_f64();
        judge(&mut out, "sequential rep", got);
        out.layers.set(
            "gpu_sim.exec.parallel_vs_sequential",
            seq_s / p50_s,
            "ratio",
        );
    }
    span_detail(&spans, traced_s.len(), &mut out.detail);
    out.spans = spans;
    out
}

/// Per-span-name medians and per-layer self times (per op) as detail
/// metrics named `<layer>.<span>_s` and `<layer>.self_s`.
pub fn span_detail(spans: &[Span], ops: usize, detail: &mut Metrics) {
    let mut names: Vec<(&str, &str)> = spans.iter().map(|s| (s.layer, s.name)).collect();
    names.sort_unstable();
    names.dedup();
    for (layer, name) in names {
        detail.set(
            format!("{layer}.{name}_s"),
            trace::median_per_op(spans, name),
            "s",
        );
    }
    for (layer, self_s) in trace::layer_self_s(spans) {
        detail.set(format!("{layer}.self_s"), self_s / ops as f64, "s");
    }
}
