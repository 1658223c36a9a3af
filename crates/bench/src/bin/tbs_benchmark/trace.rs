//! The benchmark's span recorder.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions, never inside the program. Each thread keeps
//! its own `Vec`; buffers are merged when the run ends. A layer's *self
//! time* is the length of its spans minus the union of their children.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;
use tbs_json::Json;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub layer: &'static str,
    pub t0_ns: u64,
    pub t1_ns: u64,
    /// The op (batch rep or serve request) the span belongs to.
    pub req: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.t1_ns - self.t0_ns) as f64 * 1e-9
    }
}

/// One thread's span buffer. Spans nest: a span begun while another is
/// open becomes its child.
pub struct Recorder {
    epoch: Instant,
    thread: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle to an open span.
#[must_use = "an open span must be ended"]
pub struct Open(usize);

impl Recorder {
    /// A buffer for thread number `thread`; every thread of one run
    /// shares `epoch`, so their timestamps compare.
    pub fn new(epoch: Instant, thread: u64) -> Self {
        Recorder {
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str, req: u64) -> Open {
        let idx = self.spans.len();
        let parent = self.open.last().map(|&p| self.spans[p].id);
        let t0_ns = self.now_ns();
        self.spans.push(Span {
            id: (self.thread << 40) | idx as u64,
            parent,
            name,
            layer,
            t0_ns,
            t1_ns: t0_ns,
            req,
        });
        self.open.push(idx);
        Open(idx)
    }

    pub fn end(&mut self, span: Open) {
        assert_eq!(
            self.open.pop(),
            Some(span.0),
            "spans must end innermost first"
        );
        self.spans[span.0].t1_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(layer, name, req);
        let out = f();
        self.end(s);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "recorder dropped with open spans");
        self.spans
    }
}

/// Merge per-thread buffers into one list ordered by start time.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all: Vec<Span> = buffers.into_iter().flatten().collect();
    all.sort_by_key(|s| (s.t0_ns, s.id));
    all
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut cur) = (0, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cur), b.min(hi));
        if b > a {
            total += b - a;
            cur = b;
        }
    }
    total
}

/// Self time of every span in seconds, in the order of `spans`: its
/// length minus the union of its children's intervals (children may
/// overlap each other when they ran on different threads).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.t0_ns, s.t1_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            let covered = covered_ns(s.t0_ns, s.t1_ns, &mut kids);
            (s.t1_ns - s.t0_ns - covered) as f64 * 1e-9
        })
        .collect()
}

/// Total self time per layer, in seconds.
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0.0) += t;
    }
    out
}

/// Share of `threads × wall_s` that no top-level span covers.
pub fn unattributed_frac(spans: &[Span], threads: usize, wall_s: f64) -> f64 {
    let top: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::secs)
        .sum();
    1.0 - top / (threads as f64 * wall_s)
}

/// Median, over the ops that have spans called `name`, of each op's
/// total duration in them (0 when no op has one).
pub fn median_per_op(spans: &[Span], name: &str) -> f64 {
    let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *per_op.entry(s.req).or_default() += s.secs();
    }
    let v: Vec<f64> = per_op.into_values().collect();
    if v.is_empty() {
        0.0
    } else {
        crate::stats::percentile(&v, 0.5)
    }
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("id", s.id)
                    .with("parent", s.parent.map_or(Json::Null, Json::from))
                    .with("name", s.name)
                    .with("layer", s.layer)
                    .with("t0_ns", s.t0_ns)
                    .with("t1_ns", s.t1_ns)
                    .with("req", s.req)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, t0_ns: u64, t1_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            layer: if parent.is_none() { "outer" } else { "inner" },
            t0_ns,
            t1_ns,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); children [10, 40) and [30, 60) overlap, and
        // [90, 120) runs past the parent's end: covered = 50 + 10.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 60),
            span(4, Some(1), 90, 120),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 40e-9).abs() < 1e-15, "{t:?}");
        assert!((t[1] - 30e-9).abs() < 1e-15);
        let layers = layer_self_s(&spans);
        assert!((layers["outer"] - 40e-9).abs() < 1e-15);
        assert!((layers["inner"] - 90e-9).abs() < 1e-15);
        // One top-level span of 100 ns in a 200 ns run on one thread.
        assert!((unattributed_frac(&spans, 1, 200e-9) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn recorder_nests_and_merges_threads() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 0);
        let outer = a.begin("apps", "outer", 7);
        a.span("gpu_sim.exec", "inner", 7, || ());
        a.end(outer);
        let b = Recorder::new(epoch, 1);
        let spans = merge(vec![a.into_spans(), b.into_spans()]);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].req, 7);
        assert!(spans[0].t1_ns >= spans[1].t1_ns);
    }
}
