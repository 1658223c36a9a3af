//! serve-mix: client threads in a closed loop against an in-process
//! `Server::run`.
//!
//! The only workload that goes through the dispatcher, the batcher, the
//! worker caches and the device allocator that never frees. It puts
//! writes (re-registrations, which invalidate the caches) beside reads.
//! `ServerHandle` calls block until their reply arrives, so each client
//! sends its next op only after the previous one completed: a closed
//! loop with no think time, whose load is its client count.

use crate::batch::{span_detail, Cost, RunCfg, SETUPS};
use crate::dense::{half_pairs, pcf_traced};
use crate::gridls::{blob_centers, grid_metrics};
use crate::rdf::sdh_traced;
use crate::report::Outcome;
use crate::stats::{beyond, percentile, SplitMix64, MIN_BEYOND};
use crate::trace::{self, Recorder, Span};
use gpu_sim::{Device, DeviceConfig};
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::Instant;
use tbs_apps::serve::{Query, QueryResult, ServeConfig, ServeError, Server, ServerHandle};
use tbs_apps::{gridded_count_within_multi, knn_reference, GriddedCatalog};
use tbs_core::distance::{DistanceKernel, Euclidean};
use tbs_core::grid::GridOptions;
use tbs_core::histogram::{Histogram, HistogramSpec};
use tbs_core::point::SoaPoints;

const BOX: f32 = 100.0;
/// Radii of `PairCounts` (1–3 per query) and of dense `CountWithin`.
const LADDER: [f32; 10] = [2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0];
/// Radii of gridded `CountWithin`.
const GRIDDED: [f32; 4] = [2.0, 3.0, 4.0, 5.0];
const KNN_K: u32 = 4;
/// Client threads; the server runs as many workers.
const CLIENTS: usize = 2;
/// Ops each client sends per second of run length (`--seconds`): about
/// the rate one client reached on the reference host (32–44 measured),
/// so that a 15-second run has 1200 samples, 12 of them beyond the p99.
const OPS_PER_CLIENT_SECOND: f64 = 40.0;
/// Radius of the dense-count probe.
const PROBE_RADIUS: f32 = 10.0;

/// The two registered datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ds {
    /// Clustered points; two thirds of the traffic.
    Galaxies,
    /// Uniform points; the only target of kNN and re-registration.
    Md,
}

impl Ds {
    fn name(self) -> &'static str {
        match self {
            Ds::Galaxies => "galaxies",
            Ds::Md => "md",
        }
    }
}

/// What an op asks for; latencies are also reported per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PairCounts,
    Sdh,
    CountDense,
    Gridded,
    Batch,
    Knn,
    Register,
    /// An invalid query that must come back as `ServeError::BadQuery`.
    Rejected,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::PairCounts => "pair_counts",
            Kind::Sdh => "sdh",
            Kind::CountDense => "count_dense",
            Kind::Gridded => "gridded",
            Kind::Batch => "batch",
            Kind::Knn => "knn",
            Kind::Register => "register",
            Kind::Rejected => "rejected",
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Query {
        kind: Kind,
        ds: Ds,
        query: Query,
    },
    /// `submit_batch` of `PairCounts` queries.
    Batch {
        ds: Ds,
        queries: Vec<Query>,
    },
    /// Register `md` again, alternating between its two catalogs.
    Register,
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::Query { kind, .. } => *kind,
            Op::Batch { .. } => Kind::Batch,
            Op::Register => Kind::Register,
        }
    }
}

/// SDH buckets of width `diagonal / buckets`, covering the box diagonal.
fn sdh_width(buckets: u32) -> f32 {
    tbs_datagen::box_diagonal(BOX, 3) / buckets as f32
}

fn sdh(buckets: u32) -> Query {
    Query::Sdh {
        buckets,
        width: sdh_width(buckets),
    }
}

/// Invalid queries, each rejected at admission.
fn invalid(i: u64) -> Query {
    match i {
        0 => Query::PairCounts { radii: vec![] },
        1 => Query::PairCounts { radii: vec![-1.0] },
        2 => Query::Sdh {
            buckets: 0,
            width: 1.0,
        },
        _ => Query::Knn { k: 0 },
    }
}

/// A client's mix per 100 ops: each kind's count on `galaxies` and on
/// `md`, so that two thirds of the queries other than kNN target
/// `galaxies`. Only client 0 re-registers (always `md`); the other
/// clients send `PairCounts` to the card's dataset in those slots.
const MIX: [(Kind, usize, usize); 8] = [
    (Kind::PairCounts, 23, 12),
    (Kind::Sdh, 13, 7),
    (Kind::Gridded, 13, 7),
    (Kind::CountDense, 7, 3),
    (Kind::Batch, 5, 3),
    (Kind::Knn, 0, 3),
    (Kind::Register, 1, 1),
    (Kind::Rejected, 1, 1),
];

/// One client's op sequence, reproducible from `(seed, client)`. Cards,
/// each a kind and a dataset, are dealt from a shuffled deck holding
/// exactly the [`MIX`] counts, so the share of each kind on each dataset
/// (and the memory it allocates) does not vary with the seed; each op's
/// parameters are drawn.
pub struct OpStream {
    rng: SplitMix64,
    client: usize,
    deck: Vec<(Kind, Ds)>,
}

impl OpStream {
    pub fn new(seed: u64, client: usize) -> Self {
        OpStream {
            rng: SplitMix64::stream(seed, 0x5e7e_0000 + client as u64),
            client,
            deck: Vec::new(),
        }
    }

    fn pick(&mut self, xs: &[f32]) -> f32 {
        xs[self.rng.below(xs.len() as u64) as usize]
    }

    /// 1–3 radii from the ladder.
    fn pair_counts(&mut self) -> Query {
        let k = 1 + self.rng.below(3);
        Query::PairCounts {
            radii: (0..k).map(|_| self.pick(&LADDER)).collect(),
        }
    }

    /// The next op: `Sdh` asks for the popular 256-bucket full-diagonal
    /// spec four times in five, and a batch holds 4 `PairCounts`.
    pub fn next_op(&mut self) -> Op {
        if self.deck.is_empty() {
            self.deck = MIX
                .iter()
                .flat_map(|&(kind, galaxies, md)| {
                    let on = |ds, n| std::iter::repeat_n((kind, ds), n);
                    on(Ds::Galaxies, galaxies).chain(on(Ds::Md, md))
                })
                .collect();
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.deck.swap(i, j);
            }
        }
        let (kind, ds) = self.deck.pop().expect("the deck was refilled");
        let query = |kind, query| Op::Query { kind, ds, query };
        match kind {
            Kind::PairCounts => query(kind, self.pair_counts()),
            Kind::Sdh => query(kind, sdh(if self.rng.below(5) < 4 { 256 } else { 128 })),
            Kind::Gridded => {
                let radius = self.pick(&GRIDDED);
                let gridded = true;
                query(kind, Query::CountWithin { radius, gridded })
            }
            Kind::CountDense => {
                let radius = self.pick(&LADDER);
                let gridded = false;
                query(kind, Query::CountWithin { radius, gridded })
            }
            Kind::Batch => Op::Batch {
                ds,
                queries: (0..4).map(|_| self.pair_counts()).collect(),
            },
            Kind::Knn => query(kind, Query::Knn { k: KNN_K }),
            Kind::Register if self.client == 0 => Op::Register,
            Kind::Register => query(Kind::PairCounts, self.pair_counts()),
            Kind::Rejected => query(kind, invalid(self.rng.below(4))),
        }
    }
}

/// What came back.
#[derive(Debug)]
pub enum Reply {
    One(Result<QueryResult, ServeError>),
    Many(Result<Vec<QueryResult>, ServeError>),
    Registered(Result<u64, ServeError>),
}

/// One op of a client, with its reply and latency.
pub struct Record {
    op: Op,
    reply: Reply,
    latency_s: f64,
}

/// A dataset revision the oracle knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    Galaxies,
    Md(usize),
}

impl Version {
    /// The revisions a reply on `ds` may have been computed on: with a
    /// re-registration in flight, either `md` catalog.
    fn of(ds: Ds) -> &'static [Version] {
        match ds {
            Ds::Galaxies => &[Version::Galaxies],
            Ds::Md => &[Version::Md(0), Version::Md(1)],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Shape {
    Count(u32),
    Sdh(u32, u32),
    Knn,
}

enum Answer {
    Count(u64),
    Hist(Histogram),
    Knn(Vec<[f32; KNN_K as usize]>),
}

/// The CPU answers, keyed by dataset revision and query shape and
/// computed on first use.
pub struct Oracle<'a> {
    galaxies: &'a SoaPoints<3>,
    md: [&'a SoaPoints<3>; 2],
    table: HashMap<(Version, Shape), Answer>,
    /// Time spent computing answers.
    pub build_s: f64,
}

impl<'a> Oracle<'a> {
    pub fn new(galaxies: &'a SoaPoints<3>, md: [&'a SoaPoints<3>; 2]) -> Self {
        Oracle {
            galaxies,
            md,
            table: HashMap::new(),
            build_s: 0.0,
        }
    }

    fn pts(&self, v: Version) -> &'a SoaPoints<3> {
        match v {
            Version::Galaxies => self.galaxies,
            Version::Md(i) => self.md[i],
        }
    }

    fn answer(&mut self, v: Version, shape: Shape) -> &Answer {
        if !self.table.contains_key(&(v, shape)) {
            let pts = self.pts(v);
            let t = Instant::now();
            let a = match shape {
                Shape::Count(r) => {
                    Answer::Count(tbs_cpu::count_within_reference(pts, f32::from_bits(r)))
                }
                Shape::Sdh(b, w) => {
                    let spec = HistogramSpec::new(b, f32::from_bits(w) * b as f32);
                    Answer::Hist(tbs_cpu::sdh_reference(pts, spec))
                }
                Shape::Knn => Answer::Knn(knn_reference::<3, { KNN_K as usize }>(pts).1),
            };
            self.build_s += t.elapsed().as_secs_f64();
            self.table.insert((v, shape), a);
        }
        &self.table[&(v, shape)]
    }

    fn count(&mut self, v: Version, radius: f32) -> u64 {
        match self.answer(v, Shape::Count(radius.to_bits())) {
            Answer::Count(c) => *c,
            _ => unreachable!("count shapes hold counts"),
        }
    }

    fn histogram(&mut self, v: Version, buckets: u32, width: f32) -> &Histogram {
        match self.answer(v, Shape::Sdh(buckets, width.to_bits())) {
            Answer::Hist(h) => h,
            _ => unreachable!("SDH shapes hold histograms"),
        }
    }

    /// Exact kNN check that ties cannot fool: every distance equals the
    /// reference's bit for bit, and every neighbor is a distinct other
    /// point at exactly its reported distance.
    fn knn_ok(&mut self, v: Version, neighbors: &[Vec<u32>], distances: &[Vec<f32>]) -> bool {
        let pts = self.pts(v);
        let Answer::Knn(want) = self.answer(v, Shape::Knn) else {
            unreachable!("kNN shapes hold distances")
        };
        let n = pts.len();
        neighbors.len() == n
            && distances.len() == n
            && (0..n).all(|i| {
                let (nb, d) = (&neighbors[i], &distances[i]);
                let same = |a: &f32, b: &f32| a.to_bits() == b.to_bits();
                d.len() == want[i].len()
                    && d.iter().zip(&want[i]).all(|(a, b)| same(a, b))
                    && nb.len() == d.len()
                    && nb.iter().enumerate().all(|(k, &j)| {
                        let j = j as usize;
                        let dist = || Euclidean.eval_host(&pts.point(i), &pts.point(j));
                        j < n && j != i && !nb[..k].contains(&nb[k]) && same(&dist(), &d[k])
                    })
            })
    }

    /// Does `got` answer `q` on revision `v`?
    fn answers(&mut self, v: Version, q: &Query, got: &QueryResult) -> bool {
        match (q, got) {
            (Query::PairCounts { radii }, QueryResult::Counts(c)) => {
                c.len() == radii.len() && radii.iter().zip(c).all(|(&r, &c)| self.count(v, r) == c)
            }
            (Query::CountWithin { radius, .. }, QueryResult::Counts(c)) => {
                *c == [self.count(v, *radius)]
            }
            (Query::Sdh { buckets, width }, QueryResult::Histogram(h)) => {
                self.histogram(v, *buckets, *width) == h
            }
            (
                Query::Knn { k: KNN_K },
                QueryResult::Knn {
                    neighbors,
                    distances,
                },
            ) => self.knn_ok(v, neighbors, distances),
            _ => false,
        }
    }

    /// Is `reply` the right reply to `op`?
    pub fn check(&mut self, op: &Op, reply: &Reply) -> bool {
        match (op, reply) {
            (
                Op::Query {
                    kind: Kind::Rejected,
                    ..
                },
                Reply::One(r),
            ) => {
                matches!(r, Err(ServeError::BadQuery(_)))
            }
            (Op::Query { ds, query, .. }, Reply::One(Ok(got))) => Version::of(*ds)
                .iter()
                .any(|&v| self.answers(v, query, got)),
            (Op::Batch { ds, queries }, Reply::Many(Ok(got))) => {
                got.len() == queries.len()
                    && Version::of(*ds)
                        .iter()
                        .any(|&v| queries.iter().zip(got).all(|(q, g)| self.answers(v, q, g)))
            }
            (Op::Register, Reply::Registered(r)) => r.is_ok(),
            _ => false,
        }
    }
}

/// The serve-mix workload.
pub struct ServeMix {
    galaxies: SoaPoints<3>,
    md: [SoaPoints<3>; 2],
    seed: u64,
    /// Ops each client sends at least, however short the run.
    min_ops: usize,
}

/// One closed-loop pass.
struct LoopOut {
    records: Vec<Record>,
    wall_s: f64,
    spans: Vec<Span>,
    /// `ServerStats` deltas over the pass: queries, batches, coalesced
    /// queries, tasks, cache hits, cache misses, simulated seconds.
    delta: [f64; 7],
}

impl ServeMix {
    /// `galaxies`: 4096 points in 64 Gaussian blobs (σ = 4, centers from
    /// [`blob_centers`]); `md`: two seeded catalogs of 2048 uniform
    /// points; 100³ box. With `tiny`, 512 and 256 points and 20 ops per
    /// client.
    pub fn new(seed: u64, tiny: bool) -> Self {
        let (ng, nm) = if tiny { (512, 256) } else { (4096, 2048) };
        let centers = blob_centers(&mut SplitMix64::stream(seed, 0x9a1a));
        ServeMix {
            galaxies: tbs_datagen::gaussian_blobs(ng, BOX, &centers, &[4.0; 64], seed),
            md: [0x3d0, 0x3d1].map(|tag| tbs_datagen::uniform_points(nm, BOX, seed ^ tag)),
            seed,
            min_ops: if tiny { 20 } else { 10 },
        }
    }

    fn execute(&self, h: &ServerHandle, op: &Op, md_next: &mut usize) -> Reply {
        match op {
            Op::Query { ds, query, .. } => Reply::One(h.submit(ds.name(), query.clone())),
            Op::Batch { ds, queries } => Reply::Many(h.submit_batch(ds.name(), queries.clone())),
            Op::Register => {
                let v = *md_next;
                *md_next ^= 1;
                Reply::Registered(h.register_dataset("md", self.md[v].clone()))
            }
        }
    }

    /// Register both datasets and send one op of every query kind to
    /// each, which fills the shard and grid caches.
    fn setup(&self, h: &ServerHandle) -> Vec<Record> {
        let mut ops = Vec::new();
        for ds in [Ds::Galaxies, Ds::Md] {
            let q = |kind, query| Op::Query { kind, ds, query };
            ops.push(q(
                Kind::PairCounts,
                Query::PairCounts {
                    radii: LADDER.to_vec(),
                },
            ));
            ops.push(q(Kind::Sdh, sdh(256)));
            ops.push(q(Kind::Sdh, sdh(128)));
            let radius = GRIDDED[GRIDDED.len() - 1];
            ops.push(q(
                Kind::Gridded,
                Query::CountWithin {
                    radius,
                    gridded: true,
                },
            ));
            let radius = LADDER[0];
            ops.push(q(
                Kind::CountDense,
                Query::CountWithin {
                    radius,
                    gridded: false,
                },
            ));
            let queries = LADDER[..4]
                .iter()
                .map(|&r| Query::PairCounts { radii: vec![r] });
            ops.push(Op::Batch {
                ds,
                queries: queries.collect(),
            });
            ops.push(q(Kind::Rejected, invalid(0)));
        }
        ops.push(Op::Query {
            kind: Kind::Knn,
            ds: Ds::Md,
            query: Query::Knn { k: KNN_K },
        });
        let mut records = vec![
            Record {
                op: Op::Register,
                reply: Reply::Registered(h.register_dataset("galaxies", self.galaxies.clone())),
                latency_s: 0.0,
            },
            Record {
                op: Op::Register,
                reply: Reply::Registered(h.register_dataset("md", self.md[0].clone())),
                latency_s: 0.0,
            },
        ];
        let mut md_next = 1;
        for op in ops {
            let reply = self.execute(h, &op, &mut md_next);
            records.push(Record {
                op,
                reply,
                latency_s: 0.0,
            });
        }
        records
    }

    /// Every client sends `ops` ops back to back, recording spans when
    /// `epoch` is given.
    fn closed_loop(&self, h: &ServerHandle, ops: usize, epoch: Option<Instant>) -> LoopOut {
        let before = h.stats().expect("stats of a running server");
        let barrier = Barrier::new(CLIENTS);
        let clients: Vec<(Vec<Record>, Vec<Span>, f64)> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (h, barrier) = (h.clone(), &barrier);
                    s.spawn(move || {
                        let mut stream = OpStream::new(self.seed, c);
                        let mut rec = epoch.map(|e| Recorder::new(e, c as u64));
                        let (mut records, mut md_next) = (Vec::new(), 1);
                        barrier.wait();
                        let start = Instant::now();
                        while records.len() < ops {
                            let op = stream.next_op();
                            let req = ((c as u64) << 32) | records.len() as u64;
                            let span = rec
                                .as_mut()
                                .map(|r| r.begin("apps.serve", op.kind().name(), req));
                            let t = Instant::now();
                            let reply = self.execute(&h, &op, &mut md_next);
                            let latency_s = t.elapsed().as_secs_f64();
                            if let (Some(r), Some(span)) = (rec.as_mut(), span) {
                                r.end(span);
                            }
                            records.push(Record {
                                op,
                                reply,
                                latency_s,
                            });
                        }
                        let spans = rec.map(Recorder::into_spans).unwrap_or_default();
                        (records, spans, start.elapsed().as_secs_f64())
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread panicked"))
                .collect()
        });
        let after = h.stats().expect("stats of a running server");
        let d = |f: fn(&tbs_apps::ServerStats) -> f64| f(&after) - f(&before);
        let wall_s = clients.iter().map(|c| c.2).fold(0.0, f64::max);
        let (records, spans): (Vec<_>, Vec<_>) =
            clients.into_iter().map(|(r, s, _)| (r, s)).unzip();
        LoopOut {
            records: records.into_iter().flatten().collect(),
            wall_s,
            spans: trace::merge(spans),
            delta: [
                d(|s| s.queries as f64),
                d(|s| s.batches as f64),
                d(|s| s.coalesced_queries as f64),
                d(|s| s.tasks as f64),
                d(|s| s.cache_hits as f64),
                d(|s| s.cache_misses as f64),
                d(|s| s.sim_seconds),
            ],
        }
    }

    pub fn run(&self, cfg: &RunCfg) -> Outcome {
        let mut out = Outcome::default();
        let scfg = ServeConfig {
            device: cfg.device.clone(),
            ..ServeConfig::default()
        }
        .with_workers(CLIENTS);
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut records = Vec::new();
        for _ in 1..SETUPS {
            let t0 = Instant::now();
            Server::run(scfg.clone(), |h| {
                records.extend(self.setup(&h));
                setup_s.push(t0.elapsed().as_secs_f64());
            });
        }
        let t0 = Instant::now();
        let (timed, traced) = Server::run(scfg, |h| {
            records.extend(self.setup(&h));
            setup_s.push(t0.elapsed().as_secs_f64());
            let ops = cfg.ops(OPS_PER_CLIENT_SECOND, self.min_ops);
            let timed = self.closed_loop(&h, ops, None);
            let traced = cfg
                .trace
                .then(|| self.closed_loop(&h, ops, Some(Instant::now())));
            (timed, traced)
        });

        let mut oracle = Oracle::new(&self.galaxies, [&self.md[0], &self.md[1]]);
        let all = records
            .iter()
            .chain(&timed.records)
            .chain(traced.iter().flat_map(|t| &t.records));
        for r in all {
            let ok = oracle.check(&r.op, &r.reply);
            out.check(ok, || {
                let reply: String = format!("{:?}", r.reply).chars().take(300).collect();
                format!("{:?} -> {reply}", r.op)
            });
        }

        let lat: Vec<f64> = timed.records.iter().map(|r| r.latency_s).collect();
        let p50_s = percentile(&lat, 0.5);
        out.e2e.set("p50_ms", p50_s * 1e3, "ms");
        out.e2e
            .set("ops_per_s", lat.len() as f64 / timed.wall_s, "1/s");
        out.e2e.set("setup_s", percentile(&setup_s, 0.5), "s");
        latency_detail(&timed.records, &mut out);
        let Some(traced) = traced else {
            return out;
        };

        let [queries, batches, coalesced, tasks, hits, misses, sim_s] = traced.delta;
        let per_query = |x: f64| x / queries.max(1.0);
        let layers = &mut out.layers;
        layers.set("apps.serve.coalesced_frac", per_query(coalesced), "ratio");
        layers.set(
            "apps.serve.queries_per_sweep",
            queries / batches.max(1.0),
            "ratio",
        );
        layers.set("apps.serve.tasks_per_query", per_query(tasks), "ratio");
        layers.set(
            "apps.serve.cache_hit_rate",
            hits / (hits + misses).max(1.0),
            "ratio",
        );
        layers.set("apps.serve.misses_per_query", per_query(misses), "ratio");
        let unattributed = trace::unattributed_frac(&traced.spans, CLIENTS, traced.wall_s);
        layers.set("trace.unattributed_frac", unattributed, "ratio");
        let traced_lat: Vec<f64> = traced.records.iter().map(|r| r.latency_s).collect();
        layers.set(
            "trace.overhead_frac",
            percentile(&traced_lat, 0.5) / p50_s - 1.0,
            "ratio",
        );
        span_detail(&traced.spans, traced.records.len(), &mut out.detail);

        let probe_spans = self.probes(&cfg.device, &mut oracle, &mut out);
        // Modeled cost of the served queries themselves, not the probes.
        let cycles = per_query(sim_s) * cfg.device.clock_ghz * 1e9;
        out.layers.set("gpu_sim.exec.sim_cycles", cycles, "cycles");
        out.detail
            .set("apps.serve.sim_s_per_query", per_query(sim_s), "s");
        out.layers.set("cpu.reference_s", oracle.build_s, "s");
        out.spans = traced.spans;
        out.spans.extend(probe_spans);
        out
    }

    /// The layers below `apps.serve` run inside worker threads, out of
    /// the benchmark's sight. The probes make the workers' public calls
    /// directly, once per dataset on a fresh device: a dense count, the
    /// popular SDH and a gridded multi-radius count.
    fn probes(&self, device: &DeviceConfig, oracle: &mut Oracle, out: &mut Outcome) -> Vec<Span> {
        let plan = ServeConfig::default().plan;
        let mut rec = Recorder::new(Instant::now(), CLIENTS as u64);
        let mut cost = Cost::default();
        let mut queries = 0.0;
        let mut grid_runs = Vec::new();
        let sets = [
            (Version::Galaxies, &self.galaxies),
            (Version::Md(0), &self.md[0]),
        ];
        for (i, (v, pts)) in sets.into_iter().enumerate() {
            let mut dev = Device::new(device.clone());
            let req = (1 << 48) | (3 * i as u64);
            let top = rec.begin("apps.pcf", "pcf_gpu", req);
            let got = pcf_traced(&mut dev, pts, PROBE_RADIUS, plan, &mut rec, req);
            rec.end(top);
            let ok = got.is_ok_and(|(count, run)| {
                cost.add_run(&run);
                count == oracle.count(v, PROBE_RADIUS)
            });
            out.check(ok, || format!("dense probe on {v:?}"));

            let (buckets, width) = (256, sdh_width(256));
            let spec = HistogramSpec::new(buckets, width * buckets as f32);
            let top = rec.begin("apps.sdh", "sdh_gpu", req + 1);
            let got = sdh_traced(&mut dev, pts, Euclidean, spec, plan, &mut rec, req + 1);
            rec.end(top);
            let ok = got.is_ok_and(|(h, runs)| {
                runs.iter().for_each(|r| cost.add_run(r));
                h == *oracle.histogram(v, buckets, width)
            });
            out.check(ok, || format!("SDH probe on {v:?}"));
            cost.pairs += 2 * half_pairs(pts.len());
            queries += 2.0;

            let r_max = GRIDDED[GRIDDED.len() - 1];
            let top = rec.begin("apps.gridded", "gridded", req + 2);
            let cat = rec.span("apps.gridded", "build", req + 2, || {
                GriddedCatalog::build_self(&mut dev, pts, r_max, &GridOptions::default())
            });
            let got = rec.span("apps.gridded", "sweep", req + 2, || {
                gridded_count_within_multi(&mut dev, &cat, &GRIDDED, plan)
            });
            rec.end(top);
            let ok = got.is_ok_and(|(counts, run)| {
                grid_runs.push(run);
                GRIDDED
                    .iter()
                    .zip(&counts)
                    .all(|(&r, &c)| c == oracle.count(v, r))
            });
            out.check(ok, || format!("gridded probe on {v:?}"));
        }
        let spans = rec.into_spans();
        let per_query = |name: &str| {
            let total: f64 = spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::secs)
                .sum();
            total / queries
        };
        cost.exec_metrics(queries, per_query("launch"), device, &mut out.layers);
        out.layers
            .set("gpu_sim.mem.upload_s", per_query("upload"), "s");
        grid_metrics(&grid_runs[..grid_runs.len().min(1)], &mut out.layers);
        spans
    }
}

/// Untraced-run latencies beyond the median: the highest of p99, p98,
/// p95 and p90 that has at least [`MIN_BEYOND`] samples beyond it, the
/// sample count, and each kind's median.
fn latency_detail(records: &[Record], out: &mut Outcome) {
    let lat: Vec<f64> = records.iter().map(|r| r.latency_s).collect();
    out.detail
        .set("apps.serve.samples", lat.len() as f64, "count");
    let tail = [99, 98, 95, 90]
        .into_iter()
        .find(|&p| beyond(lat.len(), p as f64 / 100.0) >= MIN_BEYOND);
    if let Some(p) = tail {
        let ms = percentile(&lat, p as f64 / 100.0) * 1e3;
        out.detail.set(format!("apps.serve.p{p}_ms"), ms, "ms");
    }
    for (kind, _, _) in MIX {
        let of_kind: Vec<f64> = records
            .iter()
            .filter(|r| r.op.kind() == kind)
            .map(|r| r.latency_s)
            .collect();
        if !of_kind.is_empty() {
            let name = format!("apps.serve.p50_ms.{}", kind.name());
            out.detail.set(name, percentile(&of_kind, 0.5) * 1e3, "ms");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_sequence_is_reproducible_from_the_seed() {
        let ops = |seed, client| {
            let mut s = OpStream::new(seed, client);
            (0..500).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(ops(7, 0), ops(7, 0));
        assert_ne!(ops(7, 0), ops(8, 0));
        assert_ne!(ops(7, 0), ops(7, 1));
        // Every 100 ops of client 0 hold the mix exactly, per kind and
        // dataset; client 1 sends PairCounts where client 0 re-registers.
        let on = |ops: &[Op], kind, want: Ds| {
            let ds = |o: &Op| match o {
                Op::Query { ds, .. } | Op::Batch { ds, .. } => *ds,
                Op::Register => Ds::Md,
            };
            let hit = |o: &&Op| o.kind() == kind && ds(o) == want;
            ops.iter().filter(hit).count()
        };
        let (zero, one) = (ops(7, 0), ops(7, 1));
        for (kind, galaxies, md) in MIX {
            let register = usize::from(kind == Kind::Register);
            let got = [Ds::Galaxies, Ds::Md].map(|ds| on(&zero[100..200], kind, ds));
            assert_eq!(got, [galaxies - register, md + register], "{kind:?}");
        }
        let count = |ops: &[Op], kind| on(ops, kind, Ds::Galaxies) + on(ops, kind, Ds::Md);
        assert_eq!(count(&one, Kind::Register), 0);
        assert_eq!(count(&one, Kind::PairCounts), 5 * 37);
    }

    #[test]
    fn oracle_accepts_either_md_version_and_rejects_off_by_one() {
        let galaxies = tbs_datagen::uniform_points::<3>(64, BOX, 1);
        let md0 = tbs_datagen::uniform_points::<3>(64, BOX, 2);
        // Every pair of md1 lies within any radius: 64·63/2 pairs.
        let md1 = SoaPoints::from_points(&[[1.0, 2.0, 3.0]; 64]);
        let mut oracle = Oracle::new(&galaxies, [&md0, &md1]);
        let op = Op::Query {
            kind: Kind::PairCounts,
            ds: Ds::Md,
            query: Query::PairCounts { radii: vec![10.0] },
        };
        let reply = |c| Reply::One(Ok(QueryResult::Counts(vec![c])));
        let c0 = tbs_cpu::count_within_reference(&md0, 10.0);
        assert_ne!(c0, 2016);
        assert!(oracle.check(&op, &reply(c0)));
        assert!(oracle.check(&op, &reply(2016)));
        assert!(!oracle.check(&op, &reply(2017)));
        assert!(!oracle.check(&op, &reply(c0 + 1)));
        // A galaxies reply must match galaxies.
        let on_galaxies = Op::Query {
            kind: Kind::PairCounts,
            ds: Ds::Galaxies,
            query: Query::PairCounts { radii: vec![10.0] },
        };
        assert!(!oracle.check(&on_galaxies, &reply(2016)));
        // Invalid queries must be rejected with BadQuery, nothing else.
        let bad = Op::Query {
            kind: Kind::Rejected,
            ds: Ds::Md,
            query: invalid(0),
        };
        assert!(oracle.check(&bad, &Reply::One(Err(ServeError::BadQuery("x")))));
        assert!(!oracle.check(&bad, &Reply::One(Err(ServeError::Closed))));
    }
}
