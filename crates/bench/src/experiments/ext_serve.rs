//! **Query-service SLOs** — wall-clock behavior of the `tbs-serve`
//! batched/sharded/concurrent serving layer (extension study; the paper
//! stops at one-shot kernels, its "millions of users" motivation is
//! exactly this serving scenario).
//!
//! Like `hotpath`, this measures *this machine*, not the modeled GPU.
//! Five SLO legs:
//!
//! * **Coalescing throughput**: k batchable queries (a 2-PCF radius
//!   ladder plus dense count-within probes) against one
//!   dataset, submitted one-at-a-time (k sharded sweeps) vs as one
//!   admission batch (one sharded sweep feeding every sink), in
//!   [`RATIO_ROUNDS`] alternating rounds on one server after the shard
//!   upload. Every round asserts the batched answers bit-identical to
//!   the sequential ones; `batched_vs_sequential.nN = T_seq / T_batch`
//!   over each side's best round is the service's headline multiplier
//!   (k sweeps of work collapse into ~1).
//! * **SDH-heavy coalescing**: the same leg on a histogram-dominated
//!   mix ([`sdh_queries`]) — mostly clients asking the *popular* SDH
//!   geometry, plus a custom-geometry client and count probes. A
//!   histogram sink replays the whole bucket-scatter per pair, so
//!   distinct-spec SDH sinks cannot amortize the way count sinks do;
//!   the multiplier here certifies the batcher's identical-spec sink
//!   dedup plus the compiled multi-consumer sweep
//!   (`batched_vs_sequential_sdh.nN`).
//! * **Gridded coalescing**: a burst of gridded count-within clients
//!   ([`gridded_queries`]) — one at a time each pays its own packed
//!   sweep (and, in the first round, its covering-grid build); as one
//!   batch they collapse into a single packed multi-radius sweep over
//!   one shared covering catalog (`batched_vs_sequential_gridded.nN`).
//! * **Latency distribution**: m single queries at a CI-sized dataset;
//!   p50/p99 wall-clock per round-trip (admission → merged reply).
//! * **Cache effectiveness**: the shard-upload cache hit rate across
//!   the throughput leg — repeat queries must not re-upload.
//!
//! The perf gate runs it at N = 16384 and pins the multipliers, a p99
//! ceiling, and a hit-rate floor (group `host`).

use std::time::Instant;

use crate::report::{Cell, Report, ReportError, SeriesTable};
use tbs_apps::serve::{Query, QueryResult, ServeConfig, Server, ServerStats};
use tbs_datagen::uniform_points;

pub const BOX: f32 = 100.0;
pub const SEED: u64 = 17;
/// Workers (= shards) the measured server runs.
pub const WORKERS: usize = 2;
/// Alternating rounds of each coalescing leg (one sequential pass, then
/// one batched pass); each side reports its best round, so a slow
/// stretch of the host during one pass does not land on one side only.
pub const RATIO_ROUNDS: usize = 3;
/// Single-query round-trips in the latency leg.
pub const LATENCY_PROBES: usize = 40;

/// The k = 12 batchable queries of the throughput leg: a 2-PCF radius
/// ladder (ten `PairCounts` clients probing different separation bins —
/// the paper's "millions of users each asking their own r" scenario)
/// plus two dense count-within probes: 16 sinks total, all coalescible
/// into one multi-consumer sweep. Histogram queries batch too (the
/// differential and service tests pin their bit-identity), but their
/// per-sink scatter accounting is itself sweep-sized, so the
/// throughput SLO measures the count-shaped mix where coalescing pays.
pub fn ratio_queries() -> Vec<Query> {
    vec![
        Query::PairCounts {
            radii: vec![2.0, 4.0],
        },
        Query::PairCounts {
            radii: vec![6.0, 9.0],
        },
        Query::PairCounts {
            radii: vec![12.0, 16.0],
        },
        Query::PairCounts {
            radii: vec![21.0, 27.0],
        },
        Query::PairCounts { radii: vec![25.0] },
        Query::PairCounts { radii: vec![34.0] },
        Query::PairCounts { radii: vec![42.0] },
        Query::PairCounts { radii: vec![55.0] },
        Query::PairCounts { radii: vec![70.0] },
        Query::PairCounts { radii: vec![85.0] },
        Query::CountWithin {
            radius: 8.0,
            gridded: false,
        },
        Query::CountWithin {
            radius: 30.0,
            gridded: false,
        },
    ]
}

/// The k = 12 queries of the SDH-heavy throughput leg: eight clients
/// asking the popular 256-bucket full-diagonal histogram (the paper's
/// fan-in shape — many users, one canonical geometry), two asking a
/// custom half-resolution variant, and two count probes riding along.
/// The batcher dedups the popular spec onto one histogram sink, so the
/// coalesced sweep feeds 2 histogram + 2 count sinks instead of
/// replaying ten sweep-sized bucket scatters.
pub fn sdh_queries() -> Vec<Query> {
    let popular_width = tbs_datagen::box_diagonal(BOX, 3) / 256.0;
    let mut queries = vec![
        Query::Sdh {
            buckets: 256,
            width: popular_width,
        };
        8
    ];
    queries.extend([
        Query::Sdh {
            buckets: 128,
            width: popular_width * 2.0,
        },
        Query::Sdh {
            buckets: 128,
            width: popular_width * 2.0,
        },
        Query::PairCounts {
            radii: vec![12.0, 30.0],
        },
        Query::CountWithin {
            radius: 50.0,
            gridded: false,
        },
    ]);
    queries
}

/// The k = 12 gridded count-within clients of the gridded coalescing
/// leg: a radius ladder in the grid's regime (r small against the box),
/// every query routed through the uniform grid. Submitted one at a
/// time, each pays its own packed sweep — and each new radius its own
/// covering-grid build, until the worker caches hold a grid for every
/// radius; as one batch they coalesce into a single packed
/// multi-radius sweep over one shared covering catalog.
pub fn gridded_queries() -> Vec<Query> {
    (0..12)
        .map(|i| Query::CountWithin {
            radius: 2.0 + i as f32 * 0.5,
            gridded: true,
        })
        .collect()
}

/// One dataset size's coalescing measurement.
#[derive(Debug, Clone)]
pub struct ServeSample {
    pub n: usize,
    /// Queries coalesced (k).
    pub k: usize,
    /// Sinks the coalesced sweep fed.
    pub sinks: usize,
    /// Wall-clock seconds for k one-at-a-time submissions, best of
    /// [`RATIO_ROUNDS`].
    pub sequential_s: f64,
    /// Wall-clock seconds for the same k queries as one batch, best of
    /// [`RATIO_ROUNDS`].
    pub batched_s: f64,
    /// Service counters after every round.
    pub stats: ServerStats,
}

impl ServeSample {
    /// The coalescing multiplier: k sweeps of work over ~1.
    pub fn batched_vs_sequential(&self) -> f64 {
        self.sequential_s / self.batched_s
    }
}

/// Run the throughput leg at dataset size `n` on the count-shaped
/// [`ratio_queries`] mix: after one untimed query pays the shard
/// upload, [`RATIO_ROUNDS`] rounds of the k queries one at a time and
/// then as one coalesced batch, each round asserting the answers
/// bit-identical; each side keeps its best round.
pub fn measure_ratio(n: usize) -> ServeSample {
    measure_ratio_queries(n, ratio_queries())
}

/// The same throughput leg on the SDH-heavy [`sdh_queries`] mix.
pub fn measure_ratio_sdh(n: usize) -> ServeSample {
    measure_ratio_queries(n, sdh_queries())
}

/// The same throughput leg on the gridded [`gridded_queries`] mix: one
/// packed multi-radius sweep over a shared covering catalog vs twelve
/// solo gridded round-trips.
pub fn measure_ratio_gridded(n: usize) -> ServeSample {
    let queries = gridded_queries();
    // Gridded queries coalesce outside the dense SinkPlan: the shared
    // sweep feeds one count sink per query radius.
    let sinks = queries.len();
    measure_ratio_with_sinks(n, queries, sinks)
}

fn measure_ratio_queries(n: usize, queries: Vec<Query>) -> ServeSample {
    // Sinks of the coalesced sweep as the batcher actually plans it
    // (histogram-sink dedup included).
    let sinks = tbs_apps::serve::planned_sinks(&queries);
    measure_ratio_with_sinks(n, queries, sinks)
}

fn measure_ratio_with_sinks(n: usize, queries: Vec<Query>, sinks: usize) -> ServeSample {
    let pts = uniform_points::<3>(n, BOX, SEED);
    let cfg = ServeConfig::default().with_workers(WORKERS);
    Server::run(cfg, |h| {
        h.register_dataset("d", pts.clone()).expect("register");
        // The shard upload is paid once, before any timed pass.
        h.submit("d", queries[0].clone()).expect("upload query");
        let (mut sequential_s, mut batched_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..RATIO_ROUNDS {
            let t0 = Instant::now();
            let sequential: Vec<QueryResult> = queries
                .iter()
                .map(|q| h.submit("d", q.clone()).expect("sequential query"))
                .collect();
            sequential_s = sequential_s.min(t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            let batched = h.submit_batch("d", queries.clone()).expect("batch");
            batched_s = batched_s.min(t1.elapsed().as_secs_f64());
            assert_eq!(
                sequential, batched,
                "coalesced answers must be bit-identical to sequential ones (N = {n})"
            );
        }
        let stats = h.stats().expect("stats");
        ServeSample {
            n,
            k: queries.len(),
            sinks,
            sequential_s,
            batched_s,
            stats,
        }
    })
}

/// The latency leg's percentile summary (milliseconds).
#[derive(Debug, Clone)]
pub struct LatencySample {
    pub n: usize,
    pub probes: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

/// Round-trip latency of `LATENCY_PROBES` single queries at dataset
/// size `n` (radii cycle so the distance kernel, not one lucky count,
/// is what's timed; the first probe's shard upload is included — cold
/// starts are part of the SLO).
pub fn measure_latency(n: usize) -> LatencySample {
    let pts = uniform_points::<3>(n, BOX, SEED + 1);
    let radii = [3.0f32, 7.0, 12.0, 18.0, 25.0, 33.0, 42.0, 55.0];
    let cfg = ServeConfig::default().with_workers(WORKERS);
    Server::run(cfg, |h| {
        h.register_dataset("ci", pts.clone()).expect("register");
        let mut lat_ms: Vec<f64> = (0..LATENCY_PROBES)
            .map(|i| {
                let q = Query::PairCounts {
                    radii: vec![radii[i % radii.len()]],
                };
                let t = Instant::now();
                h.submit("ci", q).expect("latency probe");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        lat_ms.sort_by(|a, b| a.total_cmp(b));
        let pick = |q: f64| lat_ms[((lat_ms.len() as f64 * q).ceil() as usize).max(1) - 1];
        LatencySample {
            n,
            probes: LATENCY_PROBES,
            p50_ms: pick(0.50),
            p99_ms: pick(0.99),
        }
    })
}

/// Build the `ext_serve` report: one count-mix throughput row per entry
/// of `ratio_sizes`, one SDH-heavy row per entry of `sdh_sizes`, one
/// gridded coalescing row at the first ratio size, one latency
/// summary at `latency_n`.
pub fn build_report(
    ratio_sizes: &[usize],
    sdh_sizes: &[usize],
    latency_n: usize,
) -> Result<Report, ReportError> {
    let samples: Vec<ServeSample> = ratio_sizes.iter().map(|&n| measure_ratio(n)).collect();
    let sdh: Vec<ServeSample> = sdh_sizes.iter().map(|&n| measure_ratio_sdh(n)).collect();
    let gridded = [measure_ratio_gridded(ratio_sizes[0])];
    let latency = measure_latency(latency_n);
    let mut rep = Report::new(
        "ext_serve",
        "Query service: coalescing, latency, cache SLOs",
    )
    .with_context(&format!(
        "tbs-serve, {WORKERS} workers/shards, k = 12 batchable queries (16 sinks) \
             plus the k = 12 SDH-heavy mix (5 deduped sinks), \
             {LATENCY_PROBES} latency probes at N = {latency_n}, uniform 100^3 box"
    ));

    let columns = [
        "N",
        "k",
        "sinks",
        "sequential",
        "batched",
        "batched vs sequential",
        "cache hit rate",
    ];
    let coalescing_row = |s: &ServeSample| {
        vec![
            Cell::int(s.n as u64),
            Cell::int(s.k as u64),
            Cell::int(s.sinks as u64),
            Cell::secs(s.sequential_s),
            Cell::secs(s.batched_s),
            Cell::x(s.batched_vs_sequential()),
            Cell::pct(s.stats.cache_hit_rate()),
        ]
    };
    let mut t = SeriesTable::new("coalescing", &columns);
    for s in &samples {
        t.row(coalescing_row(s));
    }
    rep.push_table(t);

    let mut st = SeriesTable::new("coalescing (SDH-heavy)", &columns);
    for s in &sdh {
        st.row(coalescing_row(s));
    }
    rep.push_table(st);

    let mut gt = SeriesTable::new("coalescing (gridded)", &columns);
    for s in &gridded {
        gt.row(coalescing_row(s));
    }
    rep.push_table(gt);

    let mut lt = SeriesTable::new("latency", &["N", "probes", "p50", "p99"]);
    lt.row(vec![
        Cell::int(latency.n as u64),
        Cell::int(latency.probes as u64),
        Cell::num(latency.p50_ms, format!("{:.1} ms", latency.p50_ms)),
        Cell::num(latency.p99_ms, format!("{:.1} ms", latency.p99_ms)),
    ]);
    rep.push_table(lt);

    for s in &samples {
        rep.metric(
            &format!("batched_vs_sequential.n{}", s.n),
            s.batched_vs_sequential(),
            "x",
        )?;
    }
    for s in &sdh {
        rep.metric(
            &format!("batched_vs_sequential_sdh.n{}", s.n),
            s.batched_vs_sequential(),
            "x",
        )?;
    }
    for s in &gridded {
        rep.metric(
            &format!("batched_vs_sequential_gridded.n{}", s.n),
            s.batched_vs_sequential(),
            "x",
        )?;
    }
    // The cache SLO comes from the first (gate) size.
    let gate = &samples[0];
    rep.metric("cache_hit_rate", gate.stats.cache_hit_rate(), "ratio")?;
    rep.metric("coalesced_queries", gate.stats.coalesced_queries as f64, "")?;
    rep.metric(
        &format!("p50_latency_ms.n{latency_n}"),
        latency.p50_ms,
        "ms",
    )?;
    rep.metric(
        &format!("p99_latency_ms.n{latency_n}"),
        latency.p99_ms,
        "ms",
    )?;

    rep.push_note(
        "Coalescing folds k same-dataset sweeps into one multi-consumer sweep \
         (bit-identical answers asserted in-run); the multiplier approaches k as \
         sink cost amortizes against the shared distance evaluation. Histogram \
         sinks replay their bucket scatter per pair, so the SDH-heavy leg's \
         multiplier comes from identical-spec sink dedup (the popular geometry \
         collapses onto one sink) on top of the shared sweep. The gridded leg \
         coalesces a burst of gridded count-withins into one packed multi-radius \
         sweep over a shared covering catalog (sequential submissions each pay \
         their own sweep; grids built in the first round are cached). Each side \
         of a leg is its best of the alternating rounds. The hit-rate SLO \
         certifies repeat queries never re-upload shards; p99 includes the cold \
         first probe by design.",
    );
    Ok(rep)
}
