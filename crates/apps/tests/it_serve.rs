//! Differential suite for the query service: coalescing must be
//! invisible in the answers.
//!
//! The batcher's contract is that a coalesced multi-consumer sweep is
//! **bit-identical** to running each query alone — same counts, same
//! histogram buckets — for any admission mix, any shard split, any
//! worker count, and under both simulator exec modes. Counts and
//! histograms are integer-exact, so "equals the CPU reference" *is*
//! bit-identity; kNN and gridded answers equal their CPU references
//! too, and a scripted workload pins answers and simulated time across
//! exec modes.

use gpu_sim::{DeviceConfig, ExecMode};
use proptest::prelude::*;
use tbs_apps::serve::{Query, QueryResult, ServeConfig, ServeError, Server, ServerStats};
use tbs_core::histogram::HistogramSpec;
use tbs_core::point::SoaPoints;
use tbs_cpu::{count_within_reference, sdh_reference};

const BOX: f32 = 60.0;

#[derive(Debug, Clone, Copy)]
enum Layout {
    Uniform,
    Clustered,
    OnePoint,
}

fn catalog(layout: Layout, n: usize, seed: u64) -> SoaPoints<3> {
    match layout {
        Layout::Uniform => tbs_datagen::uniform_points(n, BOX, seed),
        Layout::Clustered => tbs_datagen::clustered_points(n, BOX, 5, 2.0, seed),
        Layout::OnePoint => SoaPoints::from_points(&vec![[3.0, 4.0, 5.0]; n]),
    }
}

/// The ground truth for one query: counts and histograms integer-exact,
/// kNN (`k ≤ 3`) from the CPU reference.
fn oracle(pts: &SoaPoints<3>, q: &Query) -> QueryResult {
    fn knn<const K: usize>(pts: &SoaPoints<3>) -> QueryResult {
        let (nbrs, dists) = tbs_apps::knn_reference::<3, K>(pts);
        QueryResult::Knn {
            neighbors: nbrs.iter().map(|a| a.to_vec()).collect(),
            distances: dists.iter().map(|a| a.to_vec()).collect(),
        }
    }
    match q {
        Query::PairCounts { radii } => QueryResult::Counts(
            radii
                .iter()
                .map(|&r| count_within_reference(pts, r))
                .collect(),
        ),
        Query::Sdh { buckets, width } => QueryResult::Histogram(sdh_reference(
            pts,
            HistogramSpec::new(*buckets, width * *buckets as f32),
        )),
        Query::CountWithin { radius, .. } => {
            QueryResult::Counts(vec![count_within_reference(pts, *radius)])
        }
        Query::Knn { k: 1 } => knn::<1>(pts),
        Query::Knn { k: 2 } => knn::<2>(pts),
        Query::Knn { k: 3 } => knn::<3>(pts),
        Query::Knn { k } => unreachable!("no oracle for k = {k}"),
    }
}

/// Every query kind: dense pair counts, SDH and count-within, gridded
/// count-within and kNN.
fn query_strategy() -> impl Strategy<Value = Query> {
    (
        0u32..5,
        prop::collection::vec(prop::sample::select(vec![2.0f32, 8.0, 15.0, 40.0]), 1..4),
        prop::sample::select(vec![1u32, 4, 16, 33]),
        prop::sample::select(vec![1.0f32, 2.5]),
        prop::sample::select(vec![5.0f32, 20.0]),
        1u32..4,
    )
        .prop_map(|(kind, radii, buckets, width, radius, k)| match kind {
            0 => Query::PairCounts { radii },
            1 => Query::Sdh { buckets, width },
            2 | 3 => Query::CountWithin {
                radius,
                gridded: kind == 3,
            },
            _ => Query::Knn { k },
        })
}

fn exec_strategy() -> impl Strategy<Value = ExecMode> {
    prop::sample::select(vec![
        ExecMode::Sequential,
        ExecMode::Parallel { threads: 2 },
    ])
}

fn layout_strategy() -> impl Strategy<Value = Layout> {
    prop::sample::select(vec![Layout::Uniform, Layout::Clustered, Layout::OnePoint])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The core service contract: a coalesced batch == one-at-a-time
    /// submissions == the CPU oracle, bit for bit, for any admission
    /// mix, worker count, shard split, and exec mode. A batch mixes
    /// dense, gridded and kNN queries, so dense and gridded sink
    /// batches fan in side by side with kNN orders in flight.
    #[test]
    fn batched_queries_equal_singles_and_oracles(
        n in 16usize..192,
        layout in layout_strategy(),
        seed in 0u64..1_000,
        queries in prop::collection::vec(query_strategy(), 1..5),
        workers in 1usize..4,
        shards in 1usize..5,
        exec in exec_strategy(),
    ) {
        let pts = catalog(layout, n, seed);
        let mut cfg = ServeConfig::default().with_workers(workers);
        cfg.shards = shards;
        cfg.device = DeviceConfig::titan_x().with_exec_mode(exec);
        Server::run(cfg, |h| {
            h.register_dataset("d", pts.clone()).expect("register");
            let batched = h.submit_batch("d", queries.clone()).expect("batch");
            prop_assert_eq!(batched.len(), queries.len());
            for (q, got) in queries.iter().zip(&batched) {
                let single = h.submit("d", q.clone()).expect("single");
                prop_assert_eq!(got, &single, "batched vs single mismatch for {:?}", q);
                prop_assert_eq!(got, &oracle(&pts, q), "oracle mismatch for {:?}", q);
            }
        });
    }
}

/// The same scripted workload on a sequential-exec server and a
/// parallel-exec server: answers AND accumulated simulated seconds must
/// be bit-identical (the engine's determinism contract extends through
/// the service).
#[test]
fn exec_modes_serve_identically() {
    let pts = tbs_datagen::uniform_points::<3>(512, BOX, 42);
    let script = |h: tbs_apps::serve::ServerHandle| {
        h.register_dataset("d", pts.clone()).expect("register");
        let mut results = h
            .submit_batch(
                "d",
                vec![
                    Query::PairCounts {
                        radii: vec![4.0, 9.0, 30.0],
                    },
                    Query::Sdh {
                        buckets: 24,
                        width: 2.0,
                    },
                    Query::CountWithin {
                        radius: 12.0,
                        gridded: false,
                    },
                ],
            )
            .expect("batch");
        results.push(
            h.submit(
                "d",
                Query::CountWithin {
                    radius: 12.0,
                    gridded: true,
                },
            )
            .expect("gridded"),
        );
        results.push(h.submit("d", Query::Knn { k: 3 }).expect("knn"));
        let stats = h.stats().expect("stats");
        (results, stats)
    };
    let mut cfg = ServeConfig::default().with_workers(2);
    cfg.device = DeviceConfig::titan_x().with_exec_mode(ExecMode::Sequential);
    let (seq_results, seq_stats) = Server::run(cfg.clone(), script);
    cfg.device = DeviceConfig::titan_x().with_exec_mode(ExecMode::Parallel { threads: 3 });
    let (par_results, par_stats) = Server::run(cfg, script);
    assert_eq!(seq_results, par_results);
    assert_eq!(
        seq_stats.sim_seconds.to_bits(),
        par_stats.sim_seconds.to_bits(),
        "simulated time must not depend on host parallelism"
    );
    assert_eq!(seq_stats.queries, par_stats.queries);
    assert_eq!(seq_stats.tasks, par_stats.tasks);

    // And the gridded route really pruned to the same integer count.
    assert_eq!(seq_results[2], seq_results[3]);
}

/// A burst of gridded count-withins coalesces into one packed sweep
/// over a shared covering catalog — and every count still equals its
/// solo run and the CPU oracle, bit for bit.
#[test]
fn gridded_queries_coalesce_and_stay_exact() {
    let pts = tbs_datagen::uniform_points::<3>(384, BOX, 23);
    let radii = [4.0f32, 11.0, 7.0, 11.0, 2.5];
    Server::run(ServeConfig::default().with_workers(2), |h| {
        h.register_dataset("d", pts.clone()).expect("register");
        let queries: Vec<Query> = radii
            .iter()
            .map(|&radius| Query::CountWithin {
                radius,
                gridded: true,
            })
            .collect();
        let before = h.stats().expect("stats");
        let batched = h.submit_batch("d", queries.clone()).expect("batch");
        let after = h.stats().expect("stats");
        assert_eq!(
            after.batches - before.batches,
            1,
            "the whole gridded burst must share one sweep"
        );
        assert_eq!(after.coalesced_queries - before.coalesced_queries, 5);
        assert_eq!(
            after.tasks - before.tasks,
            1,
            "a gridded order is one task: {after:?}"
        );
        for (q, got) in queries.iter().zip(&batched) {
            assert_eq!(got, &oracle(&pts, q), "oracle mismatch for {q:?}");
            let solo = h.submit("d", q.clone()).expect("solo");
            assert_eq!(got, &solo, "batched vs solo mismatch for {q:?}");
        }
        // Solo repeats ride the covering catalog built for the burst,
        // one gridded order (task) each.
        let final_stats = h.stats().expect("stats");
        assert_eq!(final_stats.tasks - after.tasks, radii.len() as u64);
        assert!(
            final_stats.cache_hits >= 5,
            "repeat gridded queries must reuse the covering grid: {final_stats:?}"
        );
    });
}

/// Concurrent clients hammering one server stay exact: every reply
/// equals the oracle no matter how the dispatcher interleaves or
/// coalesces the stream.
#[test]
fn concurrent_clients_get_exact_answers() {
    let pts = tbs_datagen::uniform_points::<3>(256, BOX, 7);
    let cfg = ServeConfig::default().with_workers(2);
    Server::run(cfg, |h| {
        h.register_dataset("d", pts.clone()).expect("register");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = h.clone();
                let pts = &pts;
                s.spawn(move || {
                    for i in 0..3u64 {
                        let radius = 3.0 + (t * 3 + i) as f32 * 2.0;
                        let q = Query::PairCounts {
                            radii: vec![radius],
                        };
                        let got = h.submit("d", q.clone()).expect("submit");
                        assert_eq!(got, oracle(pts, &q), "client {t} query {i}");
                    }
                });
            }
        });
        let stats = h.stats().expect("stats");
        assert_eq!(stats.queries, 12);
        assert!(
            stats.cache_hits > 0,
            "repeat queries must hit the shard cache: {stats:?}"
        );
    });
}

/// Admission is atomic per batch and precise per error.
#[test]
fn admission_errors_are_atomic_and_precise() {
    let pts = tbs_datagen::uniform_points::<3>(64, BOX, 1);
    Server::run(ServeConfig::default(), |h| {
        h.register_dataset("d", pts.clone()).expect("register");
        // Unknown dataset.
        match h.submit("nope", Query::Knn { k: 2 }) {
            Err(ServeError::UnknownDataset(name)) => assert_eq!(name, "nope"),
            other => panic!("expected UnknownDataset, got {other:?}"),
        }
        // One bad member rejects the whole batch — including the valid
        // members, which must not run.
        let before = h.stats().expect("stats");
        let res = h.submit_batch(
            "d",
            vec![
                Query::PairCounts { radii: vec![5.0] },
                Query::Sdh {
                    buckets: 0,
                    width: 1.0,
                },
            ],
        );
        assert!(matches!(res, Err(ServeError::BadQuery(_))), "{res:?}");
        let after = h.stats().expect("stats");
        assert_eq!(
            before.batches, after.batches,
            "a rejected batch must not launch a sweep"
        );
        // Parameter validation catches each bad shape.
        for bad in [
            Query::PairCounts { radii: vec![] },
            Query::PairCounts {
                radii: vec![f32::NAN],
            },
            Query::CountWithin {
                radius: -1.0,
                gridded: false,
            },
            Query::Knn { k: 0 },
            Query::Knn { k: 9 },
            Query::Knn { k: 64 },
        ] {
            assert!(
                matches!(h.submit("d", bad.clone()), Err(ServeError::BadQuery(_))),
                "{bad:?} must be rejected"
            );
        }
    });
}

/// An empty batch is answered at once: no results on a registered
/// dataset, `UnknownDataset` on any other, and no counter moves.
#[test]
fn empty_batches_are_answered() {
    let pts = tbs_datagen::uniform_points::<3>(64, BOX, 2);
    Server::run(ServeConfig::default().with_workers(2), |h| {
        h.register_dataset("d", pts.clone()).expect("register");
        let before = h.stats().expect("stats");
        assert_eq!(h.submit_batch("d", Vec::new()), Ok(Vec::new()));
        match h.submit_batch("nope", Vec::new()) {
            Err(ServeError::UnknownDataset(name)) => assert_eq!(name, "nope"),
            other => panic!("expected UnknownDataset, got {other:?}"),
        }
        assert_eq!(h.stats().expect("stats"), before);
        let q = Query::PairCounts { radii: vec![9.0] };
        assert_eq!(h.submit("d", q.clone()).expect("served"), oracle(&pts, &q));
    });
}

/// `(queries, batches, coalesced_queries, tasks, cache_hits,
/// cache_misses)` moved between two stats snapshots.
fn counter_deltas(before: &ServerStats, after: &ServerStats) -> [u64; 6] {
    [
        after.queries - before.queries,
        after.batches - before.batches,
        after.coalesced_queries - before.coalesced_queries,
        after.tasks - before.tasks,
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
    ]
}

/// The exact counter moves of a mixed batch on two workers and two
/// shards. Three dense queries share one sweep of three shard tasks
/// (two self joins, one cross join) sent as one order to each worker;
/// two gridded count-withins share one packed order; the kNN query
/// counts as neither a batch nor a task. Each sweep order probes its
/// worker's shard cache once and the gridded order the grid cache
/// once; kNN probes no cache.
#[test]
fn mixed_batch_moves_the_counters_exactly() {
    let pts = tbs_datagen::uniform_points::<3>(256, BOX, 9);
    let batch = vec![
        Query::PairCounts {
            radii: vec![5.0, 10.0],
        },
        Query::Knn { k: 2 },
        Query::Sdh {
            buckets: 16,
            width: 2.0,
        },
        Query::CountWithin {
            radius: 5.0,
            gridded: true,
        },
        Query::CountWithin {
            radius: 7.0,
            gridded: false,
        },
        Query::CountWithin {
            radius: 9.0,
            gridded: true,
        },
    ];
    Server::run(ServeConfig::default().with_workers(2), |h| {
        h.register_dataset("d", pts.clone()).expect("register");
        let mut before = h.stats().expect("stats");
        for want in [[6, 2, 5, 4, 0, 3], [6, 2, 5, 4, 3, 0]] {
            let got = h.submit_batch("d", batch.clone()).expect("batch");
            for (q, r) in batch.iter().zip(&got) {
                assert_eq!(r, &oracle(&pts, q), "{q:?}");
            }
            let after = h.stats().expect("stats");
            assert_eq!(counter_deltas(&before, &after), want, "{after:?}");
            before = after;
        }
        // A lone dense query is a batch of one: not coalesced.
        h.submit("d", batch[4].clone()).expect("single");
        let after = h.stats().expect("stats");
        assert_eq!(counter_deltas(&before, &after), [1, 1, 0, 3, 2, 0]);
    });
}

/// Two SDH queries whose private histograms each fit a block's shared
/// memory beside the point tile, but not together, still answer exactly
/// when coalesced: the batcher splits them into two sweeps. A histogram
/// too large to fit even alone is refused at admission.
#[test]
fn large_histograms_split_into_sweeps_and_oversized_ones_are_refused() {
    let pts = tbs_datagen::uniform_points::<3>(2048, BOX, 21);
    // 6000 and 6001 buckets: 24000 + 24004 B of histograms, plus a
    // 256-point tile (3072 B), exceed the 48 KiB block limit together.
    let sdh = |buckets| Query::Sdh {
        buckets,
        width: 0.02,
    };
    let (a, b) = (sdh(6000), sdh(6001));
    Server::run(ServeConfig::default(), |h| {
        h.register_dataset("d", pts.clone()).expect("register");
        for q in [&a, &b] {
            assert_eq!(h.submit("d", q.clone()).expect("alone"), oracle(&pts, q));
        }
        let before = h.stats().expect("stats");
        let got = h
            .submit_batch("d", vec![a.clone(), b.clone()])
            .expect("batched");
        assert_eq!(got, vec![oracle(&pts, &a), oracle(&pts, &b)]);
        let after = h.stats().expect("stats");
        assert_eq!(after.batches, before.batches + 1, "one coalesced batch");
        // 11521 buckets (46084 B) cannot fit beside the tile even alone.
        for q in [sdh(11_521), sdh(u32::MAX)] {
            let got = h.submit("d", q.clone());
            assert!(
                matches!(got, Err(ServeError::BadQuery(_))),
                "{q:?}: {got:?}"
            );
        }
        // 11520 buckets (46080 B) fill the budget exactly.
        let edge = Query::Sdh {
            buckets: 11_520,
            width: 0.01,
        };
        assert_eq!(
            h.submit("d", edge.clone()).expect("fits"),
            oracle(&pts, &edge)
        );
    });
}

/// Re-registering a dataset swaps the data *and* invalidates every
/// worker cache: answers reflect the new points immediately.
#[test]
fn reregistration_serves_fresh_data() {
    let a = tbs_datagen::uniform_points::<3>(128, BOX, 11);
    let b = tbs_datagen::uniform_points::<3>(96, BOX, 12);
    Server::run(ServeConfig::default().with_workers(2), |h| {
        let q = Query::PairCounts { radii: vec![10.0] };
        let g0 = h.register_dataset("d", a.clone()).expect("register a");
        assert_eq!(h.submit("d", q.clone()).expect("a"), oracle(&a, &q));
        let g1 = h.register_dataset("d", b.clone()).expect("register b");
        assert!(g1 > g0, "generation must advance on re-registration");
        assert_eq!(h.submit("d", q.clone()).expect("b"), oracle(&b, &q));
        let stats = h.stats().expect("stats");
        assert_eq!(stats.datasets, 1, "same name re-registered");
    });
}

/// A registration with a non-finite coordinate is refused with a typed
/// error, keeps the dataset's previous revision, and leaves every
/// worker serving.
#[test]
fn non_finite_datasets_are_refused_at_registration() {
    let good = tbs_datagen::uniform_points::<3>(96, BOX, 5);
    Server::run(ServeConfig::default().with_workers(2), |h| {
        h.register_dataset("d", good.clone()).expect("register");
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut pts = good.clone();
            pts.push([1.0, bad, 2.0]);
            for name in ["d", "fresh"] {
                let got = h.register_dataset(name, pts.clone());
                assert!(matches!(got, Err(ServeError::BadDataset(_))), "{got:?}");
            }
        }
        assert!(matches!(
            h.submit("fresh", Query::Knn { k: 1 }),
            Err(ServeError::UnknownDataset(_))
        ));
        // The gridded route bins the points, which is where a NaN used
        // to take a worker down.
        for gridded in [true, false] {
            let q = Query::CountWithin {
                radius: 9.0,
                gridded,
            };
            assert_eq!(h.submit("d", q.clone()).expect("served"), oracle(&good, &q));
        }
        assert_eq!(h.stats().expect("stats").datasets, 1);
    });
}

/// The soak's datasets: `(name, size, layout)`. Every revision of a
/// dataset keeps its size, so a round's caches hold the same bytes.
const SOAK_SETS: [(&str, usize, Layout); 2] = [
    ("uni", 160, Layout::Uniform),
    ("clu", 128, Layout::Clustered),
];

/// The largest radius the soak asks for; the warm-up caches a grid at it.
const SOAK_R: f32 = 24.0;

/// Register every soak dataset at `revision`, then run the warm-up
/// orders (one dense sweep on every worker, one gridded catalog at
/// [`SOAK_R`]) and check their answers.
fn soak_warm_up(h: &tbs_apps::serve::ServerHandle, revision: u64) -> Vec<SoaPoints<3>> {
    SOAK_SETS
        .iter()
        .enumerate()
        .map(|(i, &(name, n, layout))| {
            let pts = catalog(layout, n, 1000 * revision + i as u64);
            h.register_dataset(name, pts.clone()).expect("register");
            for gridded in [false, true] {
                let q = Query::CountWithin {
                    radius: SOAK_R,
                    gridded,
                };
                assert_eq!(
                    h.submit(name, q.clone()).expect("warm-up"),
                    oracle(&pts, &q)
                );
            }
            pts
        })
        .collect()
}

/// The `i`-th soak query: kinds and datasets rotate, and every radius
/// (and SDH width) is new, so gridded queries keep building catalogs.
fn soak_query(i: usize, total: usize) -> Query {
    let r = 1.0 + (SOAK_R - 1.0) * i as f32 / total as f32;
    match i % 6 {
        0 => Query::PairCounts {
            radii: vec![r, r * 0.5],
        },
        1 => Query::Sdh {
            buckets: 4 + (i % 29) as u32,
            width: r / 4.0,
        },
        2 => Query::CountWithin {
            radius: r,
            gridded: false,
        },
        3 | 4 => Query::CountWithin {
            radius: r,
            gridded: true,
        },
        _ => Query::Knn {
            k: 1 + (i % 3) as u32,
        },
    }
}

/// Soak the service: `rounds` rounds in which two concurrent clients
/// each send `ops` mixed queries (singly and in pairs) with distinct
/// radii, after which every dataset is re-registered and warmed up
/// again. Every reply must equal its oracle, and once each round's
/// warm-up is done the workers' live device bytes must be back at
/// their level after the first warm-up: temporaries and evicted cache
/// entries are all freed.
fn soak(rounds: usize, ops: usize) {
    let total = rounds * 2 * ops;
    Server::run(ServeConfig::default().with_workers(2), |h| {
        let mut current = soak_warm_up(&h, 0);
        let level = h.stats().expect("stats").device_bytes;
        assert!(level > 0, "the warm-up caches uploads");
        let mut sent = h.stats().expect("stats").queries;
        for round in 0..rounds {
            let current_ref = &current;
            let answered: usize = std::thread::scope(|s| {
                let clients: Vec<_> = (0..2)
                    .map(|c| {
                        let h = h.clone();
                        s.spawn(move || {
                            let mut answered = 0;
                            let mut j = 0;
                            while j < ops {
                                let i = (round * 2 + c) * ops + j;
                                let (name, _, _) = SOAK_SETS[i % SOAK_SETS.len()];
                                let pts = &current_ref[i % SOAK_SETS.len()];
                                let pair = j + 1 < ops && i.is_multiple_of(5);
                                let qs: Vec<Query> = (i..i + 1 + pair as usize)
                                    .map(|i| soak_query(i, total))
                                    .collect();
                                let got = if pair {
                                    h.submit_batch(name, qs.clone()).expect("batch")
                                } else {
                                    vec![h.submit(name, qs[0].clone()).expect("query")]
                                };
                                assert_eq!(got.len(), qs.len());
                                for (q, r) in qs.iter().zip(&got) {
                                    assert_eq!(r, &oracle(pts, q), "round {round}: {q:?}");
                                }
                                answered += qs.len();
                                j += qs.len();
                            }
                            answered
                        })
                    })
                    .collect();
                clients.into_iter().map(|c| c.join().expect("client")).sum()
            });
            assert_eq!(answered, 2 * ops);
            current = soak_warm_up(&h, round as u64 + 1);
            let stats = h.stats().expect("stats");
            sent += (answered + 2 * SOAK_SETS.len()) as u64;
            assert_eq!(stats.queries, sent, "every query is answered once");
            assert_eq!(
                stats.device_bytes, level,
                "round {round}: device memory must return to its warm-up level"
            );
        }
    });
}

/// The soak at default-suite size: a few hundred queries.
#[test]
fn soak_keeps_device_memory_flat() {
    soak(6, 20);
}

/// The soak at full size, about 10k queries; run in release:
/// `cargo test --release -p tbs-apps --test it_serve -- --ignored`.
#[test]
#[ignore]
fn soak_keeps_device_memory_flat_over_ten_thousand_queries() {
    soak(160, 30);
}
