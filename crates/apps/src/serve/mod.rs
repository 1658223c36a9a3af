//! `tbs-serve` — a long-running 2-body-statistics query service layered
//! on the simulated-GPU engine (ROADMAP item 3, the "millions of users"
//! step).
//!
//! ## Shape
//!
//! ```text
//! clients ── mpsc ──► dispatcher ── mpsc ──► workers (one device each)
//!    ▲                   │  batcher + shard planner      │
//!    └──── replies ◄─────┴────────── merged results ◄────┘
//! ```
//!
//! * **Ingest/dispatch** ([`Server::run`]): clients hold a cloneable
//!   [`ServerHandle`] and talk to a single dispatcher thread over std
//!   `mpsc`. Every request is one shape, an atomic admission group (a
//!   single [`ServerHandle::submit`] is a group of one) carrying its own
//!   reply channel; the dispatcher tracks each admitted group by index,
//!   with one result slot per query, and replies the moment its last
//!   slot fills. The dispatcher drains bursts opportunistically, so
//!   concurrent clients' queries coalesce even when they never heard of
//!   each other.
//! * **Batcher** (`batch::SinkPlan`): queries that share a dataset and
//!   the Euclidean distance kernel flatten into the sink lists of one
//!   [`tbs_core::output::MultiQueryAction`] — one pairwise sweep feeds
//!   every consumer, and answers stay bit-identical to sequential runs.
//!   A dataset group's gridded count-withins get a sink plan of their
//!   own (one count sink per radius) and run as one packed multi-radius
//!   sweep over a shared covering [`crate::GriddedCatalog`] from the
//!   worker cache, on the dataset's affinity worker.
//! * **Shard planner**: each coalesced dense sweep is decomposed with
//!   the multi-GPU machinery ([`crate::multi_gpu`]) — contiguous chunks,
//!   self/cross tasks, LPT onto the worker pool.
//! * **One work order, one fan-in**: a worker order is a dataset
//!   revision plus a job — a dense sweep's shard tasks, a gridded
//!   sweep, or one kNN query — and every worker answers with the same
//!   reply. Dense and gridded batches fan in alike: sum the count sinks
//!   and merge the histogram sinks over the batch's replies (the
//!   decomposition is invisible in the results), then demultiplex
//!   through the sink plan, or fail every query of the batch.
//! * **Caches** (`cache::WorkerCache`): per-worker shard uploads and
//!   gridded catalogs keyed by dataset generation; re-registering a
//!   dataset bumps the generation and evicts stale entries.
//!
//! kNN runs monolithic on one worker (its f32 insertion order is not
//! re-shardable), one order per query.

mod batch;
mod cache;
mod query;

pub use query::{Query, QueryResult, ServeError};

/// Sinks the batcher's coalesced sweep would feed for `queries` (all
/// of which must be [`Query::batchable`]) — after histogram-sink dedup,
/// so benchmarks and capacity planning see the sweep the service
/// actually runs rather than the naive one-sink-per-query count.
pub fn planned_sinks(queries: &[Query]) -> usize {
    SinkPlan::plan(queries, u64::MAX).sinks()
}

/// Shared-memory bytes a block of the dense sweep has left for private
/// histograms beside its point tiles (Register-SHM self joins and the
/// bipartite cross kernel both hold one `block_size`-point 3-D tile).
fn hist_budget(cfg: &ServeConfig) -> u64 {
    (cfg.device.shared_mem_per_block as u64).saturating_sub(cfg.plan.block_size as u64 * 4 * 3)
}

/// Whether a histogram of `buckets` fits a sweep of its own under `cfg`
/// — the admission rule for SDH queries.
fn hist_fits(cfg: &ServeConfig, buckets: u32) -> bool {
    4 * buckets as u64 <= hist_budget(cfg)
}

use crate::driver::PairwisePlan;
use crate::knn::knn_gpu;
use crate::multi_gpu::{build_tasks, chunk_ranges, lpt_schedule, run_shard_task, SdhTask};
use batch::SinkPlan;
use cache::{DatasetKey, WorkerCache};
use gpu_sim::{Device, DeviceConfig};
use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use tbs_core::histogram::Histogram;
use tbs_core::point::SoaPoints;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; each owns one simulated device.
    pub workers: usize,
    /// Shards per dataset for the shard planner (defaults to
    /// `workers`). More shards → more, smaller tasks for LPT to balance.
    pub shards: usize,
    /// Pairwise plan for dense sweeps (block size, intra mode; self
    /// joins run Register-SHM, cross joins the bipartite SHM kernel).
    pub plan: PairwisePlan,
    /// Simulated device configuration for every worker.
    pub device: DeviceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            shards: 2,
            plan: PairwisePlan::register_shm(256),
            device: DeviceConfig::titan_x(),
        }
    }
}

impl ServeConfig {
    /// `workers` workers, `workers` shards.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self.shards = self.workers;
        self
    }
}

/// Service counters, returned by [`ServerHandle::stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStats {
    /// Datasets currently registered.
    pub datasets: u64,
    /// Queries answered (including failed ones).
    pub queries: u64,
    /// Coalesced sweeps executed.
    pub batches: u64,
    /// Queries that shared a sweep with at least one other query.
    pub coalesced_queries: u64,
    /// Sweep work orders sent to workers: one per self/cross shard
    /// task of a coalesced dense sweep, plus one per gridded order (a
    /// dataset group's gridded count-withins run as one packed sweep on
    /// one worker). kNN orders are not counted.
    pub tasks: u64,
    /// Worker cache probes that found their entry.
    pub cache_hits: u64,
    /// Worker cache probes that had to (re)build their entry.
    pub cache_misses: u64,
    /// Total simulated kernel seconds across all workers.
    pub sim_seconds: f64,
    /// Live bytes on the workers' simulated devices, summed over
    /// workers as of each one's latest reply: the cached shard uploads
    /// and grids of the current dataset generations (an order's
    /// temporaries are freed before it replies).
    pub device_bytes: u64,
}

impl ServerStats {
    /// Hit fraction of the worker caches (0 when never probed).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

// ---------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------

type Reply<T> = Sender<Result<T, ServeError>>;

enum Request {
    Register {
        name: String,
        pts: Arc<SoaPoints<3>>,
        reply: Reply<u64>,
    },
    /// An atomic admission group; a single query is a group of one.
    SubmitBatch {
        dataset: String,
        queries: Vec<Query>,
        reply: Reply<Vec<QueryResult>>,
    },
    Stats {
        reply: Sender<ServerStats>,
    },
    Shutdown,
}

/// A cloneable client handle; every method is a blocking round-trip to
/// the dispatcher (queries block until their results are merged).
#[derive(Clone)]
pub struct ServerHandle {
    tx: Sender<Request>,
}

impl ServerHandle {
    /// Register (or replace) dataset `name`; returns its generation.
    /// Re-registration bumps the generation, which evicts every cached
    /// shard upload and gridded catalog of the old revision.
    ///
    /// Every coordinate must be finite; a dataset with a NaN or infinite
    /// coordinate is refused with [`ServeError::BadDataset`] and the
    /// server keeps whatever was registered under `name` before.
    pub fn register_dataset(&self, name: &str, pts: SoaPoints<3>) -> Result<u64, ServeError> {
        if !(0..3).all(|d| pts.coord(d).iter().all(|x| x.is_finite())) {
            return Err(ServeError::BadDataset("coordinates must be finite"));
        }
        let (reply, rx) = channel();
        self.tx
            .send(Request::Register {
                name: name.to_string(),
                pts: Arc::new(pts),
                reply,
            })
            .map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Submit one query and block for its result: a batch of one.
    pub fn submit(&self, dataset: &str, query: Query) -> Result<QueryResult, ServeError> {
        let mut results = self.submit_batch(dataset, vec![query])?;
        Ok(results.pop().expect("one result per query"))
    }

    /// Submit an atomic admission group: either every query is admitted
    /// (and the batchable ones share one sweep), or the whole group is
    /// rejected. Blocks until all results are in; an empty group on a
    /// registered dataset answers at once with no results.
    pub fn submit_batch(
        &self,
        dataset: &str,
        queries: Vec<Query>,
    ) -> Result<Vec<QueryResult>, ServeError> {
        let (reply, rx) = channel();
        self.tx
            .send(Request::SubmitBatch {
                dataset: dataset.to_string(),
                queries,
                reply,
            })
            .map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)?
    }

    /// Snapshot the service counters.
    pub fn stats(&self) -> Result<ServerStats, ServeError> {
        let (reply, rx) = channel();
        self.tx
            .send(Request::Stats { reply })
            .map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)
    }

    /// Request graceful shutdown: queued work completes, then the
    /// dispatcher and workers exit. Idempotent.
    pub fn shutdown(&self) {
        let _ = self.tx.send(Request::Shutdown);
    }
}

// ---------------------------------------------------------------------
// Worker protocol
// ---------------------------------------------------------------------

/// One order for a worker: run `job` over the points of dataset
/// revision `key` and send the outcome on `reply`.
struct WorkOrder {
    key: DatasetKey,
    pts: Arc<SoaPoints<3>>,
    job: Job,
    reply: Sender<WorkerReply>,
}

enum Job {
    /// Shard `tasks` of a coalesced dense sweep feeding the count and
    /// histogram sinks of `sinks`, one launch per task and sweep of the
    /// plan.
    Sweep {
        shards: usize,
        tasks: Vec<SdhTask>,
        sinks: Arc<SinkPlan>,
    },
    /// Every gridded count-within of one dataset group: one packed
    /// multi-radius sweep over the cached covering catalog, one count
    /// sink per radius.
    Gridded { radii: Vec<f32> },
    /// One kNN query, monolithic on the worker.
    Knn { k: u32 },
}

/// What one order produced: the sink outputs of a sweep or gridded
/// order, in sink order (counts summed and histograms merged over the
/// order's launches), or the answer of a kNN order.
#[derive(Default)]
struct WorkOut {
    counts: Vec<u64>,
    hists: Vec<Histogram>,
    knn: Option<QueryResult>,
    sim_seconds: f64,
}

/// A worker's answer to one order: the outcome plus the worker's own
/// counters, sent on success and failure alike.
struct WorkerReply {
    out: Result<WorkOut, String>,
    /// Cache probes made by this order.
    cache_hits: u64,
    cache_misses: u64,
    /// Live bytes on the worker's device once the order is done.
    device_bytes: u64,
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// The query service. See the module docs for the architecture.
pub struct Server;

impl Server {
    /// Run a server with `cfg`, hand a [`ServerHandle`] to `client`,
    /// and shut everything down (gracefully) when `client` returns.
    /// Workers and dispatcher run as scoped threads; the client runs on
    /// the calling thread and may clone the handle into threads of its
    /// own.
    pub fn run<R>(cfg: ServeConfig, client: impl FnOnce(ServerHandle) -> R) -> R {
        let workers = cfg.workers.max(1);
        let (tx, rx) = channel::<Request>();
        std::thread::scope(|s| {
            let mut worker_txs = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (wtx, wrx) = channel::<WorkOrder>();
                worker_txs.push(wtx);
                let (device, plan) = (cfg.device.clone(), cfg.plan);
                s.spawn(move || worker_loop(device, plan, wrx));
            }
            let dcfg = cfg.clone();
            s.spawn(move || Dispatcher::new(dcfg, worker_txs).run(rx));
            let handle = ServerHandle { tx };
            let out = client(handle.clone());
            handle.shutdown();
            out
        })
    }
}

// ---------------------------------------------------------------------
// Dispatcher
// ---------------------------------------------------------------------

/// An admitted request awaiting its reply: one result slot per query.
/// It is answered the moment its last slot fills.
struct Pending {
    slots: Vec<Option<Result<QueryResult, ServeError>>>,
    missing: usize,
    reply: Reply<Vec<QueryResult>>,
}

impl Pending {
    fn fill(&mut self, slot: usize, result: Result<QueryResult, ServeError>) {
        self.slots[slot] = Some(result);
        self.missing -= 1;
        if self.missing == 0 {
            // The first failed slot, in query order, fails the request.
            let out = self.slots.drain(..).map(|s| s.expect("filled")).collect();
            let _ = self.reply.send(out);
        }
    }
}

/// One admitted query: slot `slot` of pending request `req`.
struct Admitted {
    req: usize,
    slot: usize,
    query: Query,
}

/// Where one order's reply arrives: the worker and its channel.
type Wait = (usize, Receiver<WorkerReply>);

/// A sink batch in flight: its queries, their sink plan and the orders
/// it went out as.
struct SinkBatch {
    queries: Vec<Admitted>,
    plan: Arc<SinkPlan>,
    waits: Vec<Wait>,
}

struct Dataset {
    gen: u64,
    pts: Arc<SoaPoints<3>>,
}

struct Dispatcher {
    cfg: ServeConfig,
    worker_txs: Vec<Sender<WorkOrder>>,
    datasets: HashMap<String, Dataset>,
    stats: ServerStats,
    /// Each worker's live device bytes, as of its latest reply.
    device_bytes: Vec<u64>,
    next_gen: u64,
    rr: usize,
}

impl Dispatcher {
    fn new(cfg: ServeConfig, worker_txs: Vec<Sender<WorkOrder>>) -> Self {
        Dispatcher {
            cfg,
            device_bytes: vec![0; worker_txs.len()],
            worker_txs,
            datasets: HashMap::new(),
            stats: ServerStats::default(),
            next_gen: 0,
            rr: 0,
        }
    }

    fn run(mut self, rx: Receiver<Request>) {
        while let Ok(first) = rx.recv() {
            // Drain the burst: everything already queued coalesces with
            // `first` (bounded so a flood cannot starve the replies).
            let mut burst = vec![first];
            while burst.len() < 1024 {
                match rx.try_recv() {
                    Ok(req) => burst.push(req),
                    Err(_) => break,
                }
            }
            let mut queue = std::collections::VecDeque::from(burst);
            while let Some(req) = queue.pop_front() {
                match req {
                    Request::Register { name, pts, reply } => {
                        let gen = self.next_gen;
                        self.next_gen += 1;
                        if self.datasets.insert(name, Dataset { gen, pts }).is_none() {
                            self.stats.datasets += 1;
                        }
                        let _ = reply.send(Ok(gen));
                    }
                    Request::Stats { reply } => {
                        let _ = reply.send(self.stats.clone());
                    }
                    Request::Shutdown => return,
                    submit => {
                        // Gather the consecutive run of submissions so
                        // same-dataset queries share sweeps; stop at the
                        // next register/stats/shutdown to keep ordering
                        // semantics simple.
                        let mut submits = vec![submit];
                        while matches!(queue.front(), Some(Request::SubmitBatch { .. })) {
                            submits.push(queue.pop_front().expect("just matched"));
                        }
                        self.process_submits(submits);
                    }
                }
            }
        }
    }

    /// Admission-check a run of submissions, then execute the admitted
    /// queries grouped by dataset (in order of first appearance, and
    /// in admission order within a group).
    fn process_submits(&mut self, submits: Vec<Request>) {
        let mut pending: Vec<Pending> = Vec::new();
        let mut groups: Vec<(String, Vec<Admitted>)> = Vec::new();
        let mut group_of: HashMap<String, usize> = HashMap::new();
        for req in submits {
            let Request::SubmitBatch {
                dataset,
                queries,
                reply,
            } = req
            else {
                unreachable!("process_submits only receives submissions")
            };
            // Atomic admission: any invalid member rejects the whole
            // group before any work is scheduled.
            if let Err(e) = self.admit(&dataset, &queries) {
                self.stats.queries += queries.len() as u64;
                let _ = reply.send(Err(e));
                continue;
            }
            if queries.is_empty() {
                let _ = reply.send(Ok(Vec::new()));
                continue;
            }
            let req = pending.len();
            pending.push(Pending {
                slots: vec![None; queries.len()],
                missing: queries.len(),
                reply,
            });
            let g = *group_of.entry(dataset).or_insert_with_key(|name| {
                groups.push((name.clone(), Vec::new()));
                groups.len() - 1
            });
            let admitted = queries.into_iter().enumerate();
            groups[g]
                .1
                .extend(admitted.map(|(slot, query)| Admitted { req, slot, query }));
        }
        for (name, group) in groups {
            self.run_dataset_group(&mut pending, &name, group);
        }
    }

    fn admit(&self, dataset: &str, queries: &[Query]) -> Result<(), ServeError> {
        let ds = self
            .datasets
            .get(dataset)
            .ok_or_else(|| ServeError::UnknownDataset(dataset.to_string()))?;
        for query in queries {
            query.validate(ds.pts.len())?;
            if let Query::Sdh { buckets, .. } = *query {
                if !hist_fits(&self.cfg, buckets) {
                    return Err(ServeError::BadQuery(
                        "SDH histogram does not fit a block's shared memory",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Execute one dataset's admitted queries: one coalesced dense
    /// sweep, one packed gridded sweep and one order per kNN query.
    /// Every order goes out before the first receive, so they all run
    /// across the worker pool at once; replies are received dense,
    /// gridded, then kNN.
    fn run_dataset_group(&mut self, pending: &mut [Pending], name: &str, group: Vec<Admitted>) {
        let ds = &self.datasets[name];
        let key: DatasetKey = (name.to_string(), ds.gen);
        let pts = ds.pts.clone();
        self.stats.queries += group.len() as u64;

        let (mut dense, mut gridded, mut knn) = (Vec::new(), Vec::new(), Vec::new());
        for a in group {
            match a.query {
                Query::Knn { k } => knn.push((k, a)),
                Query::CountWithin { gridded: true, .. } => gridded.push(a),
                _ => dense.push(a),
            }
        }
        // kNN orders go out first, round-robin, so they overlap the
        // sweeps.
        let knn: Vec<(Admitted, Wait)> = knn
            .into_iter()
            .map(|(k, a)| {
                let wid = self.rr % self.worker_txs.len();
                self.rr += 1;
                (a, self.send(wid, &key, &pts, Job::Knn { k }))
            })
            .collect();
        let gridded = self.send_sinks(&key, &pts, gridded, true);
        let dense = self.send_sinks(&key, &pts, dense, false);

        for batch in [dense, gridded].into_iter().flatten() {
            self.fan_in(pending, batch);
        }
        for (a, (wid, rx)) in knn {
            let result = self
                .receive(wid, &rx)
                .map(|out| out.knn.expect("a kNN order answers its query"));
            pending[a.req].fill(a.slot, result);
        }
    }

    /// Plan `queries` (all dense or all gridded) as one sink batch and
    /// send its orders: the dense sweep's shard tasks, LPT-spread over
    /// the pool as one order per worker that has tasks; or one packed
    /// gridded order, which counts as one task.
    fn send_sinks(
        &mut self,
        key: &DatasetKey,
        pts: &Arc<SoaPoints<3>>,
        queries: Vec<Admitted>,
        gridded: bool,
    ) -> Option<SinkBatch> {
        if queries.is_empty() {
            return None;
        }
        let plan = SinkPlan::plan(queries.iter().map(|a| &a.query), hist_budget(&self.cfg));
        let plan = Arc::new(plan);
        self.stats.batches += 1;
        if queries.len() > 1 {
            self.stats.coalesced_queries += queries.len() as u64;
        }
        let waits = if gridded {
            // Dataset affinity, not round-robin: the covering catalog
            // lives in one worker's cache, so every gridded order for a
            // dataset goes to the same worker and repeat radii hit it.
            let wid = {
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                key.0.hash(&mut h);
                (h.finish() as usize) % self.worker_txs.len()
            };
            self.stats.tasks += 1;
            let radii = plan.counts.clone();
            vec![self.send(wid, key, pts, Job::Gridded { radii })]
        } else {
            let n = pts.len();
            let shards = self.cfg.shards.clamp(1, n.max(1));
            let sizes: Vec<usize> = chunk_ranges(n, shards).iter().map(|r| r.len()).collect();
            let tasks = build_tasks(&sizes);
            self.stats.tasks += tasks.len() as u64;
            lpt_schedule(&tasks, &sizes, self.worker_txs.len())
                .into_iter()
                .enumerate()
                .filter(|(_, tasks)| !tasks.is_empty())
                .map(|(wid, tasks)| {
                    let sinks = plan.clone();
                    self.send(
                        wid,
                        key,
                        pts,
                        Job::Sweep {
                            shards,
                            tasks,
                            sinks,
                        },
                    )
                })
                .collect()
        };
        Some(SinkBatch {
            queries,
            plan,
            waits,
        })
    }

    /// Receive every order of `batch`, sum its count sinks and merge its
    /// histogram sinks (integer sums and histogram merges commute, so
    /// the shard decomposition is invisible), then demux the merged
    /// sinks into each query's slot — or, when an order failed, fail
    /// every query of the batch.
    fn fan_in(&mut self, pending: &mut [Pending], batch: SinkBatch) {
        let SinkBatch {
            queries,
            plan,
            waits,
        } = batch;
        let mut counts = vec![0u64; plan.counts.len()];
        let mut hists: Vec<Histogram> = plan
            .hists
            .iter()
            .map(|s| Histogram::zeroed(s.buckets))
            .collect();
        let mut failure = None;
        for (wid, rx) in waits {
            match self.receive(wid, &rx) {
                Ok(out) => {
                    for (acc, c) in counts.iter_mut().zip(&out.counts) {
                        *acc += c;
                    }
                    for (acc, h) in hists.iter_mut().zip(&out.hists) {
                        acc.merge(h);
                    }
                }
                Err(e) => failure = Some(e),
            }
        }
        let results: Vec<Result<QueryResult, ServeError>> = match failure {
            None => plan.demux(&counts, hists).into_iter().map(Ok).collect(),
            Some(e) => vec![Err(e); queries.len()],
        };
        for (a, result) in queries.into_iter().zip(results) {
            pending[a.req].fill(a.slot, result);
        }
    }

    /// Send `job` over `key`'s points to worker `wid`. A failed send
    /// drops the order and its reply sender, so the receive reports
    /// [`ServeError::Closed`].
    fn send(&self, wid: usize, key: &DatasetKey, pts: &Arc<SoaPoints<3>>, job: Job) -> Wait {
        let (reply, rx) = channel();
        let order = WorkOrder {
            key: key.clone(),
            pts: pts.clone(),
            job,
            reply,
        };
        let _ = self.worker_txs[wid].send(order);
        (wid, rx)
    }

    /// Wait for worker `wid`'s reply, fold its counters (and, on
    /// success, its simulated seconds) into the stats and return the
    /// order's outcome.
    fn receive(&mut self, wid: usize, rx: &Receiver<WorkerReply>) -> Result<WorkOut, ServeError> {
        let r = rx.recv().map_err(|_| ServeError::Closed)?;
        self.stats.cache_hits += r.cache_hits;
        self.stats.cache_misses += r.cache_misses;
        self.device_bytes[wid] = r.device_bytes;
        self.stats.device_bytes = self.device_bytes.iter().sum();
        let out = r.out.map_err(ServeError::Sim)?;
        self.stats.sim_seconds += out.sim_seconds;
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------

fn worker_loop(device: DeviceConfig, plan: PairwisePlan, rx: Receiver<WorkOrder>) {
    let mut dev = Device::new(device);
    let mut cache = WorkerCache::default();
    while let Ok(WorkOrder {
        key,
        pts,
        job,
        reply,
    }) = rx.recv()
    {
        let (hits, misses) = (cache.hits, cache.misses);
        let out = match job {
            Job::Sweep {
                shards,
                tasks,
                sinks,
            } => run_tasks(
                &mut dev, &mut cache, &key, &pts, shards, &tasks, &sinks, plan,
            ),
            Job::Gridded { radii } => run_gridded(&mut dev, &mut cache, &key, &pts, &radii, plan),
            Job::Knn { k } => run_knn(&mut dev, &pts, k, plan),
        };
        let _ = reply.send(WorkerReply {
            out,
            cache_hits: cache.hits - hits,
            cache_misses: cache.misses - misses,
            device_bytes: dev.allocated_bytes(),
        });
    }
}

/// One worker's share of a coalesced sweep: for each assigned shard
/// task and each of the sink plan's `sweeps` (see [`batch::SinkPlan`]),
/// one scoped [`run_shard_task`] accumulating host-side.
#[allow(clippy::too_many_arguments)]
fn run_tasks(
    dev: &mut Device,
    cache: &mut WorkerCache,
    key: &DatasetKey,
    pts: &SoaPoints<3>,
    shards: usize,
    tasks: &[SdhTask],
    sinks: &SinkPlan,
    plan: PairwisePlan,
) -> Result<WorkOut, String> {
    let uploads = cache.shard_uploads(dev, key, pts, shards).to_vec();
    let mut out = WorkOut {
        counts: vec![0; sinks.counts.len()],
        hists: sinks
            .hists
            .iter()
            .map(|s| Histogram::zeroed(s.buckets))
            .collect(),
        ..WorkOut::default()
    };
    for task in tasks {
        for (i, range) in sinks.sweeps.iter().enumerate() {
            // The first sweep feeds every count sink.
            let radii = if i == 0 { &sinks.counts[..] } else { &[] };
            let specs = &sinks.hists[range.clone()];
            let (c, h) = (
                &mut out.counts[..radii.len()],
                &mut out.hists[range.clone()],
            );
            let secs = &mut out.sim_seconds;
            dev.scoped(|dev| run_shard_task(dev, &uploads, task, radii, specs, plan, c, h, secs))
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(out)
}

/// A dataset group's gridded count-withins, coalesced: ONE covering
/// catalog (cached; built at the group's largest radius on a miss) and
/// ONE packed multi-radius sweep feeding every query its count. Each
/// count is bit-identical to a solo [`crate::gridded_count_within`] at
/// its radius — integer sinks make the sharing invisible.
fn run_gridded(
    dev: &mut Device,
    cache: &mut WorkerCache,
    key: &DatasetKey,
    pts: &SoaPoints<3>,
    radii: &[f32],
    plan: PairwisePlan,
) -> Result<WorkOut, String> {
    let r_max = radii.iter().copied().fold(0.0f32, f32::max);
    let cat = cache.grid_covering(dev, key, pts, r_max);
    let (counts, run) = crate::gridded::gridded_count_within_multi(dev, cat, radii, plan)
        .map_err(|e| e.to_string())?;
    Ok(WorkOut {
        counts,
        sim_seconds: run.seconds,
        ..WorkOut::default()
    })
}

/// A kNN query, monolithic on this worker's device: it keeps its
/// single-launch insertion order (re-sharding would merge f32 ties
/// differently), so it bypasses the batcher. Monomorphic dispatch over
/// the supported k range.
fn run_knn(
    dev: &mut Device,
    pts: &SoaPoints<3>,
    k: u32,
    plan: PairwisePlan,
) -> Result<WorkOut, String> {
    fn go<const K: usize>(
        dev: &mut Device,
        pts: &SoaPoints<3>,
        plan: PairwisePlan,
    ) -> Result<WorkOut, String> {
        let got = knn_gpu::<3, K>(dev, pts, plan).map_err(|e| e.to_string())?;
        Ok(WorkOut {
            knn: Some(QueryResult::Knn {
                neighbors: got.neighbors.iter().map(|a| a.to_vec()).collect(),
                distances: got.distances.iter().map(|a| a.to_vec()).collect(),
            }),
            sim_seconds: got.run.timing.seconds,
            ..WorkOut::default()
        })
    }
    match k {
        1 => go::<1>(dev, pts, plan),
        2 => go::<2>(dev, pts, plan),
        3 => go::<3>(dev, pts, plan),
        4 => go::<4>(dev, pts, plan),
        5 => go::<5>(dev, pts, plan),
        6 => go::<6>(dev, pts, plan),
        7 => go::<7>(dev, pts, plan),
        8 => go::<8>(dev, pts, plan),
        _ => Err("k out of range".to_string()),
    }
}
