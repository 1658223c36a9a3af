//! Query and result types of the 2-BS service.
//!
//! A [`Query`] names one 2-body statistic over a registered dataset; the
//! service answers with a [`QueryResult`]. The first three query kinds
//! are *batchable*: they reduce to count/histogram sinks over one
//! Euclidean pairwise sweep, so the batcher coalesces any number of them
//! that share a dataset into a single [`tbs_core::output::MultiQueryAction`]
//! launch per shard task. kNN is order-sensitive (f32 insertion order
//! breaks under re-sharding), so it always runs monolithic.

use tbs_core::histogram::{Histogram, HistogramSpec};

/// One 2-body-statistics query against a named dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Pair counts within each of many radii (the 2-PCF pre-binned
    /// counts; one count sink per radius). Batchable.
    PairCounts {
        /// Strict upper distance bounds, one output count per entry.
        radii: Vec<f32>,
    },
    /// Spatial distance histogram: `buckets` buckets of width `width`
    /// (distances ≥ `buckets · width` clamp into the last bucket, the
    /// device SDH convention). Batchable.
    Sdh {
        /// Number of buckets.
        buckets: u32,
        /// Bucket width.
        width: f32,
    },
    /// Count of pairs with distance strictly below `radius`. Batchable
    /// on the dense route; with `gridded = true` it coalesces with the
    /// other gridded count-withins of its burst into one packed sweep
    /// over the per-dataset cached [`crate::GriddedCatalog`]
    /// (sub-quadratic, identical count).
    CountWithin {
        /// Strict upper distance bound.
        radius: f32,
        /// Route through the cached uniform grid instead of the dense
        /// sweep.
        gridded: bool,
    },
    /// All-point k-nearest neighbors, `1 ≤ k ≤ 8`. Never batched.
    Knn {
        /// Neighbors per point.
        k: u32,
    },
}

impl Query {
    /// Whether the batcher may coalesce this query into a shared
    /// multi-sink sweep.
    pub fn batchable(&self) -> bool {
        match self {
            Query::PairCounts { .. } | Query::Sdh { .. } => true,
            Query::CountWithin { gridded, .. } => !gridded,
            Query::Knn { .. } => false,
        }
    }

    /// Validate parameters against a dataset of `n` points.
    pub(crate) fn validate(&self, n: usize) -> Result<(), ServeError> {
        let finite_pos = |r: f32| r.is_finite() && r > 0.0;
        match self {
            Query::PairCounts { radii } => {
                if radii.is_empty() {
                    return Err(ServeError::BadQuery("PairCounts needs at least one radius"));
                }
                if !radii.iter().all(|&r| finite_pos(r)) {
                    return Err(ServeError::BadQuery("radii must be finite and positive"));
                }
            }
            Query::Sdh { buckets, width } => {
                if *buckets == 0 {
                    return Err(ServeError::BadQuery("SDH needs at least one bucket"));
                }
                if !finite_pos(*width) || !finite_pos(*width * *buckets as f32) {
                    return Err(ServeError::BadQuery(
                        "SDH width must be finite and positive",
                    ));
                }
            }
            Query::CountWithin { radius, .. } => {
                if !finite_pos(*radius) {
                    return Err(ServeError::BadQuery("radius must be finite and positive"));
                }
            }
            Query::Knn { k } => {
                if !(1..=8).contains(k) {
                    return Err(ServeError::BadQuery("k must be in 1..=8"));
                }
                if (*k as usize) >= n {
                    return Err(ServeError::BadQuery("k must be below the dataset size"));
                }
            }
        }
        Ok(())
    }

    /// The histogram geometry of an SDH query.
    pub(crate) fn sdh_spec(buckets: u32, width: f32) -> HistogramSpec {
        HistogramSpec::new(buckets, width * buckets as f32)
    }
}

/// The answer to one [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// Pair counts, one per requested radius (`PairCounts`,
    /// `CountWithin` → length 1).
    Counts(Vec<u64>),
    /// The finalized histogram (`Sdh`).
    Histogram(Histogram),
    /// Per-point neighbor lists, ascending by distance (`Knn`).
    Knn {
        /// `neighbors[i]` = indices of point `i`'s k nearest neighbors.
        neighbors: Vec<Vec<u32>>,
        /// Matching distances.
        distances: Vec<Vec<f32>>,
    },
}

/// Why the service rejected or failed a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The named dataset was never registered (or the server is
    /// shutting down).
    UnknownDataset(String),
    /// Query parameters failed admission validation.
    BadQuery(&'static str),
    /// A dataset failed registration validation.
    BadDataset(&'static str),
    /// A simulated kernel fault surfaced while executing the query.
    Sim(String),
    /// The server loop is gone (shut down while the request was queued).
    Closed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownDataset(name) => write!(f, "unknown dataset {name:?}"),
            ServeError::BadQuery(why) => write!(f, "bad query: {why}"),
            ServeError::BadDataset(why) => write!(f, "bad dataset: {why}"),
            ServeError::Sim(e) => write!(f, "simulated fault: {e}"),
            ServeError::Closed => write!(f, "server closed"),
        }
    }
}

impl std::error::Error for ServeError {}
