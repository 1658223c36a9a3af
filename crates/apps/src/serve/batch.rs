//! The query batcher: coalesce admitted queries that share a dataset
//! into one multi-sink pairwise sweep.
//!
//! A [`SinkPlan`] flattens a group of batchable queries into the sink
//! lists a [`tbs_core::output::MultiQueryAction`] consumes — count sinks
//! first, histogram sinks after, exactly the order the compiled passes
//! feed them — plus per-query routes to demultiplex the merged sink
//! outputs back into [`QueryResult`]s.
//!
//! Every histogram sink keeps a private copy in each block's shared
//! memory, beside the kernel's point tiles, so a group's histogram sinks
//! may not fit one launch together even when each fits alone. The plan
//! therefore splits them into *sweeps*: consecutive runs of histogram
//! sinks whose private copies fit the shared-memory budget it is given,
//! the first sweep also feeding every count sink. A histogram too large
//! to fit even alone is refused at admission
//! ([`super::hist_fits`]), so every sweep launches.
//! Coalescing is *output-level only*: every sink sees the identical
//! distance stream the standalone query would see, which is why a
//! batched answer is bit-identical to a sequential one (enforced by
//! `apps/tests/it_serve.rs` and the route matrix in
//! `core/tests/fused_identity.rs`).
//!
//! Histogram sinks additionally *dedup*: SDH queries with an identical
//! [`HistogramSpec`] share one sink, and every duplicate's route points
//! at it. A count sink costs one compare per pair, so stacking more of
//! them onto a shared sweep is nearly free; a histogram sink replays the
//! whole bucket-scatter (and its bank accounting) per pair, so k
//! distinct-spec SDH sinks cost ~k scatters no matter how they are
//! batched. The fan-in the service actually sees — many clients asking
//! the *same* popular geometry (the paper's millions-of-users scenario)
//! — collapses to one scatter, answered once and replied k times;
//! bit-identity is untouched because the shared sink computes exactly
//! the histogram each duplicate would have computed alone.

use super::query::{Query, QueryResult};
use std::ops::Range;
use tbs_core::histogram::{Histogram, HistogramSpec};

/// Where one query's results live inside a [`SinkPlan`]'s merged sink
/// outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum QueryRoute {
    /// Count sinks `[start, start + len)`.
    Counts {
        /// First count-sink index.
        start: usize,
        /// Number of consecutive count sinks.
        len: usize,
    },
    /// Histogram sink `idx`.
    Hist {
        /// Histogram-sink index.
        idx: usize,
    },
}

/// The flattened sink layout of one coalesced batch.
#[derive(Debug, Clone, Default)]
pub(crate) struct SinkPlan {
    /// Radii of the count sinks, in sink order.
    pub counts: Vec<f32>,
    /// Geometries of the histogram sinks, in sink order.
    pub hists: Vec<HistogramSpec>,
    /// The sweeps that run the plan: consecutive ranges of `hists` whose
    /// private histograms fit the budget together. The first sweep also
    /// feeds every count sink; there is always at least one.
    pub sweeps: Vec<Range<usize>>,
    /// One route per query, in admission order.
    pub routes: Vec<QueryRoute>,
}

impl SinkPlan {
    /// Flatten `queries` (all batchable, already validated) into sink
    /// lists + routes, and split the histogram sinks into sweeps whose
    /// private copies take at most `hist_budget` bytes of a block's
    /// shared memory (a single sink over budget still gets a sweep of
    /// its own).
    pub fn plan<'a>(queries: impl IntoIterator<Item = &'a Query>, hist_budget: u64) -> SinkPlan {
        let mut plan = SinkPlan::default();
        for q in queries {
            match q {
                Query::PairCounts { radii } => {
                    plan.routes.push(QueryRoute::Counts {
                        start: plan.counts.len(),
                        len: radii.len(),
                    });
                    plan.counts.extend_from_slice(radii);
                }
                Query::CountWithin { radius, .. } => {
                    plan.routes.push(QueryRoute::Counts {
                        start: plan.counts.len(),
                        len: 1,
                    });
                    plan.counts.push(*radius);
                }
                Query::Sdh { buckets, width } => {
                    // Dedup identical geometries (see the module doc):
                    // duplicates route to the first spec's sink. The
                    // linear scan is over admitted-batch hist specs —
                    // a handful at most.
                    let spec = Query::sdh_spec(*buckets, *width);
                    let idx = plan
                        .hists
                        .iter()
                        .position(|h| *h == spec)
                        .unwrap_or_else(|| {
                            plan.hists.push(spec);
                            plan.hists.len() - 1
                        });
                    plan.routes.push(QueryRoute::Hist { idx });
                }
                Query::Knn { .. } => unreachable!("kNN is never batched"),
            }
        }
        let mut start = 0;
        let mut bytes = 0u64;
        for (i, h) in plan.hists.iter().enumerate() {
            let b = 4 * h.buckets as u64;
            if i > start && bytes + b > hist_budget {
                plan.sweeps.push(start..i);
                start = i;
                bytes = 0;
            }
            bytes += b;
        }
        plan.sweeps.push(start..plan.hists.len());
        plan
    }

    /// Total sinks of the coalesced sweep.
    pub fn sinks(&self) -> usize {
        self.counts.len() + self.hists.len()
    }

    /// Demultiplex merged sink outputs into per-query results (same
    /// order as the `queries` passed to [`SinkPlan::plan`]). A deduped
    /// hist sink answers every query routed to it, so replies clone.
    pub fn demux(&self, counts: &[u64], hists: Vec<Histogram>) -> Vec<QueryResult> {
        self.routes
            .iter()
            .map(|route| match *route {
                QueryRoute::Counts { start, len } => {
                    QueryResult::Counts(counts[start..start + len].to_vec())
                }
                QueryRoute::Hist { idx } => QueryResult::Histogram(hists[idx].clone()),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_flattens_in_admission_order_counts_before_hists() {
        let queries = vec![
            Query::Sdh {
                buckets: 16,
                width: 2.0,
            },
            Query::PairCounts {
                radii: vec![1.0, 2.0],
            },
            Query::CountWithin {
                radius: 5.0,
                gridded: false,
            },
            Query::Sdh {
                buckets: 8,
                width: 1.0,
            },
        ];
        let plan = SinkPlan::plan(&queries, u64::MAX);
        assert_eq!(plan.counts, vec![1.0, 2.0, 5.0]);
        assert_eq!(plan.hists.len(), 2);
        assert_eq!(plan.sinks(), 5);
        assert_eq!(
            plan.routes,
            vec![
                QueryRoute::Hist { idx: 0 },
                QueryRoute::Counts { start: 0, len: 2 },
                QueryRoute::Counts { start: 2, len: 1 },
                QueryRoute::Hist { idx: 1 },
            ]
        );
        let results = plan.demux(
            &[10, 20, 30],
            vec![
                Histogram::from_counts(vec![1; 16]),
                Histogram::from_counts(vec![2; 8]),
            ],
        );
        assert_eq!(results[1], QueryResult::Counts(vec![10, 20]));
        assert_eq!(results[2], QueryResult::Counts(vec![30]));
        match (&results[0], &results[3]) {
            (QueryResult::Histogram(a), QueryResult::Histogram(b)) => {
                assert_eq!(a.counts().len(), 16);
                assert_eq!(b.counts().len(), 8);
            }
            other => panic!("wrong demux: {other:?}"),
        }
    }

    #[test]
    fn histogram_sinks_split_into_sweeps_that_fit_the_budget() {
        let sdh = |buckets| Query::Sdh {
            buckets,
            width: 1.0,
        };
        let queries = vec![
            Query::CountWithin {
                radius: 5.0,
                gridded: false,
            },
            sdh(6000),
            sdh(6001),
            sdh(100),
            sdh(12_000),
        ];
        // 48 KiB of shared memory less a 256-point 3-D tile.
        let plan = SinkPlan::plan(&queries, 49_152 - 3_072);
        assert_eq!(plan.sweeps, vec![0..1, 1..3, 3..4]);
        assert_eq!(plan.counts, vec![5.0]);
        // No histogram: one sweep of counts.
        let plan = SinkPlan::plan(&queries[..1], 0);
        assert_eq!(plan.sweeps, vec![0..0]);
        // Everything fits: one sweep.
        assert_eq!(SinkPlan::plan(&queries, u64::MAX).sweeps, vec![0..4]);
    }

    #[test]
    fn identical_sdh_specs_share_one_sink() {
        let popular = Query::Sdh {
            buckets: 64,
            width: 2.5,
        };
        let queries = vec![
            popular.clone(),
            Query::Sdh {
                buckets: 64,
                width: 1.25, // same bucket count, different geometry
            },
            popular.clone(),
            Query::CountWithin {
                radius: 5.0,
                gridded: false,
            },
            popular.clone(),
        ];
        let plan = SinkPlan::plan(&queries, u64::MAX);
        // Three duplicates collapse onto sink 0; the distinct-width
        // query keeps its own sink.
        assert_eq!(plan.hists.len(), 2);
        assert_eq!(plan.sinks(), 3);
        assert_eq!(
            plan.routes,
            vec![
                QueryRoute::Hist { idx: 0 },
                QueryRoute::Hist { idx: 1 },
                QueryRoute::Hist { idx: 0 },
                QueryRoute::Counts { start: 0, len: 1 },
                QueryRoute::Hist { idx: 0 },
            ]
        );
        let results = plan.demux(
            &[7],
            vec![
                Histogram::from_counts(vec![3; 64]),
                Histogram::from_counts(vec![4; 64]),
            ],
        );
        // Every duplicate gets the shared sink's histogram.
        assert_eq!(results[0], results[2]);
        assert_eq!(results[2], results[4]);
        assert_ne!(results[0], results[1]);
        assert_eq!(results[3], QueryResult::Counts(vec![7]));
    }
}
