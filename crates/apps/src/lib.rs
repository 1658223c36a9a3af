//! # tbs-apps — 2-body statistics applications
//!
//! End-to-end applications assembled from the `tbs-core` framework,
//! covering all three of the paper's output classes (§III-B):
//!
//! | app | type | output |
//! |---|---|---|
//! | [`pcf`] — 2-point correlation function | I | scalar pair count |
//! | [`knn`] — all-point k-nearest neighbors | I | k registers per point |
//! | [`kde`] — kernel density estimation | I | one register per point |
//! | [`sdh`] — spatial distance histogram | II | privatized histogram |
//! | [`rdf`] — radial distribution function | II | normalized SDH |
//! | [`join`] — spatial distance join | III | pair list in global memory |
//! | [`gram`] — kernel (Gram) matrix | III | dense N×N matrix |
//! | [`multi_gpu`] — multi-device SDH decomposition | II | chunked self/cross tasks |
//! | [`serve`] — batched, sharded, concurrent query service | I+II | coalesced multi-query sinks |
//!
//! Every app takes a [`driver::PairwisePlan`] selecting the input-staging
//! variant (Naive / SHM-SHM / Register-SHM / Register-ROC / Shuffle),
//! block size, and intra-block scheme, and returns its numeric result
//! together with the simulated [`gpu_sim::KernelRun`] profile. All entry
//! points go through [`gpu_sim::Device::try_launch`]: a simulated fault
//! (out-of-bounds access, invalid launch, …) surfaces as a
//! [`gpu_sim::SimError`] for the caller to handle — one bad configuration
//! fails its own run, never a whole experiment sweep.

//! ```
//! use gpu_sim::{Device, DeviceConfig};
//! use tbs_apps::{pcf_gpu, PairwisePlan};
//!
//! let pts = tbs_datagen::uniform_points::<3>(600, 100.0, 9);
//! let mut dev = Device::new(DeviceConfig::titan_x());
//! let res = pcf_gpu(&mut dev, &pts, 25.0, PairwisePlan::register_shm(64)).expect("launch");
//! assert_eq!(res.count, tbs_cpu::pcf_reference(&pts, 25.0));
//! ```

pub mod driver;
pub mod gram;
pub mod gridded;
pub mod join;
pub mod kde;
pub mod knn;
pub mod multi_gpu;
pub mod pcf;
pub mod rdf;
pub mod sdh;
pub mod serve;

pub use driver::{launch_pairwise, PairwisePlan};
pub use gram::{gram_gpu, GramResult};
pub use gridded::{
    estimate_packed_launches, gridded_count_within, gridded_count_within_multi,
    gridded_cross_radial_histogram, gridded_radial_histogram, GriddedCatalog, GriddedCountResult,
    GriddedHistogramResult, GriddedRun, MAX_PACKED_BLOCKS_PER_LAUNCH,
};
pub use join::{
    distance_join_gpu, distance_join_reference, distance_join_two_gpu, distance_join_two_reference,
    JoinResult,
};
pub use kde::{kde_gpu, kde_reference, KdeResult};
pub use knn::{knn_gpu, knn_reference, KnnResult};
pub use multi_gpu::{build_tasks, chunk_ranges, lpt_schedule, sdh_multi_gpu, MultiGpuSdh, SdhTask};
pub use pcf::{landy_szalay, ls_pair_counts, pcf_gpu, LsPairCounts, PcfResult};
pub use rdf::{normalize_sdh, rdf_gpu, rdf_gpu_periodic, Rdf};
pub use sdh::{sdh_gpu, sdh_gpu_with, SdhOutputMode, SdhResult};
pub use serve::{Query, QueryResult, ServeConfig, ServeError, Server, ServerHandle, ServerStats};
