//! # tbs-cpu — the multi-core CPU comparator
//!
//! A faithful Rust port of the paper's OpenMP baseline (§IV-D "Design and
//! Implementation of CPU-based Algorithm"):
//!
//! * per-thread **privatized output histograms** with a final parallel
//!   reduction — no atomics on the hot path;
//! * OpenMP-style **loop schedules** (static / dynamic / guided) over the
//!   skewed triangular pair loop, with guided as the paper's chosen
//!   default;
//! * **algebraic elimination** of costly instructions (reciprocal-width
//!   bucketing, squared-radius comparisons).
//!
//! The paper also tunes OpenMP *thread affinity* (scatter / compact /
//! balanced). Thread pinning is not portable in std Rust and this
//! reproduction host exposes a single vCPU, so that study is replaced by
//! the schedule study plus the [`model`] module, which extrapolates the
//! measured implementation to the paper's 8-core Xeon.

//! ```
//! use tbs_core::HistogramSpec;
//! use tbs_cpu::{sdh_parallel, CpuSdhConfig, Schedule};
//!
//! let pts = tbs_datagen::uniform_points::<3>(500, 100.0, 42);
//! let spec = HistogramSpec::new(64, tbs_datagen::box_diagonal(100.0, 3));
//! let hist = sdh_parallel(
//!     &pts,
//!     spec,
//!     CpuSdhConfig { threads: 4, schedule: Schedule::Guided },
//! );
//! assert_eq!(hist.total(), 500 * 499 / 2);
//! ```

pub mod grid;
pub mod model;
pub mod pcf;
pub mod schedule;
pub mod sdh;

pub use grid::{
    grid_cross_radial_reference, grid_pcf_device_reference, grid_pcf_reference,
    grid_radial_reference,
};
pub use model::CpuModel;
pub use pcf::{count_within_reference, pcf_parallel, pcf_reference};
pub use schedule::Schedule;
pub use sdh::{sdh_parallel, sdh_reference, CpuSdhConfig};
