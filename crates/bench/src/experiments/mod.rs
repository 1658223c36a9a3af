//! One module per table/figure of the paper (plus the extension
//! studies). See DESIGN.md §4 for the experiment index and EXPERIMENTS.md
//! for recorded paper-vs-measured results.
//!
//! [`SECTIONS`] is the one list of the paper's experiments at their
//! recorded sizes. `all_experiments` runs it, and
//! `tests/it_capture.rs` checks its text against
//! `results/all_experiments.txt` byte for byte.

pub mod ext_arch;
pub mod ext_blocksize;
pub mod ext_ls;
pub mod ext_multicopy;
pub mod ext_multigpu;
pub mod ext_serve;
pub mod ext_skew;
pub mod ext_type3;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig9;
pub mod gridpath;
pub mod hotpath;
pub mod tables;

use crate::report::{Report, ReportError};
use gpu_sim::DeviceConfig;
use tbs_cpu::CpuModel;
use tbs_datagen::paper_sweep;

/// One experiment of the recorded run: the report it builds and the
/// banner it prints under.
pub struct Section {
    /// The report's name: the `all_experiments` argument that selects
    /// it and the stem of its `--json` file.
    pub name: &'static str,
    /// The banner line printed above the report.
    pub title: &'static str,
    /// Build the report at its recorded size.
    pub build: fn() -> Result<Report, ReportError>,
}

impl Section {
    /// The text this section prints in a run: the title between
    /// `====` banners, the rendered report and a blank line.
    pub fn render(&self, report: &Report) -> String {
        let rule = "=".repeat(64);
        format!("{rule}\n{}\n{rule}\n{}\n", self.title, report.render())
    }
}

/// The paper's N sweep (Figures 2, 4 and 9).
fn sweep() -> Vec<u32> {
    paper_sweep(10, 1024)
}

/// Every experiment, in the order `all_experiments` prints them.
pub const SECTIONS: &[Section] = &[
    Section {
        name: "fig2",
        title: "Figure 2",
        build: || fig2::build_report(&sweep(), &DeviceConfig::titan_x()),
    },
    Section {
        name: "table2",
        title: "Table II",
        build: || tables::build_table2_report(512 * 1024, &DeviceConfig::titan_x()),
    },
    Section {
        name: "fig4",
        title: "Figure 4",
        build: || {
            fig4::build_report(
                &sweep(),
                &DeviceConfig::titan_x(),
                &CpuModel::xeon_e5_2640_v2(),
            )
        },
    },
    Section {
        name: "table3",
        title: "Table III",
        build: || tables::build_table3_report(512 * 1024, &DeviceConfig::titan_x()),
    },
    Section {
        name: "table4",
        title: "Table IV",
        build: || tables::build_table4_report(512 * 1024, &DeviceConfig::titan_x()),
    },
    Section {
        name: "fig5",
        title: "Figure 5",
        build: || fig5::build_report(fig5::FIG5_N, &DeviceConfig::titan_x()),
    },
    Section {
        name: "fig7",
        title: "Figure 7",
        build: || fig7::build_report(&DeviceConfig::titan_x()),
    },
    Section {
        name: "fig9",
        title: "Figure 9",
        build: || {
            fig9::build_report(
                &sweep(),
                &DeviceConfig::titan_x(),
                &CpuModel::xeon_e5_2640_v2(),
            )
        },
    },
    Section {
        name: "ext_arch",
        title: "Extension: architectures",
        build: || ext_arch::build_report(512 * 1024),
    },
    Section {
        name: "ext_skew",
        title: "Extension: data skew",
        build: || ext_skew::build_report(4096, 1024, 128),
    },
    Section {
        name: "ext_type3",
        title: "Extension: Type-III output",
        build: || ext_type3::build_report(2048, 64),
    },
    Section {
        name: "ext_multigpu",
        title: "Extension: multi-GPU",
        build: || ext_multigpu::build_report(4096, 64),
    },
    Section {
        name: "ext_multigpu_predicted",
        title: "Extension: multi-GPU at paper scale",
        build: || ext_multigpu::build_predicted_report(2_000_896, &DeviceConfig::titan_x()),
    },
    Section {
        name: "ext_multicopy",
        title: "Extension: multi-copy privatization",
        build: || ext_multicopy::build_report(4096, 256),
    },
    Section {
        name: "ext_blocksize",
        title: "Extension: block size",
        build: || ext_blocksize::build_report(512 * 1024, &DeviceConfig::titan_x()),
    },
];
