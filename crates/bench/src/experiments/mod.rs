//! One module per table/figure of the paper (plus the extension
//! studies). See DESIGN.md §4 for the experiment index and EXPERIMENTS.md
//! for recorded paper-vs-measured results.

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
