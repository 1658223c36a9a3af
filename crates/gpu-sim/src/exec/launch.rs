//! Kernel launch geometry.

use crate::config::DeviceConfig;
use crate::error::SimError;

/// A 1-D launch configuration (`<<<grid_dim, block_dim>>>` in CUDA).
///
/// All 2-BS kernels in the paper use 1-D grids: the number of thread
/// blocks equals the number of data blocks (its equation 1, M = N / B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub grid_dim: u32,
    /// Threads per block (the paper's B; it uses 1024 for the 2-PCF
    /// experiments and 256 for the histogram-size study).
    pub block_dim: u32,
}

impl LaunchConfig {
    pub fn new(grid_dim: u32, block_dim: u32) -> Self {
        LaunchConfig {
            grid_dim,
            block_dim,
        }
    }

    /// Grid covering `n` threads with blocks of `block_dim`. `n = 0`
    /// yields an empty grid (`grid_dim == 0`), which launches as a no-op.
    pub fn for_n_threads(n: u32, block_dim: u32) -> Self {
        LaunchConfig {
            grid_dim: n.div_ceil(block_dim.max(1)),
            block_dim: block_dim.max(1),
        }
    }

    /// Total threads in the launch.
    pub fn total_threads(&self) -> u64 {
        self.grid_dim as u64 * self.block_dim as u64
    }

    /// Warps per block.
    pub fn warps_per_block(&self) -> u32 {
        self.block_dim.div_ceil(crate::WARP_SIZE as u32)
    }

    /// Validate against device limits.
    ///
    /// `grid_dim == 0` is valid: it describes an *empty* launch that
    /// executes no blocks and leaves memory untouched (the engine makes
    /// it a no-op), which is what N = 0 problem sizes lower to.
    pub fn validate(&self, cfg: &DeviceConfig) -> Result<(), SimError> {
        if self.block_dim == 0 {
            return Err(SimError::InvalidLaunch {
                reason: "block_dim must be non-zero".to_string(),
            });
        }
        if self.block_dim > cfg.max_threads_per_block {
            return Err(SimError::InvalidLaunch {
                reason: format!(
                    "block_dim {} exceeds device limit {}",
                    self.block_dim, cfg.max_threads_per_block
                ),
            });
        }
        // The shared-memory scatter walk sizes its counters by the bank
        // cycle, so an unbounded bank count is an unbounded allocation.
        if !(1..=64).contains(&cfg.shared_banks) {
            return Err(SimError::InvalidLaunch {
                reason: format!("shared_banks {} outside 1..=64", cfg.shared_banks),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_n_threads_rounds_up() {
        let lc = LaunchConfig::for_n_threads(1000, 256);
        assert_eq!(lc.grid_dim, 4);
        assert_eq!(lc.total_threads(), 1024);
        assert_eq!(LaunchConfig::for_n_threads(1024, 256).grid_dim, 4);
        assert_eq!(LaunchConfig::for_n_threads(1, 256).grid_dim, 1);
        assert_eq!(LaunchConfig::for_n_threads(0, 256).grid_dim, 0);
    }

    #[test]
    fn warps_per_block_rounds_up() {
        assert_eq!(LaunchConfig::new(1, 1024).warps_per_block(), 32);
        assert_eq!(LaunchConfig::new(1, 33).warps_per_block(), 2);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let cfg = DeviceConfig::titan_x();
        // An empty grid is a valid no-op launch (N = 0 lowers to it)...
        assert!(LaunchConfig::new(0, 128).validate(&cfg).is_ok());
        // ...but zero-thread blocks are still rejected.
        assert!(LaunchConfig::new(1, 0).validate(&cfg).is_err());
        assert!(LaunchConfig::new(1, 2048).validate(&cfg).is_err());
        assert!(LaunchConfig::new(1, 1024).validate(&cfg).is_ok());
        // Bank counts outside 1..=64 are refused, whatever the grid.
        for banks in [0, 65, u32::MAX] {
            let bad = DeviceConfig {
                shared_banks: banks,
                ..cfg.clone()
            };
            assert!(LaunchConfig::new(0, 128).validate(&bad).is_err());
        }
        for banks in [1, 48, 64] {
            let ok = DeviceConfig {
                shared_banks: banks,
                ..cfg.clone()
            };
            assert!(LaunchConfig::new(1, 128).validate(&ok).is_ok());
        }
    }
}
