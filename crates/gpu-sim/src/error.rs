//! Error type for the simulator.

use std::fmt;

/// Faults a simulated kernel or launch can raise.
///
/// These mirror the failure modes a CUDA programmer actually hits:
/// out-of-bounds device accesses, launch configurations exceeding device
/// limits, and using features the architecture lacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A device-memory access outside an allocation (the simulator's
    /// analogue of `cudaErrorIllegalAddress`).
    OutOfBounds {
        what: String,
        index: usize,
        len: usize,
    },
    /// An access to, or a second free of, a device buffer that was
    /// already freed (`cudaErrorIllegalAddress` / `cudaErrorInvalidValue`).
    FreedBuffer { what: String },
    /// The launch configuration violates a device limit.
    InvalidLaunch { reason: String },
    /// A block allocated more shared memory than the per-block limit.
    SharedMemOverflow { requested: u64, limit: u64 },
    /// The kernel used warp shuffle on a device without it (pre-Kepler).
    ShuffleUnsupported { device: &'static str },
    /// A kernel declared more registers per thread than addressable.
    TooManyRegisters { requested: u32, limit: u32 },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfBounds { what, index, len } => {
                write!(
                    f,
                    "out-of-bounds access to {what}: index {index} >= len {len}"
                )
            }
            SimError::FreedBuffer { what } => write!(f, "{what}: device buffer was already freed"),
            SimError::InvalidLaunch { reason } => write!(f, "invalid launch: {reason}"),
            SimError::SharedMemOverflow { requested, limit } => write!(
                f,
                "shared memory overflow: block requested {requested} B > limit {limit} B"
            ),
            SimError::ShuffleUnsupported { device } => {
                write!(f, "warp shuffle is not supported on {device}")
            }
            SimError::TooManyRegisters { requested, limit } => {
                write!(
                    f,
                    "kernel declares {requested} registers/thread > device limit {limit}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SimError::OutOfBounds {
            what: "input".into(),
            index: 10,
            len: 4,
        };
        assert!(e.to_string().contains("input"));
        assert!(e.to_string().contains("10"));
        let e = SimError::SharedMemOverflow {
            requested: 100_000,
            limit: 49_152,
        };
        assert!(e.to_string().contains("49152"));
    }
}
