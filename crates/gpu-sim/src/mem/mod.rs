//! The simulated memory hierarchy.
//!
//! * [`global`] — device global memory (typed buffers) whose warp accesses
//!   are coalesced into 32-byte sectors and filtered through a functional
//!   L2 cache ([`l2`]).
//! * [`roc`] — the read-only data cache path (`const __restrict__` /
//!   texture path in CUDA terms), a small per-SM cache in front of L2.
//! * [`shared`] — per-block programmable shared memory with 32-bank
//!   conflict modeling.

pub mod fifo;
pub mod global;
pub mod l2;
pub(crate) mod replay;
pub mod roc;
pub mod shared;

pub use global::{BufF32, BufId, BufU32, BufU64, DeviceBuffer, GlobalMem};
pub use l2::L2Cache;
pub use roc::RocCache;
pub use shared::{SharedSpace, ShmF32, ShmU32, ShmU64};

/// Compute the set of distinct `sector_bytes`-sized sectors touched by the
/// active lanes of a warp access, given per-lane byte addresses.
///
/// Returns the number of sectors (memory transactions). This is the
/// coalescing rule of Kepler/Maxwell-class hardware: a fully-coalesced
/// 32 × 4-byte access touches 4 sectors of 32 bytes; a worst-case strided
/// access touches 32.
pub fn count_sectors(byte_addrs: &[u64], sector_bytes: u32) -> u64 {
    // Warp accesses touch at most 32 addresses: a tiny sort-free scan over
    // a fixed array is faster than hashing.
    let mut seen = [u64::MAX; crate::WARP_SIZE];
    let mut n = 0usize;
    'outer: for &a in byte_addrs {
        let sector = a / sector_bytes as u64;
        for &s in &seen[..n] {
            if s == sector {
                continue 'outer;
            }
        }
        seen[n] = sector;
        n += 1;
    }
    n as u64
}

/// Iterate the distinct sectors touched by the active lanes, invoking `f`
/// once per sector id.
pub fn for_each_sector(byte_addrs: &[u64], sector_bytes: u32, mut f: impl FnMut(u64)) {
    let mut seen = [u64::MAX; crate::WARP_SIZE];
    let mut n = 0usize;
    'outer: for &a in byte_addrs {
        let sector = a / sector_bytes as u64;
        for &s in &seen[..n] {
            if s == sector {
                continue 'outer;
            }
        }
        seen[n] = sector;
        n += 1;
        f(sector);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_f32_access_is_four_sectors() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 4).collect();
        assert_eq!(count_sectors(&addrs, 32), 4);
    }

    #[test]
    fn broadcast_access_is_one_sector() {
        let addrs = vec![128u64; 32];
        assert_eq!(count_sectors(&addrs, 32), 1);
    }

    #[test]
    fn strided_access_is_thirty_two_sectors() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 128).collect();
        assert_eq!(count_sectors(&addrs, 32), 32);
    }

    #[test]
    fn partial_warp_counts_only_active_lanes() {
        let addrs: Vec<u64> = (0..7).map(|i| i * 4).collect();
        assert_eq!(count_sectors(&addrs, 32), 1);
    }

    #[test]
    fn for_each_sector_visits_each_once() {
        let addrs: Vec<u64> = vec![0, 4, 36, 68, 68, 0];
        let mut v = vec![];
        for_each_sector(&addrs, 32, |s| v.push(s));
        assert_eq!(v, vec![0, 1, 2]);
    }
}
