//! Per-worker dataset caches: shard uploads and gridded catalogs.
//!
//! Every worker owns one simulated device, and device transfers are the
//! service's repeat-query tax: re-uploading a dataset's shards (or
//! re-binning its grid) on every query would swamp the pairwise stage at
//! CI sizes. Each cache is keyed by the dataset's *generation* — a
//! counter the dispatcher bumps on re-registration — so the invalidation
//! rule is simply "a new generation evicts every entry of the old one".
//! Eviction frees the evicted entries' device buffers along with their
//! host bookkeeping, so a worker's device holds only the current
//! generation of each dataset it has served. Within a generation,
//! entries live as long as the dataset does (one shard split per shard
//! count, one grid per radius that no cached grid covers).

use crate::gridded::GriddedCatalog;
use crate::multi_gpu::chunk_ranges;
use gpu_sim::Device;
use std::collections::HashMap;
use tbs_core::point::{DeviceSoa, SoaPoints};

/// Identity of one dataset revision as the workers see it.
pub(crate) type DatasetKey = (String, u64);

/// A worker's device-resident dataset state.
#[derive(Default)]
pub(crate) struct WorkerCache {
    /// Shard uploads keyed by (dataset, generation, shard count).
    shards: HashMap<(String, u64, usize), Vec<DeviceSoa<3>>>,
    /// Gridded catalogs keyed by (dataset, generation, radius bits).
    grids: HashMap<(String, u64, u32), GriddedCatalog<3>>,
    /// Cache probes that found their entry.
    pub hits: u64,
    /// Cache probes that had to build their entry.
    pub misses: u64,
}

impl WorkerCache {
    /// The shard uploads of `key` split `shards` ways, uploading on
    /// first use. A different generation of the same dataset evicts
    /// every stale entry first.
    pub fn shard_uploads(
        &mut self,
        dev: &mut Device,
        key: &DatasetKey,
        pts: &SoaPoints<3>,
        shards: usize,
    ) -> &[DeviceSoa<3>] {
        self.evict_stale(dev, key);
        let full = (key.0.clone(), key.1, shards);
        if self.shards.contains_key(&full) {
            self.hits += 1;
        } else {
            self.misses += 1;
            let uploads = chunk_ranges(pts.len(), shards)
                .into_iter()
                .map(|r| pts.slice(r).upload(dev))
                .collect();
            self.shards.insert(full.clone(), uploads);
        }
        &self.shards[&full]
    }

    /// The gridded catalog of `key` sized for `radius`, binning and
    /// uploading on first use.
    pub fn grid(
        &mut self,
        dev: &mut Device,
        key: &DatasetKey,
        pts: &SoaPoints<3>,
        radius: f32,
    ) -> &GriddedCatalog<3> {
        self.evict_stale(dev, key);
        let full = (key.0.clone(), key.1, radius.to_bits());
        if self.grids.contains_key(&full) {
            self.hits += 1;
        } else {
            self.misses += 1;
            let cat = GriddedCatalog::build_self(
                dev,
                pts,
                radius,
                &tbs_core::grid::GridOptions::default(),
            );
            self.grids.insert(full.clone(), cat);
        }
        &self.grids[&full]
    }

    /// A gridded catalog of `key` whose `r_max` covers `radius`: an
    /// exact-radius entry if cached, else the *tightest* cached grid
    /// with `r_max ≥ radius` (any covering grid yields bit-identical
    /// counts — pruning is invisible in the outputs), else a fresh
    /// build at `radius`. This is what lets a whole burst of gridded
    /// queries with different radii share one catalog.
    pub fn grid_covering(
        &mut self,
        dev: &mut Device,
        key: &DatasetKey,
        pts: &SoaPoints<3>,
        radius: f32,
    ) -> &GriddedCatalog<3> {
        self.evict_stale(dev, key);
        let exact = (key.0.clone(), key.1, radius.to_bits());
        if self.grids.contains_key(&exact) {
            self.hits += 1;
            return &self.grids[&exact];
        }
        let covering = self
            .grids
            .iter()
            .filter(|((name, gen, _), cat)| {
                name == &key.0 && *gen == key.1 && cat.grid.geom.r_max >= radius
            })
            .min_by(|(_, a), (_, b)| a.grid.geom.r_max.total_cmp(&b.grid.geom.r_max))
            .map(|(k, _)| k.clone());
        if let Some(k) = covering {
            self.hits += 1;
            return &self.grids[&k];
        }
        self.grid(dev, key, pts, radius)
    }

    /// Drop every entry of `key.0` whose generation differs from
    /// `key.1` (the re-registration invalidation rule), freeing its
    /// device buffers.
    fn evict_stale(&mut self, dev: &mut Device, key: &DatasetKey) {
        let live = |name: &String, gen: &u64| name != &key.0 || *gen == key.1;
        self.shards.retain(|(name, gen, _), uploads| {
            live(name, gen) || {
                for u in uploads.iter() {
                    u.free(dev).expect("cache entries own their uploads");
                }
                false
            }
        });
        self.grids.retain(|(name, gen, _), cat| {
            live(name, gen) || {
                cat.device()
                    .free(dev)
                    .expect("cache entries own their catalogs");
                false
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;

    #[test]
    fn shard_cache_hits_on_repeat_and_evicts_on_new_generation() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let mut cache = WorkerCache::default();
        let pts = tbs_datagen::uniform_points::<3>(64, 100.0, 3);
        let key = ("d".to_string(), 0);
        assert_eq!(cache.shard_uploads(&mut dev, &key, &pts, 2).len(), 2);
        assert_eq!((cache.hits, cache.misses), (0, 1));
        cache.shard_uploads(&mut dev, &key, &pts, 2);
        assert_eq!((cache.hits, cache.misses), (1, 1));
        // A different shard split is its own entry.
        cache.shard_uploads(&mut dev, &key, &pts, 3);
        assert_eq!((cache.hits, cache.misses), (1, 2));
        let one_copy = 3 * 64 * 4;
        assert_eq!(dev.allocated_bytes(), 2 * one_copy);
        // A new generation evicts both old entries and frees their
        // device buffers.
        let key1 = ("d".to_string(), 1);
        cache.shard_uploads(&mut dev, &key1, &pts, 2);
        assert_eq!((cache.hits, cache.misses), (1, 3));
        assert_eq!(cache.shards.len(), 1);
        assert_eq!(dev.allocated_bytes(), one_copy);
        // The old generation is gone: re-requesting it rebuilds.
        cache.shard_uploads(&mut dev, &key, &pts, 2);
        assert_eq!((cache.hits, cache.misses), (1, 4));
    }

    #[test]
    fn covering_grid_is_shared_across_smaller_radii() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let mut cache = WorkerCache::default();
        let pts = tbs_datagen::uniform_points::<3>(128, 100.0, 5);
        let key = ("d".to_string(), 0);
        cache.grid(&mut dev, &key, &pts, 20.0);
        // A smaller radius rides the cached 20.0 grid instead of
        // rebuilding.
        let cat = cache.grid_covering(&mut dev, &key, &pts, 7.0);
        assert_eq!(cat.grid.geom.r_max, 20.0);
        assert_eq!((cache.hits, cache.misses), (1, 1));
        // A larger radius cannot be covered: fresh build.
        cache.grid_covering(&mut dev, &key, &pts, 30.0);
        assert_eq!((cache.hits, cache.misses), (1, 2));
        // The tightest covering grid wins (20.0, not 30.0).
        let cat = cache.grid_covering(&mut dev, &key, &pts, 15.0);
        assert_eq!(cat.grid.geom.r_max, 20.0);
        assert_eq!((cache.hits, cache.misses), (2, 2));
    }

    #[test]
    fn grid_cache_hits_on_repeat_radius() {
        let mut dev = Device::new(DeviceConfig::titan_x());
        let mut cache = WorkerCache::default();
        let pts = tbs_datagen::uniform_points::<3>(128, 100.0, 5);
        let key = ("d".to_string(), 0);
        cache.grid(&mut dev, &key, &pts, 10.0);
        cache.grid(&mut dev, &key, &pts, 10.0);
        assert_eq!((cache.hits, cache.misses), (1, 1));
        cache.grid(&mut dev, &key, &pts, 20.0);
        assert_eq!((cache.hits, cache.misses), (1, 2));
        assert_eq!(dev.allocated_bytes(), 2 * 3 * 128 * 4);
        // A new generation frees both stale catalogs.
        cache.grid(&mut dev, &("d".to_string(), 1), &pts, 10.0);
        assert_eq!(cache.grids.len(), 1);
        assert_eq!(dev.allocated_bytes(), 3 * 128 * 4);
    }
}
