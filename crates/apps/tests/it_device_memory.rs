//! Every allocating entry point gives back the device memory it took.
//!
//! An entry point's uploads and output buffers are temporaries: after
//! the call, on success and on an error return alike,
//! `Device::allocated_bytes` must read what it read before. Each case
//! runs on a device that already holds a caller's buffer, which must
//! survive untouched, and the error cases use a device whose launches
//! are refused only after the entry point has allocated.

use gpu_sim::{Device, DeviceConfig, SimError};
use tbs_apps::{
    distance_join_gpu, distance_join_two_gpu, gram_gpu, gridded_count_within,
    gridded_count_within_multi, gridded_cross_radial_histogram, gridded_radial_histogram, kde_gpu,
    knn_gpu, ls_pair_counts, pcf_gpu, rdf_gpu, rdf_gpu_periodic, sdh_gpu_with, GriddedCatalog,
    PairwisePlan, SdhOutputMode,
};
use tbs_core::distance::{Euclidean, GaussianRbf, PeriodicEuclidean};
use tbs_core::grid::{GridGeometry, GridOptions, RadialBins};
use tbs_core::histogram::HistogramSpec;
use tbs_core::point::SoaPoints;

const BOX: f32 = 40.0;

fn pts(n: usize, seed: u64) -> SoaPoints<3> {
    tbs_datagen::uniform_points(n, BOX, seed)
}

fn plan() -> PairwisePlan {
    PairwisePlan::register_shm(64)
}

/// A device whose every launch is refused (`TooManyRegisters`) after
/// validation — that is, after the entry point has allocated.
fn refusing() -> DeviceConfig {
    let mut cfg = DeviceConfig::titan_x();
    cfg.max_registers_per_thread = 1;
    cfg
}

/// Run `call` on a fresh device of `cfg` holding one caller buffer, and
/// assert the call left live bytes and that buffer unchanged. Returns
/// whether the call succeeded.
fn leaves_no_trace<T>(
    cfg: DeviceConfig,
    call: impl FnOnce(&mut Device) -> Result<T, SimError>,
) -> bool {
    let mut dev = Device::new(cfg);
    let mine = dev.alloc_u32(vec![7; 100]);
    let before = dev.allocated_bytes();
    let ok = call(&mut dev).is_ok();
    assert_eq!(
        dev.allocated_bytes(),
        before,
        "the call leaked device memory"
    );
    assert_eq!(
        dev.u32_slice(mine),
        &[7; 100][..],
        "the caller's buffer changed"
    );
    ok
}

/// Each entry point, once on a working device (must succeed) and once
/// on a refusing one (must fail), leaves no device memory behind.
fn check(name: &str, call: impl Fn(&mut Device) -> Result<(), SimError>) {
    assert!(
        leaves_no_trace(DeviceConfig::titan_x(), &call),
        "{name} failed"
    );
    assert!(
        !leaves_no_trace(refusing(), &call),
        "{name} was not refused"
    );
}

#[test]
fn dense_entry_points_free_their_temporaries() {
    let p = pts(300, 1);
    let spec = HistogramSpec::new(16, 30.0);
    check("pcf_gpu", |dev| pcf_gpu(dev, &p, 8.0, plan()).map(drop));
    for mode in [SdhOutputMode::Privatized, SdhOutputMode::GlobalAtomics] {
        check("sdh_gpu_with", |dev| {
            sdh_gpu_with(dev, &p, Euclidean, spec, plan(), mode).map(drop)
        });
    }
    let periodic = HistogramSpec::new(8, BOX / 2.0);
    check("rdf_gpu", |dev| {
        rdf_gpu(dev, &p, spec, BOX, plan()).map(drop)
    });
    check("rdf_gpu_periodic", |dev| {
        rdf_gpu_periodic(dev, &p, periodic, BOX, plan()).map(drop)
    });
    check("periodic sdh_gpu_with", |dev| {
        let dist = PeriodicEuclidean::new(BOX);
        sdh_gpu_with(dev, &p, dist, periodic, plan(), SdhOutputMode::Privatized).map(drop)
    });
    check("knn_gpu", |dev| knn_gpu::<3, 3>(dev, &p, plan()).map(drop));
    check("kde_gpu", |dev| kde_gpu(dev, &p, 4.0, plan()).map(drop));
    check("gram_gpu", |dev| {
        gram_gpu(dev, &p, GaussianRbf::new(4.0), plan()).map(drop)
    });
    for aggregated in [false, true] {
        check("distance_join_gpu", |dev| {
            distance_join_gpu(dev, &p, 5.0, 4096, aggregated, plan()).map(drop)
        });
        check("distance_join_two_gpu", |dev| {
            distance_join_two_gpu(dev, &p, &pts(200, 2), 5.0, 4096, aggregated, 64).map(drop)
        });
    }
}

#[test]
fn gridded_entry_points_free_their_temporaries() {
    let (data, rand) = (pts(1500, 3), pts(1500, 4));
    let bins = RadialBins::new(8, 6.0);
    let opts = GridOptions {
        target_points_per_cell: 32,
        max_cells: 1 << 16,
    };
    check("ls_pair_counts", |dev| {
        ls_pair_counts(dev, &data, &rand, bins, plan(), &opts).map(drop)
    });
    // The catalogs are the caller's: built outside the call, they stay;
    // only the sweep's own buffers must go.
    let call = |dev: &mut Device| {
        let geom = GridGeometry::fit(&[&data, &rand], bins.r_max, &opts);
        let dcat = GriddedCatalog::build(dev, geom.clone(), &data);
        let rcat = GriddedCatalog::build(dev, geom, &rand);
        let held = dev.allocated_bytes();
        let got = [
            gridded_count_within(dev, &dcat, 4.0, plan()).map(drop),
            gridded_radial_histogram(dev, &dcat, bins, plan()).map(drop),
            gridded_cross_radial_histogram(dev, &dcat, &rcat, bins, plan()).map(drop),
            gridded_count_within_multi(dev, &dcat, &[2.0, 4.0, 6.0], plan()).map(drop),
        ];
        assert_eq!(dev.allocated_bytes(), held, "gridded sweep leaked");
        dcat.device().free(dev)?;
        rcat.device().free(dev)?;
        got.into_iter()
            .collect::<Result<Vec<()>, SimError>>()
            .map(drop)
    };
    check("gridded sweeps", call);
}
