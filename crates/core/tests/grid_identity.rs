//! Differential exactness suite for the uniform-grid spatial front end.
//!
//! The grid's whole value proposition is that pruning is *invisible* in
//! the outputs: every counted quantity — within-radius pair counts and
//! bounded radial histograms — must be **bit-identical** between the
//! grid-pruned route and the all-pairs route, on the CPU oracle and on
//! the simulated device, across uniform, clustered and degenerate
//! layouts, for r_max from a sliver of the box to larger than the box
//! (where the grid must degrade gracefully to a single-cell all-pairs
//! launch).

use gpu_sim::{Device, DeviceConfig};
use proptest::prelude::*;
use tbs_apps::sdh::{sdh_gpu, SdhOutputMode};
use tbs_apps::{
    gridded_count_within, gridded_count_within_multi, gridded_cross_radial_histogram,
    gridded_radial_histogram, pcf_gpu, GriddedCatalog, PairwisePlan,
};
use tbs_core::distance::Euclidean;
use tbs_core::grid::{
    candidate_pairs, prune_stats, GridGeometry, GridOptions, RadialBins, UniformGrid,
};
use tbs_core::kernels::{PackedLayout, PackedPairKernel, PackedSegment};
use tbs_core::output::CountWithinRadius;
use tbs_core::point::SoaPoints;
use tbs_cpu::{
    grid_cross_radial_reference, grid_pcf_device_reference, grid_pcf_reference,
    grid_radial_reference, pcf_reference, sdh_reference,
};

const BOX: f32 = 100.0;

/// The catalog layouts the grid must handle: smooth, heavily skewed,
/// Gaussian blobs (the clustered Landy–Szalay catalog shape) and the
/// degenerate single-cell pile-up.
#[derive(Debug, Clone, Copy)]
enum Layout {
    Uniform,
    Clustered,
    Blobs,
    OnePoint,
}

/// Four Gaussian blobs (σ = 4) in the box.
fn blobs(n: usize, seed: u64) -> SoaPoints<3> {
    let centers = [
        [25.0, 25.0, 25.0],
        [75.0, 25.0, 60.0],
        [30.0, 70.0, 70.0],
        [70.0, 75.0, 30.0],
    ];
    tbs_datagen::gaussian_blobs(n, BOX, &centers, &[4.0; 4], seed)
}

fn catalog(layout: Layout, n: usize, seed: u64) -> SoaPoints<3> {
    match layout {
        Layout::Uniform => tbs_datagen::uniform_points(n, BOX, seed),
        Layout::Clustered => tbs_datagen::clustered_points(n, BOX, 7, 2.5, seed),
        Layout::Blobs => blobs(n, seed),
        // Every point in one spot: one cell holds everything, all
        // others are empty.
        Layout::OnePoint => SoaPoints::from_points(&vec![[3.0, 4.0, 5.0]; n]),
    }
}

fn layout_strategy() -> impl Strategy<Value = Layout> {
    prop::sample::select(vec![
        Layout::Uniform,
        Layout::Clustered,
        Layout::Blobs,
        Layout::OnePoint,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CPU oracle: grid-pruned count == all-pairs count, bit for bit,
    /// for any N ∈ [0, 4096], any r_max (including > box), any grid
    /// resolution.
    #[test]
    fn cpu_grid_count_equals_all_pairs(
        n in 0usize..4096,
        r_max in prop::sample::select(vec![0.5f32, 2.0, 5.0, 10.0, 40.0, 120.0, 500.0]),
        target in prop::sample::select(vec![2u32, 16, 512]),
        layout in layout_strategy(),
        seed in 0u64..1_000,
    ) {
        let pts = catalog(layout, n, seed);
        let opts = GridOptions { target_points_per_cell: target, max_cells: 1 << 20 };
        prop_assert_eq!(
            grid_pcf_reference(&pts, r_max, &opts),
            pcf_reference(&pts, r_max)
        );
    }

    /// CPU oracle: grid-pruned radial histogram == all-pairs histogram
    /// under the overflow-bucket spec, bit for bit.
    #[test]
    fn cpu_grid_histogram_equals_all_pairs(
        n in 0usize..2048,
        r_max in prop::sample::select(vec![1.0f32, 6.0, 14.0, 200.0]),
        bins in prop::sample::select(vec![1u32, 5, 32]),
        target in prop::sample::select(vec![8u32, 512]),
        layout in layout_strategy(),
        seed in 0u64..1_000,
    ) {
        let pts = catalog(layout, n, seed);
        let rb = RadialBins::new(bins, r_max);
        let opts = GridOptions { target_points_per_cell: target, max_cells: 1 << 20 };
        let all = sdh_reference(&pts, rb.device_spec());
        prop_assert_eq!(
            grid_radial_reference(&pts, rb, &opts),
            rb.finalize(&all)
        );
    }

    /// Device route: the gridded executor's count equals the monolithic
    /// all-pairs launch AND the CPU oracle (smaller N — each case is a
    /// full simulated-device run).
    #[test]
    fn device_grid_count_equals_all_pairs(
        n in 0usize..1024,
        r_max in prop::sample::select(vec![4.0f32, 12.0, 150.0]),
        layout in layout_strategy(),
        seed in 0u64..1_000,
    ) {
        let pts = catalog(layout, n, seed);
        let plan = PairwisePlan::register_shm(64);
        let opts = GridOptions { target_points_per_cell: 64, max_cells: 1 << 20 };
        let mut dev = Device::new(DeviceConfig::titan_x());
        let cat = GriddedCatalog::build_self(&mut dev, &pts, r_max, &opts);
        let grid = gridded_count_within(&mut dev, &cat, r_max, plan).expect("gridded launch");
        let mut dev2 = Device::new(DeviceConfig::titan_x());
        let all = pcf_gpu(&mut dev2, &pts, r_max, plan).expect("all-pairs launch");
        prop_assert_eq!(grid.count, all.count);
        // Cross-engine: the device predicate is `√dist² < r` (not the
        // CPU comparator's sqrt-free `dist² < r²`), so compare against
        // the device-arithmetic oracle for exactness at any N.
        prop_assert_eq!(grid.count, grid_pcf_device_reference(&pts, r_max, &opts));
    }

    /// Device route: the gridded radial histogram equals the all-pairs
    /// privatized SDH under the overflow spec, finalized identically.
    #[test]
    fn device_grid_histogram_equals_all_pairs(
        n in 2usize..768,
        r_max in prop::sample::select(vec![5.0f32, 15.0, 180.0]),
        bins in prop::sample::select(vec![4u32, 24]),
        layout in layout_strategy(),
        seed in 0u64..1_000,
    ) {
        let pts = catalog(layout, n, seed);
        let rb = RadialBins::new(bins, r_max);
        let plan = PairwisePlan::register_shm(64);
        let opts = GridOptions { target_points_per_cell: 64, max_cells: 1 << 20 };
        let mut dev = Device::new(DeviceConfig::titan_x());
        let cat = GriddedCatalog::build_self(&mut dev, &pts, r_max, &opts);
        let grid = gridded_radial_histogram(&mut dev, &cat, rb, plan).expect("gridded launch");
        let mut dev2 = Device::new(DeviceConfig::titan_x());
        let all = sdh_gpu(&mut dev2, &pts, rb.device_spec(), plan, SdhOutputMode::Privatized)
            .expect("all-pairs launch");
        prop_assert_eq!(grid.histogram, rb.finalize(&all.histogram));
    }

    /// Packed count identity: the packed segmented sweep and the
    /// monolithic all-pairs launch agree bit for bit — across
    /// clustered/degenerate layouts, one-point cells (`target = 1`), and
    /// cell populations sitting exactly on, one below, and one above
    /// block-size multiples (targets 64, 127, 128, 129 against the packed
    /// planner's 128-minimum blocks) — and a multi-radius sweep is the
    /// same bits again.
    #[test]
    fn packed_route_equals_all_pairs_and_multi(
        n in 0usize..1024,
        r_max in prop::sample::select(vec![4.0f32, 12.0, 150.0]),
        target in prop::sample::select(vec![1u32, 64, 127, 128, 129]),
        layout in layout_strategy(),
        seed in 0u64..1_000,
    ) {
        let pts = catalog(layout, n, seed);
        let plan = PairwisePlan::register_shm(64);
        let opts = GridOptions { target_points_per_cell: target, max_cells: 1 << 20 };
        let mut dev = Device::new(DeviceConfig::titan_x());
        let cat = GriddedCatalog::build_self(&mut dev, &pts, r_max, &opts);
        let packed = gridded_count_within(&mut dev, &cat, r_max, plan).expect("packed launch");
        let mut dev2 = Device::new(DeviceConfig::titan_x());
        let all = pcf_gpu(&mut dev2, &pts, r_max, plan).expect("all-pairs launch");
        prop_assert_eq!(packed.count, all.count);
        let (multi, _) = gridded_count_within_multi(&mut dev, &cat, &[r_max], plan)
            .expect("multi launch");
        prop_assert_eq!(multi[0], packed.count);
    }

    /// Packed histogram identity on the same layouts: the packed sweep
    /// equals the all-pairs privatized SDH, and the compiled route (which
    /// culls overflow rows) and the op-by-op route produce the same
    /// histogram, tallies and simulated time.
    #[test]
    fn packed_histogram_equals_all_pairs_on_both_routes(
        n in 2usize..640,
        r_max in prop::sample::select(vec![5.0f32, 15.0, 180.0]),
        bins in prop::sample::select(vec![4u32, 24]),
        target in prop::sample::select(vec![1u32, 64, 128]),
        layout in layout_strategy(),
        seed in 0u64..1_000,
    ) {
        let pts = catalog(layout, n, seed);
        let rb = RadialBins::new(bins, r_max);
        let plan = PairwisePlan::register_shm(64);
        let opts = GridOptions { target_points_per_cell: target, max_cells: 1 << 20 };
        let mut dev = Device::new(DeviceConfig::titan_x());
        let cat = GriddedCatalog::build_self(&mut dev, &pts, r_max, &opts);
        let packed = gridded_radial_histogram(&mut dev, &cat, rb, plan).expect("packed launch");
        let mut dev2 = Device::new(DeviceConfig::titan_x());
        let all = sdh_gpu(&mut dev2, &pts, rb.device_spec(), plan, SdhOutputMode::Privatized)
            .expect("all-pairs launch");
        prop_assert_eq!(&packed.histogram, &rb.finalize(&all.histogram));
        let mut dev_op = Device::new(DeviceConfig::titan_x().with_compiled(false));
        let cat_op = GriddedCatalog::build_self(&mut dev_op, &pts, r_max, &opts);
        let op = gridded_radial_histogram(&mut dev_op, &cat_op, rb, plan)
            .expect("op-by-op packed launch");
        prop_assert_eq!(&packed.histogram, &op.histogram);
        prop_assert_eq!(&packed.run.tally, &op.run.tally);
        prop_assert_eq!(packed.run.seconds.to_bits(), op.run.seconds.to_bits());
        prop_assert_eq!(op.run.culled_rows, 0);
    }

    /// Pruned cross-histogram identity (DR): the packed sweep over two
    /// catalogs on one geometry equals the CPU union identity
    /// `ref(D ∪ R) − ref(D) − ref(R)`, on the compiled and the op-by-op
    /// route alike, with the same tallies and simulated time.
    #[test]
    fn packed_cross_histogram_equals_union_identity(
        nd in 0usize..640,
        nr in 0usize..640,
        r_max in prop::sample::select(vec![5.0f32, 15.0, 180.0]),
        bins in prop::sample::select(vec![4u32, 24]),
        target in prop::sample::select(vec![1u32, 64, 128]),
        d_layout in layout_strategy(),
        r_layout in layout_strategy(),
        seed in 0u64..1_000,
    ) {
        let (d, r) = (catalog(d_layout, nd, seed), catalog(r_layout, nr, seed ^ 0x5eed));
        let rb = RadialBins::new(bins, r_max);
        let plan = PairwisePlan::register_shm(64);
        let opts = GridOptions { target_points_per_cell: target, max_cells: 1 << 20 };
        let want = grid_cross_radial_reference(&d, &r, rb, &opts);
        let run = |cfg: DeviceConfig| {
            let mut dev = Device::new(cfg);
            let geom = GridGeometry::fit(&[&d, &r], r_max, &opts);
            let dcat = GriddedCatalog::build(&mut dev, geom.clone(), &d);
            let rcat = GriddedCatalog::build(&mut dev, geom, &r);
            gridded_cross_radial_histogram(&mut dev, &dcat, &rcat, rb, plan)
                .expect("packed cross launch")
        };
        let compiled = run(DeviceConfig::titan_x());
        let op = run(DeviceConfig::titan_x().with_compiled(false));
        prop_assert_eq!(&compiled.histogram, &want);
        prop_assert_eq!(&op.histogram, &want);
        prop_assert_eq!(&compiled.run.tally, &op.run.tally);
        prop_assert_eq!(compiled.run.seconds.to_bits(), op.run.seconds.to_bits());
    }

    /// Candidate enumeration invariants for arbitrary layouts: no cell
    /// pair is visited twice, and the candidate pair mass never exceeds
    /// the all-pairs mass.
    #[test]
    fn candidate_pairs_are_unique_and_bounded(
        n in 0usize..4096,
        r_max in prop::sample::select(vec![1.0f32, 8.0, 300.0]),
        target in prop::sample::select(vec![4u32, 256]),
        layout in layout_strategy(),
        seed in 0u64..1_000,
    ) {
        let pts = catalog(layout, n, seed);
        let opts = GridOptions { target_points_per_cell: target, max_cells: 1 << 20 };
        let grid = UniformGrid::build(&pts, r_max, &opts);
        let pairs = candidate_pairs(&grid);
        let mut seen = std::collections::BTreeSet::new();
        for p in &pairs {
            let key = (p.a.min(p.b), p.a.max(p.b));
            prop_assert!(seen.insert(key), "cell pair {:?} enumerated twice", p);
        }
        let stats = prune_stats(&grid, &pairs);
        prop_assert!(stats.candidate_point_pairs <= stats.total_point_pairs.max(1));
    }
}

/// r_max much larger than the box: the geometry must collapse to a
/// single cell and the executor to exactly one triangular launch —
/// graceful degradation to the monolithic all-pairs route.
#[test]
fn oversized_radius_degrades_to_all_pairs() {
    let pts = tbs_datagen::uniform_points::<3>(700, BOX, 3);
    let grid = UniformGrid::build(&pts, BOX * 10.0, &GridOptions::default());
    assert_eq!(grid.geom.num_cells(), 1);
    let pairs = candidate_pairs(&grid);
    assert_eq!(pairs.len(), 1);
    assert_eq!(
        prune_stats(&grid, &pairs).candidate_point_pairs,
        700 * 699 / 2
    );
    let mut dev = Device::new(DeviceConfig::titan_x());
    let cat = GriddedCatalog::build_self(&mut dev, &pts, BOX * 10.0, &GridOptions::default());
    let got =
        gridded_count_within(&mut dev, &cat, 30.0, PairwisePlan::register_shm(64)).expect("launch");
    assert_eq!(got.run.launches(), 1);
    assert_eq!(
        got.count,
        grid_pcf_device_reference(&pts, 30.0, &GridOptions::default())
    );
}

/// Fault blame parity: a segment whose tile fetch runs off the end of
/// the catalog must raise the *same* out-of-bounds fault whether it
/// runs packed behind healthy segments or as its own solo launch — the
/// packer must not shift or launder the blame, and the healthy
/// segments must not be able to mask the fault.
#[test]
fn fault_blame_parity_between_packed_and_solo_launches() {
    let pts = tbs_datagen::uniform_points::<3>(256, BOX, 5);
    let mut dev = Device::new(DeviceConfig::titan_x());
    let soa = pts.upload(&mut dev);
    let good = PackedSegment::intra(0, 128);
    // Right slice [200, 320) runs 64 elements past the 256-point
    // catalog: every access ≥ 256 faults.
    let bad = PackedSegment::cross(128, 128, 200, 120);
    let b = 128u32;

    let solo_layout = PackedLayout::new(vec![bad], b);
    let solo_lc = solo_layout.launch_config();
    let solo_out = dev.alloc_u64_zeroed(solo_lc.total_threads() as usize);
    let solo_err = dev
        .try_launch(
            &PackedPairKernel::self_join(
                soa,
                Euclidean,
                CountWithinRadius {
                    radius: 1.0,
                    out: solo_out,
                },
                solo_layout,
            ),
            solo_lc,
        )
        .expect_err("solo launch must fault");

    let packed_layout = PackedLayout::new(vec![good, bad], b);
    let packed_lc = packed_layout.launch_config();
    let packed_out = dev.alloc_u64_zeroed(packed_lc.total_threads() as usize);
    let packed_err = dev
        .try_launch(
            &PackedPairKernel::self_join(
                soa,
                Euclidean,
                CountWithinRadius {
                    radius: 1.0,
                    out: packed_out,
                },
                packed_layout,
            ),
            packed_lc,
        )
        .expect_err("packed launch must fault on the bad segment");

    assert_eq!(packed_err, solo_err, "blame must not shift under packing");
    assert!(
        matches!(packed_err, gpu_sim::SimError::OutOfBounds { .. }),
        "{packed_err:?}"
    );

    // And the same healthy segment alone still runs clean.
    let ok_layout = PackedLayout::new(vec![good], b);
    let ok_lc = ok_layout.launch_config();
    let ok_out = dev.alloc_u64_zeroed(ok_lc.total_threads() as usize);
    dev.try_launch(
        &PackedPairKernel::self_join(
            soa,
            Euclidean,
            CountWithinRadius {
                radius: 1.0,
                out: ok_out,
            },
            ok_layout,
        ),
        ok_lc,
    )
    .expect("healthy segment must not fault");
}

/// Mostly-empty grids (tiny N on a fine grid) enumerate only occupied
/// cells and still agree with all-pairs.
#[test]
fn sparse_grids_with_empty_cells_are_exact() {
    let pts = tbs_datagen::uniform_points::<3>(40, BOX, 11);
    let opts = GridOptions {
        target_points_per_cell: 1,
        max_cells: 1 << 20,
    };
    let grid = UniformGrid::build(&pts, 3.0, &opts);
    let stats = prune_stats(&grid, &candidate_pairs(&grid));
    assert!(stats.occupied_cells <= 40);
    assert!(stats.cells >= stats.occupied_cells);
    assert_eq!(
        grid_pcf_reference(&pts, 3.0, &opts),
        pcf_reference(&pts, 3.0)
    );
}

/// Row culling fires on a clustered catalog: most rows of the packed
/// radial histogram put the whole warp in the overflow bucket, and the
/// compiled sweep culls them without moving the histogram, the tallies
/// or the simulated time.
#[test]
fn packed_histogram_culls_overflow_rows_on_blobs() {
    let pts = blobs(4096, 7);
    let rb = RadialBins::new(10, 5.0);
    let plan = PairwisePlan::register_shm(256);
    let opts = GridOptions::default();
    let run = |cfg: DeviceConfig| {
        let mut dev = Device::new(cfg);
        let cat = GriddedCatalog::build_self(&mut dev, &pts, 5.0, &opts);
        gridded_radial_histogram(&mut dev, &cat, rb, plan).expect("packed launch")
    };
    let compiled = run(DeviceConfig::titan_x());
    let op = run(DeviceConfig::titan_x().with_compiled(false));
    assert_eq!(compiled.histogram, op.histogram);
    assert_eq!(compiled.run.tally, op.run.tally);
    assert_eq!(compiled.run.seconds.to_bits(), op.run.seconds.to_bits());
    assert_eq!(op.run.culled_rows, 0);
    assert!(
        compiled.run.culled_row_frac() > 0.5,
        "culled {} of {} rows",
        compiled.run.culled_rows,
        compiled.run.tally.shared_atomics
    );
}

/// All points in one cell of a many-cell grid: the one occupied cell
/// self-joins, every other candidate disappears.
#[test]
fn one_occupied_cell_among_many_is_exact() {
    let pts = SoaPoints::<3>::from_points(
        &(0..256)
            .map(|i| [10.0 + (i % 7) as f32 * 0.1, 10.0, 10.0])
            .collect::<Vec<_>>(),
    );
    // Wide box: pad the grid with a far-away lone point so the fitted
    // box is large while one cell holds nearly everything.
    let mut padded = pts.clone();
    padded.push([95.0, 95.0, 95.0]);
    let opts = GridOptions {
        target_points_per_cell: 2,
        max_cells: 1 << 20,
    };
    let grid = UniformGrid::build(&padded, 2.0, &opts);
    let pairs = candidate_pairs(&grid);
    let stats = prune_stats(&grid, &pairs);
    assert!(stats.pruned_fraction() < 1.0);
    assert_eq!(
        grid_pcf_reference(&padded, 2.0, &opts),
        pcf_reference(&padded, 2.0)
    );
    let rb = RadialBins::new(8, 2.0);
    assert_eq!(
        grid_radial_reference(&padded, rb, &opts),
        rb.finalize(&sdh_reference(&padded, rb.device_spec()))
    );
}
