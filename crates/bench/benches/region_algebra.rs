//! Microbenchmarks of the region algebra (paper Section 3.1: "represen-
//! tations ought to be efficient, both in space and runtime complexity").
//! Covers the three Fig. 4 schemes at varying fragmentation levels.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use allscale_region::{BitmaskTreeRegion, BoxRegion, Region, TreePath, TreeRegion};

/// A checkerboard-ish region of `n` disjoint boxes.
fn fragmented(n: i64) -> BoxRegion<2> {
    BoxRegion::from_boxes((0..n).map(|i| {
        allscale_region::GridBox::new(
            allscale_region::Point([i * 20, (i % 7) * 20]),
            allscale_region::Point([i * 20 + 10, (i % 7) * 20 + 10]),
        )
        .unwrap()
    }))
}

fn bench_box_regions(c: &mut Criterion) {
    let mut g = c.benchmark_group("box_region");
    for &n in &[4i64, 16, 64] {
        let a = fragmented(n);
        let b = {
            // Shifted copy: partial overlaps everywhere.
            BoxRegion::from_boxes((0..n).map(|i| {
                allscale_region::GridBox::new(
                    allscale_region::Point([i * 20 + 5, (i % 7) * 20 + 5]),
                    allscale_region::Point([i * 20 + 15, (i % 7) * 20 + 15]),
                )
                .unwrap()
            }))
        };
        g.bench_with_input(BenchmarkId::new("union", n), &n, |bch, _| {
            bch.iter(|| black_box(&a).union(black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("intersect", n), &n, |bch, _| {
            bch.iter(|| black_box(&a).intersect(black_box(&b)))
        });
        g.bench_with_input(BenchmarkId::new("difference", n), &n, |bch, _| {
            bch.iter(|| black_box(&a).difference(black_box(&b)))
        });
    }
    g.finish();
}

fn bench_halo_pattern(c: &mut Criterion) {
    // The hot pattern of the stencil benchmark: dilate a tile, subtract
    // the owned block, split the remainder by owner.
    let universe = allscale_region::GridBox::<2>::from_shape([4096, 4096]).unwrap();
    let tile = BoxRegion::cuboid([1024, 0], [2048, 4096]);
    let owned = BoxRegion::cuboid([1024, 0], [2048, 4096]);
    c.bench_function("halo/dilate_subtract", |b| {
        b.iter(|| {
            let read = black_box(&tile).dilate_within(1, &universe);
            read.difference(black_box(&owned))
        })
    });
}

fn bench_tree_regions(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree_region");
    // Flexible scheme: include/exclude sets of increasing depth.
    for &depth in &[4u8, 8, 12] {
        let mut left_path = TreePath::ROOT;
        let mut right_path = TreePath::ROOT;
        for _ in 0..depth {
            left_path = left_path.left();
            right_path = right_path.right();
        }
        let a = TreeRegion::from_include_exclude(&[TreePath::ROOT], &[left_path]);
        let b = TreeRegion::from_include_exclude(&[TreePath::ROOT], &[right_path]);
        g.bench_with_input(BenchmarkId::new("flexible_ops", depth), &depth, |bch, _| {
            bch.iter(|| {
                let u = black_box(&a).union(black_box(&b));
                let i = a.intersect(&b);
                let d = a.difference(&b);
                (u, i, d)
            })
        });
    }
    // Blocked scheme (Fig. 4c): pure bitmask ops — orders of magnitude
    // cheaper, which is the point of the coarser representation.
    for &h in &[4u8, 8, 12] {
        let mut a = BitmaskTreeRegion::new(h);
        let mut b = BitmaskTreeRegion::new(h);
        for i in 0..(1usize << h) {
            if i % 2 == 0 {
                a.set_subtree(i, true);
            }
            if i % 3 == 0 {
                b.set_subtree(i, true);
            }
        }
        g.bench_with_input(BenchmarkId::new("blocked_ops", h), &h, |bch, _| {
            bch.iter(|| {
                let u = black_box(&a).union(black_box(&b));
                let i = a.intersect(&b);
                let d = a.difference(&b);
                (u, i, d)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_box_regions,
    bench_halo_pattern,
    bench_tree_regions
);
criterion_main!(benches);
