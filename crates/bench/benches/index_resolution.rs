//! Microbenchmarks of the hierarchical distributed index (paper Fig. 5 +
//! Algorithm 1) against the central-directory ablation (A1): resolution
//! cost and hop counts across cluster sizes, plus cached vs. uncached
//! repeat-resolutions through the [`LocationCache`].

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use allscale_core::{CentralIndex, DistIndex, ItemId, LocationCache};
use allscale_region::{BoxRegion, BucketRegion, Region};

fn r1(lo: i64, hi: i64) -> BoxRegion<1> {
    BoxRegion::cuboid([lo], [hi])
}

fn populated_dist(procs: usize) -> DistIndex {
    let mut idx = DistIndex::new(procs);
    idx.register_item(ItemId(0), &BoxRegion::<1>::empty());
    for p in 0..procs {
        let lo = p as i64 * 100;
        idx.update_leaf(ItemId(0), p, Box::new(r1(lo, lo + 100)));
    }
    idx
}

fn populated_central(procs: usize) -> CentralIndex {
    let mut idx = CentralIndex::new(procs);
    idx.register_item(ItemId(0), &BoxRegion::<1>::empty());
    for p in 0..procs {
        let lo = p as i64 * 100;
        idx.update_leaf(ItemId(0), p, Box::new(r1(lo, lo + 100)));
    }
    idx
}

fn bench_resolution(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_resolve");
    for &procs in &[8usize, 64, 256] {
        let dist = populated_dist(procs);
        let central = populated_central(procs);
        // A local lookup, a sibling lookup, and a cross-cluster lookup.
        let local = r1(0, 100);
        let far = r1((procs as i64 - 1) * 100, procs as i64 * 100);
        let spread = r1(50, (procs as i64) * 100 - 50);
        g.bench_with_input(BenchmarkId::new("dist_local", procs), &procs, |b, _| {
            b.iter(|| dist.resolve(ItemId(0), 0, black_box(&local)))
        });
        g.bench_with_input(BenchmarkId::new("dist_far", procs), &procs, |b, _| {
            b.iter(|| dist.resolve(ItemId(0), 0, black_box(&far)))
        });
        g.bench_with_input(BenchmarkId::new("dist_spread", procs), &procs, |b, _| {
            b.iter(|| dist.resolve(ItemId(0), 0, black_box(&spread)))
        });
        g.bench_with_input(BenchmarkId::new("central_far", procs), &procs, |b, _| {
            b.iter(|| central.resolve(ItemId(0), 0, black_box(&far)))
        });
    }
    g.finish();
}

/// Repeat-resolution of a stable distribution: the scheduler's steady-state
/// access pattern. The cached variant should beat the uncached traversal by
/// a wide margin (acceptance: ≥ 5× at 64 processes) because a warm hit is a
/// fingerprint and one hash probe, with zero control-message hops.
fn bench_cached_resolution(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_resolve_cached");
    for &procs in &[8usize, 64, 256] {
        let dist = populated_dist(procs);
        let far = r1((procs as i64 - 1) * 100, procs as i64 * 100);
        let spread = r1(50, (procs as i64) * 100 - 50);
        g.bench_with_input(BenchmarkId::new("uncached_far", procs), &procs, |b, _| {
            b.iter(|| dist.resolve(ItemId(0), 0, black_box(&far)))
        });
        g.bench_with_input(BenchmarkId::new("cached_far", procs), &procs, |b, _| {
            let mut cache = LocationCache::new();
            cache.resolve(&dist, ItemId(0), 0, &far); // warm
            b.iter(|| cache.resolve(&dist, ItemId(0), 0, black_box(&far)))
        });
        g.bench_with_input(
            BenchmarkId::new("uncached_spread", procs),
            &procs,
            |b, _| b.iter(|| dist.resolve(ItemId(0), 0, black_box(&spread))),
        );
        g.bench_with_input(BenchmarkId::new("cached_spread", procs), &procs, |b, _| {
            let mut cache = LocationCache::new();
            cache.resolve(&dist, ItemId(0), 0, &spread); // warm
            b.iter(|| cache.resolve(&dist, ItemId(0), 0, black_box(&spread)))
        });
    }
    // The serving shape: a 512-bucket store in 8 shards over 4 processes,
    // every request a one-bucket region resolved from its frontend — 76
    // encoded bytes behind each fingerprint, against `BoxRegion<1>`'s 24.
    let mut store = DistIndex::new(4);
    store.register_item(ItemId(0), &BucketRegion::empty());
    for p in 0..4u32 {
        let owned = BucketRegion::of_range(512, p * 128, (p + 1) * 128);
        store.update_leaf(ItemId(0), p as usize, Box::new(owned));
    }
    let keys: Vec<(usize, BucketRegion)> = (0..512u32)
        .map(|b| ((b % 4) as usize, BucketRegion::of_bucket(512, (b * 37) % 512)))
        .collect();
    g.bench_function("bucket_512", |b| {
        let mut cache = LocationCache::new();
        for (start, key) in &keys {
            cache.resolve(&store, ItemId(0), *start, key); // warm
        }
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % keys.len();
            let (start, key) = &keys[i];
            cache.resolve(&store, ItemId(0), *start, black_box(key))
        })
    });
    g.finish();
}

fn bench_updates(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_update");
    for &procs in &[8usize, 64, 256] {
        g.bench_with_input(BenchmarkId::new("dist", procs), &procs, |b, _| {
            let mut idx = populated_dist(procs);
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % procs;
                idx.update_leaf(
                    ItemId(0),
                    i,
                    Box::new(r1(i as i64 * 100, i as i64 * 100 + 100)),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_resolution, bench_cached_resolution, bench_updates);
criterion_main!(benches);
