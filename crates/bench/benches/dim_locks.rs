//! Microbenchmarks of lock acquisition in the data item manager on the
//! serving store (512 buckets): the uncontended grant every task pays,
//! and the refusal of a writer whose bucket is held — which walks the
//! held locks, so its cost is what bounds serving above the knee, where
//! locks are taken at admission and the list is thousands long.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use allscale_core::{DataItemManager, ItemDescriptor, ItemId, MapItem, Requirement, TaskId};
use allscale_region::BucketRegion;

const ITEM: ItemId = ItemId(0);
const BUCKETS: u32 = 512;

/// A manager owning the whole store.
fn store() -> DataItemManager {
    let mut dim = DataItemManager::new(0);
    dim.register(ITEM, ItemDescriptor::of::<MapItem<u64, u64>>("serve-kv"));
    dim.init_owned(ITEM, &BucketRegion::full(BUCKETS));
    dim
}

/// The store with `held` readers spread over all
/// buckets but the last (read locks share, so their number is not bounded
/// by the bucket count) and, after them, one reader of the last bucket.
fn store_with_holders(held: u32) -> DataItemManager {
    let mut dim = store();
    let buckets = (0..held).map(|i| i % (BUCKETS - 1)).chain([BUCKETS - 1]);
    for (i, b) in buckets.enumerate() {
        let read = [Requirement::read(ITEM, BucketRegion::of_bucket(BUCKETS, b))];
        dim.try_lock(TaskId(1_000_000 + i as u64), &read)
            .expect("read locks share");
    }
    dim
}

fn bench_locks(c: &mut Criterion) {
    let mut g = c.benchmark_group("dim_locks");
    g.bench_function("try_lock_held_0", |b| {
        let mut dim = store();
        let req = [Requirement::read(ITEM, BucketRegion::of_bucket(BUCKETS, 7))];
        b.iter(|| {
            black_box(dim.try_lock(TaskId(1), &req).is_ok());
            dim.unlock_all(TaskId(1))
        })
    });
    // The refused writer wants the last bucket: it passes every other
    // holder before it meets the reader that blocks it.
    let wanted = [Requirement::write(
        ITEM,
        BucketRegion::of_bucket(BUCKETS, BUCKETS - 1),
    )];
    for held in [64u32, 4096] {
        g.bench_function(format!("refused_held_{held}"), |b| {
            let mut dim = store_with_holders(held);
            b.iter(|| black_box(dim.try_lock(TaskId(1), &wanted).is_err()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_locks);
criterion_main!(benches);
