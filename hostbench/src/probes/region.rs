//! Region-algebra and fragment probes (homes: `stencil_64` for boxes and
//! grid fragments, `tpc_64` for bitmask tree regions, `serve_overload`
//! for bucket regions, `stencil_ft` for fingerprints).

use std::hint::black_box;

use allscale_region::{
    fnv1a_64, BitmaskTreeRegion, BoxRegion, BucketRegion, Fragment, GridBox, GridFragment, Point,
    Region,
};

use super::{per_op, rng};

const ROWS: i64 = 512;
const COLS: i64 = 256;

/// Union, intersection, difference and `dilate_within` on stencil tiles:
/// what planning one step's halo reads does.
pub fn box_algebra(seed: u64, seconds: f64) -> f64 {
    let mut r = rng(seed);
    let universe = GridBox::<2>::from_shape([64 * ROWS, COLS]).expect("non-empty grid");
    let tiles: Vec<(BoxRegion<2>, BoxRegion<2>)> = (0..256)
        .map(|_| {
            let lo = (r.next() % (64 * ROWS as u64 - 64)) as i64;
            let tile = BoxRegion::cuboid([lo, 0], [lo + 13, COLS]);
            let owned_lo = lo / ROWS * ROWS;
            (
                tile,
                BoxRegion::cuboid([owned_lo, 0], [owned_lo + ROWS, COLS]),
            )
        })
        .collect();
    per_op(seconds, 4 * tiles.len() as u64, || {
        for (tile, owned) in &tiles {
            let read = tile.dilate_within(1, &universe);
            let halo = read.difference(owned);
            let local = read.intersect(owned);
            black_box(halo.union(&local));
        }
    })
}

/// One node's block, grown the way the stencil's first touch grows it:
/// one insert per 13-row leaf tile, so lookups meet the same chunk list.
fn filled() -> GridFragment<f64, 2> {
    let mut f = GridFragment::<f64, 2>::empty();
    for lo in (0..ROWS).step_by(13) {
        f.insert(&GridFragment::new(&BoxRegion::cuboid(
            [lo, 0],
            [(lo + 13).min(ROWS), COLS],
        )));
    }
    f.for_each_mut(|p, v| *v = (p[0] * COLS + p[1]) as f64);
    f
}

/// `GridFragment::get` + `set` over one node's 512×256 block.
pub fn grid_fragment_access(_seed: u64, seconds: f64) -> f64 {
    let mut f = filled();
    per_op(seconds, 2 * (ROWS * COLS) as u64, || {
        for x in 0..ROWS {
            for y in 0..COLS {
                let p = Point([x, y]);
                let v = *f.get(&p).expect("allocated cell");
                f.set(&p, v + 1.0);
            }
        }
        black_box(f.len());
    })
}

/// A halo row's round trip, per KiB copied: `extract` at the owner,
/// `insert` into the neighbour's block, `remove` when the reading task
/// ends.
pub fn grid_fragment_copy(_seed: u64, seconds: f64) -> f64 {
    let owner = filled();
    let mut reader = GridFragment::new(&BoxRegion::cuboid([ROWS, 0], [2 * ROWS, COLS]));
    let halo = BoxRegion::cuboid([ROWS - 1, 0], [ROWS, COLS]);
    const ROUNDS: u64 = 256;
    per_op(seconds, ROUNDS * (COLS * 8 / 1024) as u64, || {
        for _ in 0..ROUNDS {
            reader.insert(&owner.extract(black_box(&halo)));
            reader.remove(&halo);
        }
        black_box(reader.len());
    })
}

/// Bitmask tree regions at TPC's split depth 7.
pub fn bitmask_algebra(seed: u64, seconds: f64) -> f64 {
    let mut r = rng(seed);
    let regions: Vec<BitmaskTreeRegion> = (0..256)
        .map(|_| {
            let mut m = BitmaskTreeRegion::new(7);
            m.set_root_block(r.next() & 1 == 0);
            for _ in 0..(1 + r.next() % 8) {
                m.set_subtree((r.next() % 128) as usize, true);
            }
            m
        })
        .collect();
    per_op(seconds, 3 * regions.len() as u64, || {
        for pair in regions.windows(2) {
            black_box(pair[0].union(&pair[1]));
            black_box(pair[0].intersect(&pair[1]));
            black_box(pair[0].difference(&pair[1]));
        }
    })
}

/// Bucket regions of the serving store (8 shards × 64 buckets).
pub fn bucket_algebra(seed: u64, seconds: f64) -> f64 {
    let mut r = rng(seed);
    let shard = |s: u32| BucketRegion::of_range(512, s * 64, (s + 1) * 64);
    let keys: Vec<BucketRegion> = (0..256)
        .map(|_| BucketRegion::of_bucket(512, (r.next() % 512) as u32))
        .collect();
    let shards: Vec<BucketRegion> = (0..8).map(shard).collect();
    per_op(seconds, 3 * keys.len() as u64, || {
        for (i, key) in keys.iter().enumerate() {
            let s = &shards[i % 8];
            black_box(s.intersect(key).is_empty());
            black_box(s.difference(key));
            black_box(s.union(key));
        }
    })
}

/// FNV-1a fingerprint of a 64 KiB shard, per KiB.
pub fn fingerprint(seed: u64, seconds: f64) -> f64 {
    let mut r = rng(seed);
    let shard: Vec<u8> = (0..64 << 10).map(|_| r.next() as u8).collect();
    const ROUNDS: u64 = 50;
    per_op(seconds, ROUNDS * 64, || {
        for _ in 0..ROUNDS {
            black_box(fnv1a_64(black_box(&shard)));
        }
    })
}
