//! Microbenchmarks of fragment operations: extract/insert (the data paths
//! of replica and migration transfers), element access through a chunk
//! list shaped like the stencil's, region algebra against a fragmented
//! region, node lookup in a tree fragment shaped like TPC's, and the wire
//! codec round-trip that every inter-locality transfer pays.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use allscale_net::{frame, wire};
use allscale_region::{
    BitmaskTreeRegion, BoxRegion, Fragment, GridBox, GridFragment, Point, Region, TreeFragment,
    TreePath,
};

fn filled(n: i64) -> GridFragment<f64, 2> {
    let mut f = GridFragment::new(&BoxRegion::cuboid([0, 0], [n, n]));
    f.for_each_mut(|p, v| *v = (p[0] * n + p[1]) as f64);
    f
}

fn bench_extract_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("fragment");
    for &n in &[64i64, 256] {
        let f = filled(n);
        // Halo row: the stencil's per-step transfer.
        let halo = BoxRegion::cuboid([n - 1, 0], [n, n]);
        g.bench_with_input(BenchmarkId::new("extract_halo", n), &n, |b, _| {
            b.iter(|| black_box(&f).extract(black_box(&halo)))
        });
        // Half-block: a migration-sized extract.
        let half = BoxRegion::cuboid([0, 0], [n / 2, n]);
        g.bench_with_input(BenchmarkId::new("extract_half", n), &n, |b, _| {
            b.iter(|| black_box(&f).extract(black_box(&half)))
        });
        let piece = f.extract(&half);
        g.bench_with_input(BenchmarkId::new("insert_half", n), &n, |b, _| {
            b.iter(|| {
                let mut dst = GridFragment::<f64, 2>::empty();
                dst.insert(black_box(&piece));
                dst
            })
        });
    }
    // One replica's life at a node holding its share as first touch left it
    // (64 chunks): import the neighbour's boundary row, ask what is covered
    // (the scheduler's question), export the own boundary row, drop the
    // replica. Two of the four steps start from the covered region and two
    // change it.
    let mut f = tiled(false);
    let replica = GridFragment::<f64, 2>::new(&BoxRegion::cuboid([ROWS, 0], [ROWS + 1, COLS]));
    let own = BoxRegion::cuboid([ROWS - 1, 0], [ROWS, COLS]);
    g.bench_function("halo_cycle/tiled_64", |b| {
        b.iter(|| {
            f.insert(black_box(&replica));
            let covered = f.region();
            let sent = f.extract(black_box(&own));
            f.remove(&replica.region());
            (covered, sent)
        })
    });
    // The same boundary row's trip to the neighbouring node under the
    // integrity service: serialized from the owner's chunks into its frame,
    // sealed, opened, decoded and adopted by a reader holding its own 64
    // chunks — then dropped again, as the reading task's end does.
    let owner = tiled(false);
    let mut reader = tiled(false);
    reader.remove(&own);
    g.bench_function("export_import/halo_row", |b| {
        b.iter(|| {
            let view = owner.extract_view(black_box(&own));
            let framed = frame::Payload::encode(&view).seal();
            let payload = frame::open(&framed).expect("intact frame");
            reader.insert_owned(wire::decode(payload).expect("decodes"));
            reader.remove(&own);
        })
    });
    g.finish();
}

/// One node's share of `stencil_64` as first touch leaves it: a 96×256
/// block in 64 chunks of 24×16, one per leaf task. `halo` appends the two
/// replica rows a time step imports from the neighbouring nodes.
const ROWS: i64 = 96;
const COLS: i64 = 256;

fn tiled(halo: bool) -> GridFragment<f64, 2> {
    let mut f = GridFragment::<f64, 2>::empty();
    for r in (0..ROWS).step_by(24) {
        for c in (0..COLS).step_by(16) {
            f.insert(&GridFragment::new(&BoxRegion::cuboid(
                [r, c],
                [r + 24, c + 16],
            )));
        }
    }
    if halo {
        for r in [-1, ROWS] {
            f.insert(&GridFragment::new(&BoxRegion::cuboid(
                [r, 0],
                [r + 1, COLS],
            )));
        }
    }
    f.for_each_mut(|p, v| *v = (p[0] * COLS + p[1]) as f64);
    f
}

/// A time step over the block, tile by tile in task order: five reads of
/// `src` (centre, left, right, up, down) and one write of `dst` per cell.
fn five_point_sweep(src: &GridFragment<f64, 2>, dst: &mut GridFragment<f64, 2>) {
    let at = |x, y| *src.get(&Point([x, y])).expect("covered cell");
    for r in (0..ROWS).step_by(24) {
        for c in (0..COLS).step_by(16) {
            for x in r..r + 24 {
                for y in c.max(1)..(c + 16).min(COLS - 1) {
                    let v = at(x, y) + at(x, y - 1) + at(x, y + 1) + at(x - 1, y) + at(x + 1, y);
                    dst.set(&Point([x, y]), v);
                }
            }
        }
    }
}

/// The same time step as the stencil's leaf tasks run it: per tile a rolling
/// window of three source rows, one `read_row` per source row and one
/// `write_row` per result row.
fn five_point_sweep_rows(src: &GridFragment<f64, 2>, dst: &mut GridFragment<f64, 2>) {
    for r in (0..ROWS).step_by(24) {
        for c in (0..COLS).step_by(16) {
            let (lo, hi) = (c.max(1), (c + 16).min(COLS - 1));
            let mut window = [(); 3].map(|_| vec![0.0; (hi - lo) as usize + 2]);
            let mut out = vec![0.0; (hi - lo) as usize];
            let [up, mid, down] = &mut window;
            let read = |x, row: &mut [f64]| assert!(src.read_row(&Point([x, lo - 1]), row));
            read(r - 1, mid);
            read(r, down);
            for x in r..r + 24 {
                std::mem::swap(up, mid);
                std::mem::swap(mid, down);
                read(x + 1, down);
                for (((m, u), d), o) in mid.windows(3).zip(&up[1..]).zip(&down[1..]).zip(&mut out) {
                    *o = m[1] + m[0] + m[2] + u + d;
                }
                assert!(dst.write_row(&Point([x, lo]), &out));
            }
        }
    }
}

fn bench_get_set(c: &mut Criterion) {
    let mut g = c.benchmark_group("get_set");
    g.throughput(criterion::Throughput::Elements(
        6 * (ROWS * (COLS - 2)) as u64,
    ));
    // The shape hostbench's probe (40 full-width chunks, sequential sweep)
    // does not cover: neighbours in other chunks on all four sides.
    let (src, mut dst) = (tiled(true), tiled(false));
    g.bench_function("tiled_64", |b| {
        b.iter(|| five_point_sweep(black_box(&src), black_box(&mut dst)))
    });
    let mut by_rows = tiled(false);
    five_point_sweep_rows(&src, &mut by_rows);
    assert_eq!(
        wire::encode(&by_rows),
        wire::encode(&dst),
        "the row sweep must compute the per-cell sweep's field"
    );
    g.bench_function("tiled_64_rows", |b| {
        b.iter(|| five_point_sweep_rows(black_box(&src), black_box(&mut dst)))
    });
    // One chunk: nothing for a lookup shortcut to win, only its overhead.
    let whole = BoxRegion::cuboid([-1, 0], [ROWS + 1, COLS]);
    let (src, mut dst) = (
        GridFragment::<f64, 2>::new(&whole),
        GridFragment::<f64, 2>::new(&whole),
    );
    g.bench_function("one_chunk", |b| {
        b.iter(|| five_point_sweep(black_box(&src), black_box(&mut dst)))
    });
    g.finish();
}

fn bench_box_union(c: &mut Criterion) {
    // What `DistIndex::update_leaf` mostly sees: a fragmented region
    // against a box that touches none of it.
    let spaced = BoxRegion::from_boxes((0..64).map(|i| {
        let (r, c) = (i / 16 * 48, i % 16 * 32);
        GridBox::new(Point([r, c]), Point([r + 24, c + 16])).expect("non-empty")
    }));
    assert_eq!(spaced.boxes().len(), 64);
    let apart = BoxRegion::cuboid([1000, 0], [1024, 16]);
    c.bench_function("box_union/disjoint_64", |b| {
        b.iter(|| black_box(&spaced).union(black_box(&apart)))
    });
}

/// What a TPC locality holds (`paper_scaled`: split depth 7, 17 levels):
/// the replicated 7-level root block and two 10-level subtree blocks, and
/// what a query task does to them — a depth-first walk of one subtree with
/// an explicit stack, one `get` per visit.
fn bench_tree_get(c: &mut Criterion) {
    const H: u8 = 7;
    const LEVELS: u8 = 17;
    let region = BitmaskTreeRegion::full(H);
    let mut frag = TreeFragment::<[f64; 8], BitmaskTreeRegion>::new(region.clone());
    let fill = |frag: &mut TreeFragment<_, _>, base: TreePath, levels: u8| {
        let mut stack = vec![base];
        while let Some(path) = stack.pop() {
            frag.set(path, [path.depth() as f64; 8]);
            if path.depth() + 1 < base.depth() + levels {
                stack.push(path.left());
                stack.push(path.right());
            }
        }
    };
    fill(&mut frag, region.subtree_root(40), LEVELS - H);
    fill(&mut frag, region.subtree_root(41), LEVELS - H);
    fill(&mut frag, TreePath::ROOT, H);
    assert_eq!(frag.len(), 127 + 2 * 1023);

    let mut g = c.benchmark_group("tree_fragment_get");
    g.throughput(criterion::Throughput::Elements(1023));
    let root = region.subtree_root(41);
    let mut stack = Vec::with_capacity(32);
    g.bench_function("dfs_10_levels", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            stack.push(root);
            while let Some(path) = stack.pop() {
                sum += black_box(&frag).get(&path).expect("stored node")[0];
                if path.depth() + 1 < LEVELS {
                    stack.push(path.left());
                    stack.push(path.right());
                }
            }
            sum
        })
    });
    g.finish();
}

fn bench_wire_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    for &n in &[64i64, 256] {
        let f = filled(n);
        let bytes = wire::encode(&f);
        g.bench_with_input(BenchmarkId::new("encode_fragment", n), &n, |b, _| {
            b.iter(|| wire::encode(black_box(&f)))
        });
        g.bench_with_input(BenchmarkId::new("decode_fragment", n), &n, |b, _| {
            b.iter(|| wire::decode::<GridFragment<f64, 2>>(black_box(&bytes)).unwrap())
        });
        g.throughput(criterion::Throughput::Bytes(bytes.len() as u64));
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_extract_insert,
    bench_get_set,
    bench_box_union,
    bench_tree_get,
    bench_wire_codec
);
criterion_main!(benches);
