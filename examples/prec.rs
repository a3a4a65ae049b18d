//! The `prec` operator in the raw: a recursive pairwise reduction over a
//! distributed array — the "context-aware primitive for nested recursive
//! parallelism" the AllScale API builds every parallel construct on
//! (paper Section 3.3, reference [10]).
//!
//! Unlike `pfor` (which is itself a `prec` instance), this example uses
//! `prec` directly: the split variant decomposes the range, leaf tasks
//! carry read requirements pinning them to the data, and the combiner
//! tree reduces partial sums back up — with the final value delivered to
//! the phase driver.
//!
//! ```text
//! cargo run --release --example prec
//! ```

use std::sync::Arc;

use allscale_core::{
    pfor, CostModel, Grid, PforSpec, Prec, PrecOps, Requirement, RtConfig, RtCtx, Runtime,
    TaskValue, WorkItem,
};
use allscale_region::{BoxRegion, GridFragment};

const N: i64 = 1 << 14;
const NODES: usize = 8;

fn main() {
    let mut grid = None;
    let mut measured = 0;
    let report = Runtime::new(RtConfig::meggie(NODES)).run(
        |phase: usize, ctx: &mut RtCtx<'_>, prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    // Fill a distributed vector with v[i] = i.
                    let g = Grid::<u64, 1>::create(ctx, "v", [N]);
                    grid = Some(g);
                    Some(pfor(
                        PforSpec {
                            name: "fill",
                            range: g.full_box(),
                            grain: (N / (NODES as i64 * 40)) as u64,
                            ns_per_point: 2.0,
                            axis0_pieces: NODES as u64 * 4,
                        },
                        move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                        move |tctx, p| g.set(tctx, p.0, p[0] as u64),
                    ))
                }
                1 => {
                    // A hand-built prec: recursive range sum.
                    let g = grid.unwrap();
                    let grain = (N / (NODES as i64 * 40)).max(1) as u64;
                    #[allow(clippy::arc_with_non_send_sync)] // single-threaded sim
                    let ops: Arc<PrecOps<(i64, i64)>> = Arc::new(PrecOps {
                        name: "sum",
                        can_split: Box::new(move |&(lo, hi), _| (hi - lo) as u64 > grain),
                        split: Box::new(|&(lo, hi)| {
                            let mid = lo + (hi - lo) / 2;
                            vec![(lo, mid), (mid, hi)]
                        }),
                        combine: Box::new(|vals| {
                            let total: u64 = vals
                                .into_iter()
                                .map(|v| *v.unwrap().downcast::<u64>().unwrap())
                                .sum();
                            Some(Box::new(total))
                        }),
                        process: Box::new(move |tctx, &(lo, hi)| {
                            let frag = tctx.fragment::<GridFragment<u64, 1>>(g.id);
                            let mut s = 0u64;
                            for i in lo..hi {
                                s += *frag.get(&allscale_region::Point([i])).unwrap();
                            }
                            Some(Box::new(s))
                        }),
                        requirements: Box::new(move |&(lo, hi)| {
                            vec![Requirement::read(g.id, BoxRegion::cuboid([lo], [hi]))]
                        }),
                        cost: Box::new(|&(lo, hi), c: &CostModel, loc| {
                            c.flops(loc, (hi - lo) as u64)
                        }),
                        hint: Box::new(move |&(lo, _)| Some(lo as f64 / N as f64)),
                        descriptor_bytes: 64,
                        result_bytes: 8,
                    });
                    Some(Prec::root((0, N), ops))
                }
                _ => {
                    measured = *prev
                        .expect("prec yields a sum")
                        .downcast::<u64>()
                        .expect("u64 sum");
                    None
                }
            }
        },
    );

    let expect = (N as u64) * (N as u64 - 1) / 2;
    println!("prec sum over {N} distributed elements = {measured}");
    println!("closed form                            = {expect}");
    assert_eq!(measured, expect);
    println!("\nrun summary:\n{}", report.summary());
}
