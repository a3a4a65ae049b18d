//! The `prec` pattern written as a task directly: a recursive pairwise
//! reduction over a distributed array (the "context-aware primitive for
//! nested recursive parallelism" of paper Section 3.3, reference [10]).
//!
//! A task is one [`WorkItem`]: its split variant halves the range, its
//! process variant sums a leaf through the grid façade, its requirement
//! function pins each leaf to the data it reads, and the runtime adds the
//! partial sums back up the task tree — a parent's value is the sum of
//! its children's — so the final value reaches the phase driver.
//! `pfor` is another implementation of the same interface; TPC is a
//! third.
//!
//! ```text
//! cargo run --release --example prec
//! ```

use allscale_core::{
    pfor, CostModel, Done, Grid, PforSpec, Requirement, RtConfig, RtCtx, Runtime, TaskCtx,
    TaskValue, WorkItem,
};
use allscale_des::SimDuration;
use allscale_region::BoxRegion;

const N: i64 = 1 << 14;
const NODES: usize = 8;

/// The sum of `v[lo..hi]`, split in halves down to `grain` elements.
struct RangeSum {
    v: Grid<u64, 1>,
    lo: i64,
    hi: i64,
    grain: u64,
}

impl WorkItem for RangeSum {
    fn can_split(&self) -> bool {
        (self.hi - self.lo) as u64 > self.grain
    }
    fn requirements(&self) -> Vec<Requirement> {
        let range = BoxRegion::cuboid([self.lo], [self.hi]);
        vec![Requirement::read(self.v.id, range)]
    }
    fn cost(&self, cost: &CostModel, locality: usize) -> SimDuration {
        cost.flops(locality, (self.hi - self.lo) as u64)
    }
    fn process(self: Box<Self>, ctx: &mut TaskCtx<'_>) -> Done {
        let mut run = vec![0; (self.hi - self.lo) as usize];
        self.v.read_row(ctx, [self.lo], &mut run);
        Done::Value(Some(run.iter().sum()))
    }
    fn placement_hint(&self) -> Option<f64> {
        Some(self.lo as f64 / N as f64)
    }
    fn split(self: Box<Self>) -> Vec<Box<dyn WorkItem>> {
        let mid = self.lo + (self.hi - self.lo) / 2;
        let half = |lo, hi| Box::new(RangeSum { lo, hi, ..*self }) as Box<dyn WorkItem>;
        vec![half(self.lo, mid), half(mid, self.hi)]
    }
    fn descriptor_bytes(&self) -> usize {
        64
    }
    fn result_bytes(&self) -> usize {
        8
    }
}

fn main() {
    let mut grid = None;
    let mut measured = 0;
    let grain = (N / (NODES as i64 * 40)) as u64;
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
                            grain,
                            ns_per_point: 2.0,
                            axis0_pieces: NODES as u64 * 4,
                        },
                        move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                        move |tctx, p| g.set(tctx, p.0, p[0] as u64),
                    ))
                }
                1 => Some(Box::new(RangeSum {
                    v: grid.expect("created in phase 0"),
                    lo: 0,
                    hi: N,
                    grain,
                })),
                _ => {
                    measured = prev.expect("the sum reaches the driver");
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
