//! Inter-node load balancing through data migration — the system-level
//! service the paper's model enables ("inter-node load balancing is
//! achieved through actively managing the distribution of data",
//! Section 3.2).
//!
//! One cluster node is degraded to quarter speed. An iterative kernel is
//! run twice: once with the initial even data distribution, and once with
//! a rebalancing driver that, after observing per-locality busy times,
//! migrates part of the slow node's region to its neighbours — future
//! tasks follow their data automatically.
//!
//! ```text
//! cargo run --release --example loadbalance
//! ```

use allscale_core::{
    pfor, Grid, PforSpec, Requirement, RtConfig, RtCtx, Runtime, TaskValue, WorkItem,
};
use allscale_region::BoxRegion;

const NODES: usize = 4;
const ROWS: i64 = 512;
const COLS: i64 = 64;
const STEPS: usize = 6;

fn degraded_config() -> RtConfig {
    let mut cfg = RtConfig::test(NODES, 8);
    // Node 1 runs at quarter speed (thermal throttling, failing fan, …).
    cfg.cost.speed_factors = vec![1.0, 0.25, 1.0, 1.0];
    cfg
}

fn step_pfor(grid: Grid<f64, 1>) -> Box<dyn WorkItem> {
    pfor(
        PforSpec {
            name: "iterate",
            range: grid.full_box(),
            grain: (ROWS * COLS / (NODES as i64 * 16)) as u64,
            ns_per_point: 400.0,
            axis0_pieces: NODES as u64 * 4,
        },
        move |tile| vec![Requirement::write(grid.id, BoxRegion::from_box(*tile))],
        move |ctx, p| {
            let v = grid.get(ctx, p.0);
            grid.set(ctx, p.0, v * 0.99 + 1.0);
        },
    )
}

/// Run the workload; when `rebalance`, let the runtime's automatic
/// planner migrate work off the slow node after the second step.
fn run(rebalance: bool) -> (f64, f64) {
    let mut work = None;
    let mut imbalance = 0.0;
    let report = Runtime::new(degraded_config()).run(
        |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            if phase == 0 {
                let grid = Grid::<f64, 1>::create(ctx, "work", [ROWS * COLS]);
                work = Some(grid);
                return Some(step_pfor(grid));
            }
            if phase <= STEPS {
                let grid = work.unwrap();
                if rebalance && phase == 2 {
                    // The runtime observed per-locality busy times; the
                    // planner equalizes predicted time (the slow node
                    // keeps proportionally fewer cells) and applies the
                    // migrations. Future tasks follow their data.
                    let moves = ctx.auto_rebalance::<1>(grid.id, 1.25);
                    println!("  auto-rebalance applied {moves} migrations");
                }
                return Some(step_pfor(grid));
            }
            // Record final imbalance.
            let busy = ctx.busy_ns();
            let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
            let max = *busy.iter().max().unwrap() as f64;
            imbalance = max / mean;
            None
        },
    );
    (report.finish_time.as_secs_f64() * 1e3, imbalance)
}

fn main() {
    println!(
        "workload: {} rows x {} iterations on {} nodes; node 1 at 25% speed\n",
        ROWS * COLS,
        STEPS,
        NODES
    );
    let (t_static, imb_static) = run(false);
    println!("static distribution   : {t_static:8.3} ms, busy max/mean = {imb_static:.2}");
    let (t_rebal, imb_rebal) = run(true);
    println!("with data migration   : {t_rebal:8.3} ms, busy max/mean = {imb_rebal:.2}");
    let speedup = t_static / t_rebal;
    println!("\nmigration speedup: {speedup:.2}x");
    assert!(
        speedup > 1.2,
        "rebalancing must help on a degraded node (got {speedup:.2}x)"
    );
}
