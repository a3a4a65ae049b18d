//! Quickstart: create a distributed grid, fill it in parallel, and watch
//! the runtime place the data — the minimal AllScale program.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use allscale_core::{
    pfor, Grid, PforSpec, Requirement, RtConfig, RtCtx, Runtime, TaskValue, WorkItem,
};
use allscale_region::{BoxRegion, GridFragment};

fn main() {
    // A simulated 4-node cluster, 20 cores per node (the paper's testbed
    // shape). Everything below runs in deterministic virtual time.
    let runtime = Runtime::new(RtConfig::meggie(4));

    let report = runtime.run(
        |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    // Create a 256×256 grid data item. No storage is
                    // allocated yet — fragments appear where first touched.
                    let grid = Grid::<f64, 2>::create(ctx, "field", [256, 256]);

                    // A parallel loop writing every cell. The runtime
                    // splits it into tasks, spreads them over the cluster,
                    // and first-touch allocation distributes the grid.
                    Some(pfor(
                        PforSpec {
                            name: "fill",
                            range: grid.full_box(),
                            grain: 1024,
                            ns_per_point: 3.0,
                            axis0_pieces: 16,
                        },
                        move |tile| vec![Requirement::write(grid.id, BoxRegion::from_box(*tile))],
                        move |tctx, p| grid.set(tctx, p.0, (p[0] + p[1]) as f64),
                    ))
                }
                _ => {
                    // Between phases the driver can inspect the cluster:
                    // each locality owns a block of the grid.
                    println!("data distribution after first touch:");
                    for loc in 0..ctx.nodes() {
                        // Item id 0 is the grid created in phase 0.
                        let frag =
                            ctx.fragment_at::<GridFragment<f64, 2>>(loc, allscale_core::ItemId(0));
                        println!("  locality {loc}: {:6} cells owned", frag.len());
                    }
                    None
                }
            }
        },
    );

    println!("\nrun summary:");
    println!(
        "  virtual time : {:.3} ms",
        report.finish_time.as_secs_f64() * 1e3
    );
    println!("  tasks run    : {}", report.monitor.total_tasks());
    println!("  remote msgs  : {}", report.remote_msgs);
    println!("  remote bytes : {}", report.remote_bytes);
    assert!(report.monitor.total_tasks() > 0);
}
