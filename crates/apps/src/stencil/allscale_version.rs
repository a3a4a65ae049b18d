//! The AllScale port of the stencil (paper Fig. 6b): two `Grid<f64,2>`
//! data items, `pfor` over the interior per time step, implicit data
//! management. Compare with the explicit halo exchange of
//! [`crate::stencil::mpi_version`].

use std::cell::RefCell;
use std::rc::Rc;

use allscale_core::{
    pfor_tiles, CostModel, Grid, PforSpec, Requirement, RtConfig, RtCtx, RunReport, Runtime,
    TaskCtx, TaskValue, WorkItem,
};
use allscale_des::SimTime;
use allscale_region::{BoxRegion, Fragment, GridBox, GridFragment, Point};

use super::{
    checksum_cell, checksum_fold, initial, oracle, oracle_checksum, update, StencilConfig,
    StencilResult, FLOPS_PER_CELL,
};

struct DriverState {
    a: Option<Grid<f64, 2>>,
    b: Option<Grid<f64, 2>>,
    compute_start: SimTime,
    compute_end: SimTime,
    checksum: u64,
}

/// Run the AllScale version on a fresh simulated cluster.
pub fn run(cfg: &StencilConfig) -> StencilResult {
    run_with(cfg, RtConfig::meggie(cfg.nodes))
}

/// Run with a custom runtime configuration (policy/index ablations).
pub fn run_with(cfg: &StencilConfig, rt_cfg: RtConfig) -> StencilResult {
    run_with_report(cfg, rt_cfg).0
}

/// Like [`run_with`], but also hands back the full [`RunReport`] — used
/// by the fault-recovery example and tests to inspect the resilience
/// counters (checkpoints, detections, recoveries, retries) alongside the
/// application-level result.
pub fn run_with_report(cfg: &StencilConfig, rt_cfg: RtConfig) -> (StencilResult, RunReport) {
    run_with_kernel(cfg, rt_cfg, step_rows)
}

/// The body of a time step's leaf task: update `tile` of `dst` from `src`.
type StepKernel = fn(&mut TaskCtx<'_>, &GridBox<2>, Grid<f64, 2>, Grid<f64, 2>);

/// One time step over `tile`, a row at a time through a rolling window of
/// three source rows (each one column wider than the tile on both sides):
/// the same [`update`] call per cell as Fig. 6b's per-point body, but one
/// façade access per row instead of six per cell.
fn step_rows(tctx: &mut TaskCtx<'_>, tile: &GridBox<2>, src: Grid<f64, 2>, dst: Grid<f64, 2>) {
    let (lo, hi) = (tile.lo(), tile.hi());
    let width = (hi[1] - lo[1]) as usize;
    let mut window = [(); 3].map(|_| vec![0.0; width + 2]);
    let mut out = vec![0.0; width];
    let [up, mid, down] = &mut window;
    src.read_row(tctx, [lo[0] - 1, lo[1] - 1], mid);
    src.read_row(tctx, [lo[0], lo[1] - 1], down);
    for x in lo[0]..hi[0] {
        std::mem::swap(up, mid);
        std::mem::swap(mid, down);
        src.read_row(tctx, [x + 1, lo[1] - 1], down);
        for (((m, u), d), o) in mid.windows(3).zip(&up[1..]).zip(&down[1..]).zip(&mut out) {
            *o = update(m[1], m[0], m[2], *u, *d);
        }
        dst.write_row(tctx, [x, lo[1]], &out);
    }
}

fn run_with_kernel(
    cfg: &StencilConfig,
    rt_cfg: RtConfig,
    step: StepKernel,
) -> (StencilResult, RunReport) {
    let cfg = cfg.clone();
    let cfg_out = cfg.clone();
    let rows = cfg.total_rows();
    let cols = cfg.cols;
    let steps = cfg.steps;
    let cost = CostModel::default();
    let ns_per_cell = cost.ns_per_flop * FLOPS_PER_CELL as f64 * cfg.work_scale;

    let state = Rc::new(RefCell::new(DriverState {
        a: None,
        b: None,
        compute_start: SimTime::ZERO,
        compute_end: SimTime::ZERO,
        checksum: 0,
    }));
    let st = state.clone();

    let runtime = Runtime::new(rt_cfg);
    let report = runtime.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            // Phase layout: 0 = init, 1..=steps = time steps, steps+1 = wrap-up.
            if phase == 0 {
                let a = Grid::<f64, 2>::create(ctx, "A", [rows, cols]);
                let b = Grid::<f64, 2>::create(ctx, "B", [rows, cols]);
                {
                    let mut s = st.borrow_mut();
                    s.a = Some(a);
                    s.b = Some(b);
                }
                // Initialize both buffers over the full grid (Fig. 6b
                // lines 5-7); first touch distributes the data.
                return Some(pfor_tiles(
                    PforSpec {
                        name: "stencil-init",
                        range: a.full_box(),
                        grain: tile_grain(&cfg),
                        ns_per_point: cfg.work_scale.max(1.0),
                        axis0_pieces: cfg.nodes as u64 * 4,
                    },
                    move |tile| {
                        vec![
                            Requirement::write(a.id, BoxRegion::from_box(*tile)),
                            Requirement::write(b.id, BoxRegion::from_box(*tile)),
                        ]
                    },
                    move |tctx, tile| {
                        let (lo, hi) = (tile.lo(), tile.hi());
                        let mut row = vec![0.0; (hi[1] - lo[1]) as usize];
                        for x in lo[0]..hi[0] {
                            for (y, v) in (lo[1]..).zip(&mut row) {
                                *v = initial(x, y);
                            }
                            a.write_row(tctx, [x, lo[1]], &row);
                            b.write_row(tctx, [x, lo[1]], &row);
                        }
                    },
                ));
            }
            if phase <= steps {
                if phase == 1 {
                    st.borrow_mut().compute_start = ctx.now();
                }
                let s = st.borrow();
                let (a, b) = (s.a.unwrap(), s.b.unwrap());
                // Double buffering: swap roles per step (Fig. 6b line 18).
                let (src, dst) = if phase % 2 == 1 { (a, b) } else { (b, a) };
                drop(s);
                let universe = GridBox::from_shape([rows, cols]).unwrap();
                let interior = GridBox::new(Point([1, 1]), Point([rows - 1, cols - 1])).unwrap();
                return Some(pfor_tiles(
                    PforSpec {
                        name: "stencil-step",
                        range: interior,
                        grain: tile_grain(&cfg),
                        ns_per_point: ns_per_cell,
                        axis0_pieces: cfg.nodes as u64 * 4,
                    },
                    move |tile| {
                        let read = BoxRegion::from_box(*tile).dilate_within(1, &universe);
                        vec![
                            Requirement::read(src.id, read),
                            Requirement::write(dst.id, BoxRegion::from_box(*tile)),
                        ]
                    },
                    move |tctx, tile| step(tctx, tile, src, dst),
                ));
            }
            // Wrap-up: record times and checksum the final field.
            let mut s = st.borrow_mut();
            s.compute_end = ctx.now();
            let final_grid = if steps % 2 == 1 {
                s.b.unwrap()
            } else {
                s.a.unwrap()
            };
            let mut acc = 0u64;
            for loc in 0..ctx.nodes() {
                let frag = ctx.fragment_at::<GridFragment<f64, 2>>(loc, final_grid.id);
                // Every held cell counts: read replicas die with the task
                // that imported them, so none outlives the last phase.
                debug_assert!(
                    ctx.owned_region_at(loc, final_grid.id)
                        .eq_dyn(frag.region()),
                    "locality {loc} holds cells of the final grid it does not own"
                );
                frag.for_each(|p, v| acc = checksum_fold(acc, checksum_cell(p[0], p[1], *v)));
            }
            s.checksum = acc;
            None
        },
    );

    let s = state.borrow();
    let compute_seconds = (s.compute_end - s.compute_start).as_secs_f64();
    let validated = if cfg_out.validate {
        oracle_checksum(&oracle(&cfg_out)) == s.checksum
    } else {
        true
    };
    let result = StencilResult {
        compute_seconds,
        gflops: cfg_out.total_flops() / compute_seconds / 1e9,
        checksum: s.checksum,
        validated,
        remote_msgs: report.remote_msgs,
        remote_bytes: report.remote_bytes,
    };
    (result, report)
}

/// Tile grain: aim for ~2 tiles per core so the split tree bottoms out at
/// the policy's saturation depth with meaningful leaf work.
fn tile_grain(cfg: &StencilConfig) -> u64 {
    let total = cfg.total_cells();
    let leaves = (cfg.nodes as u64) * 40; // 2× a 20-core node
    (total / leaves).max(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-point body of Fig. 6b, as it ran before the row kernel: the
    /// oracle [`step_rows`] must be indistinguishable from.
    fn step_per_point(
        tctx: &mut TaskCtx<'_>,
        tile: &GridBox<2>,
        src: Grid<f64, 2>,
        dst: Grid<f64, 2>,
    ) {
        for p in tile.points() {
            let c = src.get(tctx, p.0);
            let l = src.get(tctx, [p[0], p[1] - 1]);
            let r = src.get(tctx, [p[0], p[1] + 1]);
            let u = src.get(tctx, [p[0] - 1, p[1]]);
            let d = src.get(tctx, [p[0] + 1, p[1]]);
            dst.set(tctx, p.0, update(c, l, r, u, d));
        }
    }

    #[test]
    fn row_kernel_is_indistinguishable_from_the_per_point_body() {
        // `small(4)`, and a shape whose step tiles (shifted by one against
        // the first-touch tiles) straddle chunks along both axes.
        let straddling = StencilConfig {
            rows_per_node: 24,
            cols: 50,
            ..StencilConfig::small(4)
        };
        for cfg in [StencilConfig::small(4), straddling] {
            let (rows, rows_report) = run_with_kernel(&cfg, RtConfig::test(4, 2), step_rows);
            let (cells, cells_report) = run_with_kernel(&cfg, RtConfig::test(4, 2), step_per_point);
            assert!(rows.validated && cells.validated);
            assert_eq!(rows.checksum, cells.checksum);
            assert_eq!(rows_report.to_json(), cells_report.to_json());
        }
    }

    #[test]
    fn validates_against_oracle_small() {
        let cfg = StencilConfig::small(4);
        let res = run(&cfg);
        assert!(res.validated, "distributed result must match the oracle");
        assert!(res.gflops > 0.0);
    }

    #[test]
    fn validates_on_single_node() {
        let cfg = StencilConfig::small(1);
        let res = run(&cfg);
        assert!(res.validated);
        assert_eq!(res.remote_msgs, 0);
    }
}
