//! The AllScale port of the PIC mini-app: field grids and the particle
//! grid are runtime-managed data items; each step is a field `pfor` plus a
//! particle `pfor` whose tiles read the *dilated* previous-step particle
//! grid (incoming migrants) and write their own tile of the next-step
//! grid. All particle movement between address spaces happens implicitly
//! through the runtime's replica/migration machinery.

use std::cell::RefCell;
use std::rc::Rc;

use allscale_core::{
    pfor, CostModel, Grid, PforSpec, Requirement, RtConfig, RtCtx, Runtime, TaskValue, WorkItem,
};
use allscale_des::SimTime;
use allscale_region::{BoxRegion, GridBox, GridFragment};

use super::{
    b_init, cell_of, deposit_quantized, e_init, field_update, oracle, particle_checksum, push,
    seed_cell, Cell, PicConfig, PicResult,
};

struct Items {
    e: [Grid<f64, 3>; 2],
    b: Grid<f64, 3>,
    p: [Grid<Cell, 3>; 2],
    rho: Grid<u64, 3>,
}

struct DriverState {
    items: Option<Items>,
    compute_start: SimTime,
    compute_end: SimTime,
    count: u64,
    checksum: u64,
    rho_total: u64,
}

/// Run the AllScale version on a fresh simulated cluster.
pub fn run(cfg: &PicConfig) -> PicResult {
    run_with(cfg, RtConfig::meggie(cfg.nodes))
}

/// Run with a custom runtime configuration.
pub fn run_with(cfg: &PicConfig, rt_cfg: RtConfig) -> PicResult {
    let cfg = cfg.clone();
    let cfg_out = cfg.clone();
    let shape = cfg.shape();
    let extent = [shape[0] as f64, shape[1] as f64, shape[2] as f64];
    let steps = cfg.steps;
    let ppc = cfg.particles_per_cell;
    let cost = CostModel::default();
    let ns_field = cost.ns_per_flop * 10.0 * cfg.work_scale; // ~10 flops/cell
    let ns_particle = cost.ns_per_particle_update * cfg.work_scale;
    let grain = (cfg.total_cells() / (cfg.nodes as u64 * 40)).max(8);

    let state = Rc::new(RefCell::new(DriverState {
        items: None,
        compute_start: SimTime::ZERO,
        compute_end: SimTime::ZERO,
        count: 0,
        checksum: 0,
        rho_total: 0,
    }));
    let st = state.clone();

    let runtime = Runtime::new(rt_cfg);
    let report = runtime.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            // Phases: 0 init; then per step two phases (field, particles);
            // final wrap-up.
            if phase == 0 {
                let items = Items {
                    e: [
                        Grid::<f64, 3>::create(ctx, "E0", shape),
                        Grid::<f64, 3>::create(ctx, "E1", shape),
                    ],
                    b: Grid::<f64, 3>::create(ctx, "B", shape),
                    p: [
                        Grid::<Cell, 3>::create(ctx, "P0", shape),
                        Grid::<Cell, 3>::create(ctx, "P1", shape),
                    ],
                    rho: Grid::<u64, 3>::create(ctx, "RHO", shape),
                };
                let (e0, e1, b, p0, p1, rho) = (
                    items.e[0],
                    items.e[1],
                    items.b,
                    items.p[0],
                    items.p[1],
                    items.rho,
                );
                st.borrow_mut().items = Some(items);
                return Some(pfor(
                    PforSpec {
                        name: "pic-init",
                        range: GridBox::from_shape(shape).unwrap(),
                        grain,
                        ns_per_point: ns_particle * ppc as f64 / 4.0,
                        axis0_pieces: cfg.nodes as u64 * 4,
                    },
                    move |tile| {
                        let r = BoxRegion::from_box(*tile);
                        vec![
                            Requirement::write(e0.id, r.clone()),
                            Requirement::write(e1.id, r.clone()),
                            Requirement::write(b.id, r.clone()),
                            Requirement::write(p0.id, r.clone()),
                            Requirement::write(p1.id, r.clone()),
                            Requirement::write(rho.id, r),
                        ]
                    },
                    move |tctx, p| {
                        let (x, y, z) = (p[0], p[1], p[2]);
                        e0.set(tctx, p.0, e_init(x, y, z));
                        e1.set(tctx, p.0, 0.0);
                        b.set(tctx, p.0, b_init(x, y, z));
                        p0.set(tctx, p.0, seed_cell(x, y, z, shape, ppc));
                        p1.set(tctx, p.0, Vec::new());
                        rho.set(tctx, p.0, 0);
                    },
                ));
            }

            let step = (phase - 1) / 3;
            if step < steps {
                if phase == 1 {
                    st.borrow_mut().compute_start = ctx.now();
                }
                let s = st.borrow();
                let items = s.items.as_ref().unwrap();
                let (e_src, e_dst) = if step.is_multiple_of(2) {
                    (items.e[0], items.e[1])
                } else {
                    (items.e[1], items.e[0])
                };
                let (p_src, p_dst) = if step.is_multiple_of(2) {
                    (items.p[0], items.p[1])
                } else {
                    (items.p[1], items.p[0])
                };
                let b = items.b;
                let rho = items.rho;
                drop(s);
                let universe = GridBox::from_shape(shape).unwrap();

                if (phase - 1).is_multiple_of(3) {
                    // Field phase: E_dst = stencil(E_src) + B.
                    return Some(pfor(
                        PforSpec {
                            name: "pic-field",
                            range: universe,
                            grain,
                            ns_per_point: ns_field,
                            axis0_pieces: cfg.nodes as u64 * 4,
                        },
                        move |tile| {
                            let r = BoxRegion::from_box(*tile);
                            vec![
                                Requirement::read(e_src.id, r.dilate_within(1, &universe)),
                                Requirement::read(b.id, r.clone()),
                                Requirement::write(e_dst.id, r),
                            ]
                        },
                        move |tctx, p| {
                            let (x, y, z) = (p[0], p[1], p[2]);
                            let c = e_src.get(tctx, p.0);
                            let nb = |xx: i64, yy: i64, zz: i64| -> f64 {
                                if xx < 0
                                    || xx >= shape[0]
                                    || yy < 0
                                    || yy >= shape[1]
                                    || zz < 0
                                    || zz >= shape[2]
                                {
                                    c
                                } else {
                                    e_src.get(tctx, [xx, yy, zz])
                                }
                            };
                            let v = field_update(
                                c,
                                [
                                    nb(x - 1, y, z),
                                    nb(x + 1, y, z),
                                    nb(x, y - 1, z),
                                    nb(x, y + 1, z),
                                    nb(x, y, z - 1),
                                    nb(x, y, z + 1),
                                ],
                                b.get(tctx, p.0),
                            );
                            e_dst.set(tctx, p.0, v);
                        },
                    ));
                }
                if (phase - 1) % 3 == 2 {
                    // Moment phase: deposit charge density from the freshly
                    // pushed particle buffer (read particles, write RHO).
                    return Some(pfor(
                        PforSpec {
                            name: "pic-moments",
                            range: universe,
                            grain,
                            ns_per_point: ns_particle * ppc as f64 / 4.0,
                            axis0_pieces: cfg.nodes as u64 * 4,
                        },
                        move |tile| {
                            let r = BoxRegion::from_box(*tile);
                            vec![
                                Requirement::read(p_dst.id, r.clone()),
                                Requirement::write(rho.id, r),
                            ]
                        },
                        move |tctx, p| {
                            let cell = p_dst.get(tctx, p.0);
                            let total: u64 = cell.iter().map(deposit_quantized).sum();
                            rho.set(tctx, p.0, total);
                        },
                    ));
                }
                // Particle phase: gather from the dilated source tile,
                // push with E_dst (this step's field), keep landers.
                return Some(pfor(
                    PforSpec {
                        name: "pic-particles",
                        range: universe,
                        grain,
                        ns_per_point: ns_particle * ppc as f64,
                        axis0_pieces: cfg.nodes as u64 * 4,
                    },
                    move |tile| {
                        let r = BoxRegion::from_box(*tile);
                        let dil = r.dilate_within(1, &universe);
                        vec![
                            Requirement::read(p_src.id, dil.clone()),
                            Requirement::read(e_dst.id, dil),
                            Requirement::write(p_dst.id, r),
                        ]
                    },
                    move |tctx, p| {
                        // Collect particles landing in THIS cell from the
                        // 27-cell neighbourhood (incl. itself).
                        let me = [p[0], p[1], p[2]];
                        let mut landed: Cell = Vec::new();
                        for dx in -1..=1 {
                            for dy in -1..=1 {
                                for dz in -1..=1 {
                                    let s = [me[0] + dx, me[1] + dy, me[2] + dz];
                                    if s[0] < 0
                                        || s[0] >= shape[0]
                                        || s[1] < 0
                                        || s[1] >= shape[1]
                                        || s[2] < 0
                                        || s[2] >= shape[2]
                                    {
                                        continue;
                                    }
                                    let src_cell = p_src.get(tctx, s);
                                    let e_here = e_dst.get(tctx, s);
                                    for particle in &src_cell {
                                        let q = push(particle, e_here, extent);
                                        if cell_of(q.pos) == me {
                                            landed.push(q);
                                        }
                                    }
                                }
                            }
                        }
                        p_dst.set(tctx, me, landed);
                    },
                ));
            }

            // Wrap-up: count + checksum from the final particle buffer.
            let mut s = st.borrow_mut();
            s.compute_end = ctx.now();
            let items = s.items.as_ref().unwrap();
            let final_p = if steps.is_multiple_of(2) { items.p[0] } else { items.p[1] };
            let rho_item = items.rho;
            let (mut count, mut acc, mut rho_total) = (0u64, 0u64, 0u64);
            for loc in 0..ctx.nodes() {
                let frag = ctx.fragment_at::<GridFragment<Cell, 3>>(loc, final_p.id);
                frag.for_each(|_, cell| {
                    for particle in cell {
                        count += 1;
                        acc = acc.wrapping_add(particle_checksum(particle));
                    }
                });
                let rfrag = ctx.fragment_at::<GridFragment<u64, 3>>(loc, rho_item.id);
                rfrag.for_each(|_, v| rho_total = rho_total.wrapping_add(*v));
            }
            s.count = count;
            s.checksum = acc;
            s.rho_total = rho_total;
            None
        },
    );

    let s = state.borrow();
    let compute_seconds = (s.compute_end - s.compute_start).as_secs_f64();
    let validated = if cfg_out.validate {
        (s.count, s.checksum, s.rho_total) == oracle(&cfg_out)
    } else {
        s.count == cfg_out.total_particles()
    };
    PicResult {
        compute_seconds,
        updates_per_sec: cfg_out.total_updates() / compute_seconds,
        particles: s.count,
        checksum: s.checksum,
        rho_total: s.rho_total,
        validated,
        remote_msgs: report.remote_msgs,
        remote_bytes: report.remote_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_against_oracle_small() {
        let res = run(&PicConfig::small(2));
        assert!(res.validated, "AllScale PIC must match the oracle");
        assert!(res.updates_per_sec > 0.0);
    }

    #[test]
    fn single_node_works() {
        let res = run(&PicConfig::small(1));
        assert!(res.validated);
    }

    #[test]
    fn four_nodes_conserve_particles() {
        let cfg = PicConfig::small(4);
        let res = run(&cfg);
        assert_eq!(res.particles, cfg.total_particles());
        assert!(res.validated);
    }
}
