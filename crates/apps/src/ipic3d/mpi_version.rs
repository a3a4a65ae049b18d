//! The MPI reference port of the PIC mini-app: x-block decomposition with
//! explicit ghost planes for the field and explicit emigrant/immigrant
//! particle exchange per step — the hand-managed counterpart of the
//! runtime-managed AllScale version.

use allscale_des::SimDuration;
use allscale_mpi::run_spmd;
use allscale_net::ClusterSpec;

use super::{
    b_init, cell_of, deposit_quantized, e_init, field_update, oracle, particle_checksum, push,
    seed_cell, Cell, Particle, PicConfig, PicResult,
};

const TAG_FIELD_UP: u32 = 1;
const TAG_FIELD_DOWN: u32 = 2;
const TAG_PART_UP: u32 = 3;
const TAG_PART_DOWN: u32 = 4;

/// Run the MPI version on a fresh simulated cluster.
pub fn run(cfg: &PicConfig) -> PicResult {
    run_with(cfg, &ClusterSpec::meggie(cfg.nodes))
}

/// Run with a custom cluster spec.
pub fn run_with(cfg: &PicConfig, spec: &ClusterSpec) -> PicResult {
    let shape = cfg.shape();
    let (nx, ny, nz) = (shape[0], shape[1], shape[2]);
    let extent = [nx as f64, ny as f64, nz as f64];
    let steps = cfg.steps;
    let ppc = cfg.particles_per_cell;
    let cores = spec.cores_per_node as f64;
    let cost = allscale_core::CostModel::default();
    let ns_field = cost.ns_per_flop * 10.0 * cfg.work_scale;
    let ns_particle = cost.ns_per_particle_update * cfg.work_scale;

    let report = run_spmd(spec, async |ctx| {
        let me = ctx.rank();
        let n = ctx.size();
        let lx = (nx as usize) / n; // x-layers per rank
        let x0 = me as i64 * lx as i64;
        let plane = (ny * nz) as usize;
        let idx = |x: usize, y: i64, z: i64| -> usize { x * plane + (y * nz + z) as usize };

        // Field buffers with ghost planes at x index 0 and lx+1.
        let mut e = vec![0.0f64; (lx + 2) * plane];
        let mut e2 = vec![0.0f64; (lx + 2) * plane];
        let b: Vec<f64> = {
            let mut v = vec![0.0f64; (lx + 2) * plane];
            for x in 0..lx {
                for y in 0..ny {
                    for z in 0..nz {
                        v[idx(x + 1, y, z)] = b_init(x0 + x as i64, y, z);
                    }
                }
            }
            v
        };
        for x in 0..lx {
            for y in 0..ny {
                for z in 0..nz {
                    e[idx(x + 1, y, z)] = e_init(x0 + x as i64, y, z);
                }
            }
        }
        // Particle cells (own block only, no ghosts — migrants are
        // exchanged explicitly).
        let mut cells: Vec<Cell> = Vec::with_capacity(lx * plane);
        for x in 0..lx {
            for y in 0..ny {
                for z in 0..nz {
                    cells.push(seed_cell(x0 + x as i64, y, z, shape, ppc));
                }
            }
        }
        let cell_at = |x: usize, y: i64, z: i64| -> usize { x * plane + (y * nz + z) as usize };
        let mut rho_cells: Vec<u64> = vec![0; lx * plane];
        ctx.compute(SimDuration::from_nanos_f64(
            (lx * plane) as f64 * ns_particle * ppc as f64 / 4.0 / cores,
        ))
        .await;
        ctx.barrier().await;
        let t0 = ctx.now().await;

        for _ in 0..steps {
            // ------------------------------------------------ field phase
            // Exchange E ghost planes.
            if me > 0 {
                let first: Vec<f64> = e[idx(1, 0, 0)..idx(1, 0, 0) + plane].to_vec();
                ctx.send(me - 1, TAG_FIELD_DOWN, &first).await;
            }
            if me < n - 1 {
                let last: Vec<f64> = e[idx(lx, 0, 0)..idx(lx, 0, 0) + plane].to_vec();
                ctx.send(me + 1, TAG_FIELD_UP, &last).await;
            }
            if me > 0 {
                let ghost: Vec<f64> = ctx.recv(me - 1, TAG_FIELD_UP).await;
                e[idx(0, 0, 0)..idx(0, 0, 0) + plane].copy_from_slice(&ghost);
            }
            if me < n - 1 {
                let ghost: Vec<f64> = ctx.recv(me + 1, TAG_FIELD_DOWN).await;
                e[idx(lx + 1, 0, 0)..idx(lx + 1, 0, 0) + plane].copy_from_slice(&ghost);
            }
            // Update E over the local block.
            for x in 0..lx {
                let gx = x0 + x as i64;
                for y in 0..ny {
                    for z in 0..nz {
                        let c = e[idx(x + 1, y, z)];
                        let nbx = |gxx: i64, xi: usize| -> f64 {
                            if gxx < 0 || gxx >= nx {
                                c
                            } else {
                                e[idx(xi, y, z)]
                            }
                        };
                        let nb_in = |yy: i64, zz: i64| -> f64 {
                            if yy < 0 || yy >= ny || zz < 0 || zz >= nz {
                                c
                            } else {
                                e[idx(x + 1, yy, zz)]
                            }
                        };
                        e2[idx(x + 1, y, z)] = field_update(
                            c,
                            [
                                nbx(gx - 1, x),
                                nbx(gx + 1, x + 2),
                                nb_in(y - 1, z),
                                nb_in(y + 1, z),
                                nb_in(y, z - 1),
                                nb_in(y, z + 1),
                            ],
                            b[idx(x + 1, y, z)],
                        );
                    }
                }
            }
            std::mem::swap(&mut e, &mut e2);
            ctx.compute(SimDuration::from_nanos_f64(
                (lx * plane) as f64 * ns_field / cores,
            ))
            .await;

            // --------------------------------------------- particle phase
            let mut next: Vec<Cell> = vec![Vec::new(); cells.len()];
            let mut up: Vec<Particle> = Vec::new(); // to rank-1
            let mut down: Vec<Particle> = Vec::new(); // to rank+1
            let mut pushed = 0u64;
            for x in 0..lx {
                for y in 0..ny {
                    for z in 0..nz {
                        let e_here = e[idx(x + 1, y, z)];
                        for p in &cells[cell_at(x, y, z)] {
                            let q = push(p, e_here, extent);
                            pushed += 1;
                            let c = cell_of(q.pos);
                            let cx = c[0] - x0;
                            if cx < 0 {
                                up.push(q);
                            } else if cx >= lx as i64 {
                                down.push(q);
                            } else {
                                next[cell_at(cx as usize, c[1], c[2])].push(q);
                            }
                        }
                    }
                }
            }
            ctx.compute(SimDuration::from_nanos_f64(
                pushed as f64 * ns_particle / cores,
            ))
            .await;
            // Exchange migrants (one hop is enough: displacement < 1 cell).
            if me > 0 {
                ctx.send(me - 1, TAG_PART_UP, &up).await;
            }
            if me < n - 1 {
                ctx.send(me + 1, TAG_PART_DOWN, &down).await;
            }
            let mut arrivals: Vec<Particle> = Vec::new();
            if me > 0 {
                arrivals.extend(ctx.recv::<Vec<Particle>>(me - 1, TAG_PART_DOWN).await);
            }
            if me < n - 1 {
                arrivals.extend(ctx.recv::<Vec<Particle>>(me + 1, TAG_PART_UP).await);
            }
            for q in arrivals {
                let c = cell_of(q.pos);
                let cx = c[0] - x0;
                assert!(
                    (0..lx as i64).contains(&cx),
                    "migrant {} landed outside its neighbour block",
                    q.id
                );
                next[cell_at(cx as usize, c[1], c[2])].push(q);
            }
            cells = next;

            // Moment deposition: charge density per cell (local only).
            rho_cells = cells
                .iter()
                .map(|cell| cell.iter().map(deposit_quantized).sum::<u64>())
                .collect();
            ctx.compute(SimDuration::from_nanos_f64(
                cells.iter().map(Vec::len).sum::<usize>() as f64 * ns_particle / 4.0 / cores,
            ))
            .await;
        }
        ctx.barrier().await;

        // Local count + checksum + rho total.
        let mut count = 0u64;
        let mut acc = 0u64;
        for cell in &cells {
            for p in cell {
                count += 1;
                acc = acc.wrapping_add(particle_checksum(p));
            }
        }
        let rho: u64 = rho_cells
            .iter()
            .fold(0u64, |a, &v| a.wrapping_add(v));
        (count, acc, rho, t0.as_nanos())
    });

    let particles: u64 = report.results.iter().map(|&(c, _, _, _)| c).sum();
    let checksum = report
        .results
        .iter()
        .fold(0u64, |a, &(_, s, _, _)| a.wrapping_add(s));
    let rho_total = report
        .results
        .iter()
        .fold(0u64, |a, &(_, _, r, _)| a.wrapping_add(r));
    let t0 = report.results.iter().map(|&(_, _, _, t)| t).max().unwrap_or(0);
    let seconds = (report.finish_time.as_nanos() - t0) as f64 / 1e9;
    let validated = if cfg.validate {
        (particles, checksum, rho_total) == oracle(cfg)
    } else {
        particles == cfg.total_particles()
    };
    PicResult {
        compute_seconds: seconds,
        updates_per_sec: cfg.total_updates() / seconds,
        particles,
        checksum,
        rho_total,
        validated,
        remote_msgs: report.traffic.remote_msgs(),
        remote_bytes: report.traffic.remote_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_against_oracle_small() {
        let res = run(&PicConfig::small(2));
        assert!(res.validated, "MPI PIC must match the oracle");
    }

    #[test]
    fn single_rank_works() {
        let res = run(&PicConfig::small(1));
        assert!(res.validated);
        assert_eq!(res.remote_msgs, 0);
    }

    #[test]
    fn matches_allscale_version() {
        let cfg = PicConfig::small(2);
        let m = run(&cfg);
        let a = crate::ipic3d::allscale_version::run(&cfg);
        assert_eq!(m.particles, a.particles);
        assert_eq!(m.checksum, a.checksum, "same physics in both versions");
    }
}
