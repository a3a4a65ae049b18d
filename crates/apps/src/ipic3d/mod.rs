//! The particle-in-cell mini-app (paper Table 1 row 2: iPiC3D).
//!
//! The real iPiC3D simulates charged particles in electromagnetic fields;
//! its data-structure profile — "three regular 3D grids — two holding
//! electromagnetic field data, while an additional grid holds lists of
//! particles" — is what stresses the runtime, and is what this mini-app
//! reproduces exactly (see DESIGN.md, substitution table):
//!
//! - two scalar field grids `E` (double-buffered, updated with a 7-point
//!   stencil coupled to `B`) and a static grid `B`;
//! - a particle grid whose cells hold particle lists; each step pushes
//!   every particle with the field at its cell and *migrates* it to the
//!   cell containing its new position (the operation that forces the
//!   runtime to manage dynamic, irregular data);
//! - a charge-density grid `RHO` filled by a per-step moment-deposition
//!   phase (read particle lists, write field cells).
//!
//! Metric: particle updates per second. Weak scaling: a fixed number of
//! cells (and so particles) per node, blocks along the first axis.

pub mod allscale_version;
pub mod mpi_version;

use allscale_net::wire::wire_struct;

/// One charged particle.
#[derive(Debug, Clone, PartialEq)]
pub struct Particle {
    /// Unique id (checksums, debugging).
    pub id: u64,
    /// Position in domain units (cell size = 1).
    pub pos: [f64; 3],
    /// Velocity in domain units per time unit.
    pub vel: [f64; 3],
}
wire_struct!(Particle { id, pos, vel });

/// The particle list of one grid cell.
pub type Cell = Vec<Particle>;

/// Time step length.
pub const DT: f64 = 0.05;
/// Field diffusion coefficient.
pub const ALPHA: f64 = 0.05;
/// Field-to-B coupling.
pub const BETA: f64 = 0.01;
/// Velocity cap: no particle crosses more than one cell per step.
pub const MAX_STEP: f64 = 0.9;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct PicConfig {
    /// Cluster nodes.
    pub nodes: usize,
    /// Cell layers along x **per node** (weak scaling).
    pub cells_x_per_node: i64,
    /// Cells along y.
    pub cells_y: i64,
    /// Cells along z.
    pub cells_z: i64,
    /// Particles seeded per cell.
    pub particles_per_cell: usize,
    /// Time steps.
    pub steps: usize,
    /// Validate conservation + AllScale/MPI agreement.
    pub validate: bool,
    /// Work scale: each simulated particle stands for this many real
    /// ones (virtual push cost and the reported update rate both scale
    /// by it; see EXPERIMENTS.md).
    pub work_scale: f64,
}

impl PicConfig {
    /// A small test configuration.
    pub fn small(nodes: usize) -> Self {
        PicConfig {
            nodes,
            cells_x_per_node: 4,
            cells_y: 6,
            cells_z: 6,
            particles_per_cell: 3,
            steps: 2,
            validate: true,
            work_scale: 1.0,
        }
    }

    /// The scaled-down stand-in for the paper's 48·10⁶ particles/node.
    pub fn paper_scaled(nodes: usize) -> Self {
        PicConfig {
            nodes,
            cells_x_per_node: 8,
            cells_y: 16,
            cells_z: 16,
            particles_per_cell: 8,
            steps: 3,
            validate: false,
            // 48e6 real particles per node over 2048×8 simulated ones.
            work_scale: 48.0e6 / (8.0 * 16.0 * 16.0 * 8.0),
        }
    }

    /// Total cells along x.
    pub fn cells_x(&self) -> i64 {
        self.cells_x_per_node * self.nodes as i64
    }

    /// Grid shape.
    pub fn shape(&self) -> [i64; 3] {
        [self.cells_x(), self.cells_y, self.cells_z]
    }

    /// Total cell count.
    pub fn total_cells(&self) -> u64 {
        (self.cells_x() * self.cells_y * self.cells_z) as u64
    }

    /// Total particle count.
    pub fn total_particles(&self) -> u64 {
        self.total_cells() * self.particles_per_cell as u64
    }

    /// Total particle updates across all steps (in *represented* real
    /// particles — scaled by `work_scale`).
    pub fn total_updates(&self) -> f64 {
        (self.total_particles() * self.steps as u64) as f64 * self.work_scale
    }
}

/// Deterministic pseudo-random stream from a key (splitmix64) — identical
/// across versions without sharing RNG state.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A unit-interval float from a key.
#[inline]
fn unit(key: u64) -> f64 {
    (mix(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// Initial field value of cell `(x, y, z)`.
#[inline]
pub fn e_init(x: i64, y: i64, z: i64) -> f64 {
    unit((x as u64) << 40 | (y as u64) << 20 | z as u64) - 0.5
}

/// Static B value of cell `(x, y, z)`.
#[inline]
pub fn b_init(x: i64, y: i64, z: i64) -> f64 {
    unit(((x as u64) << 40 | (y as u64) << 20 | z as u64) ^ 0xB00B_5EED) - 0.5
}

/// The particles seeded in cell `(x, y, z)`.
pub fn seed_cell(x: i64, y: i64, z: i64, shape: [i64; 3], ppc: usize) -> Cell {
    let cell_index = ((x * shape[1]) + y) * shape[2] + z;
    (0..ppc)
        .map(|k| {
            let id = (cell_index as u64) * ppc as u64 + k as u64;
            let key = mix(id ^ 0x5EED_0FA5);
            Particle {
                id,
                pos: [
                    x as f64 + unit(key ^ 1),
                    y as f64 + unit(key ^ 2),
                    z as f64 + unit(key ^ 3),
                ],
                vel: [
                    (unit(key ^ 4) - 0.5) * 2.0,
                    (unit(key ^ 5) - 0.5) * 2.0,
                    (unit(key ^ 6) - 0.5) * 2.0,
                ],
            }
        })
        .collect()
}

/// The field update of one cell (7-point stencil coupled to B) — shared by
/// all versions. Neighbour values outside the domain are the cell's own
/// value (zero-flux boundary).
#[inline]
pub fn field_update(center: f64, neighbours: [f64; 6], b: f64) -> f64 {
    let lap = neighbours.iter().sum::<f64>() - 6.0 * center;
    center + ALPHA * lap + BETA * b
}

/// Push one particle with the field value at its current cell; reflects at
/// domain walls. Returns the updated particle.
pub fn push(p: &Particle, e: f64, extent: [f64; 3]) -> Particle {
    let mut q = p.clone();
    // Acceleration along a per-particle fixed unit direction scaled by E —
    // a stand-in for the Boris mover that preserves its data access
    // pattern (field gather at the particle's cell).
    let dir_key = mix(p.id ^ 0xACCE_1E7A);
    let dir = [
        unit(dir_key ^ 1) - 0.5,
        unit(dir_key ^ 2) - 0.5,
        unit(dir_key ^ 3) - 0.5,
    ];
    #[allow(clippy::needless_range_loop)] // three parallel arrays, one index
    for d in 0..3 {
        q.vel[d] += e * dir[d] * DT * 10.0;
        // Cap the displacement to stay within one cell per step.
        let step = (q.vel[d] * DT).clamp(-MAX_STEP, MAX_STEP);
        q.pos[d] += step;
        // Reflective walls.
        if q.pos[d] < 0.0 {
            q.pos[d] = -q.pos[d];
            q.vel[d] = -q.vel[d];
        }
        if q.pos[d] >= extent[d] {
            q.pos[d] = 2.0 * extent[d] - q.pos[d];
            // Guard against landing exactly on the wall from rounding.
            if q.pos[d] >= extent[d] {
                q.pos[d] = extent[d] - 1e-9;
            }
            q.vel[d] = -q.vel[d];
        }
    }
    q
}

/// The cell containing a position.
#[inline]
pub fn cell_of(pos: [f64; 3]) -> [i64; 3] {
    [
        pos[0].floor() as i64,
        pos[1].floor() as i64,
        pos[2].floor() as i64,
    ]
}

/// Moment deposition: the charge contribution of one particle to its cell
/// (a simple charge-density stand-in preserving the gather access
/// pattern: read particle list, write field cell).
#[inline]
pub fn deposit(p: &Particle) -> f64 {
    1.0 + 0.1 * (p.vel[0] * p.vel[0] + p.vel[1] * p.vel[1] + p.vel[2] * p.vel[2])
}

/// Order-independent exact checksum of a particle.
pub fn particle_checksum(p: &Particle) -> u64 {
    let mut acc = mix(p.id);
    for d in 0..3u64 {
        acc = acc.wrapping_add(mix(p.pos[d as usize].to_bits() ^ (d << 60)));
        acc = acc.wrapping_add(mix(p.vel[d as usize].to_bits() ^ (d << 50) ^ 0xF00D));
    }
    acc
}

/// Result of one benchmark execution.
#[derive(Debug, Clone)]
pub struct PicResult {
    /// Virtual seconds in the time-step phases.
    pub compute_seconds: f64,
    /// Particle updates per second.
    pub updates_per_sec: f64,
    /// Final particle count (must equal the seeded count).
    pub particles: u64,
    /// Order-independent checksum over all final particles.
    pub checksum: u64,
    /// Total deposited charge in milli-units (0 when the version does not
    /// run a moment phase).
    pub rho_total: u64,
    /// Whether validation passed (true when skipped).
    pub validated: bool,
    /// Remote messages.
    pub remote_msgs: u64,
    /// Remote bytes.
    pub remote_bytes: u64,
}

/// Sequential oracle: the whole simulation on flat vectors. Returns
/// `(particle count, checksum, total deposited charge)` of the final
/// state; the charge is quantized per particle before summation
/// ([`deposit_quantized`]), so it is exactly order-independent across
/// distributed fragments.
pub fn oracle(cfg: &PicConfig) -> (u64, u64, u64) {
    let shape = cfg.shape();
    let (nx, ny, nz) = (shape[0], shape[1], shape[2]);
    let extent = [nx as f64, ny as f64, nz as f64];
    let idx = |x: i64, y: i64, z: i64| -> usize { (((x * ny) + y) * nz + z) as usize };

    let mut e: Vec<f64> = Vec::with_capacity((nx * ny * nz) as usize);
    let mut b: Vec<f64> = Vec::with_capacity((nx * ny * nz) as usize);
    let mut cells: Vec<Cell> = Vec::with_capacity((nx * ny * nz) as usize);
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nz {
                e.push(e_init(x, y, z));
                b.push(b_init(x, y, z));
                cells.push(seed_cell(x, y, z, shape, cfg.particles_per_cell));
            }
        }
    }

    for _ in 0..cfg.steps {
        // Field update.
        let mut e2 = e.clone();
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    let c = e[idx(x, y, z)];
                    let nb = |xx: i64, yy: i64, zz: i64| -> f64 {
                        if xx < 0 || xx >= nx || yy < 0 || yy >= ny || zz < 0 || zz >= nz {
                            c
                        } else {
                            e[idx(xx, yy, zz)]
                        }
                    };
                    e2[idx(x, y, z)] = field_update(
                        c,
                        [
                            nb(x - 1, y, z),
                            nb(x + 1, y, z),
                            nb(x, y - 1, z),
                            nb(x, y + 1, z),
                            nb(x, y, z - 1),
                            nb(x, y, z + 1),
                        ],
                        b[idx(x, y, z)],
                    );
                }
            }
        }
        e = e2;
        // Particle push + migration.
        let mut next: Vec<Cell> = vec![Vec::new(); cells.len()];
        for x in 0..nx {
            for y in 0..ny {
                for z in 0..nz {
                    for p in &cells[idx(x, y, z)] {
                        let q = push(p, e[idx(x, y, z)], extent);
                        let c = cell_of(q.pos);
                        next[idx(c[0], c[1], c[2])].push(q);
                    }
                }
            }
        }
        cells = next;
    }

    let (mut count, mut acc, mut rho_total) = (0u64, 0u64, 0u64);
    for p in cells.iter().flatten() {
        count += 1;
        acc = acc.wrapping_add(particle_checksum(p));
        rho_total = rho_total.wrapping_add(deposit_quantized(p));
    }
    (count, acc, rho_total)
}

/// Per-particle deposit in exact milli-units (order-independent sums).
#[inline]
pub fn deposit_quantized(p: &Particle) -> u64 {
    (deposit(p) * 1000.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic_and_in_cell() {
        let shape = [4, 4, 4];
        let c1 = seed_cell(1, 2, 3, shape, 5);
        let c2 = seed_cell(1, 2, 3, shape, 5);
        assert_eq!(c1, c2);
        assert_eq!(c1.len(), 5);
        for p in &c1 {
            assert_eq!(cell_of(p.pos), [1, 2, 3]);
        }
        // Distinct cells get distinct ids.
        let other = seed_cell(0, 0, 0, shape, 5);
        assert!(c1.iter().all(|p| other.iter().all(|q| q.id != p.id)));
    }

    #[test]
    fn push_respects_walls_and_cap() {
        let extent = [4.0, 4.0, 4.0];
        let p = Particle {
            id: 7,
            pos: [3.95, 0.01, 2.0],
            vel: [100.0, -100.0, 0.0],
        };
        let q = push(&p, 1.0, extent);
        for (d, &e) in extent.iter().enumerate() {
            assert!(q.pos[d] >= 0.0 && q.pos[d] < e, "axis {d}");
            assert!((q.pos[d] - p.pos[d]).abs() <= MAX_STEP + 4.0 * MAX_STEP);
        }
    }

    #[test]
    fn oracle_conserves_particles() {
        let cfg = PicConfig::small(2);
        let (count, _, _) = oracle(&cfg);
        assert_eq!(count, cfg.total_particles());
    }

    #[test]
    fn oracle_is_deterministic() {
        let cfg = PicConfig::small(1);
        assert_eq!(oracle(&cfg), oracle(&cfg));
    }
}
