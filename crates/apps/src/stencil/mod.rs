//! The 2D stencil benchmark (paper Section 3.4, Fig. 6, and Table 1 row 1).
//!
//! A five-point heat-diffusion kernel derived from the Parallel Research
//! Kernels: two double-buffered 2D grids updated over `T` time steps with
//! the diffusion rule of the paper's Fig. 6. Weak scaling: a fixed number
//! of grid points per node, blocks along the first axis. Metric: FLOPS
//! (7 flops per cell update).

pub mod allscale_version;
pub mod mpi_version;

/// Flops per cell update of the kernel (4 adds within the parenthesis,
/// 1 scale, 1 add, 1 fused neighbour subtract ≈ the PRK counting of 7).
pub const FLOPS_PER_CELL: u64 = 7;

/// The diffusion constant used by all versions.
pub const C: f64 = 0.125;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct StencilConfig {
    /// Cluster nodes.
    pub nodes: usize,
    /// Grid rows **per node** (weak scaling along the first axis).
    pub rows_per_node: i64,
    /// Grid columns (fixed).
    pub cols: i64,
    /// Time steps.
    pub steps: usize,
    /// Verify against the sequential oracle (costs an oracle run).
    pub validate: bool,
    /// Work scale: each simulated cell stands for this many real cells.
    /// The virtual per-cell compute cost and the reported FLOPS both
    /// scale by it, so throughput *shapes* match the paper's full-size
    /// problems while real (host) computation stays laptop-sized. See
    /// EXPERIMENTS.md for the calibration.
    pub work_scale: f64,
}

impl StencilConfig {
    /// A small, test-friendly configuration.
    pub fn small(nodes: usize) -> Self {
        StencilConfig {
            nodes,
            rows_per_node: 32,
            cols: 32,
            steps: 3,
            validate: true,
            work_scale: 1.0,
        }
    }

    /// The scaled-down stand-in for the paper's 20,000² elements/node.
    /// Rows (the distributed axis) are long; weak scaling adds rows.
    pub fn paper_scaled(nodes: usize) -> Self {
        StencilConfig {
            nodes,
            rows_per_node: 512,
            cols: 256,
            steps: 3,
            validate: false,
            // 20,000² real cells per node over 512×256 simulated ones.
            work_scale: 20_000.0 * 20_000.0 / (512.0 * 256.0),
        }
    }

    /// Total rows of the global grid.
    pub fn total_rows(&self) -> i64 {
        self.rows_per_node * self.nodes as i64
    }

    /// Total cells.
    pub fn total_cells(&self) -> u64 {
        (self.total_rows() * self.cols) as u64
    }

    /// Total floating-point operations over the run's compute phases
    /// (in *represented* real cells — scaled by `work_scale`).
    pub fn total_flops(&self) -> f64 {
        // Interior cells only.
        let interior = ((self.total_rows() - 2) * (self.cols - 2)) as u64;
        (interior * self.steps as u64 * FLOPS_PER_CELL) as f64 * self.work_scale
    }
}

/// The initial value of cell `(x, y)` — shared by every version.
#[inline]
pub fn initial(x: i64, y: i64) -> f64 {
    ((x * 31 + y * 17) % 101) as f64 / 101.0
}

/// One cell update — the kernel of paper Fig. 6 — shared by every version.
#[inline]
pub fn update(center: f64, left: f64, right: f64, up: f64, down: f64) -> f64 {
    center + C * (up + down + left + right - 4.0 * center)
}

/// Sequential oracle: runs the full stencil and returns the final field.
pub fn oracle(cfg: &StencilConfig) -> Vec<Vec<f64>> {
    let rows = cfg.total_rows() as usize;
    let cols = cfg.cols as usize;
    let mut a: Vec<Vec<f64>> = (0..rows)
        .map(|x| (0..cols).map(|y| initial(x as i64, y as i64)).collect())
        .collect();
    let mut b = a.clone();
    for _ in 0..cfg.steps {
        for x in 1..rows - 1 {
            for y in 1..cols - 1 {
                b[x][y] = update(a[x][y], a[x][y - 1], a[x][y + 1], a[x - 1][y], a[x + 1][y]);
            }
        }
        std::mem::swap(&mut a, &mut b);
    }
    a
}

/// Result of one benchmark execution.
#[derive(Debug, Clone)]
pub struct StencilResult {
    /// Virtual seconds spent in the time-step phases (init excluded).
    pub compute_seconds: f64,
    /// Throughput in GFLOPS.
    pub gflops: f64,
    /// Order-independent checksum of the final field.
    pub checksum: u64,
    /// Whether validation against the oracle passed (true when skipped).
    pub validated: bool,
    /// Remote messages sent during the whole run.
    pub remote_msgs: u64,
    /// Remote bytes moved during the whole run.
    pub remote_bytes: u64,
}

/// Order-independent exact checksum of field values: XOR-rotate of the bit
/// patterns keyed by position.
pub fn checksum_cell(x: i64, y: i64, v: f64) -> u64 {
    let key = (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (y as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    v.to_bits() ^ key.rotate_left((x % 61) as u32)
}

/// Combine cell checksums (wrapping add → order independent).
pub fn checksum_fold(acc: u64, cell: u64) -> u64 {
    acc.wrapping_add(cell)
}

/// Checksum of the oracle's final field.
pub fn oracle_checksum(field: &[Vec<f64>]) -> u64 {
    let mut acc = 0u64;
    for (x, row) in field.iter().enumerate() {
        for (y, &v) in row.iter().enumerate() {
            acc = checksum_fold(acc, checksum_cell(x as i64, y as i64, v));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_diffuses_toward_mean() {
        let cfg = StencilConfig {
            nodes: 1,
            rows_per_node: 16,
            cols: 16,
            steps: 10,
            validate: false,
            work_scale: 1.0,
        };
        let final_field = oracle(&cfg);
        // Interior variance shrinks under diffusion.
        let initial_var = variance(
            &(0..16)
                .map(|x| (0..16).map(|y| initial(x, y)).collect())
                .collect::<Vec<Vec<f64>>>(),
        );
        let final_var = variance(&final_field);
        assert!(final_var < initial_var, "{final_var} !< {initial_var}");
    }

    fn variance(f: &[Vec<f64>]) -> f64 {
        let vals: Vec<f64> = f
            .iter()
            .skip(1)
            .take(f.len() - 2)
            .flat_map(|r| r.iter().skip(1).take(r.len() - 2).copied())
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64
    }

    #[test]
    fn checksums_are_order_independent() {
        let cells = [(0i64, 1i64, 0.5f64), (3, 4, -2.0), (7, 7, 1e9)];
        let fwd = cells.iter().fold(0u64, |a, &(x, y, v)| {
            checksum_fold(a, checksum_cell(x, y, v))
        });
        let rev = cells.iter().rev().fold(0u64, |a, &(x, y, v)| {
            checksum_fold(a, checksum_cell(x, y, v))
        });
        assert_eq!(fwd, rev);
    }

    #[test]
    fn config_arithmetic() {
        let cfg = StencilConfig::small(4);
        assert_eq!(cfg.total_rows(), 128);
        assert_eq!(cfg.total_cells(), 128 * 32);
        assert_eq!(cfg.total_flops(), (126 * 30 * 3 * FLOPS_PER_CELL) as f64);
    }
}
