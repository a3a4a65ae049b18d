//! The MPI reference port of the stencil: explicit row-block
//! decomposition, user-managed ghost rows, a halo exchange of buffered
//! sends and blocking receives per time step — the style the paper
//! compares against ("state-of-the-art MPI based implementations depending
//! on explicit user-managed data distributions").

use allscale_des::SimDuration;
use allscale_mpi::run_spmd;
use allscale_net::ClusterSpec;

use super::{
    checksum_cell, checksum_fold, initial, oracle, oracle_checksum, update, StencilConfig,
    StencilResult, FLOPS_PER_CELL,
};

const TAG_UP: u32 = 1;
const TAG_DOWN: u32 = 2;

/// Run the MPI version on a fresh simulated cluster.
pub fn run(cfg: &StencilConfig) -> StencilResult {
    run_with(cfg, &ClusterSpec::meggie(cfg.nodes))
}

/// Run with a custom cluster spec.
pub fn run_with(cfg: &StencilConfig, spec: &ClusterSpec) -> StencilResult {
    let rows = cfg.total_rows() as usize;
    let cols = cfg.cols as usize;
    let steps = cfg.steps;
    let cores = spec.cores_per_node as f64;
    let ns_per_flop = allscale_core::CostModel::default().ns_per_flop;
    let scale = cfg.work_scale;

    let report = run_spmd(spec, async |ctx| {
        let me = ctx.rank();
        let n = ctx.size();
        let rows_local = rows / n;
        let row0 = me * rows_local; // global index of my first row
        let is_first = me == 0;
        let is_last = me == n - 1;

        // Local buffers with one ghost row on each side.
        let width = cols;
        let mut a = vec![vec![0.0f64; width]; rows_local + 2];
        let mut b = vec![vec![0.0f64; width]; rows_local + 2];
        for x in 0..rows_local {
            for y in 0..width {
                let v = initial((row0 + x) as i64, y as i64);
                a[x + 1][y] = v;
                b[x + 1][y] = v;
            }
        }
        // Charge initialization, matching the AllScale version's init pfor.
        ctx.compute(SimDuration::from_nanos_f64(
            (rows_local * width) as f64 * scale.max(1.0) / cores,
        ))
        .await;
        ctx.barrier().await;
        let t0 = ctx.now().await;

        for _ in 0..steps {
            // Halo exchange: my first real row goes up, my last goes down.
            if !is_first {
                ctx.send(me - 1, TAG_DOWN, &a[1]).await;
            }
            if !is_last {
                ctx.send(me + 1, TAG_UP, &a[rows_local]).await;
            }
            if !is_first {
                a[0] = ctx.recv(me - 1, TAG_UP).await;
            }
            if !is_last {
                a[rows_local + 1] = ctx.recv(me + 1, TAG_DOWN).await;
            }

            // Compute: interior cells of my block (global interior only).
            let mut cells = 0u64;
            #[allow(clippy::needless_range_loop)] // dual-buffer indexing
            for x in 1..=rows_local {
                let gx = row0 + x - 1;
                if gx == 0 || gx == rows - 1 {
                    continue;
                }
                for y in 1..width - 1 {
                    b[x][y] = update(a[x][y], a[x][y - 1], a[x][y + 1], a[x - 1][y], a[x + 1][y]);
                    cells += 1;
                }
            }
            ctx.compute(SimDuration::from_nanos_f64(
                cells as f64 * FLOPS_PER_CELL as f64 * ns_per_flop * scale / cores,
            ))
            .await;
            std::mem::swap(&mut a, &mut b);
        }
        ctx.barrier().await;

        // Local checksum over owned (non-ghost) rows.
        let mut acc = 0u64;
        #[allow(clippy::needless_range_loop)] // ghost offset indexing
        for x in 1..=rows_local {
            let gx = (row0 + x - 1) as i64;
            for (y, &v) in a[x].iter().enumerate() {
                acc = checksum_fold(acc, checksum_cell(gx, y as i64, v));
            }
        }
        (acc, t0.as_nanos())
    });

    let checksum = report
        .results
        .iter()
        .fold(0u64, |a, &(c, _)| a.wrapping_add(c));
    let t0 = report.results.iter().map(|&(_, t)| t).max().unwrap_or(0);
    let seconds = (report.finish_time.as_nanos() - t0) as f64 / 1e9;
    let validated = if cfg.validate {
        oracle_checksum(&oracle(cfg)) == checksum
    } else {
        true
    };
    StencilResult {
        compute_seconds: seconds,
        gflops: cfg.total_flops() / seconds / 1e9,
        checksum,
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
        let res = run(&StencilConfig::small(4));
        assert!(res.validated, "MPI result must match the oracle");
    }

    #[test]
    fn single_rank_runs() {
        let res = run(&StencilConfig::small(1));
        assert!(res.validated);
        assert_eq!(res.remote_msgs, 0);
    }

    #[test]
    fn matches_allscale_version_bit_for_bit() {
        let cfg = StencilConfig::small(2);
        let m = run(&cfg);
        let a = crate::stencil::allscale_version::run(&cfg);
        assert_eq!(m.checksum, a.checksum, "both versions run the same kernel");
    }
}
