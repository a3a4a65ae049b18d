//! The virtual-time cost model.
//!
//! Real computation runs inside simulation events; its *duration* on the
//! simulated machine is charged via these constants. Values approximate a
//! single Xeon E5-2630 v4 core (the paper's testbed) and were sanity-tuned
//! so the harness's absolute throughputs land in the ranges of the paper's
//! Fig. 7 (see `EXPERIMENTS.md` for the calibration notes). The *shape* of
//! the scaling curves — the reproduction target — is insensitive to modest
//! changes in these constants.

use allscale_des::SimDuration;

/// Per-operation virtual-time costs.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Cost of one floating-point operation stream element, ns. A memory-
    /// bound stencil sustains far below peak FLOPS; ~0.35 ns/flop matches
    /// ~2.8 GFLOPS/core on the 5-flop PRK stencil kernel.
    pub ns_per_flop: f64,
    /// Cost of one particle push+deposit in the PIC mover, ns.
    pub ns_per_particle_update: f64,
    /// Cost of visiting one kd-tree node during traversal, ns.
    pub ns_per_tree_node: f64,
    /// Fixed per-task runtime overhead (descriptor handling, lock table,
    /// queue operations), ns.
    pub task_overhead_ns: u64,
    /// CPU cost of sending or receiving one message (marshalling), ns.
    pub msg_cpu_ns: u64,
    /// Size of a control-plane message (task descriptor, index query), B.
    pub control_msg_bytes: usize,
    /// Relative speed factor per locality (1.0 = nominal). Values below
    /// 1.0 slow a node down — used by the load-balancing example to model
    /// heterogeneous or degraded nodes.
    pub speed_factors: Vec<f64>,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            ns_per_flop: 0.35,
            ns_per_particle_update: 18.0,
            ns_per_tree_node: 4.0,
            task_overhead_ns: 1_500,
            msg_cpu_ns: 300,
            control_msg_bytes: 256,
            speed_factors: Vec::new(),
        }
    }
}

impl CostModel {
    /// Speed factor of a locality (default 1.0).
    pub fn speed(&self, locality: usize) -> f64 {
        self.speed_factors.get(locality).copied().unwrap_or(1.0)
    }

    /// Duration of `flops` floating-point operations on `locality`.
    pub fn flops(&self, locality: usize, flops: u64) -> SimDuration {
        SimDuration::from_nanos_f64(flops as f64 * self.ns_per_flop / self.speed(locality))
    }

    /// Fixed per-task overhead on `locality`.
    pub fn task_overhead(&self, locality: usize) -> SimDuration {
        SimDuration::from_nanos_f64(self.task_overhead_ns as f64 / self.speed(locality))
    }

    /// CPU-side cost of handling one message.
    pub fn msg_cpu(&self) -> SimDuration {
        SimDuration::from_nanos(self.msg_cpu_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_cost_scales() {
        let c = CostModel::default();
        let d1 = c.flops(0, 1_000);
        let d2 = c.flops(0, 2_000);
        assert_eq!(d2.as_nanos(), 2 * d1.as_nanos());
    }

    #[test]
    fn speed_factor_slows_a_node() {
        let c = CostModel {
            speed_factors: vec![1.0, 0.5],
            ..Default::default()
        };
        assert_eq!(
            c.flops(1, 1_000).as_nanos(),
            2 * c.flops(0, 1_000).as_nanos()
        );
        // Localities beyond the vector default to nominal speed.
        assert_eq!(c.flops(7, 1_000), c.flops(0, 1_000));
    }

    #[test]
    fn nonzero_work_has_nonzero_cost() {
        let c = CostModel::default();
        assert!(c.flops(0, 1).as_nanos() >= 1);
        assert!(c.task_overhead(0).as_nanos() >= 1);
    }
}
