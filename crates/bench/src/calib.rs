//! Sanity checks on the virtual-time cost model.
//!
//! The constants in [`allscale_core::CostModel`] and
//! [`allscale_net::NetParams`] are chosen so the simulated machine behaves
//! like the paper's testbed (RRZE Meggie: 2× Xeon E5-2630 v4 per node,
//! Intel OmniPath). These tests derive the headline figures those
//! constants imply and assert they stay in the right ranges — a tripwire
//! against accidental recalibration.

mod tests {
    use allscale_core::CostModel;
    use allscale_net::NetParams;

    #[test]
    fn figures_stay_in_testbed_ranges() {
        let cost = CostModel::default();
        let net = NetParams::default();
        // E5-2630 v4 class, memory-bound kernel: 2-4 sustained GFLOPS/core.
        let gflops_per_core = 1.0 / cost.ns_per_flop;
        assert!((2.0..4.0).contains(&gflops_per_core), "{gflops_per_core}");
        // Node-level peak comparable to the paper's ~47 GFLOPS/node
        // observed at 64 nodes.
        assert!((40.0..80.0).contains(&(gflops_per_core * 20.0)));
        // OmniPath MPI latency ~1-2 µs for a small message across the spine.
        let small_msg_latency_us = (net.base_latency_ns + 4 * net.per_hop_latency_ns) as f64 / 1e3;
        assert!((0.8..2.0).contains(&small_msg_latency_us));
        // 100 Gbit/s → ~84 µs per MiB (one NIC crossing).
        let mib_transfer_us = (1 << 20) as f64 / net.bandwidth_bps * 1e6;
        assert!((70.0..100.0).contains(&mib_transfer_us));
        // HPX-class task overhead: 0.5-5 µs, as dispatches per core-second.
        let tasks_per_core_per_sec = 1e9 / cost.task_overhead_ns as f64;
        assert!((2e5..2e6).contains(&tasks_per_core_per_sec));
    }

    #[test]
    fn stencil_per_step_budget_is_compute_dominated() {
        // At paper scale, a node's per-step compute budget must dwarf its
        // halo transfer time — the premise of the work-scale calibration
        // (EXPERIMENTS.md). 20,000² cells × 7 flops vs two 20,000-cell
        // halo rows of f64.
        let cost = CostModel::default();
        let net = NetParams::default();
        let compute_ns = 20_000.0 * 20_000.0 * 7.0 * cost.ns_per_flop / 20.0;
        let halo_bytes = 2.0 * 20_000.0 * 8.0;
        let halo_ns = halo_bytes / net.bandwidth_bps * 1e9 + net.base_latency_ns as f64;
        assert!(
            compute_ns > 100.0 * halo_ns,
            "compute {compute_ns} ns vs halo {halo_ns} ns"
        );
    }
}
