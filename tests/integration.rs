//! Cross-crate integration tests: full applications through the complete
//! stack (regions → fragments → data item manager → index → scheduler →
//! simulated network), validated against sequential oracles and across
//! the AllScale/MPI ports.

use allscale_apps::{ipic3d, stencil, tpc};
use allscale_core::{RoundRobinPolicy, RtConfig};

// ------------------------------------------------------------------ stencil

#[test]
fn stencil_allscale_matches_oracle_across_node_counts() {
    for nodes in [1, 2, 3, 4, 8] {
        let cfg = stencil::StencilConfig::small(nodes);
        let r = stencil::allscale_version::run(&cfg);
        assert!(r.validated, "stencil AllScale oracle mismatch at {nodes} nodes");
    }
}

#[test]
fn stencil_mpi_matches_oracle_across_node_counts() {
    for nodes in [1, 2, 4, 8] {
        let cfg = stencil::StencilConfig::small(nodes);
        let r = stencil::mpi_version::run(&cfg);
        assert!(r.validated, "stencil MPI oracle mismatch at {nodes} nodes");
    }
}

#[test]
fn stencil_versions_agree_bit_for_bit() {
    let cfg = stencil::StencilConfig::small(4);
    let a = stencil::allscale_version::run(&cfg);
    let m = stencil::mpi_version::run(&cfg);
    assert_eq!(a.checksum, m.checksum);
}

#[test]
fn stencil_results_are_independent_of_scheduling_policy() {
    // Same numerical answer under a policy that scatters tasks randomly
    // over the cluster — data management keeps execution correct even
    // when placement is terrible.
    let cfg = stencil::StencilConfig::small(4);
    let mut rt_cfg = RtConfig::test(4, 2);
    rt_cfg.policy = Box::new(RoundRobinPolicy::default());
    let scattered = stencil::allscale_version::run_with(&cfg, rt_cfg);
    assert!(scattered.validated, "round-robin placement must stay correct");
}

#[test]
fn stencil_results_are_independent_of_index_kind() {
    let cfg = stencil::StencilConfig::small(4);
    let mut rt_cfg = RtConfig::test(4, 2);
    rt_cfg.central_index = true;
    let central = stencil::allscale_version::run_with(&cfg, rt_cfg);
    assert!(central.validated, "central index must stay correct");
    let dist = stencil::allscale_version::run(&cfg);
    assert_eq!(central.checksum, dist.checksum);
}

// ------------------------------------------------------------------ ipic3d

#[test]
fn ipic3d_conserves_particles_and_matches_oracle() {
    for nodes in [1, 2, 4] {
        let cfg = ipic3d::PicConfig::small(nodes);
        let r = ipic3d::allscale_version::run(&cfg);
        assert_eq!(r.particles, cfg.total_particles(), "{nodes} nodes");
        assert!(r.validated, "ipic3d AllScale oracle mismatch at {nodes} nodes");
    }
}

#[test]
fn ipic3d_versions_agree() {
    let cfg = ipic3d::PicConfig::small(4);
    let a = ipic3d::allscale_version::run(&cfg);
    let m = ipic3d::mpi_version::run(&cfg);
    assert_eq!(a.checksum, m.checksum);
    assert_eq!(a.particles, m.particles);
    assert_eq!(a.rho_total, m.rho_total, "moment deposition agrees");
    assert!(a.rho_total > 0);
}

#[test]
fn ipic3d_longer_run_stays_conservative() {
    let mut cfg = ipic3d::PicConfig::small(2);
    cfg.steps = 6;
    let r = ipic3d::allscale_version::run(&cfg);
    assert!(r.validated);
    assert_eq!(r.particles, cfg.total_particles());
}

// --------------------------------------------------------------------- tpc

#[test]
fn tpc_counts_match_brute_force_across_node_counts() {
    for nodes in [1, 2, 4, 8] {
        let cfg = tpc::TpcConfig::small(nodes);
        let a = tpc::allscale_version::run(&cfg);
        assert!(a.validated, "tpc AllScale mismatch at {nodes} nodes");
    }
}

#[test]
fn tpc_mpi_matches_brute_force() {
    for nodes in [1, 3, 4] {
        let cfg = tpc::TpcConfig::small(nodes);
        let m = tpc::mpi_version::run(&cfg);
        assert!(m.validated, "tpc MPI mismatch at {nodes} nodes");
    }
}

#[test]
fn tpc_batching_preserves_counts() {
    let mut cfg = tpc::TpcConfig::small(4);
    let unbatched = tpc::allscale_version::run(&cfg);
    cfg.batch = 8;
    let batched = tpc::allscale_version::run(&cfg);
    assert_eq!(unbatched.total_count, batched.total_count);
    // Batching must reduce message count (the whole point of A3).
    assert!(
        batched.remote_msgs < unbatched.remote_msgs,
        "batched={} unbatched={}",
        batched.remote_msgs,
        unbatched.remote_msgs
    );
}

#[test]
fn tpc_radius_extremes() {
    // Radius 0: queries count only exact hits (none, generically);
    // radius larger than the space diagonal: all points.
    let mut cfg = tpc::TpcConfig::small(2);
    cfg.radius = 0.0;
    let zero = tpc::allscale_version::run(&cfg);
    assert!(zero.validated);
    assert_eq!(zero.total_count, 0);

    cfg.radius = 100.0 * (7.0f64).sqrt() + 1.0;
    let all = tpc::allscale_version::run(&cfg);
    assert!(all.validated);
    assert_eq!(
        all.total_count,
        cfg.total_points() * cfg.total_queries()
    );
}

// ------------------------------------------------------------ whole-system

#[test]
fn remote_traffic_appears_only_with_multiple_nodes() {
    let one = stencil::allscale_version::run(&stencil::StencilConfig::small(1));
    assert_eq!(one.remote_msgs, 0);
    let four = stencil::allscale_version::run(&stencil::StencilConfig::small(4));
    assert!(four.remote_msgs > 0);
}

// ----------------------------------------------------------- stress (slow)

/// Paper-size-adjacent stress validation — run with
/// `cargo test --release -- --ignored`.
#[test]
#[ignore = "slow: large oracle computation"]
fn tpc_large_tree_validates() {
    let mut cfg = tpc::TpcConfig::paper_scaled(8);
    cfg.levels = 16;
    cfg.queries_per_node = 4;
    cfg.validate = true; // brute force over 65k points × 32 queries
    let a = tpc::allscale_version::run(&cfg);
    assert!(a.validated);
    let m = tpc::mpi_version::run(&cfg);
    assert!(m.validated);
    assert_eq!(a.total_count, m.total_count);
}

/// TPC's top problem-size rung (2^21 points, `work_scale` 1): its 14-level
/// subtrees are deeper than a tree-fragment block spans, so every locality
/// holds thousands of blocks. Pins the answer and the virtual throughput;
/// `time` the command to see the host cost.
#[test]
#[ignore = "slow: a 2^21-point kd-tree on 64 nodes"]
fn tpc_deepest_rung_keeps_its_answer() {
    let cfg = tpc::TpcConfig {
        levels: 21,
        work_scale: 1.0,
        queries_per_node: 64,
        ..tpc::TpcConfig::paper_scaled(64)
    };
    let r = tpc::allscale_version::run_with(&cfg, RtConfig::meggie(64));
    assert_eq!(r.total_count, 351_849);
    assert_eq!(r.queries_per_sec, 784_209.963_027_640_1);
}

/// Longer stencil with validation at a larger grid.
#[test]
#[ignore = "slow: large oracle computation"]
fn stencil_large_grid_validates() {
    let cfg = stencil::StencilConfig {
        nodes: 8,
        rows_per_node: 128,
        cols: 128,
        steps: 8,
        validate: true,
        work_scale: 1.0,
    };
    let r = stencil::allscale_version::run(&cfg);
    assert!(r.validated);
}

/// Many-step PIC conservation at 8 nodes.
#[test]
#[ignore = "slow: large oracle computation"]
fn ipic3d_long_run_validates() {
    let mut cfg = ipic3d::PicConfig::small(8);
    cfg.steps = 10;
    cfg.particles_per_cell = 6;
    let r = ipic3d::allscale_version::run(&cfg);
    assert!(r.validated);
}
