//! The qualitative shapes of the paper's Fig. 7 at 1–8 nodes, and what
//! EXPERIMENTS.md E2–E4 / A1–A3 say about the recorded 1–64-node sweep.
//!
//! Each claim is a conclusion of the `fig7` experiment, declared once
//! beside its rows in `crates/bench/src/rows.rs`; the tests here name
//! them. A `recorded_*` test runs nothing: it holds one conclusion against
//! the checked-in `BENCH_fig7.json`. A small-run test first reruns the
//! rows it is about (seconds in a debug build) and requires each to equal
//! its checked-in twin minus `host_ms`, so the conclusions it then holds
//! judge what today's code computes.

use allscale_bench::{holds, replays};

const E2_E3: &str = "e2_e3_stencil_and_ipic3d_track_mpi_to_64_nodes";
const E4_CREEP: &str = "e4_tpc_allscale_creeps_from_4_to_64_under_a_scaling_mpi";
const A3: &str = "a3_query_batching_nearly_doubles_tpc_from_8_nodes";

/// Rerun the `fig7` rows of `app` under each of `systems` at each of
/// `nodes`, then hold `conclusions`.
fn replayed_rows_hold(app: &str, systems: &[&str], nodes: &[u64], conclusions: &[&str]) {
    let key = |s| nodes.iter().map(move |n| format!("{app} {s} {n}"));
    let keys: Vec<String> = systems.iter().flat_map(key).collect();
    replays("fig7", &keys.iter().map(String::as_str).collect::<Vec<_>>()).unwrap();
    for name in conclusions {
        holds("fig7", name).unwrap();
    }
}

#[test]
fn stencil_both_versions_scale_nearly_linearly() {
    replayed_rows_hold("stencil", &["AllScale", "MPI"], &[1, 8], &[E2_E3]);
}

#[test]
fn ipic3d_both_versions_scale_nearly_linearly() {
    replayed_rows_hold("ipic3d", &["AllScale", "MPI"], &[1, 8], &[E2_E3]);
}

/// MPI keeps gaining from 1 to 4 to 8 nodes, AllScale's efficiency is
/// below one half at 8, and MPI ends clearly ahead.
#[test]
fn tpc_mpi_scales_while_allscale_saturates() {
    let saturates = "e4_tpc_mpi_scales_while_allscale_saturates";
    replayed_rows_hold(
        "tpc",
        &["AllScale", "MPI"],
        &[1, 4, 8],
        &[saturates, E4_CREEP],
    );
}

/// Ablation A3: batching queries restores scaling headroom at 8 nodes,
/// with fewer remote messages.
#[test]
fn tpc_batching_recovers_scaling() {
    replayed_rows_hold("tpc", &["AllScale", "AllScale(batched)"], &[8], &[A3]);
}

#[test]
fn recorded_stencil_and_ipic3d_track_mpi_to_64_nodes() {
    holds("fig7", E2_E3).unwrap();
}

#[test]
fn recorded_tpc_allscale_creeps_from_4_to_64_under_a_scaling_mpi() {
    holds("fig7", E4_CREEP).unwrap();
}

#[test]
fn recorded_a1_central_index_falls_behind_hierarchical_from_4_nodes() {
    holds(
        "fig7",
        "a1_central_index_falls_behind_hierarchical_from_4_nodes",
    )
    .unwrap();
}

#[test]
fn recorded_a2_round_robin_placement_costs_what_the_prose_says() {
    holds("fig7", "a2_round_robin_placement_costs_what_the_prose_says").unwrap();
}

#[test]
fn recorded_a3_query_batching_nearly_doubles_tpc_from_8_nodes() {
    holds("fig7", A3).unwrap();
}
