//! Assert the qualitative shapes of the paper's Fig. 7 at reduced node
//! counts (1-8; the full 1-64 sweep is the `fig7` experiment of
//! `cargo run -p allscale-bench --bin experiments`, recorded in
//! EXPERIMENTS.md):
//!
//! - stencil / iPiC3D: AllScale within a modest constant of MPI, both
//!   scaling near-linearly;
//! - TPC: MPI keeps scaling while AllScale's per-query task forwarding
//!   caps its gains.
//!
//! The `recorded_*` tests run nothing: they read the checked-in
//! `BENCH_fig7.json` (CI compares it, minus `host_ms`, against a fresh
//! run) and hold every qualitative sentence of EXPERIMENTS.md E2–E4 /
//! A1–A3 against it, so a regenerated file that flips a claim fails here
//! instead of passing a comparison against itself.

mod common;

use std::collections::BTreeMap;

use allscale_apps::{ipic3d, stencil, tpc};
use common::recorded;

fn efficiency(base: f64, now: f64, nodes: usize) -> f64 {
    now / (base * nodes as f64)
}

#[test]
fn stencil_both_versions_scale_nearly_linearly() {
    let t = |nodes| {
        let cfg = stencil::StencilConfig::paper_scaled(nodes);
        (
            stencil::allscale_version::run(&cfg).gflops,
            stencil::mpi_version::run(&cfg).gflops,
        )
    };
    let (a1, m1) = t(1);
    let (a8, m8) = t(8);
    let eff_a = efficiency(a1, a8, 8);
    let eff_m = efficiency(m1, m8, 8);
    assert!(
        eff_a > 0.8,
        "AllScale stencil efficiency {eff_a:.2} at 8 nodes"
    );
    assert!(eff_m > 0.8, "MPI stencil efficiency {eff_m:.2} at 8 nodes");
    // Comparable performance (paper: "comparable performance and
    // scalability"): AllScale within 2x of MPI.
    assert!(a8 > m8 / 2.0, "AllScale {a8:.1} vs MPI {m8:.1} GFLOPS");
}

#[test]
fn ipic3d_both_versions_scale_nearly_linearly() {
    let t = |nodes| {
        let cfg = ipic3d::PicConfig::paper_scaled(nodes);
        (
            ipic3d::allscale_version::run(&cfg).updates_per_sec,
            ipic3d::mpi_version::run(&cfg).updates_per_sec,
        )
    };
    let (a1, m1) = t(1);
    let (a8, m8) = t(8);
    assert!(efficiency(a1, a8, 8) > 0.8, "AllScale PIC efficiency");
    assert!(efficiency(m1, m8, 8) > 0.8, "MPI PIC efficiency");
    assert!(a8 > m8 / 2.0);
}

#[test]
fn tpc_mpi_scales_while_allscale_saturates() {
    let t = |nodes| {
        let cfg = tpc::TpcConfig::paper_scaled(nodes);
        (
            tpc::allscale_version::run(&cfg).queries_per_sec,
            tpc::mpi_version::run(&cfg).queries_per_sec,
        )
    };
    let (a1, m1) = t(1);
    let (a4, m4) = t(4);
    let (a8, m8) = t(8);
    // MPI keeps gaining.
    assert!(
        m8 > m4 && m4 > m1,
        "MPI TPC must keep scaling: {m1:.0} {m4:.0} {m8:.0}"
    );
    // AllScale's efficiency collapses: far below linear by 8 nodes.
    let eff_a8 = efficiency(a1, a8, 8);
    assert!(
        eff_a8 < 0.5,
        "AllScale TPC should saturate (efficiency {eff_a8:.2} at 8 nodes)"
    );
    // And MPI ends up clearly ahead (paper: "MPI obtains higher
    // performance").
    assert!(m8 > 2.0 * a8, "MPI {m8:.0} vs AllScale {a8:.0} queries/s");
    let _ = a4;
}

#[test]
fn tpc_batching_recovers_scaling() {
    // Ablation A3: the paper's proposed-but-unimplemented optimization,
    // implemented: batching queries restores scaling headroom.
    let run = |nodes, batch| {
        let mut cfg = tpc::TpcConfig::paper_scaled(nodes);
        cfg.batch = batch;
        tpc::allscale_version::run(&cfg)
    };
    let plain = run(8, 1);
    let batched = run(8, 32);
    assert!(
        batched.queries_per_sec > 1.5 * plain.queries_per_sec,
        "batched {:.0} vs plain {:.0} queries/s",
        batched.queries_per_sec,
        plain.queries_per_sec
    );
    assert!(batched.remote_msgs < plain.remote_msgs);
}

// ------------------------------------------------- the recorded figures

/// One app's rows of the checked-in `BENCH_fig7.json`: system → node
/// count → throughput.
struct Recorded(BTreeMap<String, BTreeMap<usize, f64>>);

impl Recorded {
    fn parse(app: &str) -> Recorded {
        let mut columns: BTreeMap<String, BTreeMap<usize, f64>> = BTreeMap::new();
        for row in recorded::rows(include_str!("../BENCH_fig7.json")) {
            if row.label("app") == app {
                let column = columns.entry(row.label("system").to_string()).or_default();
                column.insert(row.num("nodes") as usize, row.num("throughput"));
            }
        }
        assert!(!columns.is_empty(), "no rows for {app}");
        Recorded(columns)
    }

    fn at(&self, label: &str, nodes: usize) -> f64 {
        self.0[label][&nodes]
    }

    /// `a / b` at every recorded node count from `from` on.
    fn ratios(&self, a: &str, b: &str, from: usize) -> Vec<(usize, f64)> {
        let rows = self.0[a].range(from..);
        rows.map(|(&n, &v)| (n, v / self.at(b, n))).collect()
    }
}

/// E2, E3: both ports weak-scale at > 99 % of their own one-node rate to
/// 64 nodes, and AllScale sits at a steady 0.80× of MPI.
#[test]
fn recorded_stencil_and_ipic3d_track_mpi_to_64_nodes() {
    for app in ["stencil", "ipic3d"] {
        let r = Recorded::parse(app);
        for system in ["AllScale", "MPI"] {
            let eff = efficiency(r.at(system, 1), r.at(system, 64), 64);
            assert!(
                eff > 0.99,
                "{app} {system}: efficiency {eff:.3} at 64 nodes"
            );
        }
        for (n, gap) in r.ratios("AllScale", "MPI", 1) {
            assert!(
                (0.78..0.82).contains(&gap),
                "{app}: AllScale at {gap:.3}x of MPI on {n}"
            );
        }
    }
    // E2's magnitude: 2.9 TFLOPS at 64 nodes against the paper's ≈ 3.0.
    let tflops = Recorded::parse("stencil").at("AllScale", 64) / 1e12;
    assert!((2.8..3.1).contains(&tflops), "{tflops:.2} TFLOPS");
}

/// E4: AllScale gains 2.9× to 4 nodes, then creeps — monotone, 1.4× for
/// 16× the machine, 6 % efficiency at 64 — under an MPI port that keeps
/// scaling and ends 14× ahead.
#[test]
fn recorded_tpc_allscale_creeps_from_4_to_64_under_a_scaling_mpi() {
    let r = Recorded::parse("tpc");
    let gain = r.at("AllScale", 4) / r.at("AllScale", 1);
    assert!((2.5..3.2).contains(&gain), "1 -> 4 nodes: {gain:.2}x");
    for system in ["AllScale", "MPI"] {
        let column: Vec<f64> = r.0[system].values().copied().collect();
        assert!(
            column.windows(2).all(|w| w[0] < w[1]),
            "{system} not monotone: {column:?}"
        );
    }
    let creep = r.at("AllScale", 64) / r.at("AllScale", 4);
    assert!((1.2..1.6).contains(&creep), "4 -> 64 nodes: {creep:.2}x");
    let eff = efficiency(r.at("AllScale", 1), r.at("AllScale", 64), 64);
    assert!(eff < 0.1, "AllScale efficiency {eff:.3} at 64 nodes");
    for (n, gap) in r.ratios("MPI", "AllScale", 1) {
        assert!(gap > 1.0, "MPI behind AllScale on {n} nodes ({gap:.2}x)");
    }
    let lead = r.at("MPI", 64) / r.at("AllScale", 64);
    assert!(
        (12.0..16.0).contains(&lead),
        "MPI {lead:.1}x ahead at 64 nodes"
    );
}

/// A1: the central directory is level with the hierarchical index at 1
/// and 2 nodes, behind it from 4 on, flat at ≈ 300 k to 64 where the
/// hierarchical index is 1.7× ahead; the stencil cannot tell them apart.
#[test]
fn recorded_a1_central_index_falls_behind_hierarchical_from_4_nodes() {
    let r = Recorded::parse("tpc");
    for (n, gap) in r.ratios("AllScale(central-idx)", "AllScale", 1) {
        match n {
            1 | 2 => assert!((gap - 1.0).abs() < 0.01, "{n} nodes: {gap:.3}"),
            _ => assert!(gap < 0.9, "{n} nodes: central index at {gap:.3}x"),
        }
    }
    let flat: Vec<f64> = r.0["AllScale(central-idx)"]
        .range(4..)
        .map(|(_, &v)| v)
        .collect();
    assert!(flat.iter().all(|v| (2.9e5..3.1e5).contains(v)), "{flat:?}");
    let lead = r.at("AllScale", 64) / r.at("AllScale(central-idx)", 64);
    assert!(
        (1.5..1.9).contains(&lead),
        "hierarchical {lead:.2}x ahead at 64"
    );
    let stencil = Recorded::parse("stencil");
    for (n, gap) in stencil.ratios("AllScale(central-idx)", "AllScale", 1) {
        assert!((gap - 1.0).abs() < 1e-3, "stencil, {n} nodes: {gap}");
    }
}

/// A2: round-robin placement costs TPC 15–19 % from 8 to 32 nodes and
/// more than half at 64, and the stencil 20 % at 32.
#[test]
fn recorded_a2_round_robin_placement_costs_what_the_prose_says() {
    let r = Recorded::parse("tpc");
    for (n, kept) in r.ratios("AllScale(round-robin)", "AllScale", 8) {
        match n {
            64 => assert!(kept < 0.5, "64 nodes: {kept:.3}"),
            _ => assert!((0.80..0.86).contains(&kept), "{n} nodes: {kept:.3}"),
        }
    }
    let stencil = Recorded::parse("stencil");
    let kept = stencil.at("AllScale(round-robin)", 32) / stencil.at("AllScale", 32);
    assert!(
        (0.75..0.85).contains(&kept),
        "stencil at 32 nodes: {kept:.3}"
    );
}

/// A3: batching TPC queries raises throughput 1.7–2.0× from 8 nodes on.
#[test]
fn recorded_a3_query_batching_nearly_doubles_tpc_from_8_nodes() {
    let r = Recorded::parse("tpc");
    for (n, gain) in r.ratios("AllScale(batched)", "AllScale", 8) {
        assert!((1.65..2.05).contains(&gain), "{n} nodes: {gain:.2}x");
    }
}
