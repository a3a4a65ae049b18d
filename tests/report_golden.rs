//! Cross-commit golden digests of small end-to-end runs.
//!
//! The other suites compare a run with its own rerun (`trace_determinism`)
//! or five large workloads against `hostbench/golden.json`; this one
//! compares *across commits*: each row pins, as literal constants, the
//! FNV-1a digest of `RunReport::to_json()`, the digests of the run's
//! Chrome trace and of its critical path, the virtual finish time and the
//! application's own answer, for a configuration small enough to run in
//! milliseconds.
//! Together the rows enter every module of `crates/core/src/runtime/`
//! and both arms of every fork in it (index kind, batching, integrity,
//! scheduler family and victim policy, checkpoint mode, restore vs full
//! restart, scrub repair vs quarantine, replicate/retire vs shedding,
//! driver-initiated migration), so a refactor of the runtime that moves
//! one event, one billed message or one trace record fails here by name.
//!
//! TPC and iPiC3D hand back only their result struct, so their rows
//! digest that (it carries the virtual compute time and the remote
//! message and byte counts) and have no trace or critical-path digest.
//! The three `*_mpi_small` rows pin the MPI baseline of Fig. 7 the same
//! way.
//!
//! A row changes only when the virtual behaviour of the runtime changes
//! on purpose. To re-capture, run the suite: each mismatching test prints
//! its row as it is now, in source form.

use std::cell::RefCell;
use std::rc::Rc;

use allscale_apps::ipic3d::{self, PicConfig};
use allscale_apps::serve::{self, ServeAppConfig};
use allscale_apps::stencil::{
    allscale_version as stencil, mpi_version as stencil_mpi, StencilConfig,
};
use allscale_apps::tpc::{self, TpcConfig};
use allscale_core::{
    critical_path, pfor, BatchParams, CheckpointConfig, CkptMode, FaultPlan, Grid, IntegrityConfig,
    PforSpec, Requirement, ResilienceConfig, RtConfig, RtCtx, RunReport, Runtime, SloConfig,
    StealConfig, TaskValue, TraceConfig, VictimPolicy, WorkItem,
};
use allscale_des::{SimDuration, SimTime};
use allscale_net::ClusterSpec;
use allscale_region::{fnv1a_64, BoxRegion};
use common::report_json::{flatten, pre_walk_json};
use common::{Scenario, STEALING};

mod common;

#[derive(Debug, PartialEq, Eq)]
struct Row {
    name: &'static str,
    /// `fnv1a_64(RunReport::to_json())`, or of the result struct's
    /// `Debug` form for the two applications that return no report.
    digest: u64,
    /// `fnv1a_64(Trace::to_chrome_json())`; 0 without a report.
    trace: u64,
    /// `fnv1a_64` of the `Debug` form of the trace's `critical_path`; 0
    /// without a report.
    cp: u64,
    /// Virtual finish time (compute time for TPC and iPiC3D), ns.
    finish_ns: u64,
    /// The application's answer: field checksum, total count, keys
    /// verified against the write oracle, tasks run.
    answer: u64,
}

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    Row { name: "stencil_default", digest: 0xd31a4c9025c9bfb1, trace: 0x77716b184bd0ba9d, cp: 0x2d93be03d63804f0, finish_ns: 1251740, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_central_index", digest: 0xab5b1a9379ce25bf, trace: 0xdc0388e1de61960f, cp: 0xcb2e064062378ebf, finish_ns: 1251740, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_batching", digest: 0x28898b5e823f755b, trace: 0x51cef06e8931340c, cp: 0xfed896b73dc7e812, finish_ns: 1250226, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_steal_round_robin", digest: 0x61fa806281b61dd8, trace: 0xf995ad028d21f343, cp: 0xf0abae90e83649f9, finish_ns: 1351463, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_steal_least_loaded", digest: 0x667c9bdf64d63484, trace: 0x1f7305a04af8c5c0, cp: 0x8c80edda53ea2ebf, finish_ns: 1373921, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_steal_random", digest: 0x5cd9afd232b3f7d2, trace: 0x6abdb4df8e641ccc, cp: 0x2c49caf1c377d99a, finish_ns: 1340299, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_integrity_corrupt_rot_kill", digest: 0xb96cf2ceaa724c19, trace: 0xb789ea79692665af, cp: 0xacf3f3d7af6bb283, finish_ns: 2697828, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_ckpt_sync_full_kill", digest: 0x3c4bc0996e304745, trace: 0x20410f375139ddc9, cp: 0x9cc584cc6d2519f0, finish_ns: 3505860, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_ckpt_async_incremental_kill", digest: 0xab9ed350fa9e1566, trace: 0x3a386acc1d6a3dfb, cp: 0x177870b6e7d6d2f7, finish_ns: 2066672, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_kill_before_first_ckpt", digest: 0xb52d059991166e09, trace: 0xae312a6c51135c57, cp: 0xd31dddc193537096, finish_ns: 2851104, answer: 0x4f1bb0e4cf53112f },
    Row { name: "tpc_small", digest: 0x4216959a62e4bd36, trace: 0x0000000000000000, cp: 0x0000000000000000, finish_ns: 60661, answer: 0x1b4 },
    Row { name: "ipic3d_small", digest: 0xff6d58878e641a4b, trace: 0x0000000000000000, cp: 0x0000000000000000, finish_ns: 123810, answer: 0xf059e857ddcc7f69 },
    Row { name: "serve_replicate_retire", digest: 0x3caea0d814f77859, trace: 0x20c325e1cedb63d6, cp: 0x9c9fedbe15155d5c, finish_ns: 5466138, answer: 0x200 },
    Row { name: "serve_shed_overload", digest: 0x273a5fd9a4931ec3, trace: 0x49c443a4b1acfe10, cp: 0x5e278c632aeacc2d, finish_ns: 5441710, answer: 0x200 },
    Row { name: "loadbalance_auto_rebalance", digest: 0x385b3ffaaa6d5936, trace: 0x3da700ef12d9a357, cp: 0xb0b92a1e718599b9, finish_ns: 1236954, answer: 0x3 },
    Row { name: "stencil_mpi_small", digest: 0x6945261dcfdaad44, trace: 0x0000000000000000, cp: 0x0000000000000000, finish_ns: 13860, answer: 0x51b26882f80394ac },
    Row { name: "tpc_mpi_small", digest: 0x0101ab0fc8e15add, trace: 0x0000000000000000, cp: 0x0000000000000000, finish_ns: 12728, answer: 0x1b4 },
    Row { name: "ipic3d_mpi_small", digest: 0x76c05f63de1edb3d, trace: 0x0000000000000000, cp: 0x0000000000000000, finish_ns: 22412, answer: 0xf059e857ddcc7f69 },
    Row { name: "scrub_repair_quarantine", digest: 0x61135dcba8081477, trace: 0x24d3effe7e239d95, cp: 0x3c489e0aa3f3138e, finish_ns: 101372, answer: 0x32 },
];

/// The `digest` column as it was pinned while a hand-maintained renderer
/// wrote the report instead of the statistics walk. [`report_row`] renames
/// each run's JSON back to that layout ([`pre_walk_json`], the key renaming
/// of DESIGN.md §5.7 as data) and checks it hashes to the digest here:
/// every number the old report carried sits unchanged at its new path, and
/// every other number is a counter the old report lacked. A row whose
/// virtual behaviour changes on purpose drops its entry.
#[rustfmt::skip]
const PRE_WALK_DIGESTS: &[(&str, u64)] = &[
    ("stencil_default", 0x8386992d6d59ba3e),
    ("stencil_central_index", 0x09b67ddea063c4dc),
    ("stencil_batching", 0x612264fabd8da80c),
    ("stencil_steal_round_robin", 0xbe04fad963d771da),
    ("stencil_steal_least_loaded", 0x4d7dc75580f88ee0),
    ("stencil_steal_random", 0x4955eee9b376e186),
    ("stencil_integrity_corrupt_rot_kill", 0xa39eb8d93983c399),
    ("stencil_ckpt_sync_full_kill", 0x92dda4b78b2ffa66),
    ("stencil_ckpt_async_incremental_kill", 0x72b3b9427ab7f8be),
    ("stencil_kill_before_first_ckpt", 0x4e0f7d2a09375545),
    ("serve_replicate_retire", 0xad4513b13596c9d2),
    ("serve_shed_overload", 0xfa904aad493064db),
    ("loadbalance_auto_rebalance", 0xe2021d9a38cebdad),
    ("scrub_repair_quarantine", 0x2395984e844c1824),
];

/// The `trace` column as it was pinned while `lost` events left their
/// purpose out of the export. [`report_row`] deletes every `,"purpose":"…"`
/// from each run's Chrome trace ([`without_purpose`]) and checks it hashes
/// to the digest here: the purpose is the only thing the export gained. A
/// row whose virtual behaviour changes on purpose drops its entry.
#[rustfmt::skip]
const PRE_PURPOSE_TRACES: &[(&str, u64)] = &[
    ("stencil_integrity_corrupt_rot_kill", 0x25166eecec71f253),
    ("stencil_ckpt_sync_full_kill", 0x384443e4c2e7e6f9),
    ("stencil_ckpt_async_incremental_kill", 0x5e7acf2d5866d7b7),
    ("stencil_kill_before_first_ckpt", 0xc4547ecd5b005924),
];

/// `json` with every `,"purpose":"…"` deleted.
fn without_purpose(json: &str) -> String {
    const KEY: &str = ",\"purpose\":\"";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find(KEY) {
        out.push_str(&rest[..at]);
        let value = &rest[at + KEY.len()..];
        rest = &value[value.find('"').expect("a closing quote") + 1..];
    }
    out.push_str(rest);
    out
}

fn traced(mut rt: RtConfig) -> RtConfig {
    rt.trace = Some(TraceConfig::default());
    rt
}

fn report_row(name: &'static str, report: &mut RunReport, answer: u64) -> Row {
    let trace = report.trace.take().expect("tracing was enabled");
    let json = report.to_json();
    if let Some(&(_, pinned)) = PRE_WALK_DIGESTS.iter().find(|(n, _)| *n == name) {
        let renamed = fnv1a_64(pre_walk_json(&json).as_bytes());
        assert!(renamed == pinned, "{name}: renamed back, the report is not the pre-walk one");
    }
    let export = trace.to_chrome_json();
    if let Some(&(_, pinned)) = PRE_PURPOSE_TRACES.iter().find(|(n, _)| *n == name) {
        let stripped = fnv1a_64(without_purpose(&export).as_bytes());
        assert!(stripped == pinned, "{name}: without its purposes, the trace is not the old one");
    }
    Row {
        name,
        digest: fnv1a_64(json.as_bytes()),
        trace: fnv1a_64(export.as_bytes()),
        cp: fnv1a_64(format!("{:?}", critical_path(&trace)).as_bytes()),
        finish_ns: report.finish_time.as_nanos(),
        answer,
    }
}

/// Stencil `small(4)`, stretched so that a step outlasts a checkpoint
/// drain and a kill has phases to land between.
fn stencil_cfg() -> StencilConfig {
    StencilConfig {
        steps: 6,
        work_scale: 150.0,
        ..StencilConfig::small(4)
    }
}

/// Run the stencil on `rt`, check its row, and hand the report back for
/// the caller's own assertions on what the run entered.
fn check_stencil(name: &'static str, rt: RtConfig) -> RunReport {
    let (res, mut report) = stencil::run_with_report(&stencil_cfg(), traced(rt));
    assert!(res.validated, "{name}: the stencil must match its oracle");
    check(report_row(name, &mut report, res.checksum));
    report
}

/// Resilience with a heartbeat fast enough to notice a kill within one
/// stencil step.
fn resilient(ckpt: CheckpointConfig, every: usize, kill: Option<(usize, u64)>) -> RtConfig {
    let mut rt = RtConfig::test(4, 2);
    rt.resilience = Some(ResilienceConfig {
        checkpoint_every: every,
        ckpt,
        heartbeat_period: SimDuration::from_micros(20),
    });
    if let Some((loc, at_ns)) = kill {
        let mut plan = FaultPlan::new(0xc4a7);
        plan.kill_at(loc, SimTime::from_nanos(at_ns));
        rt.faults = Some(plan);
    }
    rt
}

fn work_phase(w: Grid<f64, 1>, ns_per_point: f64, pieces: u64) -> Box<dyn WorkItem> {
    pfor(
        PforSpec {
            name: "work",
            range: w.full_box(),
            grain: 32,
            ns_per_point,
            axis0_pieces: pieces,
        },
        move |tile| vec![Requirement::write(w.id, BoxRegion::from_box(*tile))],
        move |tctx, p| {
            let v = w.get(tctx, p.0);
            w.set(tctx, p.0, v * 0.5 + 1.0);
        },
    )
}

/// A broadcast replica whose holder's storage rots on every write: the
/// scrubber repairs it until the quarantine threshold evicts it. The
/// shared grid is first-touched across *both* localities, so the "owner"
/// found below (the first non-empty one, locality 0) holds only half of
/// the `full_region()` it is asked to broadcast: that half is what gets
/// replicated and fenced, the rest stays with locality 1.
fn scrub_row() -> Row {
    type Pair = Rc<RefCell<Option<(Grid<f64, 1>, Grid<f64, 1>)>>>;
    let st: Pair = Rc::new(RefCell::new(None));
    let s2 = st.clone();
    let mut rt = RtConfig::test(2, 2);
    rt.faults = Some(FaultPlan::new(7).with_rot(1.0));
    let rt = rt.with_integrity(IntegrityConfig {
        scrub_period: Some(SimDuration::from_micros(3)),
        ..IntegrityConfig::default()
    });
    let mut report = Runtime::new(traced(rt)).run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    let g = Grid::<f64, 1>::create(ctx, "shared", [64]);
                    let w = Grid::<f64, 1>::create(ctx, "work", [256]);
                    *s2.borrow_mut() = Some((g, w));
                    Some(work_phase(g, 4.0, 0))
                }
                1 => {
                    let (g, w) = s2.borrow().unwrap();
                    let owner = (0..ctx.nodes())
                        .find(|&l| !ctx.owned_region_at(l, g.id).is_empty_dyn())
                        .expect("grid owned somewhere");
                    ctx.broadcast_replicate(g.id, owner, &g.full_region());
                    Some(work_phase(w, 60.0, 4))
                }
                2..=6 => Some(work_phase(s2.borrow().unwrap().1, 60.0, 4)),
                _ => None,
            }
        },
    );
    let g = &report.monitor.integrity;
    assert!(
        g.scrub_repairs >= 1 && g.quarantines >= 1,
        "scrub: repair and quarantine must both fire ({g:?})"
    );
    let tasks = report.monitor.total_tasks();
    report_row("scrub_repair_quarantine", &mut report, tasks)
}

/// The `loadbalance` example's shape: one slow node, `auto_rebalance`
/// (hence `migrate_region`) after the second step, then a destroy.
fn loadbalance_row() -> Row {
    let cell: Rc<RefCell<Option<Grid<f64, 1>>>> = Rc::new(RefCell::new(None));
    let gc = cell.clone();
    let moves = Rc::new(RefCell::new(0usize));
    let mv = moves.clone();
    let mut rt = RtConfig::test(4, 4);
    rt.cost.speed_factors = vec![1.0, 0.25, 1.0, 1.0];
    let mut report = Runtime::new(traced(rt)).run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            if phase == 0 {
                let grid = Grid::<f64, 1>::create(ctx, "work", [2048]);
                *gc.borrow_mut() = Some(grid);
                return Some(work_phase(grid, 400.0, 16));
            }
            let grid = gc.borrow().unwrap();
            if phase == 2 {
                *mv.borrow_mut() = ctx.auto_rebalance::<1>(grid.id, 1.25);
            }
            if phase <= 4 {
                return Some(work_phase(grid, 400.0, 16));
            }
            ctx.destroy_item(grid.id);
            None
        },
    );
    let moved = *moves.borrow();
    assert!(moved >= 1, "loadbalance: the planner must migrate something");
    report_row("loadbalance_auto_rebalance", &mut report, moved as u64)
}

fn check_serve(name: &'static str, cfg: ServeAppConfig) -> RunReport {
    let out = serve::run_with(&cfg, traced(RtConfig::test(4, 2)));
    assert_eq!(out.keys_checked, cfg.keys, "{name}: write oracle");
    let mut report = out.report;
    check(report_row(name, &mut report, out.keys_checked));
    report
}

/// Kill instants for [`stencil_cfg`], whose clean run on 4×2 takes
/// 1.25 ms of virtual time, ≈ 180 µs a phase: mid-run, and before the
/// first checkpoint of a `checkpoint_every: 4` cadence.
const KILL_MID_NS: u64 = 700_000;
const KILL_EARLY_NS: u64 = 300_000;

/// Compare `row` with the constant of the same name; a mismatch prints
/// the row as it is now, in source form.
fn check(row: Row) {
    let pinned = GOLDEN.iter().find(|g| g.name == row.name);
    assert!(
        pinned == Some(&row),
        "{} differs from GOLDEN; as it is now:\n    Row {{ name: {:?}, digest: {:#018x}, trace: {:#018x}, cp: {:#018x}, finish_ns: {}, answer: {:#x} }},",
        row.name, row.name, row.digest, row.trace, row.cp, row.finish_ns, row.answer
    );
}

#[test]
fn stencil_default() {
    check_stencil("stencil_default", RtConfig::test(4, 2));
}

#[test]
fn stencil_central_index() {
    let mut rt = RtConfig::test(4, 2);
    rt.central_index = true;
    check_stencil("stencil_central_index", rt);
}

#[test]
fn stencil_batching() {
    let rt = RtConfig::test(4, 2).with_batching(BatchParams::default());
    check_stencil("stencil_batching", rt);
}

fn stencil_steal(name: &'static str, victim: VictimPolicy) {
    let cfg = StealConfig {
        queue_threshold: 1,
        victim,
        ..StealConfig::default()
    };
    let r = check_stencil(name, RtConfig::test(4, 2).with_work_stealing(cfg));
    assert!(r.monitor.scheduler.steal_requests >= 1, "{name}: no steal round");
}

#[test]
fn stencil_steal_round_robin() {
    stencil_steal("stencil_steal_round_robin", VictimPolicy::RoundRobin);
}

#[test]
fn stencil_steal_least_loaded() {
    stencil_steal("stencil_steal_least_loaded", VictimPolicy::LeastLoaded);
}

#[test]
fn stencil_steal_random() {
    stencil_steal("stencil_steal_random", VictimPolicy::Random);
}

/// Integrity over a fabric that corrupts on the wire and rots at rest,
/// with a kill: sealed transfers are re-requested, the newest checkpoint
/// has a rotted shard and recovery falls back to the one before it (full
/// checkpoints, so one bad link spoils no chain).
#[test]
fn stencil_integrity_corrupt_rot_kill() {
    let full_keep3 = CheckpointConfig {
        incremental: false,
        keep: 3,
        ..CheckpointConfig::default()
    };
    let mut rt = resilient(full_keep3, 1, None);
    let mut plan = FaultPlan::new(1).with_corruption(0.02).with_rot(0.05);
    plan.kill_at(2, SimTime::from_nanos(KILL_MID_NS));
    rt.faults = Some(plan);
    let r = check_stencil(
        "stencil_integrity_corrupt_rot_kill",
        rt.with_integrity(IntegrityConfig::default()),
    );
    let g = &r.monitor.integrity;
    assert!(
        r.traffic.re_requests >= 1
            && g.checkpoint_fallbacks >= 1
            && g.ckpt_links_verified >= 1
            && r.monitor.resilience.restored_bytes > 0,
        "re-requests, a rejected checkpoint and a verified restore must all happen ({g:?})"
    );
}

#[test]
fn stencil_ckpt_sync_full_kill() {
    let sync_full = CheckpointConfig {
        mode: CkptMode::Sync,
        incremental: false,
        ..CheckpointConfig::default()
    };
    let r = check_stencil(
        "stencil_ckpt_sync_full_kill",
        resilient(sync_full, 1, Some((2, KILL_MID_NS))),
    );
    let m = &r.monitor.resilience;
    assert!(m.ckpt_stall_ns > 0 && m.recoveries == 1 && m.restored_bytes > 0);
}

#[test]
fn stencil_ckpt_async_incremental_kill() {
    let r = check_stencil(
        "stencil_ckpt_async_incremental_kill",
        resilient(CheckpointConfig::default(), 1, Some((2, KILL_MID_NS))),
    );
    let m = &r.monitor.resilience;
    assert!(m.ckpt_deltas >= 1 && m.recoveries == 1 && m.restored_bytes > 0);
}

/// A kill before the first checkpoint commits: full restart.
#[test]
fn stencil_kill_before_first_ckpt() {
    let r = check_stencil(
        "stencil_kill_before_first_ckpt",
        resilient(CheckpointConfig::default(), 4, Some((2, KILL_EARLY_NS))),
    );
    let m = &r.monitor.resilience;
    assert!(m.recoveries == 1 && m.restored_bytes == 0, "must restart from scratch");
}

/// A row of a run that hands back only its result struct: the digest of
/// its `Debug` form, its compute time and its answer.
fn result_row(
    name: &'static str,
    res: &impl std::fmt::Debug,
    compute_seconds: f64,
    answer: u64,
) -> Row {
    Row {
        name,
        digest: fnv1a_64(format!("{res:?}").as_bytes()),
        trace: 0,
        cp: 0,
        finish_ns: (compute_seconds * 1e9).round() as u64,
        answer,
    }
}

#[test]
fn tpc_small() {
    let res = tpc::allscale_version::run_with(&TpcConfig::small(4), RtConfig::test(4, 2));
    assert!(res.validated, "tpc: oracle");
    check(result_row(
        "tpc_small",
        &res,
        res.compute_seconds,
        res.total_count,
    ));
}

#[test]
fn ipic3d_small() {
    let res = ipic3d::allscale_version::run_with(&PicConfig::small(4), RtConfig::test(4, 2));
    assert!(res.validated, "ipic3d: oracle");
    check(result_row(
        "ipic3d_small",
        &res,
        res.compute_seconds,
        res.checksum,
    ));
}

#[test]
fn stencil_mpi_small() {
    let res = stencil_mpi::run_with(&StencilConfig::small(4), &ClusterSpec::test(4, 2));
    assert!(res.validated, "stencil mpi: oracle");
    check(result_row(
        "stencil_mpi_small",
        &res,
        res.compute_seconds,
        res.checksum,
    ));
}

#[test]
fn tpc_mpi_small() {
    let res = tpc::mpi_version::run_with(&TpcConfig::small(4), &ClusterSpec::test(4, 2));
    assert!(res.validated, "tpc mpi: oracle");
    check(result_row(
        "tpc_mpi_small",
        &res,
        res.compute_seconds,
        res.total_count,
    ));
}

#[test]
fn ipic3d_mpi_small() {
    let res = ipic3d::mpi_version::run_with(&PicConfig::small(4), &ClusterSpec::test(4, 2));
    assert!(res.validated, "ipic3d mpi: oracle");
    check(result_row(
        "ipic3d_mpi_small",
        &res,
        res.compute_seconds,
        res.checksum,
    ));
}

/// Above the knee of a 4×2 cluster, so the controller acts; a short
/// control period and an eager retirement rule make a shard go through
/// replicate → retire within the 5 ms stream.
fn hot_serve() -> ServeAppConfig {
    ServeAppConfig {
        rate_rps: 600_000.0,
        slo: SloConfig {
            control_period: SimDuration::from_micros(500),
            cold_window: 10_000,
            cold_periods: 1,
            ..SloConfig::default()
        },
        ..ServeAppConfig::small()
    }
}

#[test]
fn serve_replicate_retire() {
    let r = check_serve("serve_replicate_retire", hot_serve());
    let v = &r.monitor.serve;
    assert!(
        v.replications >= 1 && v.retirements >= 1 && v.invalidations >= 1,
        "replicate, retire and write invalidation must all fire ({v:?})"
    );
}

#[test]
fn serve_shed_overload() {
    let hot = hot_serve();
    let cfg = ServeAppConfig {
        slo: SloConfig {
            shed_overload: true,
            replicate_hot: false,
            retire_cold: false,
            ..hot.slo
        },
        ..hot
    };
    let r = check_serve("serve_shed_overload", cfg);
    assert!(r.monitor.serve.shed >= 1, "reads must be shed");
}

#[test]
fn loadbalance_auto_rebalance() {
    check(loadbalance_row());
}

#[test]
fn scrub_repair_quarantine() {
    check(scrub_row());
}

/// Every key path of `RunReport::to_json` on a run with every service on —
/// serving, work stealing, batching, integrity, checkpoints and a lossy
/// fabric — one line per group, array indices written `[*]`. A schema
/// change is a reviewed diff of this list.
#[rustfmt::skip]
const KEY_PATHS: &[&str] = &[
    "RunReport: finish_time phases remote_msgs remote_bytes events",
    "monitor.per_locality[*]: tasks_executed tasks_split busy_ns msgs_sent bytes_sent replicas_in migrations_in first_touch lock_conflicts",
    "monitor.scheduler: tasks_queued steal_requests steal_grants steal_denies handoffs",
    "monitor: index_lookup_hops index_update_hops index_lookups",
    "monitor.cache: hits misses invalidations saved_hops",
    "monitor.resilience: checkpoints checkpoint_bytes ckpt_logical_bytes ckpt_anchors ckpt_deltas ckpt_stall_ns ckpt_fence_ns ckpt_drain_ns ckpt_fp_ns ckpt_torn cow_captures recovery_read_ns heartbeats detections detection_latency_ns recoveries restored_bytes tasks_reexecuted failed_transfers",
    "monitor.integrity: wire_detected rot_injected checkpoint_shards_rejected checkpoint_fallbacks ckpt_links_verified scrub_passes replicas_scrubbed scrub_divergent scrub_repairs quarantines",
    "monitor.task_durations: count sum min max p50 p90 p99",
    "monitor.transfer_latency: count sum min max p50 p90 p99",
    "monitor.serve: offered admitted completed shed reads writes slo_violations replications retirements invalidations serve_ns",
    "monitor.serve.latency: count sum min max p50 p90 p99",
    "monitor.serve.per_shard[*]: count sum min max p50 p90 p99",
    "traffic.remote: count sum min max",
    "traffic.local: count sum min max",
    "traffic: dropped delayed retries backoff_ns undeliverable batches batched_msgs batched_bytes flushes_by_cause[*] corrupted corrupt_detected corrupt_undetected re_requests",
    "storage: local_bytes_written remote_bytes_written local_write_ns remote_write_ns local_bytes_read remote_bytes_read read_ns fingerprint_bytes fingerprint_ns",
];

#[test]
fn json_key_paths() {
    let services = Scenario {
        sched: STEALING,
        batching: true,
        integrity: true,
        faults: Some(FaultPlan::new(5).with_drop_rate(0.01).with_corruption(0.01)),
        ckpt: Some(ResilienceConfig::default()),
        ..Scenario::new(0)
    };
    let out = serve::run_with(&hot_serve(), services.configure(RtConfig::test(4, 2)));
    let mut groups: Vec<(String, Vec<String>)> = Vec::new();
    for path in flatten(&out.report.to_json()).key_paths() {
        let (group, leaf) = path.rsplit_once('.').unwrap_or(("RunReport", &path));
        match groups.iter_mut().find(|(g, _)| g == group) {
            Some((_, leaves)) => leaves.push(leaf.to_owned()),
            None => groups.push((group.to_owned(), vec![leaf.to_owned()])),
        }
    }
    let lines: Vec<String> = groups
        .iter()
        .map(|(group, leaves)| format!("{group}: {}", leaves.join(" ")))
        .collect();
    assert!(
        lines == KEY_PATHS,
        "the report's schema changed; as it is now:\n{lines:#?}"
    );
}
