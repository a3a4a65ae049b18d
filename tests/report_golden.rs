//! Cross-commit golden digests of small end-to-end runs, and the one home
//! of "same configuration, same bytes" and "tracing is record-only".
//!
//! `hostbench/golden.json` pins five large workloads; this suite pins
//! small ones *across commits*: each row holds, as literal constants, the
//! FNV-1a digest of `RunReport::to_json()`, the digests of the run's
//! Chrome trace and of its critical path, the virtual finish time and the
//! application's own answer, for a configuration small enough to run in
//! milliseconds. A row with a report also runs untraced, and that run's
//! JSON (which leaves the trace out) must hash to the same `digest`: the
//! rerun is the determinism check, and the equal digest says recording
//! perturbed nothing. The pinned `trace` digest fixes the export byte for
//! byte. The report's accounting identities are the runtime's own check
//! (`Runtime::run`, debug builds).
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
//! A row changes only when the virtual behaviour of the runtime or the
//! report's format changes on purpose; a format-only change moves the
//! `digest` column alone (DESIGN.md §7, "One pin per configuration"). To
//! re-capture, run the suite: each mismatching test prints its row as it
//! is now, in source form.

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
use common::report_json::flatten;
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
    Row { name: "stencil_default", digest: 0x15b89cb990569831, trace: 0x77716b184bd0ba9d, cp: 0x2d93be03d63804f0, finish_ns: 1251740, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_central_index", digest: 0x81b038c86bdfa863, trace: 0xdc0388e1de61960f, cp: 0xcb2e064062378ebf, finish_ns: 1251740, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_batching", digest: 0x43a1fe16b9d5151b, trace: 0x51cef06e8931340c, cp: 0xfed896b73dc7e812, finish_ns: 1250226, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_steal_round_robin", digest: 0xe628791421ab7d1c, trace: 0xf995ad028d21f343, cp: 0xf0abae90e83649f9, finish_ns: 1351463, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_steal_least_loaded", digest: 0xc90e389cdca7a5c4, trace: 0x1f7305a04af8c5c0, cp: 0x8c80edda53ea2ebf, finish_ns: 1373921, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_steal_random", digest: 0x849b19d5ac87bcfe, trace: 0x6abdb4df8e641ccc, cp: 0x2c49caf1c377d99a, finish_ns: 1340299, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_integrity_corrupt_rot_kill", digest: 0x94dc335c87b5f61d, trace: 0xb789ea79692665af, cp: 0xacf3f3d7af6bb283, finish_ns: 2697828, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_ckpt_sync_full_kill", digest: 0xfc4bd4237d785285, trace: 0x20410f375139ddc9, cp: 0x9cc584cc6d2519f0, finish_ns: 3505860, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_ckpt_async_incremental_kill", digest: 0x02f4a3a046e05bca, trace: 0x3a386acc1d6a3dfb, cp: 0x177870b6e7d6d2f7, finish_ns: 2066672, answer: 0x4f1bb0e4cf53112f },
    Row { name: "stencil_kill_before_first_ckpt", digest: 0x1d321ad381031029, trace: 0xae312a6c51135c57, cp: 0xd31dddc193537096, finish_ns: 2851104, answer: 0x4f1bb0e4cf53112f },
    Row { name: "tpc_small", digest: 0x4216959a62e4bd36, trace: 0x0000000000000000, cp: 0x0000000000000000, finish_ns: 60661, answer: 0x1b4 },
    Row { name: "ipic3d_small", digest: 0xff6d58878e641a4b, trace: 0x0000000000000000, cp: 0x0000000000000000, finish_ns: 123810, answer: 0xf059e857ddcc7f69 },
    Row { name: "serve_replicate_retire", digest: 0x06bf6dbb2860bca1, trace: 0x20c325e1cedb63d6, cp: 0x9c9fedbe15155d5c, finish_ns: 5466138, answer: 0x200 },
    Row { name: "serve_shed_overload", digest: 0xbab3f5c277c51303, trace: 0x49c443a4b1acfe10, cp: 0x5e278c632aeacc2d, finish_ns: 5441710, answer: 0x200 },
    Row { name: "loadbalance_auto_rebalance", digest: 0x3802105b9b890d3a, trace: 0x3da700ef12d9a357, cp: 0xb0b92a1e718599b9, finish_ns: 1236954, answer: 0x3 },
    Row { name: "stencil_mpi_small", digest: 0x6945261dcfdaad44, trace: 0x0000000000000000, cp: 0x0000000000000000, finish_ns: 13860, answer: 0x51b26882f80394ac },
    Row { name: "tpc_mpi_small", digest: 0x0101ab0fc8e15add, trace: 0x0000000000000000, cp: 0x0000000000000000, finish_ns: 12728, answer: 0x1b4 },
    Row { name: "ipic3d_mpi_small", digest: 0x76c05f63de1edb3d, trace: 0x0000000000000000, cp: 0x0000000000000000, finish_ns: 22412, answer: 0xf059e857ddcc7f69 },
    Row { name: "scrub_repair_quarantine", digest: 0x1cb21f9e54ea5d97, trace: 0x24d3effe7e239d95, cp: 0x3c489e0aa3f3138e, finish_ns: 101372, answer: 0x32 },
    Row { name: "stencil_steal_kill", digest: 0x0a8e24c4f69e6fab, trace: 0x4db6d5df2e14b8ed, cp: 0x6e2b5df51a1a11d6, finish_ns: 3341597, answer: 0x4f1bb0e4cf53112f },
    Row { name: "serve_steal", digest: 0x75868107dbd92a02, trace: 0x623925e5f37f2f5b, cp: 0x27f0ded365a077d1, finish_ns: 20108913, answer: 0x200 },
];

fn traced(mut rt: RtConfig) -> RtConfig {
    rt.trace = Some(TraceConfig::default());
    rt
}

fn report_row(name: &'static str, report: &mut RunReport, answer: u64) -> Row {
    let trace = report.trace.take().expect("tracing was enabled");
    let json = report.to_json();
    let export = trace.to_chrome_json();
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

/// Run `app` traced on `rt()` and untraced: the two reports' JSON (which
/// leaves the trace out) and answers must be equal — tracing is
/// record-only, and the run repeats — so the untraced one hashes to the
/// row's `digest` too; then the row must equal its pin. Hands the traced
/// report back for the caller's own assertions on what the run entered.
fn check_run(
    name: &'static str,
    rt: impl Fn() -> RtConfig,
    app: impl Fn(RtConfig) -> (RunReport, u64),
) -> RunReport {
    let (mut report, answer) = app(traced(rt()));
    let (untraced, untraced_answer) = app(rt());
    assert!(
        untraced.to_json() == report.to_json() && untraced_answer == answer,
        "{name}: the untraced run reports differently from the traced one"
    );
    check(report_row(name, &mut report, answer));
    report
}

/// Run the stencil on `rt()`, check its row and its untraced rerun.
fn check_stencil(name: &'static str, rt: impl Fn() -> RtConfig) -> RunReport {
    check_run(name, rt, |rt| {
        let (res, report) = stencil::run_with_report(&stencil_cfg(), rt);
        assert!(res.validated, "{name}: the stencil must match its oracle");
        (report, res.checksum)
    })
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

fn scrub_rt() -> RtConfig {
    let mut rt = RtConfig::test(2, 2);
    rt.faults = Some(FaultPlan::new(7).with_rot(1.0));
    rt.with_integrity(IntegrityConfig {
        scrub_period: Some(SimDuration::from_micros(3)),
    })
}

/// A broadcast replica whose holder's storage rots on every write: the
/// scrubber repairs it until the quarantine threshold evicts it. The
/// shared grid is first-touched across *both* localities, so the "owner"
/// found below (the first non-empty one, locality 0) holds only half of
/// the `full_region()` it is asked to broadcast: that half is what gets
/// replicated and fenced, the rest stays with locality 1.
fn scrub_run(rt: RtConfig) -> (RunReport, u64) {
    let mut grids = None;
    let report = Runtime::new(rt).run(
        |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    let g = Grid::<f64, 1>::create(ctx, "shared", [64]);
                    let w = Grid::<f64, 1>::create(ctx, "work", [256]);
                    grids = Some((g, w));
                    Some(work_phase(g, 4.0, 0))
                }
                1 => {
                    let (g, w) = grids.unwrap();
                    let owner = (0..ctx.nodes())
                        .find(|&l| !ctx.owned_region_at(l, g.id).is_empty_dyn())
                        .expect("grid owned somewhere");
                    ctx.broadcast_replicate(g.id, owner, &g.full_region());
                    Some(work_phase(w, 60.0, 4))
                }
                2..=6 => Some(work_phase(grids.unwrap().1, 60.0, 4)),
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
    (report, tasks)
}

fn loadbalance_rt() -> RtConfig {
    let mut rt = RtConfig::test(4, 4);
    rt.cost.speed_factors = vec![1.0, 0.25, 1.0, 1.0];
    rt
}

/// The `loadbalance` example's shape: one slow node, `auto_rebalance`
/// (hence `migrate_region`) after the second step, then a destroy.
fn loadbalance_run(rt: RtConfig) -> (RunReport, u64) {
    let mut work = None;
    let mut moved = 0;
    let report = Runtime::new(rt).run(
        |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            if phase == 0 {
                let grid = Grid::<f64, 1>::create(ctx, "work", [2048]);
                work = Some(grid);
                return Some(work_phase(grid, 400.0, 16));
            }
            let grid = work.unwrap();
            if phase == 2 {
                moved = ctx.auto_rebalance::<1>(grid.id, 1.25);
            }
            if phase <= 4 {
                return Some(work_phase(grid, 400.0, 16));
            }
            ctx.destroy_item(grid.id);
            None
        },
    );
    assert!(
        moved >= 1,
        "loadbalance: the planner must migrate something"
    );
    (report, moved as u64)
}

/// Serve `cfg` on `rt()`, check its row and its untraced rerun.
fn check_serve(name: &'static str, cfg: ServeAppConfig, rt: impl Fn() -> RtConfig) -> RunReport {
    check_run(name, rt, |rt| {
        let out = serve::run_with(&cfg, rt);
        assert_eq!(out.keys_checked, cfg.keys, "{name}: write oracle");
        (out.report, out.keys_checked)
    })
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
    check_stencil("stencil_default", || RtConfig::test(4, 2));
}

#[test]
fn stencil_central_index() {
    check_stencil("stencil_central_index", || {
        let mut rt = RtConfig::test(4, 2);
        rt.central_index = true;
        rt
    });
}

#[test]
fn stencil_batching() {
    let r = check_stencil("stencil_batching", || {
        RtConfig::test(4, 2).with_batching(BatchParams::default())
    });
    assert!(r.traffic.batches >= 1, "stencil_batching: nothing batched");
}

/// Work stealing that spills at admission (`queue_threshold: 1`).
fn eager_stealing(victim: VictimPolicy) -> StealConfig {
    StealConfig {
        queue_threshold: 1,
        victim,
        ..StealConfig::default()
    }
}

fn stencil_steal(name: &'static str, victim: VictimPolicy) {
    let r = check_stencil(name, || {
        RtConfig::test(4, 2).with_work_stealing(eager_stealing(victim))
    });
    assert!(
        r.monitor.scheduler.steal_requests >= 1,
        "{name}: no steal round"
    );
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
    let r = check_stencil("stencil_integrity_corrupt_rot_kill", || {
        let mut rt = resilient(full_keep3, 1, None);
        let mut plan = FaultPlan::new(1).with_corruption(0.02).with_rot(0.05);
        plan.kill_at(2, SimTime::from_nanos(KILL_MID_NS));
        rt.faults = Some(plan);
        rt.with_integrity(IntegrityConfig::default())
    });
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
    let r = check_stencil("stencil_ckpt_sync_full_kill", || {
        resilient(sync_full, 1, Some((2, KILL_MID_NS)))
    });
    let m = &r.monitor.resilience;
    assert!(m.ckpt_stall_ns > 0 && m.recoveries == 1 && m.restored_bytes > 0);
}

#[test]
fn stencil_ckpt_async_incremental_kill() {
    let r = check_stencil("stencil_ckpt_async_incremental_kill", || {
        resilient(CheckpointConfig::default(), 1, Some((2, KILL_MID_NS)))
    });
    let m = &r.monitor.resilience;
    assert!(m.ckpt_deltas >= 1 && m.recoveries == 1 && m.restored_bytes > 0);
}

/// A kill before the first checkpoint commits: full restart.
#[test]
fn stencil_kill_before_first_ckpt() {
    let r = check_stencil("stencil_kill_before_first_ckpt", || {
        resilient(CheckpointConfig::default(), 4, Some((2, KILL_EARLY_NS)))
    });
    let m = &r.monitor.resilience;
    assert!(
        m.recoveries == 1 && m.restored_bytes == 0,
        "must restart from scratch"
    );
}

/// Work stealing around a node at quarter speed, on a lossy fabric, with
/// a checkpoint every boundary and a kill mid-run: the steal protocol,
/// the detector and recovery in one run, replayed byte for byte.
#[test]
fn stencil_steal_kill() {
    let r = check_stencil("stencil_steal_kill", || {
        let mut rt = resilient(CheckpointConfig::default(), 1, None)
            .with_work_stealing(eager_stealing(VictimPolicy::RoundRobin));
        rt.cost.speed_factors = vec![1.0, 1.0, 1.0, 0.25];
        let mut plan = FaultPlan::new(0x57ea_1f00d).with_drop_rate(0.003);
        plan.kill_at(2, SimTime::from_nanos(KILL_MID_NS));
        rt.faults = Some(plan);
        rt
    });
    let (s, m) = (&r.monitor.scheduler, &r.monitor.resilience);
    assert!(
        s.steal_requests >= 1 && m.detections >= 1 && m.recoveries >= 1,
        "steals, a detection and a recovery must all happen ({s:?}, {m:?})"
    );
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
    let r = check_serve("serve_replicate_retire", hot_serve(), || {
        RtConfig::test(4, 2)
    });
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
    let r = check_serve("serve_shed_overload", cfg, || RtConfig::test(4, 2));
    assert!(r.monitor.serve.shed >= 1, "reads must be shed");
}

/// The serving app under work stealing: request spans and admission
/// events on the stealing family's queues.
#[test]
fn serve_steal() {
    let r = check_serve("serve_steal", ServeAppConfig::small(), || {
        RtConfig::test(4, 2).with_work_stealing(StealConfig::default())
    });
    assert!(
        r.monitor.scheduler.tasks_queued >= 1,
        "serve_steal: nothing queued"
    );
}

#[test]
fn loadbalance_auto_rebalance() {
    check_run(
        "loadbalance_auto_rebalance",
        loadbalance_rt,
        loadbalance_run,
    );
}

#[test]
fn scrub_repair_quarantine() {
    check_run("scrub_repair_quarantine", scrub_rt, scrub_run);
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
    "traffic: dropped retries backoff_ns undeliverable batches batched_msgs batched_bytes flushes_by_cause[*] corrupted corrupt_detected corrupt_undetected re_requests",
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
