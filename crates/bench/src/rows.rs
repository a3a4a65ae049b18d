//! Every experiment's rows: what one row runs and which columns it
//! yields, each beside the conclusions drawn from its table. A row is
//! plain data; [`Row::run`] is the only code that turns it into a
//! simulated run, and a row check that fails returns `Err` naming what
//! broke (the engine adds which row). A conclusion reads only the table.

use allscale_apps::{ipic3d, serve, stencil, tpc};
use allscale_core::{
    pfor, BatchParams, CheckpointConfig, CkptMode, FaultPlan, Grid, IntegrityConfig, PforSpec,
    Requirement, ResilienceConfig, RoundRobinPolicy, RtConfig, RtCtx, Runtime, SloConfig,
    StealConfig, TaskValue, VictimPolicy, WorkItem,
};
use allscale_des::{SimDuration, SimTime};
use allscale_net::ClusterSpec;
use allscale_region::BoxRegion;
use stencil::StencilConfig;
use tpc::TpcConfig;

use crate::Value::{Fixed, Int, Num, Text};
use crate::{get, num, rows_of, the, Columns, Conclusion, Experiment, Verdict};

/// Conclusions named after their check fns.
macro_rules! conclusions {
    ($($check:ident),* $(,)?) => {
        &[$(Conclusion { name: stringify!($check), check: $check }),*]
    };
}

/// Which application a row runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum App {
    Stencil,
    Ipic3d,
    Tpc,
}

/// Which system runs a Fig. 7 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum System {
    AllScale,
    Mpi,
    /// The central-directory index (ablation A1).
    CentralIndex,
    /// Round-robin placement (ablation A2).
    RoundRobin,
    /// TPC queries batched 32 to a task (ablation A3).
    Batched,
}

/// One row: the data that names a run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Row {
    /// E1: one application's entry of the paper's Table 1.
    Table1(App),
    /// E2–E4, A1–A3: (app, system, nodes) of Fig. 7 at paper-scaled size.
    Fig7(App, System, usize),
    /// B1: (app, batching, nodes), the message coalescer off or at its
    /// default knobs. Each run must match its oracle.
    Batching(App, bool, usize),
    /// S1: (app, victim policy; `None` is the direct data-aware scheduler)
    /// on 4 nodes with 2 slots each; the stencil with node 3 at quarter
    /// speed, TPC undegraded. Each run must match its oracle.
    Stealing(App, Option<VictimPolicy>),
    /// I1: (rot probability, scrub period in µs or off, fault-plan seed)
    /// on a 64-cell item broadcast to 4 nodes.
    Scrub(f64, Option<u64>, u64),
    /// SV1: (SLO-driven placement or static, offered requests/s).
    Serve(bool, f64),
    /// C1: (mode, incremental, cadence) of the checkpoint pipeline on the
    /// stencil, clean and with a fail-stop kill of node 2 at 55 % of the
    /// clean run. The recovered run must equal the clean one.
    Ckpt(CkptMode, bool, usize),
}

/// Every experiment, in the order EXPERIMENTS.md reports them.
pub(crate) fn experiments() -> Vec<Experiment> {
    use App::*;
    use System::*;
    let mut fig7 = Vec::new();
    for (app, systems) in [
        (
            Stencil,
            &[
                (AllScale, 64),
                (Mpi, 64),
                (CentralIndex, 32),
                (RoundRobin, 32),
            ][..],
        ),
        (Ipic3d, &[(AllScale, 64), (Mpi, 64)]),
        (
            Tpc,
            &[
                (AllScale, 64),
                (Mpi, 64),
                (CentralIndex, 64),
                (RoundRobin, 64),
                (Batched, 64),
            ],
        ),
    ] {
        for &(system, max) in systems {
            let nodes = [1, 2, 4, 8, 16, 32, 64].into_iter().filter(|&n| n <= max);
            fig7.extend(nodes.map(|n| Row::Fig7(app, system, n)));
        }
    }
    let victims = [
        None,
        Some(VictimPolicy::RoundRobin),
        Some(VictimPolicy::LeastLoaded),
        Some(VictimPolicy::Random),
    ];
    let cadences = [None, Some(30), Some(10), Some(3), Some(1)];
    let rates = [100_000.0, 200_000.0, 400_000.0, 800_000.0, 1_200_000.0];
    let modes = [CkptMode::Sync, CkptMode::Async];
    let pipelines = modes.into_iter().flat_map(|m| [(m, false), (m, true)]);
    let experiment = |name, rows, conclusions| Experiment {
        name,
        rows,
        conclusions,
    };
    vec![
        experiment(
            "table1",
            vec![Row::Table1(Stencil), Row::Table1(Ipic3d), Row::Table1(Tpc)],
            &[],
        ),
        experiment("fig7", fig7, FIG7),
        experiment(
            "b1",
            grid([Stencil, Tpc], [false, true], |a, on| {
                Row::Batching(a, on, 8)
            }),
            B1,
        ),
        experiment("s1", grid([Stencil, Tpc], victims, Row::Stealing), S1),
        experiment(
            "i1",
            grid([0.1, 0.5, 1.0], cadences, |r, p| Row::Scrub(r, p, 0x5c2b)),
            &[],
        ),
        experiment("serve", grid([false, true], rates, Row::Serve), SERVE),
        experiment(
            "ckpt",
            grid(pipelines, [1, 2, 4], |(m, i), e| Row::Ckpt(m, i, e)),
            &[],
        ),
    ]
}

/// Every `(a, b)`, `a` major.
fn grid<A: Copy, B: Copy>(
    a: impl IntoIterator<Item = A>,
    b: impl IntoIterator<Item = B> + Clone,
    row: impl Fn(A, B) -> Row,
) -> Vec<Row> {
    let pairs = a
        .into_iter()
        .flat_map(|a| b.clone().into_iter().map(move |b| (a, b)));
    pairs.map(|(a, b)| row(a, b)).collect()
}

fn text(s: impl Into<String>) -> crate::Value {
    Text(s.into())
}

fn check(ok: bool, what: &str) -> Verdict {
    ok.then_some(()).ok_or_else(|| what.to_string())
}

fn within(v: f64, range: std::ops::Range<f64>, what: &str) -> Verdict {
    let why = format!("{what}: {v:.3} outside {range:?}");
    check(range.contains(&v), &why)
}

fn ns_of(seconds: f64) -> crate::Value {
    Int((seconds * 1e9).round() as u64)
}

impl Row {
    /// The columns that name the row; they lead its JSON object.
    pub(crate) fn key(&self) -> Columns {
        let app = |a: App| ("app", text(format!("{a:?}").to_lowercase()));
        match *self {
            Row::Table1(a) => vec![app(a)],
            Row::Fig7(a, system, nodes) => {
                let system = match system {
                    System::AllScale => "AllScale",
                    System::Mpi => "MPI",
                    System::CentralIndex => "AllScale(central-idx)",
                    System::RoundRobin => "AllScale(round-robin)",
                    System::Batched => "AllScale(batched)",
                };
                vec![
                    app(a),
                    ("system", text(system)),
                    ("nodes", Int(nodes as u64)),
                ]
            }
            Row::Batching(a, on, nodes) => {
                let batching = text(if on { "on" } else { "off" });
                vec![app(a), ("batching", batching), ("nodes", Int(nodes as u64))]
            }
            Row::Stealing(a, victim) => {
                let scheduler = match victim {
                    None => "data-aware",
                    Some(VictimPolicy::RoundRobin) => "steal/round-robin",
                    Some(VictimPolicy::LeastLoaded) => "steal/least-loaded",
                    Some(VictimPolicy::Random) => "steal/random",
                };
                vec![app(a), ("scheduler", text(scheduler))]
            }
            Row::Scrub(rot, period_us, seed) => vec![
                ("rot", Num(rot)),
                ("scrub_period_us", period_us.map_or(text("off"), Int)),
                ("seed", Int(seed)),
            ],
            Row::Serve(slo, rate) => {
                let placement = text(if slo { "slo" } else { "static" });
                vec![("placement", placement), ("offered_rps", Num(rate))]
            }
            Row::Ckpt(mode, incremental, every) => {
                let mode = if mode == CkptMode::Sync {
                    "sync"
                } else {
                    "async"
                };
                let kind = if incremental { "inc" } else { "full" };
                let pipeline = text(format!("{mode}-{kind}"));
                vec![("pipeline", pipeline), ("cadence", Int(every as u64))]
            }
        }
    }

    /// Run the row: its measured columns, or the row check that failed.
    pub(crate) fn run(&self) -> Result<Columns, String> {
        match *self {
            Row::Table1(app) => Ok(table1(app)),
            Row::Fig7(app, system, nodes) => Ok(fig7(app, system, nodes)),
            Row::Batching(app, on, nodes) => b1(app, on, nodes),
            Row::Stealing(app, victim) => s1(app, victim),
            Row::Scrub(rot, period_us, seed) => Ok(i1(rot, period_us, seed)),
            Row::Serve(slo, rate) => Ok(sv1(slo, rate)),
            Row::Ckpt(mode, incremental, every) => c1(mode, incremental, every),
        }
    }
}

fn table1(app: App) -> Columns {
    let (name, description, structure, size, metric) = match app {
        App::Stencil => {
            let s = StencilConfig::paper_scaled(64);
            let size = format!(
                "20,000^2 elems/node -> {} x {} total at 64 nodes",
                s.total_rows(),
                s.cols
            );
            (
                "stencil",
                "2D stencil kernel (PRK)",
                "regular 2D grid",
                size,
                "FLOPS",
            )
        }
        App::Ipic3d => {
            let particles = ipic3d::PicConfig::paper_scaled(64).total_particles() / 64;
            let size = format!("48e6 particles/node -> {particles} particles/node");
            let structure = "multiple regular 3D grids";
            (
                "iPiC3D",
                "particle-in-cell simulator",
                structure,
                size,
                "particle updates per second",
            )
        }
        App::Tpc => {
            let t = TpcConfig::paper_scaled(64);
            let size = format!("2^29 points, r=20 -> 2^{} points, r={}", t.levels, t.radius);
            (
                "TPC",
                "two-point-correlation search",
                "kd-tree",
                size,
                "queries per second",
            )
        }
    };
    vec![
        ("name", text(name)),
        ("description", text(description)),
        ("data_structure", text(structure)),
        ("problem_size", text(size)),
        ("metric", text(metric)),
    ]
}

fn fig7(app: App, system: System, nodes: usize) -> Columns {
    let spec = ClusterSpec::meggie(nodes);
    let mut rt = (system != System::Mpi).then(|| RtConfig::meggie(nodes));
    match (&mut rt, system) {
        (Some(rt), System::CentralIndex) => rt.central_index = true,
        (Some(rt), System::RoundRobin) => rt.policy = Box::new(RoundRobinPolicy::default()),
        _ => {}
    }
    let (throughput, msgs, bytes) = match app {
        App::Stencil => {
            let cfg = StencilConfig::paper_scaled(nodes);
            let r = match rt {
                None => stencil::mpi_version::run_with(&cfg, &spec),
                Some(rt) => stencil::allscale_version::run_with(&cfg, rt),
            };
            (r.gflops * 1e9, r.remote_msgs, r.remote_bytes)
        }
        App::Ipic3d => {
            let cfg = ipic3d::PicConfig::paper_scaled(nodes);
            let r = match rt {
                None => ipic3d::mpi_version::run_with(&cfg, &spec),
                Some(rt) => ipic3d::allscale_version::run_with(&cfg, rt),
            };
            (r.updates_per_sec, r.remote_msgs, r.remote_bytes)
        }
        App::Tpc => {
            let batch = if system == System::Batched { 32 } else { 1 };
            let cfg = TpcConfig {
                batch,
                ..TpcConfig::paper_scaled(nodes)
            };
            let r = match rt {
                None => tpc::mpi_version::run_with(&cfg, &spec),
                Some(rt) => tpc::allscale_version::run_with(&cfg, rt),
            };
            (r.queries_per_sec, r.remote_msgs, r.remote_bytes)
        }
    };
    vec![
        ("throughput", Num(throughput)),
        ("remote_msgs", Int(msgs)),
        ("remote_bytes", Int(bytes)),
    ]
}

/// The claims of EXPERIMENTS.md E2–E4 and A1–A3, each over the whole
/// `fig7` table; B1, S1 and SV1 follow their rows below.
const FIG7: &[Conclusion] = conclusions![
    e2_e3_stencil_and_ipic3d_track_mpi_to_64_nodes,
    e4_tpc_allscale_creeps_from_4_to_64_under_a_scaling_mpi,
    e4_tpc_mpi_scales_while_allscale_saturates,
    a1_central_index_falls_behind_hierarchical_from_4_nodes,
    a2_round_robin_placement_costs_what_the_prose_says,
    a3_query_batching_nearly_doubles_tpc_from_8_nodes,
];

/// The throughput of the Fig. 7 row of `app system nodes`.
fn at(t: &[Columns], app: &str, system: &str, nodes: u64) -> Result<f64, String> {
    num(the(t, &format!("{app} {system} {nodes}"))?, "throughput")
}

/// The throughput at `nodes` per node over the one-node throughput.
fn efficiency(t: &[Columns], app: &str, system: &str, nodes: u64) -> Result<f64, String> {
    Ok(at(t, app, system, nodes)? / at(t, app, system, 1)? / nodes as f64)
}

/// `(nodes, throughput)` of the `app system` rows from `from` nodes on.
fn series(t: &[Columns], app: &str, system: &str, from: u64) -> Result<Vec<(u64, f64)>, String> {
    let mut series = Vec::new();
    for row in rows_of(t, &format!("{app} {system}")) {
        let n = num(row, "nodes")? as u64;
        if n >= from {
            series.push((n, num(row, "throughput")?));
        }
    }
    check(!series.is_empty(), &format!("no {app} {system} rows"))?;
    Ok(series)
}

/// `(nodes, a / b)` throughput at every node count of `a` from `n` on.
fn ratios(t: &[Columns], app: &str, a: &str, b: &str, n: u64) -> Result<Vec<(u64, f64)>, String> {
    let ratio = |(nodes, v)| Ok((nodes, v / at(t, app, b, nodes)?));
    series(t, app, a, n)?.into_iter().map(ratio).collect()
}

/// E2, E3: both ports weak-scale at > 99 % of their own one-node rate at
/// every node count to 64, and AllScale sits at a steady 0.80× of MPI;
/// E2's magnitude is 2.9 TFLOPS at 64 nodes against the paper's ≈ 3.0.
fn e2_e3_stencil_and_ipic3d_track_mpi_to_64_nodes(t: &[Columns]) -> Verdict {
    for app in ["stencil", "ipic3d"] {
        for system in ["AllScale", "MPI"] {
            for (n, _) in series(t, app, system, 2)? {
                let eff = efficiency(t, app, system, n)?;
                check(eff > 0.99, &format!("{app} {system}: {eff:.3} at {n}"))?;
            }
        }
        for (n, gap) in ratios(t, app, "AllScale", "MPI", 1)? {
            within(gap, 0.78..0.82, &format!("{app} AllScale/MPI at {n}"))?;
        }
    }
    let tflops = at(t, "stencil", "AllScale", 64)? / 1e12;
    within(tflops, 2.8..3.1, "stencil TFLOPS at 64")
}

/// E4: AllScale gains 2.9× to 4 nodes, then creeps — monotone, 1.4× for
/// 16× the machine, 6 % efficiency at 64 — under an MPI port that keeps
/// scaling and ends 14× ahead.
fn e4_tpc_allscale_creeps_from_4_to_64_under_a_scaling_mpi(t: &[Columns]) -> Verdict {
    let tpc = |system, nodes| at(t, "tpc", system, nodes);
    let gain = tpc("AllScale", 4)? / tpc("AllScale", 1)?;
    within(gain, 2.5..3.2, "AllScale 1 -> 4")?;
    for system in ["AllScale", "MPI"] {
        let column = series(t, "tpc", system, 1)?;
        let monotone = column.windows(2).all(|w| w[0].1 < w[1].1);
        check(monotone, &format!("{system} not monotone: {column:?}"))?;
    }
    let creep = tpc("AllScale", 64)? / tpc("AllScale", 4)?;
    within(creep, 1.2..1.6, "AllScale 4 -> 64")?;
    let eff = efficiency(t, "tpc", "AllScale", 64)?;
    check(eff < 0.1, &format!("AllScale efficiency {eff:.3} at 64"))?;
    for (n, gap) in ratios(t, "tpc", "MPI", "AllScale", 1)? {
        check(gap > 1.0, &format!("MPI at {gap:.2}x on {n}"))?;
    }
    let lead = tpc("MPI", 64)? / tpc("AllScale", 64)?;
    within(lead, 12.0..16.0, "MPI lead at 64")
}

/// E4, the paper's "AllScale can only gain performance improvements up to
/// 8 nodes": AllScale keeps less than half its one-node rate per node at
/// 8 nodes, where MPI is more than 2× ahead.
fn e4_tpc_mpi_scales_while_allscale_saturates(t: &[Columns]) -> Verdict {
    let eff = efficiency(t, "tpc", "AllScale", 8)?;
    check(eff < 0.5, &format!("AllScale efficiency {eff:.2} at 8"))?;
    let lead = at(t, "tpc", "MPI", 8)? / at(t, "tpc", "AllScale", 8)?;
    check(lead > 2.0, &format!("MPI {lead:.2}x ahead at 8"))
}

/// A1: the central directory is level with the hierarchical index at 1
/// and 2 nodes, behind it from 4 on, flat at ≈ 300 k to 64 where the
/// hierarchical index is 1.7× ahead; the stencil cannot tell them apart.
fn a1_central_index_falls_behind_hierarchical_from_4_nodes(t: &[Columns]) -> Verdict {
    const CENTRAL: &str = "AllScale(central-idx)";
    for (n, gap) in ratios(t, "tpc", CENTRAL, "AllScale", 1)? {
        let ok = (n <= 2 && (gap - 1.0).abs() < 0.01) || (n > 2 && gap < 0.9);
        check(ok, &format!("central index at {gap:.3}x on {n}"))?;
    }
    for (n, v) in series(t, "tpc", CENTRAL, 4)? {
        within(v, 2.9e5..3.1e5, &format!("central index at {n}"))?;
    }
    let lead = at(t, "tpc", "AllScale", 64)? / at(t, "tpc", CENTRAL, 64)?;
    within(lead, 1.5..1.9, "hierarchical lead at 64")?;
    for (n, gap) in ratios(t, "stencil", CENTRAL, "AllScale", 1)? {
        check((gap - 1.0).abs() < 1e-3, &format!("stencil {gap}x at {n}"))?;
    }
    Ok(())
}

/// A2: round-robin placement costs TPC 15–19 % from 8 to 32 nodes and
/// more than half at 64, and the stencil 20 % at 32.
fn a2_round_robin_placement_costs_what_the_prose_says(t: &[Columns]) -> Verdict {
    const RR: &str = "AllScale(round-robin)";
    for (n, kept) in ratios(t, "tpc", RR, "AllScale", 8)? {
        let bound = if n == 64 { 0.0..0.5 } else { 0.80..0.86 };
        within(kept, bound, &format!("TPC kept at {n}"))?;
    }
    let kept = at(t, "stencil", RR, 32)? / at(t, "stencil", "AllScale", 32)?;
    within(kept, 0.75..0.85, "stencil kept at 32")
}

/// A3: batching TPC queries raises throughput 1.7–2.0× from 8 nodes on,
/// where it ships fewer remote messages than the plain port.
fn a3_query_batching_nearly_doubles_tpc_from_8_nodes(t: &[Columns]) -> Verdict {
    for (n, gain) in ratios(t, "tpc", "AllScale(batched)", "AllScale", 8)? {
        within(gain, 1.65..2.05, &format!("gain at {n}"))?;
        let msgs = |system| num(the(t, &format!("tpc {system} {n}"))?, "remote_msgs");
        let (batched, plain) = (msgs("AllScale(batched)")?, msgs("AllScale")?);
        check(
            batched < plain,
            &format!("{batched} vs {plain} msgs at {n}"),
        )?;
    }
    Ok(())
}

/// The 64 × 64-per-node, 4-step stencil B1 and S1 run.
fn stencil_64(nodes: usize, work_scale: f64) -> StencilConfig {
    StencilConfig {
        rows_per_node: 64,
        cols: 64,
        steps: 4,
        work_scale,
        ..StencilConfig::small(nodes)
    }
}

fn b1(app: App, batching: bool, nodes: usize) -> Result<Columns, String> {
    let mut rt = RtConfig::meggie(nodes);
    if batching {
        rt = rt.with_batching(BatchParams::default());
    }
    if app == App::Tpc {
        let cfg = TpcConfig {
            levels: 11,
            split_depth: 4,
            queries_per_node: 8,
            radius: 40.0,
            ..TpcConfig::small(nodes)
        };
        let r = tpc::allscale_version::run_with(&cfg, rt);
        check(r.validated, "TPC does not match the brute force")?;
        let (msgs, count) = (Int(r.remote_msgs), Int(r.total_count));
        return Ok(vec![
            ("remote_msgs", msgs),
            ("compute_ns", ns_of(r.compute_seconds)),
            ("total_count", count),
        ]);
    }
    let (r, report) = stencil::allscale_version::run_with_report(&stencil_64(nodes, 1.0), rt);
    check(r.validated, "stencil does not match the oracle")?;
    let t = &report.traffic;
    Ok(vec![
        ("remote_msgs", Int(report.remote_msgs)),
        ("makespan_ns", Int(report.finish_time.as_nanos())),
        ("batches", Int(t.batches)),
        ("batched_msgs", Int(t.batched_msgs)),
        ("flushes_window", Int(t.flushes_by_cause[0])),
        ("flushes_bytes", Int(t.flushes_by_cause[1])),
        ("flushes_msgs", Int(t.flushes_by_cause[2])),
        ("checksum", text(format!("{:016x}", r.checksum))),
    ])
}

const B1: &[Conclusion] = conclusions![batching_changes_no_result_bits_and_does_not_slow_tpc];

/// B1: on the eight-node stencil and TPC runs, batching changes no result
/// bit, and it does not slow TPC's query phase down while shipping fewer
/// remote messages.
fn batching_changes_no_result_bits_and_does_not_slow_tpc(t: &[Columns]) -> Verdict {
    let cell = |app, batching, column| get(the(t, &format!("{app} {batching}"))?, column);
    for (app, column) in [("stencil", "checksum"), ("tpc", "total_count")] {
        let same = cell(app, "off", column)? == cell(app, "on", column)?;
        check(same, &format!("{app} {column} differs"))?;
    }
    let tpc = |batching, column| num(the(t, &format!("tpc {batching}"))?, column);
    let (off, on) = (tpc("off", "compute_ns")?, tpc("on", "compute_ns")?);
    check(on <= off, &format!("TPC {on} ns batched vs {off} ns"))?;
    let (off, on) = (tpc("off", "remote_msgs")?, tpc("on", "remote_msgs")?);
    check(on < off, &format!("TPC {on} remote msgs batched vs {off}"))
}

fn s1(app: App, victim: Option<VictimPolicy>) -> Result<Columns, String> {
    const NODES: usize = 4;
    let mut rt = RtConfig::meggie(NODES);
    // Two execution slots per node: queued backlog stays visible to
    // thieves instead of disappearing into a 20-deep core pool.
    rt.spec.cores_per_node = 2;
    if let Some(victim) = victim {
        rt = rt.with_work_stealing(StealConfig {
            victim,
            ..StealConfig::default()
        });
    }
    if app == App::Tpc {
        let r = tpc::allscale_version::run_with(&TpcConfig::small(NODES), rt);
        check(r.validated, "TPC diverged from the oracle")?;
        return Ok(vec![
            ("compute_ns", ns_of(r.compute_seconds)),
            ("queries_per_sec", Num(r.queries_per_sec)),
        ]);
    }
    rt.cost.speed_factors = vec![1.0, 1.0, 1.0, 0.25];
    // Compute-heavy tiles, so the comparison measures load balance, not
    // transfer overhead on trivially small tasks.
    let (r, report) = stencil::allscale_version::run_with_report(&stencil_64(NODES, 8.0), rt);
    check(r.validated, "stencil diverged from the oracle")?;
    let s = &report.monitor.scheduler;
    Ok(vec![
        ("compute_ns", ns_of(r.compute_seconds)),
        ("steal_requests", Int(s.steal_requests)),
        ("steal_grants", Int(s.steal_grants)),
    ])
}

const S1: &[Conclusion] = conclusions![work_stealing_beats_the_direct_scheduler_on_a_degraded_node];

/// S1: on the stencil with node 3 at quarter speed, the best of the three
/// stealing victim policies beats the direct scheduler's makespan.
fn work_stealing_beats_the_direct_scheduler_on_a_degraded_node(t: &[Columns]) -> Verdict {
    let direct = num(the(t, "stencil data-aware")?, "compute_ns")?;
    let stencil = rows_of(t, "stencil");
    check(stencil.len() == 4, "not three stealing rows")?;
    let faster = |row: &&Columns| num(row, "compute_ns").is_ok_and(|ns| ns < direct);
    check(stencil.iter().any(faster), &format!("{direct} ns is best"))
}

/// A 64-cell item is broadcast from its owner to the 3 other nodes, the
/// fault plan rots replica imports at `rot`, and 8 work phases keep
/// virtual time flowing while the scrubber audits every `period_us`.
fn i1(rot: f64, period_us: Option<u64>, seed: u64) -> Columns {
    /// A write-only `pfor` over all of `g`, setting point `i` to `value(i)`.
    fn fill(g: Grid<f64, 1>, spec: PforSpec<1>, value: fn(i64) -> f64) -> Box<dyn WorkItem> {
        pfor(
            spec,
            move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
            move |tctx, p| g.set(tctx, p.0, value(p[0])),
        )
    }
    let spec = |name, g: Grid<f64, 1>, grain, ns_per_point, axis0_pieces| PforSpec {
        name,
        range: g.full_box(),
        grain,
        ns_per_point,
        axis0_pieces,
    };
    let mut grids = None;
    let mut cfg = RtConfig::test(4, 2);
    cfg.faults = Some(FaultPlan::new(seed).with_rot(rot));
    let scrub_period = period_us.map(SimDuration::from_micros);
    cfg = cfg.with_integrity(IntegrityConfig { scrub_period });
    let r = Runtime::new(cfg).run(|phase: usize, ctx: &mut RtCtx<'_>, _: TaskValue| {
        if phase == 0 {
            let g = Grid::<f64, 1>::create(ctx, "shared", [64]);
            grids = Some([g, Grid::create(ctx, "work", [512])]);
            return Some(fill(g, spec("init", g, 64, 4.0, 0), |i| i as f64));
        }
        let [g, w] = grids.expect("phase 0 created both grids");
        if phase == 1 {
            let owned = |l| !ctx.owned_region_at(l, g.id).is_empty_dyn();
            let owner = (0..ctx.nodes())
                .find(|&l| owned(l))
                .expect("grid owned somewhere");
            ctx.broadcast_replicate(g.id, owner, &g.full_region());
        }
        (phase <= 8).then(|| fill(w, spec("work", w, 32, 60.0, 4), |_| 1.0))
    });
    let g = &r.monitor.integrity;
    vec![
        ("rot_injected", Int(g.rot_injected)),
        ("scrub_passes", Int(g.scrub_passes)),
        ("audits", Int(g.replicas_scrubbed)),
        ("divergent", Int(g.scrub_divergent)),
        ("repairs", Int(g.scrub_repairs)),
        ("quarantines", Int(g.quarantines)),
        ("makespan_ns", Int(r.finish_time.as_nanos())),
    ]
}

fn sv1(slo: bool, rate_rps: f64) -> Columns {
    let mut cfg = serve::ServeAppConfig {
        rate_rps,
        requests: 10_000,
        ..Default::default()
    };
    if !slo {
        cfg.slo = SloConfig::default().observe_only();
    }
    let out = serve::run_with(&cfg, RtConfig::test(4, 2));
    let v = &out.report.monitor.serve;
    vec![
        ("achieved_rps", Fixed(v.completed_rps(), 1)),
        ("p50_ns", Int(v.latency.p50())),
        ("p90_ns", Int(v.latency.p90())),
        ("p99_ns", Int(v.latency.p99())),
        ("completed", Int(v.completed)),
        ("shed", Int(v.shed)),
        ("replications", Int(v.replications)),
        ("virtual_ms", Fixed(v.serve_ns as f64 / 1e6, 3)),
    ]
}

const SERVE: &[Conclusion] = conclusions![slo_replication_beats_static_placement_past_the_knee];

/// SV1: below the knee the two placements serve alike; past it static
/// placement pins at one node's capacity, where replication carries the
/// cluster further at a lower p99.
fn slo_replication_beats_static_placement_past_the_knee(t: &[Columns]) -> Verdict {
    let at = |placement, rate, column| num(the(t, &format!("{placement} {rate}"))?, column);
    for rate in [100_000, 200_000] {
        for column in ["achieved_rps", "p50_ns", "p99_ns", "replications"] {
            let same = at("static", rate, column)? == at("slo", rate, column)?;
            check(same, &format!("{column} differs at {rate}"))?;
        }
    }
    for rate in [800_000, 1_200_000] {
        within(at("static", rate, "achieved_rps")?, 390e3..410e3, "static")?;
    }
    check(at("slo", 800_000, "replications")? > 0.0, "no replication")?;
    let gain = at("slo", 800_000, "achieved_rps")? / at("static", 800_000, "achieved_rps")?;
    check(gain > 1.5, &format!("slo serves {gain:.2}x static"))?;
    let p99 = |placement| at(placement, 800_000, "p99_ns");
    let (fixed, slo) = (p99("static")?, p99("slo")?);
    check(1.3 * slo <= fixed, &format!("p99 {slo} ns vs {fixed} ns"))
}

fn c1(mode: CkptMode, incremental: bool, every: usize) -> Result<Columns, String> {
    let cfg = StencilConfig {
        steps: 6,
        work_scale: 150.0,
        ..StencilConfig::small(4)
    };
    let run = |rt| stencil::allscale_version::run_with_report(&cfg, rt);
    let checkpointed = |heartbeat_period| {
        let ckpt = CheckpointConfig {
            mode,
            incremental,
            ..CheckpointConfig::default()
        };
        let res = ResilienceConfig {
            checkpoint_every: every,
            ckpt,
            heartbeat_period,
        };
        RtConfig {
            resilience: Some(res),
            ..RtConfig::test(4, 2)
        }
    };
    let (base_res, base) = run(RtConfig::test(4, 2));
    check(
        base_res.validated,
        "the uncheckpointed baseline does not match the oracle",
    )?;
    let base_ns = base.finish_time.as_nanos();
    let (res, report) = run(checkpointed(ResilienceConfig::default().heartbeat_period));
    check(res.validated, "checkpointing perturbed the result")?;
    let total = report.finish_time.as_nanos();

    // Recovery axis: kill a locality at 55% of this arm's clean run and
    // measure what the recovery costs.
    let mut plan = FaultPlan::new(0xc1);
    plan.kill_at(2, SimTime::from_nanos(total * 55 / 100));
    let heartbeat = SimDuration::from_nanos((total / 100).max(1_000));
    let (rres, rreport) = run(RtConfig {
        faults: Some(plan),
        ..checkpointed(heartbeat)
    });
    check(rres.checksum == res.checksum, "the recovered run diverged")?;
    let (r, rr) = (&report.monitor.resilience, &rreport.monitor.resilience);
    check(rr.recoveries >= 1, "the kill triggered no recovery")?;
    Ok(vec![
        ("baseline_ns", Int(base_ns)),
        ("makespan_ns", Int(total)),
        ("overhead_ns", Int(total.saturating_sub(base_ns))),
        ("stored_bytes", Int(r.checkpoint_bytes)),
        ("logical_bytes", Int(r.ckpt_logical_bytes)),
        ("anchors", Int(r.ckpt_anchors)),
        ("deltas", Int(r.ckpt_deltas)),
        ("stall_ns", Int(r.ckpt_stall_ns)),
        ("fence_ns", Int(r.ckpt_fence_ns)),
        ("scan_ns", Int(r.ckpt_fp_ns)),
        ("recovery_makespan_ns", Int(rreport.finish_time.as_nanos())),
        ("recovery_read_ns", Int(rr.recovery_read_ns)),
        ("restored_bytes", Int(rr.restored_bytes)),
        ("tasks_reexecuted", Int(rr.tasks_reexecuted)),
        ("torn", Int(rr.ckpt_torn)),
    ])
}
