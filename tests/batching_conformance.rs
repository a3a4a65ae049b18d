//! Conformance of the transfer-batching layer (message coalescing in
//! `crates/net` plus region coalescing in the staging planner): batching
//! is a *pricing* optimization and must be invisible to the application.
//! Batched and unbatched runs of the same program produce bit-identical
//! results and identical task monitors; the randomized program family
//! exercised here satisfies the five model properties of Section 2.5; and
//! on the TPC-shaped workload — the one the paper blames on per-message
//! overhead (Section 4.2) — batching must never make the simulated
//! makespan worse.

use std::cell::RefCell;
use std::rc::Rc;

use allscale_apps::{stencil, tpc};
use allscale_core::{
    pfor, BatchParams, FaultPlan, Grid, IntegrityConfig, PforSpec, Requirement, ResilienceConfig,
    RoundRobinPolicy, RtConfig, RtCtx, RunReport, Runtime, TaskValue, TraceConfig, WorkItem,
};
use allscale_des::{SimDuration, SimTime};
use allscale_net::{FatTree, FlushCause, NetParams, Network, RetryPolicy, Verdict};
use allscale_model as model;
use allscale_region::{BoxRegion, Region};
use allscale_trace::{EventKind, TransferPurpose};

/// Deterministic xorshift64 PRNG — the shared kernel, stream-compatible
/// with the copy this harness historically inlined.
use allscale_des::rng::XorShift64 as XorShift;

/// The invisible part of the contract: batching may change *when* bytes
/// move, never *what* the tasks did. Timing-derived fields (busy times,
/// latency histograms, message counts) legitimately differ; everything
/// task- and data-placement-shaped must match exactly.
fn assert_task_monitors_identical(un: &RunReport, ba: &RunReport, what: &str) {
    assert_eq!(un.phases, ba.phases, "{what}: phase count");
    assert_eq!(
        un.monitor.per_locality.len(),
        ba.monitor.per_locality.len(),
        "{what}: locality count"
    );
    for (i, (u, b)) in un
        .monitor
        .per_locality
        .iter()
        .zip(&ba.monitor.per_locality)
        .enumerate()
    {
        assert_eq!(
            u.tasks_executed, b.tasks_executed,
            "{what}: locality {i} process-variant executions"
        );
        assert_eq!(
            u.tasks_split, b.tasks_split,
            "{what}: locality {i} split-variant executions"
        );
        assert_eq!(
            u.first_touch, b.first_touch,
            "{what}: locality {i} first-touch allocations"
        );
    }
    assert_eq!(
        un.monitor.total_tasks(),
        ba.monitor.total_tasks(),
        "{what}: total tasks"
    );
}

fn batched(cfg: RtConfig) -> RtConfig {
    cfg.with_batching(BatchParams::default())
}

// ----------------------------------------------------- application results

/// The stencil produces bit-identical checksums and identical task
/// monitors with batching on and off, across node counts; batched runs
/// actually batch (non-trivial flush counters) and never send more
/// messages than the baseline.
#[test]
fn stencil_agrees_bit_for_bit_across_batching() {
    for nodes in [1, 2, 4, 8] {
        let cfg = stencil::StencilConfig::small(nodes);
        let (u, ur) = stencil::allscale_version::run_with_report(&cfg, RtConfig::test(nodes, 2));
        let (b, br) =
            stencil::allscale_version::run_with_report(&cfg, batched(RtConfig::test(nodes, 2)));
        assert!(u.validated && b.validated, "{nodes} nodes: oracle match");
        assert_eq!(u.checksum, b.checksum, "{nodes} nodes: checksum");
        assert_task_monitors_identical(&ur, &br, &format!("stencil/{nodes}"));
        assert_eq!(ur.traffic.batches, 0, "baseline must not batch");
        if nodes > 1 {
            assert!(br.traffic.batches > 0, "{nodes} nodes: nothing batched");
            assert!(
                br.remote_msgs <= ur.remote_msgs,
                "{nodes} nodes: batching increased message count \
                 ({} vs {})",
                br.remote_msgs,
                ur.remote_msgs
            );
        }
    }
}

/// Randomized stencil-shaped programs under chaotic placement: random
/// shapes, step counts and work scales, half of them scheduled by the
/// data-oblivious round-robin policy — batched and unbatched runs still
/// agree bit-for-bit with identical task monitors.
#[test]
fn randomized_programs_agree_under_chaotic_placement() {
    for seed in 0..8u64 {
        let mut rng = XorShift::new(seed);
        let cfg = stencil::StencilConfig {
            nodes: 2 + rng.below(3) as usize,
            rows_per_node: 8 + 8 * rng.below(2) as i64,
            cols: 8 + 4 * rng.below(4) as i64,
            steps: 1 + rng.below(3) as usize,
            validate: true,
            work_scale: 1.0 + rng.below(4) as f64,
        };
        let cores = 1 + rng.below(2) as usize;
        let chaotic = rng.below(2) == 0;
        let mk = |batch: bool| {
            let mut rt = RtConfig::test(cfg.nodes, cores);
            if chaotic {
                rt.policy = Box::new(RoundRobinPolicy::default());
            }
            if batch {
                rt = batched(rt);
            }
            rt
        };
        let (u, ur) = stencil::allscale_version::run_with_report(&cfg, mk(false));
        let (b, br) = stencil::allscale_version::run_with_report(&cfg, mk(true));
        assert!(u.validated && b.validated, "seed {seed}: oracle match");
        assert_eq!(u.checksum, b.checksum, "seed {seed}: checksum");
        assert_task_monitors_identical(&ur, &br, &format!("seed {seed}"));
    }
}

// ------------------------------------------------ chaos program (migrations)

const CHAOS_N: i64 = 96;
const CHAOS_STEPS: usize = 4;

/// A randomized program with spontaneous migrations at every phase
/// boundary (the runtime analogue of the model driver's chaos schedules):
/// fill, bump every cell once per step with a random region migration
/// before each step, then read back exact values. The readback fails loud
/// if batching ever lost, duplicated, or stale-served a byte.
fn run_chaos(
    seed: u64,
    batching: Option<BatchParams>,
    faults: Option<FaultPlan>,
    resilience: Option<ResilienceConfig>,
    integrity: Option<IntegrityConfig>,
) -> RunReport {
    let nodes = 4usize;
    let grid: Rc<RefCell<Option<Grid<f64, 1>>>> = Rc::new(RefCell::new(None));
    let gc = grid.clone();
    let mut cfg = RtConfig::test(nodes, 2);
    cfg.faults = faults;
    cfg.resilience = resilience;
    cfg.integrity = integrity;
    if let Some(bp) = batching {
        cfg = cfg.with_batching(bp);
    }
    let runtime = Runtime::new(cfg);
    runtime.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            let violations = ctx.verify_consistency();
            assert!(
                violations.is_empty(),
                "seed {seed}, phase {phase}: {violations:?}"
            );
            if phase == 0 {
                let g = Grid::<f64, 1>::create(ctx, "chaos", [CHAOS_N]);
                *gc.borrow_mut() = Some(g);
                return Some(pfor(
                    PforSpec {
                        name: "fill",
                        range: g.full_box(),
                        grain: 12,
                        ns_per_point: 3.0,
                        axis0_pieces: 8,
                    },
                    move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                    move |tctx, p| g.set(tctx, p.0, p[0] as f64),
                ));
            }
            let g = gc.borrow().unwrap();
            if phase <= CHAOS_STEPS {
                let mut rng = XorShift::new(seed.wrapping_mul(0x9e3779b9) ^ phase as u64);
                let src = rng.below(nodes as u64) as usize;
                let dst = rng.below(nodes as u64) as usize;
                if src != dst {
                    let lo = rng.below(CHAOS_N as u64) as i64;
                    let len = 1 + rng.below(48) as i64;
                    let slice = BoxRegion::<1>::cuboid([lo], [(lo + len).min(CHAOS_N)]);
                    let owned = ctx.owned_region_at(src, g.id);
                    let owned = owned
                        .as_any()
                        .downcast_ref::<BoxRegion<1>>()
                        .expect("1-D grid region")
                        .clone();
                    let moved = owned.intersect(&slice);
                    if !moved.is_empty() {
                        ctx.migrate_region(g.id, &moved, src, dst);
                    }
                }
                return Some(pfor(
                    PforSpec {
                        name: "bump",
                        range: g.full_box(),
                        grain: 12,
                        ns_per_point: 3.0,
                        axis0_pieces: 8,
                    },
                    move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                    move |tctx, p| {
                        let v = g.get(tctx, p.0);
                        g.set(tctx, p.0, v + 1.0);
                    },
                ));
            }
            if phase == CHAOS_STEPS + 1 {
                return Some(pfor(
                    PforSpec {
                        name: "readback",
                        range: g.full_box(),
                        grain: 12,
                        ns_per_point: 1.0,
                        axis0_pieces: 8,
                    },
                    move |tile| vec![Requirement::read(g.id, BoxRegion::from_box(*tile))],
                    move |tctx, p| {
                        assert_eq!(
                            g.get(tctx, p.0),
                            p[0] as f64 + CHAOS_STEPS as f64,
                            "seed {seed}: wrong value at {p:?}"
                        );
                    },
                ));
            }
            None
        },
    )
}

/// Spontaneous random migrations every phase, batched vs unbatched: exact
/// readback in both, identical task monitors, and the model invariants
/// hold at every phase boundary (checked inside `run_chaos`).
#[test]
fn chaotic_migrations_agree_across_batching() {
    for seed in 0..6u64 {
        let un = run_chaos(seed, None, None, None, None);
        let ba = run_chaos(seed, Some(BatchParams::default()), None, None, None);
        assert_task_monitors_identical(&un, &ba, &format!("chaos seed {seed}"));
        assert_eq!(un.traffic.batches, 0);
        assert!(ba.traffic.batches > 0, "seed {seed}: nothing batched");
    }
}

/// Verified transfers under a corrupting wire, batching on: the chaos
/// program still reads back exact values (asserted in-program), the task
/// monitors match the fault-free batched run, every injected corruption
/// is detected, and detections surface as re-requests — a corrupt flush
/// is retried, never consumed.
#[test]
fn corrupted_batch_flushes_rerequest_and_agree() {
    let mut corruptions = 0u64;
    for seed in 0..4u64 {
        let clean = run_chaos(seed, Some(BatchParams::default()), None, None, None);
        let plan = FaultPlan::new(seed ^ 0xbad_c0de).with_corruption(0.08);
        let dirty = run_chaos(
            seed,
            Some(BatchParams::default()),
            Some(plan),
            None,
            Some(IntegrityConfig {
                scrub_period: None,
                ..IntegrityConfig::default()
            }),
        );
        assert_task_monitors_identical(&clean, &dirty, &format!("corrupt seed {seed}"));
        assert!(dirty.traffic.batches > 0, "seed {seed}: nothing batched");
        let g = &dirty.monitor.integrity;
        assert_eq!(
            g.wire_undetected, 0,
            "seed {seed}: verified run consumed poison ({g:?})"
        );
        assert_eq!(
            g.wire_detected, g.wire_corruptions,
            "seed {seed}: detection must account every corruption"
        );
        assert!(
            g.re_requests >= g.wire_detected,
            "seed {seed}: detected corruptions must be re-requested ({g:?})"
        );
        corruptions += g.wire_corruptions;
    }
    assert!(corruptions > 0, "no corruption ever struck; rate too low to test anything");
}

/// The net-layer contract of a corrupted flush, stated exactly: the
/// whole batch is re-requested as one unit (batch counters bill the
/// flush once, one re-request), and checksum framing changes no pricing
/// — a fault-free flush arrives at the same instant with verification
/// on or off, and a verified batch of one still prices like a plain
/// transfer.
#[test]
fn corrupted_batch_flush_rerequests_as_a_unit() {
    let t0 = SimTime::from_nanos(0);
    let policy = RetryPolicy::default();
    let mk = |plan: Option<FaultPlan>, verify: bool| {
        let mut n = Network::new(FatTree::new(8, 16), NetParams::default());
        n.set_integrity(verify);
        if let Some(p) = plan {
            n.install_faults(p);
        }
        n
    };
    let flush = |n: &mut Network<FatTree>| {
        n.transfer_batch(t0, 0, 1, 48_000, 6, FlushCause::Window, &policy)
    };

    // Fault-free reference, and the pricing identity: verification is
    // free on clean traffic.
    let mut clean = mk(None, true);
    let clean_arrival = flush(&mut clean).expect("no faults installed");
    let mut unverified = mk(None, false);
    assert_eq!(
        flush(&mut unverified).expect("no faults installed"),
        clean_arrival,
        "checksum verification changed the price of a clean flush"
    );

    // A seed whose corruption stream strikes the first judgement and
    // spares the second: first flush attempt corrupt, retry delivers.
    let seed = (0u64..)
        .find(|&s| {
            let mut p = FaultPlan::new(s).with_corruption(0.5);
            p.judge(t0, 0, 1) == Verdict::Corrupt && p.judge(t0, 0, 1) == Verdict::Deliver
        })
        .expect("some seed corrupts first and delivers second");
    let mut dirty = mk(Some(FaultPlan::new(seed).with_corruption(0.5)), true);
    let arrival = flush(&mut dirty).expect("one retry suffices");
    assert!(
        arrival > clean_arrival,
        "the re-request must bill detection timeout and backoff"
    );
    let s = dirty.stats();
    assert_eq!(s.corrupted, 1, "exactly one corruption injected");
    assert_eq!(s.corrupt_detected, 1, "and the checksum caught it");
    assert_eq!(s.corrupt_undetected, 0);
    assert_eq!(s.re_requests, 1, "the flush is re-requested once, as a unit");
    assert_eq!(s.batches, 1, "batch counters bill the flush once, not per attempt");
    assert_eq!(s.batched_msgs, 6);
    assert_eq!(s.batched_bytes, 48_000);

    // Batch-of-one identity survives verification: same arrival as the
    // plain infallible transfer.
    let mut one = mk(None, true);
    let batched_one = one
        .transfer_batch(t0, 0, 1, 9_000, 1, FlushCause::Msgs, &policy)
        .expect("no faults installed");
    let mut plain = mk(None, false);
    assert_eq!(batched_one, plain.transfer(t0, 0, 1, 9_000));
}

// ----------------------------------------------------- model properties

/// Random fork-join program over partitioned items, same family as the
/// runtime programs above: per phase, writers over a random disjoint
/// partition, then readers over random overlapping subsets.
fn random_phased_program(rng: &mut XorShift) -> model::Program {
    use model::{Action, ItemId, ProgramBuilder, TaskId, VariantSpec};
    let mut b = ProgramBuilder::new();
    let elems = 8 + 4 * rng.below(3) as u32;
    b.item(ItemId(0), elems);
    let mut next_task = 1u32;
    let mut actions = vec![Action::Create(ItemId(0))];
    for _phase in 0..1 + rng.below(3) {
        let k = 2 + rng.below(4);
        let mut parts: Vec<Vec<u32>> = vec![Vec::new(); k as usize];
        for e in 0..elems {
            parts[rng.below(k) as usize].push(e);
        }
        let mut wave = Vec::new();
        for part in parts.into_iter().filter(|p| !p.is_empty()) {
            let t = TaskId(next_task);
            next_task += 1;
            b.variant(
                t,
                VariantSpec {
                    writes: model::program::req(&[(ItemId(0), &part)]),
                    ..Default::default()
                },
            );
            wave.push(t);
        }
        actions.extend(wave.iter().map(|&t| Action::Spawn(t)));
        actions.extend(wave.iter().map(|&t| Action::Sync(t)));
        let mut subset: Vec<u32> = (0..elems).filter(|_| rng.below(2) == 0).collect();
        if subset.is_empty() {
            subset.push(0);
        }
        let t = TaskId(next_task);
        next_task += 1;
        b.variant(
            t,
            VariantSpec {
                reads: model::program::req(&[(ItemId(0), &subset)]),
                ..Default::default()
            },
        );
        actions.push(Action::Spawn(t));
        actions.push(Action::Sync(t));
    }
    b.variant(
        TaskId(0),
        VariantSpec {
            actions,
            ..Default::default()
        },
    );
    b.build(TaskId(0))
}

/// The randomized program family exercised by this suite satisfies all
/// five Section 2.5 properties under chaos schedules — batching lives
/// strictly below the model's observation level, so conformance of the
/// family plus bit-identical runtime results pins the layer as sound.
#[test]
fn randomized_program_family_satisfies_model_properties() {
    for seed in 0..8u64 {
        let mut rng = XorShift::new(seed ^ 0xba7c);
        let program = random_phased_program(&mut rng);
        let mut driver = model::Driver::new(seed ^ 0xdead_beef);
        driver.chaos_percent = 60;
        let (trace, outcome) =
            driver.run(&program, model::Architecture::cluster(2 + (seed % 3) as u32, 2));
        assert_eq!(outcome, model::Outcome::Terminated, "seed {seed}");
        model::properties::check_all(&program, &trace)
            .unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
    }
}

// ------------------------------------------------------------- makespan

/// On the TPC-shaped workload — fine-grained per-query messages, the
/// paper's Section 4.2 scaling killer — batching must never make the
/// simulated makespan worse, and the counts still match the oracle. Uses
/// the example's shape (2047 points, 32 queries, 4 Meggie nodes), the
/// configuration the paper's scaling complaint is about.
#[test]
fn tpc_batched_makespan_not_worse() {
    let cfg = tpc::TpcConfig {
        nodes: 4,
        levels: 11,
        split_depth: 4,
        queries_per_node: 8,
        radius: 40.0,
        batch: 1,
        validate: true,
        work_scale: 1.0,
    };
    let u = tpc::allscale_version::run_with(&cfg, RtConfig::meggie(4));
    let b = tpc::allscale_version::run_with(&cfg, batched(RtConfig::meggie(4)));
    assert!(u.validated && b.validated, "oracle match");
    assert_eq!(u.total_count, b.total_count, "counts");
    assert!(
        b.compute_seconds <= u.compute_seconds,
        "batching slowed TPC down \
         ({:.6}s batched vs {:.6}s unbatched)",
        b.compute_seconds,
        u.compute_seconds
    );
    assert!(
        b.remote_msgs < u.remote_msgs,
        "batching must reduce TPC message count \
         ({} batched vs {} unbatched)",
        b.remote_msgs,
        u.remote_msgs
    );
}

/// Wire messages that carried at least one replicate: unbatched
/// transfers count individually, batched ones count once per batch.
fn replicate_wire_msgs(r: &RunReport) -> u64 {
    let mut batches = std::collections::BTreeSet::new();
    let mut solo = 0u64;
    for e in &r.trace.as_ref().expect("traced run").events {
        if let EventKind::Transfer { purpose, batch, .. } = &e.kind {
            if *purpose == TransferPurpose::Replicate {
                match batch {
                    Some(id) => {
                        batches.insert(*id);
                    }
                    None => solo += 1,
                }
            }
        }
    }
    solo + batches.len() as u64
}

/// The headline acceptance number: on the stencil example's shape, the
/// default knobs cut the replicate message count at least 4× (each
/// boundary's per-tile halo fetches coalesce into one message per
/// neighbor), and the simulated makespan does not regress.
#[test]
fn stencil_default_knobs_cut_replicate_messages_4x() {
    let cfg = stencil::StencilConfig {
        nodes: 8,
        rows_per_node: 64,
        cols: 64,
        steps: 4,
        validate: true,
        work_scale: 1.0,
    };
    let traced = |batch: bool| {
        let mut rt = RtConfig::meggie(8);
        rt.trace = Some(TraceConfig::default());
        if batch {
            rt = batched(rt);
        }
        rt
    };
    let (u, ur) = stencil::allscale_version::run_with_report(&cfg, traced(false));
    let (b, br) = stencil::allscale_version::run_with_report(&cfg, traced(true));
    assert!(u.validated && b.validated);
    assert_eq!(u.checksum, b.checksum);
    let (uw, bw) = (replicate_wire_msgs(&ur), replicate_wire_msgs(&br));
    assert!(
        uw >= 4 * bw,
        "replicate reduction below 4x: {uw} unbatched vs {bw} batched wire messages"
    );
    assert!(
        br.finish_time <= ur.finish_time,
        "batching regressed the stencil makespan \
         ({:?} batched vs {:?} unbatched)",
        br.finish_time,
        ur.finish_time
    );
}

/// The batch counters are internally consistent: every flush has a cause,
/// flushes carry at least one message each, and batched bytes never
/// exceed what the localities sent in total.
#[test]
fn batch_counters_are_consistent() {
    let cfg = stencil::StencilConfig::small(4);
    let (_, r) = stencil::allscale_version::run_with_report(&cfg, batched(RtConfig::test(4, 2)));
    let t = &r.traffic;
    assert!(t.batches > 0);
    assert_eq!(
        t.flushes_by_cause.iter().sum::<u64>(),
        t.batches,
        "every flush must be attributed to exactly one cause"
    );
    assert!(t.batched_msgs >= t.batches, "a flush holds >= 1 message");
    let sent: u64 = r.monitor.per_locality.iter().map(|l| l.bytes_sent).sum();
    assert!(
        t.batched_bytes <= sent,
        "batched bytes {} exceed total sent bytes {sent}",
        t.batched_bytes
    );
}

// ------------------------------------------------------------------ soak

/// Seeded corruption+death+batching soak: random migrations, a
/// fail-stop kill, message drops AND wire corruption, with batching and
/// verified transfers on — recovery must still produce exact readback
/// (asserted inside the program) and no poison may ever be consumed.
/// Finishes in well under a second, so it runs with the suite.
#[test]
fn batching_fault_soak() {
    let mut corruptions = 0u64;
    for seed in 0..12u64 {
        let clean = run_chaos(seed, Some(BatchParams::default()), None, None, None);
        let total_ns = clean.finish_time.as_nanos();
        let victim = 1 + (seed % 3) as usize;
        let frac = 25 + (seed % 6) * 11;
        let mut plan = FaultPlan::new(seed ^ 0x5eed_fa57)
            .with_drop_rate(0.005)
            .with_corruption(0.01);
        plan.kill_at(victim, SimTime::from_nanos(total_ns * frac / 100));
        let resil = ResilienceConfig {
            checkpoint_every: 1,
            heartbeat_period: SimDuration::from_nanos((total_ns / 100).max(500)),
            ..ResilienceConfig::default()
        };
        let report = run_chaos(
            seed,
            Some(BatchParams::default()),
            Some(plan),
            Some(resil),
            Some(IntegrityConfig {
                scrub_period: None,
                ..IntegrityConfig::default()
            }),
        );
        let r = &report.monitor.resilience;
        assert!(r.detections >= 1, "seed {seed}: death undetected ({r:?})");
        assert!(r.recoveries >= 1, "seed {seed}: no recovery ran ({r:?})");
        let g = &report.monitor.integrity;
        assert_eq!(
            g.wire_undetected, 0,
            "seed {seed}: verified soak consumed poison ({g:?})"
        );
        corruptions += g.wire_corruptions;
    }
    assert!(corruptions > 0, "soak never saw a corruption; rates too low");
}
