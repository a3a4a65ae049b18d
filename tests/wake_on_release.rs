//! Wake-on-release wait lists, end to end.
//!
//! A task the (start) rule refuses waits on the data item manager that
//! holds what blocks it and is retried only when a release there
//! overlaps what it waits for (DESIGN.md, "Parking and wake-up"). This
//! suite pins the three things that design has to deliver:
//!
//! - **contention is counted, not polling** — above the serving knee
//!   `lock_conflicts` stays below the task count;
//! - **the virtual clock did not move** — every `RunReport` field other
//!   than `lock_conflicts` equals what the poll-everything runtime
//!   produced (values pinned from the commit before wait lists);
//! - **no wake-up is lost** — contended randomized programs terminate
//!   with exact results under batching, work stealing, lossy links and
//!   fail-stop kills, where a missed wake source would deadlock.

mod common;

use std::cell::RefCell;
use std::rc::Rc;

use allscale_apps::serve::{run_with, ServeAppConfig};
use allscale_apps::stencil::{self, StencilConfig};
use allscale_core::{
    pfor, FaultPlan, Grid, PforSpec, Requirement, ResilienceConfig, RtConfig, RtCtx, RunReport,
    Runtime, SloConfig, TaskValue, WorkItem,
};
use allscale_des::SimDuration;
use allscale_region::{fnv1a_64, BoxRegion};
use common::report_json::pre_walk_json;
use common::{family, Scenario, STEALING};

fn total_conflicts(r: &RunReport) -> u64 {
    r.monitor
        .per_locality
        .iter()
        .map(|l| l.lock_conflicts)
        .sum()
}

/// The overload shape of hostbench's `serve_overload`, default seed.
fn overload_cfg() -> ServeAppConfig {
    ServeAppConfig {
        rate_rps: 800_000.0,
        requests: 3_000,
        ..Default::default()
    }
}

// ------------------------------------------------- (a) contention, counted

#[test]
fn overload_counts_contention_not_poll_rounds() {
    let cfg = overload_cfg();
    // `run_with` checks the write oracle over the full key space.
    let a = run_with(&cfg, RtConfig::test(4, 2));
    let b = run_with(&cfg, RtConfig::test(4, 2));
    assert_eq!(a.keys_checked, cfg.keys);
    assert_eq!(a.report.monitor.serve.completed, cfg.requests);
    let (conflicts, tasks) = (total_conflicts(&a.report), a.report.monitor.total_tasks());
    assert!(conflicts > 0, "above the knee something must park");
    assert!(
        conflicts <= tasks,
        "{conflicts} refused prepares for {tasks} tasks: tasks are being polled, not woken"
    );
    assert_eq!(
        a.report.to_json(),
        b.report.to_json(),
        "same seed, same report — wake order is deterministic"
    );
}

// ------------------------------------------- (b) the virtual clock stood still

/// A report's JSON with every `lock_conflicts` value blanked.
fn sans_conflicts(json: &str) -> String {
    const KEY: &str = "\"lock_conflicts\":";
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(i) = rest.find(KEY) {
        out.push_str(&rest[..i + KEY.len()]);
        rest = rest[i + KEY.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// What the parent commit (cluster-wide parked list, every parked task
/// re-prepared after every completion) reported for one configuration.
struct Pinned {
    finish_ns: u64,
    events: u64,
    remote_msgs: u64,
    latency_count: u64,
    latency_mean_ns: f64,
    latency_p99_ns: u64,
    /// FNV-1a of [`sans_conflicts`] of the report's JSON: every other
    /// field at once.
    digest: u64,
    /// The same digest as pinned under the report layout of the
    /// hand-written renderer before the statistics walk; checked against
    /// the JSON renamed back to that layout (`report_json::pre_walk_json`).
    pre_walk_digest: u64,
    /// The parent's `lock_conflicts` total, for the record.
    parent_conflicts: u64,
}

fn assert_pinned(name: &str, r: &RunReport, want: &Pinned) {
    let lat = &r.monitor.serve.latency;
    assert_eq!(r.finish_time.as_nanos(), want.finish_ns, "{name}: makespan");
    assert_eq!(r.events, want.events, "{name}: DES events");
    assert_eq!(r.remote_msgs, want.remote_msgs, "{name}: remote messages");
    assert_eq!(
        lat.tally().count(),
        want.latency_count,
        "{name}: latency count"
    );
    assert_eq!(
        lat.tally().mean(),
        want.latency_mean_ns,
        "{name}: latency mean"
    );
    assert_eq!(lat.p99(), want.latency_p99_ns, "{name}: latency p99 bucket");
    let json = r.to_json();
    assert_eq!(
        fnv1a_64(sans_conflicts(&pre_walk_json(&json)).as_bytes()),
        want.pre_walk_digest,
        "{name}: renamed back, the report is not the pre-walk one"
    );
    assert_eq!(
        fnv1a_64(sans_conflicts(&json).as_bytes()),
        want.digest,
        "{name}: some RunReport field other than lock_conflicts moved"
    );
    assert!(
        total_conflicts(r) <= want.parent_conflicts,
        "{name}: more refusals than when everything was polled"
    );
}

#[test]
fn reports_equal_the_polling_runtime_except_for_lock_conflicts() {
    let overload = run_with(&overload_cfg(), RtConfig::test(4, 2)).report;
    let small = run_with(&ServeAppConfig::small(), RtConfig::test(4, 2)).report;
    assert_pinned("overload", &overload, &PINNED_OVERLOAD);
    assert_pinned("small", &small, &PINNED_SMALL);
}

const PINNED_OVERLOAD: Pinned = Pinned {
    finish_ns: 5_350_574,
    events: 18_118,
    remote_msgs: 6_271,
    latency_count: 3_000,
    latency_mean_ns: 571_352.364_666_666_7,
    latency_p99_ns: 4_194_303,
    digest: 0x0957_d191_3959_3cd0,
    pre_walk_digest: 0x85a8_17d7_50e2_572e,
    parent_conflicts: 84_289,
};

const PINNED_SMALL: Pinned = Pinned {
    finish_ns: 20_113_439,
    events: 14_198,
    remote_msgs: 6_463,
    latency_count: 3_000,
    latency_mean_ns: 9_539.789,
    latency_p99_ns: 32_767,
    digest: 0xeb57_6214_312a_416c,
    pre_walk_digest: 0xea23_c00a_7b85_cb2c,
    parent_conflicts: 8,
};

// ------------------------------------------------------ (c) no lost wake-ups

/// The contended member of `seed` (`family::contended`: halo reads
/// behind export fences, shared elements whose ownership hops from
/// writer to writer). `Scenario::run` checks it against the sequential
/// oracle, and returning at all is the no-deadlock assertion:
/// `Runtime::run` panics with the wait-for listing when the event queue
/// drains with tasks left.
fn contended(seed: u64) -> Scenario {
    Scenario {
        program: family::contended(seed),
        ..Scenario::new(seed)
    }
}

/// Stealing plus batching.
fn chaotic(seed: u64) -> Scenario {
    Scenario {
        sched: STEALING,
        batching: true,
        ..contended(seed)
    }
}

#[test]
fn contended_programs_terminate_exactly() {
    let mut parked = 0;
    for seed in 0..12u64 {
        let (_, plain) = contended(seed).run();
        let (_, chaos) = chaotic(seed).run();
        // No bound on refusals here: with every tile behind one shared
        // element each release wakes the whole queue and all but one re-park
        // (a herd, quadratic in the queue — but driven by releases, not
        // by unrelated completions).
        parked += total_conflicts(&plain) + total_conflicts(&chaos);
    }
    assert!(parked > 0, "the family must actually contend");
}

#[test]
fn parked_behind_inbound_fence_is_woken() {
    // One shared element, many writers on four localities: the
    // element's ownership hops from writer to writer, so while one
    // migration is on the wire (inbound fence at its destination, which
    // the index already advertises) the other writers park *there*.
    for seed in 0..64u64 {
        if family::contended(seed).elems(allscale_model::ItemId(2)).len() != 1 {
            continue;
        }
        let (_, r) = contended(seed).run();
        let hops: u64 = r.monitor.per_locality.iter().map(|l| l.migrations_in).sum();
        assert!(
            hops >= 2,
            "seed {seed}: the shared element must migrate ({hops} hops)"
        );
        assert!(
            total_conflicts(&r) > 0,
            "seed {seed}: writers must queue behind it"
        );
        return;
    }
    panic!("no program with a single shared element among the seeds");
}

#[test]
fn contended_programs_survive_lossy_links_and_a_kill() {
    for seed in 0..6u64 {
        let lossy = FaultPlan::new(seed + 1)
            .with_drop_rate(0.01)
            .with_corruption(0.01);
        let scenario = Scenario {
            integrity: true,
            ..chaotic(seed)
        };
        // `run_killed` asserts the kill bit (detected, recovered) and
        // that the recovered result is the clean one.
        scenario.run_killed(1 + (seed % 3) as usize, (3 + seed % 5) * 10, lossy);
    }
}

#[test]
fn lone_writer_behind_broadcast_replicate_completes() {
    // Overloaded reads make the controller broadcast the hot shards, and
    // the stream carries a single write: it meets read locks and the
    // broadcast's export fence with no second writer to lift either.
    let base = ServeAppConfig {
        write_ppm: 400,
        slo: SloConfig {
            retire_cold: false,
            ..SloConfig::default()
        },
        ..overload_cfg()
    };
    for seed in 0..64u64 {
        let cfg = ServeAppConfig {
            seed,
            ..base.clone()
        };
        let out = run_with(&cfg, RtConfig::test(4, 2));
        let v = &out.report.monitor.serve;
        if v.writes != 1 || v.invalidations == 0 {
            continue;
        }
        assert!(
            v.replications >= 1,
            "seed {seed}: a fence needs a broadcast"
        );
        assert_eq!(
            v.completed, cfg.requests,
            "seed {seed}: the write must complete"
        );
        assert_eq!(
            out.keys_checked, cfg.keys,
            "seed {seed}: oracle saw the full key space"
        );
        return;
    }
    panic!("no seed with exactly one write that had to lift a broadcast fence");
}

#[test]
#[should_panic(expected = "held by [(\"export\", TaskId(18446744073709551615))]")]
fn deadlock_panic_names_the_waiter_and_its_holder() {
    // Outside a serving phase a persistent broadcast fences writers for
    // good (`RtCtx::broadcast_replicate` says so): the writers that follow
    // park behind locality 0's sentinel export and nothing ever releases
    // it. The panic must say exactly that.
    let grid: Rc<RefCell<Option<Grid<f64, 1>>>> = Rc::new(RefCell::new(None));
    Runtime::new(RtConfig::test(2, 1)).run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            if phase == 0 {
                *grid.borrow_mut() = Some(Grid::<f64, 1>::create(ctx, "g", [16]));
            }
            let g = grid.borrow().expect("created in phase 0");
            match phase {
                1 => {
                    let owned = ctx.owned_region_at(0, g.id);
                    ctx.broadcast_replicate(g.id, 0, owned.as_ref());
                }
                3 => return None,
                _ => {}
            }
            Some(pfor(
                PforSpec {
                    name: "write",
                    range: g.full_box(),
                    grain: 4,
                    ns_per_point: 2.0,
                    axis0_pieces: 2,
                },
                move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                move |t, p| g.set(t, p.0, 1.0),
            ))
        },
    );
}

// ------------------------------------------------- (d) lossy stencil seeds

#[test]
fn lossy_stencil_seeds_finish_with_bounded_refusals() {
    // 0.1 % drops and 0.1 % corruption with batching and stealing on 16
    // nodes — the rate at which hostbench/README.md reports a third of
    // the fault seeds costing 4–19 s of host time. A guard, not a
    // before/after: those seeds park nothing (`lock_conflicts` is 0 with
    // or without wait lists; their host time follows the steal count),
    // so what this pins is that lost messages, retries and re-requests
    // never strand a waiter or start a re-park loop.
    let base = StencilConfig::paper_scaled(16);
    let cfg = StencilConfig {
        rows_per_node: 32,
        cols: 16,
        steps: 6,
        validate: true,
        work_scale: 20_000.0 * 20_000.0 / (32.0 * 16.0),
        ..base
    };
    for seed in 1..=10u64 {
        let lossy = FaultPlan::new(seed)
            .with_drop_rate(0.001)
            .with_corruption(0.001);
        let services = Scenario {
            integrity: true,
            faults: Some(lossy),
            ckpt: Some(ResilienceConfig {
                checkpoint_every: 2,
                heartbeat_period: SimDuration::from_millis(4),
                ..ResilienceConfig::default()
            }),
            ..chaotic(seed)
        };
        let rt = services.configure(RtConfig::meggie(16));
        let (res, report) = stencil::allscale_version::run_with_report(&cfg, rt);
        assert!(res.validated, "fault seed {seed}: wrong field");
        let (conflicts, tasks) = (total_conflicts(&report), report.monitor.total_tasks());
        assert!(
            conflicts <= 4 * tasks,
            "fault seed {seed}: {conflicts} refused prepares for {tasks} tasks"
        );
    }
}
