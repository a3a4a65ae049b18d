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

use std::cell::RefCell;
use std::rc::Rc;

use allscale_apps::serve::{run_with, ServeAppConfig};
use allscale_apps::stencil::{self, StencilConfig};
use allscale_core::{
    pfor, BatchParams, FaultPlan, Grid, IntegrityConfig, PforSpec, Requirement, ResilienceConfig,
    RtConfig, RtCtx, RunReport, Runtime, SloConfig, StealConfig, TaskValue, WorkItem,
};
use allscale_des::rng::XorShift64;
use allscale_des::{SimDuration, SimTime};
use allscale_region::{fnv1a_64, BoxRegion, GridBox, Region};

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

/// The report's canonical JSON with every `lock_conflicts` value blanked.
fn json_sans_conflicts(r: &RunReport) -> String {
    const KEY: &str = "\"lock_conflicts\":";
    let json = r.to_json();
    let mut out = String::with_capacity(json.len());
    let mut rest = json.as_str();
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
    /// FNV-1a of [`json_sans_conflicts`]: every other field at once.
    digest: u64,
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
    assert_eq!(
        fnv1a_64(json_sans_conflicts(r).as_bytes()),
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
    digest: 0x85a8_17d7_50e2_572e,
    parent_conflicts: 84_289,
};

const PINNED_SMALL: Pinned = Pinned {
    finish_ns: 20_113_439,
    events: 14_198,
    remote_msgs: 6_463,
    latency_count: 3_000,
    latency_mean_ns: 9_539.789,
    latency_p99_ns: 32_767,
    digest: 0xea23_c00a_7b85_cb2c,
    parent_conflicts: 8,
};

// ------------------------------------------------------ (c) no lost wake-ups

/// One randomized, *contended* multi-phase program. Two grids ping-pong
/// a 3-point sum (each tile reads its neighbours' cells — replicas, so
/// the next phase's writers wait behind export fences), and every point
/// also increments one of a handful of shared counter cells (tiles on
/// different localities write the same cell — the cell's ownership
/// migrates from task to task and everybody else waits behind the
/// holder's lock or the inbound-migration fence). All values are small
/// integers, exact in `f64`, and increments commute, so the result is a
/// pure function of the spec whatever order tasks are woken in.
#[derive(Clone, Debug)]
struct Contended {
    n: i64,
    grain: u64,
    pieces: u64,
    counters: i64,
    stride: i64,
    phases: usize,
}

impl Contended {
    fn draw(seed: u64) -> Self {
        let mut rng = XorShift64::new(seed ^ 0xa11_5ca1e);
        Contended {
            n: 48 + 16 * rng.below(3) as i64,
            grain: 6 + 2 * rng.below(3),
            pieces: 4 + rng.below(5),
            counters: 1 + rng.below(3) as i64,
            stride: 5 + rng.below(7) as i64,
            phases: 2 + rng.below(3) as usize,
        }
    }

    fn counter_of(&self, i: i64) -> i64 {
        (i / self.stride) % self.counters
    }

    /// The counter cells the points of `tile` increment.
    fn counter_region(&self, tile: &GridBox<1>) -> BoxRegion<1> {
        (tile.lo()[0]..tile.hi()[0])
            .map(|i| self.counter_of(i))
            .fold(BoxRegion::empty(), |acc, k| {
                acc.union(&BoxRegion::cuboid([k], [k + 1]))
            })
    }

    /// Final field and counters, computed sequentially.
    fn expected(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.n as usize;
        let mut cur: Vec<f64> = (0..n).map(|i| i as f64).collect();
        for _ in 0..self.phases {
            cur = (0..n)
                .map(|i| {
                    let left = if i > 0 { cur[i - 1] } else { 0.0 };
                    let right = if i + 1 < n { cur[i + 1] } else { 0.0 };
                    left + cur[i] + right
                })
                .collect();
        }
        let mut counts = vec![0.0; self.counters as usize];
        for i in 0..self.n {
            counts[self.counter_of(i) as usize] += self.phases as f64;
        }
        (cur, counts)
    }
}

/// Run the contended program of `seed` on 4×2 cores and check it against
/// the sequential oracle. Returning at all is the no-deadlock assertion:
/// `Runtime::run` panics with the wait-for listing when the event queue
/// drains with tasks left.
fn run_contended(seed: u64, rt: RtConfig) -> RunReport {
    let spec = Contended::draw(seed);
    let (n, phases) = (spec.n, spec.phases);
    let grids: Rc<RefCell<Option<[Grid<f64, 1>; 3]>>> = Rc::new(RefCell::new(None));
    let field = Rc::new(RefCell::new(vec![f64::NAN; n as usize]));
    let counts = Rc::new(RefCell::new(vec![f64::NAN; spec.counters as usize]));
    let (gc, fc, cc, sp) = (grids.clone(), field.clone(), counts.clone(), spec.clone());

    let report = Runtime::new(rt).run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            let violations = ctx.verify_consistency();
            assert!(
                violations.is_empty(),
                "seed {seed}, phase {phase}: {violations:?}"
            );
            let universe = GridBox::from_shape([n]).expect("non-empty grid");
            let tiles = |name, ns_per_point| PforSpec {
                name,
                range: universe,
                grain: sp.grain,
                ns_per_point,
                axis0_pieces: sp.pieces,
            };
            if phase == 0 {
                let a = Grid::<f64, 1>::create(ctx, "a", [n]);
                let b = Grid::<f64, 1>::create(ctx, "b", [n]);
                let c = Grid::<f64, 1>::create(ctx, "counters", [sp.counters]);
                *gc.borrow_mut() = Some([a, b, c]);
                return Some(pfor(
                    tiles("fill", 2.0),
                    move |tile| vec![Requirement::write(a.id, BoxRegion::from_box(*tile))],
                    move |t, p| a.set(t, p.0, p[0] as f64),
                ));
            }
            let [a, b, c] = gc.borrow().expect("grids created in phase 0");
            // Phase k reads the grid phase k-1 wrote.
            let (src, dst) = if phase % 2 == 1 { (a, b) } else { (b, a) };
            if phase <= phases {
                let (s1, s2) = (sp.clone(), sp.clone());
                return Some(pfor(
                    tiles("sum3", 3.0),
                    move |tile| {
                        let own = BoxRegion::from_box(*tile);
                        vec![
                            Requirement::read(src.id, own.dilate_within(1, &universe)),
                            Requirement::write(dst.id, own),
                            Requirement::write(c.id, s1.counter_region(tile)),
                        ]
                    },
                    move |t, p| {
                        let i = p[0];
                        let at = |j: i64| {
                            if (0..n).contains(&j) {
                                src.get(t, [j])
                            } else {
                                0.0
                            }
                        };
                        let v = at(i - 1) + at(i) + at(i + 1);
                        dst.set(t, [i], v);
                        let k = s2.counter_of(i);
                        let seen = c.get(t, [k]);
                        c.set(t, [k], seen + 1.0);
                    },
                ));
            }
            if phase == phases + 1 {
                let (fc, cc, counters) = (fc.clone(), cc.clone(), sp.counters);
                return Some(pfor(
                    tiles("readback", 1.0),
                    move |tile| {
                        vec![
                            Requirement::read(src.id, BoxRegion::from_box(*tile)),
                            Requirement::read(c.id, BoxRegion::cuboid([0], [counters])),
                        ]
                    },
                    move |t, p| {
                        fc.borrow_mut()[p[0] as usize] = src.get(t, p.0);
                        for k in 0..counters {
                            cc.borrow_mut()[k as usize] = c.get(t, [k]);
                        }
                    },
                ));
            }
            None
        },
    );
    let (want_field, want_counts) = spec.expected();
    assert_eq!(*field.borrow(), want_field, "seed {seed}: field ({spec:?})");
    assert_eq!(
        *counts.borrow(),
        want_counts,
        "seed {seed}: counters ({spec:?})"
    );
    report
}

fn stealing(rt: RtConfig) -> RtConfig {
    rt.with_work_stealing(StealConfig::default())
}

#[test]
fn contended_programs_terminate_exactly() {
    let mut parked = 0;
    for seed in 0..12u64 {
        let plain = run_contended(seed, RtConfig::test(4, 2));
        let chaos = run_contended(
            seed,
            stealing(RtConfig::test(4, 2)).with_batching(BatchParams::default()),
        );
        // No bound on refusals here: with every tile behind one counter
        // cell each release wakes the whole queue and all but one re-park
        // (a herd, quadratic in the queue — but driven by releases, not
        // by unrelated completions).
        parked += total_conflicts(&plain) + total_conflicts(&chaos);
    }
    assert!(parked > 0, "the family must actually contend");
}

#[test]
fn parked_behind_inbound_fence_is_woken() {
    // One shared counter cell, many writers on four localities: the
    // cell's ownership hops from writer to writer, so while one
    // migration is on the wire (inbound fence at its destination, which
    // the index already advertises) the other writers park *there*.
    for seed in 0..64u64 {
        let spec = Contended::draw(seed);
        if spec.counters != 1 {
            continue;
        }
        let r = run_contended(seed, RtConfig::test(4, 2));
        let hops: u64 = r.monitor.per_locality.iter().map(|l| l.migrations_in).sum();
        assert!(
            hops >= 2,
            "seed {seed}: the shared cell must migrate ({hops} hops)"
        );
        assert!(
            total_conflicts(&r) > 0,
            "seed {seed}: writers must queue behind it"
        );
        return;
    }
    panic!("no single-counter program among the seeds");
}

#[test]
fn contended_programs_survive_lossy_links_and_a_kill() {
    for seed in 0..6u64 {
        let clean = run_contended(seed, RtConfig::test(4, 2));
        let total_ns = clean.finish_time.as_nanos();
        let mut plan = FaultPlan::new(seed + 1)
            .with_drop_rate(0.01)
            .with_corruption(0.01);
        plan.kill_at(
            1 + (seed % 3) as usize,
            SimTime::from_nanos(total_ns * (3 + seed % 5) / 10),
        );
        let mut rt = stealing(RtConfig::test(4, 2))
            .with_batching(BatchParams::default())
            .with_integrity(IntegrityConfig::default());
        rt.faults = Some(plan);
        rt.resilience = Some(ResilienceConfig {
            checkpoint_every: 1,
            heartbeat_period: SimDuration::from_nanos((total_ns / 50).max(1_000)),
            ..ResilienceConfig::default()
        });
        let r = run_contended(seed, rt);
        assert!(
            r.monitor.resilience.recoveries >= 1,
            "seed {seed}: the kill must bite"
        );
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
        let mut rt = stealing(RtConfig::meggie(16))
            .with_batching(BatchParams::default())
            .with_integrity(IntegrityConfig::default());
        rt.resilience = Some(ResilienceConfig {
            checkpoint_every: 2,
            heartbeat_period: SimDuration::from_millis(4),
            ..ResilienceConfig::default()
        });
        rt.faults = Some(
            FaultPlan::new(seed)
                .with_drop_rate(0.001)
                .with_corruption(0.001),
        );
        let (res, report) = stencil::allscale_version::run_with_report(&cfg, rt);
        assert!(res.validated, "fault seed {seed}: wrong field");
        let (conflicts, tasks) = (total_conflicts(&report), report.monitor.total_tasks());
        assert!(
            conflicts <= 4 * tasks,
            "fault seed {seed}: {conflicts} refused prepares for {tasks} tasks"
        );
    }
}
