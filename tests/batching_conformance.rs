//! Conformance of the transfer-batching layer (message coalescing in
//! `crates/net` plus region coalescing in the staging planner): batching
//! is a *pricing* optimization and must be invisible to the application.
//! Batched and unbatched runs of the same program produce bit-identical
//! results and identical task monitors (the Section 2.5 invariants are
//! checked by the runtime itself at every boundary of every run here);
//! and on the TPC-shaped workload — the one the paper blames on per-message
//! overhead (Section 4.2) — batching must never make the simulated
//! makespan worse. The batch counters' own identities (every flush has
//! one cause, a flush holds a message, batched bytes were sent, logical
//! sends tie out) are checked by `Runtime::run` at the end of every run.

mod common;

use allscale_apps::{stencil, tpc};
use allscale_core::{BatchParams, FaultPlan, RoundRobinPolicy, RtConfig, RunReport, TraceConfig};
use allscale_des::SimTime;
use allscale_net::{FatTree, FlushCause, NetParams, Network, RetryPolicy, Verdict};
use allscale_trace::{EventKind, TransferPurpose};
use common::{family, Scenario};

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

/// A program with spontaneous migrations at every phase boundary (the
/// runtime analogue of the model driver's chaos schedules): fill, four
/// add phases with a random region migration before each, then an exact
/// read-back — `Scenario::run` fails loud if batching ever lost,
/// duplicated, or stale-served a byte.
fn chaos(seed: u64, batching: bool) -> Scenario {
    Scenario {
        program: family::bumps(4),
        migrations: true,
        batching,
        ..Scenario::new(seed)
    }
}

/// Spontaneous random migrations every phase, batched vs unbatched: exact
/// readback in both and identical task monitors.
#[test]
fn chaotic_migrations_agree_across_batching() {
    for seed in 0..6u64 {
        let (_, un) = chaos(seed, false).run();
        let (_, ba) = chaos(seed, true).run();
        assert_task_monitors_identical(&un, &ba, &format!("chaos seed {seed}"));
        assert_eq!(un.traffic.batches, 0);
        assert!(ba.traffic.batches > 0, "seed {seed}: nothing batched");
    }
}

/// Verified transfers under a corrupting wire, batching on: the chaos
/// program still reads back exact values (asserted by `run`), the task
/// monitors match the fault-free batched run, every injected corruption
/// is detected, and detections surface as re-requests — a corrupt flush
/// is retried, never consumed.
#[test]
fn corrupted_batch_flushes_rerequest_and_agree() {
    let mut corruptions = 0u64;
    for seed in 0..4u64 {
        let (_, clean) = chaos(seed, true).run();
        let (_, dirty) = Scenario {
            faults: Some(FaultPlan::new(seed ^ 0xbad_c0de).with_corruption(0.08)),
            integrity: true,
            ..chaos(seed, true)
        }
        .run();
        assert_task_monitors_identical(&clean, &dirty, &format!("corrupt seed {seed}"));
        assert!(dirty.traffic.batches > 0, "seed {seed}: nothing batched");
        let t = &dirty.traffic;
        assert_eq!(
            t.corrupt_undetected, 0,
            "seed {seed}: verified run consumed poison ({t:?})"
        );
        assert_eq!(
            t.corrupt_detected, t.corrupted,
            "seed {seed}: detection must account every corruption"
        );
        assert!(
            t.re_requests >= t.corrupt_detected,
            "seed {seed}: detected corruptions must be re-requested ({t:?})"
        );
        corruptions += t.corrupted;
    }
    assert!(
        corruptions > 0,
        "no corruption ever struck; rate too low to test anything"
    );
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
        n.transfer_batch_frame(t0, 0, 1, 48_000, 6, FlushCause::Window, &policy)
            .map(|d| d.at)
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
    assert_eq!(
        s.re_requests, 1,
        "the flush is re-requested once, as a unit"
    );
    assert_eq!(
        s.batches, 1,
        "batch counters bill the flush once, not per attempt"
    );
    assert_eq!(s.batched_msgs, 6);
    assert_eq!(s.batched_bytes, 48_000);

    // Batch-of-one identity survives verification: same arrival as the
    // plain infallible transfer.
    let mut one = mk(None, true);
    let batched_one = one
        .transfer_batch_frame(t0, 0, 1, 9_000, 1, FlushCause::Msgs, &policy)
        .expect("no faults installed")
        .at;
    let mut plain = mk(None, false);
    assert_eq!(batched_one, plain.transfer(t0, 0, 1, 9_000));
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

/// B1 as recorded in `BENCH_b1.json`: on the eight-node stencil and TPC
/// runs, batching changes no result bit, and it does not slow TPC's
/// query phase down.
#[test]
fn recorded_b1_batching_changes_no_result_bits_and_does_not_slow_tpc() {
    let rows = common::recorded::rows(include_str!("../BENCH_b1.json"));
    let at = |app, batching| common::recorded::find(&rows, &[("app", app), ("batching", batching)]);
    let (off, on) = (at("stencil", "off"), at("stencil", "on"));
    assert_eq!(
        off.label("checksum"),
        on.label("checksum"),
        "bit-identical results"
    );
    let (off, on) = (at("tpc", "off"), at("tpc", "on"));
    assert_eq!(
        off.num("total_count"),
        on.num("total_count"),
        "identical counts"
    );
    assert!(
        on.num("compute_ns") <= off.num("compute_ns"),
        "batching must not slow TPC down"
    );
}
