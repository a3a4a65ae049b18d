//! Tracing invariants, run end-to-end through the stencil application:
//!
//! 1. **Determinism** — the simulation is deterministic, so two runs of
//!    the same configuration produce byte-identical Chrome exports.
//! 2. **Zero perturbation** — tracing is record-only: a traced run and an
//!    untraced run report identical `RunReport`s (finish time, counters,
//!    histograms), differing only in `report.trace`.
//! 3. **Aggregate consistency** — the Monitor's cluster-wide aggregates
//!    equal the sums of its per-locality counters after a multi-phase run.
//!
//! All three invariants are asserted with transfer batching off and on:
//! the coalescer sits on the simulated clock like everything else, so a
//! batched run must be exactly as deterministic and observer-free as an
//! unbatched one.

mod common;

use allscale_apps::serve::{run_with as run_serve, ServeAppConfig};
use allscale_apps::stencil::{allscale_version, StencilConfig};
use allscale_core::{FaultPlan, ResilienceConfig, RtConfig, RunReport, TraceConfig};
use common::{kill_plan, Scenario, STEALING};

fn run_stencil(nodes: usize, traced: bool) -> RunReport {
    run_stencil_batched(nodes, traced, false)
}

fn run_stencil_batched(nodes: usize, traced: bool, batching: bool) -> RunReport {
    let services = Scenario {
        traced,
        batching,
        ..Scenario::new(0)
    };
    let cfg = StencilConfig::small(nodes);
    let rt_cfg = services.configure(RtConfig::meggie(nodes));
    let (result, report) = allscale_version::run_with_report(&cfg, rt_cfg);
    assert!(result.validated, "stencil must match the oracle");
    report
}

/// The services of the work-stealing variant.
fn stealing(traced: bool) -> Scenario {
    Scenario {
        sched: STEALING,
        traced,
        ..Scenario::new(0)
    }
}

/// The work-stealing variant: one node degraded to quarter speed so the
/// steal protocol genuinely engages (requests, grants, denies on the
/// wire), with whatever fault plan and checkpointing `services` carries.
fn run_stencil_stealing(nodes: usize, services: &Scenario) -> RunReport {
    let cfg = StencilConfig::small(nodes);
    let mut rt_cfg = services.configure(RtConfig::meggie(nodes));
    // Few slots per node so per-locality queues actually back up (the
    // meggie spec's 20 cores would swallow the whole phase into slots).
    rt_cfg.spec.cores_per_node = 2;
    rt_cfg.cost.speed_factors = {
        let mut f = vec![1.0; nodes];
        f[nodes - 1] = 0.25;
        f
    };
    let (result, report) = allscale_version::run_with_report(&cfg, rt_cfg);
    assert!(result.validated, "stencil must match the oracle");
    report
}

#[test]
fn same_config_gives_byte_identical_chrome_export() {
    let a = run_stencil(2, true);
    let b = run_stencil(2, true);
    let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
    assert_eq!(ta.len(), tb.len(), "event counts must match");
    assert_eq!(ta.total_dropped(), tb.total_dropped());
    assert_eq!(
        ta.to_chrome_json(),
        tb.to_chrome_json(),
        "identical runs must export byte-identical Chrome JSON"
    );
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let traced = run_stencil(2, true);
    let untraced = run_stencil(2, false);
    assert!(traced.trace.is_some());
    assert!(untraced.trace.is_none());

    // The simulation itself is untouched by recording.
    assert_eq!(traced.finish_time, untraced.finish_time);
    assert_eq!(traced.phases, untraced.phases);
    assert_eq!(traced.remote_msgs, untraced.remote_msgs);
    assert_eq!(traced.remote_bytes, untraced.remote_bytes);
    assert_eq!(traced.events, untraced.events);

    // Every monitor counter — including the latency histograms, which are
    // recorded unconditionally — agrees.
    assert_eq!(traced.summary(), untraced.summary());
    for (t, u) in traced
        .monitor
        .per_locality
        .iter()
        .zip(&untraced.monitor.per_locality)
    {
        assert_eq!(t.tasks_executed, u.tasks_executed);
        assert_eq!(t.busy_ns, u.busy_ns);
        assert_eq!(t.msgs_sent, u.msgs_sent);
        assert_eq!(t.bytes_sent, u.bytes_sent);
        assert_eq!(t.replicas_in, u.replicas_in);
        assert_eq!(t.lock_conflicts, u.lock_conflicts);
    }
}

#[test]
fn monitor_aggregates_equal_per_locality_sums() {
    let report = run_stencil(4, false);
    let m = &report.monitor;
    assert_eq!(m.per_locality.len(), 4);

    let tasks: u64 = m.per_locality.iter().map(|l| l.tasks_executed).sum();
    let msgs: u64 = m.per_locality.iter().map(|l| l.msgs_sent).sum();
    let bytes: u64 = m.per_locality.iter().map(|l| l.bytes_sent).sum();
    assert!(tasks > 0, "the multi-phase stencil executed tasks");
    assert_eq!(m.total_tasks(), tasks);
    assert_eq!(m.total_msgs(), msgs);
    assert_eq!(m.total_bytes(), bytes);

    // Each process-variant execution records exactly one duration sample.
    assert_eq!(m.task_durations.tally().count(), tasks);
    // Transfer latency is recorded per successful remote delivery; a
    // 4-node stencil exchanges halos, so samples exist and percentiles
    // are ordered.
    let lat = &m.transfer_latency;
    assert!(lat.tally().count() > 0);
    assert!(lat.p50() <= lat.p90() && lat.p90() <= lat.p99());
}

// --------------------------------------------------- batched-mode variants

#[test]
fn batched_runs_export_byte_identical_chrome_json() {
    let a = run_stencil_batched(2, true, true);
    let b = run_stencil_batched(2, true, true);
    assert!(a.traffic.batches > 0, "batching must engage at 2 nodes");
    let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
    assert_eq!(ta.len(), tb.len(), "event counts must match");
    let json = ta.to_chrome_json();
    assert_eq!(
        json,
        tb.to_chrome_json(),
        "identical batched runs must export byte-identical Chrome JSON"
    );
    // The export carries the flush spans and the batch ids that tie each
    // member transfer to its flush.
    assert!(json.contains("\"batch\""), "batch ids must be exported");
}

#[test]
fn batched_tracing_does_not_perturb_the_run() {
    let traced = run_stencil_batched(2, true, true);
    let untraced = run_stencil_batched(2, false, true);
    assert!(traced.trace.is_some() && untraced.trace.is_none());
    assert_eq!(traced.finish_time, untraced.finish_time);
    assert_eq!(traced.remote_msgs, untraced.remote_msgs);
    assert_eq!(traced.events, untraced.events);
    assert_eq!(traced.traffic.batches, untraced.traffic.batches);
    assert_eq!(traced.traffic.batched_msgs, untraced.traffic.batched_msgs);
    assert_eq!(traced.traffic.batched_bytes, untraced.traffic.batched_bytes);
    assert_eq!(traced.summary(), untraced.summary());
}

// ----------------------------------------------- work-stealing variants

#[test]
fn work_stealing_runs_export_byte_identical_chrome_json() {
    let a = run_stencil_stealing(4, &stealing(true));
    let b = run_stencil_stealing(4, &stealing(true));
    let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
    assert_eq!(ta.len(), tb.len(), "event counts must match");
    let json = ta.to_chrome_json();
    assert_eq!(
        json,
        tb.to_chrome_json(),
        "identical work-stealing runs must export byte-identical Chrome JSON"
    );
    // The steal protocol engaged and its legs are in the export.
    assert!(
        a.monitor.scheduler.steal_requests > 0,
        "the degraded node must trigger steals ({:?})",
        a.monitor.scheduler
    );
    assert!(json.contains("steal-request"), "steal requests must be exported");
    assert!(json.contains("steal-grant"), "steal grants must be exported");
}

#[test]
fn work_stealing_tracing_does_not_perturb_the_run() {
    let traced = run_stencil_stealing(4, &stealing(true));
    let untraced = run_stencil_stealing(4, &stealing(false));
    assert!(traced.trace.is_some() && untraced.trace.is_none());
    assert_eq!(traced.finish_time, untraced.finish_time);
    assert_eq!(traced.phases, untraced.phases);
    assert_eq!(traced.remote_msgs, untraced.remote_msgs);
    assert_eq!(traced.remote_bytes, untraced.remote_bytes);
    assert_eq!(traced.events, untraced.events);
    assert_eq!(traced.summary(), untraced.summary());
    // The queue/steal counters are recorded unconditionally, so the
    // traced and untraced scheduler views are identical too.
    assert_eq!(traced.monitor.scheduler, untraced.monitor.scheduler);
    assert!(traced.monitor.scheduler.tasks_queued > 0);
}

/// Seeded steal + kill + recover soak: for each seed, a fault-free
/// work-stealing run calibrates the kill time, then the same
/// configuration is run twice with a fail-stop kill and checkpointed
/// recovery — the two faulty runs must still export byte-identical
/// Chrome JSON, and the recovery must actually have happened. Finishes
/// in under two seconds, so it runs with the suite.
#[test]
fn steal_kill_recover_soak() {
    const NODES: usize = 4;
    for seed in 0..6u64 {
        let clean = run_stencil_stealing(NODES, &stealing(false));

        // Kill a random non-detector, non-degraded locality somewhere
        // in 25%–75% of the failure-free duration.
        let victim = 1 + (seed % (NODES as u64 - 2)) as usize;
        let percent = 25 + (seed % 6) * 10;
        let lossy = FaultPlan::new(seed ^ 0x57ea_1f00d).with_drop_rate(0.003);
        let (faults, ckpt) = kill_plan(&clean, victim, percent, lossy, ResilienceConfig::default());
        let faulty = Scenario {
            faults: Some(faults),
            ckpt: Some(ckpt),
            ..stealing(true)
        };

        let a = run_stencil_stealing(NODES, &faulty);
        let b = run_stencil_stealing(NODES, &faulty);
        let r = &a.monitor.resilience;
        assert!(
            r.detections >= 1 && r.recoveries >= 1,
            "seed {seed}: the kill must be detected and recovered ({r:?})"
        );
        assert_eq!(
            a.trace.as_ref().unwrap().to_chrome_json(),
            b.trace.as_ref().unwrap().to_chrome_json(),
            "seed {seed}: steal+kill+recover runs must stay byte-deterministic"
        );
    }
}

// --------------------------------------------------- serving variant

/// The request-serving subsystem rides the same tracer: two traced runs
/// of the sharded KV store under open-loop Poisson traffic must export
/// byte-identical Chrome JSON, with the request spans and admission
/// events present. (Traced-vs-untraced perturbation freedom for serving
/// is asserted in `serving_conformance.rs`; this pins the export
/// itself, arrival jitter and all, to the seed.)
#[test]
fn serving_runs_export_byte_identical_chrome_json() {
    let run = || {
        let cfg = ServeAppConfig::small();
        let mut rt = RtConfig::test(4, 2);
        rt.trace = Some(TraceConfig::default());
        run_serve(&cfg, rt).report
    };
    let (a, b) = (run(), run());
    let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
    assert_eq!(ta.len(), tb.len(), "event counts must match");
    let json = ta.to_chrome_json();
    assert_eq!(
        json,
        tb.to_chrome_json(),
        "identical serving runs must export byte-identical Chrome JSON"
    );
    for name in ["req-arrival", "request", "req-admit"] {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "chrome export must carry {name} events"
        );
    }
}

/// The batch counters tie out against the per-locality monitor: every
/// logical message a locality sent either stayed local, went out on the
/// wire individually, or rode a batch — and each flush replaced
/// `batched_msgs` logical messages with `batches` wire messages.
#[test]
fn batch_counters_sum_to_per_locality_aggregates() {
    let r = run_stencil_batched(4, false, true);
    let t = &r.traffic;
    assert!(t.batches > 0);
    assert_eq!(
        t.flushes_by_cause.iter().sum::<u64>(),
        t.batches,
        "every flush has exactly one cause"
    );
    assert!(t.batched_msgs >= t.batches);
    let logical: u64 = r.monitor.per_locality.iter().map(|l| l.msgs_sent).sum();
    assert_eq!(
        logical,
        t.local.count() + t.remote_msgs() + (t.batched_msgs - t.batches),
        "logical sends must equal local + wire + coalesced-away messages"
    );
}
