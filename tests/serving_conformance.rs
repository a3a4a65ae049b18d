//! Conformance suite of the request-serving subsystem, run end-to-end
//! through the sharded key-value application. Determinism and
//! record-only tracing are `report_golden`'s `serve_*` rows, and
//! `offered == completed + shed` is one of the identities `Runtime::run`
//! checks itself on every run; what is left here:
//!
//! 1. **Placement, not accounting** — the two scheduler families serve
//!    the identical request population.
//! 2. **Resilience** — a fail-stop kill mid-serving recovers and the
//!    rewound serving phase replays the identical request stream: the
//!    write oracle inside the application (checked every run) proves no
//!    acknowledged write is lost, and each request is counted once.
//! 3. **Admission control** — overload shedding turns away reads only;
//!    every planned write still lands (the oracle again).
//!
//! What EXPERIMENTS.md SV1 says about the sweep is the `serve`
//! experiment's conclusion, judged in `crates/bench`.

mod common;

use allscale_apps::serve::{run_with, ServeAppConfig, ServeOutcome};
use allscale_core::{FaultPlan, ResilienceConfig, RtConfig, SloConfig};
use common::{kill_plan, Scenario, STEALING};

fn small_cfg() -> ServeAppConfig {
    ServeAppConfig::small()
}

fn stealing() -> RtConfig {
    Scenario {
        sched: STEALING,
        ..Scenario::new(0)
    }
    .rt()
}

fn run(cfg: &ServeAppConfig, rt: RtConfig) -> ServeOutcome {
    let out = run_with(cfg, rt);
    let v = &out.report.monitor.serve;
    assert_eq!(v.offered, cfg.requests, "open loop injects every arrival");
    out
}

#[test]
fn schedulers_disagree_on_placement_not_on_accounting() {
    // The two families place tasks differently (different reports are
    // expected) but both serve the identical request population.
    let cfg = small_cfg();
    let da = run(&cfg, RtConfig::test(4, 2));
    let ws = run(&cfg, stealing());
    let (a, b) = (&da.report.monitor.serve, &ws.report.monitor.serve);
    assert_eq!(a.offered, b.offered);
    assert_eq!(a.reads, b.reads);
    assert_eq!(a.writes, b.writes);
    assert_eq!(da.keys_checked, ws.keys_checked);
}

#[test]
fn failstop_kill_mid_serving_loses_no_acknowledged_write() {
    let cfg = small_cfg();
    // Clean run first, to learn the duration and place the kill inside
    // the serving phase (which dominates the run).
    let clean = run(&cfg, RtConfig::test(4, 2));
    let (faults, ckpt) = kill_plan(
        &clean.report,
        2,
        60,
        FaultPlan::new(7),
        ResilienceConfig::default(),
    );
    let faulty = Scenario {
        faults: Some(faults),
        ckpt: Some(ckpt),
        ..Scenario::new(0)
    };

    // `run_with` asserts the write oracle over the surviving localities'
    // owned regions — a lost acknowledged write panics in there. The
    // recovery puts the serving tallies back to the aborted session's
    // start, so `run` finds each request offered once (and the runtime
    // checks that each completes or is shed).
    let out = run(&cfg, faulty.rt());
    let r = &out.report.monitor.resilience;
    assert!(r.recoveries >= 1, "the kill must actually trigger recovery");
    assert_eq!(out.keys_checked, cfg.keys, "full key space verified");
}

#[test]
fn overload_shedding_turns_away_reads_only() {
    let mut cfg = small_cfg();
    // Push well past one node's capacity and let admission shed while
    // shards are hot; keep replication off so the overload persists.
    // The stream must outlast the first control period (2 ms) — the
    // controller can only arm shedding at a tick — so inject enough
    // requests that most arrivals land after it.
    cfg.rate_rps = 2_000_000.0;
    cfg.requests = 20_000;
    cfg.slo = SloConfig {
        shed_overload: true,
        replicate_hot: false,
        retire_cold: false,
        ..SloConfig::default()
    };
    let out = run(&cfg, RtConfig::test(4, 2));
    let v = &out.report.monitor.serve;
    assert!(v.shed > 0, "overload at 2M req/s must shed something");
    assert!(v.shed < v.offered, "writes are never shed");
    // The application's oracle already proved every planned write landed
    // (it panics otherwise); the counters must agree reads-only shedding
    // happened.
    assert!(
        v.completed >= v.writes,
        "all writes complete: {} completed, {} writes",
        v.completed,
        v.writes
    );
}

#[test]
fn mid_drain_kill_loses_no_acknowledged_write() {
    use allscale_core::{CheckpointConfig, StorageParams};

    // Slow the remote checkpoint tier far below the serving rate so an
    // asynchronous drain is in flight essentially all the time, then
    // land the kill mid-run: it must tear the pending capture and
    // recover from the last *committed* checkpoint — and the write
    // oracle inside `run_with` still proves no acknowledged write lost.
    let cfg = small_cfg();
    let slow_drains = ResilienceConfig {
        checkpoint_every: 1,
        ckpt: CheckpointConfig {
            storage: StorageParams {
                remote_write_bps: 0.5e6,
                ..StorageParams::default()
            },
            ..CheckpointConfig::default()
        },
        ..ResilienceConfig::default()
    };
    let checkpointed = Scenario {
        ckpt: Some(slow_drains),
        ..Scenario::new(0)
    };
    let clean = run_with(&cfg, checkpointed.rt());

    let (faults, ckpt) = kill_plan(&clean.report, 2, 15, FaultPlan::new(0xd4a1), slow_drains);
    let faulty = Scenario {
        faults: Some(faults),
        ckpt: Some(ckpt),
        ..checkpointed
    };
    let out = run(&cfg, faulty.rt());
    let r = &out.report.monitor.resilience;
    assert!(r.recoveries >= 1, "the kill must actually trigger recovery");
    assert!(
        r.ckpt_torn >= 1,
        "the kill must land mid-drain and tear the capture ({r:?})"
    );
    assert_eq!(out.keys_checked, cfg.keys, "full key space verified");
}
