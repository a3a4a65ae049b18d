//! Conformance suite of the request-serving subsystem, run end-to-end
//! through the sharded key-value application:
//!
//! 1. **Determinism** — same seed, same configuration ⇒ bit-identical
//!    `RunReport`s (via the canonical JSON serialization), under both
//!    scheduler families.
//! 2. **Zero perturbation** — tracing request spans does not change the
//!    run: traced and untraced reports serialize identically.
//! 3. **Resilience** — a fail-stop kill mid-serving recovers and the
//!    rewound serving phase replays the identical request stream: the
//!    write oracle inside the application (checked every run) proves no
//!    acknowledged write is lost.
//! 4. **Admission control** — overload shedding turns away reads only;
//!    every planned write still lands (the oracle again) and the
//!    offered = completed + shed identity holds.
//! 5. **The recorded sweep** — what EXPERIMENTS.md SV1 says about
//!    `BENCH_serve.json` (CI compares its virtual columns with a fresh
//!    `serve_bench` run), held against the file; runs nothing.

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
    assert_eq!(
        v.completed + v.shed,
        v.offered,
        "every request completes or is shed"
    );
    out
}

#[test]
fn same_seed_is_bit_identical_data_aware() {
    let cfg = small_cfg();
    let a = run(&cfg, RtConfig::test(4, 2)).report.to_json();
    let b = run(&cfg, RtConfig::test(4, 2)).report.to_json();
    assert_eq!(a, b, "same-seed serving runs must serialize identically");
}

#[test]
fn same_seed_is_bit_identical_work_stealing() {
    let cfg = small_cfg();
    let a = run(&cfg, stealing()).report.to_json();
    let b = run(&cfg, stealing()).report.to_json();
    assert_eq!(a, b, "work-stealing serving runs must be deterministic too");
}

#[test]
fn schedulers_disagree_on_placement_not_on_accounting() {
    // The two families place tasks differently (different reports are
    // expected) but both must satisfy the serving invariants — `run`
    // asserts them — and serve the identical request population.
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
fn traced_run_equals_untraced_run() {
    let cfg = small_cfg();
    let plain = run(&cfg, RtConfig::test(4, 2));
    let traced = Scenario {
        traced: true,
        ..Scenario::new(0)
    };
    let traced = run(&cfg, traced.rt());
    assert_eq!(
        plain.report.to_json(),
        traced.report.to_json(),
        "tracing must be record-only (the canonical JSON excludes the trace)"
    );
    let t = traced.report.trace.as_ref().expect("trace recorded");
    let json = t.to_chrome_json();
    for name in ["req-arrival", "request", "req-admit"] {
        assert!(
            json.contains(&format!("\"name\":\"{name}\"")),
            "chrome export must carry {name} events"
        );
    }
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
    // strict helper does not apply: serving counters accumulate across
    // the rewound phase's replay (like the other re-execution counters),
    // so `offered` exceeds the configured request count by however many
    // arrivals the aborted first attempt had already injected.
    let out = run_with(&cfg, faulty.rt());
    let v = &out.report.monitor.serve;
    assert!(
        v.offered > cfg.requests,
        "the replayed serving phase re-injects arrivals ({} offered)",
        v.offered
    );
    assert!(
        v.completed + v.shed >= cfg.requests,
        "every planned request is served in some epoch"
    );
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
    let out = run_with(&cfg, faulty.rt());
    let v = &out.report.monitor.serve;
    assert!(
        v.completed + v.shed >= cfg.requests,
        "every planned request is served in some epoch"
    );
    let r = &out.report.monitor.resilience;
    assert!(r.recoveries >= 1, "the kill must actually trigger recovery");
    assert!(
        r.ckpt_torn >= 1,
        "the kill must land mid-drain and tear the capture ({r:?})"
    );
    assert_eq!(out.keys_checked, cfg.keys, "full key space verified");
}

#[test]
fn recorded_slo_replication_beats_static_placement_past_the_knee() {
    let field = |row: &str, key: &str| -> f64 {
        let key = format!("\"{key}\":");
        let tail = &row[row.find(&key).expect("column") + key.len()..];
        tail[..tail.find([',', '}']).unwrap()].parse().unwrap()
    };
    let recorded = include_str!("../BENCH_serve.json");
    let at = |placement: &str, rate: f64| {
        let placement = format!("\"placement\":\"{placement}\"");
        let mut rows = recorded.lines().filter(|row| row.contains(&placement));
        rows.find(|row| field(row, "offered_rps") == rate).expect("row")
    };
    for rate in [100_000.0, 200_000.0] {
        let (fixed, slo) = (at("static", rate), at("slo", rate));
        for column in ["achieved_rps", "p50_ns", "p99_ns", "replications"] {
            assert_eq!(field(fixed, column), field(slo, column), "{column} at {rate}");
        }
    }
    // Static placement pins at one node's capacity past the knee …
    for rate in [800_000.0, 1_200_000.0] {
        let achieved = field(at("static", rate), "achieved_rps");
        assert!((390e3..410e3).contains(&achieved), "{achieved} at {rate}");
    }
    // … where replication carries the cluster further, at a lower p99.
    let (fixed, slo) = (at("static", 800_000.0), at("slo", 800_000.0));
    assert!(field(slo, "replications") > 0.0);
    assert!(field(slo, "achieved_rps") > 1.5 * field(fixed, "achieved_rps"));
    assert!(1.3 * field(slo, "p99_ns") <= field(fixed, "p99_ns"));
}
