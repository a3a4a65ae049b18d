//! The resilience manager end to end (paper Section 3.2): the stencil
//! runs on a cluster whose network drops messages and whose locality 2
//! fail-stops mid-run — and still finishes with results bit-identical to
//! the failure-free run.
//!
//! Everything is automatic — the driver never checkpoints or restores by
//! hand:
//!
//! - transient message drops are masked by bounded retry with
//!   exponential backoff, billed on the simulated clock;
//! - the runtime checkpoints the distributed data at phase boundaries;
//! - a heartbeat failure detector on locality 0 notices the death after
//!   a few silent rounds;
//! - recovery rewinds to the last checkpoint, grafts the dead locality's
//!   shards onto its ring successor, re-advertises ownership in the
//!   hierarchical index, and replays the lost phases.
//!
//! Safe by the model's Section 2.5 properties: checkpointed data is
//! preserved exactly, and every task either completed before the
//! checkpoint or re-runs from it — never both.
//!
//! ```text
//! cargo run --release --example fault_recovery
//! ```

use allscale_apps::stencil::{allscale_version, StencilConfig};
use allscale_core::{FaultPlan, ResilienceConfig, RtConfig};
use allscale_des::{SimDuration, SimTime};

const NODES: usize = 4;
const CORES: usize = 4;
const DROP_RATE: f64 = 0.01; // 1% of messages vanish in transit
const SEED: u64 = 42;

fn stencil_config() -> StencilConfig {
    let mut cfg = StencilConfig::small(NODES);
    cfg.steps = 6; // several phase boundaries → several checkpoints
    cfg
}

fn main() {
    let cfg = stencil_config();

    println!("failure-free baseline ({NODES} nodes):");
    let (clean, clean_report) =
        allscale_version::run_with_report(&cfg, RtConfig::test(NODES, CORES));
    println!(
        "  checksum {:#018x}, virtual time {:.3} ms, validated: {}",
        clean.checksum,
        clean_report.finish_time.as_secs_f64() * 1e3,
        clean.validated,
    );
    assert!(clean.validated);

    // Kill locality 2 at ~60% of the failure-free duration — mid-phase,
    // with real work and data on the victim. The heartbeat period is
    // derived from the run length so detection costs a few percent of it.
    let total_ns = clean_report.finish_time.as_nanos();
    let kill_at = SimTime::from_nanos(total_ns * 6 / 10);
    let heartbeat = SimDuration::from_nanos((total_ns / 200).max(500));

    let mut plan = FaultPlan::new(SEED).with_drop_rate(DROP_RATE);
    plan.kill_at(2, kill_at);

    let mut rt_cfg = RtConfig::test(NODES, CORES);
    rt_cfg.faults = Some(plan);
    rt_cfg.resilience = Some(ResilienceConfig {
        checkpoint_every: 1,
        heartbeat_period: heartbeat,
        ..ResilienceConfig::default()
    });

    println!(
        "\nfaulted run: {:.1}% drop rate, locality 2 dies at {:.3} ms:",
        DROP_RATE * 100.0,
        kill_at.as_secs_f64() * 1e3,
    );
    let (faulted, report) = allscale_version::run_with_report(&cfg, rt_cfg);
    print!("{}", report.summary());

    let r = &report.monitor.resilience;
    println!(
        "\n  detected after {:.1} µs; {} of ~{} heartbeat rounds spent",
        r.detection_latency_ns as f64 / 1e3,
        r.detections,
        r.heartbeats / (NODES as u64 - 1),
    );
    println!(
        "  clean   checksum: {:#018x}\n  faulted checksum: {:#018x}",
        clean.checksum, faulted.checksum,
    );

    assert!(faulted.validated, "recovered run must validate against the oracle");
    assert_eq!(
        clean.checksum, faulted.checksum,
        "recovery must reproduce the failure-free result bit-identically"
    );
    assert!(r.checkpoints >= 1, "cadence must have taken checkpoints");
    assert!(r.detections >= 1, "the heartbeat detector must notice the death");
    assert!(r.recoveries >= 1, "at least one recovery must have run");
    assert!(r.detection_latency_ns > 0, "detection latency must be measured");
    assert!(
        r.failed_transfers >= 1,
        "messages to/from the dead locality must have been lost"
    );
    assert!(
        report.traffic.dropped >= 1 && report.traffic.retries >= 1,
        "the lossy fabric must have dropped and retried messages"
    );
    println!("\nautomatic recovery reproduced the failure-free run bit-identically ✓");
}
