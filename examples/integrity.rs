//! The data-integrity service end to end: the stencil runs on a fabric
//! that silently corrupts a fraction of all messages — and still
//! finishes with results bit-identical to the failure-free run, because
//! every runtime payload crosses the wire in a checksummed frame and a
//! detected mismatch is re-requested instead of consumed.
//!
//! Three runs tell the story:
//!
//! - the **clean baseline** establishes the reference checksum;
//! - the **unprotected run** feeds the same corrupting fault plan to a
//!   runtime without the integrity service — poison is consumed
//!   silently and the result (usually) diverges, which is exactly the
//!   failure mode the service exists to close;
//! - the **verified run** enables `RtConfig::with_integrity` and must
//!   reproduce the baseline bit for bit, with every corruption detected
//!   and none delivered.
//!
//! ```text
//! cargo run --release --example integrity
//! ```

use allscale_apps::stencil::{allscale_version, StencilConfig};
use allscale_core::{FaultPlan, IntegrityConfig, RtConfig};
use allscale_des::SimTime;
use allscale_net::Verdict;

const NODES: usize = 8;
const CORES: usize = 4;
const CORRUPT_RATE: f64 = 0.001; // 0.1% of messages arrive mangled

/// A seed whose corruption stream strikes within the first 100 remote
/// messages. At 0.1% most seeds would leave this (deterministic) demo
/// corruption-free; scanning for an early striker keeps the injected
/// rate honest while guaranteeing there is something to detect.
fn striking_seed() -> u64 {
    (0u64..)
        .find(|&s| {
            let mut probe = FaultPlan::new(s).with_corruption(CORRUPT_RATE);
            (0..100).any(|_| probe.judge(SimTime::from_nanos(0), 0, 1) == Verdict::Corrupt)
        })
        .expect("some seed corrupts an early message")
}

fn stencil_config() -> StencilConfig {
    // Big enough that thousands of halo-exchange messages cross the
    // wire — at a 0.1% corruption rate the fault plan then reliably
    // strikes a handful of them.
    StencilConfig {
        nodes: NODES,
        rows_per_node: 64,
        cols: 64,
        steps: 6,
        validate: true,
        work_scale: 1.0,
    }
}

fn main() {
    let cfg = stencil_config();
    let seed = striking_seed();

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

    // The ablation: same corrupting fabric, no integrity service. The
    // runtime consumes whatever arrives; the checksum documents the
    // damage (it may coincide by luck on a lucky seed — that is the
    // point of *silent* corruption, so nothing is asserted about it).
    let mut unprotected = RtConfig::test(NODES, CORES);
    unprotected.faults = Some(FaultPlan::new(seed).with_corruption(CORRUPT_RATE));
    println!(
        "\nunprotected run ({:.2}% wire corruption, no verification):",
        CORRUPT_RATE * 100.0
    );
    let (poisoned, poisoned_report) = allscale_version::run_with_report(&cfg, unprotected);
    let pg = &poisoned_report.traffic;
    println!(
        "  checksum {:#018x} ({}), {} corruptions delivered undetected",
        poisoned.checksum,
        if poisoned.checksum == clean.checksum {
            "coincidentally intact"
        } else {
            "diverged"
        },
        pg.corrupt_undetected,
    );

    // The verified run: identical fault plan, integrity on. Detected
    // corruptions are re-requested under the retry policy; the result
    // must match the baseline exactly.
    let mut verified = RtConfig::test(NODES, CORES).with_integrity(IntegrityConfig {
        scrub_period: None, // no replicas rot here; scrubbing is idle
    });
    verified.faults = Some(FaultPlan::new(seed).with_corruption(CORRUPT_RATE));
    println!("\nverified run (same fault plan, checksummed transfers):");
    let (repaired, report) = allscale_version::run_with_report(&cfg, verified);
    print!("{}", report.summary());

    let t = &report.traffic;
    println!(
        "\n  clean    checksum: {:#018x}\n  verified checksum: {:#018x}",
        clean.checksum, repaired.checksum,
    );
    assert!(
        repaired.validated,
        "verified run must validate against the oracle"
    );
    assert_eq!(
        clean.checksum, repaired.checksum,
        "verified transfers must reproduce the failure-free result bit-identically"
    );
    assert!(
        t.corrupted >= 1,
        "the fault plan must actually have corrupted something \
         (got {t:?}; raise CORRUPT_RATE or steps if this trips)"
    );
    assert_eq!(
        t.corrupt_detected, t.corrupted,
        "every injected corruption must be caught by the checksum"
    );
    assert_eq!(
        t.corrupt_undetected, 0,
        "no poison may reach the application"
    );
    assert!(
        t.re_requests >= 1,
        "detected corruptions must be repaired by re-requesting the transfer"
    );
    println!(
        "\n{} corruptions injected, {} detected, {} re-requests, 0 undetected — \
         bit-identical result ✓",
        t.corrupted, t.corrupt_detected, t.re_requests,
    );
}
