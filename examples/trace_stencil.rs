//! Tracing walkthrough: run the 2D stencil with the structured trace
//! sink enabled, export a Chrome trace-event JSON (load it at
//! `ui.perfetto.dev` or `chrome://tracing`), and explain the makespan
//! with the critical-path analyzer. The run report's JSON
//! (`RunReport::to_json`) is written next to the trace, with the extension
//! `.report.json`.
//!
//! ```text
//! cargo run --release --example trace_stencil                 # 4 nodes
//! cargo run --release --example trace_stencil -- 8 out.json   # 8 nodes, custom path
//! ```
//!
//! The stencil's per-step halo reads force boundary-exchange `replicate`
//! transfers between neighbouring localities; the example asserts that
//! the analyzer attributes them on the critical path — the acceptance
//! check wired into CI.

use std::path::PathBuf;

use allscale_apps::stencil::{allscale_version, StencilConfig};
use allscale_core::{EventKind, PathCategory, RtConfig, TraceConfig, TransferPurpose};

fn main() {
    let nodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let out: PathBuf = std::env::args()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/trace_stencil.json"));

    let cfg = StencilConfig {
        nodes,
        rows_per_node: 64,
        cols: 64,
        steps: 4,
        validate: true,
        work_scale: 1.0,
    };
    let mut rt_cfg = RtConfig::meggie(nodes);
    rt_cfg.trace = Some(TraceConfig::default());

    println!(
        "traced 2D stencil, {} x {} grid, {} steps, {} nodes",
        cfg.total_rows(),
        cfg.cols,
        cfg.steps,
        nodes
    );
    let (result, report) = allscale_version::run_with_report(&cfg, rt_cfg);
    assert!(
        result.validated,
        "stencil must still match the oracle when traced"
    );

    println!("\nrun summary:\n{}", report.summary());

    // ---- export the Chrome trace ------------------------------------
    let trace = report
        .trace
        .as_ref()
        .expect("RtConfig::trace was set, so the report carries a trace");
    let replicates = trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::Transfer {
                    purpose: TransferPurpose::Replicate,
                    ..
                }
            )
        })
        .count();
    println!(
        "trace: {} events over {} localities ({} dropped), {} boundary-exchange replicate transfers",
        trace.len(),
        trace.nodes,
        trace.total_dropped(),
        replicates
    );
    assert!(
        replicates > 0,
        "halo reads across node boundaries must show up as replicate transfers"
    );

    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    let json = trace.to_chrome_json();
    std::fs::write(&out, &json).expect("write Chrome trace JSON");
    println!(
        "wrote {} ({} bytes) — load it at ui.perfetto.dev",
        out.display(),
        json.len()
    );
    let report_out = out.with_extension("report.json");
    std::fs::write(&report_out, report.to_json()).expect("write the report JSON");
    println!("wrote {}", report_out.display());

    // ---- critical-path analysis -------------------------------------
    let cp = report
        .critical_path()
        .expect("traced run has a critical path");
    println!("\n{}", cp.summary());

    assert_eq!(
        cp.attributed_ns(),
        cp.total_ns,
        "every nanosecond of the makespan is attributed to a category"
    );
    assert!(
        cp.category_ns(PathCategory::Compute) > 0,
        "the stencil's cell updates must appear as compute time"
    );
    let transfer_ns = cp.category_ns(PathCategory::Transfer);
    let boundary_on_path = cp
        .segments
        .iter()
        .any(|s| s.category == PathCategory::Transfer && s.label.contains("replicate"));
    assert!(
        transfer_ns > 0,
        "cross-node task forwards / halo exchanges must appear as transfer time"
    );
    assert!(
        boundary_on_path,
        "a boundary-exchange replicate transfer must gate the critical path"
    );
    println!(
        "critical path attributes the boundary exchange: {:.1}% transfer time, replicate on path ✓",
        transfer_ns as f64 * 100.0 / cp.attributed_ns().max(1) as f64
    );
}
