//! Tracing probes (home: `stencil_64`): the cost of recording with the
//! sink on, and of the two consumers of a finished trace.

use std::hint::black_box;

use allscale_apps::stencil::{allscale_version, StencilConfig};
use allscale_core::{RtConfig, Trace, TraceConfig};
use allscale_trace::{EventKind, TraceEvent, TraceSink};

use super::per_op;

/// `TraceSink::record` into enabled rings (drained once per batch).
pub fn record(_seed: u64, seconds: f64) -> f64 {
    const N: u64 = 100_000;
    let sink = TraceSink::enabled(4, &TraceConfig::default());
    per_op(seconds, N, || {
        for i in 0..N {
            sink.record(|| {
                TraceEvent::span(i * 10, 5, (i % 4) as u32, EventKind::TaskExec { task: i })
            });
        }
        black_box(sink.take().map_or(0, |t| t.len()));
    })
}

/// The trace of a small traced stencil run, for the consumers below.
fn sample_trace() -> Trace {
    let cfg = StencilConfig {
        validate: false,
        ..StencilConfig::small(4)
    };
    let mut rt = RtConfig::meggie(4);
    rt.trace = Some(TraceConfig::default());
    let (_, report) = allscale_version::run_with_report(&cfg, rt);
    report.trace.expect("tracing was on")
}

/// `Trace::to_chrome_json`, per event exported.
pub fn export(_seed: u64, seconds: f64) -> f64 {
    let trace = sample_trace();
    per_op(seconds, trace.len() as u64, || {
        black_box(trace.to_chrome_json().len());
    })
}

/// `critical_path`, per event analysed.
pub fn critical_path(_seed: u64, seconds: f64) -> f64 {
    let trace = sample_trace();
    per_op(seconds, trace.len() as u64, || {
        black_box(allscale_core::critical_path(&trace).total_ns);
    })
}
