//! Cost of the structured tracing subsystem, measured end-to-end on a
//! task-dense workload (many tiny tasks → maximum events per unit of
//! simulated work):
//!
//! - `disabled`: tracing compiled in but off — the sink is a `None`, so
//!   every record site is one branch. This is the configuration every
//!   normal run pays; it should be indistinguishable from the pre-tracing
//!   runtime.
//! - `enabled`: full recording into the per-locality rings.
//! - `enabled_export`: recording plus the Chrome JSON serialization.
//!
//! EXPERIMENTS.md quotes the resulting overhead numbers.

use criterion::{criterion_group, criterion_main, Criterion};

use allscale_core::{
    pfor, Grid, PforSpec, Requirement, RtConfig, RtCtx, RunReport, Runtime, TaskValue, TraceConfig,
    WorkItem,
};
use allscale_region::BoxRegion;

const NODES: usize = 4;
const LEAVES: i64 = 512;

/// One pfor of `LEAVES` single-element tasks: every task generates spawn,
/// forward, first-touch/replicate, exec, end and result events.
fn run_tasks(trace: Option<TraceConfig>) -> RunReport {
    let mut cfg = RtConfig::test(NODES, 4);
    cfg.trace = trace;
    let runtime = Runtime::new(cfg);
    runtime.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            if phase > 0 {
                return None;
            }
            let g = Grid::<u64, 1>::create(ctx, "v", [LEAVES]);
            Some(pfor(
                PforSpec {
                    name: "noop-tasks",
                    range: g.full_box(),
                    grain: 1,
                    ns_per_point: 100.0,
                    axis0_pieces: NODES as u64,
                },
                move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
                move |tctx, p| {
                    g.set(tctx, p.0, 1);
                },
            ))
        },
    )
}

fn bench_trace_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(10);
    g.bench_function("disabled", |b| {
        b.iter(|| run_tasks(None));
    });
    g.bench_function("enabled", |b| {
        b.iter(|| run_tasks(Some(TraceConfig::default())));
    });
    g.bench_function("enabled_export", |b| {
        b.iter(|| {
            let report = run_tasks(Some(TraceConfig::default()));
            report.trace.as_ref().unwrap().to_chrome_json().len()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
