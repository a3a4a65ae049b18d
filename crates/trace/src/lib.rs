//! # allscale-trace — structured tracing & profiling
//!
//! The paper's prototype leaned on an "extended monitoring
//! infrastructure" (Section 3.2) to observe scheduling, data movement and
//! index traffic; the runtime's [`Monitor`] scopes that to end-of-run
//! counters. This crate is the per-event side: a zero-cost-when-disabled
//! subsystem recording timestamped spans and instants *on the simulated
//! clock* into bounded per-locality ring buffers, plus two consumers of
//! the finished stream:
//!
//! - a **Chrome trace-event exporter** ([`Trace::to_chrome_json`]) whose
//!   output loads in Perfetto / `chrome://tracing`, with one track per
//!   locality·core and flow arrows linking `spawn → execute` and
//!   `send → receive`;
//! - a **critical-path analyzer** ([`critical_path`]) that walks the span
//!   graph of a finished run and attributes the longest dependency chain
//!   to compute / transfer / index / lock-wait / recovery-replay time.
//!
//! Recording never touches the simulated clock: a traced run and an
//! untraced run of the same program produce identical `RunReport`s, and
//! the same seed always produces a byte-identical export — both are
//! regression-tested.
//!
//! [`Monitor`]: https://docs.rs/allscale-core
//!
//! ## Example
//!
//! ```
//! use allscale_trace::{critical_path, EventKind, TraceConfig, TraceEvent, TraceSink};
//!
//! let sink = TraceSink::enabled(1, &TraceConfig::default());
//! sink.record(|| TraceEvent::span(0, 500, 0, EventKind::TaskExec { task: 7 }).on_core(0));
//! sink.record(|| TraceEvent::instant(500, 0, EventKind::TaskEnd { task: 7, parent: None }));
//! let trace = sink.take().unwrap();
//! assert!(trace.to_chrome_json().contains("\"ph\":\"X\""));
//! assert_eq!(critical_path(&trace).total_ns, 500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod critical_path;
mod event;
mod sink;

pub use chrome::RUNTIME_TID;
pub use critical_path::{critical_path, CriticalPathReport, PathCategory, PathSegment};
pub use event::{EventKind, FlushCause, SpawnVariant, TraceEvent, TransferPurpose};
pub use sink::{Trace, TraceBuffer, TraceConfig, TraceSink};
