//! Chrome trace-event JSON export (the format `chrome://tracing` and
//! Perfetto load).
//!
//! Layout: one *process* per locality (`pid` = locality), one *thread*
//! per compute core (`tid` = core index) plus a `runtime` track (`tid` =
//! [`RUNTIME_TID`]) carrying communication, index and lifecycle events.
//! Task spans become complete (`"X"`) events, instants become `"i"`
//! events, and two families of flow arrows are emitted: `spawn → execute`
//! for every task (flow id `t<task>`) and `send → receive` for every
//! transfer (flow id `x<event-id>`).
//!
//! The output is built with deterministic integer formatting only — the
//! same trace always serializes to the same bytes, which the determinism
//! test relies on.

use std::fmt::Write;

use crate::event::{EventKind, TraceEvent, Value};
use crate::sink::Trace;

/// The `tid` of each locality's communication/runtime track.
pub const RUNTIME_TID: i64 = 1000;

/// Microsecond timestamp with fixed 3-decimal nanosecond fraction.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn tid_of(ev: &TraceEvent) -> i64 {
    if ev.core >= 0 {
        ev.core as i64
    } else {
        RUNTIME_TID
    }
}

/// Append one JSON event object (no trailing comma).
#[allow(clippy::too_many_arguments)]
fn emit(
    out: &mut String,
    name: &str,
    cat: &str,
    ph: &str,
    ts_ns: u64,
    pid: u32,
    tid: i64,
    extra: &str,
) {
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":{pid},\"tid\":{tid}{extra}}}",
        ts = us(ts_ns),
    );
}

/// The event's `args` object: its epoch, then the fields of its kind in
/// declaration order. An absent option is left out, a label is quoted, and
/// the field that names the event is not repeated.
fn args_of(ev: &TraceEvent) -> String {
    let mut a = format!(",\"args\":{{\"epoch\":{}", ev.epoch);
    ev.kind.fields(|name, value, names_event| {
        let _ = match value {
            _ if names_event => Ok(()),
            Value::None => Ok(()),
            Value::Int(v) => write!(a, ",\"{name}\":{v}"),
            Value::Bool(b) => write!(a, ",\"{name}\":{b}"),
            Value::Label(l) => write!(a, ",\"{name}\":\"{l}\""),
        };
    });
    a.push('}');
    a
}

impl Trace {
    /// Serialize to Chrome trace-event JSON (an object with a
    /// `traceEvents` array), loadable in Perfetto / `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.events.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };

        // Track discovery: cores used per locality (for thread metadata),
        // plus the flush time of every recorded batch so member sends can
        // anchor their flow arrows at the flush slice.
        let mut max_core = vec![-1i32; self.nodes];
        let mut spawned: Vec<u64> = Vec::new();
        let mut executed: Vec<u64> = Vec::new();
        let mut flushes: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for ev in &self.events {
            if (ev.loc as usize) < self.nodes && ev.core > max_core[ev.loc as usize] {
                max_core[ev.loc as usize] = ev.core;
            }
            match ev.kind {
                EventKind::TaskSpawn { task, .. } => spawned.push(task),
                EventKind::TaskExec { task, .. } => executed.push(task),
                EventKind::BatchFlush { batch, .. } => {
                    flushes.insert(batch, ev.ts_ns);
                }
                _ => {}
            }
        }
        spawned.sort_unstable();
        executed.sort_unstable();

        // Metadata: process and thread names.
        for (loc, &top_core) in max_core.iter().enumerate() {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{loc},\"tid\":0,\"args\":{{\"name\":\"locality {loc}\"}}}}",
            );
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":{loc},\"tid\":0,\"args\":{{\"sort_index\":{loc}}}}}",
            );
            for core in 0..=top_core {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{loc},\"tid\":{core},\"args\":{{\"name\":\"core {core}\"}}}}",
                );
            }
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{loc},\"tid\":{RUNTIME_TID},\"args\":{{\"name\":\"runtime\"}}}}",
            );
        }

        for ev in &self.events {
            let name = ev.kind.name();
            let cat = ev.kind.category();
            let args = args_of(ev);
            match ev.kind {
                // Transfers: a zero-duration send slice at the source, the
                // flight span at the destination, and a flow arrow. A
                // batched member's arrow ends at its batch's flush slice
                // (same locality, flush time) instead of at the receiver —
                // the batching wait is the visible gap it crosses.
                EventKind::Transfer {
                    src, dst, batch, ..
                } => {
                    sep(&mut out);
                    let extra = format!(",\"dur\":0{args}");
                    emit(
                        &mut out,
                        "send",
                        cat,
                        "X",
                        ev.ts_ns,
                        src,
                        RUNTIME_TID,
                        &extra,
                    );
                    sep(&mut out);
                    let extra = format!(",\"dur\":{}{args}", us(ev.dur_ns));
                    emit(&mut out, name, cat, "X", ev.ts_ns, dst, RUNTIME_TID, &extra);
                    let flush_ts = batch.and_then(|b| flushes.get(&b).copied());
                    sep(&mut out);
                    let extra = format!(",\"id\":\"x{}\"", ev.id);
                    emit(
                        &mut out,
                        "wire",
                        "flow-net",
                        "s",
                        ev.ts_ns,
                        src,
                        RUNTIME_TID,
                        &extra,
                    );
                    sep(&mut out);
                    let extra = format!(",\"bp\":\"e\",\"id\":\"x{}\"", ev.id);
                    match flush_ts {
                        Some(ts) => emit(
                            &mut out,
                            "wire",
                            "flow-net",
                            "f",
                            ts,
                            src,
                            RUNTIME_TID,
                            &extra,
                        ),
                        None => emit(
                            &mut out,
                            "wire",
                            "flow-net",
                            "f",
                            ev.end_ns(),
                            dst,
                            RUNTIME_TID,
                            &extra,
                        ),
                    }
                }
                // Batch flushes: a flush slice at the source (the anchor
                // member arrows point at), the batch span at the
                // destination, and the wire arrow of the priced message.
                EventKind::BatchFlush {
                    src, dst, batch, ..
                } => {
                    sep(&mut out);
                    let extra = format!(",\"dur\":0{args}");
                    emit(
                        &mut out,
                        "flush",
                        cat,
                        "X",
                        ev.ts_ns,
                        src,
                        RUNTIME_TID,
                        &extra,
                    );
                    sep(&mut out);
                    let extra = format!(",\"dur\":{}{args}", us(ev.dur_ns));
                    emit(&mut out, name, cat, "X", ev.ts_ns, dst, RUNTIME_TID, &extra);
                    sep(&mut out);
                    let extra = format!(",\"id\":\"b{batch}\"");
                    emit(
                        &mut out,
                        "wire",
                        "flow-net",
                        "s",
                        ev.ts_ns,
                        src,
                        RUNTIME_TID,
                        &extra,
                    );
                    sep(&mut out);
                    let extra = format!(",\"bp\":\"e\",\"id\":\"b{batch}\"");
                    emit(
                        &mut out,
                        "wire",
                        "flow-net",
                        "f",
                        ev.end_ns(),
                        dst,
                        RUNTIME_TID,
                        &extra,
                    );
                }
                // Spawns: a zero-duration slice (so the flow anchors) plus
                // the spawn→execute flow start when the task ran.
                EventKind::TaskSpawn { task, .. } => {
                    sep(&mut out);
                    let extra = format!(",\"dur\":0{args}");
                    emit(
                        &mut out,
                        name,
                        cat,
                        "X",
                        ev.ts_ns,
                        ev.loc,
                        tid_of(ev),
                        &extra,
                    );
                    if executed.binary_search(&task).is_ok() {
                        sep(&mut out);
                        let extra = format!(",\"id\":\"t{task}\"");
                        emit(
                            &mut out,
                            "task",
                            "flow-task",
                            "s",
                            ev.ts_ns,
                            ev.loc,
                            tid_of(ev),
                            &extra,
                        );
                    }
                }
                EventKind::TaskExec { task, .. } => {
                    sep(&mut out);
                    let extra = format!(",\"dur\":{}{args}", us(ev.dur_ns));
                    emit(
                        &mut out,
                        name,
                        cat,
                        "X",
                        ev.ts_ns,
                        ev.loc,
                        tid_of(ev),
                        &extra,
                    );
                    if spawned.binary_search(&task).is_ok() {
                        sep(&mut out);
                        let extra = format!(",\"bp\":\"e\",\"id\":\"t{task}\"");
                        emit(
                            &mut out,
                            "task",
                            "flow-task",
                            "f",
                            ev.ts_ns,
                            ev.loc,
                            tid_of(ev),
                            &extra,
                        );
                    }
                }
                _ if ev.dur_ns > 0 => {
                    sep(&mut out);
                    let extra = format!(",\"dur\":{}{args}", us(ev.dur_ns));
                    emit(
                        &mut out,
                        name,
                        cat,
                        "X",
                        ev.ts_ns,
                        ev.loc,
                        tid_of(ev),
                        &extra,
                    );
                }
                _ => {
                    sep(&mut out);
                    let extra = format!(",\"s\":\"t\"{args}");
                    emit(
                        &mut out,
                        name,
                        cat,
                        "i",
                        ev.ts_ns,
                        ev.loc,
                        tid_of(ev),
                        &extra,
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TransferPurpose;
    use crate::sink::{TraceConfig, TraceSink};

    fn sample_trace() -> Trace {
        let sink = TraceSink::enabled(2, &TraceConfig::default());
        sink.record(|| {
            TraceEvent::instant(
                0,
                0,
                EventKind::TaskSpawn {
                    task: 1,
                    parent: None,
                    variant: crate::SpawnVariant::Process,
                    target: 1,
                },
            )
        });
        sink.record(|| {
            TraceEvent::span(
                100,
                400,
                1,
                EventKind::Transfer {
                    purpose: TransferPurpose::TaskForward,
                    src: 0,
                    dst: 1,
                    bytes: 64,
                    task: Some(1),
                    item: None,
                    batch: None,
                },
            )
        });
        sink.record(|| TraceEvent::span(500, 2000, 1, EventKind::TaskExec { task: 1 }).on_core(0));
        sink.record(|| {
            TraceEvent::instant(
                2500,
                1,
                EventKind::TaskEnd {
                    task: 1,
                    parent: None,
                },
            )
        });
        sink.take().unwrap()
    }

    #[test]
    fn export_is_wellformed_and_deterministic() {
        let t = sample_trace();
        let a = t.to_chrome_json();
        let b = t.to_chrome_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(a.ends_with("]}"));
        // Balanced braces is a cheap well-formedness smoke test; the CI
        // job runs the real parser (jq) over the example's export.
        let open = a.matches('{').count();
        let close = a.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn export_contains_tracks_spans_and_flows() {
        let json = sample_trace().to_chrome_json();
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"core 0\""));
        assert!(json.contains("\"name\":\"runtime\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"ph\":\"f\""));
        // Task flow links spawn and exec by task id.
        assert!(json.contains("\"id\":\"t1\""));
        // Microsecond timestamps carry the ns fraction.
        assert!(json.contains("\"ts\":0.100"));
    }

    /// One event of every kind, each field holding a value no other field
    /// holds. Each label's `Debug` form, lower-cased, is its name.
    fn one_of_every_kind() -> Vec<EventKind> {
        use crate::event::{FlushCause, SpawnVariant};
        use EventKind::*;
        vec![
            TaskSpawn {
                task: 1,
                parent: Some(2),
                variant: SpawnVariant::Split,
                target: 3,
            },
            TaskSplit { task: 4 },
            TaskExec { task: 5 },
            TaskEnd {
                task: 6,
                parent: Some(7),
            },
            TaskParked { task: 8 },
            ItemCreate { item: 9 },
            ItemDestroy { item: 10 },
            FirstTouch { item: 11, task: 12 },
            Transfer {
                purpose: TransferPurpose::Migrate,
                src: 13,
                dst: 14,
                bytes: 15,
                task: Some(16),
                item: Some(17),
                batch: Some(18),
            },
            BatchFlush {
                src: 19,
                dst: 20,
                msgs: 21,
                bytes: 22,
                cause: FlushCause::Bytes,
                batch: 23,
            },
            TransferLost {
                purpose: TransferPurpose::Scrub,
                src: 24,
                dst: 25,
                bytes: 26,
                task: Some(27),
            },
            IndexLookup {
                item: 28,
                hops: 29,
                cache_hit: true,
            },
            IndexUpdate { item: 30, hops: 31 },
            NetDrop {
                src: 32,
                dst: 33,
                bytes: 34,
            },
            NetDelay {
                src: 35,
                dst: 36,
                extra_ns: 37,
            },
            NetRetry {
                src: 38,
                dst: 39,
                attempt: 40,
                backoff_ns: 41,
            },
            NetCorrupt {
                src: 42,
                dst: 43,
                bytes: 44,
                detected: true,
            },
            ScrubPass {
                replicas: 45,
                divergent: 46,
            },
            ScrubRepair {
                item: 47,
                owner: 48,
                bytes: 49,
            },
            Quarantine {
                item: 50,
                strikes: 51,
            },
            Checkpoint {
                phase: 52,
                bytes: 53,
            },
            CheckpointDrain {
                phase: 54,
                shards: 55,
                bytes: 56,
            },
            CheckpointFence { phase: 57 },
            CheckpointTorn { phase: 58 },
            Suspicion {
                suspect: 59,
                misses: 60,
            },
            Recovery {
                dead: 61,
                phase: 62,
                restored_bytes: 63,
            },
            StealRequest {
                thief: 64,
                victim: 65,
            },
            StealGrant {
                victim: 66,
                thief: 67,
                task: 68,
            },
            StealDeny {
                victim: 69,
                thief: 70,
            },
            RequestArrival {
                req: 71,
                shard: 72,
                write: true,
            },
            Request {
                req: 73,
                shard: 74,
                write: true,
            },
            RequestAdmit { req: 75, task: 76 },
            RequestShed { req: 77, shard: 78 },
            SloReplicate {
                shard: 79,
                p99_ns: 80,
            },
            SloRetire { shard: 81 },
            PhaseBegin { phase: 82 },
            PhaseEnd { phase: 83 },
        ]
    }

    /// Every field of every kind reaches the export: in the event's args
    /// as `"field":value` (an option by its content, a label quoted), or
    /// as the event's name for the field that names it. Reads the fields
    /// off each kind's `Debug` form, so it is written against the enum
    /// alone.
    #[test]
    fn every_field_reaches_the_export() {
        let kinds = one_of_every_kind();
        let names: std::collections::BTreeSet<&str> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 37, "one event of each of the 37 kinds");
        for kind in kinds {
            let args = args_of(&TraceEvent::instant(0, 0, kind));
            let debug = format!("{kind:?}");
            let (_, fields) = debug.split_once(" { ").unwrap();
            for field in fields.trim_end_matches(" }").split(", ") {
                let (name, value) = field.split_once(": ").unwrap();
                let value = value.trim_start_matches("Some(").trim_end_matches(')');
                let label = value
                    .starts_with(char::is_uppercase)
                    .then(|| value.to_lowercase());
                let exported = match &label {
                    Some(l) => format!("\"{name}\":\"{l}\""),
                    None => format!("\"{name}\":{value}"),
                };
                assert!(
                    args.contains(&exported) || label.as_deref() == Some(kind.name()),
                    "{debug}: `{name}` is missing from {args}"
                );
            }
        }
    }

    #[test]
    fn timestamps_format_as_fixed_point_microseconds() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(1000), "1.000");
        assert_eq!(us(1234567), "1234.567");
    }
}
