//! Critical-path analysis over a finished trace.
//!
//! A run's makespan is explained by one chain of causally dependent
//! events: the last phase's root completed because its slowest child
//! completed, which executed only after its data transfers arrived, which
//! were sent only after the task was forwarded, which was spawned by its
//! parent's split, … back through every phase barrier to time zero. The
//! analyzer reconstructs that chain from the event stream and attributes
//! every nanosecond of it to a category:
//!
//! - **compute** — task bodies and split overhead occupying cores;
//! - **transfer** — network flight time of forwards, data movement and
//!   results on the chain;
//! - **index** — otherwise-idle chain gaps in which the gating locality
//!   was doing index traffic (lookups/updates);
//! - **lock-wait** — time a gating task sat parked on a lock conflict;
//! - **recovery-replay** — chain time inside a replay window (between a
//!   recovery and the first phase that surpasses pre-failure progress),
//!   regardless of its base category;
//! - **runtime** — remaining gaps (queueing, scheduling overhead).
//!
//! The walk is defensive: a trace truncated by ring overflow yields a
//! partial chain rather than a panic. It sorts the root end times and
//! each locality's index-event times once, so linking a root to the one
//! before it and classifying a gap are binary searches, and the whole
//! analysis is O(n log n) in the trace's events.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::event::{EventKind, TransferPurpose};
use crate::sink::Trace;

/// Attribution category of one chain segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PathCategory {
    /// Task bodies and split overhead on cores.
    Compute,
    /// Network flight time on the chain.
    Transfer,
    /// Chain gaps dominated by index traffic.
    Index,
    /// Parked-on-lock-conflict time.
    LockWait,
    /// Chain time spent re-executing work after a recovery.
    RecoveryReplay,
    /// Unattributed gaps: queueing and scheduling overhead.
    Runtime,
}

impl PathCategory {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PathCategory::Compute => "compute",
            PathCategory::Transfer => "transfer",
            PathCategory::Index => "index",
            PathCategory::LockWait => "lock-wait",
            PathCategory::RecoveryReplay => "recovery-replay",
            PathCategory::Runtime => "runtime",
        }
    }

    /// All categories, in report order.
    pub const ALL: [PathCategory; 6] = [
        PathCategory::Compute,
        PathCategory::Transfer,
        PathCategory::Index,
        PathCategory::LockWait,
        PathCategory::RecoveryReplay,
        PathCategory::Runtime,
    ];
}

/// One contiguous piece of the critical path.
#[derive(Debug, Clone)]
pub struct PathSegment {
    /// Segment start, simulated ns.
    pub start_ns: u64,
    /// Segment end, simulated ns.
    pub end_ns: u64,
    /// The locality the chain was gated at.
    pub loc: u32,
    /// Base attribution (before replay-window reclassification).
    pub category: PathCategory,
    /// Human-readable description ("exec task 42", "replicate 8192 B 0→3").
    pub label: String,
}

impl PathSegment {
    /// Segment length in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The analyzer's result: the chain and its per-category attribution.
#[derive(Debug, Clone)]
pub struct CriticalPathReport {
    /// End of the chain — the simulated completion time explained.
    pub total_ns: u64,
    /// Chain segments in chronological order, non-overlapping.
    pub segments: Vec<PathSegment>,
    /// Nanoseconds attributed to each category (replay windows already
    /// carved out into [`PathCategory::RecoveryReplay`]).
    pub by_category: Vec<(PathCategory, u64)>,
}

impl CriticalPathReport {
    /// Nanoseconds attributed to `cat`.
    pub fn category_ns(&self, cat: PathCategory) -> u64 {
        self.by_category
            .iter()
            .find(|(c, _)| *c == cat)
            .map(|(_, ns)| *ns)
            .unwrap_or(0)
    }

    /// Sum of all attributed chain time.
    pub fn attributed_ns(&self) -> u64 {
        self.by_category.iter().map(|(_, ns)| ns).sum()
    }

    /// Render a human-readable report: totals per category plus the
    /// longest individual segments.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path: {:.3} ms over {} segments",
            self.total_ns as f64 / 1e6,
            self.segments.len()
        );
        let total = self.attributed_ns().max(1);
        for (cat, ns) in &self.by_category {
            if *ns == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:15} {:>12.3} ms  ({:5.1}%)",
                cat.name(),
                *ns as f64 / 1e6,
                *ns as f64 * 100.0 / total as f64
            );
        }
        let mut longest: Vec<&PathSegment> = self.segments.iter().collect();
        longest.sort_by_key(|s| std::cmp::Reverse(s.ns()));
        for seg in longest.iter().take(5) {
            let _ = writeln!(
                out,
                "  ▸ [{:>12.3} .. {:>12.3}] µs  {:10} @loc {:<3} {}",
                seg.start_ns as f64 / 1e3,
                seg.end_ns as f64 / 1e3,
                seg.category.name(),
                seg.loc,
                seg.label
            );
        }
        out
    }
}

#[derive(Default)]
struct TaskRec {
    spawn: Option<(u64, u32, Option<u64>)>,
    split: Option<(u64, u64, u32)>,
    exec: Option<(u64, u64, u32)>,
    end: Option<(u64, u32)>,
    park: Option<u64>,
    /// Changed hands via work stealing: its latest forward hop is the
    /// victim→thief handoff and is labeled as such.
    stolen: bool,
    children: Vec<u64>,
    /// (start, dur, purpose, src, dst, bytes) of transfers tagged with
    /// this task.
    transfers: Vec<(u64, u64, TransferPurpose, u32, u32, u64)>,
}

/// Walk state: builds the chain backwards with gap filling.
struct Walker<'a> {
    cursor: u64,
    segments: Vec<PathSegment>,
    /// Each locality's index-event times, sorted.
    index_ts: &'a BTreeMap<u32, Vec<u64>>,
}

impl Walker<'_> {
    /// Push `seg` (which must end at or before the cursor); the gap up to
    /// the cursor, if any, becomes an index or runtime segment at `seg`'s
    /// locality. Advances the cursor to `seg.start_ns`.
    fn push(&mut self, mut seg: PathSegment) {
        if seg.start_ns >= self.cursor {
            return; // out of causal order (truncated trace) — skip
        }
        seg.end_ns = seg.end_ns.min(self.cursor);
        if seg.end_ns < self.cursor {
            self.fill_gap(seg.end_ns, seg.loc);
        }
        self.cursor = seg.start_ns;
        self.segments.push(seg);
    }

    /// Close the chain down to `to` with a gap segment.
    fn fill_gap(&mut self, to: u64, loc: u32) {
        if to >= self.cursor {
            return;
        }
        let (start, end) = (to, self.cursor);
        let indexed = self.index_ts.get(&loc).is_some_and(|ts| {
            let after = ts.partition_point(|&t| t <= start);
            ts.get(after).is_some_and(|&t| t <= end)
        });
        self.segments.push(PathSegment {
            start_ns: start,
            end_ns: end,
            loc,
            category: if indexed {
                PathCategory::Index
            } else {
                PathCategory::Runtime
            },
            label: if indexed {
                "index traffic".into()
            } else {
                "queue / overhead".into()
            },
        });
        self.cursor = start;
    }
}

/// Analyze `trace` and return the critical-path report. An empty or
/// taskless trace yields an empty report.
pub fn critical_path(trace: &Trace) -> CriticalPathReport {
    let mut tasks: BTreeMap<u64, TaskRec> = BTreeMap::new();
    let mut index_ts: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    let mut phase_begins: Vec<(u32, u64)> = Vec::new();
    let mut recoveries: Vec<u64> = Vec::new();

    for ev in &trace.events {
        match ev.kind {
            EventKind::TaskSpawn { task, parent, .. } => {
                let rec = tasks.entry(task).or_default();
                rec.spawn = Some((ev.ts_ns, ev.loc, parent));
                if let Some(p) = parent {
                    tasks.entry(p).or_default().children.push(task);
                }
            }
            EventKind::TaskSplit { task } => {
                tasks.entry(task).or_default().split = Some((ev.ts_ns, ev.dur_ns, ev.loc));
            }
            EventKind::TaskExec { task } => {
                tasks.entry(task).or_default().exec = Some((ev.ts_ns, ev.dur_ns, ev.loc));
            }
            EventKind::TaskEnd { task, parent } => {
                let rec = tasks.entry(task).or_default();
                rec.end = Some((ev.ts_ns, ev.loc));
                if let Some(p) = parent {
                    tasks.entry(p).or_default().children.push(task);
                }
            }
            EventKind::TaskParked { task } => {
                let rec = tasks.entry(task).or_default();
                if rec.park.is_none() {
                    rec.park = Some(ev.ts_ns);
                }
            }
            EventKind::Transfer {
                purpose,
                src,
                dst,
                bytes,
                task: Some(task),
                ..
            } => {
                tasks
                    .entry(task)
                    .or_default()
                    .transfers
                    .push((ev.ts_ns, ev.dur_ns, purpose, src, dst, bytes));
            }
            EventKind::IndexLookup { .. } | EventKind::IndexUpdate { .. } => {
                index_ts.entry(ev.loc).or_default().push(ev.ts_ns);
            }
            EventKind::PhaseBegin { phase } => phase_begins.push((phase, ev.ts_ns)),
            EventKind::Recovery { .. } => recoveries.push(ev.ts_ns),
            EventKind::StealGrant { task, .. } => tasks.entry(task).or_default().stolen = true,
            _ => {}
        }
    }

    // A child is named by its spawn and again by its end; the gating
    // child is a maximum, so the order of a parent's children is free.
    for rec in tasks.values_mut() {
        rec.children.sort_unstable();
        rec.children.dedup();
    }
    index_ts.values_mut().for_each(|ts| ts.sort_unstable());
    // Completed roots by end time: a root's spawn chains to the latest
    // other root ending at or before it.
    let mut roots: Vec<(u64, u64)> = tasks
        .iter()
        .filter_map(|(id, r)| {
            let (end, _) = r.end?;
            let parent = r.spawn.and_then(|(_, _, parent)| parent);
            parent.is_none().then_some((end, *id))
        })
        .collect();
    roots.sort_unstable();

    // The chain's anchor: the task end that explains the finish time.
    let last = tasks
        .iter()
        .filter_map(|(id, r)| r.end.map(|(ts, _)| (ts, *id)))
        .max();
    let Some((total_ns, mut current)) = last else {
        return CriticalPathReport {
            total_ns: 0,
            segments: Vec::new(),
            by_category: PathCategory::ALL.iter().map(|c| (*c, 0)).collect(),
        };
    };

    let mut walker = Walker {
        cursor: total_ns,
        segments: Vec::new(),
        index_ts: &index_ts,
    };

    // Walk phase by phase (each phase root's completion explains the next
    // phase's begin), bounded by the task count as a cycle guard.
    let mut guard = tasks.len() + 8;
    loop {
        guard = guard.saturating_sub(1);
        if guard == 0 {
            break;
        }
        // ---- descend from `current` to the leaf that gated its end.
        let mut descent: Vec<u64> = vec![current];
        loop {
            let t = *descent.last().unwrap();
            let rec = &tasks[&t];
            if rec.children.is_empty() {
                break;
            }
            // The gating child: latest (result arrival, else own end).
            let gating = rec
                .children
                .iter()
                .filter_map(|c| {
                    let cr = tasks.get(c)?;
                    let key = cr
                        .transfers
                        .iter()
                        .filter(|x| x.2 == TransferPurpose::Result)
                        .map(|x| x.0 + x.1)
                        .max()
                        .or(cr.end.map(|(ts, _)| ts))?;
                    Some((key, *c))
                })
                .max();
            match gating {
                Some((_, c)) if !descent.contains(&c) => descent.push(c),
                _ => break,
            }
        }

        // ---- backwards: result hops from each parent's end to its child.
        for pair in descent.windows(2) {
            let (parent, child) = (pair[0], pair[1]);
            let ploc = tasks[&parent].end.map(|(_, l)| l).unwrap_or(0);
            if let Some(&(ts, dur, _, src, dst, bytes)) = tasks[&child]
                .transfers
                .iter()
                .filter(|x| x.2 == TransferPurpose::Result)
                .max_by_key(|x| x.0 + x.1)
            {
                walker.push(PathSegment {
                    start_ns: ts,
                    end_ns: ts + dur,
                    loc: ploc,
                    category: PathCategory::Transfer,
                    label: format!("result {bytes} B {src}→{dst}"),
                });
            }
        }

        // ---- the leaf: compute, data transfers, lock wait, forward.
        let leaf = *descent.last().unwrap();
        let leaf_rec = &tasks[&leaf];
        let leaf_loc = leaf_rec
            .exec
            .map(|(_, _, l)| l)
            .or(leaf_rec.end.map(|(_, l)| l))
            .unwrap_or(0);
        if let Some((ts, dur, loc)) = leaf_rec.exec {
            walker.push(PathSegment {
                start_ns: ts,
                end_ns: ts + dur,
                loc,
                category: PathCategory::Compute,
                label: format!("exec task {leaf}"),
            });
        }
        if let Some(&(ts, dur, purpose, src, dst, bytes)) = leaf_rec
            .transfers
            .iter()
            .filter(|x| matches!(x.2, TransferPurpose::Migrate | TransferPurpose::Replicate))
            .max_by_key(|x| x.0 + x.1)
        {
            walker.push(PathSegment {
                start_ns: ts,
                end_ns: ts + dur,
                loc: leaf_loc,
                category: PathCategory::Transfer,
                label: format!("{} {bytes} B {src}→{dst}", purpose.name()),
            });
        }
        if let Some(park) = leaf_rec.park {
            walker.push(PathSegment {
                start_ns: park,
                end_ns: walker.cursor,
                loc: leaf_loc,
                category: PathCategory::LockWait,
                label: format!("task {leaf} parked on lock conflict"),
            });
        }
        if let Some(&(ts, dur, _, src, dst, bytes)) = leaf_rec
            .transfers
            .iter()
            .filter(|x| x.2 == TransferPurpose::TaskForward)
            .max_by_key(|x| x.0 + x.1)
        {
            let verb = if leaf_rec.stolen { "steal" } else { "forward" };
            walker.push(PathSegment {
                start_ns: ts,
                end_ns: ts + dur,
                loc: leaf_loc,
                category: PathCategory::Transfer,
                label: format!("{verb} {bytes} B {src}→{dst}"),
            });
        }

        // ---- climb: each ancestor's decomposition span and forward hop.
        for &anc in descent.iter().rev().skip(1) {
            let rec = &tasks[&anc];
            let span = rec.split.or(rec.exec);
            if let Some((ts, dur, loc)) = span {
                walker.push(PathSegment {
                    start_ns: ts,
                    end_ns: ts + dur,
                    loc,
                    category: PathCategory::Compute,
                    label: format!("split task {anc}"),
                });
            }
            if let Some(&(ts, dur, _, src, dst, bytes)) = rec
                .transfers
                .iter()
                .filter(|x| x.2 == TransferPurpose::TaskForward)
                .max_by_key(|x| x.0 + x.1)
            {
                walker.push(PathSegment {
                    start_ns: ts,
                    end_ns: ts + dur,
                    loc: rec.spawn.map(|(_, l, _)| l).unwrap_or(0),
                    category: PathCategory::Transfer,
                    label: format!("forward {bytes} B {src}→{dst}"),
                });
            }
        }

        // ---- chain into the previous phase: the root's spawn was caused
        // by the completion of the latest root task ending at or before it.
        let root = descent[0];
        let root_spawn = tasks[&root].spawn.map_or(0, |(ts, _, _)| ts);
        let before = roots.partition_point(|&(end, _)| end <= root_spawn);
        let prev = roots[..before].iter().rev().find(|&&(_, id)| id != root);
        match prev {
            Some(&(_, prev_root)) if walker.cursor > 0 => current = prev_root,
            _ => break,
        }
    }

    // Close the chain down to t = 0.
    walker.fill_gap(0, 0);
    walker.segments.reverse();

    // Replay windows: [recovery, first phase begin surpassing prior
    // progress); chain time inside them is re-attributed.
    let mut windows: Vec<(u64, u64)> = Vec::new();
    for &r in &recoveries {
        let reached = phase_begins
            .iter()
            .filter(|&&(_, ts)| ts <= r)
            .map(|&(p, _)| p)
            .max()
            .unwrap_or(0);
        let end = phase_begins
            .iter()
            .filter(|&&(p, ts)| ts > r && p > reached)
            .map(|&(_, ts)| ts)
            .min()
            .unwrap_or(total_ns);
        windows.push((r, end));
    }

    let mut by: BTreeMap<PathCategory, u64> = PathCategory::ALL.iter().map(|c| (*c, 0)).collect();
    for seg in &walker.segments {
        let len = seg.ns();
        let replay: u64 = windows
            .iter()
            .map(|&(a, b)| {
                let lo = seg.start_ns.max(a);
                let hi = seg.end_ns.min(b);
                hi.saturating_sub(lo)
            })
            .sum::<u64>()
            .min(len);
        *by.get_mut(&PathCategory::RecoveryReplay).unwrap() += replay;
        *by.get_mut(&seg.category).unwrap() += len - replay;
    }

    CriticalPathReport {
        total_ns,
        segments: walker.segments,
        by_category: PathCategory::ALL.iter().map(|c| (*c, by[c])).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{SpawnVariant, TraceEvent};
    use crate::sink::{TraceConfig, TraceSink};

    /// A hand-built two-level run: root 0 splits into tasks 1 and 2; task
    /// 2 waits on a replicate transfer and gates the finish.
    fn synthetic() -> Trace {
        let sink = TraceSink::enabled(2, &TraceConfig::default());
        let i = |ts, loc, kind| TraceEvent::instant(ts, loc, kind);
        let s = |ts, dur, loc, kind| TraceEvent::span(ts, dur, loc, kind);
        sink.record(|| i(0, 0, EventKind::PhaseBegin { phase: 0 }));
        sink.record(|| {
            i(
                0,
                0,
                EventKind::TaskSpawn {
                    task: 0,
                    parent: None,
                    variant: SpawnVariant::Split,
                    target: 0,
                },
            )
        });
        sink.record(|| s(0, 100, 0, EventKind::TaskSplit { task: 0 }));
        for t in [1u64, 2u64] {
            sink.record(|| {
                i(
                    100,
                    0,
                    EventKind::TaskSpawn {
                        task: t,
                        parent: Some(0),
                        variant: SpawnVariant::Process,
                        target: 1,
                    },
                )
            });
        }
        sink.record(|| {
            s(
                100,
                200,
                1,
                EventKind::Transfer {
                    purpose: TransferPurpose::TaskForward,
                    src: 0,
                    dst: 1,
                    bytes: 64,
                    task: Some(2),
                    item: None,
                    batch: None,
                },
            )
        });
        sink.record(|| s(150, 300, 0, EventKind::TaskExec { task: 1 }).on_core(0));
        sink.record(|| {
            i(
                450,
                0,
                EventKind::TaskEnd {
                    task: 1,
                    parent: Some(0),
                },
            )
        });
        // Task 2's boundary data arrives at t=800; it executes 800..1800.
        sink.record(|| {
            s(
                300,
                500,
                1,
                EventKind::Transfer {
                    purpose: TransferPurpose::Replicate,
                    src: 0,
                    dst: 1,
                    bytes: 4096,
                    task: Some(2),
                    item: Some(0),
                    batch: None,
                },
            )
        });
        sink.record(|| s(800, 1000, 1, EventKind::TaskExec { task: 2 }).on_core(1));
        sink.record(|| {
            i(
                1800,
                1,
                EventKind::TaskEnd {
                    task: 2,
                    parent: Some(0),
                },
            )
        });
        sink.record(|| {
            s(
                1800,
                150,
                0,
                EventKind::Transfer {
                    purpose: TransferPurpose::Result,
                    src: 1,
                    dst: 0,
                    bytes: 16,
                    task: Some(2),
                    item: None,
                    batch: None,
                },
            )
        });
        sink.record(|| {
            i(
                1950,
                0,
                EventKind::TaskEnd {
                    task: 0,
                    parent: None,
                },
            )
        });
        sink.record(|| i(1950, 0, EventKind::PhaseEnd { phase: 0 }));
        sink.take().unwrap()
    }

    #[test]
    fn chain_explains_the_finish_time() {
        let report = critical_path(&synthetic());
        assert_eq!(report.total_ns, 1950);
        // Every nanosecond of [0, finish] is attributed.
        assert_eq!(report.attributed_ns(), 1950);
        // Segments are chronological and non-overlapping.
        for w in report.segments.windows(2) {
            assert!(w[0].end_ns <= w[1].start_ns, "{w:?}");
        }
    }

    #[test]
    fn attribution_finds_compute_and_the_gating_transfer() {
        let report = critical_path(&synthetic());
        // exec of task 2 (1000 ns) + split (100 ns) are compute.
        assert_eq!(report.category_ns(PathCategory::Compute), 1100);
        // replicate (500) + result (150) + forward portion land in transfer.
        assert!(report.category_ns(PathCategory::Transfer) >= 650);
        assert!(report
            .segments
            .iter()
            .any(|s| s.category == PathCategory::Transfer && s.label.starts_with("replicate")));
        assert_eq!(report.category_ns(PathCategory::RecoveryReplay), 0);
    }

    /// A serving-shaped run: one root per request, each forwarding one
    /// leaf, every third leaf stolen. The chain links every root to the
    /// one before it.
    #[test]
    fn chain_links_every_request_root() {
        let sink = TraceSink::enabled(2, &TraceConfig::default());
        for r in 0..50u64 {
            let (t0, root, leaf) = (r * 1000, 2 * r, 2 * r + 1);
            let spawn = |task, parent| EventKind::TaskSpawn {
                task,
                parent,
                variant: SpawnVariant::Process,
                target: 1,
            };
            sink.record(|| TraceEvent::instant(t0, 0, spawn(root, None)));
            sink.record(|| TraceEvent::instant(t0 + 10, 0, spawn(leaf, Some(root))));
            if r % 3 == 0 {
                sink.record(|| {
                    TraceEvent::instant(
                        t0 + 10,
                        0,
                        EventKind::StealGrant {
                            victim: 0,
                            thief: 1,
                            task: leaf,
                        },
                    )
                });
            }
            sink.record(|| {
                TraceEvent::span(
                    t0 + 10,
                    90,
                    1,
                    EventKind::Transfer {
                        purpose: TransferPurpose::TaskForward,
                        src: 0,
                        dst: 1,
                        bytes: 64,
                        task: Some(leaf),
                        item: None,
                        batch: None,
                    },
                )
            });
            sink.record(|| {
                TraceEvent::span(t0 + 100, 500, 1, EventKind::TaskExec { task: leaf }).on_core(0)
            });
            sink.record(|| {
                TraceEvent::instant(
                    t0 + 600,
                    1,
                    EventKind::TaskEnd {
                        task: leaf,
                        parent: Some(root),
                    },
                )
            });
            sink.record(|| {
                TraceEvent::instant(
                    t0 + 700,
                    0,
                    EventKind::TaskEnd {
                        task: root,
                        parent: None,
                    },
                )
            });
        }
        let report = critical_path(&sink.take().unwrap());
        assert_eq!(report.total_ns, 49_700);
        assert_eq!(report.category_ns(PathCategory::Compute), 50 * 500);
        for r in 0..50u64 {
            let verb = if r % 3 == 0 { "steal" } else { "forward" };
            let labels = [
                format!("exec task {}", 2 * r + 1),
                format!("{verb} 64 B 0→1"),
            ];
            for label in labels {
                let within = |s: &PathSegment| s.start_ns >= r * 1000 && s.end_ns <= r * 1000 + 600;
                assert!(
                    report
                        .segments
                        .iter()
                        .any(|s| s.label == label && within(s)),
                    "{label}"
                );
            }
        }
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let sink = TraceSink::enabled(1, &TraceConfig::default());
        let report = critical_path(&sink.take().unwrap());
        assert_eq!(report.total_ns, 0);
        assert!(report.segments.is_empty());
    }

    #[test]
    fn summary_renders_percentages() {
        let report = critical_path(&synthetic());
        let text = report.summary();
        assert!(text.contains("critical path"));
        assert!(text.contains("compute"));
        assert!(text.contains("transfer"));
    }
}
