//! Host-clock spans recorded by the benchmark around its calls into the
//! program: kept in memory, written as one Chrome-trace file at the end.

use std::time::Instant;

use crate::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans against one origin; single-threaded, so the
/// enclosing span is simply the innermost open one.
pub struct Recorder {
    origin: Instant,
    /// What the clock reads at `origin`.
    offset_ns: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder::starting_at(0)
    }

    /// A recorder whose clock reads `offset_ns` now (a child process
    /// counts from the moment its parent spawned it).
    pub fn starting_at(offset_ns: u64) -> Self {
        Recorder {
            origin: Instant::now(),
            offset_ns,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.offset_ns + self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that started when the clock read `start_ns` (the
    /// child's set-up span starts at 0, the moment it was spawned).
    pub fn begin_at(&mut self, name: &str, start_ns: u64) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn begin(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        self.begin_at(name, now)
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns()
    }

    /// Graft spans recorded elsewhere (a child process) under the
    /// innermost open span, shifted by `offset_ns` onto this clock.
    pub fn adopt(&mut self, spans: &[Span], offset_ns: u64) {
        let base = self.spans.len();
        let under = self.open.last().copied();
        for s in spans {
            self.spans.push(Span {
                name: s.name.clone(),
                start_ns: s.start_ns + offset_ns,
                end_ns: s.end_ns + offset_ns,
                parent: s.parent.map(|p| p + base).or(under),
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part of it that its direct
/// children cover (overlapping children are counted once).
pub fn self_ns(spans: &[Span], id: usize) -> u64 {
    let me = &spans[id];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let (mut covered, mut reach) = (0, me.start_ns);
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("name", Value::Str(s.name.clone())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                ])
            })
            .collect(),
    )
}

pub fn from_json(v: &Value) -> Option<Vec<Span>> {
    v.as_array()?
        .iter()
        .map(|s| {
            Some(Span {
                name: s.get("name")?.as_str()?.to_string(),
                start_ns: s.get("start_ns")?.as_f64()? as u64,
                end_ns: s.get("end_ns")?.as_f64()? as u64,
                parent: s.get("parent")?.as_f64().map(|p| p as usize),
            })
        })
        .collect()
}

/// Chrome-trace (`chrome://tracing`, Perfetto) rendering: one process per
/// top-level span (a workload), complete events nested by time.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let mut events = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let pid = root_of(i) + 1;
        if s.parent.is_none() {
            events.push(Value::obj([
                ("ph", Value::Str("M".into())),
                ("name", Value::Str("process_name".into())),
                ("pid", Value::Num(pid as f64)),
                ("args", Value::obj([("name", Value::Str(s.name.clone()))])),
            ]));
        }
        events.push(Value::obj([
            ("ph", Value::Str("X".into())),
            ("name", Value::Str(s.name.clone())),
            ("pid", Value::Num(pid as f64)),
            ("tid", Value::Num(1.0)),
            ("ts", Value::Num(s.start_ns as f64 / 1e3)),
            ("dur", Value::Num(s.dur_ns() as f64 / 1e3)),
            (
                "args",
                Value::obj([("self_us", Value::Num(self_ns(spans, i) as f64 / 1e3))]),
            ),
        ]));
    }
    Value::obj([("traceEvents", Value::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 70, Some(0)),
            span("a.inner", 15, 35, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 20);
        assert_eq!(self_ns(&spans, 1), 30 - 20);
        assert_eq!(self_ns(&spans, 3), 20);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 140, 160, Some(0)),
            span("c", 190, 260, Some(0)),
        ];
        // Covered: [100,160) and [190,200).
        assert_eq!(self_ns(&spans, 0), 100 - 60 - 10);
    }

    #[test]
    fn recorder_nests_and_adopts() {
        let mut rec = Recorder::new();
        let root = rec.begin("workload");
        let child = rec.begin("child");
        rec.adopt(
            &[span("run", 5, 9, None), span("inner", 6, 7, Some(0))],
            1_000,
        );
        rec.end(child);
        rec.end(root);
        let s = rec.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(
            s[2].parent,
            Some(1),
            "adopted root hangs under the open span"
        );
        assert_eq!(s[3].parent, Some(2), "adopted links are re-based");
        assert_eq!((s[2].start_ns, s[2].end_ns), (1_005, 1_009));
        assert_eq!(from_json(&to_json(s)).unwrap(), s);
        let trace = chrome_trace(s);
        let events = trace.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), s.len() + 1, "one metadata event per workload");
    }
}
