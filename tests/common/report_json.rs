//! The run report's JSON, read back.
//!
//! [`flatten`] parses what `RunReport::to_json` writes (integers, objects,
//! arrays) into its numbers by path — `monitor.per_locality[3].lock_conflicts`
//! — in document order. [`pre_walk_json`] is the schema change of the
//! statistics walk (DESIGN.md §5.7), stated as data: it rebuilds, from a
//! report's JSON, the JSON the hand-written renderer before the walk wrote
//! for the same run, byte for byte. A pinned digest of the old layout
//! checked against `fnv1a_64(pre_walk_json(..))` is therefore a proof that
//! every number the old report carried still sits, unchanged, at its
//! renamed path.

use std::collections::{BTreeMap, BTreeSet};

/// A report's numbers by path, in document order, and the length of every
/// array by path.
#[derive(Default)]
pub struct Flat {
    pub leaves: Vec<(String, u64)>,
    index: BTreeMap<String, u64>,
    arrays: BTreeMap<String, usize>,
}

impl Flat {
    fn get(&self, path: &str) -> u64 {
        *self
            .index
            .get(path)
            .unwrap_or_else(|| panic!("no number at {path}"))
    }

    /// Every leaf path with array indices written `[*]`, once each, in
    /// document order.
    pub fn key_paths(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let paths = self.leaves.iter().map(|(p, _)| star(p));
        paths.filter(|p| seen.insert(p.clone())).collect()
    }
}

/// `path` with every array index replaced by `*`.
fn star(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    let mut in_index = false;
    for c in path.chars() {
        match c {
            '[' => {
                in_index = true;
                out.push_str("[*");
            }
            ']' => {
                in_index = false;
                out.push(']');
            }
            _ if in_index => {}
            _ => out.push(c),
        }
    }
    out
}

/// Parse a report's JSON; panics on anything `to_json` does not write.
pub fn flatten(json: &str) -> Flat {
    let mut parser = Parser {
        s: json.as_bytes(),
        at: 0,
        flat: Flat::default(),
    };
    parser.value(String::new());
    assert_eq!(parser.at, json.len(), "trailing input after the report");
    parser.flat
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
    flat: Flat,
}

impl Parser<'_> {
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.s.get(self.at) == Some(&c);
        self.at += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) {
        assert!(self.eat(c), "expected {:?} at byte {}", c as char, self.at);
    }

    fn value(&mut self, path: String) {
        if self.eat(b'{') {
            let mut first = true;
            while !self.eat(b'}') {
                if !std::mem::take(&mut first) {
                    self.expect(b',');
                }
                self.expect(b'"');
                let len = self.s[self.at..]
                    .iter()
                    .position(|&c| c == b'"')
                    .expect("key");
                let key = std::str::from_utf8(&self.s[self.at..self.at + len]).unwrap();
                self.at += len + 1;
                self.expect(b':');
                let sep = if path.is_empty() { "" } else { "." };
                self.value(format!("{path}{sep}{key}"));
            }
        } else if self.eat(b'[') {
            let mut n = 0;
            while !self.eat(b']') {
                if n > 0 {
                    self.expect(b',');
                }
                self.value(format!("{path}[{n}]"));
                n += 1;
            }
            self.flat.arrays.insert(path, n);
        } else {
            let len = self.s[self.at..]
                .iter()
                .take_while(|c| c.is_ascii_digit())
                .count();
            assert!(len > 0, "expected a number at byte {}", self.at);
            let text = std::str::from_utf8(&self.s[self.at..self.at + len]).unwrap();
            let v: u64 = text.parse().expect("a u64");
            self.at += len;
            self.flat.index.insert(path.clone(), v);
            self.flat.leaves.push((path, v));
        }
    }
}

// ---------------------------------------------------- the pre-walk layout

/// Where one value of the pre-walk layout sits in the new JSON. Paths are
/// relative to the enclosing [`Old::Each`] element (to the root outside
/// one).
enum Old {
    /// The number at this path.
    At(&'static str),
    /// The sum of `field` over the elements of the array at this path.
    Sum(&'static str, &'static str),
    /// An object: each old key and where its value is.
    Obj(&'static [(&'static str, Old)]),
    /// An object whose old keys are the new field names under a path.
    Same(&'static str, &'static [&'static str]),
    /// A list: one value per element of the array at this path.
    Each(&'static str, &'static Old),
}

use Old::*;

const LOC: &str = "monitor.per_locality";
/// Both layouts write a histogram as these seven numbers.
const HIST: &[&str] = &["count", "sum", "min", "max", "p50", "p90", "p99"];

/// The pre-walk `to_json`, key by key.
#[rustfmt::skip]
const PRE_WALK: Old = Obj(&[
    ("finish_ns", At("finish_time")),
    ("phases", At("phases")),
    ("events", At("events")),
    ("remote_msgs", At("remote_msgs")),
    ("remote_bytes", At("remote_bytes")),
    ("tasks", Sum(LOC, "tasks_executed")),
    ("splits", Sum(LOC, "tasks_split")),
    ("msgs", Sum(LOC, "msgs_sent")),
    ("bytes", Sum(LOC, "bytes_sent")),
    ("index", Obj(&[
        ("lookups", At("monitor.index_lookups")),
        ("lookup_hops", At("monitor.index_lookup_hops")),
        ("update_hops", At("monitor.index_update_hops")),
    ])),
    ("localities", Each(LOC, &Obj(&[
        ("tasks", At("tasks_executed")),
        ("splits", At("tasks_split")),
        ("busy_ns", At("busy_ns")),
        ("msgs", At("msgs_sent")),
        ("bytes", At("bytes_sent")),
        ("replicas_in", At("replicas_in")),
        ("migrations_in", At("migrations_in")),
        ("first_touch", At("first_touch")),
        ("lock_conflicts", At("lock_conflicts")),
    ]))),
    ("scheduler", Obj(&[
        ("queued", At("monitor.scheduler.tasks_queued")),
        ("steal_requests", At("monitor.scheduler.steal_requests")),
        ("steal_grants", At("monitor.scheduler.steal_grants")),
        ("steal_denies", At("monitor.scheduler.steal_denies")),
        ("handoffs", At("monitor.scheduler.handoffs")),
    ])),
    ("cache", Same("monitor.cache", &["hits", "misses", "invalidations", "saved_hops"])),
    ("resilience", Obj(&[
        ("checkpoints", At("monitor.resilience.checkpoints")),
        ("checkpoint_bytes", At("monitor.resilience.checkpoint_bytes")),
        ("recoveries", At("monitor.resilience.recoveries")),
        ("restored_bytes", At("monitor.resilience.restored_bytes")),
        ("tasks_reexecuted", At("monitor.resilience.tasks_reexecuted")),
        ("net_dropped", At("traffic.dropped")),
        ("net_retries", At("traffic.retries")),
        ("failed_transfers", At("monitor.resilience.failed_transfers")),
    ])),
    ("checkpointing", Obj(&[
        ("anchors", At("monitor.resilience.ckpt_anchors")),
        ("deltas", At("monitor.resilience.ckpt_deltas")),
        ("logical_bytes", At("monitor.resilience.ckpt_logical_bytes")),
        ("stall_ns", At("monitor.resilience.ckpt_stall_ns")),
        ("fence_ns", At("monitor.resilience.ckpt_fence_ns")),
        ("drain_ns", At("monitor.resilience.ckpt_drain_ns")),
        ("fp_ns", At("monitor.resilience.ckpt_fp_ns")),
        ("torn", At("monitor.resilience.ckpt_torn")),
        ("cow_captures", At("monitor.resilience.cow_captures")),
        ("recovery_read_ns", At("monitor.resilience.recovery_read_ns")),
    ])),
    ("storage", Same("storage", &[
        "local_bytes_written", "remote_bytes_written", "local_write_ns", "remote_write_ns",
        "local_bytes_read", "remote_bytes_read", "read_ns", "fingerprint_bytes", "fingerprint_ns",
    ])),
    ("integrity", Obj(&[
        ("wire_corruptions", At("traffic.corrupted")),
        ("wire_detected", At("traffic.corrupt_detected")),
        ("wire_undetected", At("traffic.corrupt_undetected")),
        ("re_requests", At("traffic.re_requests")),
        ("rot_injected", At("monitor.integrity.rot_injected")),
        ("ckpt_shards_rejected", At("monitor.integrity.checkpoint_shards_rejected")),
        ("ckpt_fallbacks", At("monitor.integrity.checkpoint_fallbacks")),
        ("ckpt_links_verified", At("monitor.integrity.ckpt_links_verified")),
        ("scrub_passes", At("monitor.integrity.scrub_passes")),
        ("scrub_repairs", At("monitor.integrity.scrub_repairs")),
        ("quarantines", At("monitor.integrity.quarantines")),
    ])),
    ("traffic", Same("traffic", &[
        "dropped", "delayed", "retries", "undeliverable", "batches", "batched_msgs", "batched_bytes",
    ])),
    ("task_durations", Same("monitor.task_durations", HIST)),
    ("transfer_latency", Same("monitor.transfer_latency", HIST)),
    ("serve", Obj(&[
        ("offered", At("monitor.serve.offered")),
        ("admitted", At("monitor.serve.admitted")),
        ("completed", At("monitor.serve.completed")),
        ("shed", At("monitor.serve.shed")),
        ("reads", At("monitor.serve.reads")),
        ("writes", At("monitor.serve.writes")),
        ("slo_violations", At("monitor.serve.slo_violations")),
        ("replications", At("monitor.serve.replications")),
        ("retirements", At("monitor.serve.retirements")),
        ("invalidations", At("monitor.serve.invalidations")),
        ("serve_ns", At("monitor.serve.serve_ns")),
        ("latency", Same("monitor.serve.latency", HIST)),
        ("per_shard", Each("monitor.serve.per_shard", &Same("", HIST))),
    ])),
]);

/// Each frozen duplicate and the counter it copies: equal in every
/// report, so the old layout may read either.
const FROZEN: [(&str, &str); 3] = [
    ("remote_msgs", "traffic.remote.count"),
    ("remote_bytes", "traffic.remote.sum"),
    (
        "monitor.integrity.wire_detected",
        "traffic.corrupt_detected",
    ),
];

/// The counters the pre-walk report left out. `traffic.remote` reached it
/// only as its count and sum, through the frozen duplicates.
const UNSERIALIZED_BEFORE: [&str; 13] = [
    "monitor.resilience.heartbeats",
    "monitor.resilience.detections",
    "monitor.resilience.detection_latency_ns",
    "monitor.integrity.replicas_scrubbed",
    "monitor.integrity.scrub_divergent",
    "traffic.remote.min",
    "traffic.remote.max",
    "traffic.local.count",
    "traffic.local.sum",
    "traffic.local.min",
    "traffic.local.max",
    "traffic.backoff_ns",
    "traffic.flushes_by_cause[*]",
];

fn join(base: &str, path: &str) -> String {
    match (base.is_empty(), path.is_empty()) {
        (true, _) => path.to_owned(),
        (_, true) => base.to_owned(),
        _ => format!("{base}.{path}"),
    }
}

struct Render<'a> {
    flat: &'a Flat,
    out: String,
    read: BTreeSet<String>,
}

impl Render<'_> {
    fn num(&mut self, path: String) {
        self.out.push_str(&self.flat.get(&path).to_string());
        self.read.insert(path);
    }

    /// An object of `pairs`, each value written by `each`.
    fn obj<'k, T>(
        &mut self,
        pairs: impl Iterator<Item = (&'k str, T)>,
        each: impl Fn(&mut Self, T),
    ) {
        self.out.push('{');
        for (i, (key, path)) in pairs.enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(&format!("\"{key}\":"));
            each(self, path);
        }
        self.out.push('}');
    }

    fn old(&mut self, old: &Old, base: &str) {
        match old {
            At(p) => self.num(join(base, p)),
            Sum(array, field) => {
                let array = join(base, array);
                let n = self.flat.arrays[&array];
                let paths: Vec<String> = (0..n).map(|i| format!("{array}[{i}].{field}")).collect();
                let sum: u64 = paths.iter().map(|p| self.flat.get(p)).sum();
                self.read.extend(paths);
                self.out.push_str(&sum.to_string());
            }
            Obj(fields) => {
                let pairs = fields.iter().map(|(key, value)| (*key, value));
                self.obj(pairs, |s, value| s.old(value, base));
            }
            Same(prefix, keys) => {
                let prefix = join(base, prefix);
                let pairs = keys.iter().map(|k| (*k, format!("{prefix}.{k}")));
                self.obj(pairs, Self::num);
            }
            Each(array, element) => {
                let array = join(base, array);
                self.out.push('[');
                for i in 0..self.flat.arrays[&array] {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.old(element, &format!("{array}[{i}]"));
                }
                self.out.push(']');
            }
        }
    }
}

/// The JSON the hand-written renderer before the walk wrote for the run whose
/// report serialized to `json`. Panics unless each frozen duplicate equals
/// its source and every number of `json` the old layout does not read is
/// one of [`UNSERIALIZED_BEFORE`] — nothing was dropped, nothing but those
/// was added.
pub fn pre_walk_json(json: &str) -> String {
    let flat = flatten(json);
    let mut render = Render {
        flat: &flat,
        out: String::new(),
        read: BTreeSet::new(),
    };
    render.old(&PRE_WALK, "");
    for (copy, source) in FROZEN {
        assert_eq!(
            flat.get(copy),
            flat.get(source),
            "{copy} is a copy of {source}"
        );
        render.read.extend([copy.to_owned(), source.to_owned()]);
    }
    for (path, _) in &flat.leaves {
        assert!(
            render.read.contains(path) || UNSERIALIZED_BEFORE.contains(&star(path).as_str()),
            "{path} is new to the report but not a counter the old one lacked"
        );
    }
    render.out
}
