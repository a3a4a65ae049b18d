//! One repetition, in a process of its own: set up, time the one call
//! into the application, verify, optionally run the probe loops — and
//! hand everything to the parent as one JSON line on stdout.
//!
//! A fresh single-threaded process per repetition keeps peak RSS and
//! allocator state per repetition and never has two busy threads.

use crate::json::Value;
use crate::run::unix_ns;
use crate::spans::{self, Recorder};
use crate::{golden, probes, spec, workloads};

pub struct Args {
    pub workload: String,
    pub sub_seed: u64,
    /// Run with `RtConfig::trace` on and report the critical path.
    pub traced: bool,
    /// Run with the application's own oracle on and skip `golden.json`
    /// (golden regeneration).
    pub validate: bool,
    /// Run every probe loop for this long after the workload.
    pub probe_seconds: Option<f64>,
    /// Wall clock (ns since the Unix epoch) just before the parent
    /// spawned this process: where `setup_s` starts counting.
    pub spawned_at_ns: u128,
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process so far (`/proc/self/stat`
/// fields 14 and 15, in the kernel's 100 Hz clock ticks).
fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields count from
    // the closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

pub fn run(args: &Args) -> Value {
    let w = spec::workload(&args.workload)
        .unwrap_or_else(|| panic!("unknown workload {}", args.workload));
    // Spans count from the moment the parent spawned us.
    let boot_ns = unix_ns().saturating_sub(args.spawned_at_ns) as u64;
    let mut rec = Recorder::starting_at(boot_ns);

    let setup = rec.begin_at("setup", 0);
    let prepared = workloads::prepare(w.name, args.sub_seed, args.traced, args.validate);
    workloads::warm_up(w.name);
    rec.end(setup);

    let run = rec.begin("run");
    let raw = prepared.run();
    let host_ns = rec.end(run);
    let setup_ns = rec.spans()[run].start_ns;
    let (rss, cpu) = (peak_rss_mb(), cpu_s());

    let verify = rec.begin("verify");
    let mut outcome = raw.into_outcome(w.name);
    let golden = golden::load();
    let key = golden::digest_key(w, args.sub_seed);
    let pinned = golden::digest(&golden, w.name, &key);
    if !args.validate
        && outcome.answer.is_some()
        && outcome.answer != golden::answer(&golden, w.name)
    {
        outcome.failed = outcome.ops;
    }
    let mut metrics = std::mem::take(&mut outcome.metrics);
    metrics.push((
        "runtime.report_digest_known",
        f64::from(u8::from(pinned.is_some())),
    ));
    metrics.push((
        "runtime.report_digest_changed",
        f64::from(u8::from(pinned.is_some_and(|d| d != outcome.digest))),
    ));
    if let Some(trace) = &outcome.trace {
        metrics.extend(workloads::critical_path_metrics(trace));
    }
    rec.end(verify);

    if let Some(seconds) = args.probe_seconds {
        let all = rec.begin("probes");
        for (name, probe) in probes::PROBES {
            let id = rec.begin(name);
            metrics.push((name, probe(args.sub_seed, seconds)));
            rec.end(id);
        }
        rec.end(all);
    }

    let hex = |v: u64| Value::Str(format!("{v:016x}"));
    Value::obj([
        ("host_s", Value::Num(host_ns as f64 / 1e9)),
        ("setup_s", Value::Num(setup_ns as f64 / 1e9)),
        ("peak_rss_mb", Value::Num(rss)),
        ("cpu_s", Value::Num(cpu)),
        ("ops", Value::Num(outcome.ops as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("answer", outcome.answer.map_or(Value::Null, hex)),
        ("digest", hex(outcome.digest)),
        (
            "metrics",
            Value::obj(metrics.into_iter().map(|(k, v)| (k, Value::Num(v)))),
        ),
        ("spans", spans::to_json(rec.spans())),
    ])
}
