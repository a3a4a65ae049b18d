//! The parent's side of a run: spawn one child per repetition, one after
//! another, and condense what they report into the benchmark's metrics.

use std::collections::BTreeMap;
use std::fs::File;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::json::Value;
use crate::probes::PROBES;
use crate::spans::{self, Recorder, Span};
use crate::spec::{Workload, END_TO_END, MIN_REPS, PER_LAYER};
use crate::stats::{median, quartiles};
use crate::workloads::sub_seed;
use crate::OUT_DIR;

/// What a child that ran to completion reported.
#[derive(Debug, Clone, Default)]
pub struct ChildResult {
    pub host_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub cpu_s: f64,
    pub ops: u64,
    pub failed: u64,
    pub answer: Option<String>,
    pub digest: String,
    pub metrics: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

impl ChildResult {
    fn parse(line: &str) -> Option<ChildResult> {
        let v = Value::parse(line).ok()?;
        let num = |k: &str| v.get(k)?.as_f64();
        Some(ChildResult {
            host_s: num("host_s")?,
            setup_s: num("setup_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            cpu_s: num("cpu_s")?,
            ops: num("ops")? as u64,
            failed: num("failed")? as u64,
            answer: v.get("answer")?.as_str().map(str::to_string),
            digest: v.get("digest")?.as_str()?.to_string(),
            metrics: v
                .get("metrics")?
                .as_object()?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect(),
            spans: spans::from_json(v.get("spans")?)?,
        })
    }

    fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

/// Wall clock, nanoseconds since the Unix epoch — the one clock parent
/// and child share, used to date the child's spans from its spawn.
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// One repetition as the parent saw it.
#[derive(Debug, Clone)]
pub enum Rep {
    Done(ChildResult),
    /// The child panicked, was killed or printed no result; the tail of
    /// its stderr says why. All of its operations count as failed.
    Crashed(String),
}

impl Rep {
    pub fn done(&self) -> Option<&ChildResult> {
        match self {
            Rep::Done(c) => Some(c),
            Rep::Crashed(_) => None,
        }
    }
}

/// How a child is to run (everything but workload and sub-seed).
#[derive(Clone, Copy, Default)]
pub struct Mode {
    pub traced: bool,
    pub validate: bool,
    pub probe_seconds: Option<f64>,
}

/// A child that has not ended after this long is killed and counted as
/// crashed, so one livelocked run cannot hang the benchmark.
const CHILD_TIMEOUT: Duration = Duration::from_secs(100);

/// Run one repetition in a fresh process and wait for it to end. Its
/// spans are grafted under a `label` span of `rec`.
pub fn spawn(w: &Workload, sub_seed: u64, mode: Mode, label: &str, rec: &mut Recorder) -> Rep {
    let span = rec.begin(label);
    let offset_ns = rec.now_ns();
    let rep = match run_child(w, sub_seed, mode) {
        Ok(c) => {
            rec.adopt(&c.spans, offset_ns);
            Rep::Done(c)
        }
        Err(why) => Rep::Crashed(why),
    };
    rec.end(span);
    rep
}

fn run_child(w: &Workload, sub_seed: u64, mode: Mode) -> Result<ChildResult, String> {
    let io = |e: std::io::Error| e.to_string();
    // The child writes to files, not pipes, so the parent can wait with a
    // deadline without a reader thread.
    std::fs::create_dir_all(OUT_DIR).map_err(io)?;
    let (out_path, err_path) = (
        format!("{OUT_DIR}/child.out"),
        format!("{OUT_DIR}/child.err"),
    );
    let mut cmd = Command::new(std::env::current_exe().map_err(io)?);
    cmd.args(["--child", w.name, "--sub-seed", &sub_seed.to_string()]);
    if mode.traced {
        cmd.arg("--traced");
    }
    if mode.validate {
        cmd.arg("--validate");
    }
    if let Some(s) = mode.probe_seconds {
        cmd.args(["--probe-seconds", &s.to_string()]);
    }
    cmd.stdin(Stdio::null())
        .stdout(File::create(&out_path).map_err(io)?)
        .stderr(File::create(&err_path).map_err(io)?);
    let spawned_at = unix_ns();
    cmd.args(["--spawned-at", &spawned_at.to_string()]);
    let started = Instant::now();
    let mut child = cmd.spawn().map_err(io)?;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(io)? {
            break status;
        }
        if started.elapsed() > CHILD_TIMEOUT {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "killed after {} s without a result",
                CHILD_TIMEOUT.as_secs()
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let stdout = std::fs::read_to_string(&out_path).map_err(io)?;
    match stdout.lines().last().and_then(ChildResult::parse) {
        Some(c) if status.success() => Ok(c),
        _ => {
            let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
            let lines: Vec<&str> = stderr.lines().collect();
            Err(format!(
                "{status}: {}",
                lines[lines.len().saturating_sub(6)..].join(" | ")
            ))
        }
    }
}

/// How long a pass measures: for `seconds`, or exactly `reps`
/// repetitions when given.
#[derive(Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub reps: Option<usize>,
}

/// The timed pass: untraced repetitions, sub-seed `i` for repetition `i`,
/// at least [`MIN_REPS`] of them and then for as long as the budget lasts.
pub fn timed_pass(w: &Workload, seed: u64, budget: Budget, rec: &mut Recorder) -> Vec<Rep> {
    let started = Instant::now();
    let mut reps = Vec::new();
    loop {
        let enough = match budget.reps {
            Some(n) => reps.len() >= n.max(1),
            None => reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= budget.seconds,
        };
        if enough {
            return reps;
        }
        let i = reps.len();
        reps.push(spawn(
            w,
            sub_seed(seed, i),
            Mode::default(),
            &format!("rep {i}"),
            rec,
        ));
    }
}

/// A value with the spread of the repetitions behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Stat {
    fn of(values: &[f64]) -> Stat {
        let (q1, q3) = quartiles(values);
        Stat {
            value: median(values),
            q1,
            q3,
            n: values.len(),
        }
    }

    /// Interquartile range as a share of the median — the spread the
    /// benchmark's acceptance rule is stated in.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.value
    }
}

/// Whether a pass did what it should: operations attempted and failed,
/// and every reason the pass does not count as correct.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Count one labelled repetition. A child that died fails all the
    /// operations a repetition of `w` attempts.
    fn count(&mut self, w: &Workload, label: &str, rep: &Rep) {
        match rep {
            Rep::Done(c) => {
                self.attempted += c.ops;
                self.failed += c.failed;
                if c.failed > 0 {
                    self.problems.push(format!(
                        "{label}: {} of {} operations failed",
                        c.failed, c.ops
                    ));
                }
            }
            Rep::Crashed(why) => {
                self.attempted += w.ops_per_rep;
                self.failed += w.ops_per_rep;
                self.problems.push(format!("{label}: child died ({why})"));
            }
        }
    }
}

/// What one workload's timed pass amounts to.
#[derive(Debug, Clone)]
pub struct TimedSummary {
    pub verdict: Verdict,
    /// One entry per `spec::END_TO_END` metric, in that order; empty when
    /// no repetition survived.
    pub end_to_end: Vec<(&'static str, Stat)>,
}

pub fn summarise_timed(w: &Workload, reps: &[Rep]) -> TimedSummary {
    let mut verdict = Verdict::default();
    for (i, rep) in reps.iter().enumerate() {
        verdict.count(w, &format!("rep {i}"), rep);
    }
    let done: Vec<&ChildResult> = reps.iter().filter_map(Rep::done).collect();
    // Same inputs must give the same virtual run, bit for bit.
    if !w.seeded && done.windows(2).any(|p| p[0].digest != p[1].digest) {
        verdict
            .problems
            .push("report digests differ between repetitions of identical inputs".into());
    }
    let end_to_end = if done.is_empty() {
        Vec::new()
    } else {
        let host = |f: fn(&ChildResult) -> f64| done.iter().map(|c| f(c)).collect::<Vec<_>>();
        // Virtual figures come from the fixed ensemble of the first
        // MIN_REPS sub-seeds, so they do not depend on how many more
        // repetitions the host happened to fit in.
        let ensemble: Vec<f64> = reps
            .iter()
            .take(MIN_REPS)
            .filter_map(Rep::done)
            .map(|c| c.metric("virt_throughput"))
            .collect();
        let ensemble = if ensemble.is_empty() {
            vec![0.0]
        } else {
            ensemble
        };
        END_TO_END
            .iter()
            .map(|m| {
                let values = match m.name {
                    "host_s" => host(|c| c.host_s),
                    "peak_rss_mb" => host(|c| c.peak_rss_mb),
                    "setup_s" => host(|c| c.setup_s),
                    "virt_throughput" => ensemble.clone(),
                    other => unreachable!("end-to-end metric {other} has no source"),
                };
                (m.name, Stat::of(&values))
            })
            .collect()
    };
    TimedSummary {
        verdict,
        end_to_end,
    }
}

/// The traced pass: pairs of an untraced and a traced child on sub-seed
/// 0 until `seconds` are used up (at least one pair). The first traced
/// child also runs the probe loops, which share [`PROBE_SHARE`] of the
/// time between them.
pub struct TracePass {
    pub pairs: Vec<(Rep, Rep)>,
}

const PROBE_SHARE: f64 = 0.6;

pub fn trace_pass(w: &Workload, seed: u64, budget: Budget, rec: &mut Recorder) -> TracePass {
    let started = Instant::now();
    let probe_seconds = budget.seconds * PROBE_SHARE / PROBES.len() as f64;
    let mut pairs = Vec::new();
    loop {
        let enough = match budget.reps {
            Some(n) => pairs.len() >= n.max(1),
            None => !pairs.is_empty() && started.elapsed().as_secs_f64() >= budget.seconds,
        };
        if enough {
            return TracePass { pairs };
        }
        let i = pairs.len();
        let s = sub_seed(seed, 0);
        let plain = spawn(w, s, Mode::default(), &format!("untraced {i}"), rec);
        let mode = Mode {
            traced: true,
            probe_seconds: (i == 0).then_some(probe_seconds),
            ..Mode::default()
        };
        let traced = spawn(w, s, mode, &format!("traced {i}"), rec);
        pairs.push((plain, traced));
    }
}

#[derive(Debug, Clone)]
pub struct TraceSummary {
    pub verdict: Verdict,
    /// One entry per `spec::PER_LAYER` metric, in that order.
    pub per_layer: Vec<(&'static str, f64)>,
}

/// Host time the probes' unit costs explain, given the run's counts:
/// Σ count × ns per operation, in seconds.
fn attributed_s(get: &dyn Fn(&str) -> f64) -> f64 {
    let tasks = get("runtime.tasks") + get("runtime.splits");
    let ns = get("des.events") * get("des.sim.ns_per_event")
        + get("net.remote_msgs") * get("net.transfer.ns_per_msg")
        + get("net.remote_bytes") / 1024.0 * get("dim.export_import.ns_per_kib")
        + get("loc_cache.hits") * get("loc_cache.hit.ns_per_op")
        + get("loc_cache.misses") * get("loc_cache.miss.ns_per_op")
        + tasks * (get("dim.try_lock.ns_per_op") + get("scheduler.decide.ns_per_op"))
        + get("dim.lock_conflicts") * get("dim.try_lock_conflict.ns_per_op")
        + get("resilience.ckpt_bytes") / 1024.0 * get("dim.checkpoint.ns_per_kib");
    ns / 1e9
}

pub fn summarise_trace(w: &Workload, pass: &TracePass) -> TraceSummary {
    let all: Vec<(String, &Rep)> = pass
        .pairs
        .iter()
        .enumerate()
        .flat_map(|(i, (p, t))| [(format!("untraced {i}"), p), (format!("traced {i}"), t)])
        .collect();
    let mut verdict = Verdict::default();
    for (label, rep) in &all {
        verdict.count(w, label, rep);
    }
    let done: Vec<&ChildResult> = all.iter().filter_map(|(_, r)| r.done()).collect();
    // Tracing must not perturb the run: the report digest excludes the
    // trace, so traced and untraced children of one sub-seed agree.
    if done.windows(2).any(|p| p[0].digest != p[1].digest) {
        verdict
            .problems
            .push("report digests differ between traced and untraced runs of one sub-seed".into());
    }
    let plain: Vec<&ChildResult> = pass.pairs.iter().filter_map(|(p, _)| p.done()).collect();
    let traced: Vec<&ChildResult> = pass.pairs.iter().filter_map(|(_, t)| t.done()).collect();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    if let (Some(p), Some(t)) = (plain.first(), traced.first()) {
        // Counts from the untraced run; critical path, trace sizes and
        // probe costs from the traced one.
        for c in [t, p] {
            values.extend(c.metrics.iter().map(|(k, v)| (k.as_str(), *v)));
        }
        let host_s = median(&plain.iter().map(|c| c.host_s).collect::<Vec<_>>());
        let per = |count: &str| match values.get(count).copied().unwrap_or(0.0) {
            n if n > 0.0 => host_s * 1e6 / n,
            _ => 0.0,
        };
        let derived = [
            ("runtime.host_s", host_s),
            (
                "runtime.cpu_s",
                median(&plain.iter().map(|c| c.cpu_s).collect::<Vec<_>>()),
            ),
            ("des.host_us_per_event", per("des.events")),
            ("net.host_us_per_msg", per("net.remote_msgs")),
            ("runtime.host_us_per_task", per("runtime.tasks")),
            ("serve.host_us_per_req", per("serve.completed")),
        ];
        values.extend(derived);
        let overheads: Vec<f64> = pass
            .pairs
            .iter()
            .filter_map(|(p, t)| Some(t.done()?.host_s / p.done()?.host_s - 1.0))
            .collect();
        values.insert("trace.overhead_frac", median(&overheads));
        let explained = attributed_s(&|k| values.get(k).copied().unwrap_or(0.0));
        values.insert("runtime.unattributed_share", 1.0 - explained / host_s);
        let span_s = |name: &str| {
            t.spans
                .iter()
                .find(|s| s.name == name)
                .map_or(0.0, |s| s.dur_ns() as f64 / 1e9)
        };
        values.insert("bench.verify_ms", span_s("verify") * 1e3);
        values.insert("bench.probes_s", span_s("probes"));
    }
    let per_layer = PER_LAYER
        .iter()
        .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    TraceSummary { verdict, per_layer }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    fn done(host_s: f64, throughput: f64, digest: &str) -> Rep {
        Rep::Done(ChildResult {
            host_s,
            setup_s: 0.1,
            peak_rss_mb: 50.0,
            ops: 1,
            digest: digest.into(),
            metrics: BTreeMap::from([("virt_throughput".to_string(), throughput)]),
            ..ChildResult::default()
        })
    }

    #[test]
    fn a_dead_child_fails_all_of_its_operations() {
        let w = workload("serve_overload").unwrap();
        let ok = Rep::Done(ChildResult {
            ops: w.ops_per_rep,
            ..ChildResult::default()
        });
        let s = summarise_timed(w, &[ok, Rep::Crashed("signal: 6".into())]);
        assert_eq!(s.verdict.attempted, 2 * w.ops_per_rep);
        assert_eq!(s.verdict.failed, w.ops_per_rep, "failed share is one half");
        assert!(!s.verdict.correct());
        assert!(s.verdict.problems[0].contains("child died"));
        let none = summarise_timed(w, &[Rep::Crashed("x".into())]);
        assert_eq!(none.verdict.failed, none.verdict.attempted);
        assert!(none.end_to_end.is_empty());
    }

    #[test]
    fn host_metrics_use_every_rep_virtual_ones_the_fixed_ensemble() {
        let w = workload("serve_steady").unwrap();
        let mut reps: Vec<Rep> = (0..MIN_REPS)
            .map(|i| done(1.0 + i as f64, 100.0, "a"))
            .collect();
        reps.push(done(100.0, 999.0, "b"));
        reps.push(done(100.0, 999.0, "c"));
        let s = summarise_timed(w, &reps);
        assert!(
            s.verdict.correct(),
            "seeded repetitions may differ: {:?}",
            s.verdict.problems
        );
        let get = |name: &str| s.end_to_end.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("virt_throughput").value, 100.0);
        assert_eq!(get("virt_throughput").n, MIN_REPS);
        assert_eq!(get("host_s").n, MIN_REPS + 2);
        assert_eq!(get("host_s").value, 4.0);
    }

    #[test]
    fn identical_inputs_must_repeat_exactly() {
        let w = workload("stencil_64").unwrap();
        let s = summarise_timed(w, &[done(1.0, 5.0, "a"), done(1.0, 5.0, "b")]);
        assert!(!s.verdict.correct());
        assert_eq!(s.verdict.failed, 0);
    }

    #[test]
    fn child_lines_parse_back() {
        let line = r#"{"host_s":1.5,"setup_s":0.2,"peak_rss_mb":60,"cpu_s":1.4,"ops":1,"failed":0,
            "answer":null,"digest":"00ff","metrics":{"des.events":7},
            "spans":[{"name":"run","start_ns":5,"end_ns":9,"parent":null}]}"#;
        let c = ChildResult::parse(line).unwrap();
        assert_eq!((c.host_s, c.ops, c.answer.as_deref()), (1.5, 1, None));
        assert_eq!(c.metric("des.events"), 7.0);
        assert_eq!(c.spans[0].dur_ns(), 4);
        assert!(ChildResult::parse("thread 'main' panicked").is_none());
    }
}
