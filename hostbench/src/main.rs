//! `hostbench` — the two-clock, layer-attributed benchmark of the
//! AllScale runtime simulator. See `README.md` in this directory.
//!
//! ```text
//! hostbench [--workload NAME] [--seed N] [--seconds S] [--reps N] [--trace 0|1]
//! hostbench --aa [--seed N] [--seconds S] [--reps N]
//! hostbench --compare BASE.json NEW.json
//! hostbench --regen-golden
//! hostbench --list
//! ```
//!
//! With `--workload` the last line of standard output is the one JSON
//! object the benchmark contract asks for; without it every workload
//! runs, timed pass then traced pass. Either way the full record goes to
//! `target/hostbench/result.json` and the benchmark's own host-clock
//! spans to `target/hostbench/trace.json`.

mod child;
mod golden;
mod json;
mod probes;
mod run;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

use json::Value;
use run::{Budget, Mode, Rep, Stat, TimedSummary, TraceSummary, Verdict};
use spans::Recorder;
use spec::{Better, Workload, DEFAULT_SECONDS, END_TO_END, MIN_REPS, PER_LAYER, WORKLOADS};

const OUT_DIR: &str = "target/hostbench";

struct Cli {
    workload: Option<&'static Workload>,
    seed: u64,
    budget: Budget,
    /// `Some(false)`: timed pass only; `Some(true)`: traced pass only;
    /// `None`: both.
    trace: Option<bool>,
}

/// Value of `--flag`, parsed.
fn opt<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn has(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let workload = match opt::<String>(args, "--workload")? {
        None => None,
        Some(name) => {
            Some(spec::workload(&name).ok_or_else(|| format!("unknown workload {name}"))?)
        }
    };
    let seconds = opt(args, "--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match opt::<u8>(args, "--trace")? {
        None => None,
        Some(0) => Some(false),
        Some(1) => Some(true),
        Some(_) => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Cli {
        workload,
        seed: opt(args, "--seed")?.unwrap_or(1),
        budget: Budget {
            seconds,
            reps: opt(args, "--reps")?,
        },
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if has(&args, "--child") {
        child_main(&args)
    } else if has(&args, "--list") {
        print!("{}", spec::list());
        Ok(true)
    } else if has(&args, "--regen-golden") {
        regen_golden()
    } else if let Some(i) = args.iter().position(|a| a == "--compare") {
        match (args.get(i + 1), args.get(i + 2)) {
            (Some(base), Some(new)) => compare(base, new),
            _ => Err("--compare needs BASE.json and NEW.json".into()),
        }
    } else {
        parse_cli(&args).and_then(|cli| {
            if has(&args, "--aa") {
                aa(&cli)
            } else {
                bench(&cli)
            }
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn child_main(args: &[String]) -> Result<bool, String> {
    let need = |flag: &str| format!("--child needs {flag}");
    let out = child::run(&child::Args {
        workload: opt(args, "--child")?.ok_or_else(|| need("a workload"))?,
        sub_seed: opt(args, "--sub-seed")?.ok_or_else(|| need("--sub-seed"))?,
        traced: has(args, "--traced"),
        validate: has(args, "--validate"),
        probe_seconds: opt(args, "--probe-seconds")?,
        spawned_at_ns: opt(args, "--spawned-at")?.ok_or_else(|| need("--spawned-at"))?,
    });
    println!("{}", out.compact());
    Ok(true)
}

/// Everything measured for one workload.
struct WorkloadResult {
    workload: &'static Workload,
    timed: Option<TimedSummary>,
    traced: Option<TraceSummary>,
}

impl WorkloadResult {
    fn verdicts(&self) -> impl Iterator<Item = &Verdict> {
        let timed = self.timed.iter().map(|t| &t.verdict);
        timed.chain(self.traced.iter().map(|t| &t.verdict))
    }
    fn attempted(&self) -> u64 {
        self.verdicts().map(|v| v.attempted).sum()
    }
    fn failed(&self) -> u64 {
        self.verdicts().map(|v| v.failed).sum()
    }
    fn correct(&self) -> bool {
        self.verdicts().all(Verdict::correct)
    }
    fn problems(&self) -> impl Iterator<Item = &String> {
        self.verdicts().flat_map(|v| &v.problems)
    }
}

fn measure(w: &'static Workload, cli: &Cli, rec: &mut Recorder) -> WorkloadResult {
    let root = rec.begin(w.name);
    let timed = (cli.trace != Some(true)).then(|| {
        let pass = rec.begin("timed pass");
        let reps = run::timed_pass(w, cli.seed, cli.budget, rec);
        rec.end(pass);
        run::summarise_timed(w, &reps)
    });
    let traced = (cli.trace != Some(false)).then(|| {
        let pass = rec.begin("traced pass");
        let out = run::trace_pass(w, cli.seed, cli.budget, rec);
        rec.end(pass);
        run::summarise_trace(w, &out)
    });
    rec.end(root);
    WorkloadResult {
        workload: w,
        timed,
        traced,
    }
}

fn print_result(r: &WorkloadResult) {
    println!(
        "\n== {} — {}\n   attempted {} failed {} correct {}{}",
        r.workload.name,
        r.workload.why,
        r.attempted(),
        r.failed(),
        r.correct(),
        if r.workload.seeded {
            ""
        } else {
            "  (no randomness: --seed does not reach this workload)"
        },
    );
    for p in r.problems() {
        println!("   ! {p}");
    }
    if let Some(t) = &r.timed {
        for ((name, s), m) in t.end_to_end.iter().zip(&END_TO_END) {
            println!(
                "   {name:<34} {:>16.6} {:<8} spread {:.1}% of n {} ({} is better, bound {}%)",
                s.value,
                m.unit,
                s.spread() * 100.0,
                s.n,
                m.better.as_str(),
                m.bound * 100.0
            );
        }
    }
    if let Some(t) = &r.traced {
        for ((name, v), m) in t.per_layer.iter().zip(&PER_LAYER) {
            println!("   {name:<34} {v:>16.6} {}", m.unit);
        }
    }
}

fn stat_json(s: &Stat, unit: &str) -> Value {
    Value::obj([
        ("value", Value::Num(s.value)),
        ("unit", Value::Str(unit.into())),
        ("q1", Value::Num(s.q1)),
        ("q3", Value::Num(s.q3)),
        ("n", Value::Num(s.n as f64)),
    ])
}

fn result_json(cli: &Cli, results: &[WorkloadResult], rec: &Recorder) -> Value {
    let workloads = results.iter().map(|r| {
        let e2e = r.timed.iter().flat_map(|t| &t.end_to_end).zip(&END_TO_END);
        let layers = r.traced.iter().flat_map(|t| &t.per_layer).zip(&PER_LAYER);
        let body = Value::obj([
            ("attempted", Value::Num(r.attempted() as f64)),
            ("failed", Value::Num(r.failed() as f64)),
            ("correct", Value::Bool(r.correct())),
            (
                "problems",
                Value::Arr(r.problems().map(|p| Value::Str(p.clone())).collect()),
            ),
            (
                "end_to_end",
                Value::obj(e2e.map(|((n, s), m)| (*n, stat_json(s, m.unit)))),
            ),
            (
                "per_layer",
                Value::obj(layers.map(|((n, v), m)| {
                    (
                        *n,
                        Value::obj([
                            ("value", Value::Num(*v)),
                            ("unit", Value::Str(m.unit.into())),
                        ]),
                    )
                })),
            ),
        ]);
        (r.workload.name, body)
    });
    let spans = rec.spans();
    let span_rows = spans.iter().enumerate().map(|(i, s)| {
        Value::obj([
            ("name", Value::Str(s.name.clone())),
            (
                "parent",
                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
            ),
            ("total_ms", Value::Num(s.dur_ns() as f64 / 1e6)),
            ("self_ms", Value::Num(spans::self_ns(spans, i) as f64 / 1e6)),
        ])
    });
    Value::obj([
        // This benchmark measures; it claims no gain.
        ("claim", Value::Null),
        ("seed", Value::Num(cli.seed as f64)),
        ("seconds", Value::Num(cli.budget.seconds)),
        ("min_reps", Value::Num(MIN_REPS as f64)),
        (
            "available_parallelism",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workloads", Value::obj(workloads)),
        ("spans", Value::Arr(span_rows.collect())),
    ])
}

fn write_outputs(cli: &Cli, results: &[WorkloadResult], rec: &Recorder) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let write = |name: &str, text: String| {
        let path = format!("{OUT_DIR}/{name}");
        std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))
    };
    write("result.json", result_json(cli, results, rec).pretty())?;
    write("trace.json", spans::chrome_trace(rec.spans()).compact())
}

/// The contract's one-line result for a single workload and pass.
fn contract_line(r: &WorkloadResult, traced: bool) -> Value {
    let metric = |v: f64, unit: &str| {
        Value::obj([("value", Value::Num(v)), ("unit", Value::Str(unit.into()))])
    };
    let metrics = if traced {
        let layers = r.traced.iter().flat_map(|t| &t.per_layer).zip(&PER_LAYER);
        Value::obj(layers.map(|((n, v), m)| (*n, metric(*v, m.unit))))
    } else {
        let e2e = r.timed.iter().flat_map(|t| &t.end_to_end).zip(&END_TO_END);
        Value::obj(e2e.map(|((n, s), m)| (*n, metric(s.value, m.unit))))
    };
    Value::obj([
        ("correct", Value::Bool(r.correct())),
        ("attempted", Value::Num(r.attempted() as f64)),
        ("failed", Value::Num(r.failed() as f64)),
        ("metrics", metrics),
    ])
}

fn bench(cli: &Cli) -> Result<bool, String> {
    let mut rec = Recorder::new();
    let todo: Vec<&'static Workload> = match cli.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut results = Vec::new();
    for w in todo {
        let r = measure(w, cli, &mut rec);
        print_result(&r);
        results.push(r);
    }
    write_outputs(cli, &results, &rec)?;
    println!("\nwrote {OUT_DIR}/result.json and {OUT_DIR}/trace.json");
    if let (Some(_), [r]) = (cli.workload, results.as_slice()) {
        // Nothing measured means nothing to report: fail loudly instead
        // of printing a result without metrics.
        if r.timed.as_ref().is_some_and(|t| t.end_to_end.is_empty()) {
            return Err(format!("{}: every repetition died", r.workload.name));
        }
        println!("{}", contract_line(r, cli.trace == Some(true)).compact());
        return Ok(true);
    }
    Ok(results.iter().all(WorkloadResult::correct))
}

/// By how much `new` is worse than `base`, as a share of `base`
/// (negative: better).
fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => (new - base) / base,
        Better::Higher => (base - new) / base,
    }
}

/// `--aa`: the whole benchmark twice on the same build. Host-clock
/// medians must agree within each metric's bound; everything on the
/// virtual clock must agree exactly.
fn aa(cli: &Cli) -> Result<bool, String> {
    let mut rec = Recorder::new();
    let mut sets = Vec::new();
    for set in ["A", "B"] {
        println!("\n#### set {set}");
        let root = rec.begin(&format!("set {set}"));
        let results: Vec<WorkloadResult> = WORKLOADS
            .iter()
            .filter(|w| cli.workload.is_none_or(|only| only.name == w.name))
            .map(|w| measure(w, cli, &mut rec))
            .collect();
        rec.end(root);
        sets.push(results);
    }
    let mut ok = true;
    println!("\n#### A/A comparison");
    println!(
        "{:<16} {:<18} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        ok &= a.correct() && b.correct();
        let (ta, tb) = (
            a.timed.iter().flat_map(|t| &t.end_to_end),
            b.timed.iter().flat_map(|t| &t.end_to_end),
        );
        for (((name, sa), (_, sb)), m) in ta.zip(tb).zip(&END_TO_END) {
            let diff = worse_by(m.better, sa.value, sb.value);
            let agree = diff.abs() <= m.bound;
            ok &= agree;
            println!(
                "{:<16} {:<18} {:>16.6} {:>16.6} {:>8.2}% {:>6.0}% {}",
                a.workload.name,
                name,
                sa.value,
                sb.value,
                diff * 100.0,
                m.bound * 100.0,
                if agree { "" } else { "DISAGREE" }
            );
        }
        let (la, lb) = (
            a.traced.iter().flat_map(|t| &t.per_layer),
            b.traced.iter().flat_map(|t| &t.per_layer),
        );
        for (((name, va), (_, vb)), m) in la.zip(lb).zip(&PER_LAYER) {
            if m.kind == spec::Kind::Exact && va.to_bits() != vb.to_bits() {
                ok = false;
                println!(
                    "{:<16} {name:<18} {va} != {vb} NOT BIT-IDENTICAL",
                    a.workload.name
                );
            }
        }
    }
    write_outputs(cli, &sets[1], &rec)?;
    println!("\nA/A {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

/// `--compare BASE NEW`: fail when any end-to-end median in `NEW` is
/// worse than in `BASE` by more than the metric's bound, or when `NEW`
/// has failures.
fn compare(base: &str, new: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, new) = (load(base)?, load(new)?);
    let mut ok = true;
    for w in &WORKLOADS {
        let side = |doc: &Value| doc.get("workloads")?.get(w.name).cloned();
        let (Some(b), Some(n)) = (side(&base), side(&new)) else {
            println!("{:<16} missing on one side, skipped", w.name);
            continue;
        };
        if n.get("correct") != Some(&Value::Bool(true)) {
            ok = false;
            println!("{:<16} NEW is not correct", w.name);
        }
        for m in &END_TO_END {
            let value = |doc: &Value| doc.get("end_to_end")?.get(m.name)?.get("value")?.as_f64();
            let (Some(vb), Some(vn)) = (value(&b), value(&n)) else {
                continue;
            };
            let diff = worse_by(m.better, vb, vn);
            let regressed = diff > m.bound;
            ok &= !regressed;
            println!(
                "{:<16} {:<18} {vb:>16.6} -> {vn:>16.6} {:>8.2}% (bound {:.0}%) {}",
                w.name,
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if regressed { "REGRESSED" } else { "" }
            );
        }
    }
    Ok(ok)
}

/// `--regen-golden`: run every workload with the applications' own
/// oracles on and pin what they produce.
fn regen_golden() -> Result<bool, String> {
    let mut rec = Recorder::new();
    let mode = Mode {
        validate: true,
        ..Mode::default()
    };
    let mut doc = Vec::new();
    for w in &WORKLOADS {
        let seeds: Vec<u64> = if w.seeded {
            (1..=golden::GOLDEN_SEEDS)
                .flat_map(|s| (0..MIN_REPS).map(move |i| workloads::sub_seed(s, i)))
                .collect()
        } else {
            vec![0]
        };
        let mut answer = None;
        let mut digests = Vec::new();
        for s in seeds {
            let Rep::Done(c) = run::spawn(w, s, mode, "golden", &mut rec) else {
                return Err(format!("{} sub-seed {s}: child died", w.name));
            };
            if c.failed > 0 {
                return Err(format!(
                    "{} sub-seed {s}: the oracle rejected the run",
                    w.name
                ));
            }
            if answer.is_some() && answer != c.answer {
                return Err(format!("{}: answer depends on the seed", w.name));
            }
            println!("{} {} -> {}", w.name, golden::digest_key(w, s), c.digest);
            answer = c.answer;
            digests.push((golden::digest_key(w, s), Value::Str(c.digest)));
        }
        let mut entry = Vec::new();
        if let Some(a) = answer {
            entry.push(("answer", Value::Str(a)));
        }
        entry.push(("digests", Value::Obj(digests)));
        doc.push((w.name, Value::obj(entry)));
    }
    std::fs::write(golden::PATH, Value::obj(doc).pretty())
        .map_err(|e| format!("{}: {e}", golden::PATH))?;
    println!("wrote {}; rebuild to compile it in", golden::PATH);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert_eq!(worse_by(Better::Lower, 2.0, 2.5), 0.25);
        assert_eq!(worse_by(Better::Higher, 2.0, 1.5), 0.25);
        assert!(worse_by(Better::Higher, 2.0, 2.5) < 0.0);
    }

    #[test]
    fn cli_rejects_what_it_does_not_know() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--trace 2")).is_err());
        assert!(parse_cli(&args("--seconds 0")).is_err());
        assert!(parse_cli(&args("--seed")).is_err());
        let cli = parse_cli(&args("--workload tpc_64 --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (cli.workload.unwrap().name, cli.seed, cli.trace),
            ("tpc_64", 7, Some(true))
        );
    }
}
