//! # allscale-bench — the experiment engine
//!
//! Every table of EXPERIMENTS.md — the paper's Table 1 and Fig. 7 with
//! the A1–A3 ablations, and the B1, S1, I1, SV1 and C1 sweeps — is one
//! [`Experiment`]: a name, a list of rows and the conclusions drawn from
//! them. A row is plain data (app, system, node count, configuration
//! values, seed), and running it yields named columns. [`run`] runs the
//! selected experiments' rows on one worker per core, pulling from one
//! shared queue, then judges each table by its conclusions; every row is
//! an independent single-threaded simulation, so the worker count changes
//! no virtual number. [`json`] writes one experiment's rows as
//! `BENCH_<name>.json` (one object per line, declaration order, the
//! virtual columns plus `host_ms`), and [`text`] renders them as a table.
//! The `experiments` bin drives both:
//!
//! ```text
//! cargo run --release -p allscale-bench --bin experiments              # every experiment
//! cargo run --release -p allscale-bench --bin experiments -- b1 s1     # a selection
//! cargo run --release -p allscale-bench --bin experiments -- --out target fig7
//! ```
//!
//! Host time per layer is measured by `hostbench/` (its README lists the
//! probes); a row's `host_ms` here is only that row's wall time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod calib;
mod rows;

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rows::experiments;

/// One cell of a row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A count, a size or a virtual-time span.
    Int(u64),
    /// A number at full precision (its shortest round-trip form).
    Num(f64),
    /// A number with this many decimals: the precision `BENCH_serve.json`
    /// always had for `achieved_rps` and `virtual_ms`, and every `host_ms`.
    Fixed(f64, usize),
    /// A label.
    Text(String),
}

impl fmt::Display for Value {
    /// The cell as a JSON value.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Num(v) => {
                assert!(v.is_finite(), "{v} has no JSON form");
                write!(f, "{v}")
            }
            Value::Fixed(v, decimals) => write!(f, "{v:.decimals$}"),
            Value::Text(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        }
    }
}

/// A row's named cells, in order.
pub type Columns = Vec<(&'static str, Value)>;

/// One table: a name (its file is `BENCH_<name>.json`), rows, conclusions.
#[derive(Debug)]
pub struct Experiment {
    /// The experiment's name.
    pub name: &'static str,
    rows: Vec<rows::Row>,
    conclusions: &'static [Conclusion],
}

/// A claim EXPERIMENTS.md makes about one experiment's table (its rows in
/// declaration order), cited as `<experiment>::<name>`.
#[derive(Debug)]
struct Conclusion {
    name: &'static str,
    check: fn(&[Columns]) -> Verdict,
}

/// A check's outcome: `Err` says what broke.
type Verdict = Result<(), String>;

impl Experiment {
    /// One failure line per conclusion that `table` breaks.
    fn judge(&self, table: &[Columns]) -> Vec<String> {
        let broken = self.conclusions.iter().filter_map(|c| {
            let (x, why) = (self.name, (c.check)(table).err()?);
            Some(format!("conclusion failed: {x}::{}: {why}", c.name))
        });
        broken.collect()
    }
}

/// The `experiments` bin's command line, `[--out DIR] [NAME ...]`: the
/// output directory (default: the current one) and the named experiments
/// in declaration order (all of them when none is named).
pub fn select<S: Into<String>>(
    args: impl IntoIterator<Item = S>,
) -> Result<(PathBuf, Vec<Experiment>), String> {
    let mut out = PathBuf::from(".");
    let mut names = Vec::new();
    let mut args = args.into_iter().map(Into::into);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next().ok_or("--out takes a directory")?.into(),
            _ => names.push(arg),
        }
    }
    let mut all = experiments();
    let known: Vec<&str> = all.iter().map(|x| x.name).collect();
    if let Some(name) = names.iter().find(|n| !known.contains(&n.as_str())) {
        return Err(format!(
            "unknown experiment {name:?} (known: {})",
            known.join(" ")
        ));
    }
    if !names.is_empty() {
        all.retain(|x| names.iter().any(|n| n == x.name));
    }
    Ok((out, all))
}

/// Run every row of `experiments` on one worker per available core, each
/// worker taking the next row in declaration order, then judge each table
/// by its conclusions. Per experiment, its rows' columns in declaration
/// order, each ending in `host_ms`; or one line per failed row check, or
/// else per broken conclusion, naming the row or the conclusion.
pub fn run(experiments: &[Experiment]) -> Result<Vec<Vec<Columns>>, Vec<String>> {
    run_on(
        experiments,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

fn run_on(experiments: &[Experiment], workers: usize) -> Result<Vec<Vec<Columns>>, Vec<String>> {
    let queue: Vec<(usize, usize)> = (experiments.iter().enumerate())
        .flat_map(|(e, x)| (0..x.rows.len()).map(move |r| (e, r)))
        .collect();
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut done = Vec::new();
        while let Some(&(e, r)) = queue.get(next.fetch_add(1, Ordering::Relaxed)) {
            let row = &experiments[e].rows[r];
            let started = Instant::now();
            let result = row.run().map(|columns| {
                let host_ms = started.elapsed().as_secs_f64() * 1e3;
                let mut all = row.key();
                all.extend(columns);
                all.push(("host_ms", Value::Fixed(host_ms, 1)));
                all
            });
            done.push((e, r, result));
        }
        done
    };
    // Each row is one single-threaded simulation that shares nothing with
    // the others; the workers share only the queue's cursor.
    #[allow(clippy::disallowed_methods)]
    let mut done: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1)).map(|_| s.spawn(worker)).collect();
        let done = handles
            .into_iter()
            .map(|h| h.join().expect("a row panicked"));
        done.flatten().collect()
    });
    done.sort_by_key(|&(e, r, _)| (e, r));
    let failures: Vec<String> = (done.iter())
        .filter_map(|(e, r, result)| {
            let (name, row) = (experiments[*e].name, &experiments[*e].rows[*r]);
            result
                .as_ref()
                .err()
                .map(|what| format!("row check failed: {name} {row:?}: {what}"))
        })
        .collect();
    if !failures.is_empty() {
        return Err(failures);
    }
    let mut tables = vec![Vec::new(); experiments.len()];
    for (e, _, row) in done {
        tables[e].extend(row);
    }
    let broken = (experiments.iter().zip(&tables)).flat_map(|(x, t)| x.judge(t));
    let broken: Vec<String> = broken.collect();
    broken.is_empty().then_some(tables).ok_or(broken)
}

/// An experiment's rows as its `BENCH_<name>.json`: a JSON array with one
/// object per line.
pub fn json(rows: &[Columns]) -> String {
    let objects: Vec<String> = rows.iter().map(object).collect();
    format!("[\n  {}\n]\n", objects.join(",\n  "))
}

/// One row as a JSON object.
fn object(row: &Columns) -> String {
    let cells: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", cells.join(","))
}

/// The rows of `table` whose leading cells read `key`, a space-separated
/// list of labels (a string's contents, or a number's JSON form).
fn rows_of<'t>(table: &'t [Columns], key: &str) -> Vec<&'t Columns> {
    let label = |l: &str, v: &Value| matches!(v, Value::Text(s) if s == l) || v.to_string() == l;
    let reads = |row: &&Columns| (key.split(' ').zip(row.iter())).all(|(l, (_, v))| label(l, v));
    table.iter().filter(reads).collect()
}

/// The one row of `table` whose leading cells read `key`.
fn the<'t>(table: &'t [Columns], key: &str) -> Result<&'t Columns, String> {
    match rows_of(table, key)[..] {
        [row] => Ok(row),
        _ => Err(format!("not one row {key:?}")),
    }
}

/// `row`'s `column`.
fn get<'r>(row: &'r Columns, column: &str) -> Result<&'r Value, String> {
    let (_, v) = (row.iter().find(|(k, _)| *k == column)).ok_or(format!("no {column}"))?;
    Ok(v)
}

/// `row`'s `column` as a number.
fn num(row: &Columns, column: &str) -> Result<f64, String> {
    match *get(row, column)? {
        Value::Int(n) => Ok(n as f64),
        Value::Num(x) | Value::Fixed(x, _) => Ok(x),
        Value::Text(ref s) => Err(format!("{column} {s:?} is not a number")),
    }
}

/// An experiment's rows as a text table: one column per name any row has,
/// `host_ms` last; full-precision numbers shown with an engineering
/// suffix, every other cell as in the JSON.
pub fn text(name: &str, rows: &[Columns]) -> String {
    let mut names: Vec<&str> = Vec::new();
    for (k, _) in rows.iter().flatten() {
        if !names.contains(k) {
            names.push(k);
        }
    }
    names.retain(|k| *k != "host_ms");
    names.push("host_ms");
    let cell = |row: &Columns, name: &str| match row.iter().find(|(k, _)| *k == name) {
        Some((_, Value::Num(v))) => fmt_throughput(*v).trim().to_string(),
        Some((_, Value::Text(s))) => s.clone(),
        Some((_, v)) => v.to_string(),
        None => String::new(),
    };
    let mut lines = vec![names.iter().map(|n| n.to_string()).collect::<Vec<_>>()];
    lines.extend(
        rows.iter()
            .map(|row| names.iter().map(|n| cell(row, n)).collect()),
    );
    let width = |i: usize| lines.iter().map(|l| l[i].len()).max();
    let widths: Vec<usize> = (0..names.len()).filter_map(width).collect();
    let mut out = format!("## {name}\n");
    for line in &lines {
        let padded: Vec<String> = line
            .iter()
            .zip(&widths)
            .map(|(v, w)| format!("{v:>w$}"))
            .collect();
        out += &(padded.join("  ") + "\n");
    }
    out + "\n"
}

/// Format a number with an engineering suffix.
fn fmt_throughput(v: f64) -> String {
    if v >= 1e9 {
        format!("{:8.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:8.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:8.2}k", v / 1e3)
    } else {
        format!("{v:8.2} ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows of a `BENCH_<name>.json` as [`json`] writes it (one flat
    /// object per line; no string holds `,"`): a string reads as `Text`, a
    /// whole number as `Int`, a number with a point as `Fixed` at the
    /// decimals it shows, so each cell prints as it was read.
    fn read(json: &'static str) -> Vec<Columns> {
        let mut rows = Vec::new();
        for object in (json.lines()).filter_map(|l| l.trim().strip_prefix("{\"")) {
            let mut row = Columns::new();
            for cell in object.trim_end_matches([',', '}']).split(",\"") {
                let (key, token) = cell.split_once("\":").expect("a cell");
                let value = match (token.strip_prefix('"'), token.split_once('.')) {
                    (Some(s), _) => Value::Text(s.trim_end_matches('"').to_string()),
                    (None, Some((_, decimals))) => {
                        Value::Fixed(token.parse().unwrap(), decimals.len())
                    }
                    (None, None) => {
                        (token.parse()).map_or(Value::Num(token.parse().unwrap()), Value::Int)
                    }
                };
                row.push((key, value));
            }
            rows.push(row);
        }
        rows
    }

    /// Every checked-in `BENCH_<name>.json`.
    const CHECKED_IN: [(&str, &str); 7] = [
        ("table1", include_str!("../../../BENCH_table1.json")),
        ("fig7", include_str!("../../../BENCH_fig7.json")),
        ("b1", include_str!("../../../BENCH_b1.json")),
        ("s1", include_str!("../../../BENCH_s1.json")),
        ("i1", include_str!("../../../BENCH_i1.json")),
        ("serve", include_str!("../../../BENCH_serve.json")),
        ("ckpt", include_str!("../../../BENCH_ckpt.json")),
    ];

    /// The rows of experiment `name`'s checked-in file.
    fn checked_in(name: &str) -> Vec<Columns> {
        let found = CHECKED_IN.iter().find(|(n, _)| *n == name);
        read(found.expect("every experiment has a file").1)
    }

    /// A row as its JSON object without `host_ms`.
    fn virtual_cells(row: &Columns) -> String {
        let mut row = row.clone();
        row.retain(|(k, _)| *k != "host_ms");
        object(&row)
    }

    /// Rerun each row `keep` picks (by its experiment's name and the row)
    /// on `workers`, without conclusions (a part of a table does not hold
    /// them): how many rows, or else which row differs from its checked-in
    /// twin minus `host_ms`.
    fn replay(keep: impl Fn(&str, &rows::Row) -> bool, workers: usize) -> Result<usize, String> {
        let (mut picked, mut twins) = (Vec::new(), Vec::new());
        for mut x in experiments() {
            let (name, file) = (x.name, checked_in(x.name));
            if file.len() != x.rows.len() {
                return Err(format!("BENCH_{name}.json does not hold {name}'s rows"));
            }
            let kept = x.rows.iter().zip(&file).filter(|(row, _)| keep(name, row));
            twins.extend(kept.map(|(_, twin)| virtual_cells(twin)));
            x.rows.retain(|row| keep(name, row));
            x.conclusions = &[];
            picked.push(x);
        }
        let tables = run_on(&picked, workers).map_err(|failed| failed.join("\n"))?;
        let rows = tables.iter().flatten().map(virtual_cells);
        for (row, twin) in rows.zip(&twins) {
            if row != *twin {
                return Err(format!("on {workers} workers {row} is not its twin {twin}"));
            }
        }
        Ok(twins.len())
    }

    /// The reader inverts the writer: each checked-in file, read and
    /// written again, is the same bytes.
    #[test]
    fn every_checked_in_file_reads_back_to_its_bytes() {
        for (name, file) in CHECKED_IN {
            assert_eq!(json(&read(file)), file, "BENCH_{name}.json");
        }
    }

    /// The bin's command line: names select, in declaration order, and
    /// `--out` names the directory.
    #[test]
    fn app_parsing() {
        let (out, all) = select::<&str>([]).unwrap();
        assert_eq!(out, PathBuf::from("."));
        let names: Vec<&str> = all.iter().map(|x| x.name).collect();
        assert_eq!(names, ["table1", "fig7", "b1", "s1", "i1", "serve", "ckpt"]);
        let (out, some) = select(["s1", "--out", "target", "b1"]).unwrap();
        assert_eq!(out, PathBuf::from("target"));
        assert_eq!(
            some.iter().map(|x| x.name).collect::<Vec<_>>(),
            ["b1", "s1"]
        );
        assert!(select(["nope"]).unwrap_err().contains("nope"));
        assert!(select(["--out"]).is_err());
    }

    #[test]
    fn throughput_formatting() {
        assert!(fmt_throughput(2.5e9).contains('G'));
        assert!(fmt_throughput(2.5e6).contains('M'));
        assert!(fmt_throughput(999.0).trim().starts_with("999"));
    }

    /// Every conclusion holds on the table it judges as checked in: a
    /// regenerated file that flips a claim fails here, not only in CI's
    /// fresh run.
    #[test]
    fn every_conclusion_holds_on_its_checked_in_table() {
        for x in experiments() {
            let broken = x.judge(&checked_in(x.name));
            assert!(broken.is_empty(), "{broken:#?}");
        }
    }

    /// The rows a debug build can afford: every row but the round-robin
    /// stencil at 8, 16 and 32 nodes, which cost twice all the others
    /// together (EXPERIMENTS.md, Calibration).
    fn cheap(row: &rows::Row) -> bool {
        use rows::{App::Stencil, Row::Fig7, System::RoundRobin};
        !matches!(row, Fig7(Stencil, RoundRobin, n) if *n >= 8)
    }

    /// Tier-1's one replay of the paper's rows: every cheap row, run on
    /// four workers under the debug checks, equals its twin — 124 of the
    /// 127, so a narrowed filter fails here.
    #[test]
    fn every_cheap_row_equals_its_checked_in_twin() {
        assert_eq!(replay(|_, row| cheap(row), 4), Ok(124));
    }

    /// The worker count changes no table: the B1, S1, I1, SV1 and C1 rows
    /// (multi-node runs of every app but iPiC3D, with batching, stealing,
    /// rot, the scrubber, serving and checkpoints) on one worker equal the
    /// twins the four-worker pass above equals too.
    #[test]
    fn threads_do_not_change_a_table() {
        let small = |x: &str, _: &rows::Row| ["b1", "s1", "i1", "serve", "ckpt"].contains(&x);
        replay(small, 1).unwrap();
    }

    /// Each conclusion, fed its checked-in table with one cell moved past
    /// its bound, breaks, and the failure line `run` reports names the
    /// experiment and the conclusion.
    #[test]
    fn a_broken_conclusion_names_itself() {
        // One cell per conclusion, in declaration order: the row (its
        // key), the column, and the factor that moves it past the bound.
        const BREAKS: [(&str, &str, f64); 9] = [
            ("stencil MPI 64", "throughput", 0.9),
            ("tpc AllScale 64", "throughput", 2.0),
            ("tpc AllScale 8", "throughput", 1.5),
            ("tpc AllScale(central-idx) 64", "throughput", 1.2),
            ("tpc AllScale(round-robin) 16", "throughput", 1.1),
            ("tpc AllScale(batched) 16", "throughput", 1.2),
            ("tpc on", "compute_ns", 1.6),
            ("stencil data-aware", "compute_ns", 0.5),
            ("static 800000", "achieved_rps", 1.1),
        ];
        let mut breaks = BREAKS.into_iter();
        for x in experiments() {
            for c in x.conclusions {
                let (key, column, factor) = breaks.next().expect("a cell per conclusion");
                let mut table = checked_in(x.name);
                let row = (table.iter()).position(|r| the(std::slice::from_ref(r), key).is_ok());
                let row = &mut table[row.expect("the row")];
                let moved = Value::Num(num(row, column).unwrap() * factor);
                row.iter_mut().find(|(k, _)| *k == column).unwrap().1 = moved;
                let name = format!("{}::{}", x.name, c.name);
                assert!((c.check)(&table).is_err(), "{name} holds");
                let named = format!("conclusion failed: {name}: ");
                assert!(x.judge(&table).iter().any(|l| l.starts_with(&named)));
            }
        }
        assert_eq!(breaks.next(), None, "a cell per conclusion");
    }
}
