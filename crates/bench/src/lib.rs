//! # allscale-bench — the experiment engine
//!
//! Every table of EXPERIMENTS.md — the paper's Table 1 and Fig. 7 with
//! the A1–A3 ablations, and the B1, S1, I1, SV1 and C1 sweeps — is one
//! [`Experiment`]: a name and a list of rows. A row is plain data (app,
//! system, node count, configuration values, seed), and running it yields
//! named columns. [`run`] runs the selected experiments' rows on one
//! worker per core, pulling from one shared queue; every row is an
//! independent single-threaded simulation, so the worker count changes
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
//! Criterion microbenches for the runtime's building blocks live under
//! `benches/`.

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

/// One table: a name (its file is `BENCH_<name>.json`) and its rows.
#[derive(Debug)]
pub struct Experiment {
    /// The experiment's name.
    pub name: &'static str,
    rows: Vec<rows::Row>,
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
/// worker taking the next row in declaration order. Per experiment, its
/// rows' columns in declaration order, each ending in `host_ms`; or one
/// line per failed row check, naming the row.
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
                .map(|what| format!("{name} {row:?}: {what}"))
        })
        .collect();
    if !failures.is_empty() {
        return Err(failures);
    }
    let mut tables = vec![Vec::new(); experiments.len()];
    for (e, _, row) in done {
        tables[e].extend(row);
    }
    Ok(tables)
}

/// An experiment's rows as its `BENCH_<name>.json`: a JSON array with one
/// object per line.
pub fn json(rows: &[Columns]) -> String {
    let objects: Vec<String> = rows
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            format!("{{{}}}", cells.join(","))
        })
        .collect();
    format!("[\n  {}\n]\n", objects.join(",\n  "))
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

    /// The worker count changes no table: the same rows on one worker and
    /// on four give byte-identical JSON minus `host_ms`, in declaration
    /// order. (B1, S1 and I1: multi-node runs of every app but iPiC3D,
    /// with batching, stealing, rot and the scrubber; cheap in a debug
    /// build, unlike Fig. 7's paper-scaled rows.)
    #[test]
    fn threads_do_not_change_a_table() {
        let mut small = experiments();
        small.retain(|x| ["b1", "s1", "i1"].contains(&x.name));
        let without_host_ms = |workers| -> Vec<String> {
            let tables = run_on(&small, workers).expect("rows pass their checks");
            let tables = small.iter().zip(tables).map(|(x, rows)| {
                let keys: Vec<Columns> = x.rows.iter().map(|r| r.key()).collect();
                let rows: Vec<Columns> = rows
                    .into_iter()
                    .map(|row| row.into_iter().filter(|(k, _)| *k != "host_ms").collect())
                    .collect();
                assert!(keys.iter().zip(&rows).all(|(k, row)| row.starts_with(k)));
                json(&rows)
            });
            tables.collect()
        };
        assert_eq!(without_host_ms(1), without_host_ms(4));
    }
}
