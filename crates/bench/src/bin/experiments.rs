//! Runs the selected experiments (all when none is named) and writes each
//! one's `BENCH_<name>.json` into the output directory (default: the
//! current one; created if missing), printing its table. A failed row
//! check exits 1 and names the row, a broken conclusion the experiment
//! and the conclusion; neither writes a file.
//!
//! ```text
//! cargo run --release -p allscale-bench --bin experiments -- [--out DIR] [NAME ...]
//! ```

use std::time::Instant;

use allscale_bench::{json, run, select, text};

fn main() {
    let (out, selected) = select(std::env::args().skip(1)).unwrap_or_else(|why| {
        eprintln!("{why}");
        std::process::exit(2);
    });
    let started = Instant::now();
    let tables = run(&selected).unwrap_or_else(|failures| {
        for failure in failures {
            eprintln!("{failure}");
        }
        std::process::exit(1);
    });
    std::fs::create_dir_all(&out).unwrap_or_else(|e| panic!("{}: {e}", out.display()));
    for (x, rows) in selected.iter().zip(&tables) {
        print!("{}", text(x.name, rows));
        let path = out.join(format!("BENCH_{}.json", x.name));
        std::fs::write(&path, json(rows))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
    let rows: usize = tables.iter().map(Vec::len).sum();
    eprintln!("{rows} rows in {:.1} s", started.elapsed().as_secs_f64());
}
