//! The benchmark's fixed vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root declares the same lists (a unit test keeps the two in step), and
//! `hostbench --list` prints them.

/// Repetitions every timed pass makes at least. Their sub-seeds form the
/// fixed ensemble the virtual-clock metrics are taken over, so a given
/// `--seed` always reports the same virtual numbers however many more
/// repetitions the time budget allows.
pub const MIN_REPS: usize = 5;

/// Measuring time of one pass when `--seconds` is not given (equals
/// `run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

use Better::{Higher, Lower};

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (one line; repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Whether `--seed` reaches the program's inputs. The two Fig. 7
    /// applications contain no randomness at all.
    pub seeded: bool,
    /// Operations one repetition attempts: requests offered for the
    /// serving workloads, one verified run for the batch ones. A child
    /// that dies counts all of them as failed.
    pub ops_per_rep: u64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "stencil_64",
        why: "Fig. 7 stencil on 64 nodes: host time is Grid get/set and halo copies, the DES kernel idles; no randomness",
        seeded: false,
        ops_per_rep: 1,
    },
    Workload {
        name: "tpc_64",
        why: "Fig. 7 TPC on 64 nodes: many tiny forwarded tasks, so per-task control-plane cost is the bill; no randomness",
        seeded: false,
        ops_per_rep: 1,
    },
    Workload {
        name: "serve_overload",
        why: "open-loop serving above the knee: lock conflicts re-prepare parked tasks, the contended DIM path",
        seeded: true,
        ops_per_rep: crate::workloads::OVERLOAD_REQUESTS,
    },
    Workload {
        name: "serve_steady",
        why: "same serving layers below the knee: almost no conflicts, bound by event loop, arrivals and cache hits",
        seeded: true,
        ops_per_rep: crate::workloads::STEADY_REQUESTS,
    },
    Workload {
        name: "stencil_ft",
        why: "stencil with batching, integrity, stealing, async checkpoints, faults and a node kill: code no other workload enters",
        seeded: true,
        ops_per_rep: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric with its regression bound (share of the parent's
/// median by which it may get worse).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// Host-clock bounds are as wide as they are because this class of
/// sandbox shares physical cores: identical code swings by a quarter
/// between neighbour-quiet and neighbour-busy minutes (README, "Noise").
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "host_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "virt_throughput",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.15,
    },
];

/// How a per-layer value comes about, which decides what `--aa` may ask
/// of it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Read from the run's report on the virtual clock: repeats exactly.
    Exact,
    /// Involves the host clock: repeats within noise only.
    Host,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        kind: Kind::Exact,
    }
}

const fn host(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Host,
    }
}

/// Virtual-clock times carry their own units (`virt_ms`, `virt_us`,
/// `virt_ns`) so no reader mistakes them for host time.
pub const PER_LAYER: [PerLayer; 89] = [
    // virtual clock, whole run
    exact("virt.makespan_ms", "virt_ms", Lower),
    // des
    exact("des.events", "count", Lower),
    host("des.host_us_per_event", "us"),
    host("des.sim.ns_per_event", "ns"),
    host("des.sim.chain_ns_per_event", "ns"),
    host("des.cores.ns_per_acquire", "ns"),
    host("des.hist.ns_per_record", "ns"),
    host("des.arrivals.ns_per_gap", "ns"),
    // net
    exact("net.remote_msgs", "count", Lower),
    exact("net.remote_bytes", "bytes", Lower),
    exact("net.batches", "count", Lower),
    exact("net.retries", "count", Lower),
    exact("net.corrupt_detected", "count", Lower),
    host("net.host_us_per_msg", "us"),
    host("net.transfer.ns_per_msg", "ns"),
    host("net.transfer_frame.ns_per_msg", "ns"),
    host("net.coalesce.ns_per_msg", "ns"),
    host("net.frame.ns_per_kib", "ns"),
    // region
    host("region.box.ns_per_op", "ns"),
    host("region.grid_fragment.ns_per_access", "ns"),
    host("region.grid_fragment.copy_ns_per_kib", "ns"),
    host("region.bitmask.ns_per_op", "ns"),
    host("region.bucket.ns_per_op", "ns"),
    host("region.fingerprint.ns_per_kib", "ns"),
    // index and location cache
    exact("index.lookups", "count", Lower),
    exact("index.lookup_hops", "count", Lower),
    exact("index.update_hops", "count", Lower),
    exact("loc_cache.hits", "count", Higher),
    exact("loc_cache.misses", "count", Lower),
    exact("loc_cache.hit_ratio", "ratio", Higher),
    host("index.resolve.ns_per_op", "ns"),
    host("index.update.ns_per_op", "ns"),
    host("loc_cache.hit.ns_per_op", "ns"),
    host("loc_cache.miss.ns_per_op", "ns"),
    // dim
    exact("dim.lock_conflicts", "count", Lower),
    exact("dim.replicas_in", "count", Lower),
    exact("dim.migrations_in", "count", Lower),
    exact("dim.first_touch", "count", Lower),
    exact("dim.lock_success_ratio", "ratio", Higher),
    host("dim.try_lock.ns_per_op", "ns"),
    host("dim.try_lock_conflict.ns_per_op", "ns"),
    host("dim.export_import.ns_per_kib", "ns"),
    host("dim.checkpoint.ns_per_kib", "ns"),
    // scheduler
    exact("scheduler.tasks_queued", "count", Lower),
    exact("scheduler.steal_requests", "count", Lower),
    exact("scheduler.steal_grants", "count", Higher),
    host("scheduler.decide.ns_per_op", "ns"),
    host("scheduler.ws_queue.ns_per_op", "ns"),
    // facade
    host("facade.grid.ns_per_access", "ns"),
    // runtime
    exact("runtime.tasks", "count", Lower),
    exact("runtime.splits", "count", Lower),
    host("runtime.host_s", "s"),
    host("runtime.host_us_per_task", "us"),
    host("runtime.cpu_s", "s"),
    exact("runtime.report_digest_known", "bool", Higher),
    exact("runtime.report_digest_changed", "bool", Lower),
    host("runtime.unattributed_share", "ratio"),
    // serve
    exact("serve.completed", "count", Higher),
    exact("serve.shed", "count", Lower),
    exact("serve.replications", "count", Lower),
    exact("serve.invalidations", "count", Lower),
    exact("serve.slo_violations", "count", Lower),
    exact("serve.latency_mean_us", "virt_us", Lower),
    exact("serve.p50_bucket_us", "virt_us", Lower),
    exact("serve.p99_bucket_us", "virt_us", Lower),
    host("serve.host_us_per_req", "us"),
    // resilience, integrity, checkpoint storage
    exact("resilience.checkpoints", "count", Lower),
    exact("resilience.recoveries", "count", Lower),
    exact("resilience.tasks_reexecuted", "count", Lower),
    exact("resilience.ckpt_bytes", "bytes", Lower),
    exact("resilience.ckpt_stall_ns", "virt_ns", Lower),
    exact("integrity.wire_detected", "count", Lower),
    exact("integrity.scrub_passes", "count", Lower),
    exact("storage.remote_bytes_written", "bytes", Lower),
    // trace
    host("trace.record.ns_per_event", "ns"),
    host("trace.export.ns_per_event", "ns"),
    host("trace.critical_path.ns_per_event", "ns"),
    host("trace.overhead_frac", "ratio"),
    exact("trace.events_recorded", "count", Lower),
    exact("trace.dropped", "count", Lower),
    // virtual critical path of the traced run
    exact("cp.total_ms", "virt_ms", Lower),
    exact("cp.compute_frac", "ratio", Higher),
    exact("cp.transfer_frac", "ratio", Lower),
    exact("cp.index_frac", "ratio", Lower),
    exact("cp.lock_wait_frac", "ratio", Lower),
    exact("cp.recovery_frac", "ratio", Lower),
    exact("cp.runtime_frac", "ratio", Lower),
    // the benchmark's own phases in the traced child
    host("bench.verify_ms", "ms"),
    host("bench.probes_s", "s"),
];

/// `--list`: every name the benchmark knows, one per line.
pub fn list() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        out.push_str(&format!("workload {}\n", w.name));
    }
    for m in &END_TO_END {
        out.push_str(&format!(
            "end_to_end {} {} {} {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        ));
    }
    for m in &PER_LAYER {
        out.push_str(&format!(
            "per_layer {} {} {}\n",
            m.name,
            m.unit,
            m.better.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_use_the_allowed_characters_once() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "duplicate {name}");
        }
    }

    #[test]
    fn metric_counts_and_bounds_are_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    }

    /// `BENCHMARK.json` and `--list` name the same workloads and metrics.
    #[test]
    fn benchmark_json_matches_list() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let mut declared = String::new();
        for w in doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
        {
            let name = w.get("name").and_then(Value::as_str).expect("name");
            let why = w.get("why").and_then(Value::as_str).expect("why");
            assert_eq!(workload(name).expect("known workload").why, why);
            declared.push_str(&format!("workload {name}\n"));
        }
        for section in ["end_to_end", "per_layer"] {
            for m in doc.get(section).and_then(Value::as_array).expect(section) {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect("string field");
                declared.push_str(&format!(
                    "{section} {} {} {}",
                    field("name"),
                    field("unit"),
                    field("better")
                ));
                if let Some(b) = m.get("bound").and_then(Value::as_f64) {
                    declared.push_str(&format!(" {b}"));
                }
                declared.push('\n');
            }
        }
        assert_eq!(declared, list());
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
