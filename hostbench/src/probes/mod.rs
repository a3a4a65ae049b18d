//! Probe loops: each calls one layer's public functions directly, on
//! inputs shaped like its *home* workload, and reports host nanoseconds
//! per operation. They are the outside view of a layer's unit cost; the
//! README lists each probe's home workload and the end-to-end metric it
//! is expected to move.

mod core;
mod des;
mod net;
mod region;
mod trace;

use std::time::Instant;

use allscale_des::rng::XorShift64Star;

/// A probe: `(seed, seconds)` → host nanoseconds per operation.
pub type Probe = fn(u64, f64) -> f64;

/// Every probe under the per-layer metric name it reports.
pub const PROBES: [(&str, Probe); 29] = [
    ("des.sim.ns_per_event", des::sim_schedule_run),
    ("des.sim.chain_ns_per_event", des::sim_chain),
    ("des.cores.ns_per_acquire", des::core_pool_acquire),
    ("des.hist.ns_per_record", des::histogram_record),
    ("des.arrivals.ns_per_gap", des::arrival_gap),
    ("net.transfer.ns_per_msg", net::transfer),
    ("net.transfer_frame.ns_per_msg", net::transfer_frame),
    ("net.coalesce.ns_per_msg", net::coalesce),
    ("net.frame.ns_per_kib", net::frame_seal_open),
    ("region.box.ns_per_op", region::box_algebra),
    (
        "region.grid_fragment.ns_per_access",
        region::grid_fragment_access,
    ),
    (
        "region.grid_fragment.copy_ns_per_kib",
        region::grid_fragment_copy,
    ),
    ("region.bitmask.ns_per_op", region::bitmask_algebra),
    ("region.bucket.ns_per_op", region::bucket_algebra),
    ("region.fingerprint.ns_per_kib", region::fingerprint),
    ("index.resolve.ns_per_op", core::index_resolve),
    ("index.update.ns_per_op", core::index_update),
    ("loc_cache.hit.ns_per_op", core::loc_cache_hit),
    ("loc_cache.miss.ns_per_op", core::loc_cache_miss),
    ("dim.try_lock.ns_per_op", core::dim_try_lock),
    (
        "dim.try_lock_conflict.ns_per_op",
        core::dim_try_lock_conflict,
    ),
    ("dim.export_import.ns_per_kib", core::dim_export_import),
    ("dim.checkpoint.ns_per_kib", core::dim_checkpoint),
    ("scheduler.decide.ns_per_op", core::scheduler_decide),
    ("scheduler.ws_queue.ns_per_op", core::scheduler_ws_queue),
    ("facade.grid.ns_per_access", core::facade_grid),
    ("trace.record.ns_per_event", trace::record),
    ("trace.export.ns_per_event", trace::export),
    ("trace.critical_path.ns_per_event", trace::critical_path),
];

/// Call `batch` (which performs `ops` operations) once to warm up, then
/// repeatedly for at least `seconds`; host nanoseconds per operation
/// over the whole window.
fn per_op(seconds: f64, ops: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let start = Instant::now();
    let mut batches = 0u64;
    loop {
        batch();
        batches += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / (batches * ops) as f64
}

/// The probes' input generator.
fn rng(seed: u64) -> XorShift64Star {
    XorShift64Star::new(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every probe runs, and names a metric the spec lists as host-timed.
    #[test]
    fn probes_run_and_are_declared() {
        for (name, probe) in PROBES {
            let spec = crate::spec::PER_LAYER
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
            assert_eq!(spec.kind, crate::spec::Kind::Host, "{name}");
            let ns = probe(1, 0.0);
            assert!(ns.is_finite() && ns > 0.0, "{name}: {ns}");
        }
    }
}
