//! Persistent replicas, the (replicate) rule applied by the runtime itself:
//! a broadcast tree top, hot serving shards, scrub repairs. A replica
//! exists only while its owner holds the matching write fence; this module
//! creates, invalidates, scrubs and checks them, and is the only runtime
//! module that calls the data item manager's persistent-replica functions.

use allscale_des::fnv::fnv1a_64_batch;
use allscale_des::SimTime;
use allscale_net::frame;
use allscale_trace::{EventKind, TransferPurpose};

use super::comms::{open_payload, seal_payload, send_msg, Payload, Wire};
use super::events::{schedule, RtEvent};
use super::tasks::wake;
use super::{trace_instant, Locality, RtSim, RtWorld};
use crate::dynamic::DynRegion;
use crate::integrity::QUARANTINE_AFTER;
use crate::task::ItemId;

/// Replicate the part of `region` of `item` that `owner` owns to every
/// other locality and fence it there: see
/// [`RtCtx::broadcast_replicate`](super::RtCtx::broadcast_replicate).
/// Also what the SLO controller does to a hot shard.
pub(super) fn broadcast(
    w: &mut RtWorld,
    now: SimTime,
    item: ItemId,
    owner: usize,
    region: &dyn DynRegion,
) {
    let nodes = w.localities.len();
    let dim = &mut w.localities[owner].dim;
    let region = region.intersect_dyn(dim.owned_region(item));
    let bytes = dim.export_persistent(item, region.as_ref());
    let wire = seal_payload(w, bytes);
    let mut t = now;
    for dst in (0..nodes).filter(|&dst| dst != owner) {
        // A locality the broadcast cannot reach simply misses out on
        // the replica (it re-fetches on demand if it ever revives —
        // under fail-stop it never does).
        if let Some((arrival, _)) = ship(w, t, owner, dst, item, &wire, TransferPurpose::Broadcast)
        {
            t = arrival;
            w.monitor.per_locality[dst].replicas_in += 1;
        }
    }
    // An item-wide event for anyone waiting on `item`: a reader
    // waiting at a remote source may now be covered by its *own*
    // locality's new replica, and a serving writer waiting behind
    // anything must meet the new export fence at its next retry so it
    // invalidates it (`serving::unfence_writes`). Wake them all.
    for p in 0..nodes {
        let woken = w.localities[p].dim.wake_item(item);
        wake(w, woken);
    }
}

/// Ship the sealed copy `wire` of (part of) `item` from `owner` to `dst`
/// and install it there as a persistent replica — which lives until it is
/// invalidated, long enough for at-rest rot to matter. Returns the
/// arrival time and the payload size, or `None` when the message was lost.
fn ship(
    w: &mut RtWorld,
    now: SimTime,
    owner: usize,
    dst: usize,
    item: ItemId,
    wire: &Wire,
    purpose: TransferPurpose,
) -> Option<(SimTime, usize)> {
    let tag = Payload::data(purpose, None, item);
    let d = send_msg(w, now, owner, dst, wire.len(), tag, false)?;
    let mut data = open_payload(w, wire, d.intact);
    if let Some(salt) = w.comms.rot_strike(&mut w.monitor.integrity) {
        frame::corrupt_in_place(data.to_mut(), salt);
    }
    w.localities[dst].dim.import_persistent(item, &data);
    Some((d.at, data.len()))
}

/// Release the persistent export fences overlapping `region` of `item`
/// at every live exporter and drop the matching persistent replicas at
/// every live holder, each notified by a billed control message (the
/// invalidation fan-out, owner → holder). Returns whether any replica
/// state was touched. Like driver-initiated migration, the bookkeeping is
/// synchronous and the messages only bill the traffic.
pub(super) fn invalidate(
    w: &mut RtWorld,
    now: SimTime,
    item: ItemId,
    region: &dyn DynRegion,
) -> bool {
    let nodes = w.localities.len();
    let mut any = false;
    for p in 0..nodes {
        if w.recovery.dead()[p] {
            continue;
        }
        let fenced = w.localities[p].dim.persistent_export_region(item);
        if fenced.is_disjoint_dyn(region) {
            continue;
        }
        let overlap = fenced.intersect_dyn(region);
        any = true;
        let woken = w.localities[p]
            .dim
            .release_persistent_exports(item, overlap.as_ref());
        wake(w, woken);
        for q in 0..nodes {
            if q == p || w.recovery.dead()[q] {
                continue;
            }
            w.localities[q]
                .dim
                .drop_persistent(item, Some(overlap.as_ref()));
            let bytes = w.cost.control_msg_bytes;
            let tag = Payload::data(TransferPurpose::Control, None, item);
            let _ = send_msg(w, now, p, q, bytes, tag, false);
        }
    }
    any
}

/// One pass of the integrity service's replica scrubber: every live holder
/// fingerprints its persistent replicas against each owner's copy (a
/// billed control round-trip), repairs a divergent one with a fresh
/// billed copy, and evicts one that diverged [`QUARANTINE_AFTER`] times.
/// Like the heartbeat it is not epoch-guarded: replica hygiene is
/// orthogonal to which phase is executing.
pub(super) fn scrub_tick(sim: &mut RtSim) {
    if sim.world.phases.done() {
        return; // stop rearming: lets the event queue drain
    }
    let now = sim.now();
    let w = &mut sim.world;
    let Some(period) = w.integrity.and_then(|c| c.scrub_period) else {
        return;
    };
    let nodes = w.localities.len();
    let ctrl = w.cost.control_msg_bytes;
    let items = w.directory.items();
    for holder in 0..nodes {
        if w.recovery.dead()[holder] {
            continue;
        }
        let mut audited = 0u32;
        let mut divergent = 0u32;
        for &item in &items {
            let held = w.localities[holder].dim.persistent_region(item);
            if held.is_empty_dyn() {
                continue;
            }
            let held = held.clone_box();
            for owner in 0..nodes {
                if owner == holder || w.recovery.dead()[owner] {
                    continue;
                }
                let fenced = w.localities[owner].dim.persistent_export_region(item);
                if fenced.is_disjoint_dyn(held.as_ref()) {
                    continue;
                }
                let overlap = fenced.intersect_dyn(held.as_ref());
                audited += 1;
                w.monitor.integrity.replicas_scrubbed += 1;
                // Fingerprint exchange: request + digest reply, both
                // billed control messages. A lost leg skips this audit —
                // the next pass retries.
                let tag = Payload::data(TransferPurpose::Control, None, item);
                let Some(d) = send_msg(w, now, holder, owner, ctrl, tag, false) else {
                    continue;
                };
                let Some(d) = send_msg(w, d.at, owner, holder, ctrl, tag, false) else {
                    continue;
                };
                let t = d.at;
                let mine = w.localities[holder].dim.peek_bytes(item, overlap.as_ref());
                let theirs = w.localities[owner].dim.peek_bytes(item, overlap.as_ref());
                // The two digests the round-trip exchanged, computed abreast.
                let digests = fnv1a_64_batch(&[&mine, &theirs]);
                if digests[0] == digests[1] {
                    continue;
                }
                divergent += 1;
                w.monitor.integrity.scrub_divergent += 1;
                let strikes = w.strikes.strike(holder, item);
                if strikes >= QUARANTINE_AFTER {
                    w.localities[holder].dim.drop_persistent(item, None);
                    w.monitor.integrity.quarantines += 1;
                    trace_instant(
                        w,
                        t,
                        holder,
                        EventKind::Quarantine {
                            item: item.0,
                            strikes,
                        },
                    );
                    break; // replica evicted: nothing left to audit
                }
                // Repair: a fresh billed copy from the owner, sealed and
                // verified like any other data transfer. It lands on the
                // same storage that rotted the replica: a holder whose
                // medium keeps striking will re-diverge and eventually
                // hit the quarantine threshold.
                let wire = seal_payload(w, theirs);
                let Some((at, bytes)) =
                    ship(w, t, owner, holder, item, &wire, TransferPurpose::Scrub)
                else {
                    continue;
                };
                w.monitor.integrity.scrub_repairs += 1;
                trace_instant(
                    w,
                    at,
                    holder,
                    EventKind::ScrubRepair {
                        item: item.0,
                        owner: owner as u32,
                        bytes: bytes as u64,
                    },
                );
            }
        }
        if audited > 0 {
            trace_instant(
                w,
                now,
                holder,
                EventKind::ScrubPass {
                    replicas: audited,
                    divergent,
                },
            );
        }
    }
    w.monitor.integrity.scrub_passes += 1;
    schedule(sim, now + period, RtEvent::ScrubTick);
}

/// Check 4 of [`RtCtx::verify_consistency`](super::RtCtx::verify_consistency),
/// fenced writes, for `item`: every persistent export record still lies
/// inside its recorder's owned region, and every persistent replica is
/// covered by the union of those fences. Appends one line per violation.
pub(super) fn fenced_writes(localities: &[Locality], item: ItemId, violations: &mut Vec<String>) {
    let mut fences: Option<Box<dyn DynRegion>> = None;
    for (p, loc) in localities.iter().enumerate() {
        let fence = loc.dim.persistent_export_region(item);
        if !fence.is_subset_dyn(loc.dim.owned_region(item)) {
            let stray = fence.difference_dyn(loc.dim.owned_region(item));
            violations.push(format!(
                "item {item:?}: locality {p} exported {stray:?} as a persistent replica but no longer owns it (fenced region migrated or written away)"
            ));
        }
        fences = Some(match fences {
            None => fence.clone_box(),
            Some(f) => f.union_dyn(fence),
        });
    }
    if let Some(fences) = fences {
        for (p, loc) in localities.iter().enumerate() {
            let held = loc.dim.persistent_region(item);
            if !held.is_subset_dyn(fences.as_ref()) {
                let orphan = held.difference_dyn(fences.as_ref());
                violations.push(format!(
                    "item {item:?}: locality {p} holds persistent replica {orphan:?} with no backing export fence"
                ));
            }
        }
    }
}
