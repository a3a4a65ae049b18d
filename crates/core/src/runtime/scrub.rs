//! The background replica scrubber of the integrity service.

use allscale_des::fnv::fnv1a_64_batch;
use allscale_trace::{EventKind, TransferPurpose};

use super::comms::{seal_payload, send_msg, ship_persistent, Payload};
use super::{trace_instant, RtSim};
use crate::integrity::QUARANTINE_AFTER;

/// One pass of the background replica scrubber: every live locality
/// holding persistent replicas fingerprints them against the owning
/// locality's authoritative copy (FNV-1a over the serialized overlap,
/// exchanged as a billed control round-trip). A divergent replica is
/// repaired with a fresh, billed copy from the owner; a replica that
/// diverges [`QUARANTINE_AFTER`] times is evicted instead — a holder
/// that keeps rotting the same item is not worth re-shipping to, and
/// readers fall back to on-demand replication.
///
/// The scrubber runs on the simulated clock independently of phase
/// boundaries, so long phases still get audited; like the heartbeat it
/// survives recoveries (it is not epoch-guarded) because replica
/// hygiene is orthogonal to which phase is executing.
pub(super) fn scrub_tick(sim: &mut RtSim) {
    if sim.world.phases.done() {
        return; // stop rearming: lets the event queue drain
    }
    let now = sim.now();
    let w = &mut sim.world;
    let Some(cfg) = w.integrity.as_ref().map(|m| m.cfg) else {
        return;
    };
    let Some(period) = cfg.scrub_period else {
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
            let held = w.localities[holder].dim.persistent_region(item).clone_box();
            if held.is_empty_dyn() {
                continue;
            }
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
                let strikes = w.integrity.as_mut().map_or(0, |m| m.strike(holder, item));
                if strikes >= QUARANTINE_AFTER {
                    w.localities[holder].dim.drop_persistent(item);
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
                    ship_persistent(w, t, owner, holder, item, &wire, TransferPurpose::Scrub)
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
    sim.schedule(period, scrub_tick);
}
