//! # allscale-des — deterministic discrete-event simulation kernel
//!
//! The substrate on which this repository reproduces the distributed-memory
//! environment of *The AllScale Runtime Application Model* (CLUSTER 2018).
//! The paper's evaluation ran on a 64-node Intel OmniPath cluster under the
//! HPX runtime; neither is available here, so the cluster is replaced by a
//! virtual-time simulation (see `DESIGN.md`, Section 2 for the substitution
//! argument). Everything the runtime does — scheduling tasks, resolving data
//! locations, migrating fragments — executes as real Rust code inside
//! simulation events; only *time* is virtual.
//!
//! Components:
//! - [`SimTime`] / [`SimDuration`]: virtual clock types (nanoseconds);
//! - [`Sim`]: the event queue and dispatch loop over any [`Event`] type,
//!   deterministic by construction (stable FIFO tie-breaking);
//! - [`CorePool`]: per-node k-core FCFS accounting for intra-node
//!   parallelism and saturation;
//! - [`Tally`] / [`LogHistogram`]: measurement plumbing, and [`Stat`]: the
//!   one walk over a run's named statistics that both renderings of a
//!   report ([`stats::to_json`], [`stats::summary`]) are made from;
//! - [`rng`]: the shared seeded generators (xorshift64 family, Zipf) every
//!   randomized subsystem draws from;
//! - [`fnv`]: the shared FNV-1a 64-bit hash behind every fingerprint,
//!   checksum and digest, and [`hash`]: the one hasher of in-memory tables
//!   keyed by a few words;
//! - [`wire`]: the one serialization format — what a value costs to move is
//!   the length of its encoding, so the codec sits beside the hash that
//!   fingerprints it, below every crate that sends or stores bytes;
//! - [`ArrivalGen`]: open-loop (Poisson) request arrivals for the serving
//!   subsystem.
//!
//! ## Example
//!
//! ```
//! use allscale_des::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(0u64); // the "world" is a counter
//! sim.schedule(SimDuration::from_micros(5), |sim| {
//!     sim.world += 1;
//!     sim.schedule(SimDuration::from_micros(5), |sim| sim.world += 1);
//! });
//! let end = sim.run();
//! assert_eq!(sim.world, 2);
//! assert_eq!(end.as_nanos(), 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
mod cores;
pub mod fnv;
pub mod hash;
pub mod rng;
mod sim;
pub mod stats;
mod time;
pub mod wire;

pub use arrivals::{ArrivalGen, ArrivalProcess};
pub use cores::CorePool;
pub use sim::{Closure, Event, Sim};
pub use stats::{LogHistogram, Stat, Tally, Visit};
pub use time::{SimDuration, SimTime};
