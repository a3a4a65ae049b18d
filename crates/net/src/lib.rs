//! # allscale-net — the simulated cluster interconnect
//!
//! Replaces the paper's Intel OmniPath fat-tree (and HPX's communication
//! layer) with a deterministic cost model over [`allscale_des`]:
//!
//! - [`wire`]: the binary format every value crosses the fabric in
//!   (re-exported from [`allscale_des`]) — all inter-locality data movement
//!   is real serialized bytes, enforcing address-space separation;
//! - [`frame`]: FNV-1a checksum framing over those bytes — the
//!   end-to-end integrity boundary for transfers and checkpoint shards;
//! - [`FatTree`]: the hop-count topology;
//! - [`Network`]: LogGP-style accounting (latency + bandwidth + per-NIC
//!   occupancy) shared by the AllScale runtime and the MPI baseline;
//! - [`StorageModel`]: the two-tier checkpoint store (fast node-local
//!   tier lost with its locality, slower off-ring remote tier that
//!   survives deaths), billed on the same simulated clock;
//! - [`ClusterSpec`]: one machine description used by both systems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
pub mod coalesce;
pub mod fault;
pub mod frame;
mod network;
mod storage;
mod topology;

pub use allscale_des::wire;
pub use cluster::ClusterSpec;
pub use coalesce::{Batch, BatchParams, Coalescer, Enqueue, FlushCause};
pub use fault::{FaultPlan, RetryPolicy, TransferFault, Verdict};
pub use frame::{FrameError, FRAME_OVERHEAD};
pub use network::{Delivered, NetParams, Network, TrafficStats};
pub use storage::{StorageModel, StorageParams, StorageStats, StorageTier};
pub use topology::{AnyTopology, FatTree, NodeId, Topology};
