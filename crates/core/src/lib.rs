//! # allscale-core — the AllScale runtime system
//!
//! The primary contribution of *The AllScale Runtime Application Model*
//! (CLUSTER 2018) as a Rust library: a parallel runtime with system-wide
//! control over the distribution of **user-defined data structures**,
//! executing on the deterministic cluster simulation of `allscale-des` /
//! `allscale-net`.
//!
//! Components (paper Section 3):
//! - [`DataItemManager`]: per-locality fragment storage, lock tables
//!   (`Lr`/`Lw`), replica/export tracking;
//! - [`DistIndex`]: the hierarchical distributed data index (Fig. 5) with
//!   Algorithm 1's region location resolution;
//! - [`LocationCache`]: a per-locality cache in front of the index that
//!   memoizes resolutions with epoch-based invalidation, keeping the hot
//!   lookup path of data-aware scheduling free of repeated traversals;
//! - the scheduler in [`runtime`]: Algorithm 2's data-requirement-aware
//!   task placement with pluggable [`SchedulingPolicy`];
//! - [`WorkItem`] / [`Prec`]: tasks with process/split variants and data
//!   requirement functions — the artifact the AllScale compiler generates;
//! - [`Grid`] and [`pfor`]: the user-facing API of the paper's Fig. 6b;
//! - [`Monitor`] / checkpointing in [`RtCtx`]: the monitoring and
//!   resilience services the model enables;
//! - [`resilience`]: the active resilience manager — checkpoint cadence,
//!   heartbeat failure detection, and automatic recovery from fail-stop
//!   locality deaths injected via [`FaultPlan`];
//! - [`integrity`]: the data-integrity service — checksum framing of
//!   every runtime payload with verify-on-receive and bounded
//!   re-requests, checksummed checkpoint shards, and a background
//!   replica scrubber with repair and quarantine;
//! - [`slo`]: the request-serving subsystem — open-loop arrival processes
//!   driving sharded request task trees, with an SLO controller that
//!   replicates hot shards, retires cold replica sets and optionally
//!   sheds read load at admission;
//! - structured tracing (`allscale-trace`): setting [`RtConfig::trace`]
//!   records task, data, index, network and resilience events;
//!   [`RunReport::trace`](monitor::RunReport::trace) exports Chrome
//!   trace-event JSON and feeds [`critical_path`] analysis.
//!
//! ## Example: a complete two-phase program
//!
//! ```
//! use allscale_core::{pfor, Grid, PforSpec, Requirement, RtConfig, RtCtx,
//!                     Runtime, TaskValue, WorkItem};
//! use allscale_region::{BoxRegion, GridFragment};
//!
//! let runtime = Runtime::new(RtConfig::test(2, 2)); // 2 nodes × 2 cores
//! let report = runtime.run(
//!     |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue|
//!             -> Option<Box<dyn WorkItem>> {
//!         if phase > 0 {
//!             // Verify distribution between phases.
//!             let total: usize = (0..ctx.nodes())
//!                 .map(|l| ctx
//!                     .fragment_at::<GridFragment<u64, 1>>(l, allscale_core::ItemId(0))
//!                     .len())
//!                 .sum();
//!             assert_eq!(total, 64);
//!             return None;
//!         }
//!         let g = Grid::<u64, 1>::create(ctx, "v", [64]);
//!         Some(pfor(
//!             PforSpec { name: "fill", range: g.full_box(), grain: 8,
//!                        ns_per_point: 5.0, axis0_pieces: 8 },
//!             move |tile| vec![Requirement::write(g.id, BoxRegion::from_box(*tile))],
//!             move |tctx, p| g.set(tctx, p.0, p[0] as u64),
//!         ))
//!     },
//! );
//! assert!(report.monitor.total_tasks() >= 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod dim;
pub mod dynamic;
pub mod facade;
pub mod index;
pub mod integrity;
pub mod loc_cache;
pub mod monitor;
pub mod policy;
pub mod rebalance;
pub mod resilience;
pub mod runtime;
pub mod scheduler;
pub mod slo;
pub mod task;
mod task_map;

pub use cost::CostModel;
pub use dim::{Blocker, DataItemManager, LockConflict};
pub use dynamic::{DynFragment, DynRegion, ItemDescriptor};
pub use facade::{
    bisect, bisect_axis, pfor, pfor_tiles, position_hint, DistMap, Grid, GridItem, MapItem, PforSpec,
    TreeItem,
};
pub use index::{CentralIndex, DistIndex};
pub use integrity::{IntegrityConfig, IntegrityStats};
pub use loc_cache::{CacheStats, LocationCache};
pub use monitor::{LocalityStats, Monitor, RunReport, SchedulerStats, ServeStats};
pub use policy::{DataAwarePolicy, PolicyEnv, RoundRobinPolicy, SchedulingPolicy, Variant};
pub use rebalance::{plan_rebalance, split_off_cells, MoveSuggestion};
pub use resilience::{CheckpointConfig, CkptMode, ResilienceConfig, ResilienceStats};
pub use runtime::{Locality, RtConfig, RtCtx, Runtime};
pub use scheduler::{
    DataAwareScheduler, Scheduler, StealConfig, VictimPolicy, WorkStealingScheduler,
};
pub use slo::{Request, ServeSpec, SloConfig};

// Fault-injection types, re-exported so applications configuring
// `RtConfig::faults` need not depend on `allscale-net` directly.
pub use allscale_net::{
    BatchParams, FaultPlan, RetryPolicy, StorageParams, StorageStats, StorageTier, TrafficStats,
    TransferFault,
};

// Tracing types, re-exported so applications enabling `RtConfig::trace`
// and consuming `RunReport::trace` need not depend on `allscale-trace`
// directly.
pub use allscale_trace::{
    critical_path, CriticalPathReport, EventKind, FlushCause, PathCategory, PathSegment,
    SpawnVariant, Trace, TraceConfig, TraceEvent, TransferPurpose, RUNTIME_TID,
};
pub use task::{
    AccessMode, Done, ItemId, Prec, PrecOps, Requirement, SplitOutcome, TaskCtx, TaskId,
    TaskValue, WorkItem,
};
