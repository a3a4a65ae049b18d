//! # allscale-mpi — the message-passing baseline
//!
//! The paper evaluates AllScale against hand-written MPI ports of the same
//! applications ("We ported each of our three applications to the AllScale
//! model and MPI to provide a reference"). This crate is that reference
//! substrate: an MPI-flavoured SPMD library — ranks, tagged point-to-point
//! messages, barriers, all-reduce, all-to-all — running over the *same*
//! simulated network ([`allscale_net`]) as the AllScale runtime, so
//! comparisons isolate the programming/runtime model rather than the
//! machine.
//!
//! Rank code is written blocking-style and runs on one OS thread per rank
//! with strict deterministic hand-off (see
//! [`allscale_des::ThreadActor`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctx;
mod spmd;

pub use ctx::{MpiCall, MpiReply, RankCtx, ReduceOp};
pub use spmd::{run_spmd, MpiReport};
