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
//! Rank code is written blocking-style as an `async` body. A rank is a
//! coroutine: it suspends in each [`RankCtx`] call and the coordinator in
//! [`run_spmd`] polls it again, on the caller's thread, once the call is
//! answered — `std::future` only, no executor, no OS thread. So the baseline
//! is as single-threaded and deterministic as the simulator beside it, and
//! a rank body may borrow its inputs and panics as itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctx;
mod spmd;

pub use ctx::{RankCtx, ReduceOp};
pub use spmd::{run_spmd, MpiReport};
