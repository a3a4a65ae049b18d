//! # allscale-model — executable formal semantics of the AllScale
//! application model
//!
//! A machine-checked rendition of Section 2 of *The AllScale Runtime
//! Application Model* (CLUSTER 2018):
//!
//! - [`ids`]: the universes T, V, D, E, C, M;
//! - [`Architecture`]: the bipartite graph `(C ⊎ M, L)` (Def. 2.8);
//! - [`Program`] / [`VariantSpec`] / [`Action`]: scripted tasks with
//!   variants and data requirements (Defs. 2.3-2.7);
//! - [`SystemState`]: the tuple `(Q, R, B, D, Lr, Lw, arch)` (Def. 2.9);
//! - [`rules`]: the ten inference rules of Figs. 2-3 with literal premise
//!   checking ([`apply`] rejects invalid transitions);
//! - [`Driver`]: a reference scheduler producing random rule-conforming
//!   traces (Def. 2.11);
//! - [`properties`]: the five model properties of Section 2.5 as
//!   assertions over traces.
//!
//! The runtime implementation in `allscale-core` maintains the same state
//! components in distributed form; integration tests replay its decisions
//! against these rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod driver;
pub mod ids;
pub mod program;
pub mod properties;
pub mod rules;
pub mod state;

pub use arch::Architecture;
pub use driver::{Driver, Outcome, Trace};
pub use ids::{CoreId, Elem, ItemId, MemId, TaskId, VariantId};
pub use program::{Action, Program, ProgramBuilder, VariantSpec};
pub use rules::{apply, enabled_progress, Transition, Violation};
pub use state::SystemState;
