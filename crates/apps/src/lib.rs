//! # allscale-apps — the paper's evaluation applications
//!
//! The three codes of Table 1, each in an AllScale port and an MPI
//! reference port running on the same simulated cluster:
//!
//! - [`stencil`]: 2D heat-diffusion kernel (Parallel Research Kernels);
//! - [`ipic3d`]: a particle-in-cell mini-app with the data-structure
//!   profile of iPiC3D (field grids + per-cell particle lists);
//! - [`tpc`]: two-point correlation via pruned kd-tree traversal.
//!
//! Beyond the paper's batch codes, [`serve`] is a sharded key-value
//! store driven by the runtime's open-loop request-serving subsystem —
//! the workload behind the SLO-placement saturation sweeps.
//!
//! Every application ships a sequential oracle; the AllScale and MPI
//! versions are validated against it (and against each other) in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ipic3d;
pub mod serve;
pub mod stencil;
pub mod tpc;
