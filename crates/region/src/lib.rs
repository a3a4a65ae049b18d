//! # allscale-region — regions and data item fragments
//!
//! Implements the data model of *The AllScale Runtime Application Model*
//! (CLUSTER 2018): data items are assemblies of addressable elements
//! (Def. 2.1) whose subsets are described by *regions* (Def. 2.2) closed
//! under union, intersection, and set-difference (Section 3.1).
//!
//! Three region schemes mirror the paper's Fig. 4:
//! - [`BoxRegion`]: sets of axis-aligned boxes over N-dimensional grids
//!   (the stencil's and iPiC3D's grids);
//! - [`TreeRegion`]: include/exclude subtree sets over binary trees;
//! - [`BitmaskTreeRegion`]: coarse blocked tree regions (root block +
//!   `2^h` subtrees addressed by a bitmask; TPC's kd-tree);
//!
//! plus [`BucketRegion`] for hash-bucketed keyed items (the serving
//! store). The bitmask and bucket schemes are one [`Dense`] set algebra
//! over two kinds of universe.
//!
//! Element storage is provided by fragments ([`GridFragment`],
//! [`TreeFragment`], [`KeyedFragment`]) implementing the [`Fragment`]
//! contract used by the runtime's data item manager.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmask;
mod boxes;
mod dense;
mod fragment;
mod grid_fragment;
mod keyed;
mod point;
mod region;
mod tree;
mod tree_fragment;
mod treepath;

pub use allscale_des::fnv::fnv1a_64;
pub use bitmask::BitmaskTreeRegion;
pub use boxes::BoxRegion;
pub use dense::{Dense, Universe};
pub use fragment::{Fragment, ItemType};
pub use grid_fragment::GridFragment;
pub use keyed::{BucketRegion, KeyedFragment};
pub use point::{BoxPoints, GridBox, Point};
pub use region::{check_laws, Region};
pub use tree::TreeRegion;
pub use tree_fragment::{PathRegion, Subtree, TreeFragment};
pub use treepath::TreePath;
