//! Cluster topology models.
//!
//! The paper's testbed (RRZE "Meggie") connects its nodes with Intel
//! OmniPath in a fat-tree. For message-cost purposes the relevant property
//! of a (non-blocking) fat-tree is the hop count between endpoints: nodes
//! under the same leaf switch are two hops apart (up, down); any other pair
//! crosses a spine switch (four hops). Full bisection bandwidth means we do
//! not model inter-switch contention, only endpoint (NIC) occupancy — see
//! [`crate::Network`].

/// Identifies one cluster node (== one simulated process / address space).
pub type NodeId = usize;

/// A topology answers "how many switch hops between two nodes?".
pub trait Topology {
    /// Number of nodes in the cluster.
    fn nodes(&self) -> usize;
    /// Switch hops between `a` and `b` (0 when `a == b`).
    fn hops(&self, a: NodeId, b: NodeId) -> u32;
}

/// A two-level fat-tree: `radix` nodes per leaf switch, one spine layer.
#[derive(Debug, Clone)]
pub struct FatTree {
    nodes: usize,
    radix: usize,
}

impl FatTree {
    /// Build a fat-tree over `nodes` nodes with `radix` nodes per leaf
    /// switch. `radix` must be nonzero.
    pub fn new(nodes: usize, radix: usize) -> Self {
        assert!(radix > 0, "leaf radix must be nonzero");
        assert!(nodes > 0, "cluster must have nodes");
        FatTree { nodes, radix }
    }

    /// Leaf-switch index of a node.
    #[inline]
    pub fn leaf_of(&self, n: NodeId) -> usize {
        n / self.radix
    }
}

impl Topology for FatTree {
    fn nodes(&self) -> usize {
        self.nodes
    }

    fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        debug_assert!(a < self.nodes && b < self.nodes);
        if a == b {
            0
        } else if self.leaf_of(a) == self.leaf_of(b) {
            2
        } else {
            4
        }
    }
}

/// The name `hostbench/` spells for the cluster's topology
/// (`Network<allscale_net::AnyTopology>`); there is one, the fat-tree.
pub type AnyTopology = FatTree;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_hop_counts() {
        let t = FatTree::new(64, 16);
        assert_eq!(t.hops(3, 3), 0);
        assert_eq!(t.hops(0, 15), 2); // same leaf
        assert_eq!(t.hops(0, 16), 4); // across spine
        assert_eq!(t.hops(17, 30), 2);
        assert_eq!(t.hops(63, 0), 4);
    }

    #[test]
    fn fat_tree_symmetry() {
        let t = FatTree::new(48, 8);
        for a in [0usize, 7, 8, 40, 47] {
            for b in [0usize, 7, 8, 40, 47] {
                assert_eq!(t.hops(a, b), t.hops(b, a));
            }
        }
    }

    #[test]
    fn small_cluster_fits_one_leaf() {
        let t = FatTree::new(8, 16);
        for a in 0..8 {
            for b in 0..8 {
                assert!(t.hops(a, b) <= 2);
            }
        }
    }
}
