//! Shared cluster configuration.
//!
//! Both the AllScale runtime and the MPI baseline are parameterized by a
//! [`ClusterSpec`] so that every comparison in the experiment harness runs
//! on an *identical* simulated machine — the analogue of the paper running
//! both versions on the same RRZE Meggie nodes.

use crate::network::NetParams;
use crate::topology::{AnyTopology, FatTree};

/// Nodes per leaf switch of the fat-tree (Meggie's OmniPath edge switches).
const LEAF_RADIX: usize = 16;

/// Description of the simulated machine.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of cluster nodes (each is one address space / process).
    pub nodes: usize,
    /// CPU cores per node. The paper's nodes carry 2× Xeon E5-2630 v4
    /// (10 cores each), hence the default of 20.
    pub cores_per_node: usize,
    /// Interconnect cost parameters.
    pub net: NetParams,
}

impl ClusterSpec {
    /// The cluster's fat-tree.
    pub fn build_topology(&self) -> AnyTopology {
        FatTree::new(self.nodes, LEAF_RADIX)
    }

    /// A Meggie-like cluster of `nodes` nodes (20 cores, OmniPath fat-tree).
    pub fn meggie(nodes: usize) -> Self {
        ClusterSpec {
            nodes,
            cores_per_node: 20,
            net: NetParams::default(),
        }
    }

    /// A small test cluster: `nodes` nodes × `cores` cores, default network.
    pub fn test(nodes: usize, cores: usize) -> Self {
        ClusterSpec {
            nodes,
            cores_per_node: cores,
            net: NetParams::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn meggie_defaults() {
        let c = ClusterSpec::meggie(64);
        assert_eq!(c.nodes, 64);
        assert_eq!(c.cores_per_node, 20);
        assert_eq!(
            c.build_topology().hops(0, 63),
            4,
            "64 nodes span four 16-node leaves"
        );
    }
}
