//! The architecture model (paper Definition 2.8): a bipartite graph
//! `(C ⊎ M, L)` of compute units and memory address spaces.

use std::collections::BTreeSet;

use crate::ids::{CoreId, MemId};

/// A bipartite graph of compute units and address spaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Architecture {
    cores: BTreeSet<CoreId>,
    mems: BTreeSet<MemId>,
    links: BTreeSet<(CoreId, MemId)>,
}

impl Architecture {
    /// An empty architecture; populate with [`Architecture::add_link`].
    pub fn new() -> Self {
        Architecture {
            cores: BTreeSet::new(),
            mems: BTreeSet::new(),
            links: BTreeSet::new(),
        }
    }

    /// The paper's Example 2.4: a distributed-memory system of `nodes`
    /// nodes, each with its own address space and `cores_per_node` cores
    /// linked only to the local address space.
    pub fn cluster(nodes: u32, cores_per_node: u32) -> Self {
        let mut a = Architecture::new();
        for n in 0..nodes {
            let mem = MemId(n);
            for c in 0..cores_per_node {
                a.add_link(CoreId(n * cores_per_node + c), mem);
            }
        }
        a
    }

    /// A single shared-memory node: all cores see one address space.
    pub fn shared(cores: u32) -> Self {
        Self::cluster(1, cores)
    }

    /// Register the link `(c, m) ∈ L` (implicitly registering `c` and `m`).
    pub fn add_link(&mut self, c: CoreId, m: MemId) {
        self.cores.insert(c);
        self.mems.insert(m);
        self.links.insert((c, m));
    }

    /// All compute units.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.cores.iter().copied()
    }

    /// All address spaces.
    pub fn mems(&self) -> impl Iterator<Item = MemId> + '_ {
        self.mems.iter().copied()
    }

    /// Whether compute unit `c` can access address space `m`.
    pub fn linked(&self, c: CoreId, m: MemId) -> bool {
        self.links.contains(&(c, m))
    }

    /// Address spaces accessible from `c`.
    pub fn mems_of(&self, c: CoreId) -> impl Iterator<Item = MemId> + '_ {
        self.links
            .range((c, MemId(0))..=(c, MemId(u32::MAX)))
            .map(|&(_, m)| m)
    }
}

impl Default for Architecture {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_2_4() {
        // 2 nodes × 4 cores: cores of node A link only to mA.
        let a = Architecture::cluster(2, 4);
        assert_eq!(a.cores().count(), 8);
        assert_eq!(a.mems().count(), 2);
        assert!(a.linked(CoreId(0), MemId(0)));
        assert!(a.linked(CoreId(3), MemId(0)));
        assert!(!a.linked(CoreId(3), MemId(1)));
        assert!(a.linked(CoreId(4), MemId(1)));
        assert_eq!(a.mems_of(CoreId(5)).collect::<Vec<_>>(), vec![MemId(1)]);
    }

    #[test]
    fn shared_memory_node() {
        let a = Architecture::shared(4);
        assert_eq!(a.mems().count(), 1);
        for c in a.cores().collect::<Vec<_>>() {
            assert!(a.linked(c, MemId(0)));
        }
    }

    #[test]
    fn numa_like_architecture() {
        // A core linked to two address spaces (e.g. CPU + GPU memory).
        let mut a = Architecture::new();
        a.add_link(CoreId(0), MemId(0));
        a.add_link(CoreId(0), MemId(1));
        a.add_link(CoreId(1), MemId(1));
        assert_eq!(a.mems_of(CoreId(0)).count(), 2);
        assert_eq!(a.mems_of(CoreId(1)).count(), 1);
    }
}
