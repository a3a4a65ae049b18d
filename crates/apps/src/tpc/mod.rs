//! The two-point correlation benchmark (paper Table 1 row 3: TPC).
//!
//! "TPC computes the number of points within a certain distance of a given
//! query point in 7D space. For each query, TPC performs a pruned,
//! parallel kd-tree traversal." The kd-tree is the data item; it is
//! distributed with the *blocked* tree region scheme of Fig. 4c: the top
//! `h` levels form the root block (replicated — it is read by every
//! query), the `2^h` complete subtrees below are spread over the nodes.
//!
//! The AllScale version spawns one task per query; when a traversal
//! crosses from the root block into a subtree owned elsewhere, a child
//! task is forwarded to that locality — "a large number of inherently
//! small tasks to be forwarded to localities owning traversed kd-tree
//! nodes", the behaviour that caps its scaling in the paper's Fig. 7. The
//! MPI version batches all (query, subtree) crossings into one exchange
//! round — the paper's "aggregates multiple queries" optimization.

pub mod allscale_version;
pub mod mpi_version;

use allscale_net::wire::wire_struct;
use allscale_region::TreePath;

/// Dimensionality of the point space.
pub const DIMS: usize = 7;
/// Extent of each coordinate: points live in `[0, 100)^7`.
pub const EXTENT: f64 = 100.0;

/// One kd-tree node: the splitting point and its dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct KdNode {
    /// The point stored at this node (the median of its subtree).
    pub point: [f64; DIMS],
    /// The splitting dimension (depth mod 7).
    pub dim: u8,
}
wire_struct!(KdNode { point, dim });

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct TpcConfig {
    /// Cluster nodes.
    pub nodes: usize,
    /// Tree levels: the tree holds `2^levels - 1` points.
    pub levels: u8,
    /// Split depth of the blocked region scheme (`2^h` subtrees).
    pub split_depth: u8,
    /// Queries **per node** (weak scaling of query load).
    pub queries_per_node: u64,
    /// Search radius.
    pub radius: f64,
    /// AllScale query batch size (1 = the paper's unbatched prototype;
    /// larger = the A3 ablation implementing the paper's future work).
    pub batch: usize,
    /// Validate counts against the brute-force oracle.
    pub validate: bool,
    /// Work scale: each visited simulated tree node stands for this many
    /// real node visits (the paper's tree is 2^29 points; ours is far
    /// smaller, so per-visit cost is scaled to restore the paper's
    /// compute-to-communication ratio; see EXPERIMENTS.md).
    pub work_scale: f64,
}

impl TpcConfig {
    /// A small test configuration.
    pub fn small(nodes: usize) -> Self {
        TpcConfig {
            nodes,
            levels: 9, // 511 points
            split_depth: 3,
            queries_per_node: 6,
            radius: 60.0,
            batch: 1,
            validate: true,
            work_scale: 1.0,
        }
    }

    /// The scaled-down stand-in for the paper's 2^29 points / radius 20.
    pub fn paper_scaled(nodes: usize) -> Self {
        TpcConfig {
            nodes,
            levels: 17, // 131071 points
            split_depth: 7,
            queries_per_node: 24,
            radius: 20.0,
            batch: 1,
            validate: false,
            work_scale: 16.0,
        }
    }

    /// Total points in the tree.
    pub fn total_points(&self) -> u64 {
        (1u64 << self.levels) - 1
    }

    /// Total queries.
    pub fn total_queries(&self) -> u64 {
        self.queries_per_node * self.nodes as u64
    }
}

/// splitmix64 (shared with the PIC app's determinism approach).
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[inline]
fn unit(key: u64) -> f64 {
    (mix(key) >> 11) as f64 / (1u64 << 53) as f64
}

/// The deterministic point cloud.
pub fn gen_points(n: u64) -> Vec<[f64; DIMS]> {
    (0..n)
        .map(|i| {
            let mut p = [0.0; DIMS];
            for (d, c) in p.iter_mut().enumerate() {
                *c = unit(i.wrapping_mul(31).wrapping_add(d as u64 * 0x51_7CC1)) * EXTENT;
            }
            p
        })
        .collect()
}

/// The deterministic query point for query id `qid`.
pub fn query_point(qid: u64) -> [f64; DIMS] {
    let mut p = [0.0; DIMS];
    for (d, c) in p.iter_mut().enumerate() {
        *c = unit(qid.wrapping_mul(0x9FACE).wrapping_add(d as u64 * 0xBEEF_CAFE)) * EXTENT;
    }
    p
}

/// Squared Euclidean distance.
#[inline]
pub fn dist2(a: &[f64; DIMS], b: &[f64; DIMS]) -> f64 {
    let mut s = 0.0;
    for d in 0..DIMS {
        let x = a[d] - b[d];
        s += x * x;
    }
    s
}

/// A complete balanced kd-tree in implicit (path-addressed) layout.
#[derive(Debug, Clone)]
pub struct KdTree {
    /// Node at BFS index `i` (complete tree of `levels` levels).
    pub nodes: Vec<KdNode>,
    /// Number of levels.
    pub levels: u8,
}

impl KdTree {
    /// Build the balanced tree over `points` (length must be `2^k - 1`).
    pub fn build(points: &[[f64; DIMS]]) -> KdTree {
        let n = points.len();
        assert!((n + 1).is_power_of_two(), "need 2^k - 1 points");
        let levels = (n + 1).trailing_zeros() as u8;
        let mut nodes: Vec<Option<KdNode>> = vec![None; n];
        let mut idxs: Vec<usize> = (0..n).collect();
        build_rec(points, &mut idxs, 0, TreePath::ROOT, &mut nodes);
        KdTree {
            nodes: nodes.into_iter().map(|n| n.expect("complete tree")).collect(),
            levels,
        }
    }

    /// The node at a tree path.
    pub fn node(&self, path: &TreePath) -> &KdNode {
        &self.nodes[path.bfs_index() as usize]
    }

    /// Sequential pruned traversal: points within `radius` of `q`.
    pub fn count_within(&self, q: &[f64; DIMS], radius: f64) -> u64 {
        let mut count = 0;
        let mut stack = vec![TreePath::ROOT];
        let r2 = radius * radius;
        while let Some(path) = stack.pop() {
            let node = self.node(&path);
            if dist2(&node.point, q) <= r2 {
                count += 1;
            }
            if path.depth() + 1 >= self.levels {
                continue;
            }
            let diff = q[node.dim as usize] - node.point[node.dim as usize];
            if diff <= radius {
                stack.push(path.left());
            }
            if diff >= -radius {
                stack.push(path.right());
            }
        }
        count
    }
}

fn build_rec(
    points: &[[f64; DIMS]],
    idxs: &mut [usize],
    depth: u8,
    path: TreePath,
    out: &mut [Option<KdNode>],
) {
    if idxs.is_empty() {
        return;
    }
    let dim = (depth as usize) % DIMS;
    let mid = idxs.len() / 2;
    // Only the median and the two sides as *sets* matter, and the order —
    // by coordinate, ties by point index — is total, so a selection yields
    // the tree a full sort would.
    idxs.select_nth_unstable_by(mid, |&a, &b| {
        points[a][dim]
            .partial_cmp(&points[b][dim])
            .unwrap()
            .then(a.cmp(&b))
    });
    out[path.bfs_index() as usize] = Some(KdNode {
        point: points[idxs[mid]],
        dim: dim as u8,
    });
    let (left, rest) = idxs.split_at_mut(mid);
    let right = &mut rest[1..];
    build_rec(points, left, depth + 1, path.left(), out);
    build_rec(points, right, depth + 1, path.right(), out);
}

/// Brute-force oracle: exact counts for each query.
pub fn oracle(cfg: &TpcConfig) -> Vec<u64> {
    let points = gen_points(cfg.total_points());
    let r2 = cfg.radius * cfg.radius;
    (0..cfg.total_queries())
        .map(|qid| {
            let q = query_point(qid);
            points.iter().filter(|p| dist2(p, &q) <= r2).count() as u64
        })
        .collect()
}

/// Result of one benchmark execution.
#[derive(Debug, Clone)]
pub struct TpcResult {
    /// Virtual seconds in the query phase (build/distribution excluded).
    pub compute_seconds: f64,
    /// Queries per second.
    pub queries_per_sec: f64,
    /// Total count over all queries.
    pub total_count: u64,
    /// Whether validation passed (true when skipped).
    pub validated: bool,
    /// Remote messages during the query phase (approx: whole run).
    pub remote_msgs: u64,
    /// Remote bytes.
    pub remote_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_build_is_deterministic_and_complete() {
        let pts = gen_points(127);
        let t1 = KdTree::build(&pts);
        let t2 = KdTree::build(&pts);
        assert_eq!(t1.nodes.len(), 127);
        assert_eq!(t1.levels, 7);
        assert_eq!(t1.nodes, t2.nodes);
    }

    /// `build_rec` as it was when it sorted every level, kept verbatim as
    /// the reference for the selecting version.
    fn build_rec_sorting(
        points: &[[f64; DIMS]],
        idxs: &mut [usize],
        depth: u8,
        path: TreePath,
        out: &mut [Option<KdNode>],
    ) {
        if idxs.is_empty() {
            return;
        }
        let dim = (depth as usize) % DIMS;
        // Stable, deterministic ordering: by coordinate, ties by point index.
        idxs.sort_unstable_by(|&a, &b| {
            points[a][dim]
                .partial_cmp(&points[b][dim])
                .unwrap()
                .then(a.cmp(&b))
        });
        let mid = idxs.len() / 2;
        out[path.bfs_index() as usize] = Some(KdNode {
            point: points[idxs[mid]],
            dim: dim as u8,
        });
        let (left, rest) = idxs.split_at_mut(mid);
        let right = &mut rest[1..];
        build_rec_sorting(points, left, depth + 1, path.left(), out);
        build_rec_sorting(points, right, depth + 1, path.right(), out);
    }

    #[test]
    fn selecting_build_equals_sorting_build() {
        for k in 1..=12u32 {
            let mut pts = gen_points((1u64 << k) - 1);
            // Force coordinate ties, which only the index tie-break orders.
            for i in (0..pts.len()).step_by(3) {
                pts[i] = pts[i / 2];
            }
            let n = pts.len();
            let mut reference: Vec<Option<KdNode>> = vec![None; n];
            let mut idxs: Vec<usize> = (0..n).collect();
            build_rec_sorting(&pts, &mut idxs, 0, TreePath::ROOT, &mut reference);
            let reference: Vec<KdNode> = reference.into_iter().map(Option::unwrap).collect();
            assert_eq!(KdTree::build(&pts).nodes, reference, "2^{k} - 1 points");
        }
    }

    #[test]
    fn kd_counts_match_brute_force() {
        let pts = gen_points(255);
        let tree = KdTree::build(&pts);
        for qid in 0..20u64 {
            let q = query_point(qid);
            for radius in [5.0, 20.0, 60.0, 150.0] {
                let r2 = radius * radius;
                let brute = pts.iter().filter(|p| dist2(p, &q) <= r2).count() as u64;
                assert_eq!(
                    tree.count_within(&q, radius),
                    brute,
                    "qid={qid} radius={radius}"
                );
            }
        }
    }

    #[test]
    fn kd_invariant_left_below_right_above() {
        let pts = gen_points(63);
        let tree = KdTree::build(&pts);
        // For each internal node: all left-descendants ≤ split coord, all
        // right-descendants ≥.
        fn check(tree: &KdTree, path: TreePath) {
            if path.depth() + 1 >= tree.levels {
                return;
            }
            let node = tree.node(&path);
            let d = node.dim as usize;
            let mut stack = vec![(path.left(), true), (path.right(), false)];
            while let Some((p, is_left)) = stack.pop() {
                let v = tree.node(&p).point[d];
                if is_left {
                    assert!(v <= node.point[d]);
                } else {
                    assert!(v >= node.point[d]);
                }
                if p.depth() + 1 < tree.levels
                    && p.depth() == path.depth() + 1
                {
                    // Only need one extra level to catch gross violations;
                    // full-subtree check would be O(n²).
                    stack.push((p.left(), is_left));
                    stack.push((p.right(), is_left));
                }
            }
            check(tree, path.left());
            check(tree, path.right());
        }
        check(&tree, TreePath::ROOT);
    }

    #[test]
    fn radius_zero_counts_only_exact_hits() {
        let pts = gen_points(31);
        let tree = KdTree::build(&pts);
        // A query at an existing point with radius 0 finds exactly it.
        let q = pts[17];
        assert_eq!(tree.count_within(&q, 0.0), 1);
    }

    #[test]
    fn oracle_counts_are_plausible() {
        let cfg = TpcConfig::small(2);
        let counts = oracle(&cfg);
        assert_eq!(counts.len() as u64, cfg.total_queries());
        // Radius 60 in a 100-extent 7-D cube catches some but not all.
        assert!(counts.iter().any(|&c| c > 0));
        assert!(counts.iter().all(|&c| c < cfg.total_points()));
    }
}
