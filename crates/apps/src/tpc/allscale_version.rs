//! The AllScale port of TPC.
//!
//! The kd-tree is a runtime-managed data item with the blocked region
//! scheme (Fig. 4c). Query tasks read the (persistently replicated) root
//! block wherever they are spawned; each crossing into a subtree block
//! becomes a *child task* whose read requirement pins it to the subtree's
//! owner — the runtime forwards it there (Algorithm 2 line 4-6). This is
//! exactly the fine-grained task forwarding whose communication overhead
//! the paper reports as the AllScale TPC bottleneck.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use allscale_core::{
    pfor, CostModel, Done, ItemId, PforSpec, Requirement, RtConfig, RtCtx, Runtime, SplitOutcome,
    TaskCtx, TaskValue, TreeItem, WorkItem,
};
use allscale_des::{SimDuration, SimTime};
use allscale_region::{BitmaskTreeRegion, GridBox, Subtree, TreeFragment, TreePath};

use super::{dist2, gen_points, oracle, query_point, KdNode, KdTree, TpcConfig, TpcResult};

/// The kd-tree data item type: blocked tree regions over [`KdNode`]s.
type KdTreeItem = TreeItem<KdNode, BitmaskTreeRegion>;

type TreeFrag = TreeFragment<KdNode, BitmaskTreeRegion>;

struct TpcShared {
    item: ItemId,
    h: u8,
    /// An empty region split at `h`, which names each subtree's root.
    split: BitmaskTreeRegion,
    levels: u8,
    radius: f64,
    total_queries: u64,
    batch: u64,
    ns_per_node: f64,
}

enum TpcParam {
    /// A contiguous range of query ids.
    Queries { lo: u64, hi: u64 },
    /// Continue the given queries inside one subtree block.
    Sub { subtree: usize, qids: Vec<u64> },
}

struct TpcWork {
    param: TpcParam,
    depth: u32,
    shared: Arc<TpcShared>,
}

impl WorkItem for TpcWork {
    fn name(&self) -> &'static str {
        "tpc-query"
    }
    fn depth(&self) -> u32 {
        self.depth
    }
    fn can_split(&self) -> bool {
        matches!(self.param, TpcParam::Queries { lo, hi } if hi - lo > self.shared.batch)
    }
    fn requirements(&self) -> Vec<Requirement> {
        let region = match &self.param {
            TpcParam::Queries { .. } => BitmaskTreeRegion::of_root_block(self.shared.h),
            TpcParam::Sub { subtree, .. } => {
                BitmaskTreeRegion::of_subtree(self.shared.h, *subtree)
            }
        };
        vec![Requirement::read(self.shared.item, region)]
    }
    fn cost(&self, _cost: &CostModel, _loc: usize) -> SimDuration {
        SimDuration::ZERO // charged per visited node via TaskCtx::charge
    }
    fn placement_hint(&self) -> Option<f64> {
        match &self.param {
            TpcParam::Queries { lo, .. } => {
                Some(*lo as f64 / self.shared.total_queries as f64)
            }
            TpcParam::Sub { .. } => None, // pinned by its data requirement
        }
    }
    fn split(self: Box<Self>) -> SplitOutcome {
        let TpcParam::Queries { lo, hi } = self.param else {
            unreachable!("Sub tasks never split");
        };
        let mid = lo + (hi - lo) / 2;
        let depth = self.depth + 1;
        let children: Vec<Box<dyn WorkItem>> = [(lo, mid), (mid, hi)]
            .into_iter()
            .map(|(l, h)| {
                Box::new(TpcWork {
                    param: TpcParam::Queries { lo: l, hi: h },
                    depth,
                    shared: self.shared.clone(),
                }) as Box<dyn WorkItem>
            })
            .collect();
        SplitOutcome {
            children,
            combine: Box::new(sum_counts),
        }
    }
    fn process(self: Box<Self>, ctx: &mut TaskCtx<'_>) -> Done {
        let sh = &self.shared;
        let ns = sh.ns_per_node;
        let mut walk = Walk {
            shared: sh,
            stack: Vec::with_capacity(2 * sh.levels as usize),
            count: 0,
            visits: 0,
        };
        match &self.param {
            TpcParam::Queries { lo, hi } => {
                // Traverse the root block for each query; collect the
                // subtree crossings.
                let mut crossings: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
                let tree = ctx.fragment::<TreeFrag>(sh.item).subtree(TreePath::ROOT);
                for qid in *lo..*hi {
                    walk.query(&tree, 0, sh.h, qid, |steps| {
                        let root = TreePath::ROOT.descend(sh.h, steps);
                        let block = BitmaskTreeRegion::block_of(sh.h, &root).expect("below split");
                        crossings.entry(block).or_default().push(qid);
                    });
                }
                let local = walk.count;
                ctx.charge(SimDuration::from_nanos_f64(walk.visits as f64 * ns));
                let depth = self.depth + 1;
                let children: Vec<Box<dyn WorkItem>> = crossings
                    .into_iter()
                    .map(|(subtree, qids)| {
                        Box::new(TpcWork {
                            param: TpcParam::Sub { subtree, qids },
                            depth,
                            shared: sh.clone(),
                        }) as Box<dyn WorkItem>
                    })
                    .collect();
                if children.is_empty() {
                    return Done::Value(Some(Box::new(local)));
                }
                Done::Children(SplitOutcome {
                    children,
                    combine: Box::new(move |vals| {
                        let children_sum = sum_value(vals);
                        Some(Box::new(local + children_sum))
                    }),
                })
            }
            TpcParam::Sub { subtree, qids } => {
                let root = sh.split.subtree_root(*subtree);
                let tree = ctx.fragment::<TreeFrag>(sh.item).subtree(root);
                // Subtrees are the leaves of the block decomposition: the
                // walk crosses nothing (it never gets `levels` down).
                for &qid in qids {
                    walk.query(&tree, sh.h, sh.levels, qid, |_| unreachable!());
                }
                ctx.charge(SimDuration::from_nanos_f64(walk.visits as f64 * ns));
                Done::Value(Some(Box::new(walk.count)))
            }
        }
    }
    fn descriptor_bytes(&self) -> usize {
        match &self.param {
            TpcParam::Queries { .. } => 96,
            TpcParam::Sub { qids, .. } => 64 + qids.len() * 8,
        }
    }
    fn result_bytes(&self) -> usize {
        8
    }
}

/// One task's pruned kd-tree traversals: a stack sized once, and the
/// running count and visit tally.
struct Walk<'a> {
    shared: &'a TpcShared,
    /// `(levels, steps)` below the traversal's root still to visit.
    stack: Vec<(u8, u64)>,
    count: u64,
    visits: u64,
}

impl Walk<'_> {
    /// Traverse below `tree`'s root, which sits at `depth`, for query
    /// `qid`: count the nodes within the radius, and hand each path that
    /// reaches `cross_at` levels down to `cross` (as its steps) instead of
    /// visiting it.
    fn query(
        &mut self,
        tree: &Subtree<'_, KdNode>,
        depth: u8,
        cross_at: u8,
        qid: u64,
        mut cross: impl FnMut(u64),
    ) {
        let (radius, leaves) = (self.shared.radius, self.shared.levels - 1 - depth);
        let q = query_point(qid);
        let r2 = radius * radius;
        let (mut count, mut visits) = (0, 0);
        let stack = &mut self.stack;
        stack.push((0, 0));
        while let Some((down, steps)) = stack.pop() {
            if down == cross_at {
                cross(steps);
                continue;
            }
            visits += 1;
            let node = tree.get(down, steps).expect("a task's blocks are local");
            if dist2(&node.point, &q) <= r2 {
                count += 1;
            }
            if down == leaves {
                continue;
            }
            let d = node.dim as usize;
            let diff = q[d] - node.point[d];
            if diff <= radius {
                stack.push((down + 1, steps));
            }
            if diff >= -radius {
                stack.push((down + 1, steps | 1 << down));
            }
        }
        self.count += count;
        self.visits += visits;
    }
}

fn sum_value(vals: Vec<TaskValue>) -> u64 {
    vals.into_iter()
        .map(|v| *v.expect("counts").downcast::<u64>().expect("u64 counts"))
        .sum()
}

fn sum_counts(vals: Vec<TaskValue>) -> TaskValue {
    Some(Box::new(sum_value(vals)))
}

struct DriverState {
    item: Option<ItemId>,
    compute_start: SimTime,
    compute_end: SimTime,
    total: u64,
}

/// Run the AllScale version on a fresh simulated cluster.
pub fn run(cfg: &TpcConfig) -> TpcResult {
    run_with(cfg, RtConfig::meggie(cfg.nodes))
}

/// Run with a custom runtime configuration.
pub fn run_with(cfg: &TpcConfig, rt_cfg: RtConfig) -> TpcResult {
    let cfg = cfg.clone();
    let cfg_out = cfg.clone();
    let tree = Arc::new(KdTree::build(&gen_points(cfg.total_points())));
    let h = cfg.split_depth;
    let levels = cfg.levels;
    assert!(levels > h, "tree must extend below the split depth");
    let nsub = 1usize << h;
    let q_total = cfg.total_queries();
    let cost = CostModel::default();
    let ns_node = cost.ns_per_tree_node * cfg.work_scale;

    let state = Rc::new(RefCell::new(DriverState {
        item: None,
        compute_start: SimTime::ZERO,
        compute_end: SimTime::ZERO,
        total: 0,
    }));
    let st = state.clone();
    let batch = cfg.batch as u64;
    let radius = cfg.radius;

    let runtime = Runtime::new(rt_cfg);
    let report = runtime.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    // Distribute the prebuilt tree: one pfor index per
                    // block (0 = root block, 1+i = subtree i); first touch
                    // places each block at its hint target.
                    let item = ctx.create_item::<KdTreeItem>("kdtree");
                    st.borrow_mut().item = Some(item);
                    let tree = tree.clone();
                    Some(pfor(
                        PforSpec {
                            name: "tpc-distribute",
                            range: GridBox::<1>::from_shape([nsub as i64 + 1]).unwrap(),
                            grain: 1,
                            ns_per_point: 200.0,
                            axis0_pieces: 0,
                        },
                        move |tile| {
                            let mut region = BitmaskTreeRegion::new(h);
                            for idx in tile.points() {
                                if idx[0] == 0 {
                                    region.set_root_block(true);
                                } else {
                                    region.set_subtree(idx[0] as usize - 1, true);
                                }
                            }
                            vec![Requirement::write(item, region)]
                        },
                        move |tctx, p| {
                            let frag = tctx.fragment_mut::<TreeFrag>(item);
                            if p[0] == 0 {
                                // Root block: all paths shallower than h.
                                for bfs in 0..((1u64 << h) - 1) {
                                    let path = TreePath::from_bfs_index(bfs);
                                    frag.set(path, tree.node(&path).clone());
                                }
                            } else {
                                let region = BitmaskTreeRegion::new(h);
                                let root = region.subtree_root(p[0] as usize - 1);
                                let mut stack = vec![root];
                                while let Some(path) = stack.pop() {
                                    frag.set(path, tree.node(&path).clone());
                                    if path.depth() + 1 < levels {
                                        stack.push(path.left());
                                        stack.push(path.right());
                                    }
                                }
                            }
                        },
                    ))
                }
                1 => {
                    let item = st.borrow().item.unwrap();
                    // Replicate the root block everywhere (runtime
                    // (replicate) rule): it is read by every query task.
                    let root_region = BitmaskTreeRegion::of_root_block(h);
                    let owner = (0..ctx.nodes())
                        .find(|&loc| {
                            !ctx.owned_region_at(loc, item).is_disjoint_dyn(&root_region)
                        })
                        .expect("root block owned somewhere");
                    ctx.broadcast_replicate(item, owner, &root_region);
                    st.borrow_mut().compute_start = ctx.now();
                    Some(Box::new(TpcWork {
                        param: TpcParam::Queries {
                            lo: 0,
                            hi: q_total,
                        },
                        depth: 0,
                        shared: Arc::new(TpcShared {
                            item,
                            h,
                            split: BitmaskTreeRegion::new(h),
                            levels,
                            radius,
                            total_queries: q_total,
                            batch,
                            ns_per_node: ns_node,
                        }),
                    }))
                }
                _ => {
                    let mut s = st.borrow_mut();
                    s.compute_end = ctx.now();
                    s.total = *prev
                        .expect("query phase yields a count")
                        .downcast::<u64>()
                        .expect("u64 total");
                    None
                }
            }
        },
    );

    let s = state.borrow();
    let compute_seconds = (s.compute_end - s.compute_start).as_secs_f64();
    let validated = if cfg_out.validate {
        oracle(&cfg_out).iter().sum::<u64>() == s.total
    } else {
        true
    };
    TpcResult {
        compute_seconds,
        queries_per_sec: q_total as f64 / compute_seconds,
        total_count: s.total,
        validated,
        remote_msgs: report.remote_msgs,
        remote_bytes: report.remote_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_against_oracle_small() {
        let res = run(&TpcConfig::small(2));
        assert!(res.validated, "AllScale TPC must match the brute force");
        assert!(res.total_count > 0);
    }

    #[test]
    fn single_node_works() {
        let res = run(&TpcConfig::small(1));
        assert!(res.validated);
    }

    #[test]
    fn four_nodes_with_batching() {
        let mut cfg = TpcConfig::small(4);
        cfg.batch = 4;
        let res = run(&cfg);
        assert!(res.validated);
    }
}
