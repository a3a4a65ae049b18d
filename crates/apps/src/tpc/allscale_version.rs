//! The AllScale port of TPC.
//!
//! The kd-tree is a runtime-managed data item with the blocked region
//! scheme (Fig. 4c). Query tasks read the (persistently replicated) root
//! block wherever they are spawned; each crossing into a subtree block
//! becomes a *child task* whose read requirement pins it to the subtree's
//! owner — the runtime forwards it there (Algorithm 2 line 4-6). This is
//! exactly the fine-grained task forwarding whose communication overhead
//! the paper reports as the AllScale TPC bottleneck.

use std::collections::BTreeMap;
use std::rc::Rc;

use allscale_core::{
    pfor, AccessMode, CostModel, Done, DynRegion, ItemId, PforSpec, Requirement, RtConfig, RtCtx,
    RunReport, Runtime, TaskCtx, TaskValue, TreeItem, WorkItem,
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
    /// The region of each block, built once and shared by every task's
    /// requirement: 0 is the root block, `1 + i` subtree `i`.
    blocks: Vec<Rc<dyn DynRegion>>,
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
    Sub { subtree: usize, qids: Qids },
}

/// The queries a Sub task continues. Most crossings of a batch into a
/// subtree carry a single query, which needs no vector of its own.
enum Qids {
    One(u64),
    Many(Vec<u64>),
}

impl Qids {
    fn push(&mut self, qid: u64) {
        match self {
            Qids::One(first) => *self = Qids::Many(vec![*first, qid]),
            Qids::Many(qids) => qids.push(qid),
        }
    }

    fn as_slice(&self) -> &[u64] {
        match self {
            Qids::One(qid) => std::slice::from_ref(qid),
            Qids::Many(qids) => qids,
        }
    }
}

struct TpcWork {
    param: TpcParam,
    shared: Rc<TpcShared>,
}

impl WorkItem for TpcWork {
    fn can_split(&self) -> bool {
        matches!(self.param, TpcParam::Queries { lo, hi } if hi - lo > self.shared.batch)
    }
    fn requirements(&self) -> Vec<Requirement> {
        let block = match &self.param {
            TpcParam::Queries { .. } => 0,
            TpcParam::Sub { subtree, .. } => 1 + subtree,
        };
        vec![Requirement {
            item: self.shared.item,
            region: self.shared.blocks[block].clone(),
            mode: AccessMode::Read,
        }]
    }
    fn cost(&self, _cost: &CostModel, _loc: usize) -> SimDuration {
        SimDuration::ZERO // charged per visited node via TaskCtx::charge
    }
    fn placement_hint(&self) -> Option<f64> {
        match &self.param {
            TpcParam::Queries { lo, .. } => Some(*lo as f64 / self.shared.total_queries as f64),
            TpcParam::Sub { .. } => None, // pinned by its data requirement
        }
    }
    fn split(self: Box<Self>) -> Vec<Box<dyn WorkItem>> {
        let TpcParam::Queries { lo, hi } = self.param else {
            unreachable!("Sub tasks never split");
        };
        let mid = lo + (hi - lo) / 2;
        [(lo, mid), (mid, hi)]
            .into_iter()
            .map(|(l, h)| {
                Box::new(TpcWork {
                    param: TpcParam::Queries { lo: l, hi: h },
                    shared: self.shared.clone(),
                }) as Box<dyn WorkItem>
            })
            .collect()
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
                let mut crossings: BTreeMap<usize, Qids> = BTreeMap::new();
                let tree = ctx.fragment::<TreeFrag>(sh.item).subtree(TreePath::ROOT);
                for qid in *lo..*hi {
                    walk.query(&tree, 0, sh.h, qid, |steps| {
                        let root = TreePath::ROOT.descend(sh.h, steps);
                        let block = BitmaskTreeRegion::block_of(sh.h, &root).expect("below split");
                        crossings
                            .entry(block)
                            .and_modify(|qids| qids.push(qid))
                            .or_insert(Qids::One(qid));
                    });
                }
                ctx.charge(SimDuration::from_nanos_f64(walk.visits as f64 * ns));
                if crossings.is_empty() {
                    return Done::Value(Some(walk.count));
                }
                // This task's matches plus those of its Sub tasks.
                let children = crossings
                    .into_iter()
                    .map(|(subtree, qids)| {
                        Box::new(TpcWork {
                            param: TpcParam::Sub { subtree, qids },
                            shared: sh.clone(),
                        }) as Box<dyn WorkItem>
                    })
                    .collect();
                Done::Children(Some(walk.count), children)
            }
            TpcParam::Sub { subtree, qids } => {
                let root = sh.split.subtree_root(*subtree);
                let tree = ctx.fragment::<TreeFrag>(sh.item).subtree(root);
                // Subtrees are the leaves of the block decomposition: the
                // walk crosses nothing (it never gets `levels` down).
                for &qid in qids.as_slice() {
                    walk.query(&tree, sh.h, sh.levels, qid, |_| unreachable!());
                }
                ctx.charge(SimDuration::from_nanos_f64(walk.visits as f64 * ns));
                Done::Value(Some(walk.count))
            }
        }
    }
    fn descriptor_bytes(&self) -> usize {
        match &self.param {
            TpcParam::Queries { .. } => 96,
            TpcParam::Sub { qids, .. } => 64 + qids.as_slice().len() * 8,
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

/// Every block's region: the root block, then each subtree in order.
fn block_regions(h: u8) -> Vec<Rc<dyn DynRegion>> {
    (0..=1usize << h)
        .map(|block| -> Rc<dyn DynRegion> {
            match block {
                0 => Rc::new(BitmaskTreeRegion::of_root_block(h)),
                _ => Rc::new(BitmaskTreeRegion::of_subtree(h, block - 1)),
            }
        })
        .collect()
}

/// Run the AllScale version on a fresh simulated cluster.
pub fn run(cfg: &TpcConfig) -> TpcResult {
    run_with(cfg, RtConfig::meggie(cfg.nodes))
}

/// Run with a custom runtime configuration.
pub fn run_with(cfg: &TpcConfig, rt_cfg: RtConfig) -> TpcResult {
    run_with_report(cfg, rt_cfg).0
}

/// [`run_with`], also handing back the runtime's report.
fn run_with_report(cfg: &TpcConfig, rt_cfg: RtConfig) -> (TpcResult, RunReport) {
    let points = cfg.total_points();
    let h = cfg.split_depth;
    let levels = cfg.levels;
    assert!(levels > h, "tree must extend below the split depth");
    let nsub = 1usize << h;
    let q_total = cfg.total_queries();
    let cost = CostModel::default();
    let ns_node = cost.ns_per_tree_node * cfg.work_scale;

    let mut tree_item = None;
    let (mut compute_start, mut compute_end) = (SimTime::ZERO, SimTime::ZERO);
    let mut total = 0;
    let report = Runtime::new(rt_cfg).run(
        |phase: usize, ctx: &mut RtCtx<'_>, prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    // Build the tree and distribute it: one pfor index
                    // per block (0 = root block, 1+i = subtree i); first
                    // touch places each block at its hint target. The
                    // pfor owns the tree and frees it with its last leaf,
                    // so the run holds it only while it distributes; a
                    // restart from scratch asks for this phase again and
                    // builds it anew.
                    let item = ctx.create_item::<KdTreeItem>("kdtree");
                    tree_item = Some(item);
                    let tree = KdTree::build(&gen_points(points));
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
                    let item = tree_item.expect("created in phase 0");
                    // Replicate the root block everywhere (runtime
                    // (replicate) rule): it is read by every query task.
                    let root_region = BitmaskTreeRegion::of_root_block(h);
                    let owner = (0..ctx.nodes())
                        .find(|&loc| !ctx.owned_region_at(loc, item).is_disjoint_dyn(&root_region))
                        .expect("root block owned somewhere");
                    ctx.broadcast_replicate(item, owner, &root_region);
                    compute_start = ctx.now();
                    Some(Box::new(TpcWork {
                        param: TpcParam::Queries { lo: 0, hi: q_total },
                        shared: Rc::new(TpcShared {
                            item,
                            h,
                            split: BitmaskTreeRegion::new(h),
                            blocks: block_regions(h),
                            levels,
                            radius: cfg.radius,
                            total_queries: q_total,
                            batch: cfg.batch as u64,
                            ns_per_node: ns_node,
                        }),
                    }))
                }
                _ => {
                    compute_end = ctx.now();
                    total = prev.expect("query phase yields a count");
                    None
                }
            }
        },
    );

    let compute_seconds = (compute_end - compute_start).as_secs_f64();
    let validated = !cfg.validate || oracle(cfg).iter().sum::<u64>() == total;
    let result = TpcResult {
        compute_seconds,
        queries_per_sec: q_total as f64 / compute_seconds,
        total_count: total,
        validated,
        remote_msgs: report.remote_msgs,
        remote_bytes: report.remote_bytes,
    };
    (result, report)
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

    #[test]
    fn a_restart_from_scratch_builds_the_tree_again() {
        use allscale_core::{EventKind, FaultPlan, ResilienceConfig, TraceConfig};
        let cfg = TpcConfig::small(4);
        let (clean, report) = run_with_report(&cfg, RtConfig::meggie(4));
        // Halfway through the run: before the first checkpoint, which the
        // default policy takes entering phase 2, so recovery restarts
        // from phase 0 and its driver builds the freed tree again.
        let mut plan = FaultPlan::new(1);
        plan.kill_at(3, SimTime::from_nanos(report.finish_time.as_nanos() / 2));
        let mut rt = RtConfig::meggie(4);
        rt.faults = Some(plan);
        rt.resilience = Some(ResilienceConfig::default());
        rt.trace = Some(TraceConfig::default());
        let (res, report) = run_with_report(&cfg, rt);
        assert!(res.validated, "the rebuilt tree answers like the first");
        assert_eq!(res.total_count, clean.total_count);
        assert_eq!(report.monitor.resilience.checkpoints, 0);
        let trace = report.trace.expect("tracing was on");
        let restarts = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Recovery { phase: 0, .. }))
            .count();
        assert_eq!(restarts, 1, "one recovery, replaying phase 0");
    }
}
