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
    TaskCtx, TaskValue, WorkItem,
};
use allscale_des::{SimDuration, SimTime};
use allscale_region::{
    BitmaskTreeRegion, GridBox, ItemType, TreeFragment, TreePath,
};

use super::{dist2, gen_points, oracle, query_point, KdNode, KdTree, TpcConfig, TpcResult, DIMS};

/// The kd-tree data item type: blocked tree regions over [`KdNode`]s.
pub struct TpcTreeItem;

impl ItemType for TpcTreeItem {
    type Region = BitmaskTreeRegion;
    type Fragment = TreeFragment<KdNode, BitmaskTreeRegion>;
    const BYTES_PER_ELEMENT: usize = 8 * DIMS + 8;
}

type TreeFrag = TreeFragment<KdNode, BitmaskTreeRegion>;

struct TpcShared {
    item: ItemId,
    h: u8,
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
        match &self.param {
            TpcParam::Queries { lo, hi } => {
                // Traverse the root block for each query; collect the
                // subtree crossings.
                let mut local: u64 = 0;
                let mut visits: u64 = 0;
                let mut crossings: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
                {
                    let frag = ctx.fragment::<TreeFrag>(sh.item);
                    for qid in *lo..*hi {
                        let q = query_point(qid);
                        let r2 = sh.radius * sh.radius;
                        let mut stack = vec![TreePath::ROOT];
                        while let Some(path) = stack.pop() {
                            if path.depth() == sh.h {
                                let block =
                                    BitmaskTreeRegion::block_of(sh.h, &path).expect("below split");
                                crossings.entry(block).or_default().push(qid);
                                continue;
                            }
                            visits += 1;
                            let node = frag.get(&path).expect("root block replicated");
                            if dist2(&node.point, &q) <= r2 {
                                local += 1;
                            }
                            if path.depth() + 1 >= sh.levels {
                                continue;
                            }
                            let d = node.dim as usize;
                            let diff = q[d] - node.point[d];
                            if diff <= sh.radius {
                                stack.push(path.left());
                            }
                            if diff >= -sh.radius {
                                stack.push(path.right());
                            }
                        }
                    }
                }
                ctx.charge(SimDuration::from_nanos_f64(visits as f64 * ns));
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
                let mut count: u64 = 0;
                let mut visits: u64 = 0;
                {
                    let frag = ctx.fragment::<TreeFrag>(sh.item);
                    let region = BitmaskTreeRegion::new(sh.h);
                    let root = region.subtree_root(*subtree);
                    for &qid in qids {
                        let q = query_point(qid);
                        let r2 = sh.radius * sh.radius;
                        let mut stack = vec![root];
                        while let Some(path) = stack.pop() {
                            visits += 1;
                            let node = frag.get(&path).expect("subtree block local");
                            if dist2(&node.point, &q) <= r2 {
                                count += 1;
                            }
                            if path.depth() + 1 >= sh.levels {
                                continue;
                            }
                            let d = node.dim as usize;
                            let diff = q[d] - node.point[d];
                            if diff <= sh.radius {
                                stack.push(path.left());
                            }
                            if diff >= -sh.radius {
                                stack.push(path.right());
                            }
                        }
                    }
                }
                ctx.charge(SimDuration::from_nanos_f64(visits as f64 * ns));
                Done::Value(Some(Box::new(count)))
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
                    let item = ctx.create_item::<TpcTreeItem>("kdtree");
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
