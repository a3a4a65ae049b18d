//! The one program family (DESIGN.md §7): seeded phased
//! [`allscale_model::Program`]s, the compiler that turns any member into
//! a runtime phase driver, and the sequential interpreter that is its
//! oracle. The model runs every member through `model::Driver` when it
//! is made ([`assert_model_accepts`]), so both sides of the model →
//! runtime claim see the same programs.
//!
//! A member's entry task creates its items and then runs waves, each
//! `Spawn r; Sync r` with `r` the root of a balanced binary spawn tree
//! over the wave's leaves; the last wave reads back every live element.
//! A leaf reads and writes elements of the items. **The family's rule:**
//! within a wave, no element that one leaf reads is written by another
//! leaf. Leaves may share written elements: a leaf adds to every element
//! it writes a term of the task, the element and the values it read
//! (wrapping `u64`), so writes commute, and wake order, stealing,
//! migrations and recovery cannot change what the read-back sees.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use allscale_core::{
    CostModel, Done, Grid, Requirement, RtConfig, RtCtx, SplitOutcome, TaskCtx, TaskValue,
    WorkItem,
};
use allscale_des::rng::XorShift64;
use allscale_des::SimDuration;
use allscale_model::{self as model, Action, Elem, Program, ProgramBuilder, TaskId, VariantSpec};
use allscale_region::{BoxRegion, Region};

use super::{migrate_random_slice, NODES};

/// What the last wave read: `(item, element) → value`.
pub type Readback = BTreeMap<(u32, u32), u64>;

// ---------------------------------------------------------------- members

/// The randomized member of `seed`: one or two items of 24–48 elements,
/// 4–8 leaves per wave, a fill, one to three update waves and the
/// read-back. An update wave writes one item, in tiles or in scattered
/// runs; its leaves read nothing, their own elements, or random elements
/// of the other item.
pub fn draw(seed: u64) -> Rc<Program> {
    memo(0, seed, || phased(seed, false))
}

/// [`draw`] with two items, the first destroyed before the read-back.
pub fn destroying(seed: u64) -> Rc<Program> {
    memo(1, seed, || phased(seed, true))
}

fn phased(seed: u64, destroy: bool) -> Program {
    let mut rng = XorShift64::new(seed ^ 0x5ced);
    let n = 24 + 8 * rng.below(4) as u32;
    let items = if destroy { 2 } else { 1 + rng.below(2) as u32 };
    let mut m = Member::new(&vec![n; items as usize], 4 + rng.below(5) as u32);
    m.fill(0..items);
    for _ in 0..1 + rng.below(3) {
        let d = rng.below(items as u64) as u32;
        let other = (d + 1) % items;
        let owner: Vec<u32> = if rng.below(2) == 0 {
            (0..n).map(|e| m.tile_of(d, e)).collect()
        } else {
            let run_owner: Vec<u32> =
                (0..n.div_ceil(4)).map(|_| rng.below(m.pieces as u64) as u32).collect();
            (0..n).map(|e| run_owner[e as usize / 4]).collect()
        };
        let reads = rng.below(3);
        let leaves = (0..m.pieces).map(|j| {
            let mine = (0..n).filter(|&e| owner[e as usize] == j);
            let mut leaf = VariantSpec::default();
            add(&mut leaf.writes, d, mine.clone());
            match reads {
                1 => add(&mut leaf.reads, d, mine),
                2 if other != d => add(&mut leaf.reads, other, (0..n).filter(|_| rng.below(4) == 0)),
                _ => {}
            }
            leaf
        });
        m.wave(leaves.collect());
    }
    if destroy {
        m.destroy(0);
    }
    m.finish()
}

/// The contended member of `seed`: two items of 16–32 elements in 8
/// tiles ping-pong a halo read (each leaf reads its tile of one item
/// dilated by one and writes its tile of the other — replicas, so the
/// next wave's writers wait behind export fences), and every leaf also
/// writes the one to three shared elements of a third item its tile maps
/// to, so their ownership hops from writer to writer.
pub fn contended(seed: u64) -> Rc<Program> {
    memo(2, seed, || contended_member(seed))
}

fn contended_member(seed: u64) -> Program {
    let mut rng = XorShift64::new(seed ^ 0xa11_5ca1e);
    let n = 16 + 8 * rng.below(3) as u32;
    let pieces = 8;
    let shared = 1 + rng.below(3) as u32;
    let stride = 5 + rng.below(7) as u32;
    let mut m = Member::new(&[n, n, shared], pieces);
    m.fill(0..1);
    for k in 0..2 + rng.below(3) as u32 {
        let (src, dst) = (k % 2, 1 - k % 2);
        let leaves = (0..pieces).map(|j| {
            let tile = m.tile(dst, j);
            let mut leaf = VariantSpec::default();
            add(&mut leaf.reads, src, tile.start.saturating_sub(1)..(tile.end + 1).min(n));
            add(&mut leaf.writes, dst, tile.clone());
            add(&mut leaf.writes, 2, tile.map(|e| (e / stride) % shared));
            leaf
        });
        m.wave(leaves.collect());
    }
    m.finish()
}

/// The fixed shape of the fault and integrity suites: one item of 96
/// elements in 8 tiles, a fill, `steps` waves that bump every element,
/// the read-back.
pub fn bumps(steps: usize) -> Rc<Program> {
    memo(3, steps as u64, || tiled_bumps(96, 8, steps))
}

/// The work-stealing fixture: 256 elements in 16 tiles, three bump waves.
pub fn imbalanced() -> Rc<Program> {
    memo(4, 0, || tiled_bumps(256, 16, 3))
}

fn tiled_bumps(n: u32, pieces: u32, steps: usize) -> Program {
    let mut m = Member::new(&[n], pieces);
    m.fill(0..1);
    for _ in 0..steps {
        m.fill(0..1);
    }
    m.finish()
}

/// One `Rc` per member and test thread, made once: the model accepts a
/// member ([`assert_model_accepts`]) before any suite runs it.
fn memo(kind: u8, arg: u64, make: impl FnOnce() -> Program) -> Rc<Program> {
    thread_local!(static MADE: RefCell<BTreeMap<(u8, u64), Rc<Program>>> = RefCell::default());
    let made = MADE.with(|m| m.borrow().get(&(kind, arg)).cloned());
    made.unwrap_or_else(|| {
        let program = make();
        assert_model_accepts(&program, arg);
        let program = Rc::new(program);
        MADE.with(|m| m.borrow_mut().insert((kind, arg), program.clone()));
        program
    })
}

/// Adds `es` of item `d` to a requirement map.
fn add(
    map: &mut BTreeMap<model::ItemId, BTreeSet<Elem>>,
    d: u32,
    es: impl IntoIterator<Item = u32>,
) {
    let set = map.entry(model::ItemId(d)).or_default();
    set.extend(es.into_iter().map(Elem));
    if set.is_empty() {
        map.remove(&model::ItemId(d));
    }
}

/// One member under construction: its items, its entry script so far.
struct Member {
    b: ProgramBuilder,
    script: Vec<Action>,
    sizes: Vec<u32>,
    live: Vec<bool>,
    /// Leaves per wave.
    pieces: u32,
    next_task: u32,
}

impl Member {
    fn new(sizes: &[u32], pieces: u32) -> Self {
        let mut b = ProgramBuilder::new();
        for (d, &n) in sizes.iter().enumerate() {
            b.item(model::ItemId(d as u32), n);
        }
        Member {
            b,
            script: (0..sizes.len() as u32)
                .map(|d| Action::Create(model::ItemId(d)))
                .collect(),
            sizes: sizes.to_vec(),
            live: vec![true; sizes.len()],
            pieces,
            next_task: 1,
        }
    }

    /// Tile `j` of item `d`: the `j`-th of `pieces` contiguous runs.
    fn tile(&self, d: u32, j: u32) -> std::ops::Range<u32> {
        let n = self.sizes[d as usize];
        n * j / self.pieces..n * (j + 1) / self.pieces
    }

    fn tile_of(&self, d: u32, e: u32) -> u32 {
        (0..self.pieces)
            .find(|&j| self.tile(d, j).contains(&e))
            .expect("the tiles cover the item")
    }

    /// A wave whose leaf `j` writes tile `j` of every item in `items`.
    fn fill(&mut self, items: std::ops::Range<u32>) {
        let leaves: Vec<VariantSpec> = (0..self.pieces)
            .map(|j| {
                let mut leaf = VariantSpec::default();
                for d in items.clone() {
                    add(&mut leaf.writes, d, self.tile(d, j));
                }
                leaf
            })
            .collect();
        self.wave(leaves);
    }

    /// Append `Spawn r; Sync r`, `r` a balanced binary spawn tree over
    /// the leaves that require anything.
    fn wave(&mut self, leaves: Vec<VariantSpec>) {
        let ids: Vec<TaskId> = leaves
            .into_iter()
            .filter(|leaf| !leaf.required_items().is_empty())
            .map(|leaf| {
                let t = self.fresh();
                self.b.variant(t, leaf);
                t
            })
            .collect();
        let root = self.tree(&ids);
        self.script.extend([Action::Spawn(root), Action::Sync(root)]);
    }

    fn tree(&mut self, leaves: &[TaskId]) -> TaskId {
        if let [leaf] = leaves {
            return *leaf;
        }
        let (l, r) = leaves.split_at(leaves.len() / 2);
        let (l, r) = (self.tree(l), self.tree(r));
        let t = self.fresh();
        let actions = vec![Action::Spawn(l), Action::Spawn(r), Action::Sync(l), Action::Sync(r)];
        self.b.variant(
            t,
            VariantSpec {
                actions,
                ..Default::default()
            },
        );
        t
    }

    fn fresh(&mut self) -> TaskId {
        self.next_task += 1;
        TaskId(self.next_task - 1)
    }

    fn destroy(&mut self, d: u32) {
        self.live[d as usize] = false;
        self.script.push(Action::Destroy(model::ItemId(d)));
    }

    /// The read-back wave — leaf `j` reads tile `j` of every live item —
    /// and the program.
    fn finish(mut self) -> Program {
        let leaves: Vec<VariantSpec> = (0..self.pieces)
            .map(|j| {
                let mut leaf = VariantSpec::default();
                for d in (0..self.sizes.len() as u32).filter(|&d| self.live[d as usize]) {
                    add(&mut leaf.reads, d, self.tile(d, j));
                }
                leaf
            })
            .collect();
        self.wave(leaves);
        let entry = VariantSpec {
            actions: std::mem::take(&mut self.script),
            ..Default::default()
        };
        self.b.variant(TaskId(0), entry);
        self.b.build(TaskId(0))
    }
}

// ------------------------------------------------------------------- leaves

/// A leaf's requirements as the compiler and the interpreter see them.
struct Leaf {
    task: u32,
    reads: Vec<(u32, Vec<u32>)>,
    writes: Vec<(u32, Vec<u32>)>,
}

impl Leaf {
    fn of(task: TaskId, spec: &VariantSpec) -> Self {
        let flat = |map: &BTreeMap<model::ItemId, BTreeSet<Elem>>| {
            map.iter()
                .map(|(d, es)| (d.0, es.iter().map(|e| e.0).collect()))
                .collect()
        };
        Leaf {
            task: task.0,
            reads: flat(&spec.reads),
            writes: flat(&spec.writes),
        }
    }

    /// The leaf's effect through `at(item, element, None)` (a read) and
    /// `at(item, element, Some(v))` (a write): every written element
    /// gains a term of the task, the element and every value read.
    fn apply(&self, mut at: impl FnMut(u32, u32, Option<u64>) -> u64) {
        let mut seen = 0u64;
        for (d, es) in &self.reads {
            for &e in es {
                let v = at(*d, e, None);
                seen = seen.wrapping_mul(0x100_0000_01b3).wrapping_add(v);
            }
        }
        for (d, es) in &self.writes {
            for &e in es {
                let key = (u64::from(self.task) << 40) ^ (u64::from(*d) << 32) ^ u64::from(e);
                let term = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seen;
                let old = at(*d, e, None);
                at(*d, e, Some(old.wrapping_add(term)));
            }
        }
    }
}

/// Union of the runs of consecutive elements in `es` (ascending).
fn runs(es: &[u32]) -> BoxRegion<1> {
    let mut region = BoxRegion::empty();
    let mut i = 0;
    while i < es.len() {
        let mut j = i + 1;
        while j < es.len() && es[j] == es[j - 1] + 1 {
            j += 1;
        }
        let run = BoxRegion::cuboid([i64::from(es[i])], [i64::from(es[j - 1]) + 1]);
        region = region.union(&run);
        i = j;
    }
    region
}

// ---------------------------------------------------------------- oracle

/// The sequential interpreter: runs every spawn tree depth first, each
/// leaf to completion, and returns what the last wave read. Elements
/// nobody wrote read as 0, the runtime's first-touch value.
pub fn interpret(p: &Program) -> Readback {
    fn run(p: &Program, t: TaskId, values: &mut Readback, seen: &mut Readback) {
        let spec = p.variant(p.variants_of(t)[0]);
        for a in &spec.actions {
            if let Action::Spawn(child) = a {
                run(p, *child, values, seen);
            }
        }
        Leaf::of(t, spec).apply(|d, e, v| match v {
            None => {
                let v = values.get(&(d, e)).copied().unwrap_or(0);
                seen.insert((d, e), v);
                v
            }
            Some(v) => {
                values.insert((d, e), v);
                v
            }
        });
    }
    let (mut values, mut seen) = (Readback::new(), Readback::new());
    for a in &p.variant(p.variants_of(p.entry())[0]).actions {
        match *a {
            Action::Spawn(t) => {
                seen.clear();
                run(p, t, &mut values, &mut seen);
            }
            Action::Destroy(d) => values.retain(|&(i, _), _| i != d.0),
            _ => {}
        }
    }
    seen
}

/// `model::Driver` runs `program` on the scenario cluster under the
/// driver's default schedule (its seed `seed`, 20 % chaos moves) and
/// `properties::check_all` judges the trace.
fn assert_model_accepts(program: &Program, seed: u64) {
    let mut driver = model::Driver::new(seed);
    driver.max_steps = 100_000;
    let arch = model::Architecture::cluster(NODES as u32, 2);
    let (trace, outcome) = driver.run(program, arch);
    assert_eq!(outcome, model::Outcome::Terminated, "seed {seed}");
    let verdict = model::properties::check_all(program, &trace);
    verdict.unwrap_or_else(|v| panic!("seed {seed}: {v}"));
}

// -------------------------------------------------------------- compiler

fn refuse(shape: &str) -> ! {
    panic!("the runtime cannot run {shape}")
}

fn only_variant(p: &Program, t: TaskId) -> &VariantSpec {
    match p.variants_of(t) {
        [v] => p.variant(*v),
        _ => refuse("a task with more than one variant"),
    }
}

/// One node of a compiled spawn tree.
struct Node {
    depth: u32,
    kids: Vec<usize>,
    leaf: Leaf,
    /// `(item, region, write)`.
    reqs: Vec<(u32, BoxRegion<1>, bool)>,
    /// Virtual cost: 3 ns per written element, 1 ns per element only read.
    ns: f64,
    /// Where the node's elements sit, as fractions of their items.
    span: (f64, f64),
}

/// A member compiled for the runtime: one phase per wave.
pub struct Compiled {
    creates: Vec<(u32, u32)>,
    waves: Vec<Rc<Vec<Node>>>,
    /// `destroys[k]`: the items destroyed at the boundary before wave `k`.
    destroys: Vec<Vec<u32>>,
}

/// Compile `p` for the runtime: every item a `Grid<u64, 1>` over its
/// elements, every wave one phase, a task whose script is `spawn…;
/// sync…` a split, a leaf a process task, the entry's `Create`s and
/// `Destroy`s driver-side `create_item` / `destroy_item` at boundaries.
/// Panics naming the first shape the runtime cannot run.
pub fn compile(p: &Program) -> Compiled {
    let entry = only_variant(p, p.entry());
    if !entry.required_items().is_empty() {
        refuse("an entry task with data requirements");
    }
    let mut c = Compiled {
        creates: Vec::new(),
        waves: Vec::new(),
        destroys: vec![Vec::new()],
    };
    let mut live = BTreeSet::new();
    let mut script = entry.actions.iter();
    while let Some(&a) = script.next() {
        match a {
            Action::Create(d) if c.waves.is_empty() => {
                live.insert(d.0);
                c.creates.push((d.0, p.elems(d).len() as u32));
            }
            Action::Create(_) => refuse("a Create after the entry's first wave"),
            Action::Destroy(d) => {
                if !live.remove(&d.0) {
                    refuse("a Destroy of an item that is not live");
                }
                c.destroys.last_mut().expect("one per boundary").push(d.0);
            }
            Action::Spawn(t) if script.next() == Some(&Action::Sync(t)) => {
                let mut wave = Vec::new();
                tree(p, t, 0, &live, &mut wave);
                check_rule(&wave);
                c.waves.push(Rc::new(wave));
                c.destroys.push(Vec::new());
            }
            _ => refuse("an entry Spawn not directly followed by its Sync"),
        }
    }
    c
}

/// Compile the spawn tree under `t` into `wave`; returns its index.
fn tree(p: &Program, t: TaskId, depth: u32, live: &BTreeSet<u32>, wave: &mut Vec<Node>) -> usize {
    let spec = only_variant(p, t);
    let leaf = Leaf::of(t, spec);
    let at = wave.len();
    if spec.actions.is_empty() {
        if spec.required_items().iter().any(|d| !live.contains(&d.0)) {
            refuse("a requirement on an item that is not live");
        }
        let (mut reqs, mut ns) = (Vec::new(), 0.0);
        for (d, es) in &leaf.reads {
            let written = leaf.writes.iter().find(|(w, _)| w == d).map(|(_, w)| &w[..]);
            let only: Vec<u32> =
                es.iter().copied().filter(|e| !written.is_some_and(|w| w.contains(e))).collect();
            if !only.is_empty() {
                ns += only.len() as f64;
                reqs.push((*d, runs(&only), false));
            }
        }
        for (d, es) in &leaf.writes {
            ns += 3.0 * es.len() as f64;
            reqs.push((*d, runs(es), true));
        }
        let span = match leaf.writes.first().or(leaf.reads.first()) {
            Some((d, es)) => {
                let n = p.elems(model::ItemId(*d)).len() as f64;
                (f64::from(es[0]) / n, (f64::from(es[es.len() - 1]) + 1.0) / n)
            }
            None => (0.0, 1.0),
        };
        wave.push(Node { depth, kids: Vec::new(), leaf, reqs, ns, span });
        return at;
    }
    if !spec.required_items().is_empty() {
        refuse("a split task with data requirements");
    }
    let (mut spawned, mut synced) = (Vec::new(), Vec::new());
    for a in &spec.actions {
        match *a {
            Action::Spawn(_) if !synced.is_empty() => {
                refuse("a spawn after a sync in one non-entry script")
            }
            Action::Spawn(kid) => spawned.push(kid),
            Action::Sync(kid) => synced.push(kid),
            Action::Create(_) => refuse("a Create inside a non-entry task"),
            Action::Destroy(_) => refuse("a Destroy inside a non-entry task"),
        }
    }
    if spawned != synced {
        refuse("a split that does not sync its children in spawn order");
    }
    let span = (1.0, 0.0);
    wave.push(Node { depth, kids: Vec::new(), leaf, reqs: Vec::new(), ns: 0.0, span });
    for kid in spawned {
        let k = tree(p, kid, depth + 1, live, wave);
        let (lo, hi) = wave[k].span;
        let node = &mut wave[at];
        node.kids.push(k);
        node.span = (node.span.0.min(lo), node.span.1.max(hi));
    }
    at
}

/// The family's rule, checked per wave.
fn check_rule(wave: &[Node]) {
    let mut writers: BTreeMap<(u32, u32), BTreeSet<usize>> = BTreeMap::new();
    for (i, node) in wave.iter().enumerate() {
        for (d, es) in &node.leaf.writes {
            for &e in es {
                writers.entry((*d, e)).or_default().insert(i);
            }
        }
    }
    for (i, node) in wave.iter().enumerate() {
        for (d, es) in &node.leaf.reads {
            if es.iter().any(|&e| writers.get(&(*d, e)).is_some_and(|w| w.iter().any(|&j| j != i))) {
                refuse("a wave where one leaf reads an element that another leaf of the same wave writes");
            }
        }
    }
}

impl Compiled {
    /// The phase driver on a runtime configured as `rt`, refusing a split
    /// deeper than that runtime splits: phase `k` runs wave `k`. Phase 0 creates the
    /// items (it is replayed from scratch when a locality dies before the
    /// first checkpoint); the items of `destroys[k]` go at boundary `k`.
    /// With `migrations`, every boundary before an update wave migrates a
    /// random slice of one live item ([`migrate_random_slice`], keyed by
    /// `(seed, phase)`); then `at_boundary(phase, ctx, live items)` runs
    /// at every boundary after phase 0. The last wave's reads land
    /// in `readback`.
    pub fn driver(
        self: Rc<Self>,
        rt: &RtConfig,
        seed: u64,
        migrations: bool,
        readback: Rc<RefCell<Readback>>,
        mut at_boundary: impl FnMut(usize, &mut RtCtx<'_>, &[allscale_core::ItemId]) + 'static,
    ) -> impl FnMut(usize, &mut RtCtx<'_>, TaskValue) -> Option<Box<dyn WorkItem>> + 'static {
        // `policy::pick_variant` splits a task at depth `d` only while
        // 2^d < 2 leaves per core.
        let splits = (2 * rt.spec.nodes * rt.spec.cores_per_node) as u64;
        let mut nodes = self.waves.iter().flat_map(|w| w.iter());
        if nodes.any(|n| !n.kids.is_empty() && 1u64 << n.depth >= splits) {
            refuse("a split deeper than the runtime splits");
        }
        // Indexed by model item id.
        let mut grids: Vec<Option<Grid<u64, 1>>> = Vec::new();
        let last = self.waves.len() - 1;
        move |phase, ctx, _prev| {
            if phase == 0 {
                grids.clear();
                for &(d, n) in &self.creates {
                    grids.resize(grids.len().max(d as usize + 1), None);
                    grids[d as usize] = Some(Grid::create(ctx, "item", [i64::from(n)]));
                }
            }
            let grid = |d: u32| grids[d as usize].expect("created");
            for &d in &self.destroys[phase] {
                ctx.destroy_item(grid(d).id);
            }
            let gone: BTreeSet<u32> = self.destroys[..=phase].iter().flatten().copied().collect();
            let live: Vec<Grid<u64, 1>> = (self.creates.iter())
                .filter(|(d, _)| !gone.contains(d))
                .map(|&(d, _)| grid(d))
                .collect();
            if phase > 0 {
                if migrations && phase < last {
                    let g = live[phase % live.len()];
                    migrate_random_slice(ctx, g.id, g.shape[0], seed, phase);
                }
                let items: Vec<_> = live.iter().map(|g| g.id).collect();
                at_boundary(phase, ctx, &items);
            }
            let run = Rc::new(Run {
                wave: self.waves.get(phase)?.clone(),
                grids: grids.clone(),
                readback: (phase == last).then(|| readback.clone()),
            });
            Some(Box::new(Task { run, node: 0 }))
        }
    }
}

/// What every task of one phase shares.
struct Run {
    wave: Rc<Vec<Node>>,
    grids: Vec<Option<Grid<u64, 1>>>,
    readback: Option<Rc<RefCell<Readback>>>,
}

impl Run {
    fn grid(&self, d: u32) -> Grid<u64, 1> {
        self.grids[d as usize].expect("a live item")
    }
}

/// One task of a compiled wave: a split when its node has children, a
/// process task otherwise.
struct Task {
    run: Rc<Run>,
    node: usize,
}

impl Task {
    fn node(&self) -> &Node {
        &self.run.wave[self.node]
    }
}

impl WorkItem for Task {
    fn name(&self) -> &'static str {
        "wave"
    }
    fn depth(&self) -> u32 {
        self.node().depth
    }
    fn can_split(&self) -> bool {
        !self.node().kids.is_empty()
    }
    fn requirements(&self) -> Vec<Requirement> {
        let grid = |d: &u32| self.run.grid(*d).id;
        (self.node().reqs.iter())
            .map(|(d, r, write)| match write {
                true => Requirement::write(grid(d), r.clone()),
                false => Requirement::read(grid(d), r.clone()),
            })
            .collect()
    }
    fn cost(&self, c: &CostModel, loc: usize) -> SimDuration {
        SimDuration::from_nanos_f64(self.node().ns / c.speed(loc))
    }
    fn process(self: Box<Self>, ctx: &mut TaskCtx<'_>) -> Done {
        assert!(!self.can_split(), "a split task is never processed");
        let run = &self.run;
        self.node().leaf.apply(|d, e, v| {
            let g = run.grid(d);
            match v {
                None => {
                    let v = g.get(ctx, [i64::from(e)]);
                    if let Some(out) = &run.readback {
                        out.borrow_mut().insert((d, e), v);
                    }
                    v
                }
                Some(v) => {
                    g.set(ctx, [i64::from(e)], v);
                    v
                }
            }
        });
        Done::Value(None)
    }
    fn placement_hint(&self) -> Option<f64> {
        let (lo, hi) = self.node().span;
        Some(((lo + hi) / 2.0).clamp(0.0, 0.999_999))
    }
    fn split(self: Box<Self>) -> SplitOutcome {
        let children = (self.node().kids.iter())
            .map(|&node| Box::new(Task { run: self.run.clone(), node }) as Box<dyn WorkItem>)
            .collect();
        SplitOutcome {
            children,
            combine: Box::new(|_| None),
        }
    }
    fn result_bytes(&self) -> usize {
        8
    }
}
