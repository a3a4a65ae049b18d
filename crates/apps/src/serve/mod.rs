//! A sharded key-value store served under open-loop load — the workload
//! behind the serving subsystem's saturation sweeps.
//!
//! The store is a [`DistMap<u64, u64>`] whose hash buckets are grouped
//! into contiguous *shards*; a setup phase preloads every key and pins
//! each shard to one locality via first touch. The request stream is
//! precomputed from a seed: shard popularity follows a Zipf distribution
//! (the classic hot-shard regime), keys within a shard are uniform, and
//! a configurable fraction of requests are writes. Reads are point gets
//! or splittable multi-gets (small task trees whose leaves place
//! data-aware); writes are commutative increments, so the final value of
//! every key is independent of the interleaving — which is what lets the
//! conformance suite check "no acknowledged write is lost" across
//! fail-stop recovery without assuming an order.
//!
//! [`run_with`] drives the three phases (preload, serve, verify) on any
//! [`RtConfig`] and panics if the surviving store contents disagree with
//! the write oracle.

use std::cell::RefCell;
use std::rc::Rc;

use allscale_core::{
    pfor, CostModel, DistMap, Done, PforSpec, Request, Requirement, RtConfig, RtCtx, RunReport,
    Runtime, ServeSpec, SloConfig, SplitOutcome, TaskCtx, TaskValue, WorkItem,
};
use allscale_des::rng::{XorShift64Star, ZipfSampler, MIX_GOLDEN};
use allscale_des::{ArrivalProcess, SimDuration};
use allscale_region::{BucketRegion, GridBox, KeyedFragment};

/// Workload configuration of the serving benchmark.
#[derive(Debug, Clone)]
pub struct ServeAppConfig {
    /// Number of shards (contiguous bucket ranges).
    pub shards: u32,
    /// Hash buckets per shard. Also the granularity of write
    /// invalidation: a write to a replicated shard punches a one-bucket
    /// hole in every replica, so too few buckets per shard lets a
    /// modest write rate erode whole replicas within one control
    /// period and replication stops paying off.
    pub buckets_per_shard: u32,
    /// Keys preloaded into the store.
    pub keys: u64,
    /// Offered load of the open-loop Poisson arrival process, requests
    /// per virtual second.
    pub rate_rps: f64,
    /// Total requests injected.
    pub requests: u64,
    /// Write fraction in parts per million.
    pub write_ppm: u32,
    /// Fraction of reads that are multi-gets, in parts per million.
    pub multiget_ppm: u32,
    /// Keys per multi-get (its task tree has this many leaves).
    pub multiget_fanout: u32,
    /// Zipf exponent of the shard popularity distribution (0 = uniform).
    pub zipf_s: f64,
    /// Virtual flops charged per single-key operation.
    pub service_flops: u64,
    /// Seed of the arrival process and the request plan.
    pub seed: u64,
    /// SLO and controller policy.
    pub slo: SloConfig,
}

impl Default for ServeAppConfig {
    fn default() -> Self {
        ServeAppConfig {
            shards: 8,
            buckets_per_shard: 64,
            keys: 2048,
            rate_rps: 300_000.0,
            requests: 20_000,
            write_ppm: 20_000,
            multiget_ppm: 150_000,
            multiget_fanout: 4,
            zipf_s: 1.2,
            service_flops: 12_000,
            seed: 42,
            slo: SloConfig::default(),
        }
    }
}

impl ServeAppConfig {
    /// A small configuration for tests (short stream, low rate).
    pub fn small() -> Self {
        ServeAppConfig {
            keys: 512,
            rate_rps: 150_000.0,
            requests: 3_000,
            ..Default::default()
        }
    }

    /// Total bucket count of the store.
    pub fn buckets(&self) -> u32 {
        self.shards * self.buckets_per_shard
    }
}

/// The value every key is preloaded with.
fn initial_value(key: u64) -> u64 {
    key.wrapping_mul(3).wrapping_add(7)
}

/// The shard a key belongs to.
fn shard_of(cfg: &ServeAppConfig, key: u64) -> u32 {
    BucketRegion::bucket_of_bytes(cfg.buckets(), &key.to_le_bytes()) / cfg.buckets_per_shard
}

/// The preloaded keys grouped by the bucket they hash into, each key
/// hashed once: bucket `b`'s keys, ascending, are
/// `keys[offsets[b]..offsets[b + 1]]`.
struct KeysByBucket {
    keys: Vec<u64>,
    offsets: Vec<usize>,
}

impl KeysByBucket {
    fn new(cfg: &ServeAppConfig) -> Self {
        let buckets = cfg.buckets() as usize;
        let bucket_of: Vec<usize> = (0..cfg.keys)
            .map(|k| BucketRegion::bucket_of_bytes(cfg.buckets(), &k.to_le_bytes()) as usize)
            .collect();
        // A counting sort: count per bucket, prefix-sum into offsets, then
        // place the keys in ascending order.
        let mut offsets = vec![0usize; buckets + 1];
        for &b in &bucket_of {
            offsets[b + 1] += 1;
        }
        for b in 0..buckets {
            offsets[b + 1] += offsets[b];
        }
        let mut next = offsets.clone();
        let mut keys = vec![0u64; bucket_of.len()];
        for (k, &b) in bucket_of.iter().enumerate() {
            keys[next[b]] = k as u64;
            next[b] += 1;
        }
        KeysByBucket { keys, offsets }
    }

    /// The keys of bucket `b`, ascending.
    fn of(&self, b: u32) -> &[u64] {
        &self.keys[self.offsets[b as usize]..self.offsets[b as usize + 1]]
    }
}

/// One precomputed request.
#[derive(Debug, Clone)]
enum PlannedOp {
    /// Read `keys` (one key = leaf get, several = splittable multi-get).
    Read(Vec<u64>),
    /// Increment `key` by `delta`.
    Write(u64, u64),
}

/// The full request stream, precomputed from the seed so the driver, the
/// factory and the oracle all agree on it — and so a post-recovery
/// replay regenerates it identically.
#[derive(Debug, Clone)]
struct Plan {
    reqs: Vec<(u32, PlannedOp)>,
}

fn build_plan(cfg: &ServeAppConfig) -> Plan {
    // Group the key space by shard once.
    let mut shard_keys: Vec<Vec<u64>> = vec![Vec::new(); cfg.shards as usize];
    for k in 0..cfg.keys {
        shard_keys[shard_of(cfg, k) as usize].push(k);
    }
    assert!(
        shard_keys.iter().all(|ks| !ks.is_empty()),
        "every shard needs at least one key; use more keys or fewer shards"
    );
    let mut rng = XorShift64Star::with_mix(cfg.seed, MIX_GOLDEN);
    let zipf = ZipfSampler::new(cfg.shards as usize, cfg.zipf_s);
    let mut reqs = Vec::with_capacity(cfg.requests as usize);
    for i in 0..cfg.requests {
        let shard = zipf.sample(&mut rng);
        let keys = &shard_keys[shard];
        let pick = |rng: &mut XorShift64Star| keys[(rng.next() % keys.len() as u64) as usize];
        let op = if rng.next_ppm() < cfg.write_ppm {
            PlannedOp::Write(pick(&mut rng), (i % 1_000) + 1)
        } else if rng.next_ppm() < cfg.multiget_ppm {
            let n = cfg.multiget_fanout.max(2) as usize;
            PlannedOp::Read((0..n).map(|_| pick(&mut rng)).collect())
        } else {
            PlannedOp::Read(vec![pick(&mut rng)])
        };
        reqs.push((shard as u32, op));
    }
    Plan { reqs }
}

/// A get over one or more keys. A single key is a leaf; several keys
/// split into per-key leaf gets (a small read task tree).
struct GetTask {
    map: DistMap<u64, u64>,
    buckets: u32,
    keys: Vec<u64>,
    flops: u64,
    depth: u32,
}

impl GetTask {
    fn region(&self) -> BucketRegion {
        let mut r = BucketRegion::new(self.buckets);
        for k in &self.keys {
            r.set(
                BucketRegion::bucket_of_bytes(self.buckets, &k.to_le_bytes()),
                true,
            );
        }
        r
    }
}

impl WorkItem for GetTask {
    fn name(&self) -> &'static str {
        "serve-get"
    }
    fn depth(&self) -> u32 {
        self.depth
    }
    fn can_split(&self) -> bool {
        self.keys.len() > 1
    }
    fn requirements(&self) -> Vec<Requirement> {
        vec![Requirement::read(self.map.id, self.region())]
    }
    fn cost(&self, cost: &CostModel, locality: usize) -> SimDuration {
        cost.flops(locality, self.flops * self.keys.len() as u64)
    }
    fn process(self: Box<Self>, ctx: &mut TaskCtx<'_>) -> Done {
        for k in &self.keys {
            // A read racing a replica invalidation may miss — the value
            // is not part of the correctness contract, writes are.
            let _ = self.map.get(ctx, k);
        }
        Done::Value(None)
    }
    fn split(self: Box<Self>) -> SplitOutcome {
        let children: Vec<Box<dyn WorkItem>> = self
            .keys
            .iter()
            .map(|&k| {
                Box::new(GetTask {
                    map: self.map,
                    buckets: self.buckets,
                    keys: vec![k],
                    flops: self.flops,
                    depth: self.depth + 1,
                }) as Box<dyn WorkItem>
            })
            .collect();
        SplitOutcome {
            children,
            combine: Box::new(|_| None),
        }
    }
}

/// A commutative increment of one key (leaf write).
struct PutTask {
    map: DistMap<u64, u64>,
    buckets: u32,
    key: u64,
    delta: u64,
    flops: u64,
}

impl WorkItem for PutTask {
    fn name(&self) -> &'static str {
        "serve-put"
    }
    fn depth(&self) -> u32 {
        0
    }
    fn can_split(&self) -> bool {
        false
    }
    fn requirements(&self) -> Vec<Requirement> {
        let b = BucketRegion::bucket_of_bytes(self.buckets, &self.key.to_le_bytes());
        vec![Requirement::write(
            self.map.id,
            BucketRegion::of_bucket(self.buckets, b),
        )]
    }
    fn cost(&self, cost: &CostModel, locality: usize) -> SimDuration {
        cost.flops(locality, self.flops)
    }
    fn process(self: Box<Self>, ctx: &mut TaskCtx<'_>) -> Done {
        let cur = self.map.get(ctx, &self.key).unwrap_or(0);
        self.map.insert(ctx, self.key, cur.wrapping_add(self.delta));
        Done::Value(None)
    }
    fn split(self: Box<Self>) -> SplitOutcome {
        unreachable!("puts never split")
    }
}

/// Outcome of a serving run: the report plus the verification verdict.
pub struct ServeOutcome {
    /// The runtime's run report (serving stats in `monitor.serve`).
    pub report: RunReport,
    /// Keys whose final value was checked against the write oracle.
    pub keys_checked: u64,
}

/// Run the serving benchmark on `rt`: preload, serve the precomputed
/// stream, verify every key against the write oracle.
///
/// # Panics
/// Panics if any acknowledged write is missing from the surviving store
/// (the oracle check) — including across fail-stop recoveries.
pub fn run_with(cfg: &ServeAppConfig, rt: RtConfig) -> ServeOutcome {
    let cfg = cfg.clone();
    let buckets = cfg.buckets();
    let plan = Rc::new(build_plan(&cfg));
    let map_cell: Rc<RefCell<Option<DistMap<u64, u64>>>> = Rc::new(RefCell::new(None));
    let checked: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));

    let mc = map_cell.clone();
    let plan_d = plan.clone();
    let checked_d = checked.clone();
    let cfg_d = cfg.clone();
    let runtime = Runtime::new(rt);
    let report = runtime.run(
        move |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    let map = DistMap::<u64, u64>::create(ctx, "serve-kv", buckets);
                    *mc.borrow_mut() = Some(map);
                    let by_bucket = Rc::new(KeysByBucket::new(&cfg_d));
                    let per_shard = cfg_d.buckets_per_shard;
                    // One leaf tile per shard: first touch pins each
                    // shard's buckets to one locality, block-wise.
                    Some(pfor(
                        PforSpec {
                            name: "preload",
                            range: GridBox::<1>::from_shape([buckets as i64]).unwrap(),
                            grain: per_shard as u64,
                            ns_per_point: 800.0,
                            axis0_pieces: cfg_d.shards as u64,
                        },
                        move |tile| {
                            vec![Requirement::write(
                                map.id,
                                map.range_region(tile.lo()[0] as u32, tile.hi()[0] as u32),
                            )]
                        },
                        move |tctx, p| {
                            for &k in by_bucket.of(p[0] as u32) {
                                map.insert(tctx, k, initial_value(k));
                            }
                        },
                    ))
                }
                1 => {
                    let map = mc.borrow().expect("map created in phase 0");
                    let shard_regions: Vec<_> = (0..cfg_d.shards)
                        .map(|s| {
                            Box::new(map.range_region(
                                s * cfg_d.buckets_per_shard,
                                (s + 1) * cfg_d.buckets_per_shard,
                            )) as Box<dyn allscale_core::DynRegion>
                        })
                        .collect();
                    let plan_f = plan_d.clone();
                    let flops = cfg_d.service_flops;
                    let factory = move |req: u64| -> Request {
                        let (shard, op) = &plan_f.reqs[req as usize];
                        match op {
                            PlannedOp::Read(keys) => Request {
                                shard: *shard as usize,
                                write: false,
                                work: Box::new(GetTask {
                                    map,
                                    buckets,
                                    keys: keys.clone(),
                                    flops,
                                    depth: 0,
                                }),
                            },
                            PlannedOp::Write(key, delta) => Request {
                                shard: *shard as usize,
                                write: true,
                                work: Box::new(PutTask {
                                    map,
                                    buckets,
                                    key: *key,
                                    delta: *delta,
                                    flops,
                                }),
                            },
                        }
                    };
                    ctx.serve(ServeSpec {
                        item: map.id,
                        shard_regions,
                        arrivals: ArrivalProcess::Poisson {
                            rate_rps: cfg_d.rate_rps,
                            seed: cfg_d.seed,
                        },
                        max_requests: cfg_d.requests,
                        slo: cfg_d.slo.clone(),
                        factory: Box::new(factory),
                    });
                    None
                }
                2 => {
                    // Write oracle: increments commute, so the expected
                    // final value of each key is its initial value plus
                    // the sum of all planned deltas — regardless of the
                    // execution interleaving or mid-serving recoveries.
                    let map = mc.borrow().expect("map created in phase 0");
                    let mut expected: Vec<u64> =
                        (0..cfg_d.keys).map(initial_value).collect();
                    for (_, op) in &plan_d.reqs {
                        if let PlannedOp::Write(key, delta) = op {
                            expected[*key as usize] =
                                expected[*key as usize].wrapping_add(*delta);
                        }
                    }
                    let mut n = 0u64;
                    for loc in 0..ctx.nodes() {
                        // Only the owned region is authoritative — other
                        // localities may hold stale read replicas.
                        let owned = ctx.owned_region_at(loc, map.id);
                        let owned = owned
                            .as_any()
                            .downcast_ref::<BucketRegion>()
                            .expect("bucket region");
                        let frag =
                            ctx.fragment_at::<KeyedFragment<u64, u64>>(loc, map.id);
                        for (k, v) in frag.iter() {
                            let b =
                                BucketRegion::bucket_of_bytes(buckets, &k.to_le_bytes());
                            if owned.contains(b) {
                                assert_eq!(
                                    *v, expected[*k as usize],
                                    "key {k} lost acknowledged writes (locality {loc})"
                                );
                                n += 1;
                            }
                        }
                    }
                    assert_eq!(
                        n, cfg_d.keys,
                        "ownership must cover every preloaded key exactly once"
                    );
                    *checked_d.borrow_mut() = n;
                    None
                }
                _ => unreachable!("three phases"),
            }
        },
    );
    let keys_checked = *checked.borrow();
    ServeOutcome {
        report,
        keys_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_skewed() {
        let cfg = ServeAppConfig::small();
        let a = build_plan(&cfg);
        let b = build_plan(&cfg);
        assert_eq!(a.reqs.len(), b.reqs.len());
        for (x, y) in a.reqs.iter().zip(&b.reqs) {
            assert_eq!(x.0, y.0);
            assert_eq!(format!("{:?}", x.1), format!("{:?}", y.1));
        }
        // Shard 0 dominates under Zipf 1.2.
        let hot = a.reqs.iter().filter(|(s, _)| *s == 0).count();
        assert!(hot * 2 > a.reqs.len() / 2, "hot shard carries >25%: {hot}");
        // Writes are present but a small minority.
        let writes = a
            .reqs
            .iter()
            .filter(|(_, op)| matches!(op, PlannedOp::Write(..)))
            .count();
        assert!(writes > 0 && writes < a.reqs.len() / 5);
    }

    #[test]
    fn preload_groups_every_key_once_under_its_bucket() {
        for cfg in [ServeAppConfig::small(), ServeAppConfig::default()] {
            let by_bucket = KeysByBucket::new(&cfg);
            let mut seen = vec![0u32; cfg.keys as usize];
            for b in 0..cfg.buckets() {
                let keys = by_bucket.of(b);
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "bucket {b} ascending");
                for &k in keys {
                    assert_eq!(
                        BucketRegion::bucket_of_bytes(cfg.buckets(), &k.to_le_bytes()),
                        b
                    );
                    seen[k as usize] += 1;
                }
            }
            assert!(seen.iter().all(|&n| n == 1), "every key exactly once");
        }
    }

    #[test]
    fn small_run_serves_and_verifies() {
        let cfg = ServeAppConfig::small();
        let out = run_with(&cfg, RtConfig::test(4, 2));
        let v = &out.report.monitor.serve;
        assert_eq!(v.offered, cfg.requests);
        assert_eq!(v.completed + v.shed, v.offered);
        assert_eq!(out.keys_checked, cfg.keys);
        assert!(v.latency.tally().count() > 0);
        // Two work phases: the preload pfor and the serving phase (the
        // verify phase returns no work item).
        assert_eq!(out.report.phases, 2);
    }

    #[test]
    #[should_panic(expected = "an SLO control period of 0 stops time")]
    fn a_zero_control_period_is_refused() {
        let mut cfg = ServeAppConfig::small();
        cfg.slo.control_period = SimDuration::ZERO;
        run_with(&cfg, RtConfig::test(4, 2));
    }
}
