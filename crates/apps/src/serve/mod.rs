//! A sharded key-value store served under open-loop load — the workload
//! behind the serving subsystem's saturation sweeps.
//!
//! The store is a [`DistMap<u64, u64>`] whose hash buckets are grouped
//! into contiguous *shards*; a setup phase preloads every key and pins
//! each shard to one locality via first touch. The request stream is
//! drawn in order from a seed as requests arrive: shard popularity
//! follows a Zipf distribution (the classic hot-shard regime), keys
//! within a shard are uniform, and a configurable fraction of requests
//! are writes. Reads are point gets or splittable multi-gets (small task
//! trees whose leaves place data-aware); writes are commutative
//! increments, so the final value of every key is independent of the
//! interleaving — which is what lets the conformance suite check "no
//! acknowledged write is lost" across fail-stop recovery without assuming
//! an order.
//!
//! [`run_with`] drives the three phases (preload, serve, verify) on any
//! [`RtConfig`] and panics if the surviving store contents disagree with
//! the write oracle.

use std::rc::Rc;

use allscale_core::{
    pfor, CostModel, DistMap, Done, PforSpec, Request, Requirement, RtConfig, RtCtx, RunReport,
    Runtime, ServeSpec, SloConfig, TaskCtx, TaskValue, WorkItem,
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

/// One request of the stream.
#[derive(Debug)]
enum Op<K> {
    /// Read `keys` (one key = leaf get, several = splittable multi-get).
    Read(K),
    /// Increment `key` by `delta`.
    Write(u64, u64),
}

/// A read's keys drawn and dropped: what the write oracle collects them
/// into, so its draw allocates nothing.
struct Unread;

impl FromIterator<u64> for Unread {
    fn from_iter<I: IntoIterator<Item = u64>>(keys: I) -> Self {
        keys.into_iter().for_each(drop);
        Unread
    }
}

/// The request stream, drawn in order from the seed: the factory and the
/// write oracle each draw their own copy, and a post-recovery replay gets
/// a fresh one, so all of them see the same requests. It holds the keys
/// grouped by shard and the generator state, nothing per request.
struct Requests {
    shard_keys: Vec<Vec<u64>>,
    rng: XorShift64Star,
    zipf: ZipfSampler,
    write_ppm: u32,
    multiget_ppm: u32,
    fanout: usize,
    /// Requests drawn so far: the number of the next one.
    drawn: u64,
}

impl Requests {
    fn new(cfg: &ServeAppConfig) -> Self {
        let mut shard_keys: Vec<Vec<u64>> = vec![Vec::new(); cfg.shards as usize];
        for k in 0..cfg.keys {
            shard_keys[shard_of(cfg, k) as usize].push(k);
        }
        assert!(
            shard_keys.iter().all(|ks| !ks.is_empty()),
            "every shard needs at least one key; use more keys or fewer shards"
        );
        Requests {
            shard_keys,
            rng: XorShift64Star::with_mix(cfg.seed, MIX_GOLDEN),
            zipf: ZipfSampler::new(cfg.shards as usize, cfg.zipf_s),
            write_ppm: cfg.write_ppm,
            multiget_ppm: cfg.multiget_ppm,
            fanout: cfg.multiget_fanout.max(2) as usize,
            drawn: 0,
        }
    }

    /// Draw the next request: its shard and what it does, a read's keys
    /// collected into `K`.
    fn next<K: FromIterator<u64>>(&mut self) -> (u32, Op<K>) {
        let i = self.drawn;
        self.drawn += 1;
        let rng = &mut self.rng;
        let shard = self.zipf.sample(rng);
        let keys = &self.shard_keys[shard];
        let pick = |rng: &mut XorShift64Star| keys[(rng.next() % keys.len() as u64) as usize];
        let op = if rng.next_ppm() < self.write_ppm {
            Op::Write(pick(rng), (i % 1_000) + 1)
        } else {
            let n = if rng.next_ppm() < self.multiget_ppm {
                self.fanout
            } else {
                1
            };
            Op::Read((0..n).map(|_| pick(rng)).collect())
        };
        (shard as u32, op)
    }
}

/// A get over one or more keys. A single key is a leaf; several keys
/// split into per-key leaf gets (a small read task tree).
struct GetTask {
    map: DistMap<u64, u64>,
    buckets: u32,
    keys: Vec<u64>,
    flops: u64,
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
    fn split(self: Box<Self>) -> Vec<Box<dyn WorkItem>> {
        self.keys
            .iter()
            .map(|&k| {
                Box::new(GetTask {
                    map: self.map,
                    buckets: self.buckets,
                    keys: vec![k],
                    flops: self.flops,
                }) as Box<dyn WorkItem>
            })
            .collect()
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
    fn split(self: Box<Self>) -> Vec<Box<dyn WorkItem>> {
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

/// Run the serving benchmark on `rt`: preload, serve the stream drawn
/// from the seed, verify every key against the write oracle.
///
/// # Panics
/// Panics if any acknowledged write is missing from the surviving store
/// (the oracle check) — including across fail-stop recoveries.
pub fn run_with(cfg: &ServeAppConfig, rt: RtConfig) -> ServeOutcome {
    let buckets = cfg.buckets();
    let mut kv = None;
    let mut keys_checked = 0;
    let report = Runtime::new(rt).run(
        |phase: usize, ctx: &mut RtCtx<'_>, _prev: TaskValue| -> Option<Box<dyn WorkItem>> {
            match phase {
                0 => {
                    let map = DistMap::<u64, u64>::create(ctx, "serve-kv", buckets);
                    kv = Some(map);
                    let by_bucket = Rc::new(KeysByBucket::new(cfg));
                    let per_shard = cfg.buckets_per_shard;
                    // One leaf tile per shard: first touch pins each
                    // shard's buckets to one locality, block-wise.
                    Some(pfor(
                        PforSpec {
                            name: "preload",
                            range: GridBox::<1>::from_shape([buckets as i64]).unwrap(),
                            grain: per_shard as u64,
                            ns_per_point: 800.0,
                            axis0_pieces: cfg.shards as u64,
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
                    let map = kv.expect("map created in phase 0");
                    let shard_regions: Vec<_> = (0..cfg.shards)
                        .map(|s| {
                            Box::new(map.range_region(
                                s * cfg.buckets_per_shard,
                                (s + 1) * cfg.buckets_per_shard,
                            )) as Box<dyn allscale_core::DynRegion>
                        })
                        .collect();
                    // A replay of this phase asks for a new factory, so
                    // it draws a fresh stream from the seed.
                    let mut stream = Requests::new(cfg);
                    let flops = cfg.service_flops;
                    let factory = move |req: u64| -> Request {
                        assert_eq!(req, stream.drawn, "requests are asked for in order");
                        let (shard, op) = stream.next();
                        let shard = shard as usize;
                        match op {
                            Op::Read(keys) => Request {
                                shard,
                                write: false,
                                work: Box::new(GetTask {
                                    map,
                                    buckets,
                                    keys,
                                    flops,
                                }),
                            },
                            Op::Write(key, delta) => Request {
                                shard,
                                write: true,
                                work: Box::new(PutTask {
                                    map,
                                    buckets,
                                    key,
                                    delta,
                                    flops,
                                }),
                            },
                        }
                    };
                    ctx.serve(ServeSpec {
                        item: map.id,
                        shard_regions,
                        arrivals: ArrivalProcess::Poisson {
                            rate_rps: cfg.rate_rps,
                            seed: cfg.seed,
                        },
                        max_requests: cfg.requests,
                        slo: cfg.slo.clone(),
                        factory: Box::new(factory),
                    });
                    None
                }
                2 => {
                    // Write oracle: increments commute, so the expected
                    // final value of each key is its initial value plus
                    // the sum of all the stream's deltas — regardless of
                    // the execution interleaving or mid-serving recoveries.
                    let map = kv.expect("map created in phase 0");
                    let mut expected: Vec<u64> = (0..cfg.keys).map(initial_value).collect();
                    let mut stream = Requests::new(cfg);
                    for _ in 0..cfg.requests {
                        if let (_, Op::Write(key, delta)) = stream.next::<Unread>() {
                            expected[key as usize] = expected[key as usize].wrapping_add(delta);
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
                        let frag = ctx.fragment_at::<KeyedFragment<u64, u64>>(loc, map.id);
                        for (k, v) in frag.iter() {
                            let b = BucketRegion::bucket_of_bytes(buckets, &k.to_le_bytes());
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
                        n, cfg.keys,
                        "ownership must cover every preloaded key exactly once"
                    );
                    keys_checked = n;
                    None
                }
                _ => unreachable!("three phases"),
            }
        },
    );
    ServeOutcome {
        report,
        keys_checked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_skewed() {
        let cfg = ServeAppConfig::small();
        let (mut a, mut b) = (Requests::new(&cfg), Requests::new(&cfg));
        let (mut hot, mut writes) = (0, 0);
        for _ in 0..cfg.requests {
            let (x, y) = (a.next::<Vec<u64>>(), b.next::<Vec<u64>>());
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
            hot += u64::from(x.0 == 0);
            writes += u64::from(matches!(x.1, Op::Write(..)));
        }
        // Shard 0 dominates under Zipf 1.2.
        assert!(hot * 2 > cfg.requests / 2, "hot shard carries >25%: {hot}");
        // Writes are present but a small minority.
        assert!(writes > 0 && writes < cfg.requests / 5);
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
