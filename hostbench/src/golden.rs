//! `golden.json`: the answers and report digests of every workload at the
//! commit that last regenerated it (`hostbench --regen-golden`), produced
//! with the applications' own oracles on. Normal runs compare against it,
//! so the timed region never pays for an oracle.
//!
//! ```json
//! {"stencil_64": {"answer": "<hex>", "digests": {"any": "<hex>"}},
//!  "serve_steady": {"digests": {"1000": "<hex>", "1001": "<hex>"}}}
//! ```
//!
//! Digests are keyed by sub-seed (`any` for the workloads no seed
//! reaches). Seeded workloads are pinned for `--seed` 1 to
//! [`GOLDEN_SEEDS`]; on other seeds a digest is reported as unknown.

use crate::json::Value;
use crate::spec::Workload;

/// `--seed` values 1..=GOLDEN_SEEDS have their report digests pinned.
pub const GOLDEN_SEEDS: u64 = 4;

/// The file as compiled into this binary.
pub fn load() -> Value {
    Value::parse(include_str!("../golden.json")).expect("golden.json is valid JSON")
}

/// Where `--regen-golden` writes (the source tree this binary was built
/// from).
pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");

pub fn digest_key(w: &Workload, sub_seed: u64) -> String {
    if w.seeded {
        sub_seed.to_string()
    } else {
        "any".to_string()
    }
}

fn hex(v: Option<&Value>) -> Option<u64> {
    u64::from_str_radix(v?.as_str()?, 16).ok()
}

/// The pinned application-level answer (field checksum, total count).
pub fn answer(golden: &Value, workload: &str) -> Option<u64> {
    hex(golden.get(workload)?.get("answer"))
}

/// The pinned report digest for one sub-seed.
pub fn digest(golden: &Value, workload: &str, key: &str) -> Option<u64> {
    hex(golden.get(workload)?.get("digests")?.get(key))
}
