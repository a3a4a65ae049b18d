//! FNV-1a 64-bit: the one stable, dependency-free hash of the workspace.
//!
//! Region fingerprints in the location cache, checkpoint-shard and frame
//! checksums, the scrubber's replica digests and report digests all use
//! it. The hash has to be *stable* (the same bytes always hash the same
//! way, across runs and processes — fingerprints and digests travel
//! through reports and tests) and *cheap* (it sits on the hot path in
//! front of the index and under every sealed transfer), so it is the
//! classic FNV-1a function rather than `std`'s randomly-keyed `SipHash`.
//! It is **not** cryptographic: the threat model of the checksums is
//! silent corruption, not an adversary.
//!
//! Hash equality does NOT imply equality of what was hashed: callers that
//! need exactness (the location cache does) must confirm candidate hits
//! with a real equality check. Collisions there cost a cache miss, never
//! a wrong answer.
//!
//! ## Many buffers at once: [`fnv1a_64_batch`]
//!
//! FNV-1a is serial *within* a buffer: every byte's multiply waits for the
//! previous byte's, so one stream runs at one multiply latency per byte
//! and leaves the multiplier idle most of the time. Independent buffers
//! have independent chains, and the runtime often holds many at once — the
//! shards of a checkpoint, the links of a delta chain, the payloads of one
//! staging plan. [`fnv1a_64_batch`] walks up to four of them abreast, so
//! four chains share the multiplier. It computes the **same function**:
//! `fnv1a_64_batch(bufs)[i] == fnv1a_64(bufs[i])` for every `i`, every
//! stored checksum and fingerprint keeps its value, and a buffer left
//! without a neighbour — the only one, or the tail of the longest — is
//! finished by [`fnv1a_64_extend`]. It is a loop schedule, not a second
//! checksum. Reach for it when the buffers already
//! exist side by side; one buffer (opening a frame, fingerprinting one
//! region) stays a [`fnv1a_64`] call, and nothing should gather buffers
//! it would not otherwise hold just to batch them.

/// The FNV-1a 64-bit offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash a byte slice with FNV-1a 64-bit.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_64_extend(FNV64_OFFSET, bytes)
}

/// Continue an FNV-1a 64-bit hash: the hash of the bytes hashed into
/// `state` so far (starting from [`FNV64_OFFSET`]) followed by `bytes`.
#[inline]
pub fn fnv1a_64_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// Streams [`fnv1a_64_batch`] keeps in flight.
const LANES: usize = 4;

/// One stream of [`fnv1a_64_batch`]: which buffer, its state so far and
/// the bytes still to hash.
struct Lane<'a> {
    buf: usize,
    state: u64,
    rest: &'a [u8],
}

/// Advance `K` lanes abreast to the end of the shortest one.
fn abreast<const K: usize>(lanes: &mut [Lane<'_>]) {
    let lanes: &mut [Lane<'_>; K] = lanes.try_into().expect("one lane per stream");
    let n = lanes.iter().map(|l| l.rest.len()).min().unwrap_or(0);
    let mut state: [u64; K] = std::array::from_fn(|l| lanes[l].state);
    let heads: [&[u8]; K] = std::array::from_fn(|l| &lanes[l].rest[..n]);
    for i in 0..n {
        for (state, head) in state.iter_mut().zip(&heads) {
            *state = (*state ^ head[i] as u64).wrapping_mul(FNV64_PRIME);
        }
    }
    for (lane, state) in lanes.iter_mut().zip(state) {
        lane.state = state;
        lane.rest = &lane.rest[n..];
    }
}

/// [`fnv1a_64`] of every buffer of `bufs`, in order (see the module docs):
/// up to [`LANES`] buffers are hashed abreast, a lane that reaches the end
/// of its buffer takes the next one, and the last buffer left alone is
/// finished by [`fnv1a_64_extend`].
pub fn fnv1a_64_batch(bufs: &[&[u8]]) -> Vec<u64> {
    let mut out = vec![FNV64_OFFSET; bufs.len()];
    let mut queue = bufs.iter().enumerate().map(|(buf, &rest)| Lane {
        buf,
        state: FNV64_OFFSET,
        rest,
    });
    let mut lanes: Vec<Lane> = queue.by_ref().take(LANES).collect();
    while lanes.len() > 1 {
        match lanes.len() {
            2 => abreast::<2>(&mut lanes),
            3 => abreast::<3>(&mut lanes),
            _ => abreast::<LANES>(&mut lanes),
        }
        let mut at = 0;
        while at < lanes.len() {
            if !lanes[at].rest.is_empty() {
                at += 1;
                continue;
            }
            out[lanes[at].buf] = lanes[at].state;
            match queue.next() {
                Some(next) => lanes[at] = next,
                None => drop(lanes.swap_remove(at)),
            }
        }
    }
    for lane in lanes {
        out[lane.buf] = fnv1a_64_extend(lane.state, lane.rest);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference values of the canonical FNV-1a 64-bit function.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn extending_equals_hashing_the_concatenation() {
        let whole = fnv1a_64(b"foobar");
        assert_eq!(fnv1a_64_extend(fnv1a_64(b"foo"), b"bar"), whole);
        assert_eq!(fnv1a_64_extend(whole, b""), whole);
    }

    #[test]
    fn batch_equals_hashing_each_buffer() {
        // 0–9 buffers of 0–300 bytes: empties, equal and unequal lengths,
        // fewer buffers than lanes, refills while other lanes are mid-way.
        let mut rng = crate::rng::XorShift64::new(22);
        for round in 0..400 {
            let count = (rng.next() % 10) as usize;
            let equal = round % 4 == 0;
            let len = (rng.next() % 301) as usize;
            let bufs: Vec<Vec<u8>> = (0..count)
                .map(|_| {
                    let own = (rng.next() % 301) as usize;
                    (0..if equal { len } else { own }).map(|_| rng.next() as u8).collect()
                })
                .collect();
            let refs: Vec<&[u8]> = bufs.iter().map(Vec::as_slice).collect();
            let each: Vec<u64> = refs.iter().map(|b| fnv1a_64(b)).collect();
            let lengths: Vec<usize> = refs.iter().map(|b| b.len()).collect();
            assert_eq!(fnv1a_64_batch(&refs), each, "round {round}: {lengths:?}");
        }
        assert_eq!(fnv1a_64_batch(&[]), Vec::<u64>::new());
        let sparse: [&[u8]; 5] = [b"", b"a", b"", b"foobar", b""];
        assert_eq!(fnv1a_64_batch(&sparse)[3], fnv1a_64(b"foobar"));
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        assert_ne!(fnv1a_64(b"0 10"), fnv1a_64(b"0 11"));
        assert_ne!(fnv1a_64(&[0, 1]), fnv1a_64(&[1, 0]));
    }
}
