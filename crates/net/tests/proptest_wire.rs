//! Property-based tests of the wire codec: arbitrary nested values must
//! round-trip exactly, the encoding must be a prefix-free function of the
//! value (deterministic, no trailing garbage accepted), and decoding is a
//! boundary: whatever bytes arrive, `decode` answers with a value or a
//! `WireError`, never a panic and never an allocation sized by the input.

use proptest::prelude::*;
use std::collections::BTreeMap;

use allscale_des::fnv::fnv1a_64;
use allscale_net::wire::{decode, encode, fingerprint, wire_struct, Reader, Sink, Wire, WireError};

#[derive(Debug, Clone, PartialEq)]
struct Inner {
    id: u64,
    weight: f64,
    tag: Option<String>,
}
wire_struct!(Inner { id, weight, tag });

/// One variant of each shape: newtype, tuple, struct and unit.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf(i32),
    Pair(Box<Node>, Box<Node>),
    Tagged { name: String, value: u16 },
    Nothing,
}

impl Wire for Node {
    fn put(&self, out: &mut impl Sink) {
        match self {
            Node::Leaf(v) => {
                0u32.put(out);
                v.put(out);
            }
            Node::Pair(a, b) => {
                1u32.put(out);
                a.put(out);
                b.put(out);
            }
            Node::Tagged { name, value } => {
                2u32.put(out);
                name.put(out);
                value.put(out);
            }
            Node::Nothing => 3u32.put(out),
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match u32::get(r)? {
            0 => Node::Leaf(Wire::get(r)?),
            1 => Node::Pair(Wire::get(r)?, Wire::get(r)?),
            2 => Node::Tagged {
                name: Wire::get(r)?,
                value: Wire::get(r)?,
            },
            3 => Node::Nothing,
            n => return Err(WireError::InvalidData(format!("invalid Node variant {n}"))),
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Outer {
    items: Vec<Inner>,
    lookup: BTreeMap<u32, Vec<u8>>,
    tree: Node,
    flags: (bool, bool, char),
}
wire_struct!(Outer {
    items,
    lookup,
    tree,
    flags
});

fn arb_inner() -> impl Strategy<Value = Inner> {
    (any::<u64>(), any::<f64>(), proptest::option::of(".{0,12}")).prop_map(|(id, weight, tag)| {
        Inner {
            id,
            // NaN breaks PartialEq-based comparison, not the codec; keep
            // comparable values here (bit-exactness of NaN is covered by
            // the unit tests in the wire module).
            weight: if weight.is_nan() { 0.0 } else { weight },
            tag,
        }
    })
}

fn arb_node() -> impl Strategy<Value = Node> {
    let leaf = prop_oneof![
        any::<i32>().prop_map(Node::Leaf),
        Just(Node::Nothing),
        (".{0,8}", any::<u16>()).prop_map(|(name, value)| Node::Tagged { name, value }),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (inner.clone(), inner).prop_map(|(a, b)| Node::Pair(Box::new(a), Box::new(b)))
    })
}

fn arb_outer() -> impl Strategy<Value = Outer> {
    (
        prop::collection::vec(arb_inner(), 0..6),
        prop::collection::btree_map(
            any::<u32>(),
            prop::collection::vec(any::<u8>(), 0..16),
            0..4,
        ),
        arb_node(),
        (any::<bool>(), any::<bool>(), any::<char>()),
    )
        .prop_map(|(items, lookup, tree, flags)| Outer {
            items,
            lookup,
            tree,
            flags,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn round_trip(v in arb_outer()) {
        let bytes = encode(&v);
        let back: Outer = decode(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    /// The streamed fingerprint hashes the very bytes `encode` produces —
    /// through nested structs, sequences, maps, options and enums.
    #[test]
    fn fingerprint_is_the_hash_of_the_encoding(
        v in arb_outer(),
        words in prop::collection::vec(prop_oneof![Just(0u64), any::<u64>()], 0..24)
    ) {
        prop_assert_eq!(fingerprint(&v), fnv1a_64(&encode(&v)));
        // Zero words take the sink's one-multiplication path.
        prop_assert_eq!(fingerprint(&words), fnv1a_64(&encode(&words)));
    }

    #[test]
    fn encoding_is_deterministic(v in arb_outer()) {
        prop_assert_eq!(encode(&v), encode(&v));
    }

    #[test]
    fn trailing_bytes_always_rejected(v in arb_outer(), junk in 1u8..=255) {
        let mut bytes = encode(&v);
        bytes.push(junk);
        let r: Result<Outer, _> = decode(&bytes);
        prop_assert!(matches!(r, Err(WireError::TrailingBytes(1))));
    }

    /// Every strict prefix of an encoding ends inside some field: `Eof`,
    /// whatever the cut, and never a panic.
    #[test]
    fn truncation_never_panics(v in arb_outer()) {
        let bytes = encode(&v);
        for cut in 0..bytes.len() {
            prop_assert_eq!(decode::<Outer>(&bytes[..cut]), Err(WireError::Eof), "cut at {}", cut);
        }
    }

    /// A tag byte other than 0 or 1 is no `bool` and no `Option`, and a
    /// variant index past the last variant is no `Node`.
    #[test]
    fn bad_tags_and_variant_indices_are_invalid_data(
        v in arb_outer(), tag in 2u8..=255, variant in 4u32..=u32::MAX
    ) {
        prop_assert!(matches!(decode::<bool>(&[tag]), Err(WireError::InvalidData(_))));
        prop_assert!(matches!(decode::<Option<u8>>(&[tag, 0]), Err(WireError::InvalidData(_))));
        // `flags` ends the encoding: bool, bool, char.
        let mut bytes = encode(&v);
        let at = bytes.len() - 6;
        bytes[at] = tag;
        prop_assert!(matches!(decode::<Outer>(&bytes), Err(WireError::InvalidData(_))));
        let mut bytes = encode(&Node::Nothing);
        bytes.copy_from_slice(&variant.to_le_bytes());
        prop_assert!(matches!(decode::<Node>(&bytes), Err(WireError::InvalidData(_))));
    }

    #[test]
    fn primitive_vectors_round_trip(v in prop::collection::vec(any::<f64>(), 0..64)) {
        let clean: Vec<f64> = v.into_iter().map(|x| if x.is_nan() { 0.0 } else { x }).collect();
        let bytes = encode(&clean);
        let back: Vec<f64> = decode(&bytes).unwrap();
        prop_assert_eq!(back, clean);
    }
}

/// A length prefix is the input's claim. Whatever it says, decoding ends
/// where the bytes do — `Vec::with_capacity` of any of these claims would
/// abort instead (what is reserved, at most 1 MiB, is pinned beside
/// `cautious` in the codec's unit tests). A sequence of fixed-width
/// primitives whose byte count does not even fit a `usize` is refused as
/// `InvalidData` before it is read.
#[test]
fn a_hostile_length_prefix_is_eof() {
    for claim in [u64::MAX, u64::MAX / 8, 1 << 48, 1 << 31] {
        let mut hostile = claim.to_le_bytes().to_vec();
        hostile.extend_from_slice(&[0; 40]);
        let f64s = decode::<Vec<f64>>(&hostile);
        match claim.checked_mul(8) {
            Some(_) => assert_eq!(f64s, Err(WireError::Eof)),
            None => assert!(matches!(f64s, Err(WireError::InvalidData(_))), "{f64s:?}"),
        }
        assert_eq!(decode::<Vec<u8>>(&hostile), Err(WireError::Eof));
        assert_eq!(decode::<Vec<Vec<String>>>(&hostile), Err(WireError::Eof));
        assert_eq!(decode::<String>(&hostile), Err(WireError::Eof));
        assert_eq!(decode::<BTreeMap<u64, u32>>(&hostile), Err(WireError::Eof));
    }
}
