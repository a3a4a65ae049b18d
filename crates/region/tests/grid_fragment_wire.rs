//! The lookup finger of a `GridFragment` is host-side state only: it is not
//! part of the wire form (whose bytes are billed on the virtual clock), a
//! decoded fragment starts with a fresh one, and a copied one is only ever
//! a hint.

use allscale_net::wire;
use allscale_region::{BoxRegion, Fragment, GridFragment, Point, Region};

/// Three chunks, `[(0,1)..(1,2))`, `[(5,5)..(7,6))` and `[(-3,0)..(-2,3))`:
/// two allocated, one inserted, the first then split by a `remove`.
fn three_chunks() -> GridFragment<u8, 2> {
    let region = BoxRegion::cuboid([0, 0], [1, 2]).union(&BoxRegion::cuboid([5, 5], [7, 6]));
    let mut f = GridFragment::<u8, 2>::new(&region);
    f.for_each_mut(|p, v| *v = (p[0] * 10 + p[1]) as u8);
    f.insert(&GridFragment::new(&BoxRegion::cuboid([-3, 0], [-2, 3])));
    f.remove(&BoxRegion::cuboid([0, 0], [1, 1]));
    f
}

fn cells(f: &GridFragment<u8, 2>) -> Vec<(Point<2>, u8)> {
    let mut out = Vec::new();
    f.for_each(|p, v| out.push((p, *v)));
    out
}

/// `wire::encode(&three_chunks())` as produced before the finger existed
/// (commit 25cb64d): chunk count, then per chunk `lo`, `hi`, element count,
/// elements.
const PRE_CHANGE_HEX: &str = "\
0300000000000000\
0000000000000000010000000000000001000000000000000200000000000000\
010000000000000001\
0500000000000000050000000000000007000000000000000600000000000000\
02000000000000003741\
fdffffffffffffff0000000000000000feffffffffffffff0300000000000000\
0300000000000000000000";

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn wire_form_is_unchanged_and_ignores_the_finger() {
    let f = three_chunks();
    assert_eq!(hex(&wire::encode(&f)), PRE_CHANGE_HEX);
    // Warm the finger on every chunk in turn: same bytes.
    for (p, v) in cells(&f) {
        assert_eq!(f.get(&p), Some(&v));
        assert_eq!(hex(&wire::encode(&f)), PRE_CHANGE_HEX);
    }
}

#[test]
fn decoded_fragment_looks_up_with_a_fresh_finger() {
    let f = three_chunks();
    assert_eq!(f.get(&Point([-3, 2])), Some(&0)); // finger on the last chunk
    let g: GridFragment<u8, 2> = wire::decode(&wire::encode(&f)).unwrap();
    assert_eq!(format!("{g:?}"), format!("{f:?}"));
    assert_eq!(cells(&g), cells(&f));
    for (p, v) in cells(&f) {
        assert_eq!(g.get(&p), Some(&v));
    }
    assert_eq!(g.get(&Point([0, 0])), None);
}

#[test]
fn clone_with_a_warm_finger_stays_correct_as_the_copies_diverge() {
    let f = three_chunks();
    assert_eq!(f.get(&Point([-3, 1])), Some(&0)); // finger on chunk 2
    assert_eq!(f.get(&Point([6, 5])), Some(&65)); // … then on chunk 1
    let mut g = f.clone();
    // The copy loses its first two chunks: both copied hints now point at
    // or past the end of a one-chunk list.
    g.remove(&BoxRegion::cuboid([0, 0], [7, 6]));
    assert_eq!(g.get(&Point([6, 5])), None);
    assert_eq!(g.get(&Point([-3, 1])), Some(&0));
    assert!(g.set(&Point([-3, 1]), 9));
    assert_eq!(g.get(&Point([-3, 1])), Some(&9));
    // The original is untouched, finger and all.
    assert_eq!(f.get(&Point([6, 5])), Some(&65));
    assert_eq!(f.get(&Point([-3, 1])), Some(&0));
}
