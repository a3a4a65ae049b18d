//! The type-erased predicates are the type-erased algebra's verdicts.
//!
//! The runtime asks `is_subset_dyn` / `is_disjoint_dyn` wherever it used to
//! build `difference_dyn(..)` / `intersect_dyn(..)` only to test the result
//! for emptiness; every virtual result stays what it was exactly if the
//! two agree for every scheme — including against the canonical empty
//! region, whose bucket count or split depth is not the operands'.

use proptest::prelude::*;

use allscale_core::DynRegion;
use allscale_region::{
    BitmaskTreeRegion, BoxRegion, BucketRegion, GridBox, Point, Region, TreePath, TreeRegion,
};

fn predicates_agree_with_algebra<R: Region>(a: &R, b: &R) {
    let empty = R::empty();
    let operands: [&dyn DynRegion; 3] = [a, b, &empty];
    for x in operands {
        for y in operands {
            assert_eq!(
                x.is_subset_dyn(y),
                x.difference_dyn(y).is_empty_dyn(),
                "{x:?} ⊆ {y:?}"
            );
            assert_eq!(
                x.is_disjoint_dyn(y),
                x.intersect_dyn(y).is_empty_dyn(),
                "{x:?} ∩ {y:?}"
            );
        }
    }
}

fn arb_boxes() -> impl Strategy<Value = BoxRegion<2>> {
    let one = (0i64..12, 0i64..12, 1i64..6, 1i64..6).prop_map(|(x, y, w, h)| {
        GridBox::new(Point([x, y]), Point([x + w, y + h])).expect("non-empty")
    });
    prop::collection::vec(one, 0..5).prop_map(BoxRegion::from_boxes)
}

fn arb_tree() -> impl Strategy<Value = TreeRegion> {
    let path = |depth: usize| {
        prop::collection::vec(any::<bool>(), 0..=depth).prop_map(|s| TreePath::from_steps(&s))
    };
    (
        prop::collection::vec(path(3), 0..3),
        prop::collection::vec(path(4), 0..3),
    )
        .prop_map(|(inc, exc)| TreeRegion::from_include_exclude(&inc, &exc))
}

/// Split depth 7 (TPC's): 129 bits, three words.
fn arb_bitmask() -> impl Strategy<Value = BitmaskTreeRegion> {
    (any::<bool>(), prop::collection::vec(0usize..128, 0..6)).prop_map(|(root, subtrees)| {
        let mut r = BitmaskTreeRegion::new(7);
        r.set_root_block(root);
        for i in subtrees {
            r.set_subtree(i, true);
        }
        r
    })
}

/// The serving store's 512 buckets, task-sized or shard-sized.
fn arb_buckets() -> impl Strategy<Value = BucketRegion> {
    prop_oneof![
        prop::collection::vec(0u32..512, 0..4).prop_map(|bs| {
            let mut r = BucketRegion::new(512);
            for b in bs {
                r.set(b, true);
            }
            r
        }),
        (0u32..8, 1u32..4).prop_map(|(s, n)| BucketRegion::of_range(512, s * 64, (s + n) * 64)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn box_predicates(a in arb_boxes(), b in arb_boxes()) {
        predicates_agree_with_algebra(&a, &b);
    }

    #[test]
    fn tree_predicates(a in arb_tree(), b in arb_tree()) {
        predicates_agree_with_algebra(&a, &b);
    }

    #[test]
    fn bitmask_predicates(a in arb_bitmask(), b in arb_bitmask()) {
        predicates_agree_with_algebra(&a, &b);
    }

    #[test]
    fn bucket_predicates(a in arb_buckets(), b in arb_buckets()) {
        predicates_agree_with_algebra(&a, &b);
    }
}
