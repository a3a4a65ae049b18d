//! E6 (paper Fig. 4c): the blocked tree scheme is "much more efficient, yet
//! less flexible" than the include/exclude trie. Its wire form is the split
//! depth plus `2^h + 1` bits whatever the region holds, while the trie's
//! grows with the blocks selected; so the blocked form wins for regions of
//! many blocks and at TPC's split depth, and loses for one block of a deep
//! split. The bytes a region ships are what the virtual clock bills, so
//! they are pinned here as counts.

use allscale_net::wire;
use allscale_region::BitmaskTreeRegion;

/// Wire lengths of the blocked region of split depth `h` holding every
/// subtree `i` with `pick(i)`, and of the same region as a trie.
fn blocked_and_flexible(h: u8, pick: impl Fn(usize) -> bool) -> (usize, usize) {
    let mut blocked = BitmaskTreeRegion::new(h);
    for i in (0..blocked.subtree_count()).filter(|&i| pick(i)) {
        blocked.set_subtree(i, true);
    }
    let flexible = blocked.to_tree_region();
    (wire::encode(&blocked).len(), wire::encode(&flexible).len())
}

#[test]
fn blocked_regions_ship_fewer_bytes_at_tpc_depth_and_for_many_blocks() {
    // TPC splits its kd-tree at depth 7 (128 subtrees).
    assert_eq!(blocked_and_flexible(7, |i| i % 2 == 0), (33, 1147));
    assert_eq!(blocked_and_flexible(7, |i| i % 3 == 0), (33, 958));
    assert_eq!(blocked_and_flexible(7, |i| i == 0), (33, 67));
    // One block of a deep split: the trie names one path, the bitmask
    // still carries all 1 025 bits.
    assert_eq!(blocked_and_flexible(10, |i| i == 0), (145, 94));
}
