//! The bytes of one non-trivial value of every type that has a wire form,
//! as literals. Serialized bytes are the virtual clock (DESIGN.md §5.3):
//! a region's encoding sizes its control messages and its fingerprint keys
//! the location cache, a fragment's is what a transfer and a checkpoint are
//! billed for, and the MPI baselines bill what `mpi::ctx::send` encodes.
//!
//! Every row was captured at commit fee3a17, on the codec that went through
//! the vendored `serde` data model, and no row has been edited since; a row
//! leaves only with its type. A codec that replaces that one has to
//! reproduce each row. A row that has to move on purpose is re-captured by
//! running the suite — the failing test prints it in source form.

use allscale_apps::ipic3d::{Cell, Particle};
use allscale_apps::tpc::KdNode;
use allscale_des::fnv::fnv1a_64;
use allscale_net::wire;
use allscale_region::{
    BitmaskTreeRegion, BoxRegion, BucketRegion, Fragment, GridFragment, KeyedFragment, Point,
    Region, TreeFragment, TreePath, TreeRegion,
};

/// What `wire::encode` and `wire::fingerprint` hand back, whether or not
/// the codec under test wraps it in a `Result` (the one these rows were
/// captured on did), so that the rows outlive that signature.
trait Plain<T> {
    fn plain(self) -> T;
}

impl<T> Plain<T> for T {
    fn plain(self) -> T {
        self
    }
}

impl<T, E: std::fmt::Debug> Plain<T> for Result<T, E> {
    fn plain(self) -> T {
        self.expect("encoding cannot fail")
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Compare an encoding and its streamed fingerprint against their row.
fn check_row(what: &str, bytes: &[u8], fingerprint: u64, want_fp: u64, want_hex: &str) {
    let got = hex(bytes);
    if got != want_hex || fingerprint != want_fp {
        let lines: Vec<String> = got
            .as_bytes()
            .chunks(64)
            .map(|l| format!("        {}\\", String::from_utf8_lossy(l)))
            .collect();
        panic!(
            "{what} moved; its row is now\n        {fingerprint:#018x},\n        \"\\\n{}\n        \"",
            lines.join("\n")
        );
    }
    assert_eq!(fnv1a_64(bytes), want_fp, "{what}: fingerprint ≠ hash of the bytes");
}

/// `pin!(Type, value, fingerprint, hex)`: the value encodes to `hex`,
/// fingerprints to `fingerprint` (which is the FNV-1a 64 of those bytes),
/// and what decodes from the bytes encodes to them again.
macro_rules! pin {
    ($ty:ty, $value:expr, $fp:literal, $hex:literal $(,)?) => {{
        let value: $ty = $value;
        let bytes: Vec<u8> = wire::encode(&value).plain();
        let fingerprint: u64 = wire::fingerprint(&value).plain();
        check_row(stringify!($ty), &bytes, fingerprint, $fp, $hex);
        let back: $ty = wire::decode(&bytes).expect("its own encoding decodes");
        let again: Vec<u8> = wire::encode(&back).plain();
        assert_eq!(again, bytes, "{}: decode then encode", stringify!($ty));
        value
    }};
}

fn path(steps: &[u8]) -> TreePath {
    TreePath::from_steps(&steps.iter().map(|&s| s == 1).collect::<Vec<_>>())
}

fn particle(id: u64) -> Particle {
    let x = id as f64;
    Particle {
        id,
        pos: [x + 0.5, -x, 1.0 / (x + 3.0)],
        vel: [0.0, -0.0, x * 1e-3],
    }
}

#[test]
fn box_region() {
    // A square with a hole, plus a box apart from it: five boxes.
    pin!(
        BoxRegion<2>,
        BoxRegion::cuboid([0, 0], [4, 4])
            .difference(&BoxRegion::cuboid([1, 1], [2, 3]))
            .union(&BoxRegion::cuboid([-7, 9], [-5, 12])),
        0x51eec5bcff366326,
        "\
        0500000000000000000000000000000000000000000000000100000000000000\
        0400000000000000020000000000000000000000000000000400000000000000\
        0400000000000000010000000000000000000000000000000200000000000000\
        0100000000000000010000000000000003000000000000000200000000000000\
        0400000000000000f9ffffffffffffff0900000000000000fbffffffffffffff\
        0c00000000000000",
    );
    pin!(BoxRegion<3>, BoxRegion::empty(), 0xa8c7f832281a39c5, "0000000000000000");
}

#[test]
fn bitmask_tree_region() {
    // h = 7: 129 bits, three words, one of them zero.
    let mut r = BitmaskTreeRegion::new(7);
    r.set_root_block(true);
    r.set_subtree(3, true);
    r.set_subtree(127, true);
    pin!(
        BitmaskTreeRegion, r,
        0x058323598afe5b15,
        "\
        0703000000000000001100000000000000000000000000000001000000000000\
        00",
    );
}

#[test]
fn tree_region() {
    // Mixed: `Full`, `Empty` and `Node` (with `self_in` both ways) all occur.
    pin!(
        TreeRegion,
        TreeRegion::from_include_exclude(&[path(&[0])], &[path(&[0, 1, 0])])
            .union(&TreeRegion::single(path(&[1, 1]))),
        0x67b4ee269b7d6256,
        "\
        0200000000020000000100000000020000000101000000000000000200000000\
        0100000002000000010100000001000000",
    );
    pin!(TreeRegion, TreeRegion::subtree(TreePath::ROOT), 0x4d25767f9dce13f5, "00000000");
}

#[test]
fn bucket_region() {
    pin!(
        BucketRegion,
        BucketRegion::of_range(130, 60, 70).union(&BucketRegion::of_bucket(130, 129)),
        0x8be8687d3df57eb9,
        "\
        82000000030000000000000000000000000000f03f0000000000000002000000\
        00000000",
    );
}

#[test]
fn tree_path() {
    pin!(TreePath, path(&[1, 0, 1, 1]), 0xa0438652e26112c4, "0d0000000000000004");
    pin!(TreePath, TreePath::ROOT, 0xe604823a249029bf, "000000000000000000");
}

/// Three chunks: two allocated, one inserted, the first then split by a
/// `remove` — the chunk list depends on that history, and so do the bytes.
fn grid_f64() -> GridFragment<f64, 2> {
    let region = BoxRegion::cuboid([0, 0], [2, 3]).union(&BoxRegion::cuboid([5, 5], [7, 6]));
    let mut f = GridFragment::<f64, 2>::new(&region);
    f.for_each_mut(|p, v| *v = p[0] as f64 * 10.0 + p[1] as f64 + 0.25);
    let mut halo = GridFragment::<f64, 2>::new(&BoxRegion::cuboid([-3, 0], [-2, 2]));
    halo.for_each_mut(|p, v| *v = -(p[1] as f64) - 0.5);
    f.insert(&halo);
    f.remove(&BoxRegion::cuboid([0, 0], [1, 2]));
    f
}

#[test]
fn grid_fragment_f64() {
    let f = pin!(
        GridFragment<f64, 2>, grid_f64(),
        0x78421c36e5120d60,
        "\
        0400000000000000010000000000000000000000000000000200000000000000\
        0300000000000000030000000000000000000000008024400000000000802640\
        0000000000802840000000000000000002000000000000000100000000000000\
        0300000000000000010000000000000000000000000002400500000000000000\
        0500000000000000070000000000000006000000000000000200000000000000\
        0000000000a04b400000000000505040fdffffffffffffff0000000000000000\
        feffffffffffffff02000000000000000200000000000000000000000000e0bf\
        000000000000f8bf",
    );
    // An export: the sub-fragment over a region, written from `f`'s chunks.
    let part = BoxRegion::cuboid([-3, 1], [2, 3]);
    let bytes: Vec<u8> = wire::encode(&f.extract_view(&part)).plain();
    let fingerprint: u64 = wire::fingerprint(&f.extract_view(&part)).plain();
    check_row(
        "extract_view", &bytes, fingerprint,
        0x988b3bb9f094e10c,
        "\
        0300000000000000010000000000000001000000000000000200000000000000\
        0300000000000000020000000000000000000000008026400000000000802840\
        0000000000000000020000000000000001000000000000000300000000000000\
        01000000000000000000000000000240fdffffffffffffff0100000000000000\
        feffffffffffffff02000000000000000100000000000000000000000000f8bf",
    );
    let copied: Vec<u8> = wire::encode(&f.extract(&part)).plain();
    assert_eq!(bytes, copied, "the view writes what the copy would");
    pin!(GridFragment<f64, 2>, GridFragment::empty(), 0xa8c7f832281a39c5, "0000000000000000");
}

#[test]
fn grid_fragment_of_particle_cells() {
    let mut f = GridFragment::<Cell, 3>::new(&BoxRegion::cuboid([0, 0, 0], [1, 2, 2]));
    f.set(&Point([0, 0, 1]), vec![particle(7)]);
    f.set(&Point([0, 1, 1]), vec![particle(1), particle(2)]);
    pin!(
        GridFragment<Cell, 3>, f,
        0x54fcb730cb409b1f,
        "\
        0100000000000000000000000000000000000000000000000000000000000000\
        0100000000000000020000000000000002000000000000000400000000000000\
        0000000000000000010000000000000007000000000000000000000000001e40\
        0000000000001cc09a9999999999b93f00000000000000000000000000000080\
        79e9263108ac7c3f000000000000000002000000000000000100000000000000\
        000000000000f83f000000000000f0bf000000000000d03f0000000000000000\
        0000000000000080fca9f1d24d62503f02000000000000000000000000000440\
        00000000000000c09a9999999999c93f00000000000000000000000000000080\
        fca9f1d24d62603f",
    );
}

#[test]
fn tree_fragment() {
    let mut region = BitmaskTreeRegion::of_root_block(2);
    region.set_subtree(1, true);
    let mut f = TreeFragment::<[f64; 8], BitmaskTreeRegion>::new(region);
    // Stored out of path order; the wire form is path-ordered.
    for steps in [&[0u8, 1, 1][..], &[1], &[], &[0, 1], &[0]] {
        let p = path(steps);
        let x = p.bfs_index() as f64;
        assert!(f.set(p, [x, -x, 0.5, 0.0, x * x, 1e-9, -0.0, 8.0]));
    }
    assert!(!f.set(path(&[1, 1, 0]), [0.0; 8]), "outside the region");
    pin!(
        TreeFragment<[f64; 8], BitmaskTreeRegion>, f,
        0xb761651903c92cce,
        "\
        0201000000000000000500000000000000050000000000000000000000000000\
        000000000000000000000000000000000080000000000000e03f000000000000\
        0000000000000000000095d626e80b2e113e0000000000000080000000000000\
        2040000000000000000001000000000000f03f000000000000f0bf0000000000\
        00e03f0000000000000000000000000000f03f95d626e80b2e113e0000000000\
        0000800000000000002040010000000000000001000000000000004000000000\
        000000c0000000000000e03f0000000000000000000000000000104095d626e8\
        0b2e113e00000000000000800000000000002040020000000000000002000000\
        000000104000000000000010c0000000000000e03f0000000000000000000000\
        000000304095d626e80b2e113e00000000000000800000000000002040060000\
        000000000003000000000000244000000000000024c0000000000000e03f0000\
        000000000000000000000000594095d626e80b2e113e00000000000000800000\
        000000002040",
    );
}

#[test]
fn tree_fragment_of_kd_nodes_over_a_tree_region() {
    let mut f = TreeFragment::<KdNode, TreeRegion>::new(TreeRegion::subtree(path(&[1])));
    for (i, steps) in [&[1u8, 0][..], &[1]].into_iter().enumerate() {
        let node = KdNode {
            point: [i as f64 + 0.5; 7],
            dim: i as u8 + 3,
        };
        assert!(f.set(path(steps), node));
    }
    pin!(
        TreeFragment<KdNode, TreeRegion>, f,
        0xca508db2ad4b8ae8,
        "\
        0200000000010000000000000002000000000000000100000000000000010000\
        00000000f83f000000000000f83f000000000000f83f000000000000f83f0000\
        00000000f83f000000000000f83f000000000000f83f04010000000000000002\
        000000000000e03f000000000000e03f000000000000e03f000000000000e03f\
        000000000000e03f000000000000e03f000000000000e03f03",
    );
}

#[test]
fn keyed_fragment() {
    // Each entry carries the bucket its key hashes into.
    let mut f = KeyedFragment::<String, u64>::new(BucketRegion::full(8));
    for (k, v) in [("beta", 2), ("alpha", 1), ("", u64::MAX), ("λ-calculus", 3)] {
        assert!(f.insert(k.to_string(), v));
    }
    pin!(
        KeyedFragment<String, u64>, f,
        0x7dd95b73270636ad,
        "\
        080000000100000000000000ff00000000000000040000000000000000000000\
        0000000005000000ffffffffffffffff0500000000000000616c706861030000\
        0001000000000000000400000000000000626574610700000002000000000000\
        000b00000000000000cebb2d63616c63756c7573050000000300000000000000",
    );
    let mut g = KeyedFragment::<u64, u64>::new(BucketRegion::of_range(64, 0, 64));
    for k in [0u64, 41, 1 << 40] {
        assert!(g.insert(k, !k));
    }
    pin!(
        KeyedFragment<u64, u64>, g,
        0xf58172b2c477bc38,
        "\
        400000000100000000000000ffffffffffffffff030000000000000000000000\
        0000000005000000ffffffffffffffff29000000000000000c000000d6ffffff\
        ffffffff00000000000100001a000000fffffffffffeffff",
    );
}

#[test]
fn particle_and_kd_node() {
    pin!(
        Particle, particle(99),
        0xcb89bec82906bf44,
        "\
        63000000000000000000000000e058400000000000c058c0141414141414843f\
        00000000000000000000000000000080f2d24d621058b93f",
    );
    pin!(
        KdNode,
        KdNode {
            point: [1.0, -2.0, 3.5, 0.0, 99.999, 1e-300, f64::MAX],
            dim: 6,
        },
        0xee929cdbed50fa0b,
        "\
        000000000000f03f00000000000000c00000000000000c400000000000000000\
        0e2db29defff584059f3f8c21f6ea501ffffffffffffef7f06",
    );
}

#[test]
fn mpi_messages() {
    // The stencil's and iPiC3D's halo row.
    pin!(
        Vec<f64>, vec![0.0, 1.5, -2.25, f64::MIN_POSITIVE, 1e9],
        0xce299aa6e44a888f,
        "\
        05000000000000000000000000000000000000000000f83f00000000000002c0\
        00000000000010000000000065cdcd41",
    );
    // iPiC3D's migrating particles.
    pin!(
        Vec<Particle>, vec![particle(0), particle(12)],
        0xd6db5fca2695bde9,
        "\
        02000000000000000000000000000000000000000000e03f0000000000000080\
        555555555555d53f000000000000000000000000000000800000000000000000\
        0c00000000000000000000000000294000000000000028c0111111111111b13f\
        00000000000000000000000000000080fa7e6abc7493883f",
    );
    // TPC's `alltoall` outbox: per destination rank, (query id, block).
    pin!(
        Vec<Vec<(u64, u32)>>,
        vec![vec![(17, 3), (1 << 33, 0)], vec![], vec![(0, u32::MAX)]],
        0x55d0e3d9e8ee7f41,
        "\
        0300000000000000020000000000000011000000000000000300000000000000\
        0200000000000000000000000000000001000000000000000000000000000000\
        ffffffff",
    );
}
