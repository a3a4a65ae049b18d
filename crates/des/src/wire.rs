//! The wire format: how a value becomes the bytes that cross between
//! address spaces, and back.
//!
//! Inter-locality transfers in the simulated cluster move *bytes*, not Rust
//! objects — this is what enforces the address-space separation demanded by
//! the paper's data model (`D ⊆ M × D × E`, Def 2.9): a fragment present on
//! locality A is a distinct allocation from its replica on locality B, and
//! all movement is observable and billable by the network model. The bytes
//! are the virtual clock: a region's encoding sizes its control messages and
//! its [`fingerprint`] keys the location cache, a fragment's is what a
//! transfer and a checkpoint are billed for, and the MPI baseline bills what
//! its `send` encodes. There is one format, and [`Wire`] is the one trait
//! that reads and writes it.
//!
//! ## The format
//!
//! Little-endian and fixed-width for every primitive (`bool` is one byte, 0
//! or 1; `char` its `u32` scalar value); a `u64` length prefix before the
//! elements of a sequence or map and the bytes of a string; one tag byte, 0
//! or 1, before an `Option`'s value; a `u32` variant index before an enum's
//! fields; the fields of a struct, the elements of a tuple or `[T; N]` and
//! the target of a `Box` back to back with nothing around them. It is not
//! self-describing: the reader must know the type.
//!
//! ## Giving a type a wire form
//!
//! A struct whose wire form is its fields, in order, is one line:
//!
//! ```
//! use allscale_des::wire::{self, wire_struct};
//!
//! #[derive(Debug, PartialEq)]
//! struct Sample<T> {
//!     id: u64,
//!     values: Vec<T>,
//! }
//! wire_struct!(Sample<T> { id, values });
//!
//! let s = Sample { id: 7, values: vec![1.5f64] };
//! let bytes = wire::encode(&s);
//! assert_eq!(bytes.len(), 8 + 8 + 8);
//! assert_eq!(wire::decode::<Sample<f64>>(&bytes), Ok(s));
//! ```
//!
//! The fields are written in the order the macro lists them, which is
//! therefore part of the format. A type whose wire form is *not* its layout
//! — an enum, a const-generic array wrapper, storage that keeps caches or a
//! different order than the one on the wire — implements the `put`/`get`
//! pair by hand, and a borrowed view that only ever leaves (an export
//! written from the storage it borrows) fails its `get`.
//!
//! ## What `get` owes its caller
//!
//! `put` cannot fail. `get` reads bytes that arrived from a network or a
//! checkpoint, so every `get` must return an error — never panic, never
//! allocate on the input's word — for any input: [`WireError::Eof`] when the
//! bytes run out (what [`Reader::take`] reports), [`WireError::InvalidData`]
//! for a tag, variant index, scalar value or length no value encodes to.
//! [`Reader::get_len`] checks a length prefix against `usize`; the collections
//! here reserve at most 1 MiB ahead of the elements actually read. A `get`
//! built from other `get`s and `?` inherits all of that. [`decode`] adds
//! [`WireError::TrailingBytes`] for input left over after a whole value.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::fnv::{fnv1a_64_extend, FNV64_OFFSET, FNV64_PRIME};

pub use crate::wire_struct;

/// Why [`decode`] refused its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Eof,
    /// A tag, variant index, scalar or length that no value encodes to.
    InvalidData(String),
    /// Trailing bytes remained after a complete top-level value.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof => write!(f, "unexpected end of input"),
            WireError::InvalidData(m) => write!(f, "invalid data: {m}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A value with a wire form.
pub trait Wire {
    /// Append the value's encoding to `out`.
    fn put(&self, out: &mut impl Sink);

    /// Read one value off the front of `r` (see the module documentation
    /// for what an implementation owes its caller).
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>
    where
        Self: Sized;
}

/// Encode `value` into a byte vector.
pub fn encode<T: Wire + ?Sized>(value: &T) -> Vec<u8> {
    encode_behind(0, value)
}

/// Encode `value` behind `prefix` zero bytes the caller fills in later
/// (a frame header). The buffer is allocated once, at its final size: a
/// first pass over `value` adds up the sequence lengths and fixed widths
/// the second one writes, so no encoding grows by reallocation.
pub fn encode_behind<T: Wire + ?Sized>(prefix: usize, value: &T) -> Vec<u8> {
    let mut size = Count(prefix);
    value.put(&mut size);
    let mut out = Vec::with_capacity(size.0);
    out.resize(prefix, 0);
    value.put(&mut out);
    debug_assert_eq!(out.len(), size.0, "the two passes disagree");
    out
}

/// FNV-1a 64 of `value`'s encoding — `fnv1a_64(&encode(value))` without
/// the byte vector: `put` feeds the hash as it goes.
pub fn fingerprint<T: Wire + ?Sized>(value: &T) -> u64 {
    let mut hash = Fnv1a(FNV64_OFFSET);
    value.put(&mut hash);
    hash.0
}

/// Decode a value of type `T` from `bytes`, requiring full consumption.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader { input: bytes };
    let v = T::get(&mut r)?;
    if r.input.is_empty() {
        Ok(v)
    } else {
        Err(WireError::TrailingBytes(r.input.len()))
    }
}

// --------------------------------------------------------------------- sinks

/// Where encoded bytes go.
pub trait Sink {
    /// Take the next bytes of the encoding.
    fn put(&mut self, bytes: &[u8]);

    /// Take the length prefix of a sequence, map or string.
    #[inline]
    fn put_len(&mut self, len: usize) {
        self.put(&(len as u64).to_le_bytes());
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The length of the encoding, and nothing else.
struct Count(usize);

impl Sink for Count {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// A running FNV-1a 64 state.
struct Fnv1a(u64);

/// `FNV64_PRIME⁸`: hashing a zero byte multiplies the state by the prime
/// (`h ^ 0 = h`), so hashing eight of them multiplies it by this.
const FNV64_PRIME_POW8: u64 = {
    let mut power = 1u64;
    let mut i = 0;
    while i < 8 {
        power = power.wrapping_mul(FNV64_PRIME);
        i += 1;
    }
    power
};

impl Sink for Fnv1a {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        // The value hashed on every location-cache probe is a task-sized
        // bitmask region: all but one of its words are zero, and a zero
        // word is one multiplication instead of a chain of eight.
        self.0 = match bytes {
            [0, 0, 0, 0, 0, 0, 0, 0] => self.0.wrapping_mul(FNV64_PRIME_POW8),
            _ => fnv1a_64_extend(self.0, bytes),
        };
    }
}

// -------------------------------------------------------------------- reader

/// The bytes [`decode`] has not consumed yet.
pub struct Reader<'a> {
    input: &'a [u8],
}

impl<'a> Reader<'a> {
    /// The next `n` bytes, or [`WireError::Eof`] when fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.input.len() < n {
            return Err(WireError::Eof);
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    /// A length prefix. It is the input's claim and nothing more: bound
    /// what is allocated on its word ([`Vec`]'s `get` does).
    pub fn get_len(&mut self) -> Result<usize, WireError> {
        let raw = u64::get(self)?;
        usize::try_from(raw)
            .map_err(|_| WireError::InvalidData(format!("length {raw} exceeds usize")))
    }
}

// ------------------------------------------------------------ standard types

macro_rules! wire_prim {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            #[inline]
            fn put(&self, out: &mut impl Sink) {
                out.put(&self.to_le_bytes());
            }
            #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("took the width")))
            }
        }
    )*};
}

wire_prim!(i8, i16, i32, i64, u8, u16, u32, u64, f32, f64);

/// The one-byte tag of a `bool` or an `Option`.
fn get_tag(r: &mut Reader<'_>, of: &str) -> Result<bool, WireError> {
    match u8::get(r)? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(WireError::InvalidData(format!("invalid {of} byte {b}"))),
    }
}

impl Wire for bool {
    fn put(&self, out: &mut impl Sink) {
        out.put(&[*self as u8]);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        get_tag(r, "bool")
    }
}

impl Wire for char {
    fn put(&self, out: &mut impl Sink) {
        (*self as u32).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let raw = u32::get(r)?;
        char::from_u32(raw).ok_or_else(|| WireError::InvalidData(format!("invalid char {raw:#x}")))
    }
}

impl Wire for String {
    fn put(&self, out: &mut impl Sink) {
        out.put_len(self.len());
        out.put(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_len()?;
        let s = std::str::from_utf8(r.take(len)?)
            .map_err(|e| WireError::InvalidData(format!("invalid utf-8: {e}")))?;
        Ok(s.to_owned())
    }
}

impl Wire for () {
    fn put(&self, _: &mut impl Sink) {}
    fn get(_: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, out: &mut impl Sink) {
        (**self).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::get(r).map(Box::new)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut impl Sink) {
        match self {
            None => out.put(&[0]),
            Some(v) => {
                out.put(&[1]);
                v.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        get_tag(r, "option tag")?.then(|| T::get(r)).transpose()
    }
}

/// How many elements to allocate for up front on the input's word: the
/// length prefix, capped at 1 MiB worth of `T` so that a length read from a
/// corrupt or hostile input cannot demand an arbitrary allocation. Longer
/// sequences grow from there.
fn cautious<T>(len: usize) -> usize {
    const MAX_PREALLOC_BYTES: usize = 1024 * 1024;
    match std::mem::size_of::<T>() {
        0 => 0,
        size => len.min(MAX_PREALLOC_BYTES / size),
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut impl Sink) {
        out.put_len(self.len());
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.get_len()?;
        let mut out = Vec::with_capacity(cautious::<T>(len));
        for _ in 0..len {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn put(&self, out: &mut impl Sink) {
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // In place, front to back; after a failure the rest stay unread.
        let mut failed = None;
        let slots = [(); N].map(|()| {
            if failed.is_some() {
                return None;
            }
            T::get(r).map_err(|e| failed = Some(e)).ok()
        });
        match failed {
            None => Ok(slots.map(|v| v.expect("every element was read"))),
            Some(e) => Err(e),
        }
    }
}

macro_rules! wire_tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, out: &mut impl Sink) {
                $(self.$i.put(out);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(($($t::get(r)?,)+))
            }
        }
    };
}

wire_tuple!(A 0);
wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);
wire_tuple!(A 0, B 1, C 2, D 3);
wire_tuple!(A 0, B 1, C 2, D 3, E 4);
wire_tuple!(A 0, B 1, C 2, D 3, E 4, F 5);

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn put(&self, out: &mut impl Sink) {
        out.put_len(self.len());
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut out = BTreeMap::new();
        for _ in 0..r.get_len()? {
            out.insert(K::get(r)?, V::get(r)?);
        }
        Ok(out)
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn put(&self, out: &mut impl Sink) {
        out.put_len(self.len());
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Vec::<T>::get(r)?.into_iter().collect())
    }
}

/// The wire form of a struct with named fields: the listed fields, in the
/// listed order. `wire_struct!(Name { a, b })`, or with type parameters
/// (each gains a [`Wire`] bound) `wire_struct!(Name<K: Ord, V> { a, b })`.
#[macro_export]
macro_rules! wire_struct {
    ($name:ident $(<$($g:ident $(: $bound:path)?),+>)? { $($field:ident),+ $(,)? }) => {
        impl $(<$($g: $crate::wire::Wire $(+ $bound)?),+>)? $crate::wire::Wire
            for $name $(<$($g),+>)?
        {
            fn put(&self, out: &mut impl $crate::wire::Sink) {
                $($crate::wire::Wire::put(&self.$field, out);)+
            }
            fn get(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(Self { $($field: $crate::wire::Wire::get(r)?,)+ })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn round_trip<T>(v: &T)
    where
        T: Wire + PartialEq + std::fmt::Debug,
    {
        let bytes = encode(v);
        let back: T = decode(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives() {
        round_trip(&true);
        round_trip(&false);
        round_trip(&-42i8);
        round_trip(&0x1234u16);
        round_trip(&-7_000_000i32);
        round_trip(&u64::MAX);
        round_trip(&3.25f32);
        round_trip(&-1e300f64);
        round_trip(&'λ');
        round_trip(&String::from("hello, wire"));
    }

    #[test]
    fn collections() {
        round_trip(&vec![1u32, 2, 3]);
        round_trip(&Vec::<u64>::new());
        round_trip(&(1u8, String::from("x"), vec![9.5f64]));
        let mut m = BTreeMap::new();
        m.insert(3u32, "three".to_string());
        m.insert(1, "one".to_string());
        round_trip(&m);
        round_trip(&m.keys().copied().collect::<BTreeSet<u32>>());
        round_trip(&Some(17u64));
        round_trip(&Option::<u64>::None);
    }

    #[derive(PartialEq, Debug)]
    struct Particle {
        pos: [f64; 3],
        vel: [f64; 3],
        charge: f64,
        id: u64,
    }
    wire_struct!(Particle { pos, vel, charge, id });

    #[derive(PartialEq, Debug)]
    enum Msg {
        Ping,
        Data { from: u32, body: Vec<u8> },
        Pair(u16, u16),
        Wrapped(Box<Particle>),
    }

    impl Wire for Msg {
        fn put(&self, out: &mut impl Sink) {
            match self {
                Msg::Ping => 0u32.put(out),
                Msg::Data { from, body } => {
                    1u32.put(out);
                    from.put(out);
                    body.put(out);
                }
                Msg::Pair(a, b) => {
                    2u32.put(out);
                    a.put(out);
                    b.put(out);
                }
                Msg::Wrapped(p) => {
                    3u32.put(out);
                    p.put(out);
                }
            }
        }
        fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok(match u32::get(r)? {
                0 => Msg::Ping,
                1 => Msg::Data {
                    from: Wire::get(r)?,
                    body: Wire::get(r)?,
                },
                2 => Msg::Pair(Wire::get(r)?, Wire::get(r)?),
                3 => Msg::Wrapped(Wire::get(r)?),
                n => return Err(WireError::InvalidData(format!("invalid Msg variant {n}"))),
            })
        }
    }

    #[test]
    fn structs_and_enums() {
        round_trip(&Particle {
            pos: [1.0, 2.0, 3.0],
            vel: [-0.5, 0.25, 0.0],
            charge: -1.0,
            id: 99,
        });
        round_trip(&Msg::Ping);
        round_trip(&Msg::Data {
            from: 4,
            body: vec![1, 2, 3, 4, 5],
        });
        round_trip(&Msg::Pair(10, 20));
        round_trip(&Msg::Wrapped(Box::new(Particle {
            pos: [0.0; 3],
            vel: [0.0; 3],
            charge: 1.0,
            id: 1,
        })));
    }

    #[test]
    fn nested_vectors() {
        round_trip(&vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&5u32);
        bytes.push(0xFF);
        let r: Result<u32, _> = decode(&bytes);
        assert_eq!(r, Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = encode(&12345u64);
        let r: Result<u64, _> = decode(&bytes[..4]);
        assert_eq!(r, Err(WireError::Eof));
    }

    #[test]
    fn invalid_bool_rejected() {
        let r: Result<bool, _> = decode(&[7]);
        assert!(matches!(r, Err(WireError::InvalidData(_))));
    }

    #[test]
    fn preallocation_follows_the_length_prefix_up_to_one_mebibyte() {
        assert_eq!(cautious::<f64>(1000), 1000);
        assert_eq!(cautious::<f64>(usize::MAX), 128 * 1024);
        assert_eq!(cautious::<u8>(usize::MAX), 1024 * 1024);
        assert_eq!(cautious::<()>(5), 0);
        // What `Vec::get` does with it: the reservation, then what is there.
        let mut hostile = u64::MAX.to_le_bytes().to_vec();
        hostile.extend_from_slice(&encode(&[1.5f64, 2.5]));
        assert_eq!(decode::<Vec<f64>>(&hostile), Err(WireError::Eof));
    }

    #[test]
    fn an_array_that_fails_midway_reports_the_first_error() {
        let r: Result<[bool; 3], _> = decode(&[1, 7, 9]);
        assert_eq!(r, Err(WireError::InvalidData("invalid bool byte 7".into())));
        let r: Result<[u16; 3], _> = decode(&[1, 0, 2]);
        assert_eq!(r, Err(WireError::Eof));
        assert_eq!(decode::<[String; 0]>(&[]), Ok([]));
    }

    #[test]
    fn fingerprint_is_the_hash_of_the_encoding() {
        use crate::fnv::fnv1a_64;
        fn check<T: Wire>(v: &T) {
            assert_eq!(fingerprint(v), fnv1a_64(&encode(v)));
        }
        // Zero words take the one-multiplication path, in every position.
        check(&vec![0u64; 9]);
        check(&vec![0u64, 1 << 40, 0, 0, u64::MAX, 0]);
        check(&(0u32, 0i64, 0u8, 0u64, [0u8; 8], 0.0f64));
        check(&String::from("\0\0\0\0\0\0\0\0"));
        check(&String::from("\0\0\0\0\0\0\0\0, then more"));
        check(&Msg::Data {
            from: 0,
            body: vec![0; 17],
        });
        check(&Some(Particle {
            pos: [0.0, -0.0, 1.5],
            vel: [0.0; 3],
            charge: 0.0,
            id: 0,
        }));
    }

    #[test]
    fn buffers_are_allocated_once_at_their_final_size() {
        let nested = vec![vec![1.5f64; 300], vec![], vec![-2.0; 7]];
        let msg = Msg::Data {
            from: 9,
            body: vec![3; 1000],
        };
        let bare = encode(&nested);
        assert_eq!(bare.capacity(), bare.len(), "sized by the first pass");
        assert_eq!(encode(&msg).capacity(), 4 + 4 + 8 + 1000);
        let behind = encode_behind(8, &nested);
        assert_eq!(behind.capacity(), behind.len());
        assert_eq!(behind[..8], [0; 8]);
        assert_eq!(behind[8..], bare[..]);
    }

    #[test]
    fn fixed_width_encoding_is_stable() {
        // The codec is part of the simulated ABI; sizes must not drift.
        assert_eq!(encode(&1u64).len(), 8);
        assert_eq!(encode(&1u8).len(), 1);
        assert_eq!(encode(&vec![0u8; 10]).len(), 18);
        assert_eq!(encode(&"ab".to_string()).len(), 10);
        assert_eq!(encode(&Some(2.0f64)).len(), 9);
    }

    #[test]
    fn f64_bit_exact() {
        for v in [f64::MIN_POSITIVE, f64::MAX, -0.0, f64::INFINITY, 1.0 / 3.0] {
            let bytes = encode(&v);
            let back: f64 = decode(&bytes).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
    }
}
