//! A compact, non-self-describing binary serde format.
//!
//! Inter-locality transfers in the simulated cluster move *bytes*, not Rust
//! objects — this is what enforces the address-space separation demanded by
//! the paper's data model (`D ⊆ M × D × E`, Def 2.9): a fragment present on
//! locality A is a distinct allocation from its replica on locality B, and
//! all movement is observable and billable by the network model.
//!
//! The encoding is little-endian fixed-width for all primitives, with
//! `u64` length prefixes for sequences, maps, strings and byte strings and
//! `u32` variant indices for enums. It is not self-describing: the reader
//! must know the type, exactly as with `bincode`.

use serde::de::{self, DeserializeSeed, EnumAccess, SeqAccess, VariantAccess, Visitor};
use serde::ser::{self, Serialize};
use serde::Deserialize;
use std::fmt;

use allscale_des::fnv::{fnv1a_64_extend, FNV64_OFFSET, FNV64_PRIME};

/// Errors arising during encoding or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Eof,
    /// A length or variant index did not fit the platform / expectation.
    InvalidData(String),
    /// Trailing bytes remained after a complete top-level value.
    TrailingBytes(usize),
    /// A custom error raised by a Serialize/Deserialize impl.
    Custom(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof => write!(f, "unexpected end of input"),
            WireError::InvalidData(m) => write!(f, "invalid data: {m}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            WireError::Custom(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl ser::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Custom(msg.to_string())
    }
}

impl de::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Custom(msg.to_string())
    }
}

/// Serialize `value` into a byte vector.
pub fn encode<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, WireError> {
    encode_behind(0, value)
}

/// Serialize `value` behind `prefix` zero bytes the caller fills in later
/// (a frame header). The buffer is allocated once, at its final size: a
/// first pass over `value` adds up the sequence lengths and fixed widths
/// the second one writes, so no encoding grows by reallocation.
pub fn encode_behind<T: Serialize + ?Sized>(
    prefix: usize,
    value: &T,
) -> Result<Vec<u8>, WireError> {
    let mut sizer = WireSerializer { out: Count(prefix) };
    value.serialize(&mut sizer)?;
    let mut out = Vec::with_capacity(sizer.out.0);
    out.resize(prefix, 0);
    let mut ser = WireSerializer { out };
    value.serialize(&mut ser)?;
    debug_assert_eq!(ser.out.len(), sizer.out.0, "the two passes disagree");
    Ok(ser.out)
}

/// FNV-1a 64 of `value`'s encoding — `fnv1a_64(&encode(value)?)` without
/// the byte vector: the serializer feeds the hash as it goes.
pub fn fingerprint<T: Serialize + ?Sized>(value: &T) -> Result<u64, WireError> {
    let mut ser = WireSerializer {
        out: Fnv1a(FNV64_OFFSET),
    };
    value.serialize(&mut ser)?;
    Ok(ser.out.0)
}

/// Deserialize a value of type `T` from `bytes`, requiring full consumption.
pub fn decode<'a, T: Deserialize<'a>>(bytes: &'a [u8]) -> Result<T, WireError> {
    let mut de = WireDeserializer { input: bytes };
    let v = T::deserialize(&mut de)?;
    if de.input.is_empty() {
        Ok(v)
    } else {
        Err(WireError::TrailingBytes(de.input.len()))
    }
}

// ---------------------------------------------------------------- serializer

/// Where encoded bytes go.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
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

struct WireSerializer<S> {
    out: S,
}

impl<S: Sink> WireSerializer<S> {
    fn put_len(&mut self, len: usize) {
        self.out.put(&(len as u64).to_le_bytes());
    }
}

macro_rules! ser_prim {
    ($name:ident, $ty:ty) => {
        fn $name(self, v: $ty) -> Result<(), WireError> {
            self.out.put(&v.to_le_bytes());
            Ok(())
        }
    };
}

impl<S: Sink> ser::Serializer for &mut WireSerializer<S> {
    type Ok = ();
    type Error = WireError;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, v: bool) -> Result<(), WireError> {
        self.out.put(&[v as u8]);
        Ok(())
    }
    ser_prim!(serialize_i8, i8);
    ser_prim!(serialize_i16, i16);
    ser_prim!(serialize_i32, i32);
    ser_prim!(serialize_i64, i64);
    ser_prim!(serialize_u8, u8);
    ser_prim!(serialize_u16, u16);
    ser_prim!(serialize_u32, u32);
    ser_prim!(serialize_u64, u64);
    ser_prim!(serialize_f32, f32);
    ser_prim!(serialize_f64, f64);

    fn serialize_char(self, v: char) -> Result<(), WireError> {
        self.serialize_u32(v as u32)
    }
    fn serialize_str(self, v: &str) -> Result<(), WireError> {
        self.put_len(v.len());
        self.out.put(v.as_bytes());
        Ok(())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), WireError> {
        self.put_len(v.len());
        self.out.put(v);
        Ok(())
    }
    fn serialize_none(self) -> Result<(), WireError> {
        self.out.put(&[0]);
        Ok(())
    }
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), WireError> {
        self.out.put(&[1]);
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), WireError> {
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), WireError> {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), WireError> {
        self.serialize_u32(variant_index)
    }
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        self.serialize_u32(variant_index)?;
        value.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Self, WireError> {
        let len = len.ok_or_else(|| {
            WireError::InvalidData("sequences must have a known length".into())
        })?;
        self.put_len(len);
        Ok(self)
    }
    fn serialize_tuple(self, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, WireError> {
        self.serialize_u32(variant_index)?;
        Ok(self)
    }
    fn serialize_map(self, len: Option<usize>) -> Result<Self, WireError> {
        let len =
            len.ok_or_else(|| WireError::InvalidData("maps must have a known length".into()))?;
        self.put_len(len);
        Ok(self)
    }
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, WireError> {
        Ok(self)
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self, WireError> {
        self.serialize_u32(variant_index)?;
        Ok(self)
    }
    fn is_human_readable(&self) -> bool {
        false
    }
}

macro_rules! ser_compound {
    ($trait:path { $($fn:ident ( $($arg:ident : $argty:ty),* ))* }) => {
        impl<S: Sink> $trait for &mut WireSerializer<S> {
            type Ok = ();
            type Error = WireError;
            $(
                fn $fn<T: Serialize + ?Sized>(&mut self, $($arg: $argty,)* value: &T) -> Result<(), WireError> {
                    $(let _ = $arg;)*
                    value.serialize(&mut **self)
                }
            )*
            fn end(self) -> Result<(), WireError> { Ok(()) }
        }
    };
}

ser_compound!(ser::SerializeSeq { serialize_element() });
ser_compound!(ser::SerializeTuple { serialize_element() });
ser_compound!(ser::SerializeTupleStruct { serialize_field() });
ser_compound!(ser::SerializeTupleVariant { serialize_field() });
ser_compound!(ser::SerializeStruct { serialize_field(key: &'static str) });
ser_compound!(ser::SerializeStructVariant { serialize_field(key: &'static str) });

impl<S: Sink> ser::SerializeMap for &mut WireSerializer<S> {
    type Ok = ();
    type Error = WireError;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), WireError> {
        key.serialize(&mut **self)
    }
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut **self)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

// -------------------------------------------------------------- deserializer

struct WireDeserializer<'de> {
    input: &'de [u8],
}

impl<'de> WireDeserializer<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], WireError> {
        if self.input.len() < n {
            return Err(WireError::Eof);
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    fn get_len(&mut self) -> Result<usize, WireError> {
        let raw = u64::from_le_bytes(self.take(8)?.try_into().unwrap());
        usize::try_from(raw)
            .map_err(|_| WireError::InvalidData(format!("length {raw} exceeds usize")))
    }
}

macro_rules! de_prim {
    ($name:ident, $visit:ident, $ty:ty, $n:expr) => {
        fn $name<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
            let b = self.take($n)?;
            visitor.$visit(<$ty>::from_le_bytes(b.try_into().unwrap()))
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut WireDeserializer<'de> {
    type Error = WireError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError::InvalidData(
            "wire format is not self-describing".into(),
        ))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take(1)?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            b => Err(WireError::InvalidData(format!("invalid bool byte {b}"))),
        }
    }
    de_prim!(deserialize_i8, visit_i8, i8, 1);
    de_prim!(deserialize_i16, visit_i16, i16, 2);
    de_prim!(deserialize_i32, visit_i32, i32, 4);
    de_prim!(deserialize_i64, visit_i64, i64, 8);
    de_prim!(deserialize_u8, visit_u8, u8, 1);
    de_prim!(deserialize_u16, visit_u16, u16, 2);
    de_prim!(deserialize_u32, visit_u32, u32, 4);
    de_prim!(deserialize_u64, visit_u64, u64, 8);
    de_prim!(deserialize_f32, visit_f32, f32, 4);
    de_prim!(deserialize_f64, visit_f64, f64, 8);

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let raw = u32::from_le_bytes(self.take(4)?.try_into().unwrap());
        let c = char::from_u32(raw)
            .ok_or_else(|| WireError::InvalidData(format!("invalid char {raw:#x}")))?;
        visitor.visit_char(c)
    }
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        let s = std::str::from_utf8(bytes)
            .map_err(|e| WireError::InvalidData(format!("invalid utf-8: {e}")))?;
        visitor.visit_borrowed_str(s)
    }
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_str(visitor)
    }
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        visitor.visit_borrowed_bytes(self.take(len)?)
    }
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_bytes(visitor)
    }
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            b => Err(WireError::InvalidData(format!("invalid option tag {b}"))),
        }
    }
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_newtype_struct(self)
    }
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        visitor.visit_seq(Counted { de: self, left: len })
    }
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(Counted { de: self, left: len })
    }
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_tuple(len, visitor)
    }
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        visitor.visit_map(Counted { de: self, left: len })
    }
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_tuple(fields.len(), visitor)
    }
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_enum(WireEnum { de: self })
    }
    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError::InvalidData(
            "identifiers are not encoded in the wire format".into(),
        ))
    }
    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError::InvalidData(
            "cannot skip values in a non-self-describing format".into(),
        ))
    }
    fn is_human_readable(&self) -> bool {
        false
    }
}

struct Counted<'a, 'de> {
    de: &'a mut WireDeserializer<'de>,
    left: usize,
}

impl<'a, 'de> SeqAccess<'de> for Counted<'a, 'de> {
    type Error = WireError;
    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, WireError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

impl<'a, 'de> de::MapAccess<'de> for Counted<'a, 'de> {
    type Error = WireError;
    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, WireError> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }
    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value, WireError> {
        seed.deserialize(&mut *self.de)
    }
    fn size_hint(&self) -> Option<usize> {
        Some(self.left)
    }
}

struct WireEnum<'a, 'de> {
    de: &'a mut WireDeserializer<'de>,
}

impl<'a, 'de> EnumAccess<'de> for WireEnum<'a, 'de> {
    type Error = WireError;
    type Variant = Self;
    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self), WireError> {
        let idx = u32::from_le_bytes(self.de.take(4)?.try_into().unwrap());
        let val = seed.deserialize(de::value::U32Deserializer::<WireError>::new(idx))?;
        Ok((val, self))
    }
}

impl<'a, 'de> VariantAccess<'de> for WireEnum<'a, 'de> {
    type Error = WireError;
    fn unit_variant(self) -> Result<(), WireError> {
        Ok(())
    }
    fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value, WireError> {
        seed.deserialize(self.de)
    }
    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, WireError> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    fn round_trip<T>(v: &T)
    where
        T: Serialize + for<'a> Deserialize<'a> + PartialEq + std::fmt::Debug,
    {
        let bytes = encode(v).expect("encode");
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
        round_trip(&Some(17u64));
        round_trip(&Option::<u64>::None);
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Particle {
        pos: [f64; 3],
        vel: [f64; 3],
        charge: f64,
        id: u64,
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    enum Msg {
        Ping,
        Data { from: u32, body: Vec<u8> },
        Pair(u16, u16),
        Wrapped(Box<Particle>),
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
        let mut bytes = encode(&5u32).unwrap();
        bytes.push(0xFF);
        let r: Result<u32, _> = decode(&bytes);
        assert_eq!(r, Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = encode(&12345u64).unwrap();
        let r: Result<u64, _> = decode(&bytes[..4]);
        assert_eq!(r, Err(WireError::Eof));
    }

    #[test]
    fn invalid_bool_rejected() {
        let r: Result<bool, _> = decode(&[7]);
        assert!(matches!(r, Err(WireError::InvalidData(_))));
    }

    #[test]
    fn fingerprint_is_the_hash_of_the_encoding() {
        use allscale_des::fnv::fnv1a_64;
        fn check<T: Serialize>(v: &T) {
            assert_eq!(fingerprint(v).unwrap(), fnv1a_64(&encode(v).unwrap()));
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
        let bare = encode(&nested).unwrap();
        assert_eq!(bare.capacity(), bare.len(), "sized by the first pass");
        assert_eq!(encode(&msg).unwrap().capacity(), 4 + 4 + 8 + 1000);
        let behind = encode_behind(8, &nested).unwrap();
        assert_eq!(behind.capacity(), behind.len());
        assert_eq!(behind[..8], [0; 8]);
        assert_eq!(behind[8..], bare[..]);
    }

    #[test]
    fn fixed_width_encoding_is_stable() {
        // The codec is part of the simulated ABI; sizes must not drift.
        assert_eq!(encode(&1u64).unwrap().len(), 8);
        assert_eq!(encode(&1u8).unwrap().len(), 1);
        assert_eq!(encode(&vec![0u8; 10]).unwrap().len(), 18);
        assert_eq!(encode(&"ab".to_string()).unwrap().len(), 10);
        assert_eq!(encode(&Some(2.0f64)).unwrap().len(), 9);
    }

    #[test]
    fn f64_bit_exact() {
        for v in [f64::MIN_POSITIVE, f64::MAX, -0.0, f64::INFINITY, 1.0 / 3.0] {
            let bytes = encode(&v).unwrap();
            let back: f64 = decode(&bytes).unwrap();
            assert_eq!(v.to_bits(), back.to_bits());
        }
    }
}
