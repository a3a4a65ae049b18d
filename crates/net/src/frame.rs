//! Checksum framing for wire payloads.
//!
//! The integrity layer treats data movement as the trust boundary: every
//! payload that crosses the simulated fabric (and every checkpoint shard
//! written by the resilience manager) can be *sealed* — prefixed with a
//! 64-bit FNV-1a checksum of its bytes — and *opened* on the other side,
//! where a mismatch proves the bytes were mangled in transit or at rest.
//!
//! FNV-1a ([`allscale_des::fnv`]) is the same stable, dependency-free
//! hash the location cache uses for region fingerprints: cheap enough
//! for the hot path, stable across runs and processes so sealed frames
//! are deterministic, and with 64 bits of state the chance of a random
//! bit-flip going unnoticed is negligible for the frame sizes the runtime
//! moves. It is **not** cryptographic — the threat model is silent
//! corruption (bit rot, DMA errors, misbehaving NICs), not an adversary.
//!
//! The frame layout is simply `checksum (8 bytes, little-endian) ‖
//! payload`; [`FRAME_OVERHEAD`] is what the runtime adds to the billed
//! byte count of a sealed transfer.
//!
//! A payload that is going to be sealed is built as a [`Payload`]: encoded
//! behind eight reserved bytes, so that sealing writes the checksum into
//! them instead of copying the payload behind a new header, and opening
//! lends the payload out of the frame it arrived in.

use std::fmt;
use std::ops::Deref;

use allscale_des::fnv::fnv1a_64;

use crate::wire::{self, Wire};

/// Bytes a sealed frame adds on top of its payload (the checksum prefix).
pub const FRAME_OVERHEAD: usize = 8;

/// Why [`open`] refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer is shorter than the checksum prefix.
    TooShort,
    /// The payload does not hash to the stored checksum.
    ChecksumMismatch {
        /// The checksum stored in the frame header.
        stored: u64,
        /// The checksum actually computed over the payload.
        computed: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooShort => write!(f, "frame shorter than checksum header"),
            FrameError::ChecksumMismatch { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
        }
    }
}

/// The bytes of one transfer, held behind room for their frame header.
/// Reads as the payload alone ([`Deref`]) until it is sealed.
#[derive(Clone, PartialEq, Eq)]
pub struct Payload {
    /// [`FRAME_OVERHEAD`] bytes the seal fills in, then the payload.
    buf: Vec<u8>,
}

impl Payload {
    /// The wire encoding of `value` ([`wire::encode`]) as a payload.
    pub fn encode<T: Wire + ?Sized>(value: &T) -> Self {
        Payload {
            buf: wire::encode_behind(FRAME_OVERHEAD, value),
        }
    }

    /// A copy of `bytes` as a payload.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut buf = Vec::with_capacity(FRAME_OVERHEAD + bytes.len());
        buf.resize(FRAME_OVERHEAD, 0);
        buf.extend_from_slice(bytes);
        Payload { buf }
    }

    /// Seal into a checksummed frame: `fnv1a_64(payload)` in little-endian
    /// followed by the payload bytes, which do not move.
    pub fn seal(self) -> Vec<u8> {
        let checksum = fnv1a_64(&self);
        self.seal_with(checksum)
    }

    /// [`Payload::seal`] for a caller that already holds the payload's
    /// `fnv1a_64` — one of a batch hashed abreast
    /// ([`allscale_des::fnv::fnv1a_64_batch`]).
    pub fn seal_with(mut self, checksum: u64) -> Vec<u8> {
        debug_assert_eq!(checksum, fnv1a_64(&self), "not this payload's checksum");
        self.buf[..FRAME_OVERHEAD].copy_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[FRAME_OVERHEAD..]
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Payload").field(&&**self).finish()
    }
}

/// Seal `payload` into a checksummed frame: `fnv1a_64(payload)` in
/// little-endian followed by the payload bytes.
pub fn seal(payload: &[u8]) -> Vec<u8> {
    Payload::from_bytes(payload).seal()
}

/// Verify and strip the checksum prefix, returning the payload slice.
///
/// A [`FrameError::ChecksumMismatch`] is the receiver's proof of silent
/// corruption — the caller must not consume the payload and should
/// re-request the transfer instead.
pub fn open(framed: &[u8]) -> Result<&[u8], FrameError> {
    if framed.len() < FRAME_OVERHEAD {
        return Err(FrameError::TooShort);
    }
    let (header, payload) = framed.split_at(FRAME_OVERHEAD);
    let stored = u64::from_le_bytes(header.try_into().expect("8-byte header"));
    let computed = fnv1a_64(payload);
    if stored != computed {
        return Err(FrameError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Deterministically flip one bit of `bytes`, modelling silent
/// corruption of a buffer in transit or at rest.
///
/// The victim bit is chosen by `salt` among the last `min(8, len)` bytes
/// — fragment encodings carry their geometry up front and raw values at
/// the end, so flipping in the tail corrupts a *value* without breaking
/// the decoder, exactly the silent kind of damage checksums exist to
/// catch. Empty buffers are left alone.
pub fn corrupt_in_place(bytes: &mut [u8], salt: u64) {
    let len = bytes.len();
    if len == 0 {
        return;
    }
    let window = len.min(8);
    let idx = len - 1 - (salt as usize % window);
    let bit = (salt >> 32) as u32 % 8;
    bytes[idx] ^= 1 << bit;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let payload = b"the quick brown fox".to_vec();
        let framed = seal(&payload);
        assert_eq!(framed.len(), payload.len() + FRAME_OVERHEAD);
        assert_eq!(open(&framed).unwrap(), &payload[..]);
        // Empty payloads seal and open too.
        assert_eq!(open(&seal(&[])).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn a_payload_seals_in_place_into_the_frame_seal_builds() {
        let value = (7u32, vec![1.5f64, -2.0], String::from("halo"));
        let payload = Payload::encode(&value);
        let bytes = wire::encode(&value);
        assert_eq!(&*payload, &bytes[..], "reads as the bare encoding");
        assert_eq!(payload, Payload::from_bytes(&bytes));
        let at = payload.as_ptr();
        let framed = payload.clone().seal();
        assert_eq!(framed, seal(&bytes));
        assert_eq!(framed, payload.clone().seal_with(fnv1a_64(&bytes)));
        assert_eq!(open(&framed).unwrap(), &bytes[..]);
        // Sealing the original moves no byte: same allocation, same spot.
        let sealed = payload.seal();
        assert_eq!(sealed[FRAME_OVERHEAD..].as_ptr(), at);
        assert_eq!(Payload::from_bytes(&[]).seal(), seal(&[]));
    }

    #[test]
    fn open_rejects_short_and_mangled_frames() {
        assert_eq!(open(&[1, 2, 3]), Err(FrameError::TooShort));
        let mut framed = seal(b"payload");
        framed[FRAME_OVERHEAD + 2] ^= 0x40;
        assert!(matches!(
            open(&framed),
            Err(FrameError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_in_place_flips_exactly_one_bit_and_is_detected() {
        for salt in 0..64u64 {
            let payload: Vec<u8> = (0..23).collect();
            let mut mangled = payload.clone();
            corrupt_in_place(&mut mangled, salt.wrapping_mul(0x9e37_79b9));
            let differing: u32 = payload
                .iter()
                .zip(&mangled)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(differing, 1, "exactly one bit flipped");
            // And framing catches it.
            let mut framed = seal(&payload);
            let off = framed.len() - mangled.len();
            framed[off..].copy_from_slice(&mangled);
            assert!(open(&framed).is_err());
        }
    }

    #[test]
    fn corrupt_in_place_stays_in_the_value_tail() {
        let mut small = vec![0u8; 3];
        corrupt_in_place(&mut small, 7);
        assert_eq!(small.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        let mut empty: Vec<u8> = vec![];
        corrupt_in_place(&mut empty, 7); // no-op, no panic
        let mut long = vec![0u8; 100];
        corrupt_in_place(&mut long, 12345);
        assert!(
            long[..92].iter().all(|&b| b == 0),
            "damage confined to the last 8 bytes"
        );
    }
}
