//! Compact binary serialization for tensors.
//!
//! Logging-based recovery persists every inter-machine tensor; checkpoints
//! persist the whole model state. Both need a stable, self-describing,
//! zero-copy-friendly wire format. Layout:
//!
//! ```text
//! magic  u32  = 0x53_57_46_54 ("SWFT")
//! rank   u32
//! dims   u64 × rank
//! len    u64  (element count, redundant with dims — integrity check)
//! data   f32 × len (little endian)
//! ```
//!
//! The payload moves in bulk: on little-endian targets the whole `f32`
//! (or `f16`-bits) slice is reinterpreted as bytes and copied with a single
//! `put_slice`/`copy_to_slice` — one `memcpy` instead of one bounds-checked
//! call per element. Big-endian targets fall back to converting fixed-size
//! chunks through a stack buffer, preserving the little-endian wire format.
//! Half-precision conversion is SIMD-dispatched (`crate::simd`) and runs
//! rayon-parallel for large tensors; its staging buffers come from
//! [`crate::pool`], so steady-state encode/decode is allocation-free.

use crate::half;
use crate::pool;
use crate::shape::{Shape, MAX_RANK};
use crate::tensor::Tensor;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: u32 = 0x5357_4654;
/// Magic for half-precision payloads ("SWFH").
const MAGIC_F16: u32 = 0x5357_4648;

/// Chunk extent (elements) for the big-endian byte-swapping fallback.
#[allow(dead_code)]
const SWAP_CHUNK: usize = 256;

/// Errors produced when decoding a tensor payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer ended before the declared payload.
    Truncated,
    /// Magic number mismatch — not a tensor payload.
    BadMagic(u32),
    /// Declared element count disagrees with declared dims.
    LengthMismatch { dims_numel: u64, declared: u64 },
    /// Declared rank exceeds [`MAX_RANK`] — not a tensor we produce.
    RankTooLarge(u32),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "tensor payload truncated"),
            DecodeError::BadMagic(m) => write!(f, "bad tensor magic {m:#x}"),
            DecodeError::LengthMismatch {
                dims_numel,
                declared,
            } => {
                write!(
                    f,
                    "length mismatch: dims imply {dims_numel}, header says {declared}"
                )
            }
            DecodeError::RankTooLarge(r) => {
                write!(f, "declared rank {r} exceeds MAX_RANK {MAX_RANK}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

// ------------------------------------------------------------- bulk payload

/// Appends `data` as little-endian `f32`s: a single `memcpy` on LE targets.
fn put_f32s(buf: &mut impl BufMut, data: &[f32]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `f32` has no padding and every bit pattern is valid for
        // `u8`; the view covers exactly `data.len() * 4` initialized bytes
        // and the in-memory layout on an LE target is the wire layout.
        let bytes =
            unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), data.len() * 4) };
        buf.put_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    {
        let mut scratch = [0u8; SWAP_CHUNK * 4];
        for chunk in data.chunks(SWAP_CHUNK) {
            for (i, &v) in chunk.iter().enumerate() {
                scratch[i * 4..i * 4 + 4].copy_from_slice(&v.to_bits().to_le_bytes());
            }
            buf.put_slice(&scratch[..chunk.len() * 4]);
        }
    }
}

/// Appends `data` as little-endian `u16`s (the `f16` payload path).
fn put_u16s(buf: &mut impl BufMut, data: &[u16]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: as in `put_f32s` — plain-old-data reinterpretation.
        let bytes =
            unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), data.len() * 2) };
        buf.put_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    {
        let mut scratch = [0u8; SWAP_CHUNK * 2];
        for chunk in data.chunks(SWAP_CHUNK) {
            for (i, &v) in chunk.iter().enumerate() {
                scratch[i * 2..i * 2 + 2].copy_from_slice(&v.to_le_bytes());
            }
            buf.put_slice(&scratch[..chunk.len() * 2]);
        }
    }
}

/// Reads `n` little-endian `f32`s into a pooled buffer: a single `memcpy`
/// on LE targets.
fn get_f32s(buf: &mut impl Buf, n: usize) -> Vec<f32> {
    let mut data = pool::take_f32(n);
    #[cfg(target_endian = "little")]
    {
        // SAFETY: the Vec owns `n * 4` initialized, unaliased bytes; any
        // bit pattern is a valid `f32`.
        let view = unsafe { std::slice::from_raw_parts_mut(data.as_mut_ptr().cast::<u8>(), n * 4) };
        buf.copy_to_slice(view);
    }
    #[cfg(not(target_endian = "little"))]
    {
        let mut scratch = [0u8; SWAP_CHUNK * 4];
        for chunk in data.chunks_mut(SWAP_CHUNK) {
            let bytes = &mut scratch[..chunk.len() * 4];
            buf.copy_to_slice(bytes);
            for (i, v) in chunk.iter_mut().enumerate() {
                let mut b = [0u8; 4];
                b.copy_from_slice(&bytes[i * 4..i * 4 + 4]);
                *v = f32::from_bits(u32::from_le_bytes(b));
            }
        }
    }
    data
}

/// Reads `n` little-endian `u16`s into a pooled buffer (return it with
/// [`pool::put_u16`]).
fn get_u16s(buf: &mut impl Buf, n: usize) -> Vec<u16> {
    let mut data = pool::take_u16(n);
    #[cfg(target_endian = "little")]
    {
        // SAFETY: as in `get_f32s`.
        let view = unsafe { std::slice::from_raw_parts_mut(data.as_mut_ptr().cast::<u8>(), n * 2) };
        buf.copy_to_slice(view);
    }
    #[cfg(not(target_endian = "little"))]
    {
        let mut scratch = [0u8; SWAP_CHUNK * 2];
        for chunk in data.chunks_mut(SWAP_CHUNK) {
            let bytes = &mut scratch[..chunk.len() * 2];
            buf.copy_to_slice(bytes);
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = u16::from_le_bytes([bytes[i * 2], bytes[i * 2 + 1]]);
            }
        }
    }
    data
}

// ------------------------------------------------------------------ encode

/// Encodes a tensor into a freshly allocated byte buffer.
pub fn encode(t: &Tensor) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_size(t));
    encode_into(t, &mut buf);
    buf.freeze()
}

/// Encodes a tensor, appending to any [`BufMut`] (a `BytesMut` or a pooled
/// `Vec<u8>` staging buffer).
pub fn encode_into(t: &Tensor, buf: &mut impl BufMut) {
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(t.shape().rank() as u32);
    for &d in t.shape().dims() {
        buf.put_u64_le(d as u64);
    }
    buf.put_u64_le(t.numel() as u64);
    put_f32s(buf, t.data());
}

/// Exact number of bytes [`encode`] will produce for `t`.
pub fn encoded_size(t: &Tensor) -> usize {
    4 + 4 + 8 * t.shape().rank() + 8 + 4 * t.numel()
}

/// Encodes a tensor in half precision (f16 payload) — halves the logging
/// volume at a ≤2⁻¹¹ relative rounding cost (paper §8, mixed precision).
/// The f32 → f16 conversion runs rayon-parallel for large tensors.
pub fn encode_f16_into(t: &Tensor, buf: &mut impl BufMut) {
    buf.put_u32_le(MAGIC_F16);
    buf.put_u32_le(t.shape().rank() as u32);
    for &d in t.shape().dims() {
        buf.put_u64_le(d as u64);
    }
    buf.put_u64_le(t.numel() as u64);
    let staged = half::f32_slice_to_f16(t.data());
    put_u16s(buf, &staged);
    pool::put_u16(staged);
}

/// Encodes a tensor in half precision into a fresh buffer.
pub fn encode_f16(t: &Tensor) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_f16_size(t));
    encode_f16_into(t, &mut buf);
    buf.freeze()
}

/// Exact number of bytes [`encode_f16`] will produce.
pub fn encoded_f16_size(t: &Tensor) -> usize {
    4 + 4 + 8 * t.shape().rank() + 8 + 2 * t.numel()
}

// ------------------------------------------------------------------ decode

/// Decodes one tensor from the front of `buf`, advancing it.
pub fn decode(buf: &mut Bytes) -> Result<Tensor, DecodeError> {
    decode_from(buf)
}

/// Decodes a tensor from a standalone byte slice without copying the input
/// into an intermediate `Bytes`.
pub fn decode_slice(mut bytes: &[u8]) -> Result<Tensor, DecodeError> {
    decode_from(&mut bytes)
}

/// Decodes one tensor from the front of any [`Buf`], advancing it.
pub fn decode_from(buf: &mut impl Buf) -> Result<Tensor, DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC && magic != MAGIC_F16 {
        return Err(DecodeError::BadMagic(magic));
    }
    let half = magic == MAGIC_F16;
    let rank = buf.get_u32_le();
    if rank as usize > MAX_RANK {
        return Err(DecodeError::RankTooLarge(rank));
    }
    let rank = rank as usize;
    if buf.remaining() < 8 * rank + 8 {
        return Err(DecodeError::Truncated);
    }
    let mut dims = [0usize; MAX_RANK];
    for d in dims.iter_mut().take(rank) {
        *d = buf.get_u64_le() as usize;
    }
    let dims = &dims[..rank];
    let declared = buf.get_u64_le();
    let numel: u64 = dims.iter().map(|&d| d as u64).product();
    if numel != declared {
        return Err(DecodeError::LengthMismatch {
            dims_numel: numel,
            declared,
        });
    }
    let elem: u64 = if half { 2 } else { 4 };
    if (buf.remaining() as u64) < elem * declared {
        return Err(DecodeError::Truncated);
    }
    let n = declared as usize;
    let data = if half {
        let staged = get_u16s(buf, n);
        let data = half::f16_slice_to_f32(&staged);
        pool::put_u16(staged);
        data
    } else {
        get_f32s(buf, n)
    };
    Ok(Tensor::from_vec(Shape::new(dims), data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::CounterRng;

    #[test]
    fn round_trip_bitwise() {
        let t = Tensor::randn([3, 7, 2], 0.5, 2.0, &mut CounterRng::new(0, 0));
        let mut bytes = encode(&t);
        assert_eq!(bytes.len(), encoded_size(&t));
        let back = decode(&mut bytes).unwrap();
        assert!(back.bit_eq(&t));
        assert!(bytes.is_empty());
    }

    #[test]
    fn round_trip_scalar_and_empty() {
        let s = Tensor::scalar(std::f32::consts::PI);
        assert!(decode(&mut encode(&s)).unwrap().bit_eq(&s));
        let e = Tensor::zeros([0]);
        assert!(decode(&mut encode(&e)).unwrap().bit_eq(&e));
    }

    #[test]
    fn special_values_preserved() {
        let t = Tensor::from_vec([4], vec![f32::NAN, f32::INFINITY, -0.0, f32::MIN_POSITIVE]);
        let back = decode(&mut encode(&t)).unwrap();
        assert!(back.bit_eq(&t));
    }

    #[test]
    fn large_tensor_round_trip_bitwise() {
        // Exercises the bulk (single-memcpy) payload path on both sides,
        // including the parallel threshold.
        let t = Tensor::uniform([100_000], -1e6, 1e6, &mut CounterRng::new(9, 0));
        let back = decode(&mut encode(&t)).unwrap();
        assert!(back.bit_eq(&t));
    }

    #[test]
    fn bulk_encode_matches_per_element_reference() {
        // The bulk payload writer must be byte-identical to the seed's
        // per-element `put_f32_le` loop.
        let t = Tensor::randn([257], 0.0, 10.0, &mut CounterRng::new(11, 0));
        let mut reference = BytesMut::new();
        reference.put_u32_le(super::MAGIC);
        reference.put_u32_le(1);
        reference.put_u64_le(257);
        reference.put_u64_le(257);
        for &v in t.data() {
            reference.put_f32_le(v);
        }
        let bulk = encode(&t);
        assert_eq!(bulk.as_slice(), reference.as_ref());
    }

    #[test]
    fn multiple_tensors_in_stream() {
        let a = Tensor::ones([2, 2]);
        let b = Tensor::full([3], 9.0);
        let mut buf = BytesMut::new();
        encode_into(&a, &mut buf);
        encode_into(&b, &mut buf);
        let mut stream = buf.freeze();
        assert!(decode(&mut stream).unwrap().bit_eq(&a));
        assert!(decode(&mut stream).unwrap().bit_eq(&b));
        assert!(stream.is_empty());
    }

    #[test]
    fn f16_round_trip_quantizes() {
        let t = Tensor::from_vec([4], vec![1.0, 0.333333, -2.5, 65504.0]);
        let enc = encode_f16(&t);
        assert_eq!(enc.len(), encoded_f16_size(&t));
        assert!(enc.len() < encoded_size(&t));
        let back = decode(&mut enc.clone()).unwrap();
        assert_eq!(back.data()[0], 1.0);
        assert_eq!(back.data()[2], -2.5);
        assert!((back.data()[1] - 0.333333).abs() < 3e-4);
    }

    #[test]
    fn f16_halves_payload() {
        let t = Tensor::zeros([1000]);
        let full = encode(&t).len();
        let half = encode_f16(&t).len();
        assert!(
            half < full * 6 / 10,
            "f16 must roughly halve the payload: {half} vs {full}"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = BytesMut::new();
        bytes.put_u32_le(0xDEAD_BEEF);
        bytes.put_u32_le(0);
        let mut b = bytes.freeze();
        assert!(matches!(
            decode(&mut b),
            Err(DecodeError::BadMagic(0xDEAD_BEEF))
        ));
    }

    #[test]
    fn truncation_rejected() {
        let t = Tensor::ones([10]);
        let full = encode(&t);
        for cut in [0, 4, 9, full.len() - 1] {
            let mut b = full.slice(0..cut);
            assert!(
                matches!(decode(&mut b), Err(DecodeError::Truncated)),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn oversized_rank_rejected() {
        // A corrupt header must not panic Shape construction.
        let mut bytes = BytesMut::new();
        bytes.put_u32_le(super::MAGIC);
        bytes.put_u32_le(MAX_RANK as u32 + 1);
        for _ in 0..MAX_RANK + 1 {
            bytes.put_u64_le(1);
        }
        bytes.put_u64_le(1);
        bytes.put_f32_le(0.0);
        let mut b = bytes.freeze();
        assert!(matches!(
            decode(&mut b),
            Err(DecodeError::RankTooLarge(r)) if r == MAX_RANK as u32 + 1
        ));
    }

    #[test]
    fn length_mismatch_rejected() {
        let t = Tensor::ones([3]);
        let enc = encode(&t);
        let mut raw = enc.to_vec();
        // Corrupt declared length (offset 4 + 4 + 8 = 16).
        raw[16] = 99;
        assert!(matches!(
            decode_slice(&raw),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }
}
