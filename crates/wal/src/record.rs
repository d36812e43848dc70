//! Log records: the unit of upstream-backup logging (§5.1).
//!
//! Each record carries the raw boundary tensor plus the metadata the paper
//! prescribes: sender, receiver, and the *timestamp* — (iteration,
//! micro-batch) — that fixes the replay order during recovery.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use swift_net::Rank;
use swift_pipeline::MsgKind;
use swift_tensor::Tensor;

/// Why a WAL blob failed to decode. The distinction matters to
/// recovery: a truncated record is the *expected* artifact of a crash
/// mid-flush (fail-stop tears the tail write) and is skipped and
/// reported; anything else is corruption the store should never
/// produce and aborts replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The blob ended mid-record: a torn tail write. `have` is how many
    /// bytes survived.
    TruncatedRecord { have: usize },
    /// Unknown direction byte — corruption, not a torn write.
    BadKind(u8),
    /// The tensor payload is malformed for a non-truncation reason.
    Payload(String),
}

impl WalError {
    /// True when the failure is a torn tail write rather than
    /// corruption.
    pub fn is_truncation(&self) -> bool {
        matches!(self, WalError::TruncatedRecord { .. })
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::TruncatedRecord { have } => {
                write!(f, "log record truncated mid-write ({have} bytes survived)")
            }
            WalError::BadKind(b) => write!(f, "bad kind byte {b}"),
            WalError::Payload(detail) => write!(f, "bad tensor payload: {detail}"),
        }
    }
}

impl std::error::Error for WalError {}

/// The replay timestamp: recovery re-executes records in ascending
/// `(iteration, microbatch)` order, forwards before backwards within a
/// micro-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogStamp {
    /// Training iteration.
    pub iteration: u64,
    /// Micro-batch within the iteration.
    pub microbatch: u64,
    /// Message direction (activation = forward, gradient = backward).
    pub kind: MsgKindCode,
}

/// Direction code with a total order (forward replays before backward).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgKindCode {
    /// Forward activation.
    Activation = 0,
    /// Backward gradient.
    Gradient = 1,
}

impl From<MsgKind> for MsgKindCode {
    fn from(k: MsgKind) -> Self {
        match k {
            MsgKind::Activation => MsgKindCode::Activation,
            MsgKind::Gradient => MsgKindCode::Gradient,
        }
    }
}

impl From<MsgKindCode> for MsgKind {
    fn from(k: MsgKindCode) -> Self {
        match k {
            MsgKindCode::Activation => MsgKind::Activation,
            MsgKindCode::Gradient => MsgKind::Gradient,
        }
    }
}

/// One logged boundary tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// Sending rank (the upstream machine keeps the record — upstream
    /// backup).
    pub src: Rank,
    /// Receiving rank.
    pub dst: Rank,
    /// Replay timestamp.
    pub stamp: LogStamp,
    /// The boundary tensor.
    pub tensor: Tensor,
}

impl LogRecord {
    /// Creates a record.
    pub fn new(
        src: Rank,
        dst: Rank,
        iteration: u64,
        microbatch: u64,
        kind: MsgKind,
        tensor: Tensor,
    ) -> Self {
        LogRecord {
            src,
            dst,
            stamp: LogStamp {
                iteration,
                microbatch,
                kind: kind.into(),
            },
            tensor,
        }
    }

    /// Store key for this record, prefix-organized so recovery can fetch
    /// by iteration range and boundary:
    /// `wal/it{iter:012}/mb{mb:06}/{kind}_{src}to{dst}.bin`.
    pub fn key(&self) -> String {
        Self::key_for(
            self.src,
            self.dst,
            self.stamp.iteration,
            self.stamp.microbatch,
            self.stamp.kind,
        )
    }

    /// Store key for a record with the given coordinates — usable without
    /// materializing a `LogRecord` (readers probe keys, the logger names
    /// staged buffers).
    pub fn key_for(
        src: Rank,
        dst: Rank,
        iteration: u64,
        microbatch: u64,
        kind: MsgKindCode,
    ) -> String {
        let mut out = String::new();
        Self::key_into(src, dst, iteration, microbatch, kind, &mut out);
        out
    }

    /// Renders the store key into a caller-owned buffer — the
    /// allocation-free variant of [`LogRecord::key_for`] the logger uses
    /// with recycled job buffers. Appends; callers clear first to reuse.
    pub fn key_into(
        src: Rank,
        dst: Rank,
        iteration: u64,
        microbatch: u64,
        kind: MsgKindCode,
        out: &mut String,
    ) {
        use std::fmt::Write;
        let kind = match kind {
            MsgKindCode::Activation => "act",
            MsgKindCode::Gradient => "grad",
        };
        write!(
            out,
            "wal/it{iteration:012}/mb{microbatch:06}/{kind}_{src}to{dst}.bin"
        )
        .expect("string formatting is infallible");
    }

    /// Prefix of every record of iteration `it`.
    pub fn iter_prefix(it: u64) -> String {
        format!("wal/it{it:012}/")
    }

    /// Binary encoding (metadata header + tensor payload).
    pub fn encode(&self) -> Bytes {
        self.encode_precision(false)
    }

    /// Binary encoding with an optional half-precision payload (§8 mixed
    /// precision: halves the logging volume; replay then carries a ≤2⁻¹¹
    /// relative quantization error instead of being bitwise).
    pub fn encode_precision(&self, half: bool) -> Bytes {
        let mut buf = BytesMut::with_capacity(Self::encoded_len(&self.tensor, half));
        Self::encode_parts_into(
            self.src,
            self.dst,
            self.stamp.iteration,
            self.stamp.microbatch,
            self.stamp.kind,
            &self.tensor,
            half,
            &mut buf,
        );
        buf.freeze()
    }

    /// Exact wire length of a record carrying `tensor`.
    pub fn encoded_len(tensor: &Tensor, half: bool) -> usize {
        33 + if half {
            swift_tensor::encoded_f16_size(tensor)
        } else {
            swift_tensor::encoded_size(tensor)
        }
    }

    /// Encodes a record's wire form straight from borrowed parts — the
    /// zero-copy path the logger uses on `on_send`, avoiding the clone of
    /// the boundary tensor into a `LogRecord` first.
    #[allow(clippy::too_many_arguments)]
    pub fn encode_parts_into(
        src: Rank,
        dst: Rank,
        iteration: u64,
        microbatch: u64,
        kind: MsgKindCode,
        tensor: &Tensor,
        half: bool,
        buf: &mut impl BufMut,
    ) {
        buf.put_u64_le(src as u64);
        buf.put_u64_le(dst as u64);
        buf.put_u64_le(iteration);
        buf.put_u64_le(microbatch);
        buf.put_u8(kind as u8);
        if half {
            swift_tensor::encode_f16_into(tensor, buf);
        } else {
            swift_tensor::encode_into(tensor, buf);
        }
    }

    /// Decodes a record payload. Truncation anywhere — header or tensor
    /// payload — surfaces as [`WalError::TruncatedRecord`] so recovery
    /// can treat the blob as a torn tail write.
    pub fn decode(mut buf: Bytes) -> Result<Self, WalError> {
        let have = buf.remaining();
        if have < 33 {
            return Err(WalError::TruncatedRecord { have });
        }
        let src = buf.get_u64_le() as Rank;
        let dst = buf.get_u64_le() as Rank;
        let iteration = buf.get_u64_le();
        let microbatch = buf.get_u64_le();
        let kind = match buf.get_u8() {
            0 => MsgKindCode::Activation,
            1 => MsgKindCode::Gradient,
            b => return Err(WalError::BadKind(b)),
        };
        let tensor = swift_tensor::decode(&mut buf).map_err(|e| match e {
            swift_tensor::DecodeError::Truncated => WalError::TruncatedRecord { have },
            other => WalError::Payload(other.to_string()),
        })?;
        Ok(LogRecord {
            src,
            dst,
            stamp: LogStamp {
                iteration,
                microbatch,
                kind,
            },
            tensor,
        })
    }

    /// Payload bytes of the carried tensor.
    pub fn tensor_bytes(&self) -> usize {
        self.tensor.byte_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(it: u64, mb: u64, kind: MsgKind) -> LogRecord {
        LogRecord::new(3, 4, it, mb, kind, Tensor::full([4], it as f32))
    }

    #[test]
    fn encode_decode_round_trip() {
        let r = rec(7, 2, MsgKind::Gradient);
        let back = LogRecord::decode(r.encode()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn f16_encoding_halves_payload_and_decodes() {
        let r = LogRecord::new(0, 1, 3, 0, MsgKind::Activation, Tensor::full([1000], 0.5));
        let full = r.encode();
        let half = r.encode_precision(true);
        assert!(half.len() < full.len() * 6 / 10);
        let back = LogRecord::decode(half).unwrap();
        assert_eq!(back.stamp, r.stamp);
        assert!(
            back.tensor.bit_eq(&r.tensor),
            "0.5 is exactly representable in f16"
        );
    }

    #[test]
    fn stamp_order_is_replay_order() {
        let mut stamps = [
            LogStamp {
                iteration: 1,
                microbatch: 0,
                kind: MsgKindCode::Gradient,
            },
            LogStamp {
                iteration: 0,
                microbatch: 1,
                kind: MsgKindCode::Activation,
            },
            LogStamp {
                iteration: 0,
                microbatch: 0,
                kind: MsgKindCode::Gradient,
            },
            LogStamp {
                iteration: 0,
                microbatch: 0,
                kind: MsgKindCode::Activation,
            },
        ];
        stamps.sort();
        assert_eq!(stamps[0].kind, MsgKindCode::Activation);
        assert_eq!(stamps[0].microbatch, 0);
        assert_eq!(stamps[1].kind, MsgKindCode::Gradient);
        assert_eq!(stamps[2].microbatch, 1);
        assert_eq!(stamps[3].iteration, 1);
    }

    #[test]
    fn keys_sort_by_timestamp() {
        let a = rec(1, 0, MsgKind::Activation).key();
        let b = rec(1, 1, MsgKind::Activation).key();
        let c = rec(2, 0, MsgKind::Activation).key();
        assert!(a < b && b < c);
        assert!(a.starts_with(&LogRecord::iter_prefix(1)));
    }

    #[test]
    fn key_for_matches_record_key() {
        let r = rec(5, 17, MsgKind::Gradient);
        assert_eq!(
            r.key(),
            LogRecord::key_for(3, 4, 5, 17, MsgKindCode::Gradient)
        );
    }

    #[test]
    fn encode_parts_matches_record_encode() {
        let r = LogRecord::new(1, 2, 9, 3, MsgKind::Activation, Tensor::full([7], -1.25));
        let mut via_parts = Vec::with_capacity(LogRecord::encoded_len(&r.tensor, false));
        LogRecord::encode_parts_into(
            1,
            2,
            9,
            3,
            MsgKindCode::Activation,
            &r.tensor,
            false,
            &mut via_parts,
        );
        assert_eq!(via_parts.len(), LogRecord::encoded_len(&r.tensor, false));
        assert_eq!(&via_parts[..], &r.encode()[..]);
        let mut half_parts = Vec::new();
        LogRecord::encode_parts_into(
            1,
            2,
            9,
            3,
            MsgKindCode::Activation,
            &r.tensor,
            true,
            &mut half_parts,
        );
        assert_eq!(half_parts.len(), LogRecord::encoded_len(&r.tensor, true));
        assert_eq!(&half_parts[..], &r.encode_precision(true)[..]);
    }

    #[test]
    fn truncation_at_every_byte_offset_is_typed() {
        // A torn flush can cut the record at *any* byte. Every strict
        // prefix must decode to TruncatedRecord — never panic, never
        // succeed, never be misread as corruption.
        let r = rec(1, 1, MsgKind::Activation);
        for enc in [r.encode(), r.encode_precision(true)] {
            for n in 0..enc.len() {
                match LogRecord::decode(enc.slice(0..n)) {
                    Err(WalError::TruncatedRecord { have }) => assert_eq!(have, n),
                    other => panic!("prefix of {n}/{} bytes decoded to {other:?}", enc.len()),
                }
            }
            assert_eq!(LogRecord::decode(enc.clone()).unwrap(), r);
        }
    }

    #[test]
    fn bad_kind_rejected() {
        let mut raw = rec(0, 0, MsgKind::Activation).encode().to_vec();
        raw[32] = 9;
        assert_eq!(
            LogRecord::decode(Bytes::from(raw)),
            Err(WalError::BadKind(9))
        );
    }

    #[test]
    fn corrupt_payload_is_not_reported_as_truncation() {
        // Flip the declared element count: same length, inconsistent
        // header. Must surface as Payload, not TruncatedRecord.
        let enc = rec(2, 0, MsgKind::Gradient).encode();
        let mut raw = enc.to_vec();
        // Header is 33 bytes; tensor layout: magic u32, rank u32, dims
        // (rank × u64), declared u64. rank is 1 here, so `declared`
        // starts at 33 + 4 + 4 + 8.
        raw[33 + 16] ^= 0x01;
        let err = LogRecord::decode(Bytes::from(raw)).unwrap_err();
        assert!(matches!(err, WalError::Payload(_)), "got {err:?}");
    }
}
