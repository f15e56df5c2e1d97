//! The KV application protocol.
//!
//! The store exposes the usual CRUD semantics (paper §3): `GET(key)` and
//! `PUT(key, value)`, with create/delete treated as PUT variants. Keys are
//! fixed 8-byte values (§5.3: "we keep the size of the keys constant to 8
//! bytes"), so they are carried as `u64`.
//!
//! Every request carries the client's send timestamp; the server echoes it
//! on the reply so the client can compute end-to-end latency without
//! synchronized clocks — exactly the measurement scheme of §5.4.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Operation kinds on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpKind {
    /// GET request.
    GetRequest = 1,
    /// PUT request (also covers create).
    PutRequest = 2,
    /// DELETE request.
    DeleteRequest = 3,
    /// GET reply.
    GetReply = 4,
    /// PUT reply.
    PutReply = 5,
    /// DELETE reply.
    DeleteReply = 6,
}

impl OpKind {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => OpKind::GetRequest,
            2 => OpKind::PutRequest,
            3 => OpKind::DeleteRequest,
            4 => OpKind::GetReply,
            5 => OpKind::PutReply,
            6 => OpKind::DeleteReply,
            _ => return None,
        })
    }
}

/// Status code on replies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ReplyStatus {
    /// The operation succeeded.
    Ok = 0,
    /// GET/DELETE on a key that is not stored.
    NotFound = 1,
    /// PUT failed because the store is out of memory.
    OutOfMemory = 2,
}

impl ReplyStatus {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => ReplyStatus::Ok,
            1 => ReplyStatus::NotFound,
            2 => ReplyStatus::OutOfMemory,
            _ => return None,
        })
    }
}

/// Flag bit in a `PutRequest`'s status byte (always zero before TTLs
/// existed): when set, an 8-byte big-endian TTL in milliseconds trails
/// the value. Old decoders never read a request's status byte, and old
/// encoders always write it as zero, so the extension is
/// back-compatible in both directions.
pub const PUT_TTL_FLAG: u8 = 0x80;

/// Length of the trailing TTL field a [`PUT_TTL_FLAG`]-carrying
/// `PutRequest` appends after its value.
pub const PUT_TTL_TAIL_LEN: usize = 8;

/// Message body variants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Body {
    /// GET request for `key`.
    Get {
        /// The requested key.
        key: u64,
    },
    /// PUT request storing `value` under `key`. The value length on the
    /// wire is the "size of the item that is being written" the paper
    /// says PUT requests carry, letting the receiving core classify the
    /// request as small or large without a lookup.
    Put {
        /// The key to write.
        key: u64,
        /// The value to store.
        value: Bytes,
        /// Per-key time-to-live in milliseconds; `0` means the key never
        /// expires (and nothing extra goes on the wire).
        ttl_ms: u64,
    },
    /// DELETE request for `key`.
    Delete {
        /// The key to delete.
        key: u64,
    },
    /// Reply to a GET.
    GetReply {
        /// Outcome.
        status: ReplyStatus,
        /// Echoed key.
        key: u64,
        /// The value, empty unless `status == Ok`.
        value: Bytes,
    },
    /// Reply to a PUT.
    PutReply {
        /// Outcome.
        status: ReplyStatus,
        /// Echoed key.
        key: u64,
    },
    /// Reply to a DELETE.
    DeleteReply {
        /// Outcome.
        status: ReplyStatus,
        /// Echoed key.
        key: u64,
    },
}

impl Body {
    /// The wire kind of this body.
    pub fn kind(&self) -> OpKind {
        match self {
            Body::Get { .. } => OpKind::GetRequest,
            Body::Put { .. } => OpKind::PutRequest,
            Body::Delete { .. } => OpKind::DeleteRequest,
            Body::GetReply { .. } => OpKind::GetReply,
            Body::PutReply { .. } => OpKind::PutReply,
            Body::DeleteReply { .. } => OpKind::DeleteReply,
        }
    }

    /// The key this message refers to.
    pub fn key(&self) -> u64 {
        match self {
            Body::Get { key }
            | Body::Put { key, .. }
            | Body::Delete { key }
            | Body::GetReply { key, .. }
            | Body::PutReply { key, .. }
            | Body::DeleteReply { key, .. } => *key,
        }
    }
}

/// A complete application message: addressing/timing header plus body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Client identifier (maps to a client thread; also used as the
    /// reply destination).
    pub client_id: u16,
    /// Client-assigned request identifier, echoed on the reply.
    pub request_id: u64,
    /// Client send timestamp (ns), echoed on the reply for end-to-end
    /// latency measurement.
    pub client_ts_ns: u64,
    /// The operation.
    pub body: Body,
}

/// Fixed part of the encoded message: kind(1) + status(1) + client_id(2)
/// + request_id(8) + client_ts(8) + key(8) + value_len(4).
pub const MSG_HEADER_LEN: usize = 32;

impl Message {
    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        MSG_HEADER_LEN + self.value_len() + self.ttl_tail().map_or(0, |t| t.len())
    }

    /// The trailing TTL field, if this is a PUT carrying one.
    fn ttl_tail(&self) -> Option<[u8; PUT_TTL_TAIL_LEN]> {
        match &self.body {
            Body::Put { ttl_ms, .. } if *ttl_ms > 0 => Some(ttl_ms.to_be_bytes()),
            _ => None,
        }
    }

    /// Length of the value payload carried (0 for value-less messages).
    pub fn value_len(&self) -> usize {
        match &self.body {
            Body::Put { value, .. } | Body::GetReply { value, .. } => value.len(),
            _ => 0,
        }
    }

    /// Writes the fixed 32-byte header ([`MSG_HEADER_LEN`]) into `buf`
    /// and returns the value payload, if this message carries one. The
    /// single source of truth both [`Message::encode`] and
    /// [`Message::encode_frame`] serialize through, so the contiguous
    /// and scatter-gather wire images can never drift.
    fn encode_header<B: BufMut>(&self, buf: &mut B) -> Option<&Bytes> {
        let (status, key, value): (u8, u64, Option<&Bytes>) = match &self.body {
            Body::Get { key } => (0, *key, None),
            Body::Put { key, value, ttl_ms } => {
                let flags = if *ttl_ms > 0 { PUT_TTL_FLAG } else { 0 };
                (flags, *key, Some(value))
            }
            Body::Delete { key } => (0, *key, None),
            Body::GetReply { status, key, value } => (*status as u8, *key, Some(value)),
            Body::PutReply { status, key } => (*status as u8, *key, None),
            Body::DeleteReply { status, key } => (*status as u8, *key, None),
        };
        buf.put_u8(self.body.kind() as u8);
        buf.put_u8(status);
        buf.put_u16(self.client_id);
        buf.put_u64(self.request_id);
        buf.put_u64(self.client_ts_ns);
        buf.put_u64(key);
        buf.put_u32(value.map_or(0, |v| v.len() as u32));
        value.filter(|v| !v.is_empty())
    }

    /// Serializes the message to bytes.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        if let Some(value) = self.encode_header(&mut buf) {
            buf.put_slice(value);
        }
        if let Some(tail) = self.ttl_tail() {
            buf.put_slice(&tail);
        }
        buf.freeze()
    }

    /// Serializes the message as a scatter-gather [`crate::TxFrame`]:
    /// the 32-byte header is written into the frame's inline region and
    /// the value (if any) is *appended as a refcounted segment* — the
    /// value bytes are never copied. The frame's logical byte stream is
    /// byte-identical to [`Message::encode`] (property-tested), so the
    /// two paths can never drift on the wire.
    pub fn encode_frame(&self) -> crate::TxFrame {
        let mut frame = crate::TxFrame::new();
        if let Some(value) = self.encode_header(&mut frame) {
            frame.push_segment(value.clone());
        }
        if let Some(tail) = self.ttl_tail() {
            // Header bytes like the rest: inline, behind the value.
            frame.put_slice(&tail);
        }
        debug_assert_eq!(frame.len(), self.encoded_len());
        frame
    }

    /// Parses a message from `data`. Fails on truncation, unknown kinds
    /// or inconsistent lengths.
    pub fn decode(data: Bytes) -> Option<Message> {
        if data.len() < MSG_HEADER_LEN {
            return None;
        }
        let mut header = [0u8; MSG_HEADER_LEN];
        header.copy_from_slice(&data[..MSG_HEADER_LEN]);
        Self::decode_streamed(&header, data.slice(MSG_HEADER_LEN..))
    }

    /// Parses a message whose fixed header and value arrived in
    /// *separate* buffers — the streaming-reassembly path, where
    /// fragment payloads were written straight into a value sink and no
    /// contiguous header+value image ever exists. Validation is
    /// identical to [`Message::decode`] ([`Message::decode`] is this
    /// function applied to a split of its input), including the
    /// requirement that `value.len()` match the header's value-length
    /// field.
    pub fn decode_streamed(header: &[u8; MSG_HEADER_LEN], value: Bytes) -> Option<Message> {
        let mut h = &header[..];
        let kind = OpKind::from_u8(h.get_u8())?;
        let status_raw = h.get_u8();
        let client_id = h.get_u16();
        let request_id = h.get_u64();
        let client_ts_ns = h.get_u64();
        let key = h.get_u64();
        let value_len = h.get_u32() as usize;
        // A flagged PUT carries its TTL in a fixed tail after the value
        // (kept out of value_len so size-based classification and
        // streaming reservation sizing see the stored bytes only).
        let (value, ttl_ms) = if kind == OpKind::PutRequest && status_raw & PUT_TTL_FLAG != 0 {
            if value.len() != value_len + PUT_TTL_TAIL_LEN {
                return None;
            }
            let tail: [u8; PUT_TTL_TAIL_LEN] = value[value_len..].try_into().ok()?;
            (value.slice(..value_len), u64::from_be_bytes(tail))
        } else {
            if value.len() != value_len {
                return None;
            }
            (value, 0)
        };
        let body = match kind {
            OpKind::GetRequest => Body::Get { key },
            OpKind::PutRequest => Body::Put { key, value, ttl_ms },
            OpKind::DeleteRequest => Body::Delete { key },
            OpKind::GetReply => Body::GetReply {
                status: ReplyStatus::from_u8(status_raw)?,
                key,
                value,
            },
            OpKind::PutReply => Body::PutReply {
                status: ReplyStatus::from_u8(status_raw)?,
                key,
            },
            OpKind::DeleteReply => Body::DeleteReply {
                status: ReplyStatus::from_u8(status_raw)?,
                key,
            },
        };
        Some(Message {
            client_id,
            request_id,
            client_ts_ns,
            body,
        })
    }

    /// Builds the reply message for this request with the echoed
    /// identifiers and timestamp.
    ///
    /// # Panics
    ///
    /// Panics if called on a reply.
    pub fn reply(&self, status: ReplyStatus, value: Option<Bytes>) -> Message {
        let body = match &self.body {
            Body::Get { key } => Body::GetReply {
                status,
                key: *key,
                value: value.unwrap_or_default(),
            },
            Body::Put { key, .. } => Body::PutReply { status, key: *key },
            Body::Delete { key } => Body::DeleteReply { status, key: *key },
            _ => panic!("reply() called on a reply message"),
        };
        Message {
            client_id: self.client_id,
            request_id: self.request_id,
            client_ts_ns: self.client_ts_ns,
            body,
        }
    }

    /// Number of network packets this message occupies on the wire
    /// (the paper's cost function; see [`crate::packets_for_payload`]).
    pub fn wire_packets(&self) -> u32 {
        crate::packets_for_payload(self.encoded_len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_put(len: usize) -> Message {
        Message {
            client_id: 7,
            request_id: 42,
            client_ts_ns: 123_456_789,
            body: Body::Put {
                key: 0xDEADBEEF,
                value: Bytes::from(vec![0xAB; len]),
                ttl_ms: 0,
            },
        }
    }

    #[test]
    fn get_roundtrip() {
        let m = Message {
            client_id: 1,
            request_id: 2,
            client_ts_ns: 3,
            body: Body::Get { key: 99 },
        };
        let enc = m.encode();
        assert_eq!(enc.len(), MSG_HEADER_LEN);
        assert_eq!(Message::decode(enc).unwrap(), m);
    }

    #[test]
    fn put_roundtrip_with_value() {
        let m = sample_put(1000);
        let enc = m.encode();
        assert_eq!(enc.len(), MSG_HEADER_LEN + 1000);
        assert_eq!(Message::decode(enc).unwrap(), m);
    }

    #[test]
    fn put_with_ttl_roundtrips_and_flags() {
        let mut m = sample_put(100);
        let Body::Put { ttl_ms, .. } = &mut m.body else {
            unreachable!()
        };
        *ttl_ms = 30_000;
        let enc = m.encode();
        assert_eq!(enc.len(), MSG_HEADER_LEN + 100 + PUT_TTL_TAIL_LEN);
        assert_eq!(enc[1], PUT_TTL_FLAG, "status byte carries the flag");
        assert_eq!(
            u32::from_be_bytes(enc[28..32].try_into().unwrap()),
            100,
            "value_len excludes the TTL tail"
        );
        let dec = Message::decode(enc.clone()).unwrap();
        assert_eq!(dec, m);
        // The scatter-gather frame is byte-identical.
        assert_eq!(&m.encode_frame().to_contiguous().0[..], &enc[..]);
        // A flagged PUT whose tail is missing is rejected.
        assert!(Message::decode(enc.slice(..enc.len() - 1)).is_none());
    }

    #[test]
    fn ttl_free_put_is_byte_identical_to_legacy() {
        // ttl_ms == 0 must not change a single wire byte, so old
        // decoders keep working against new encoders.
        let m = sample_put(64);
        let enc = m.encode();
        assert_eq!(enc.len(), MSG_HEADER_LEN + 64);
        assert_eq!(enc[1], 0, "no flag bit");
    }

    #[test]
    fn reply_echoes_identifiers() {
        let req = sample_put(10);
        let rep = req.reply(ReplyStatus::Ok, None);
        assert_eq!(rep.client_id, req.client_id);
        assert_eq!(rep.request_id, req.request_id);
        assert_eq!(rep.client_ts_ns, req.client_ts_ns);
        assert_eq!(rep.body.kind(), OpKind::PutReply);
        assert_eq!(rep.body.key(), req.body.key());
    }

    #[test]
    fn get_reply_carries_value() {
        let req = Message {
            client_id: 1,
            request_id: 2,
            client_ts_ns: 3,
            body: Body::Get { key: 5 },
        };
        let rep = req.reply(ReplyStatus::Ok, Some(Bytes::from_static(b"hello")));
        let enc = rep.encode();
        let dec = Message::decode(enc).unwrap();
        match dec.body {
            Body::GetReply { status, key, value } => {
                assert_eq!(status, ReplyStatus::Ok);
                assert_eq!(key, 5);
                assert_eq!(&value[..], b"hello");
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn streamed_decode_matches_contiguous() {
        let req = Message {
            client_id: 1,
            request_id: 2,
            client_ts_ns: 3,
            body: Body::Get { key: 5 },
        };
        let rep = req.reply(ReplyStatus::Ok, Some(Bytes::from(vec![0x5A; 777])));
        let enc = rep.encode();
        let mut header = [0u8; MSG_HEADER_LEN];
        header.copy_from_slice(&enc[..MSG_HEADER_LEN]);
        let streamed = Message::decode_streamed(&header, enc.slice(MSG_HEADER_LEN..)).unwrap();
        assert_eq!(streamed, Message::decode(enc).unwrap());
        // A value shorter than the header claims is rejected.
        assert!(Message::decode_streamed(&header, Bytes::from(vec![0u8; 776])).is_none());
    }

    #[test]
    fn unknown_reply_status_rejected() {
        let req = sample_put(16);
        let mut enc = req.reply(ReplyStatus::OutOfMemory, None).encode().to_vec();
        assert_eq!(enc[1], 2, "OutOfMemory, the highest status, is code 2");
        enc[1] = 3;
        assert!(Message::decode(Bytes::from(enc)).is_none());
    }

    #[test]
    fn truncated_rejected() {
        let enc = sample_put(100).encode();
        let truncated = enc.slice(0..enc.len() - 1);
        assert!(Message::decode(truncated).is_none());
        assert!(Message::decode(enc.slice(0..10)).is_none());
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut raw = sample_put(0).encode().to_vec();
        raw[0] = 200;
        assert!(Message::decode(Bytes::from(raw)).is_none());
    }

    #[test]
    fn wire_packets_matches_cost_function() {
        assert_eq!(sample_put(100).wire_packets(), 1);
        let large = sample_put(500_000);
        assert_eq!(
            large.wire_packets(),
            crate::packets_for_payload(MSG_HEADER_LEN + 500_000)
        );
        assert!(large.wire_packets() > 300);
    }

    #[test]
    #[should_panic(expected = "reply() called on a reply")]
    fn reply_to_reply_panics() {
        let req = sample_put(0);
        let rep = req.reply(ReplyStatus::Ok, None);
        let _ = rep.reply(ReplyStatus::Ok, None);
    }
}
