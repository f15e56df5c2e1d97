//! Property tests pinning the scatter-gather TX path to the contiguous
//! encoders, byte for byte: for every message body and value size,
//! `Message::encode_frame` must serialize to exactly the bytes of
//! `Message::encode`, and `fragment_frame_with_id` must produce exactly
//! the datagrams of `fragment_with_id`, addressed alike. These are the
//! invariants that make the zero-copy redesign invisible on the wire.

use bytes::Bytes;
use minos_wire::frag::{fragment_frame_with_id, fragment_with_id};
use minos_wire::message::{Body, Message, ReplyStatus};
use minos_wire::packet::{synthesize, synthesize_frame, Endpoint};
use minos_wire::MAX_FRAG_CHUNK;
use proptest::prelude::*;

/// A deterministic value of `len` bytes seeded by `salt`.
fn value(len: usize, salt: u64) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i as u64).wrapping_mul(salt | 1).wrapping_add(salt >> 3) as u8)
            .collect::<Vec<u8>>(),
    )
}

/// Every message body kind, with value-carrying kinds sized by `len`.
fn bodies(len: usize, salt: u64, key: u64) -> Vec<Body> {
    vec![
        Body::Get { key },
        Body::Delete { key },
        Body::Put {
            key,
            value: value(len, salt),
            ttl_ms: 0,
        },
        // The TTL tail is header bytes written *behind* the value.
        Body::Put {
            key,
            value: value(len, salt),
            ttl_ms: 1 + salt % 100_000,
        },
        Body::GetReply {
            status: ReplyStatus::Ok,
            key,
            value: value(len, salt ^ 0xA5A5),
        },
        Body::GetReply {
            status: ReplyStatus::NotFound,
            key,
            value: Bytes::new(),
        },
        Body::PutReply {
            status: ReplyStatus::OutOfMemory,
            key,
        },
        Body::DeleteReply {
            status: ReplyStatus::Ok,
            key,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `encode_frame` is byte-identical to `encode` for every body kind
    /// and value size — and the value segment really is uncopied (its
    /// bytes alias the source value).
    #[test]
    fn encode_frame_matches_encode(
        len in 0usize..120_000,
        salt in any::<u64>(),
        key in any::<u64>(),
        client_id in any::<u16>(),
        request_id in any::<u64>(),
        ts in any::<u64>(),
    ) {
        for body in bodies(len, salt, key) {
            let msg = Message { client_id, request_id, client_ts_ns: ts, body };
            let contiguous = msg.encode();
            let frame = msg.encode_frame();
            prop_assert_eq!(frame.len(), contiguous.len());
            let (gathered, _) = frame.to_contiguous();
            prop_assert_eq!(&gathered[..], &contiguous[..]);
            // The frame decodes back to the same message.
            let decoded = Message::decode(gathered);
            prop_assert_eq!(decoded.as_ref(), Some(&msg));
        }
    }

    /// Fragmenting a frame yields exactly the datagram bytes that
    /// fragmenting the contiguous encoding yields, fragment by
    /// fragment, and the synthesized headers agree too.
    #[test]
    fn fragment_frame_matches_fragment_bytes(
        // Cross the 1-, 2- and many-fragment boundaries.
        len in 0usize..(4 * MAX_FRAG_CHUNK),
        salt in any::<u64>(),
        msg_id in any::<u64>(),
    ) {
        // A reply (header, value) on even salts, a TTL PUT (header,
        // value, tail) on odd ones: the tail crosses fragment boundaries
        // like any other byte.
        let body = if salt.is_multiple_of(2) {
            Body::GetReply {
                status: ReplyStatus::Ok,
                key: 5,
                value: value(len, salt),
            }
        } else {
            Body::Put {
                key: 5,
                value: value(len, salt),
                ttl_ms: salt,
            }
        };
        let msg = Message {
            client_id: 3,
            request_id: 9,
            client_ts_ns: 77,
            body,
        };
        let contiguous = msg.encode();
        let byte_frags = fragment_with_id(msg_id, &contiguous);
        let frame_frags = fragment_frame_with_id(msg_id, &msg.encode_frame());
        prop_assert_eq!(byte_frags.len(), frame_frags.len());

        let src = Endpoint::host(1, 7777);
        let dst = Endpoint::host(2, 9001);
        for (bytes, frame) in byte_frags.iter().zip(&frame_frags) {
            let (gathered, _) = frame.to_contiguous();
            prop_assert_eq!(&gathered[..], &bytes[..]);
            // Header parity: synthesize_frame == synthesize over the
            // gathered payload.
            let via_frame = synthesize_frame(src, dst, frame.clone());
            let via_bytes = synthesize(src, dst, bytes.clone());
            prop_assert_eq!(via_frame.meta, via_bytes.meta);
            prop_assert_eq!(via_frame.wire_len(), via_bytes.wire_len());
        }
    }
}
