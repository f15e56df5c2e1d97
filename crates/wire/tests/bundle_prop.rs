//! Property tests for the datagram-as-a-sequence-of-frames wire
//! format: whatever [`stage_message`] packs, [`frames`] walks back
//! frame for frame; a damaged tail costs exactly the frames behind the
//! damage; and a fragment of a longer message never shares.

use bytes::Bytes;
use minos_wire::frag::{frames, stage_message, FragHeader, MalformedTail, FRAG_HEADER_LEN};
use minos_wire::message::{Body, Message, ReplyStatus};
use minos_wire::packet::{Endpoint, TxPacket};
use minos_wire::{MAX_FRAG_CHUNK, MAX_UDP_PAYLOAD};
use proptest::prelude::*;

fn reply(request_id: u64, value_len: usize) -> Message {
    Message {
        client_id: 1,
        request_id,
        client_ts_ns: 0,
        body: Body::GetReply {
            status: ReplyStatus::Ok,
            key: request_id,
            value: Bytes::from(vec![request_id as u8; value_len]),
        },
    }
}

/// Stages `lens.len()` replies of those value lengths to one peer, each
/// joining the datagram that carries the one before it when it fits.
fn pack(lens: &[usize], accepts_bundles: bool) -> Vec<TxPacket> {
    let (src, dst) = (Endpoint::host(1, 9000), Endpoint::host(100, 20_000));
    let mut out = Vec::new();
    let mut open = None;
    for (id, &len) in lens.iter().enumerate() {
        let frame = reply(id as u64, len).encode_frame();
        let (_, carrier) = stage_message(
            &mut out,
            open.filter(|_| accepts_bundles),
            src,
            dst,
            id as u64,
            accepts_bundles,
            &frame,
        );
        open = carrier;
    }
    out
}

/// The single-fragment messages a datagram holds, by request id.
fn walk(payload: Bytes) -> (Vec<u64>, usize) {
    let mut ids = Vec::new();
    let mut malformed = 0;
    for frame in frames(payload) {
        match frame {
            Ok(frame) => {
                assert_eq!(frame.header.count, 1);
                ids.push(
                    Message::decode(frame.into_chunk())
                        .expect("intact")
                        .request_id,
                );
            }
            Err(MalformedTail) => malformed += 1,
        }
    }
    (ids, malformed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any run of single-fragment messages comes back frame for frame,
    /// in order, from datagrams that each fit one MTU; without the
    /// receiver's word every message has a datagram to itself.
    #[test]
    fn packed_frames_iterate_back(
        lens in prop::collection::vec(0usize..700, 1..24),
    ) {
        let packed = pack(&lens, true);
        let mut seen = Vec::new();
        for pkt in &packed {
            let (payload, _) = pkt.frame.to_contiguous();
            prop_assert!(payload.len() <= MAX_UDP_PAYLOAD);
            let (ids, malformed) = walk(payload);
            prop_assert_eq!(malformed, 0);
            seen.extend(ids);
        }
        prop_assert_eq!(&seen, &(0..lens.len() as u64).collect::<Vec<_>>());
        // Four frames' headers fill a `TxFrame`; four values of up to
        // 300 bytes fit beside them.
        if lens.iter().all(|&len| len <= 300) {
            prop_assert_eq!(packed.len(), lens.len().div_ceil(4));
        }

        let alone = pack(&lens, false);
        prop_assert_eq!(alone.len(), lens.len());
        for pkt in &alone {
            let mut payload = pkt.frame.to_contiguous().0;
            let header = FragHeader::decode(&mut payload).unwrap();
            prop_assert!(!header.accepts_bundles);
            prop_assert_eq!(payload.len(), header.msg_len as usize, "the rest is the chunk");
        }
    }

    /// Cutting a bundle short, or following it with garbage, yields
    /// every intact frame ahead of the damage and exactly one malformed
    /// count — never a panic, never a frame made of garbage.
    #[test]
    fn damaged_tail_costs_only_what_follows_it(
        lens in prop::collection::vec(0usize..200, 2..5),
        cut in 1usize..2_000,
        garbage in prop::collection::vec(any::<u8>(), 1..40),
    ) {
        let packed = pack(&lens, true);
        let payload = packed[0].frame.to_contiguous().0;
        let (whole, _) = walk(payload.clone());
        prop_assert!(whole.len() >= 2, "short values bundle");
        // Frame boundaries of the intact datagram.
        let mut ends = Vec::new();
        let mut at = 0;
        for &len in &lens[..whole.len()] {
            at += FRAG_HEADER_LEN + 32 + len;
            ends.push(at);
        }

        let cut = cut % payload.len();
        let (ids, malformed) = walk(payload.slice(..cut));
        let intact = ends.iter().filter(|&&end| end <= cut).count();
        prop_assert_eq!(ids.len(), intact);
        prop_assert_eq!(malformed, usize::from(!ends.contains(&cut)));

        // Garbage that cannot be a frame header: too short, or count 0.
        let mut tail = garbage;
        if tail.len() >= FRAG_HEADER_LEN {
            tail[10..12].copy_from_slice(&[0, 0]);
        }
        let mut damaged = payload.to_vec();
        damaged.extend_from_slice(&tail);
        let (ids, malformed) = walk(Bytes::from(damaged));
        prop_assert_eq!(&ids, &whole);
        prop_assert_eq!(malformed, 1);
    }

    /// A message of several fragments leaves in datagrams of its own —
    /// nothing joins them, they join nothing — and a fragment on the
    /// receive side takes the rest of its datagram, whatever follows.
    #[test]
    fn fragments_never_share(
        before in 0usize..300,
        large in (MAX_FRAG_CHUNK - 31)..(3 * MAX_FRAG_CHUNK),
        after in 0usize..300,
    ) {
        let packed = pack(&[before, large, after], true);
        let fragments = (32 + large).div_ceil(MAX_FRAG_CHUNK);
        prop_assert_eq!(packed.len(), 1 + fragments + 1);
        for (i, pkt) in packed.iter().enumerate() {
            let payload = pkt.frame.to_contiguous().0;
            let mut walked = frames(payload.clone());
            let frame = walked.next().unwrap().unwrap();
            let lone = i == 0 || i == packed.len() - 1;
            prop_assert_eq!(frame.header.count == 1, lone);
            prop_assert_eq!(frame.into_bytes().len(), payload.len());
            prop_assert!(walked.next().is_none());
        }
        // Receive side: bytes behind a fragment belong to its chunk.
        let mut glued = packed[1].frame.to_contiguous().0.to_vec();
        glued.extend_from_slice(&packed[0].frame.to_contiguous().0);
        let total = glued.len();
        let mut walked = frames(Bytes::from(glued));
        prop_assert_eq!(walked.next().unwrap().unwrap().into_bytes().len(), total);
        prop_assert!(walked.next().is_none());
    }
}

#[test]
fn an_empty_datagram_is_one_malformed_tail() {
    let mut walked = frames(Bytes::new());
    assert!(matches!(walked.next(), Some(Err(MalformedTail))));
    assert!(walked.next().is_none());
}
