//! Property tests: end-to-end wire invariants.
//!
//! * Any message survives encode → fragment → packet → reassemble →
//!   decode, under arbitrary fragment permutations.
//! * The fragment count always equals the cost function's packet count.
//! * Messages whose fragments interleave all complete, byte for byte,
//!   each matched to its own partial by its `(source, msg_id)` key.

use bytes::Bytes;
use minos_wire::frag::{fragment_with_id, FragHeader, Streamed, StreamingReassembler};
use minos_wire::message::{Body, Message, ReplyStatus};
use minos_wire::packet::{synthesize, Endpoint};
use proptest::prelude::*;

/// Opens a plain `Vec` writer of the message's length.
fn vec_open(h: &FragHeader) -> Option<Vec<u8>> {
    Some(vec![0; h.msg_len as usize])
}

fn arb_message() -> impl Strategy<Value = Message> {
    let value = prop::collection::vec(any::<u8>(), 0..20_000);
    (
        any::<u16>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        0u8..6,
        value,
    )
        .prop_map(|(client_id, request_id, ts, key, kind, value)| {
            let body = match kind {
                0 => Body::Get { key },
                1 => Body::Put {
                    key,
                    value: Bytes::from(value),
                    ttl_ms: 0,
                },
                2 => Body::Delete { key },
                3 => Body::GetReply {
                    status: ReplyStatus::Ok,
                    key,
                    value: Bytes::from(value),
                },
                4 => Body::PutReply {
                    status: ReplyStatus::NotFound,
                    key,
                },
                _ => Body::DeleteReply {
                    status: ReplyStatus::Ok,
                    key,
                },
            };
            Message {
                client_id,
                request_id,
                client_ts_ns: ts,
                body,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn message_roundtrip(msg in arb_message()) {
        let enc = msg.encode();
        prop_assert_eq!(Message::decode(enc).unwrap(), msg);
    }

    #[test]
    fn full_stack_roundtrip_with_shuffled_fragments(
        msg in arb_message(),
        msg_id in any::<u64>(),
        shuffle_seed in any::<u64>(),
    ) {
        let encoded = msg.encode();
        let frag_count = minos_wire::packets_for_payload(encoded.len());
        let mut frags = fragment_with_id(msg_id, &encoded);
        prop_assert_eq!(frags.len() as u32, frag_count);

        // Deterministic Fisher–Yates shuffle.
        let mut state = shuffle_seed | 1;
        for i in (1..frags.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            frags.swap(i, j);
        }

        // Send every fragment as a packet from one source.
        let src = Endpoint::host(1, 777);
        let dst = Endpoint::host(2, 9000);
        let mut reasm = StreamingReassembler::new(4);
        let mut complete = None;
        for f in &frags {
            let pkt = synthesize(src, dst, f.clone());
            match reasm.push(pkt.source_endpoint(), pkt.payload, vec_open) {
                Streamed::Complete(b) => complete = Some(b),
                Streamed::Incomplete => {}
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
        let complete = complete.expect("message completed");
        prop_assert_eq!(Message::decode(Bytes::from(complete)).unwrap(), msg);
    }

    /// Up to five multi-fragment messages from two sources (two of
    /// them sharing a message id), their fragments merged in a random
    /// interleaving that keeps each message's own order: every message
    /// completes exactly once with its own bytes, and nothing is
    /// evicted or left pending.
    #[test]
    fn interleaved_messages_all_complete(
        lens in prop::collection::vec(1_500usize..12_000, 1..6),
        pick_seed in any::<u64>(),
    ) {
        let msgs: Vec<(u64, u64, Vec<u8>)> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let bytes = (0..len).map(|b| (b * 7 + i) as u8).collect();
                ((i % 2) as u64, (i / 2) as u64, bytes)
            })
            .collect();
        let mut queues: Vec<std::collections::VecDeque<Bytes>> = msgs
            .iter()
            .map(|(_, id, bytes)| fragment_with_id(*id, bytes).into())
            .collect();
        let mut reasm = StreamingReassembler::new(msgs.len());
        let mut done = vec![false; msgs.len()];
        let mut state = pick_seed | 1;
        while queues.iter().any(|q| !q.is_empty()) {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let live: Vec<usize> = (0..queues.len()).filter(|&i| !queues[i].is_empty()).collect();
            let i = live[(state >> 33) as usize % live.len()];
            let frag = queues[i].pop_front().expect("live");
            match reasm.push(msgs[i].0, frag, vec_open) {
                Streamed::Complete(bytes) => {
                    prop_assert!(queues[i].is_empty() && !done[i], "message {} completed early", i);
                    prop_assert_eq!(&bytes, &msgs[i].2);
                    done[i] = true;
                }
                Streamed::Incomplete => {}
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
        prop_assert!(done.iter().all(|&d| d));
        prop_assert_eq!((reasm.pending(), reasm.evicted), (0, 0));
    }

    /// Dropping any single fragment of a multi-fragment message prevents
    /// completion (loss is surfaced, never silently corrupted).
    #[test]
    fn dropped_fragment_never_completes(
        len in 2_000usize..10_000,
        drop_idx_seed in any::<usize>(),
    ) {
        let msg: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
        let frags = fragment_with_id(1, &msg);
        prop_assume!(frags.len() > 1);
        let drop_idx = drop_idx_seed % frags.len();
        let mut reasm = StreamingReassembler::new(4);
        for (i, f) in frags.iter().enumerate() {
            if i == drop_idx {
                continue;
            }
            match reasm.push(0, f.clone(), vec_open) {
                Streamed::Incomplete => {}
                other => prop_assert!(false, "unexpected {:?}", other),
            }
        }
        prop_assert_eq!(reasm.pending(), 1);
        prop_assert_eq!(reasm.completed, 0);
    }
}
