//! Property tests pinning the one-copy streaming ingest path
//! byte-identical to concatenate-then-put.
//!
//! For any value size and any fragment arrival order (with optional
//! duplicate deliveries), streaming a fragmented PUT through
//! `StreamingReassembler` + `PutIngest` + `Store::put_reserved` must
//! store exactly the value's bytes — what concatenating the fragments,
//! decoding and `Store::put` would store — while copying each value
//! byte exactly once and holding zero fragment buffers.

use minos_core::ingest::PutIngest;
use minos_kv::{Store, StoreConfig};
use minos_wire::frag::{fragment_with_id, Streamed, StreamingReassembler};
use minos_wire::message::{Body, Message};
use proptest::prelude::*;

fn test_store() -> Store {
    Store::new(StoreConfig::for_items(4, 1_000, 64 << 20))
}

fn put_message(key: u64, value: Vec<u8>) -> Message {
    Message {
        client_id: 9,
        request_id: key ^ 0x5ca1_ab1e,
        client_ts_ns: 7,
        body: Body::Put {
            key,
            value: bytes::Bytes::from(value),
            ttl_ms: 0,
        },
    }
}

/// An arbitrary delivery schedule for `count` fragments: a seeded
/// Fisher–Yates permutation with a few duplicate deliveries spliced in
/// (UDP may reorder and duplicate arbitrarily).
fn delivery_schedule(count: usize, shuffle_seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..count).collect();
    let mut state = shuffle_seed | 1;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for i in (1..count).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    for _ in 0..(next() % 3) {
        let dup = (next() % count as u64) as usize;
        let at = (next() % (order.len() as u64 + 1)) as usize;
        order.insert(at, dup);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The equivalence: for any size crossing any number of fragment
    /// boundaries and any delivery order, the stored value is
    /// byte-identical to the value put, and the streaming store copied
    /// exactly value_len bytes.
    #[test]
    fn streaming_ingest_equals_concatenate_then_put(
        len in prop_oneof![
            0usize..9,            // empty + tiny
            1_400usize..1_600,    // around the fragment boundary
            2_800usize..3_000,    // around two fragments
            10_000usize..60_000,  // many fragments
        ],
        seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
    ) {
        let value: Vec<u8> =
            (0..len).map(|i| ((i as u64).wrapping_mul(seed | 1) >> 3) as u8).collect();
        let key = seed % 1_000;
        let msg = put_message(key, value.clone());
        let encoded = msg.encode();
        let frags = fragment_with_id(seed, &encoded);
        prop_assert!(!frags.is_empty());

        // Stream fragments (shuffled, possibly duplicated) straight into
        // the mempool reservation.
        let store = test_store();
        let mut streaming = StreamingReassembler::new(8);
        let mut committed = false;
        for i in delivery_schedule(frags.len(), shuffle_seed) {
            match streaming.push(1, frags[i].clone(), |fh| PutIngest::open(&store, fh)) {
                Streamed::Complete(ingest) => {
                    let done = ingest.commit(&store).expect("well-formed put");
                    prop_assert_eq!(done.key, key);
                    committed = true;
                    // A fragment delivered after completion would open a
                    // fresh partial; stop here so the accounting below
                    // is exact.
                    break;
                }
                Streamed::Incomplete | Streamed::Duplicate => {}
                other => prop_assert!(false, "unexpected {other:?}"),
            }
        }
        prop_assert!(committed, "every permutation must complete");

        // The stored value is byte-identical to the value put.
        let stored = store.get(key).expect("stored");
        prop_assert_eq!(&stored[..], &value[..]);

        // And the streaming store moved each value byte exactly once —
        // duplicates included, nothing was double-copied.
        prop_assert_eq!(store.mempool().stats().copied_bytes, len as u64);
        prop_assert_eq!(streaming.pending(), 0);
    }
}
