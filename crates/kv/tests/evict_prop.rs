//! Property tests for the capacity-tiering subsystem: under *any*
//! interleaving of TTL'd PUTs, GETs, DELETEs, clock advances and
//! capacity ticks on a mempool far smaller than the key population,
//!
//! * the accounting invariant holds — the bytes charged to live items
//!   always equal the mempool's used bytes (every eviction released its
//!   whole reservation, every expiry too);
//! * an expired key is never served;
//! * a served value is always the last value written for that key;
//! * the item bitmaps agree with the slots — one `occupied` bit per
//!   live item, and no reference bit on an empty slot;
//! * draining the store returns the pool to zero.

use minos_kv::{CapacityConfig, EvictionPolicy, Store, StoreConfig};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum Op {
    /// PUT with a value length and TTL (0 = never expires).
    Put(u64, usize, u64),
    Get(u64),
    Delete(u64),
    /// Advance the store clock by some nanoseconds.
    Advance(u64),
    /// One housekeeping tick (expiry sweep + watermark eviction).
    Tick,
}

fn arb_put() -> impl Strategy<Value = Op> {
    (0u64..64, 1usize..2048, prop_oneof![Just(0u64), 1u64..5])
        .prop_map(|(k, len, ttl)| Op::Put(k, len, ttl))
}

fn arb_op() -> impl Strategy<Value = Op> {
    // 64 keys of up to 2 KiB against a 16 KiB pool: only a fraction of
    // the population fits, so eviction runs constantly. The vendored
    // `prop_oneof!` is uniform-only, so PUT/GET arms are repeated to
    // weight the mix 4:3 over the housekeeping ops.
    let key = 0u64..64;
    prop_oneof![
        arb_put(),
        arb_put(),
        arb_put(),
        arb_put(),
        key.clone().prop_map(Op::Get),
        key.clone().prop_map(Op::Get),
        key.clone().prop_map(Op::Get),
        key.prop_map(Op::Delete),
        (1u64..4_000_000).prop_map(Op::Advance),
        Just(Op::Tick),
    ]
}

/// A deterministic per-(key, version) byte so served values can be
/// checked against the model without storing them.
fn fill(key: u64, version: u64) -> u8 {
    (key.wrapping_mul(31).wrapping_add(version.wrapping_mul(7)) % 251) as u8
}

fn churny_store(policy: EvictionPolicy) -> Store {
    Store::new(StoreConfig {
        partitions: 2,
        buckets_per_partition: 8,
        overflow_per_partition: 16,
        items_per_partition: 64,
        mempool_bytes: 16 << 10,
        max_value_bytes: 1 << 16,
        capacity: CapacityConfig {
            policy,
            ..CapacityConfig::default()
        },
    })
}

/// What the model remembers about a key it wrote.
struct Written {
    len: usize,
    version: u64,
    /// `u64::MAX` = never expires.
    deadline_ns: u64,
}

fn run_interleaving(policy: EvictionPolicy, ops: &[Op]) -> Result<(), TestCaseError> {
    let store = churny_store(policy);
    let mut model: HashMap<u64, Written> = HashMap::new();
    let mut now_ns = 1u64;
    let mut version = 0u64;
    store.set_clock_ns(now_ns);

    for op in ops {
        match op {
            Op::Put(k, len, ttl_ms) => {
                version += 1;
                let value = vec![fill(*k, version); *len];
                match store.put_with_ttl(*k, &value, *ttl_ms) {
                    Ok(()) => {
                        model.insert(
                            *k,
                            Written {
                                len: *len,
                                version,
                                deadline_ns: if *ttl_ms == 0 {
                                    u64::MAX
                                } else {
                                    now_ns + ttl_ms * 1_000_000
                                },
                            },
                        );
                    }
                    // Under eviction pressure a PUT may still fail
                    // (e.g. every resident item is referenced); the
                    // key's previous value is gone either way.
                    Err(_) => {
                        model.remove(k);
                    }
                }
            }
            Op::Get(k) => {
                if let Some(got) = store.get(*k) {
                    // The store may have evicted any key, so a miss is
                    // always legal — but a *hit* must be the model's
                    // latest unexpired value, byte for byte.
                    let Some(w) = model.get(k) else {
                        return Err(TestCaseError::fail(format!(
                            "key {k} served after the model dropped it"
                        )));
                    };
                    prop_assert!(
                        w.deadline_ns > now_ns,
                        "key {} served {}ns past its deadline",
                        k,
                        now_ns - w.deadline_ns
                    );
                    prop_assert_eq!(got.len(), w.len);
                    prop_assert!(got.iter().all(|&b| b == fill(*k, w.version)));
                }
            }
            Op::Delete(k) => {
                store.delete(*k);
                model.remove(k);
            }
            Op::Advance(ns) => {
                now_ns += ns;
                store.set_clock_ns(now_ns);
            }
            Op::Tick => {
                store.capacity_tick(0, 1, now_ns);
            }
        }
        // The accounting invariant, cross-checked after *every* op:
        // bytes charged to live items == bytes the pool thinks are out.
        prop_assert_eq!(store.audit_charged_bytes(), store.mempool().used_bytes());
        // popcount(occupied) == live items, and referenced ⊆ occupied.
        prop_assert_eq!(store.audit_item_bitmaps(), Ok(store.len()));
    }

    prop_assert_eq!(
        store.stats().accounting_warnings,
        0,
        "watermark enforcement claimed an over-high pool it could not drain"
    );

    // Drain: every released reservation must come back to the pool.
    for k in 0..64 {
        store.delete(k);
    }
    prop_assert_eq!(store.len(), 0);
    prop_assert_eq!(store.mempool().used_bytes(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn clock_interleavings_hold_invariants(ops in prop::collection::vec(arb_op(), 1..250)) {
        run_interleaving(EvictionPolicy::Clock, &ops)?;
    }

    #[test]
    fn size_aware_interleavings_hold_invariants(ops in prop::collection::vec(arb_op(), 1..250)) {
        run_interleaving(EvictionPolicy::SizeAwareClock, &ops)?;
    }
}
