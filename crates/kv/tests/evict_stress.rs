//! Eviction under real concurrency: four threads PUT, GET and run the
//! housekeeping tick against a pool a quarter the size of the key
//! population, so reservation-path and tick-path eviction passes run
//! against each other and against readers setting reference bits.
//! Afterwards the books must balance exactly.

use minos_kv::{CapacityConfig, EvictionPolicy, Store, StoreConfig};
use std::sync::Barrier;

const THREADS: usize = 4;
const KEYS: u64 = 4_096;
const OPS_PER_THREAD: u64 = 40_000;

#[test]
fn concurrent_get_put_tick_keeps_the_books() {
    for policy in [EvictionPolicy::Clock, EvictionPolicy::SizeAwareClock] {
        // ~4 096 keys x ~1 KiB against a 1 MiB pool.
        let store = Store::new(StoreConfig {
            capacity: CapacityConfig {
                policy,
                ..CapacityConfig::default()
            },
            max_value_bytes: 1 << 16,
            ..StoreConfig::for_items(THREADS, KEYS as usize, 1 << 20)
        });
        let start = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (store, start) = (&store, &start);
                scope.spawn(move || {
                    let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1);
                    start.wait();
                    for i in 0..OPS_PER_THREAD {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let key = rng % KEYS;
                        if rng >> 63 == 0 {
                            let len = 64 + (rng >> 32) as usize % 2_000;
                            // A PUT may lose the race for the bytes its
                            // own pass freed; that is an honest failure.
                            let _ = store.put(key, &vec![key as u8; len]);
                        } else if let Some(value) = store.get(key) {
                            assert!(value.iter().all(|&b| b == key as u8), "key {key}");
                        }
                        // Sparse enough that the pool also fills between
                        // ticks, whatever the interleaving.
                        if i % 512 == 0 {
                            store.capacity_tick(t, THREADS, i);
                        }
                    }
                });
            }
        });

        let stats = store.stats();
        assert!(stats.evictions > 0, "{policy:?}: the pool overflowed");
        assert!(stats.evict_passes_tick > 0 && stats.evict_passes_reserve > 0);
        assert_eq!(stats.accounting_warnings, 0, "{policy:?}");
        assert_eq!(
            store.audit_charged_bytes(),
            store.mempool().used_bytes(),
            "{policy:?}: item charges equal pool occupancy"
        );
        assert_eq!(store.audit_item_bitmaps(), Ok(store.len()), "{policy:?}");
        assert!(
            stats.evict_scan_words <= 64 * stats.evictions,
            "{policy:?}: {} words for {} victims",
            stats.evict_scan_words,
            stats.evictions
        );
    }
}
