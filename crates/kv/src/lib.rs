//! MICA-style key-value storage substrate (paper §4.2).
//!
//! Minos "employs the KV data structures used in MICA": keys are split in
//! partitions; each partition is a hash table whose entries are
//! cache-line-sized buckets; each bucket holds slots of a *tag* and a
//! pointer to the key-value item; overflow buckets are chained when a
//! bucket fills up. Reads use an optimistic scheme built on a 64-bit
//! per-bucket epoch; writes are serialized per key with CREW ownership or
//! a per-bucket spinlock (Minos' variant, because large-core handoff means
//! a PUT can execute on a core other than the key's master).
//!
//! Module map:
//!
//! * [`mod@keyhash`] — the keyhash and its split into partition /
//!   bucket / tag portions, exactly the three-way split MICA describes.
//! * [`mem`] — a DPDK-`rte_mempool`-style memory manager: size-class
//!   freelists of fixed blocks with a hard capacity, handing out
//!   reference-counted value buffers that return to the pool on drop.
//! * [`bucket`] — the cache-line bucket: packed tag+index slots, the
//!   64-bit epoch, and the overflow chain link.
//! * `chunked` — fixed-capacity arrays built a chunk at a time on first
//!   use: the item slots and the overflow buckets.
//! * `items` — a partition's item slots with their `occupied` /
//!   `referenced` bitmaps, which the CLOCK hand and the TTL sweep walk
//!   a word at a time.
//! * [`store`] — the partitioned table with the optimistic-GET /
//!   locked-PUT protocol and statistics.
//! * [`crew`] — Concurrent Read Exclusive Write core-ownership helpers.
//! * [`evict`] — capacity tiering policy: eviction schemes and dual
//!   watermarks over mempool occupancy.
//! * [`ttl`] — per-key time-to-live deadlines on the coarse store clock.

#![warn(missing_docs)]

pub mod bucket;
mod chunked;
pub mod crew;
pub mod evict;
mod items;
pub mod keyhash;
pub mod mem;
pub mod store;
pub mod ttl;

pub use evict::{CapacityConfig, EvictionPolicy, Watermarks};
pub use keyhash::{keyhash, KeyhashParts};
pub use mem::{Mempool, MempoolStats, PoolBytes, PoolBytesMut};
pub use store::{PutError, Store, StoreConfig, StoreStats};
pub use ttl::NO_EXPIRY;
