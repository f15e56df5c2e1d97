//! The partitioned store: optimistic GETs, locked PUTs, overflow chains.
//!
//! Protocol summary (paper §4.2):
//!
//! * **GET** (any core): read the bucket epoch; if odd, a write is in
//!   progress — wait. Once even, remember the epoch, scan the bucket
//!   chain for slots whose tag matches, fetch the candidate item, then
//!   re-read the epoch. If unchanged the read is consistent; otherwise
//!   retry. Item bytes are reference-counted pool buffers, so a
//!   concurrent replacement can never free memory under a reader.
//! * **PUT/DELETE**: serialized per bucket by a spinlock (Minos' scheme —
//!   under CREW ownership of partitions the lock is uncontended, and the
//!   store exposes [`Store::partition_of_key`] so engines can route
//!   writes to the master core). Writers bump the epoch to odd, mutate
//!   slots, bump back to even.

use crate::bucket::{Bucket, Slot, NO_OVERFLOW, SLOTS_PER_BUCKET};
use crate::chunked::Chunked;
use crate::evict::{CapacityConfig, EvictionPolicy, Watermarks, TTL_SWEEP_ITEMS, VICTIMS_PER_TICK};
use crate::items::{ClockHand, ItemRead, ItemTable};
use crate::keyhash::{keyhash, split};
use crate::mem::{Mempool, PoolBytes};
use crate::ttl::{expires_at, is_expired, NO_EXPIRY};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Configuration for a [`Store`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Number of partitions; the paper assigns one master core per
    /// partition (CREW), so this is typically a multiple of the core
    /// count.
    pub partitions: usize,
    /// Buckets per partition (rounded up to a power of two).
    pub buckets_per_partition: usize,
    /// Overflow buckets per partition.
    pub overflow_per_partition: usize,
    /// Item capacity per partition.
    pub items_per_partition: usize,
    /// Value-memory budget for the whole store, in bytes.
    pub mempool_bytes: usize,
    /// Largest storable value, in bytes.
    pub max_value_bytes: usize,
    /// Capacity tiering: eviction policy, watermarks, admission cutoff.
    /// Defaults to eviction off (the seed behavior).
    pub capacity: CapacityConfig,
}

impl StoreConfig {
    /// A configuration sized for roughly `n_items` items of mixed sizes,
    /// with `partitions` partitions.
    pub fn for_items(partitions: usize, n_items: usize, mempool_bytes: usize) -> Self {
        let per_part = n_items.div_ceil(partitions);
        // Aim for ~50 % bucket occupancy.
        let buckets = (per_part * 2 / SLOTS_PER_BUCKET).next_power_of_two().max(8);
        StoreConfig {
            partitions,
            buckets_per_partition: buckets,
            overflow_per_partition: (buckets / 4).max(8),
            items_per_partition: per_part * 2,
            mempool_bytes,
            max_value_bytes: 1 << 20, // 1 MiB, the paper's largest item
            capacity: CapacityConfig::default(),
        }
    }
}

/// Why a PUT failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutError {
    /// The value memory pool is exhausted (or the value exceeds the
    /// maximum block size).
    OutOfMemory,
    /// The bucket chain and overflow pool are full.
    TableFull,
}

/// Store-wide statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Completed GETs that found the key.
    pub get_hits: u64,
    /// Completed GETs that missed.
    pub get_misses: u64,
    /// Optimistic-read retries (epoch changed during the read).
    pub get_retries: u64,
    /// Successful PUTs.
    pub puts: u64,
    /// Failed PUTs.
    pub put_failures: u64,
    /// Successful DELETEs.
    pub deletes: u64,
    /// Overflow buckets currently in use across all partitions.
    pub overflow_in_use: u64,
    /// Items currently stored.
    pub items: u64,
    /// Items removed by capacity eviction.
    pub evictions: u64,
    /// Mempool bytes (class-rounded) reclaimed by capacity eviction.
    pub evicted_bytes: u64,
    /// Items removed because their TTL deadline passed (lazily on GET
    /// or by the active sweep).
    pub expired_keys: u64,
    /// PUTs rejected by admission control before reservation.
    pub admission_rejects: u64,
    /// Eviction passes that could reclaim nothing while occupancy was
    /// still over the high watermark — the accounting cross-check
    /// alarm, expected to stay 0.
    pub accounting_warnings: u64,
    /// Bitmap words (64 item slots each) the CLOCK hand visited;
    /// `evict_scan_words / evictions` is the hand's work per victim.
    pub evict_scan_words: u64,
    /// Housekeeping ticks whose eviction pass evicted at least one item.
    pub evict_passes_tick: u64,
    /// Failed reservations whose eviction pass evicted at least one item.
    pub evict_passes_reserve: u64,
}

/// Why the capacity subsystem is removing an item (selects the counter
/// it feeds and whether removal re-validates the TTL deadline).
#[derive(Clone, Copy, Debug)]
enum RemoveCause {
    /// Watermark eviction picked it as a victim.
    Evict,
    /// Its TTL deadline passed (lazy GET-side reclaim or active sweep);
    /// `now` is the store-clock reading that condemned it, re-checked
    /// under the write lock.
    Expire { now: u64 },
}

#[derive(Debug)]
struct Partition {
    buckets: Box<[Bucket]>,
    /// Per-primary-bucket writer locks. One lock guards a primary bucket
    /// and its entire overflow chain.
    locks: Box<[Mutex<()>]>,
    /// The overflow pool, built a chunk at a time as buckets are
    /// claimed. A claimed bucket stays chained for good.
    overflow: Chunked<Bucket>,
    /// Overflow buckets claimed so far: the next one to claim.
    overflow_claimed: AtomicUsize,
    items: ItemTable,
    /// The CLOCK eviction hand. Its mutex admits one evicting core per
    /// partition at a time.
    clock_hand: Mutex<ClockHand>,
    /// The active TTL sweep's rotating cursor over item slots.
    sweep_cursor: AtomicUsize,
}

impl Partition {
    fn new(config: &StoreConfig) -> Self {
        let buckets = config.buckets_per_partition.next_power_of_two();
        Partition {
            buckets: (0..buckets).map(|_| Bucket::new()).collect(),
            locks: (0..buckets).map(|_| Mutex::new(())).collect(),
            overflow: Chunked::new(config.overflow_per_partition),
            overflow_claimed: AtomicUsize::new(0),
            items: ItemTable::new(
                config.items_per_partition,
                config.capacity.policy != EvictionPolicy::None,
            ),
            clock_hand: Mutex::default(),
            sweep_cursor: AtomicUsize::new(0),
        }
    }

    /// Overflow bucket `i`, which a chain links to, so it is built.
    #[inline]
    fn overflow_bucket(&self, i: u32) -> &Bucket {
        self.overflow
            .get(i as usize)
            .expect("a chained bucket is built")
    }

    /// Walks the bucket chain starting at primary `b`, yielding bucket
    /// references (primary first).
    fn chain(&self, b: usize) -> ChainIter<'_> {
        ChainIter {
            part: self,
            next: ChainPos::Primary(b),
        }
    }
}

enum ChainPos {
    Primary(usize),
    Overflow(u32),
    End,
}

struct ChainIter<'a> {
    part: &'a Partition,
    next: ChainPos,
}

impl<'a> Iterator for ChainIter<'a> {
    type Item = &'a Bucket;

    fn next(&mut self) -> Option<&'a Bucket> {
        let bucket = match self.next {
            ChainPos::Primary(b) => &self.part.buckets[b],
            ChainPos::Overflow(i) => self.part.overflow_bucket(i),
            ChainPos::End => return None,
        };
        let link = bucket.next.load(Ordering::Acquire);
        self.next = if link == NO_OVERFLOW {
            ChainPos::End
        } else {
            ChainPos::Overflow(link)
        };
        Some(bucket)
    }
}

/// The partitioned MICA-style store.
#[derive(Debug)]
pub struct Store {
    partitions: Vec<Partition>,
    mempool: Mempool,
    num_buckets: usize,
    capacity: CapacityConfig,
    watermarks: Watermarks,
    /// Coarse monotonic store clock, ns. Advanced by
    /// [`Store::capacity_tick`] (or [`Store::set_clock_ns`] directly in
    /// tests); read with one relaxed load on the GET path.
    clock_ns: AtomicU64,
    /// Latches true on the first PUT carrying a TTL, so TTL-free stores
    /// skip the active sweep entirely.
    ttl_used: AtomicBool,
    /// Rotates the partition an eviction pass starts from, spreading
    /// reclaim across partitions instead of hammering partition 0.
    evict_rotor: AtomicUsize,
    get_hits: AtomicU64,
    get_misses: AtomicU64,
    get_retries: AtomicU64,
    puts: AtomicU64,
    put_failures: AtomicU64,
    deletes: AtomicU64,
    items: AtomicU64,
    evictions: AtomicU64,
    evicted_bytes: AtomicU64,
    expired_keys: AtomicU64,
    admission_rejects: AtomicU64,
    accounting_warnings: AtomicU64,
    evict_scan_words: AtomicU64,
    evict_passes_tick: AtomicU64,
    evict_passes_reserve: AtomicU64,
}

impl Store {
    /// Builds an empty store.
    pub fn new(config: StoreConfig) -> Self {
        assert!(config.partitions > 0);
        let num_buckets = config.buckets_per_partition.next_power_of_two();
        let watermarks = Watermarks::of(config.mempool_bytes);
        Store {
            partitions: (0..config.partitions)
                .map(|_| Partition::new(&config))
                .collect(),
            mempool: Mempool::new(config.mempool_bytes, config.max_value_bytes),
            num_buckets,
            capacity: config.capacity,
            watermarks,
            clock_ns: AtomicU64::new(0),
            ttl_used: AtomicBool::new(false),
            evict_rotor: AtomicUsize::new(0),
            get_hits: AtomicU64::new(0),
            get_misses: AtomicU64::new(0),
            get_retries: AtomicU64::new(0),
            puts: AtomicU64::new(0),
            put_failures: AtomicU64::new(0),
            deletes: AtomicU64::new(0),
            items: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
            expired_keys: AtomicU64::new(0),
            admission_rejects: AtomicU64::new(0),
            accounting_warnings: AtomicU64::new(0),
            evict_scan_words: AtomicU64::new(0),
            evict_passes_tick: AtomicU64::new(0),
            evict_passes_reserve: AtomicU64::new(0),
        }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions.len()
    }

    /// The partition `key` lives in — the CREW routing input.
    pub fn partition_of_key(&self, key: u64) -> usize {
        split(keyhash(key), self.partitions.len(), self.num_buckets).partition
    }

    /// Optimistic GET: returns the value if present and not expired. A
    /// GET landing on an item whose TTL deadline has passed reports a
    /// miss and reclaims the item lazily (Redis-style lazy expiry), so
    /// an expired key is never served no matter how far behind the
    /// active sweep runs.
    pub fn get(&self, key: u64) -> Option<PoolBytes> {
        let h = keyhash(key);
        let parts = split(h, self.partitions.len(), self.num_buckets);
        let partition = &self.partitions[parts.partition];
        let primary = &partition.buckets[parts.bucket];
        let now = self.clock_ns.load(Ordering::Relaxed);

        loop {
            let e1 = primary.epoch_snapshot();
            if e1 % 2 == 1 {
                // A write is in progress; spin until it completes.
                std::hint::spin_loop();
                continue;
            }
            let mut found: Option<PoolBytes> = None;
            let mut lazily_expired = false;
            'scan: for bucket in partition.chain(parts.bucket) {
                for (_, slot) in bucket.occupied() {
                    if slot.tag == parts.tag {
                        match partition.items.read(slot.item, key, now) {
                            ItemRead::Hit(v) => {
                                found = Some(v);
                                break 'scan;
                            }
                            ItemRead::Expired => {
                                lazily_expired = true;
                                break 'scan;
                            }
                            ItemRead::Absent => {}
                        }
                    }
                }
            }
            let e2 = primary.epoch_snapshot();
            if e1 == e2 {
                match found {
                    Some(v) => {
                        self.get_hits.fetch_add(1, Ordering::Relaxed);
                        return Some(v);
                    }
                    None => {
                        if lazily_expired {
                            // Reclaim outside the optimistic window; the
                            // removal re-validates under the write lock.
                            self.remove_victim(key, RemoveCause::Expire { now });
                        }
                        self.get_misses.fetch_add(1, Ordering::Relaxed);
                        return None;
                    }
                }
            }
            self.get_retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The stored size of `key`'s value in bytes, if present. This is the
    /// lookup a small core performs to classify a GET as small or large
    /// (paper §3: "a small core looks up the item associated with the
    /// requested key; if its size is below the threshold ...").
    pub fn value_len(&self, key: u64) -> Option<usize> {
        self.get(key).map(|v| v.len())
    }

    /// PUT: stores `value` under `key`, replacing any existing value.
    ///
    /// Implemented as a one-shot two-phase PUT: [`Store::reserve`] the
    /// pool block, fill it with the single wire → pool copy, and commit
    /// it with [`Store::put_reserved`]. Streaming callers (the large-PUT
    /// ingest path) use the phases directly so each network fragment is
    /// copied straight into its final offset of the block.
    pub fn put(&self, key: u64, value: &[u8]) -> Result<(), PutError> {
        self.put_with_ttl(key, value, 0)
    }

    /// [`Store::put`] with a per-key TTL in milliseconds (`0` = never
    /// expires). The deadline is stamped against the store clock; under
    /// memory pressure the reservation may evict first (see
    /// [`Store::reserve`]).
    pub fn put_with_ttl(&self, key: u64, value: &[u8], ttl_ms: u64) -> Result<(), PutError> {
        // Copy the value into pool memory *before* taking the bucket
        // lock: the critical section stays O(1) regardless of item size.
        let Some(mut reservation) = self.reserve(value.len()) else {
            return Err(PutError::OutOfMemory);
        };
        reservation.write_at(0, value);
        self.put_reserved_with_ttl(key, reservation.seal(), ttl_ms)
    }

    /// Phase one of a two-phase PUT: reserves a writable mempool block
    /// for a value of `len` bytes (see [`Mempool::reserve`]). With an
    /// eviction policy configured, a reservation that fails on capacity
    /// triggers one eviction pass (evict until the block fits, aiming
    /// for the low watermark) and retries once — then reports an honest
    /// failure. A final failure is counted as a PUT failure, mirroring
    /// [`Store::put`] under memory pressure. Commit the filled
    /// reservation with [`Store::put_reserved`]; dropping it instead
    /// releases the block.
    pub fn reserve(&self, len: usize) -> Option<crate::mem::PoolBytesMut> {
        if let Some(r) = self.mempool.reserve(len) {
            return Some(r);
        }
        let reservation = match (self.capacity.policy, self.mempool.charged_bytes(len)) {
            (EvictionPolicy::None, _) | (_, None) => None,
            (_, Some(charge)) => {
                // Make room for this block *and* head toward the low
                // watermark, so the next few PUTs don't each pay an
                // eviction pass of their own.
                let capacity = self.mempool.capacity_bytes();
                let target = self
                    .watermarks
                    .low_bytes
                    .min(capacity.saturating_sub(charge));
                self.evict_until(target, None, u64::MAX, &self.evict_passes_reserve);
                self.mempool.reserve(len)
            }
        };
        if reservation.is_none() {
            self.put_failures.fetch_add(1, Ordering::Relaxed);
        }
        reservation
    }

    /// Phase two of a two-phase PUT: commits an already-pooled value
    /// under `key`, replacing any existing value. The critical section
    /// is the same O(1) bucket-locked splice as [`Store::put`] —
    /// regardless of how the value bytes got into the pool.
    pub fn put_reserved(&self, key: u64, pooled: PoolBytes) -> Result<(), PutError> {
        self.put_reserved_with_ttl(key, pooled, 0)
    }

    /// [`Store::put_reserved`] with a per-key TTL in milliseconds (`0` =
    /// never expires).
    pub fn put_reserved_with_ttl(
        &self,
        key: u64,
        pooled: PoolBytes,
        ttl_ms: u64,
    ) -> Result<(), PutError> {
        let deadline = if ttl_ms == 0 {
            NO_EXPIRY
        } else {
            self.ttl_used.store(true, Ordering::Relaxed);
            expires_at(self.clock_ns.load(Ordering::Relaxed), ttl_ms)
        };
        let h = keyhash(key);
        let parts = split(h, self.partitions.len(), self.num_buckets);
        let partition = &self.partitions[parts.partition];
        let primary = &partition.buckets[parts.bucket];
        let _guard = partition.locks[parts.bucket].lock();

        // Find an existing slot for this key (outside the epoch-odd
        // window: we hold the lock, so slots cannot change under us).
        let existing = self.find_slot_locked(partition, parts.bucket, parts.tag, key);
        match existing {
            Some((_, slot)) => {
                primary.write_begin();
                partition.items.replace(slot.item, pooled, deadline);
                primary.write_end();
            }
            None => {
                // Need a free slot somewhere in the chain.
                let Some(item_idx) = partition.items.alloc(key, pooled, deadline) else {
                    self.put_failures.fetch_add(1, Ordering::Relaxed);
                    return Err(PutError::TableFull);
                };
                match self.claim_empty_slot(partition, parts.bucket) {
                    Some(target) => {
                        primary.write_begin();
                        target.0.set_slot(
                            target.1,
                            Some(Slot {
                                tag: parts.tag,
                                item: item_idx,
                            }),
                        );
                        primary.write_end();
                        self.items.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        partition.items.free(item_idx);
                        self.put_failures.fetch_add(1, Ordering::Relaxed);
                        return Err(PutError::TableFull);
                    }
                }
            }
        }
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// DELETE: removes `key`, returning whether it was present.
    pub fn delete(&self, key: u64) -> bool {
        let h = keyhash(key);
        let parts = split(h, self.partitions.len(), self.num_buckets);
        let partition = &self.partitions[parts.partition];
        let primary = &partition.buckets[parts.bucket];
        let _guard = partition.locks[parts.bucket].lock();

        match self.find_slot_locked(partition, parts.bucket, parts.tag, key) {
            Some((bucket_ref, slot)) => {
                primary.write_begin();
                bucket_ref.0.set_slot(bucket_ref.1, None);
                primary.write_end();
                partition.items.free(slot.item);
                self.items.fetch_sub(1, Ordering::Relaxed);
                self.deletes.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    // ---- Capacity tiering: clock, watermark eviction, TTL expiry ----

    /// The coarse store clock, ns (see [`Store::set_clock_ns`]).
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns.load(Ordering::Relaxed)
    }

    /// Advances the store clock to `now_ns` (monotone: a stale caller
    /// can never turn it back). Serving cores call this through
    /// [`Store::capacity_tick`]; tests drive it directly for
    /// deterministic expiry.
    pub fn set_clock_ns(&self, now_ns: u64) {
        self.clock_ns.fetch_max(now_ns, Ordering::Relaxed);
    }

    /// The configured capacity policy and knobs.
    pub fn capacity_config(&self) -> &CapacityConfig {
        &self.capacity
    }

    /// The watermarks resolved against this store's mempool capacity.
    pub fn watermarks(&self) -> Watermarks {
        self.watermarks
    }

    /// Admission control: may a PUT of `len` value bytes proceed to
    /// reservation right now? With eviction off, always. Otherwise a
    /// PUT at or past the admission cutoff is turned away *before*
    /// reservation when it could never fit under the high watermark, or
    /// while occupancy currently sits at or above it (eviction is
    /// behind; streaming a huge value now would only deepen the hole).
    /// A rejection is counted in `store.admission_rejects` and should
    /// be answered with an immediate `OutOfMemory` — the caller skips
    /// the reservation AND the discard-mode streaming it replaces.
    pub fn admit_put(&self, len: usize) -> bool {
        if self.capacity.policy == EvictionPolicy::None
            || len < self.capacity.admission_cutoff_bytes
        {
            return true;
        }
        let oversized = match self.mempool.charged_bytes(len) {
            Some(charge) => charge > self.watermarks.high_bytes,
            None => true,
        };
        if oversized || self.mempool.used_bytes() >= self.watermarks.high_bytes {
            self.admission_rejects.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// One capacity-housekeeping tick, called by serving core `core` of
    /// `n_cores` from its existing per-round housekeeping (no dedicated
    /// threads): advances the store clock, runs the budgeted active TTL
    /// sweep over this core's partitions (partition `p` belongs to core
    /// `p % n_cores`), and — when occupancy is over the high watermark —
    /// evicts toward the low watermark under the per-tick victim
    /// budget.
    ///
    /// Cross-checked accounting: occupancy is re-measured after the
    /// eviction pass; a tick that reclaimed *nothing* while still over
    /// the high watermark first widens the scan to every partition, and
    /// if even the global pass finds no victim, increments
    /// `store.accounting_warnings` — occupancy then disagrees with the
    /// item table (leaked reservations or stuck references), which CI
    /// gates to zero.
    pub fn capacity_tick(&self, core: usize, n_cores: usize, now_ns: u64) {
        self.set_clock_ns(now_ns);
        let now = self.clock_ns();
        let n_cores = n_cores.max(1);
        if self.ttl_used.load(Ordering::Relaxed) {
            for p in (core % n_cores..self.partitions.len()).step_by(n_cores) {
                self.sweep_expired(p, now);
            }
        }
        if self.capacity.policy == EvictionPolicy::None {
            return;
        }
        if self.mempool.used_bytes() <= self.watermarks.high_bytes {
            return;
        }
        let low = self.watermarks.low_bytes;
        let budget = VICTIMS_PER_TICK;
        let passes = &self.evict_passes_tick;
        let mut evicted = self.evict_until(low, Some((core, n_cores)), budget, passes);
        if evicted == 0 {
            // This core's partitions had nothing evictable; re-measure
            // and widen to the whole store before crying foul.
            evicted = self.evict_until(low, None, budget, passes);
            if evicted == 0 && self.mempool.used_bytes() > self.watermarks.high_bytes {
                self.accounting_warnings.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Evicts until mempool occupancy is at or under `target_used`, no
    /// victims remain, or `max_victims` were reclaimed. `owned` narrows
    /// the scan to one core's partitions (`p % n_cores == core`); `None`
    /// scans all. Returns the number of items evicted, and counts the
    /// call in `passes` if that is not zero.
    fn evict_until(
        &self,
        target_used: usize,
        owned: Option<(usize, usize)>,
        max_victims: u64,
        passes: &AtomicU64,
    ) -> u64 {
        let n_parts = self.partitions.len();
        let rotor = self.evict_rotor.fetch_add(1, Ordering::Relaxed);
        // The pass visits partitions `first`, `first + stride`, ...
        let (first, stride, count) = match owned {
            Some((core, n_cores)) => {
                let first = core % n_cores;
                (
                    first,
                    n_cores,
                    n_parts.saturating_sub(first).div_ceil(n_cores),
                )
            }
            None => (rotor % n_parts, 1, n_parts),
        };
        let done = |evicted| evicted >= max_victims || self.mempool.used_bytes() <= target_used;
        let mut evicted = 0u64;
        'pass: while !done(evicted) {
            let mut progressed = false;
            for i in 0..count {
                if done(evicted) {
                    break 'pass;
                }
                let partition = &self.partitions[(first + i * stride) % n_parts];
                let mut hand = partition.clock_hand.lock();
                self.find_victims(&partition.items, &mut hand);
                for &(key, _) in &hand.candidates {
                    if done(evicted) {
                        break;
                    }
                    if self.remove_victim(key, RemoveCause::Evict) {
                        evicted += 1;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        if evicted > 0 {
            passes.fetch_add(1, Ordering::Relaxed);
        }
        evicted
    }

    /// Advances a partition's CLOCK hand past the next victim window
    /// (see [`ItemTable::find_cold`]), leaving the candidate keys with
    /// their charges in `hand.candidates`, best victim first (empty
    /// when the partition holds nothing evictable). Plain CLOCK yields
    /// the first unreferenced item; size-aware CLOCK collects a window
    /// of unreferenced candidates and yields them largest-block-first,
    /// so the caller reclaims the big blocks and stops before touching
    /// the small ones.
    fn find_victims(&self, items: &ItemTable, hand: &mut ClockHand) {
        let window = match self.capacity.policy {
            EvictionPolicy::SizeAwareClock => self.capacity.candidate_window.max(1),
            _ => 1,
        };
        let words = items.find_cold(hand, window);
        self.evict_scan_words.fetch_add(words, Ordering::Relaxed);
        hand.candidates
            .sort_unstable_by_key(|&(_, charge)| std::cmp::Reverse(charge));
    }

    /// Visits the next [`TTL_SWEEP_ITEMS`] live items behind partition
    /// `p`'s rotating cursor, reclaiming every expired one (the active
    /// half of TTL expiry).
    fn sweep_expired(&self, p: usize, now_ns: u64) {
        let partition = &self.partitions[p];
        let start = partition.sweep_cursor.load(Ordering::Relaxed);
        let resume = partition
            .items
            .sweep_live(start, TTL_SWEEP_ITEMS, |key, expires_at| {
                if is_expired(expires_at, now_ns) {
                    self.remove_victim(key, RemoveCause::Expire { now: now_ns });
                }
            });
        partition.sweep_cursor.store(resume, Ordering::Relaxed);
    }

    /// Removes `key` for the capacity subsystem — eviction or expiry —
    /// mirroring [`Store::delete`]'s locked splice but feeding the
    /// capacity counters instead of `store.deletes`. An `Expire`
    /// removal re-validates the deadline under the write lock, so a
    /// concurrent PUT that refreshed the key is never clobbered.
    fn remove_victim(&self, key: u64, cause: RemoveCause) -> bool {
        let h = keyhash(key);
        let parts = split(h, self.partitions.len(), self.num_buckets);
        let partition = &self.partitions[parts.partition];
        let primary = &partition.buckets[parts.bucket];
        let _guard = partition.locks[parts.bucket].lock();

        let Some((bucket_ref, slot)) =
            self.find_slot_locked(partition, parts.bucket, parts.tag, key)
        else {
            return false;
        };
        if let RemoveCause::Expire { now } = cause {
            match partition.items.expires_at(slot.item) {
                Some(deadline) if is_expired(deadline, now) => {}
                _ => return false,
            }
        }
        primary.write_begin();
        bucket_ref.0.set_slot(bucket_ref.1, None);
        primary.write_end();
        let freed = partition
            .items
            .free(slot.item)
            .map(|e| e.value.charged_bytes() as u64)
            .unwrap_or(0);
        self.items.fetch_sub(1, Ordering::Relaxed);
        match cause {
            RemoveCause::Evict => {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.evicted_bytes.fetch_add(freed, Ordering::Relaxed);
            }
            RemoveCause::Expire { .. } => {
                self.expired_keys.fetch_add(1, Ordering::Relaxed);
            }
        }
        true
    }

    /// Sums the capacity charge of every live item — the item table's
    /// own view of mempool occupancy. With no outstanding reservations
    /// and no reader-held value references, this equals
    /// [`Mempool::used_bytes`] exactly; the proptest suite holds the
    /// store to that identity across arbitrary PUT/GET/TTL/evict
    /// interleavings. O(items) with a lock per slot: an audit, not a
    /// hot-path call.
    pub fn audit_charged_bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.items.audit_charged_bytes())
            .sum()
    }

    /// Cross-checks the item bitmaps against the slots: an `occupied`
    /// bit must say whether its slot holds an item, and only an
    /// occupied slot may be referenced. Returns the number of occupied
    /// slots, or the first `(partition, slot)` that disagrees. An audit
    /// for a quiescent store, like [`Store::audit_charged_bytes`].
    pub fn audit_item_bitmaps(&self) -> Result<u64, (usize, usize)> {
        self.partitions
            .iter()
            .enumerate()
            .try_fold(0, |live, (p, partition)| {
                Ok(live + partition.items.audit_bitmaps().map_err(|slot| (p, slot))?)
            })
    }

    /// Scans the chain under the writer lock for the slot holding `key`.
    /// Returns the bucket + slot index and the decoded slot.
    #[allow(clippy::type_complexity)]
    fn find_slot_locked<'p>(
        &self,
        partition: &'p Partition,
        primary: usize,
        tag: u16,
        key: u64,
    ) -> Option<((&'p Bucket, usize), Slot)> {
        for bucket in partition.chain(primary) {
            for (i, slot) in bucket.occupied() {
                if slot.tag == tag && partition.items.key_at(slot.item) == Some(key) {
                    return Some(((bucket, i), slot));
                }
            }
        }
        None
    }

    /// Finds (or creates, by chaining an overflow bucket) an empty slot
    /// in the chain of `primary`. Caller holds the writer lock.
    fn claim_empty_slot<'p>(
        &self,
        partition: &'p Partition,
        primary: usize,
    ) -> Option<(&'p Bucket, usize)> {
        let mut last: &Bucket = &partition.buckets[primary];
        for bucket in partition.chain(primary) {
            if let Some(i) = bucket.first_empty() {
                return Some((bucket, i));
            }
            last = bucket;
        }
        // Chain full: dynamically assign an overflow bucket (§4.2).
        let idx = partition
            .overflow_claimed
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |claimed| {
                (claimed < partition.overflow.len()).then_some(claimed + 1)
            })
            .ok()?;
        let fresh = partition.overflow.build(idx);
        debug_assert_eq!(fresh.occupied().count(), 0);
        last.next.store(idx as u32, Ordering::Release);
        Some((fresh, 0))
    }

    /// Access to the value memory pool (capacity/usage reporting).
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            get_hits: self.get_hits.load(Ordering::Relaxed),
            get_misses: self.get_misses.load(Ordering::Relaxed),
            get_retries: self.get_retries.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            put_failures: self.put_failures.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            overflow_in_use: self
                .partitions
                .iter()
                .map(|p| p.overflow_claimed.load(Ordering::Relaxed) as u64)
                .sum(),
            items: self.items.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            evicted_bytes: self.evicted_bytes.load(Ordering::Relaxed),
            expired_keys: self.expired_keys.load(Ordering::Relaxed),
            admission_rejects: self.admission_rejects.load(Ordering::Relaxed),
            accounting_warnings: self.accounting_warnings.load(Ordering::Relaxed),
            evict_scan_words: self.evict_scan_words.load(Ordering::Relaxed),
            evict_passes_tick: self.evict_passes_tick.load(Ordering::Relaxed),
            evict_passes_reserve: self.evict_passes_reserve.load(Ordering::Relaxed),
        }
    }

    /// Bytes of index the store has built (`store.index_bytes`): the
    /// primary buckets, their locks and the item bitmaps from the start,
    /// and the item slots and overflow buckets as they are first used.
    /// Values are the mempool's.
    pub fn index_bytes(&self) -> usize {
        use std::mem::size_of;
        let partition = |p: &Partition| {
            p.buckets.len() * size_of::<Bucket>()
                + p.overflow.footprint_bytes()
                + p.locks.len() * size_of::<Mutex<()>>()
                + p.items.footprint_bytes()
        };
        self.partitions.iter().map(partition).sum()
    }

    /// Number of items currently stored.
    pub fn len(&self) -> u64 {
        self.items.load(Ordering::Relaxed)
    }

    /// True if the store holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The store contributes its own and its mempool's metrics under the
/// canonical `store.*` / `mempool.*` names, so a server registers
/// `Arc<Store>` directly as a snapshot-time collector.
impl minos_obs::Collector for Store {
    fn collect(&self, out: &mut Vec<(String, minos_obs::MetricValue)>) {
        use minos_obs::MetricValue::{Counter, Gauge};
        let s = self.stats();
        out.push(("store.get_hits".to_string(), Counter(s.get_hits)));
        out.push(("store.get_misses".to_string(), Counter(s.get_misses)));
        out.push(("store.get_retries".to_string(), Counter(s.get_retries)));
        out.push(("store.puts".to_string(), Counter(s.puts)));
        out.push(("store.put_failures".to_string(), Counter(s.put_failures)));
        out.push(("store.deletes".to_string(), Counter(s.deletes)));
        out.push((
            "store.overflow_in_use".to_string(),
            Gauge(s.overflow_in_use as f64),
        ));
        out.push(("store.items".to_string(), Gauge(s.items as f64)));
        out.push((
            "store.index_bytes".to_string(),
            Gauge(self.index_bytes() as f64),
        ));
        out.push(("store.evictions".to_string(), Counter(s.evictions)));
        out.push(("store.evicted_bytes".to_string(), Counter(s.evicted_bytes)));
        out.push(("store.expired_keys".to_string(), Counter(s.expired_keys)));
        out.push((
            "store.admission_rejects".to_string(),
            Counter(s.admission_rejects),
        ));
        out.push((
            "store.accounting_warnings".to_string(),
            Counter(s.accounting_warnings),
        ));
        out.push((
            "store.evict_scan_words".to_string(),
            Counter(s.evict_scan_words),
        ));
        out.push((
            "store.evict_passes.tick".to_string(),
            Counter(s.evict_passes_tick),
        ));
        out.push((
            "store.evict_passes.reserve".to_string(),
            Counter(s.evict_passes_reserve),
        ));
        let m = self.mempool.stats();
        out.push(("mempool.allocs".to_string(), Counter(m.allocs)));
        out.push(("mempool.reuses".to_string(), Counter(m.reuses)));
        out.push(("mempool.failures".to_string(), Counter(m.failures)));
        out.push(("mempool.frees".to_string(), Counter(m.frees)));
        out.push(("mempool.copied_bytes".to_string(), Counter(m.copied_bytes)));
        out.push(("mempool.used_bytes".to_string(), Gauge(m.used_bytes as f64)));
        out.push(("mempool.held_bytes".to_string(), Gauge(m.held_bytes as f64)));
        out.push(("mempool.free_bytes".to_string(), Gauge(m.free_bytes as f64)));
        out.push((
            "mempool.value_bytes".to_string(),
            Gauge(m.value_bytes as f64),
        ));
        out.push((
            "mempool.capacity_bytes".to_string(),
            Gauge(m.capacity_bytes as f64),
        ));
        out.push((
            "mempool.occupancy".to_string(),
            Gauge(if m.capacity_bytes == 0 {
                0.0
            } else {
                m.used_bytes as f64 / m.capacity_bytes as f64
            }),
        ));
        out.push((
            "mempool.high_watermark_bytes".to_string(),
            Gauge(self.watermarks.high_bytes as f64),
        ));
        out.push((
            "mempool.low_watermark_bytes".to_string(),
            Gauge(self.watermarks.low_bytes as f64),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_store() -> Store {
        // 4 partitions x (16 buckets x 7 slots + 32 overflow x 7 slots):
        // enough for the 1000-key test below (~250 keys per partition)
        // while still forcing overflow chains.
        Store::new(StoreConfig {
            partitions: 4,
            buckets_per_partition: 16,
            overflow_per_partition: 32,
            items_per_partition: 512,
            mempool_bytes: 16 << 20,
            max_value_bytes: 1 << 20,
            capacity: CapacityConfig::default(),
        })
    }

    #[test]
    fn get_missing_returns_none() {
        let s = small_store();
        assert_eq!(s.get(42), None);
        assert_eq!(s.stats().get_misses, 1);
    }

    #[test]
    fn put_get_roundtrip() {
        let s = small_store();
        s.put(42, b"value-42").unwrap();
        assert_eq!(&s.get(42).unwrap()[..], b"value-42");
        assert_eq!(s.len(), 1);
        assert_eq!(s.value_len(42), Some(8));
    }

    #[test]
    fn put_replaces_value() {
        let s = small_store();
        s.put(1, b"old").unwrap();
        s.put(1, b"the new, longer value").unwrap();
        assert_eq!(&s.get(1).unwrap()[..], b"the new, longer value");
        assert_eq!(s.len(), 1, "replacement does not grow the store");
    }

    #[test]
    fn two_phase_put_matches_one_shot() {
        let s = small_store();
        // Fill a reservation in out-of-order chunks, as streaming
        // reassembly does, then commit.
        let value: Vec<u8> = (0..10_000).map(|i| (i % 247) as u8).collect();
        let mut r = s.reserve(value.len()).unwrap();
        r.write_at(4_000, &value[4_000..]);
        r.write_at(0, &value[..4_000]);
        s.put_reserved(9, r.seal()).unwrap();
        assert_eq!(&s.get(9).unwrap()[..], &value[..]);
        assert_eq!(s.stats().puts, 1);
        assert_eq!(
            s.mempool().stats().copied_bytes,
            value.len() as u64,
            "exactly one copy of the value, end to end"
        );
        // Replacement through the same path.
        let mut r = s.reserve(3).unwrap();
        r.write_at(0, b"new");
        s.put_reserved(9, r.seal()).unwrap();
        assert_eq!(&s.get(9).unwrap()[..], b"new");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn abandoned_reservation_releases_memory_and_counts_failure() {
        let s = Store::new(StoreConfig {
            partitions: 1,
            buckets_per_partition: 16,
            overflow_per_partition: 4,
            items_per_partition: 64,
            mempool_bytes: 4096,
            max_value_bytes: 1 << 16,
            capacity: CapacityConfig::default(),
        });
        let r = s.reserve(4096).unwrap();
        assert!(s.reserve(1).is_none(), "pool fully reserved");
        assert_eq!(s.stats().put_failures, 1);
        drop(r);
        assert_eq!(
            s.mempool().used_bytes(),
            0,
            "abandoned ingest leaks nothing"
        );
        assert!(s.reserve(1).is_some());
    }

    #[test]
    fn delete_removes() {
        let s = small_store();
        s.put(7, b"x").unwrap();
        assert!(s.delete(7));
        assert!(!s.delete(7));
        assert_eq!(s.get(7), None);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn delete_frees_pool_memory() {
        let s = small_store();
        s.put(7, &[0u8; 4096]).unwrap();
        let used = s.mempool().used_bytes();
        assert!(used >= 4096);
        assert!(s.delete(7));
        assert_eq!(s.mempool().used_bytes(), 0);
    }

    #[test]
    fn many_keys_roundtrip_through_overflow() {
        // 4 partitions * 16 buckets * 7 slots = 448 primary slots; 1000
        // keys force overflow chaining.
        let s = small_store();
        for k in 0..1000u64 {
            s.put(k, format!("value-{k}").as_bytes()).unwrap();
        }
        assert!(s.stats().overflow_in_use > 0, "overflow exercised");
        for k in 0..1000u64 {
            assert_eq!(
                &s.get(k).unwrap()[..],
                format!("value-{k}").as_bytes(),
                "key {k}"
            );
        }
        assert_eq!(s.len(), 1000);
        // And delete them all again.
        for k in 0..1000u64 {
            assert!(s.delete(k), "key {k}");
        }
        assert_eq!(s.len(), 0);
        assert_eq!(s.mempool().used_bytes(), 0);
    }

    #[test]
    fn table_full_reported() {
        let s = Store::new(StoreConfig {
            partitions: 1,
            buckets_per_partition: 1,
            overflow_per_partition: 0,
            items_per_partition: 100,
            mempool_bytes: 1 << 20,
            max_value_bytes: 1 << 16,
            capacity: CapacityConfig::default(),
        });
        let mut stored = 0;
        let mut failed = false;
        for k in 0..100u64 {
            match s.put(k, b"v") {
                Ok(()) => stored += 1,
                Err(PutError::TableFull) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(failed, "tiny table must fill up");
        assert_eq!(stored as u64, s.len());
    }

    #[test]
    fn out_of_memory_reported() {
        let s = Store::new(StoreConfig {
            partitions: 1,
            buckets_per_partition: 16,
            overflow_per_partition: 4,
            items_per_partition: 64,
            mempool_bytes: 1024,
            max_value_bytes: 1 << 16,
            capacity: CapacityConfig::default(),
        });
        assert_eq!(s.put(1, &[0u8; 2048]), Err(PutError::OutOfMemory));
        assert_eq!(s.stats().put_failures, 1);
    }

    #[test]
    fn large_values() {
        let s = small_store();
        let big = vec![0xAB; 1 << 20];
        s.put(5, &big).unwrap();
        let got = s.get(5).unwrap();
        assert_eq!(got.len(), big.len());
        assert_eq!(&got[..], &big[..]);
    }

    #[test]
    fn reader_holds_value_across_replacement() {
        let s = small_store();
        s.put(1, b"first").unwrap();
        let held = s.get(1).unwrap();
        s.put(1, b"second").unwrap();
        // The old buffer is still alive and unchanged for the reader.
        assert_eq!(&held[..], b"first");
        assert_eq!(&s.get(1).unwrap()[..], b"second");
    }

    #[test]
    fn concurrent_readers_writers_consistency() {
        use std::sync::Arc;
        // Writers store self-describing values; readers must never see a
        // value inconsistent with its key (torn or mismatched).
        let s = Arc::new(small_store());
        let keys = 64u64;
        for k in 0..keys {
            s.put(k, &pattern(k, 0)).unwrap();
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let writers: Vec<_> = (0..2)
            .map(|w| {
                let s = Arc::clone(&s);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut round = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        for k in (w..keys).step_by(2) {
                            s.put(k, &pattern(k, round)).unwrap();
                        }
                        round += 1;
                    }
                })
            })
            .collect();

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut checked = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for k in 0..keys {
                            if let Some(v) = s.get(k) {
                                assert_valid_pattern(k, &v);
                                checked += 1;
                            }
                        }
                    }
                    checked
                })
            })
            .collect();

        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0, "readers made progress");
    }

    fn pattern(key: u64, round: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(64);
        v.extend_from_slice(&key.to_le_bytes());
        v.extend_from_slice(&round.to_le_bytes());
        let check = key.wrapping_mul(31).wrapping_add(round);
        v.extend_from_slice(&check.to_le_bytes());
        v
    }

    fn assert_valid_pattern(key: u64, v: &[u8]) {
        assert_eq!(v.len(), 24);
        let k = u64::from_le_bytes(v[0..8].try_into().unwrap());
        let round = u64::from_le_bytes(v[8..16].try_into().unwrap());
        let check = u64::from_le_bytes(v[16..24].try_into().unwrap());
        assert_eq!(k, key, "value belongs to a different key");
        assert_eq!(
            check,
            key.wrapping_mul(31).wrapping_add(round),
            "torn value"
        );
    }

    // ---- Capacity tiering ----

    /// A 64 KiB mempool with eviction on: 64 one-class (1 KiB) values
    /// fill it exactly.
    fn evicting_store(policy: EvictionPolicy) -> Store {
        Store::new(StoreConfig {
            partitions: 1,
            buckets_per_partition: 64,
            overflow_per_partition: 32,
            items_per_partition: 256,
            mempool_bytes: 64 << 10,
            max_value_bytes: 1 << 16,
            capacity: CapacityConfig {
                policy,
                ..CapacityConfig::default()
            },
        })
    }

    #[test]
    fn churn_past_capacity_evicts_instead_of_oom() {
        let s = evicting_store(EvictionPolicy::Clock);
        // 4x the pool's worth of distinct 1 KiB keys.
        for k in 0..256u64 {
            s.put(k, &[k as u8; 1024]).unwrap();
        }
        let stats = s.stats();
        assert_eq!(stats.put_failures, 0, "no OOM under churn");
        assert!(stats.evictions > 0);
        assert!(stats.evicted_bytes >= stats.evictions * 1024);
        // PUTs refill between reservation-path passes; a housekeeping
        // tick restores the watermark invariant.
        s.capacity_tick(0, 1, 1);
        assert!(s.mempool().used_bytes() <= s.watermarks().low_bytes);
        assert_eq!(s.stats().accounting_warnings, 0);
    }

    #[test]
    fn clock_second_chance_prefers_cold_keys() {
        let s = evicting_store(EvictionPolicy::Clock);
        for k in 0..56u64 {
            s.put(k, &[0u8; 1024]).unwrap();
        }
        // Churn well past the high watermark while keys 0..8 stay hot:
        // their reference bits are re-set between eviction passes, so the
        // hand's second chance spares them while cold keys go.
        for k in 100..140u64 {
            for hot in 0..8u64 {
                s.get(hot);
            }
            s.put(k, &[1u8; 1024]).unwrap();
        }
        assert!(s.stats().evictions > 0);
        let hot_alive = (0..8u64).filter(|&k| s.get(k).is_some()).count();
        assert!(
            hot_alive >= 6,
            "second chance kept the hot set ({hot_alive}/8 alive)"
        );
    }

    /// Fills a store with 32 cold small values plus two cold 12 KiB
    /// (16 KiB-class) large ones — exactly pool capacity — then churns
    /// 16 more smalls so eviction must reclaim ~13 KiB. Returns
    /// (evictions, smalls still alive).
    fn mixed_churn(policy: EvictionPolicy) -> (u64, usize) {
        let s = evicting_store(policy);
        for k in 0..32u64 {
            s.put(k, &[0u8; 1024]).unwrap();
        }
        s.put(1000, &[2u8; 12 << 10]).unwrap();
        s.put(1001, &[2u8; 12 << 10]).unwrap();
        for k in 2000..2016u64 {
            s.put(k, &[3u8; 1024]).unwrap();
        }
        let alive = (0..32u64).filter(|&k| s.get(k).is_some()).count();
        (s.stats().evictions, alive)
    }

    #[test]
    fn size_aware_clock_prefers_large_victims() {
        // Plain CLOCK is size-blind: freeing ~13 KiB costs it a dozen
        // small victims before the hand ever reaches a large block.
        // Size-aware CLOCK weighs the candidate window and reclaims a
        // 16 KiB block within a few victims.
        let (clock_evictions, clock_alive) = mixed_churn(EvictionPolicy::Clock);
        let (sa_evictions, sa_alive) = mixed_churn(EvictionPolicy::SizeAwareClock);
        assert!(sa_evictions > 0);
        assert!(
            sa_evictions < clock_evictions,
            "size-aware took {sa_evictions} victims, plain clock {clock_evictions}"
        );
        assert!(
            sa_alive > clock_alive,
            "size-aware kept {sa_alive}/32 smalls resident, plain clock {clock_alive}/32"
        );
    }

    #[test]
    fn expired_key_never_served_and_reclaimed_lazily() {
        let s = small_store();
        s.put_with_ttl(1, b"short-lived", 5).unwrap();
        s.put(2, b"forever").unwrap();
        assert_eq!(&s.get(1).unwrap()[..], b"short-lived");
        s.set_clock_ns(5_000_000); // exactly the 5 ms deadline
        assert_eq!(s.get(1), None, "expired key must miss");
        assert_eq!(s.stats().expired_keys, 1, "lazy reclaim fired");
        assert_eq!(s.len(), 1, "only the TTL'd key is gone");
        assert_eq!(&s.get(2).unwrap()[..], b"forever");
    }

    #[test]
    fn put_refreshes_ttl() {
        let s = small_store();
        s.put_with_ttl(1, b"v1", 5).unwrap();
        s.set_clock_ns(4_000_000);
        s.put_with_ttl(1, b"v2", 5).unwrap(); // deadline now 9 ms
        s.set_clock_ns(6_000_000);
        assert_eq!(&s.get(1).unwrap()[..], b"v2", "refreshed TTL holds");
        s.set_clock_ns(9_000_000);
        assert_eq!(s.get(1), None);
    }

    #[test]
    fn active_sweep_reclaims_cold_expired_keys() {
        let s = small_store();
        for k in 0..100u64 {
            s.put_with_ttl(k, b"ttl", 1).unwrap();
        }
        for k in 100..110u64 {
            s.put(k, b"keep").unwrap();
        }
        let used_before = s.mempool().used_bytes();
        s.set_clock_ns(2_000_000);
        // Ticks sweep a budgeted window per partition; a few rounds
        // cover every slot. Nothing GETs the expired keys.
        for _ in 0..8 {
            s.capacity_tick(0, 1, s.clock_ns());
        }
        assert_eq!(s.stats().expired_keys, 100);
        assert_eq!(s.len(), 10);
        assert!(s.mempool().used_bytes() < used_before);
        for k in 100..110u64 {
            assert!(s.get(k).is_some(), "TTL-free key {k} untouched");
        }
    }

    #[test]
    fn admission_rejects_large_puts_at_high_watermark() {
        let s = evicting_store(EvictionPolicy::Clock);
        // Park occupancy just under capacity (above the 90 % watermark).
        for k in 0..60u64 {
            s.put(k, &[0u8; 1024]).unwrap();
        }
        assert!(s.mempool().used_bytes() >= s.watermarks().high_bytes);
        assert!(s.admit_put(1024), "small PUTs always admitted");
        assert!(
            !s.admit_put(s.capacity_config().admission_cutoff_bytes),
            "cutoff-sized PUT rejected at the high watermark"
        );
        assert_eq!(s.stats().admission_rejects, 1);
        // And regardless of occupancy, a value whose charge can never
        // fit under the high watermark is turned away (cutoff lowered so
        // the size check, not the cutoff, decides).
        let s2 = Store::new(StoreConfig {
            partitions: 1,
            buckets_per_partition: 64,
            overflow_per_partition: 32,
            items_per_partition: 256,
            mempool_bytes: 64 << 10,
            max_value_bytes: 1 << 16,
            capacity: CapacityConfig {
                policy: EvictionPolicy::Clock,
                admission_cutoff_bytes: 4096,
                ..CapacityConfig::default()
            },
        });
        assert!(!s2.admit_put(s2.watermarks().high_bytes + 1));
        assert!(s2.admit_put(4095), "below the cutoff is always admitted");
    }

    #[test]
    fn capacity_tick_enforces_watermarks() {
        let s = evicting_store(EvictionPolicy::Clock);
        let wm = s.watermarks();
        for k in 0..63u64 {
            s.put(k, &[0u8; 1024]).unwrap();
        }
        assert!(s.mempool().used_bytes() > wm.high_bytes);
        assert_eq!(s.stats().evictions, 0, "no eviction below a reserve miss");
        s.capacity_tick(0, 1, 1);
        assert!(
            s.mempool().used_bytes() <= wm.low_bytes,
            "tick evicted down to the low watermark"
        );
        assert!(s.stats().evictions > 0);
        assert_eq!(s.stats().accounting_warnings, 0);
    }

    #[test]
    fn audit_matches_mempool_accounting() {
        let s = evicting_store(EvictionPolicy::SizeAwareClock);
        for k in 0..200u64 {
            // Mixed size classes, some replaced, some deleted.
            let len = 64 + (k as usize * 37) % 3000;
            s.put(k % 80, &vec![k as u8; len]).unwrap();
            if k % 11 == 0 {
                s.delete(k % 80);
            }
        }
        s.capacity_tick(0, 1, 1);
        assert_eq!(
            s.audit_charged_bytes(),
            s.mempool().used_bytes(),
            "item-table charges equal mempool occupancy"
        );
        assert_eq!(s.stats().accounting_warnings, 0);
    }

    #[test]
    fn eviction_off_store_unchanged_under_pressure() {
        // The seed behavior: policy None answers OOM, evicts nothing.
        let s = evicting_store(EvictionPolicy::None);
        let mut oom = 0;
        for k in 0..80u64 {
            match s.put(k, &[0u8; 1024]) {
                Ok(()) => {}
                Err(PutError::OutOfMemory) => oom += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(oom > 0, "no eviction: pool exhaustion surfaces");
        assert_eq!(s.stats().evictions, 0);
        assert_eq!(s.stats().admission_rejects, 0);
    }

    // ---- The bitmap CLOCK hand against the scan it replaced ----

    /// The slot-by-slot CLOCK scan the store ran before the bitmap
    /// hand, over a plain `Vec` with the same LIFO freelist: the
    /// reference `find_victims` is held to, victim for victim.
    struct ScanModel {
        /// `(key, charge, referenced)` per item slot.
        slots: Vec<Option<(u64, usize, bool)>>,
        freelist: Vec<u32>,
        hand: usize,
        /// Slots the scan visited, one lock each.
        steps: u64,
    }

    impl ScanModel {
        fn new(cap: usize) -> Self {
            ScanModel {
                slots: vec![None; cap],
                freelist: (0..cap as u32).rev().collect(),
                hand: 0,
                steps: 0,
            }
        }

        fn slot_of(&self, key: u64) -> Option<usize> {
            self.slots
                .iter()
                .position(|s| s.is_some_and(|(k, ..)| k == key))
        }

        fn put(&mut self, key: u64, charge: usize) {
            let (idx, referenced) = match self.slot_of(key) {
                Some(idx) => (idx, true),
                None => (
                    self.freelist.pop().expect("model table full") as usize,
                    false,
                ),
            };
            self.slots[idx] = Some((key, charge, referenced));
        }

        fn get(&mut self, key: u64) {
            if let Some(idx) = self.slot_of(key) {
                self.slots[idx].as_mut().unwrap().2 = true;
            }
        }

        fn delete(&mut self, key: u64) {
            if let Some(idx) = self.slot_of(key) {
                self.slots[idx] = None;
                self.freelist.push(idx as u32);
            }
        }

        fn find_victims(&mut self, window: usize) -> Vec<(u64, usize)> {
            let cap = self.slots.len();
            let start = self.hand;
            let mut candidates: Vec<(u64, usize)> = Vec::with_capacity(window);
            let mut steps = 0usize;
            // Up to two sweeps: the first may only clear reference bits.
            while steps < cap * 2 && candidates.len() < window {
                let idx = (start + steps) % cap;
                steps += 1;
                if let Some((key, charge, referenced)) = self.slots[idx].as_mut() {
                    if *referenced {
                        *referenced = false;
                    } else {
                        candidates.push((*key, *charge));
                    }
                }
            }
            self.hand = (start + steps) % cap;
            self.steps += steps as u64;
            candidates.sort_unstable_by_key(|&(_, charge)| std::cmp::Reverse(charge));
            candidates
        }
    }

    /// A one-partition store whose pool never fills, so the hand moves
    /// only when a test moves it.
    fn hand_store(policy: EvictionPolicy, slots: usize, candidate_window: usize) -> Store {
        Store::new(StoreConfig {
            partitions: 1,
            buckets_per_partition: 256,
            overflow_per_partition: 64,
            items_per_partition: slots,
            mempool_bytes: 16 << 20,
            max_value_bytes: 1 << 16,
            capacity: CapacityConfig {
                policy,
                candidate_window,
                ..CapacityConfig::default()
            },
        })
    }

    /// One scan of partition 0's hand, as `evict_until` runs it.
    fn scan(s: &Store) -> Vec<(u64, usize)> {
        let partition = &s.partitions[0];
        let mut hand = partition.clock_hand.lock();
        s.find_victims(&partition.items, &mut hand);
        hand.candidates.clone()
    }

    fn assert_bits_match(s: &Store, model: &ScanModel, context: &str) {
        // The occupied bits are held to the slots by the audit; the
        // model says which slots those are through the reference bits.
        assert_eq!(s.audit_item_bitmaps(), Ok(s.len()), "{context}");
        let wanted: Vec<bool> = model
            .slots
            .iter()
            .map(|slot| slot.is_some_and(|(.., r)| r))
            .collect();
        let referenced = s.partitions[0].items.reference_bits();
        assert_eq!(referenced, Some(wanted), "{context}: reference bits");
    }

    fn hand_conforms(policy: EvictionPolicy, candidate_window: usize, seed: u64) {
        // 200 slots: three full bitmap words and a partial fourth.
        let s = hand_store(policy, 200, candidate_window);
        let mut model = ScanModel::new(200);
        let window = match policy {
            EvictionPolicy::SizeAwareClock => candidate_window,
            _ => 1,
        };
        let mut rng = seed;
        let mut next = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        for step in 0..3_000 {
            let key = next(180);
            let context = format!("{policy:?} window {candidate_window} seed {seed} step {step}");
            match next(10) {
                0..=3 => {
                    let len = 1 + next(5_000) as usize;
                    s.put(key, &vec![0u8; len]).unwrap();
                    model.put(key, s.mempool().charged_bytes(len).unwrap());
                }
                4..=6 => {
                    s.get(key);
                    model.get(key);
                }
                7 => {
                    s.delete(key);
                    model.delete(key);
                }
                _ => {
                    let victims = scan(&s);
                    assert_eq!(victims, model.find_victims(window), "{context}");
                    // Evict a prefix, as a pass that reaches its target does.
                    let take = next(window as u64 + 1) as usize;
                    for &(key, _) in victims.iter().take(take) {
                        // The second sweep may name a key twice.
                        s.remove_victim(key, RemoveCause::Evict);
                        model.delete(key);
                    }
                }
            }
            assert_bits_match(&s, &model, &context);
        }
        assert!(s.stats().evictions > 0, "the hand evicted");
    }

    #[test]
    fn bitmap_hand_names_the_old_scans_victims() {
        for seed in 1..=8 {
            hand_conforms(EvictionPolicy::Clock, 1, seed);
            hand_conforms(EvictionPolicy::SizeAwareClock, 5, seed);
            hand_conforms(EvictionPolicy::SizeAwareClock, 32, seed);
        }
    }

    #[test]
    fn sparse_table_scan_cost_follows_live_items() {
        // 1 000 live items in a 100 000-slot partition, every one of
        // them referenced: the worst case for the old scan, whose first
        // call crossed the whole table to clear the bits.
        let s = hand_store(EvictionPolicy::SizeAwareClock, 100_000, 32);
        let mut model = ScanModel::new(100_000);
        for key in 0..1_000u64 {
            s.put(key, &[0u8; 1024]).unwrap();
            s.get(key);
            model.put(key, 1024);
            model.get(key);
        }
        let target = s.mempool().used_bytes() - 500 * 1024;
        let evicted = s.evict_until(target, None, u64::MAX, &s.evict_passes_reserve);
        assert_eq!(evicted, 500);
        let mut model_evicted = 0;
        while model_evicted < 500 {
            for (key, _) in model.find_victims(32) {
                if model_evicted < 500 {
                    model.delete(key);
                    model_evicted += 1;
                }
            }
        }
        let stats = s.stats();
        assert_eq!(stats.evict_passes_reserve, 1);
        // Two turns of the 16 live words, then a word or two per call.
        assert!(
            stats.evict_scan_words <= 64,
            "{} words for 500 victims",
            stats.evict_scan_words
        );
        assert!(
            model.steps >= 100 * 64,
            "the slot-by-slot scan took {} steps",
            model.steps
        );
        for key in 0..1_000u64 {
            assert_eq!(s.get(key).is_some(), model.slot_of(key).is_some(), "{key}");
        }
    }

    #[test]
    fn eviction_off_keeps_no_reference_bits() {
        let s = small_store();
        s.put(1, b"v").unwrap();
        s.get(1);
        assert!(s
            .partitions
            .iter()
            .all(|p| p.items.reference_bits().is_none()));
        assert_eq!(s.audit_item_bitmaps(), Ok(1));
    }

    /// Four writers start together on an empty one-partition store, so
    /// they race to build its first item-slot and overflow chunks.
    #[test]
    fn concurrent_puts_build_the_first_chunks_once() {
        let s = Store::new(StoreConfig {
            partitions: 1,
            buckets_per_partition: 256,
            overflow_per_partition: 2048,
            items_per_partition: 8192,
            mempool_bytes: 16 << 20,
            max_value_bytes: 1 << 16,
            capacity: CapacityConfig::default(),
        });
        let (threads, per_thread) = (4u64, 1500u64);
        let start = std::sync::Barrier::new(threads as usize);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    start.wait();
                    for key in t * per_thread..(t + 1) * per_thread {
                        s.put(key, format!("value-{key}").as_bytes()).unwrap();
                    }
                });
            }
        });
        let total = threads * per_thread;
        for key in 0..total {
            assert_eq!(&s.get(key).unwrap()[..], format!("value-{key}").as_bytes());
        }
        assert!(s.stats().overflow_in_use > 0, "overflow exercised");
        assert_eq!(s.len(), total);
        assert_eq!(s.audit_item_bitmaps(), Ok(total));
        assert_eq!(s.audit_charged_bytes(), s.mempool().used_bytes());
    }
}
