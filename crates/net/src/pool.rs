//! Slab-backed, shard-per-queue buffer pool: the allocation-free RX
//! hot path (and the virtual backend's TX gather slots).
//!
//! Every datagram the UDP backend receives needs a refcounted payload
//! buffer that can outlive the syscall arena (reassembly may hold
//! fragments across bursts, the engine may hold packets across plan
//! changes). Before this module existed, that buffer was a fresh
//! heap allocation per datagram (`Bytes::copy_from_slice`); now the
//! kernel writes straight into a pooled slot and the slot travels as a
//! [`Bytes`] — zero copies and, in steady state, zero allocations per
//! datagram.
//!
//! Design:
//!
//! * [`BufferPool::new`] / [`BufferPool::sharded`] allocate `slots`
//!   fixed-size buffers up front (the slab: one zeroed allocation,
//!   carved) and distribute them over per-shard freelists — one shard
//!   per RX queue on the UDP backend, so concurrently polling cores
//!   stop bouncing one shared mutex cache line on every take.
//! * [`BufferPool::take_on`] pops a slot from the caller's shard
//!   ([`PooledBuf`], mutably accessible — the syscall target). An empty
//!   shard *steals* from its neighbors (counted in
//!   [`PoolStats::steals`]) before falling back to a fresh allocation
//!   (a *miss*); the hot path never fails.
//! * [`PooledBuf::freeze`] turns the filled slot into an immutable,
//!   refcounted [`Bytes`] (via `Bytes::from_owner`, no copy). When the
//!   last clone/slice of that `Bytes` drops, the slot returns to the
//!   freelist of the shard it was taken from — from anywhere, on any
//!   thread — so buffers follow the traffic to hot shards.
//! * [`BufferPool::stats`] exposes hit/miss/steal counters and an
//!   outstanding-buffers gauge, surfaced through
//!   [`crate::UdpIoStats`] so CI can assert the steady-state hit rate.
//!
//! The pool is bounded by the initial slab size: each shard's freelist
//! is capped at its share of the slab (recycles spill to sibling
//! shards when the home shard is full), so fallback-allocated buffers
//! from a transient burst are released to the allocator instead of
//! permanently inflating memory — and a slab buffer is never released,
//! so the pool cannot shrink either.

use bytes::Bytes;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Pool observability counters. `hits / (hits + misses)` is the
/// fraction of takes served without touching the allocator;
/// `outstanding` counts *delivered* payloads (frozen buffers) whose
/// last reference has not dropped yet — it returns to zero once the
/// application has released every received datagram, so a non-zero
/// steady-state value is a payload leak. Payloads that share one
/// buffer (the datagrams of a train, [`PooledBuf::freeze_shared`]) all
/// count until that buffer is released. Writable slots staged inside
/// syscall arenas (checked out but not yet filled by the kernel) are
/// deliberately excluded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from a preallocated freelist (own shard or stolen).
    pub hits: u64,
    /// Takes that fell back to a fresh heap allocation.
    pub misses: u64,
    /// Hits that had to steal from another shard's freelist because the
    /// caller's shard was empty. Persistent steals mean the traffic
    /// distribution across queues has shifted; the pool rebalances
    /// itself because slots recycle to the shard that took them.
    pub steals: u64,
    /// Delivered payloads whose (frozen) buffer has not yet been
    /// returned by drop.
    pub outstanding: u64,
    /// Slab capacity the pool was created with.
    pub capacity: u64,
}

impl PoolStats {
    /// Fraction of takes served from the slab, in `[0, 1]`; 1.0 when
    /// the pool has never been used.
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.hits, self.misses)
    }

    /// Field-wise sum: the one set of `pool.*` gauges a transport with
    /// two slabs (MTU slots and train spill buffers) reports.
    pub fn merged(self, other: PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            steals: self.steals + other.steals,
            outstanding: self.outstanding + other.outstanding,
            capacity: self.capacity + other.capacity,
        }
    }
}

/// The one definition of "hit rate" every report derives from:
/// `hits / (hits + misses)`, or 1.0 before any traffic.
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        1.0
    } else {
        hits as f64 / total as f64
    }
}

/// The slab: one zero-initialised allocation carved into equal slots.
/// One allocation rather than one per slot because a multi-megabyte
/// zeroed request is served by fresh zero pages that become resident
/// only once written — so a pool sized for the worst burst (the train
/// spill buffers above all: 64 KiB each, most never filled past their
/// first pages) costs address space, not memory.
struct Slab {
    base: *mut [u8],
}

impl Slab {
    fn new(len: usize) -> Slab {
        Slab {
            base: Box::into_raw(vec![0u8; len].into_boxed_slice()),
        }
    }
}

// SAFETY: the slab is only an owner: nothing reads or writes through
// `base` (all access goes through the carved `Buf::Slot`s), and the
// one use of it — freeing, in `Drop` — may happen on any thread.
unsafe impl Send for Slab {}
// SAFETY: as above; `&Slab` offers no access to the bytes.
unsafe impl Sync for Slab {}

impl Drop for Slab {
    fn drop(&mut self) {
        // SAFETY: `base` came from `Box::into_raw` and is freed only here.
        drop(unsafe { Box::from_raw(self.base) });
    }
}

/// One pool buffer: a slot of the [`Slab`], or a heap allocation made
/// when every freelist was empty. Exclusively owned by its holder
/// either way.
enum Buf {
    /// `len` bytes at `ptr`, inside the slab of the [`Shared`] this
    /// buffer circulates in. Valid while that `Shared` lives — which
    /// every holder guarantees: the freelists are fields of it, and
    /// [`PooledBuf`] / [`PooledBytes`] each hold an `Arc` to it.
    Slot {
        ptr: NonNull<u8>,
        len: usize,
    },
    Heap(Box<[u8]>),
}

// SAFETY: slab slots are disjoint and each is handed out exactly once
// (carved in `BufferPool::sharded`, then only ever moved), so a `Buf`
// owns its bytes like a `Box` does and may cross threads like one.
unsafe impl Send for Buf {}
// SAFETY: as above; `&Buf` only gives `&[u8]`.
unsafe impl Sync for Buf {}

impl Buf {
    fn as_slice(&self) -> &[u8] {
        match self {
            // SAFETY: the slot is live (see `Buf::Slot`) and ours alone.
            Buf::Slot { ptr, len } => unsafe { std::slice::from_raw_parts(ptr.as_ptr(), *len) },
            Buf::Heap(buf) => buf,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        match self {
            // SAFETY: as in `as_slice`, and `&mut self` makes it unique.
            Buf::Slot { ptr, len } => unsafe { std::slice::from_raw_parts_mut(ptr.as_ptr(), *len) },
            Buf::Heap(buf) => buf,
        }
    }
}

impl Default for Buf {
    /// An empty buffer (what `mem::take` leaves behind); allocates
    /// nothing.
    fn default() -> Self {
        Buf::Heap(Box::default())
    }
}

struct Shard {
    free: Mutex<Vec<Buf>>,
    /// Buffers this shard's freelist may hold; the caps sum to the
    /// pool's slab size, so the pool as a whole stays bounded without
    /// any cross-shard counter (a global atomic would either race with
    /// the per-shard lists — leaking slab buffers to the allocator —
    /// or reintroduce the shared cache line the shards exist to kill).
    cap: usize,
}

struct Shared {
    slot_len: usize,
    capacity: usize,
    shards: Vec<Shard>,
    /// Backs every `Buf::Slot`; never read directly.
    _slab: Slab,
    hits: AtomicU64,
    misses: AtomicU64,
    steals: AtomicU64,
    outstanding: AtomicU64,
}

impl Shared {
    /// Returns a buffer to `home`'s freelist, spilling to the other
    /// shards when it is at capacity — only a buffer no shard has room
    /// for (a fallback allocation from a burst) goes back to the
    /// allocator, so the pool never shrinks below its slab.
    fn recycle(&self, home: usize, buf: Buf) {
        let n = self.shards.len();
        for i in 0..n {
            let shard = &self.shards[(home + i) % n];
            let mut free = shard.free.lock().unwrap_or_else(|e| e.into_inner());
            if free.len() < shard.cap {
                free.push(buf);
                return;
            }
        }
    }

    fn pop(&self, shard: usize) -> Option<Buf> {
        self.shards[shard]
            .free
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
    }

    #[cfg(test)]
    fn free_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.free.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }
}

/// A slab of fixed-size buffers recycled through per-shard freelists.
/// Cloning is cheap (`Arc`); all clones share the one slab.
#[derive(Clone)]
pub struct BufferPool {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "BufferPool(cap {} x{} shards, {} out, {} hits / {} misses / {} steals)",
            s.capacity,
            self.shared.shards.len(),
            s.outstanding,
            s.hits,
            s.misses,
            s.steals,
        )
    }
}

impl BufferPool {
    /// A single-shard pool of `slots` buffers of `slot_len` bytes each,
    /// all allocated now so the hot path never has to.
    pub fn new(slots: usize, slot_len: usize) -> Self {
        Self::sharded(slots, slot_len, 1)
    }

    /// A pool of `slots` buffers distributed over `shards` freelists.
    /// Give each RX queue its own shard ([`BufferPool::take_on`]) and
    /// concurrent pollers stop contending on one freelist mutex; an
    /// empty shard steals from its neighbors before allocating.
    pub fn sharded(slots: usize, slot_len: usize, shards: usize) -> Self {
        let slots = slots.max(1);
        let shards = shards.clamp(1, slots);
        assert!(slot_len > 0, "slots must hold at least one byte");
        let slab = Slab::new(slots * slot_len);
        let mut carved = (0..slots).map(|i| Buf::Slot {
            // SAFETY: slot `i` lies inside the `slots * slot_len`-byte
            // slab, whose base is non-null (it came from a `Box`).
            ptr: unsafe { NonNull::new_unchecked((slab.base as *mut u8).add(i * slot_len)) },
            len: slot_len,
        });
        let lists: Vec<Shard> = (0..shards)
            .map(|s| {
                // Distribute the slab evenly: shard s gets the base
                // share plus one of the remainder slots; its freelist
                // cap equals its share so the caps sum to `slots`.
                let share = slots / shards + usize::from(s < slots % shards);
                Shard {
                    free: Mutex::new(carved.by_ref().take(share).collect()),
                    cap: share,
                }
            })
            .collect();
        BufferPool {
            shared: Arc::new(Shared {
                slot_len,
                capacity: slots,
                shards: lists,
                _slab: slab,
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                steals: AtomicU64::new(0),
                outstanding: AtomicU64::new(0),
            }),
        }
    }

    /// Checks a writable buffer out of shard 0; see
    /// [`BufferPool::take_on`].
    pub fn take(&self) -> PooledBuf {
        self.take_on(0)
    }

    /// Checks a writable buffer out of the pool, preferring `shard`'s
    /// freelist (callers pass their queue index; out-of-range values
    /// wrap). An empty shard steals from the others; only when every
    /// freelist is empty does the take fall back to a fresh allocation
    /// (counted as a miss) — callers never see failure, only the miss
    /// counter moves. The slot recycles to `shard` when released, so
    /// buffers migrate toward the queues that actually take them.
    pub fn take_on(&self, shard: usize) -> PooledBuf {
        let n = self.shared.shards.len();
        let home = shard % n;
        let mut recycled = self.shared.pop(home);
        if recycled.is_none() {
            for i in 1..n {
                recycled = self.shared.pop((home + i) % n);
                if recycled.is_some() {
                    self.shared.steals.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        let buf = match recycled {
            Some(buf) => {
                self.shared.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.shared.misses.fetch_add(1, Ordering::Relaxed);
                Buf::Heap(vec![0u8; self.shared.slot_len].into_boxed_slice())
            }
        };
        PooledBuf {
            buf: Some(buf),
            home,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Bytes per slot.
    pub fn slot_len(&self) -> usize {
        self.shared.slot_len
    }

    /// Number of freelist shards.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Counters snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            outstanding: self.shared.outstanding.load(Ordering::Relaxed),
            capacity: self.shared.capacity as u64,
        }
    }
}

/// A checked-out, writable pool slot: the target the kernel writes a
/// datagram into. Either [`PooledBuf::freeze`] it into an immutable
/// [`Bytes`] or drop it unused — both return the slot eventually.
pub struct PooledBuf {
    /// Always `Some` until `freeze`/`Drop` takes it.
    buf: Option<Buf>,
    /// Shard the slot recycles to.
    home: usize,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PooledBuf({} bytes)", self.shared.slot_len)
    }
}

impl PooledBuf {
    /// The whole writable slot.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.buf
            .as_mut()
            .expect("buffer present until consumed")
            .as_mut_slice()
    }

    /// Base pointer of the slot (for iovec construction). Stable for
    /// the life of this `PooledBuf` *and* across `freeze` — the boxed
    /// buffer itself never moves on the heap.
    pub fn as_mut_ptr(&mut self) -> *mut u8 {
        self.as_mut_slice().as_mut_ptr()
    }

    /// Slot length in bytes.
    pub fn len(&self) -> usize {
        self.buf
            .as_ref()
            .expect("buffer present until consumed")
            .as_slice()
            .len()
    }

    /// True only for a zero-length slot (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the slot into an immutable, refcounted [`Bytes`] over
    /// its first `len` bytes — no copy. The slot returns to the pool
    /// (and leaves the `outstanding` gauge) when the last clone/slice
    /// of the returned `Bytes` drops.
    pub fn freeze(self, len: usize) -> Bytes {
        self.freeze_shared(len, 1)
    }

    /// [`PooledBuf::freeze`] for a buffer the kernel filled with a
    /// whole train: the returned `Bytes` is about to be sliced into
    /// `payloads` delivered datagrams, and the `outstanding` gauge
    /// counts every one of them until the buffer they share comes
    /// home — so the gauge keeps meaning "delivered payloads not yet
    /// released" however the datagrams were packed on arrival.
    pub fn freeze_shared(mut self, len: usize, payloads: u64) -> Bytes {
        let buf = self.buf.take().expect("buffer present until consumed");
        let len = len.min(buf.as_slice().len());
        self.shared
            .outstanding
            .fetch_add(payloads, Ordering::Relaxed);
        Bytes::from_owner(PooledBytes {
            buf,
            len,
            payloads,
            home: self.home,
            shared: Arc::clone(&self.shared),
        })
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        // A slot dropped unfrozen was never delivered: it returns to
        // the freelist without ever counting as outstanding.
        if let Some(buf) = self.buf.take() {
            self.shared.recycle(self.home, buf);
        }
    }
}

/// The owner behind a frozen pooled [`Bytes`]: keeps the slot alive
/// while any clone/slice exists, returns it to its shard on drop.
struct PooledBytes {
    buf: Buf,
    len: usize,
    /// Delivered payloads sharing this buffer (what `outstanding`
    /// was charged at freeze time).
    payloads: u64,
    home: usize,
    shared: Arc<Shared>,
}

impl AsRef<[u8]> for PooledBytes {
    fn as_ref(&self) -> &[u8] {
        &self.buf.as_slice()[..self.len]
    }
}

impl Drop for PooledBytes {
    fn drop(&mut self) {
        self.shared
            .outstanding
            .fetch_sub(self.payloads, Ordering::Relaxed);
        self.shared
            .recycle(self.home, std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_freeze_drop_recycles_the_slot() {
        let pool = BufferPool::new(2, 16);
        let mut a = pool.take();
        a.as_mut_slice()[..3].copy_from_slice(b"abc");
        let frozen = a.freeze(3);
        assert_eq!(&frozen[..], b"abc");
        assert_eq!(pool.stats().outstanding, 1);
        let copy = frozen.clone();
        drop(frozen);
        assert_eq!(
            pool.stats().outstanding,
            1,
            "a live clone must keep the slot checked out"
        );
        drop(copy);
        let s = pool.stats();
        assert_eq!(s.outstanding, 0);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn shared_freeze_counts_every_payload_until_the_buffer_returns() {
        let pool = BufferPool::new(1, 16);
        let train = pool.take().freeze_shared(12, 3);
        assert_eq!(pool.stats().outstanding, 3);
        let parts: Vec<Bytes> = (0..3).map(|i| train.slice(i * 4..(i + 1) * 4)).collect();
        drop(train);
        drop(parts[0].clone());
        assert_eq!(
            pool.stats().outstanding,
            3,
            "the buffer is out as long as any of its payloads is"
        );
        drop(parts);
        assert_eq!(pool.stats().outstanding, 0);
        assert_eq!(pool.shared.free_len(), 1);
    }

    #[test]
    fn churn_returns_every_slot() {
        let pool = BufferPool::new(8, 32);
        for round in 0..100 {
            let held: Vec<Bytes> = (0..8)
                .map(|i| {
                    let mut buf = pool.take();
                    buf.as_mut_slice()[0] = (round + i) as u8;
                    buf.freeze(1)
                })
                .collect();
            for (i, b) in held.iter().enumerate() {
                assert_eq!(b[0], (round + i) as u8);
            }
        }
        let s = pool.stats();
        assert_eq!(s.outstanding, 0, "churn must not leak slots");
        assert_eq!(s.misses, 0, "a fully drained pool never misses");
        assert_eq!(s.hits, 800);
    }

    #[test]
    fn exhaustion_falls_back_and_counts_misses() {
        let pool = BufferPool::new(2, 8);
        let mut held = Vec::new();
        for i in 0..5u8 {
            let mut buf = pool.take();
            buf.as_mut_slice().fill(i);
            held.push(buf.freeze(8));
        }
        let s = pool.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 3, "takes beyond the slab must fall back");
        assert_eq!(s.outstanding, 5);
        // Fallback buffers deliver bytes exactly like pooled ones.
        for (i, b) in held.iter().enumerate() {
            assert_eq!(&b[..], &[i as u8; 8][..]);
        }
        drop(held);
        let s = pool.stats();
        assert_eq!(s.outstanding, 0);
        // The freelist stays bounded by the slab size: the 3 fallback
        // buffers were released to the allocator, so only 2 more takes
        // can be hits.
        let _a = pool.take();
        let _b = pool.take();
        let _c = pool.take();
        let s2 = pool.stats();
        assert_eq!(s2.hits, s.hits + 2);
        assert_eq!(s2.misses, s.misses + 1);
    }

    #[test]
    fn unused_checkout_returns_on_drop() {
        let pool = BufferPool::new(1, 8);
        let buf = pool.take();
        assert_eq!(
            pool.stats().outstanding,
            0,
            "staged (unfrozen) slots are not delivered payloads"
        );
        drop(buf);
        // And the slot really is back: the next take is a hit.
        let _again = pool.take();
        assert_eq!(pool.stats().hits, 2);
        assert_eq!(pool.stats().misses, 0);
    }

    #[test]
    fn empty_shard_steals_before_allocating() {
        // 4 slots over 2 shards: draining shard 0 must pull shard 1's
        // slots (steals, still hits) before any take misses.
        let pool = BufferPool::sharded(4, 8, 2);
        let held: Vec<Bytes> = (0..4).map(|_| pool.take_on(0).freeze(1)).collect();
        let s = pool.stats();
        assert_eq!(s.hits, 4, "every slab slot must be reachable from shard 0");
        assert_eq!(s.misses, 0);
        assert_eq!(
            s.steals, 2,
            "shard 0 held 2 of 4 slots; the rest are steals"
        );
        // Only now does the pool allocate.
        let _extra = pool.take_on(0).freeze(1);
        assert_eq!(pool.stats().misses, 1);
        drop(held);
        assert_eq!(pool.stats().outstanding, 1);
    }

    #[test]
    fn hot_shard_keeps_its_share_and_steals_the_spill() {
        let pool = BufferPool::sharded(4, 8, 2);
        // Pull everything through shard 1, drop it all, then pull
        // again: recycles refill shard 1 to its cap (2 slots) and spill
        // the rest to shard 0, so the second round is 2 local hits plus
        // 2 steals — and the pool never misses, in either round.
        let first: Vec<Bytes> = (0..4).map(|_| pool.take_on(1).freeze(1)).collect();
        assert_eq!(pool.stats().steals, 2);
        drop(first);
        let _second: Vec<Bytes> = (0..4).map(|_| pool.take_on(1).freeze(1)).collect();
        let s = pool.stats();
        assert_eq!(s.steals, 4, "the spilled half is stolen back");
        assert_eq!(s.misses, 0);
        assert_eq!(s.hits, 8, "every take in both rounds came from the slab");
    }

    #[test]
    fn sharded_pool_stays_bounded_under_fallback_churn() {
        let pool = BufferPool::sharded(2, 8, 2);
        // Hold the whole slab plus fallbacks, drop everything, repeat:
        // the freelists may never hold more than the slab.
        for _ in 0..10 {
            let held: Vec<Bytes> = (0..6).map(|i| pool.take_on(i).freeze(1)).collect();
            drop(held);
            assert_eq!(
                pool.shared.free_len(),
                2,
                "the slab must neither grow nor shrink under churn"
            );
        }
        assert_eq!(pool.stats().outstanding, 0);
    }

    #[test]
    fn shard_count_is_clamped_to_slots() {
        let pool = BufferPool::sharded(2, 8, 16);
        assert_eq!(pool.shards(), 2);
        // And every shard index wraps rather than panicking.
        let _ = pool.take_on(1337);
    }
}
