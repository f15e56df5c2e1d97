//! A DPDK-`rte_mempool`-style memory manager.
//!
//! "The current prototype of Minos employs the memory manager of the DPDK
//! library to handle allocation of memory regions for key-value entries"
//! (paper §4.2). The essential properties of that allocator, reproduced
//! here, are:
//!
//! * **fixed capacity**: the pool owns a budget of bytes decided up
//!   front (DPDK pre-allocates hugepages); allocation beyond it fails
//!   rather than growing;
//! * **size-class freelists**: freed blocks of a class are recycled
//!   without touching the system allocator (segregated fits, the
//!   MICA-style extension the paper mentions);
//! * **O(1) alloc/free** on the hot path once a class is warm.
//!
//! A value is sized on two scales:
//!
//! * its **charge**, what it debits from the capacity: the value
//!   rounded up to a power of two of at least 64 B
//!   ([`Mempool::charged_bytes`]). Occupancy, the watermarks and the
//!   eviction accounting all move in charges;
//! * its **block**, the memory it actually holds: the value rounded up
//!   to a finer class — 16, 32, 48 and 64 B, then four classes per
//!   doubling (`p/2 + i·p/8` for `i = 1..=4`: 80, 96, 112, 128, 160,
//!   192, …), so a block above 64 B is at most 25 % over its value.
//!   A block never exceeds its charge. Freelists are kept per block
//!   class.
//!
//! Values are handed out as [`PoolBytes`]: cheaply clonable,
//! reference-counted, read-only buffers that return their block to the
//! pool when the last reference drops. This is what makes MICA-style
//! optimistic GETs safe in Rust: a reader that won the epoch validation
//! holds a reference, so a concurrent PUT replacing the item can never
//! free the bytes under the reader.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Smallest charge class, bytes.
const MIN_CLASS: usize = 64;

/// Step of the block classes up to [`MIN_CLASS`], bytes.
const MIN_BLOCK: usize = 16;

/// Block classes from [`MIN_BLOCK`] up to [`MIN_CLASS`].
const SMALL_BLOCK_CLASSES: usize = MIN_CLASS / MIN_BLOCK;

/// Block classes per doubling above [`MIN_CLASS`].
const BLOCKS_PER_DOUBLING: usize = 4;

/// Statistics for a [`Mempool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Allocations satisfied from a freelist (no system allocation).
    pub reuses: u64,
    /// Failed allocations (capacity exhausted or oversized).
    pub failures: u64,
    /// Blocks returned to freelists.
    pub frees: u64,
    /// Value bytes copied *into* pool blocks — by [`Mempool::alloc_from`]
    /// and [`PoolBytesMut::write_at`], the only two write paths. This is
    /// the per-PUT copy budget made a number: a store whose ingest is
    /// one-copy moves exactly `value_len` bytes through this counter per
    /// successful PUT, which the server surfaces as `put_copied_bytes`.
    pub copied_bytes: u64,
    /// Bytes currently charged against the capacity: the sum of the
    /// power-of-two charges of every live block and reservation.
    pub used_bytes: usize,
    /// Configured capacity in bytes.
    pub capacity_bytes: usize,
    /// Bytes of every block the pool has taken from the system
    /// allocator, live or on a freelist: the pool's physical footprint.
    /// A recycled block adds nothing.
    pub held_bytes: usize,
    /// Bytes of the blocks on the freelists, summed when the snapshot is
    /// taken. `held_bytes - free_bytes` is what live values hold, which
    /// never exceeds `used_bytes`.
    pub free_bytes: usize,
}

/// The block class of a value of `len` bytes (see the module doc).
fn block_class_of(len: usize) -> usize {
    if len <= MIN_CLASS {
        return len.max(1).div_ceil(MIN_BLOCK) - 1;
    }
    let p = len.next_power_of_two();
    let doublings = (p / (2 * MIN_CLASS)).trailing_zeros() as usize;
    let step = p / (2 * BLOCKS_PER_DOUBLING);
    let i = (len - p / 2).div_ceil(step);
    SMALL_BLOCK_CLASSES + doublings * BLOCKS_PER_DOUBLING + i - 1
}

/// Bytes of a block of class `class`.
fn block_bytes(class: usize) -> usize {
    if class < SMALL_BLOCK_CLASSES {
        return (class + 1) * MIN_BLOCK;
    }
    let (doublings, i) = (
        (class - SMALL_BLOCK_CLASSES) / BLOCKS_PER_DOUBLING,
        (class - SMALL_BLOCK_CLASSES) % BLOCKS_PER_DOUBLING + 1,
    );
    let p = (2 * MIN_CLASS) << doublings;
    p / 2 + i * p / (2 * BLOCKS_PER_DOUBLING)
}

#[derive(Debug)]
struct Inner {
    /// Freelists per block class; class `b` holds blocks of
    /// `block_bytes(b)` bytes.
    blocks: Vec<Mutex<Vec<Box<[u8]>>>>,
    max_class_bytes: usize,
    capacity: usize,
    used: AtomicUsize,
    held: AtomicUsize,
    allocs: AtomicU64,
    reuses: AtomicU64,
    failures: AtomicU64,
    frees: AtomicU64,
    copied: AtomicU64,
}

impl Inner {
    /// The charge class of a value of `len` bytes: class `i` charges
    /// `MIN_CLASS << i` bytes.
    fn class_of(&self, len: usize) -> Option<usize> {
        let block = len.max(1).next_power_of_two().max(MIN_CLASS);
        if block > self.max_class_bytes {
            return None;
        }
        Some(block.trailing_zeros() as usize - MIN_CLASS.trailing_zeros() as usize)
    }

    fn class_bytes(class: usize) -> usize {
        MIN_CLASS << class
    }

    /// Returns `block` to the freelist its length names and credits
    /// back the charge of `class`.
    fn release(&self, block: Box<[u8]>, class: usize) {
        self.frees.fetch_add(1, Ordering::Relaxed);
        self.used
            .fetch_sub(Self::class_bytes(class), Ordering::Relaxed);
        let mut freelist = self.blocks[block_class_of(block.len())].lock();
        freelist.push(block);
    }
}

/// A fixed-capacity size-class memory pool for item values.
#[derive(Clone, Debug)]
pub struct Mempool {
    inner: Arc<Inner>,
}

impl Mempool {
    /// Creates a pool with a budget of `capacity_bytes` and a maximum
    /// value size of `max_item_bytes` (rounded up to a power of two, the
    /// largest charge and the largest block).
    pub fn new(capacity_bytes: usize, max_item_bytes: usize) -> Self {
        let max_class_bytes = max_item_bytes.max(MIN_CLASS).next_power_of_two();
        let num_blocks = block_class_of(max_class_bytes) + 1;
        Mempool {
            inner: Arc::new(Inner {
                blocks: (0..num_blocks).map(|_| Mutex::new(Vec::new())).collect(),
                max_class_bytes,
                capacity: capacity_bytes,
                used: AtomicUsize::new(0),
                held: AtomicUsize::new(0),
                allocs: AtomicU64::new(0),
                reuses: AtomicU64::new(0),
                failures: AtomicU64::new(0),
                frees: AtomicU64::new(0),
                copied: AtomicU64::new(0),
            }),
        }
    }

    /// Allocates a buffer holding a copy of `data`. Returns `None` if the
    /// pool is out of capacity or `data` exceeds the maximum block size.
    /// Equivalent to a [`Mempool::reserve`] filled in one write and
    /// sealed.
    pub fn alloc_from(&self, data: &[u8]) -> Option<PoolBytes> {
        let mut reservation = self.reserve(data.len())?;
        reservation.write_at(0, data);
        Some(reservation.seal())
    }

    /// Reserves a writable block for a value of `len` bytes *without
    /// copying anything yet* — the first phase of a two-phase PUT.
    ///
    /// The returned [`PoolBytesMut`] is filled incrementally (e.g. one
    /// network fragment at a time, via [`PoolBytesMut::write_at`]) and
    /// then sealed into an immutable, refcounted [`PoolBytes`] with
    /// [`PoolBytesMut::seal`]. Dropping an unsealed reservation returns
    /// the block to the pool. Returns `None` if the pool is out of
    /// capacity or `len` exceeds the maximum block size.
    pub fn reserve(&self, len: usize) -> Option<PoolBytesMut> {
        let inner = &self.inner;
        let Some(class) = inner.class_of(len) else {
            inner.failures.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let class_bytes = Inner::class_bytes(class);

        // Charge capacity first (optimistically), back out on failure.
        let prev = inner.used.fetch_add(class_bytes, Ordering::Relaxed);
        if prev + class_bytes > inner.capacity {
            inner.used.fetch_sub(class_bytes, Ordering::Relaxed);
            inner.failures.fetch_add(1, Ordering::Relaxed);
            return None;
        }

        let block_class = block_class_of(len);
        let recycled = inner.blocks[block_class].lock().pop();
        let block = match recycled {
            Some(b) => {
                inner.reuses.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => {
                let bytes = block_bytes(block_class);
                inner.held.fetch_add(bytes, Ordering::Relaxed);
                vec![0u8; bytes].into_boxed_slice()
            }
        };
        inner.allocs.fetch_add(1, Ordering::Relaxed);
        Some(PoolBytesMut {
            block: Some(block),
            len,
            class,
            pool: Arc::clone(inner),
        })
    }

    /// Bytes currently charged against the capacity.
    pub fn used_bytes(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// The capacity charge for a value of `len` bytes: its power-of-two
    /// class, exactly what [`Mempool::reserve`] debits and what a free
    /// credits back (the block it holds may be smaller). `None` if
    /// `len` exceeds the maximum value size. This is the unit the
    /// eviction accounting cross-check sums in — occupancy moves in
    /// class-rounded steps, never raw lengths.
    pub fn charged_bytes(&self, len: usize) -> Option<usize> {
        self.inner.class_of(len).map(Inner::class_bytes)
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.inner.capacity
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> MempoolStats {
        let i = &self.inner;
        MempoolStats {
            allocs: i.allocs.load(Ordering::Relaxed),
            reuses: i.reuses.load(Ordering::Relaxed),
            failures: i.failures.load(Ordering::Relaxed),
            frees: i.frees.load(Ordering::Relaxed),
            copied_bytes: i.copied.load(Ordering::Relaxed),
            used_bytes: i.used.load(Ordering::Relaxed),
            capacity_bytes: i.capacity,
            held_bytes: i.held.load(Ordering::Relaxed),
            free_bytes: i
                .blocks
                .iter()
                .enumerate()
                .map(|(class, freelist)| freelist.lock().len() * block_bytes(class))
                .sum(),
        }
    }
}

/// A reserved, writable pool block: the first phase of a two-phase PUT.
///
/// Produced by [`Mempool::reserve`]; filled incrementally with
/// [`PoolBytesMut::write_at`] (every written byte is counted in
/// [`MempoolStats::copied_bytes`]) and turned into an immutable
/// [`PoolBytes`] by [`PoolBytesMut::seal`]. Dropping an unsealed
/// reservation returns the block to the pool, so an abandoned ingest
/// (e.g. an evicted partial reassembly) can never leak pool capacity.
///
/// Bytes never written keep whatever the recycled block last held; a
/// caller must cover the whole `[0, len)` range before sealing if it
/// intends the value to be well-defined (the streaming reassembler only
/// completes once every fragment has been written, which guarantees
/// exactly that).
#[derive(Debug)]
pub struct PoolBytesMut {
    /// `Some` until sealed or dropped.
    block: Option<Box<[u8]>>,
    len: usize,
    /// The charge class; the block's length names its block class.
    class: usize,
    pool: Arc<Inner>,
}

impl PoolBytesMut {
    /// Length of the reserved value in bytes (not the block size).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length reservation.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies `data` into the reservation at `offset`, counting the
    /// bytes in [`MempoolStats::copied_bytes`]. This is the one wire →
    /// pool copy of the one-copy ingest path.
    ///
    /// # Panics
    ///
    /// Panics if `offset + data.len()` exceeds the reserved length.
    pub fn write_at(&mut self, offset: usize, data: &[u8]) {
        let end = offset
            .checked_add(data.len())
            .expect("write range overflows");
        assert!(
            end <= self.len,
            "write of {} bytes at {offset} exceeds the {}-byte reservation",
            data.len(),
            self.len
        );
        let block = self.block.as_mut().expect("live until consumed");
        block[offset..end].copy_from_slice(data);
        self.pool
            .copied
            .fetch_add(data.len() as u64, Ordering::Relaxed);
    }

    /// Shrinks the reservation to `new_len` bytes. The capacity charge
    /// and the block are unchanged; only the sealed value's visible
    /// length shrinks. Used by the streaming PUT ingest to strip a
    /// wire-level trailer (the optional TTL extension) that rode along
    /// inside the reserved range but is not part of the value.
    ///
    /// # Panics
    ///
    /// Panics if `new_len` exceeds the current reserved length.
    pub fn truncate(&mut self, new_len: usize) {
        assert!(
            new_len <= self.len,
            "truncate to {new_len} grows the {}-byte reservation",
            self.len
        );
        self.len = new_len;
    }

    /// Seals the reservation into an immutable, refcounted
    /// [`PoolBytes`] — the second phase of a two-phase PUT, ready for
    /// [`crate::Store::put_reserved`]. No bytes are copied.
    pub fn seal(mut self) -> PoolBytes {
        let block = self.block.take().expect("live until consumed");
        PoolBytes(Arc::new(PoolBuf {
            block: Some(block),
            len: self.len,
            class: self.class,
            pool: Arc::downgrade(&self.pool),
        }))
    }
}

impl Drop for PoolBytesMut {
    fn drop(&mut self) {
        // An unsealed reservation was never published: its block (and
        // capacity charge) go straight back to the pool.
        if let Some(block) = self.block.take() {
            self.pool.release(block, self.class);
        }
    }
}

#[derive(Debug)]
struct PoolBuf {
    /// `Some` until dropped; taken in `Drop` to return to the pool.
    block: Option<Box<[u8]>>,
    len: usize,
    /// The charge class; the block's length names its block class.
    class: usize,
    pool: std::sync::Weak<Inner>,
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if let Some(block) = self.block.take() {
            if let Some(pool) = self.pool.upgrade() {
                pool.release(block, self.class);
            }
            // If the pool is gone the block just drops normally.
        }
    }
}

/// A reference-counted, read-only value buffer backed by a [`Mempool`]
/// block. Cloning is O(1); the block returns to the pool when the last
/// clone drops.
#[derive(Clone, Debug)]
pub struct PoolBytes(Arc<PoolBuf>);

impl PoolBytes {
    /// Length of the value in bytes (not the block size).
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// True if the value is empty.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// The capacity charge this buffer holds against its pool: the
    /// charge class recorded at reservation, which can exceed
    /// [`Mempool::charged_bytes`]`(len)` when the reservation was
    /// [`PoolBytesMut::truncate`]d after being sized. Accounting
    /// cross-checks must sum this, not recompute from `len`.
    pub fn charged_bytes(&self) -> usize {
        Inner::class_bytes(self.0.class)
    }
}

impl std::ops::Deref for PoolBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0.block.as_ref().expect("live buffer")[..self.0.len]
    }
}

impl AsRef<[u8]> for PoolBytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for PoolBytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for PoolBytes {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_copies_data() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        let v = pool.alloc_from(b"hello world").unwrap();
        assert_eq!(&v[..], b"hello world");
        assert_eq!(v.len(), 11);
    }

    #[test]
    fn capacity_is_enforced_and_freed_on_drop() {
        let pool = Mempool::new(256, 256);
        let a = pool.alloc_from(&[0u8; 100]).unwrap(); // 128-byte class
        let b = pool.alloc_from(&[0u8; 100]).unwrap(); // 128-byte class
        assert_eq!(pool.used_bytes(), 256);
        assert!(pool.alloc_from(&[0u8; 10]).is_none(), "over capacity");
        drop(a);
        assert_eq!(pool.used_bytes(), 128);
        let c = pool.alloc_from(&[0u8; 10]).unwrap();
        drop(b);
        drop(c);
        assert_eq!(pool.used_bytes(), 0);
    }

    #[test]
    fn freelist_reuse() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        let a = pool.alloc_from(&[1u8; 1000]).unwrap();
        drop(a);
        let _b = pool.alloc_from(&[2u8; 1000]).unwrap();
        let s = pool.stats();
        assert_eq!(s.allocs, 2);
        assert_eq!(s.reuses, 1);
        assert_eq!(s.frees, 1);
    }

    #[test]
    fn oversized_allocation_fails() {
        let pool = Mempool::new(1 << 30, 1 << 10);
        assert!(pool.alloc_from(&vec![0u8; 4096]).is_none());
        assert_eq!(pool.stats().failures, 1);
    }

    #[test]
    fn clone_shares_block() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        let a = pool.alloc_from(b"shared").unwrap();
        let used = pool.used_bytes();
        let b = a.clone();
        assert_eq!(pool.used_bytes(), used, "clone allocates nothing");
        drop(a);
        assert_eq!(&b[..], b"shared");
        assert_eq!(pool.used_bytes(), used, "block alive while a clone lives");
        drop(b);
        assert_eq!(pool.used_bytes(), 0);
    }

    #[test]
    fn survives_pool_drop() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        let v = pool.alloc_from(b"orphan").unwrap();
        drop(pool);
        assert_eq!(&v[..], b"orphan"); // block outlives the pool
    }

    #[test]
    fn zero_length_values() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        let v = pool.alloc_from(b"").unwrap();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
    }

    #[test]
    fn reserve_write_seal_roundtrip() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        let mut r = pool.reserve(11).unwrap();
        assert_eq!(r.len(), 11);
        r.write_at(0, b"hello ");
        r.write_at(6, b"world");
        let sealed = r.seal();
        assert_eq!(&sealed[..], b"hello world");
        assert_eq!(pool.stats().copied_bytes, 11, "exactly the value bytes");
        drop(sealed);
        assert_eq!(pool.used_bytes(), 0);
    }

    #[test]
    fn unsealed_reservation_returns_capacity_on_drop() {
        let pool = Mempool::new(256, 256);
        let r = pool.reserve(100).unwrap();
        assert_eq!(pool.used_bytes(), 128, "reservation charges its class");
        drop(r);
        assert_eq!(pool.used_bytes(), 0, "abandoned reservation released");
        assert_eq!(pool.stats().frees, 1);
        // And the block is recycled, not lost.
        let _again = pool.reserve(100).unwrap();
        assert_eq!(pool.stats().reuses, 1);
    }

    #[test]
    fn reserve_enforces_capacity_and_size() {
        let pool = Mempool::new(256, 1 << 16);
        assert!(pool.reserve(1 << 17).is_none(), "oversized");
        let _a = pool.reserve(200).unwrap();
        assert!(pool.reserve(200).is_none(), "over capacity");
        assert_eq!(pool.stats().failures, 2);
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn write_beyond_reservation_panics() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        let mut r = pool.reserve(4).unwrap();
        r.write_at(2, b"abc");
    }

    #[test]
    fn charged_bytes_is_the_class_size() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        assert_eq!(pool.charged_bytes(0), Some(64));
        assert_eq!(pool.charged_bytes(64), Some(64));
        assert_eq!(pool.charged_bytes(65), Some(128));
        assert_eq!(pool.charged_bytes(1 << 16), Some(1 << 16));
        assert_eq!(pool.charged_bytes((1 << 16) + 1), None, "oversized");
    }

    #[test]
    fn truncate_shrinks_value_but_not_charge() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        let mut r = pool.reserve(1032).unwrap(); // 2048-byte class
        r.write_at(0, &[7u8; 1032]);
        r.truncate(1024);
        assert_eq!(r.len(), 1024);
        let sealed = r.seal();
        assert_eq!(sealed.len(), 1024);
        assert_eq!(&sealed[..], &[7u8; 1024][..]);
        // The block keeps its original class: the charge did not shrink
        // to 1024's class, and the sealed buffer reports the truth.
        assert_eq!(pool.used_bytes(), 2048);
        assert_eq!(sealed.charged_bytes(), 2048);
        drop(sealed);
        assert_eq!(pool.used_bytes(), 0, "full class released");
    }

    #[test]
    #[should_panic(expected = "grows the")]
    fn truncate_cannot_grow() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        let mut r = pool.reserve(4).unwrap();
        r.truncate(5);
    }

    #[test]
    fn alloc_from_counts_copied_bytes() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        let _v = pool.alloc_from(&[7u8; 1000]).unwrap();
        assert_eq!(pool.stats().copied_bytes, 1000);
    }

    #[test]
    fn every_length_gets_the_smallest_block_that_fits() {
        let max = 1 << 20;
        let pool = Mempool::new(1 << 30, max);
        assert_eq!(pool.inner.blocks.len(), 60, "block classes at 1 MiB");
        for len in 1..=max {
            let class = block_class_of(len);
            let block = block_bytes(class);
            assert!(block >= len, "{len} B in a {block} B block");
            if class > 0 {
                assert!(
                    block_bytes(class - 1) < len,
                    "{len} B fits class {}",
                    class - 1
                );
            }
            if len > MIN_CLASS {
                assert!(
                    4 * block <= 5 * len,
                    "{len} B in a {block} B block is over 25 %"
                );
            }
            assert!(
                block <= pool.charged_bytes(len).unwrap(),
                "{len} B: block over charge"
            );
        }
        assert_eq!(block_class_of(max), pool.inner.blocks.len() - 1);
    }

    #[test]
    fn charge_and_block_are_separate_scales() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        let mut r = pool.reserve(1040).unwrap();
        assert_eq!(pool.used_bytes(), 2048, "charged its power of two");
        assert_eq!(pool.stats().held_bytes, 1280, "held in its block");
        r.write_at(0, &[3u8; 1040]);
        r.truncate(1024);
        let sealed = r.seal();
        assert_eq!(sealed.charged_bytes(), 2048);
        assert_eq!(sealed.0.block.as_ref().unwrap().len(), 1280);
        assert_eq!(pool.used_bytes(), 2048);
        drop(sealed);
        let s = pool.stats();
        assert_eq!((s.used_bytes, s.held_bytes, s.free_bytes), (0, 1280, 1280));
    }

    #[test]
    fn a_freed_block_serves_only_its_block_class() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        drop(pool.alloc_from(&[1u8; 1280]).unwrap());
        let bigger = pool.alloc_from(&[2u8; 1300]).unwrap();
        assert_eq!(pool.stats().reuses, 0, "1 300 B needs a 1 536 B block");
        let smaller = pool.alloc_from(&[3u8; 1100]).unwrap();
        assert_eq!(pool.stats().reuses, 1, "1 100 B takes the 1 280 B block");
        assert_eq!(bigger.charged_bytes(), 2048);
        assert_eq!(smaller.charged_bytes(), 2048);
        let s = pool.stats();
        assert_eq!(
            (s.used_bytes, s.held_bytes, s.free_bytes),
            (4096, 1280 + 1536, 0)
        );
    }

    #[test]
    fn concurrent_alloc_free() {
        let pool = Mempool::new(64 << 20, 1 << 20);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..2000usize {
                        let data = vec![(t ^ i) as u8; (i % 2000) + 1];
                        let v = pool.alloc_from(&data).unwrap();
                        assert_eq!(&v[..], &data[..]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.used_bytes(), 0);
        let s = pool.stats();
        assert_eq!(s.allocs, 8000);
        assert_eq!(s.frees, 8000);
    }
}
