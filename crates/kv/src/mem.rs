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
//!   to a finer class — steps of 16 B up to 4 KiB (16, 32, 48, …,
//!   4 096: 256 classes), then four classes per doubling (`p/2 + i·p/8`
//!   for `i = 1..=4`: 5 120, 6 144, 7 168, 8 192, 10 240, …). Up to
//!   4 KiB a block is less than 16 B over its value; above it, at most
//!   25 %. The steps stop at one page because 16 B steps past it would
//!   be hundreds of classes per doubling. A block never exceeds its
//!   charge. Freelists are kept per block class.
//!
//! Every length in a block class has the same charge (a class above
//! 64 B lies inside one `(p/2, p]`), so a block's class alone names the
//! charge it carries.
//!
//! Fine classes strand freed blocks: a block serves only the lengths of
//! its own class. So when a value's class has no free block,
//! [`Mempool::reserve`] takes the smallest free block that is at most
//! 25 % over the value **and carries the same charge**, so that what the
//! value debits is what its block credits back. A bitmap with one bit
//! per non-empty freelist finds that block with a few word loads, not a
//! lock per class. A borrowed block goes back to its own class's
//! freelist.
//!
//! As in `rte_mempool`, a block's bookkeeping lives in the block's own
//! memory: each block is one allocation, a 24 B header (reference
//! count, block class, value length, pool pointer)
//! followed by the block's bytes. The freelists keep these whole
//! allocations, so a recycled value costs no allocator call, and
//! [`MempoolStats::held_bytes`] counts the block bytes only.
//!
//! Values are handed out as [`PoolBytes`]: cheaply clonable,
//! reference-counted, read-only buffers that return their block to the
//! pool when the last reference drops. A [`PoolBytes`] is one pointer to
//! that allocation. This is what makes MICA-style optimistic GETs safe
//! in Rust: a reader that won the epoch validation holds a reference,
//! so a concurrent PUT replacing the item can never free the bytes
//! under the reader.
//!
//! A reserved or sealed block's header owns one strong reference to its
//! pool, taken at reservation and dropped after the block is back on
//! its freelist; a block on a freelist holds none, and the pool frees
//! those when it drops. A value therefore outlives its pool, and there
//! is no cycle.

use parking_lot::Mutex;
use std::alloc::{self, Layout};
use std::ptr::{self, NonNull};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Smallest charge class, bytes.
const MIN_CLASS: usize = 64;

/// Step of the block classes up to [`PAGE_BLOCK`], bytes.
const MIN_BLOCK: usize = 16;

/// The largest block class reached in [`MIN_BLOCK`] steps: one page.
const PAGE_BLOCK: usize = 4096;

/// Block classes from [`MIN_BLOCK`] up to [`PAGE_BLOCK`].
const STEP_BLOCK_CLASSES: usize = PAGE_BLOCK / MIN_BLOCK;

/// Block classes per doubling above [`PAGE_BLOCK`].
const BLOCKS_PER_DOUBLING: usize = 4;

/// Bytes of bookkeeping ahead of every block's bytes, in the same
/// allocation: not part of [`MempoolStats::held_bytes`].
const BLOCK_HEADER_BYTES: usize = std::mem::size_of::<Header>();

/// Most [`PoolBytes`] handles one value may have; past it a clone
/// aborts, as `Arc`'s does.
const MAX_REFS: u32 = i32::MAX as u32;

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
    /// allocator, live or on a freelist: the pool's physical footprint,
    /// less the 24 B header each block carries. A recycled block adds
    /// nothing.
    pub held_bytes: usize,
    /// Bytes of the blocks on the freelists, counted as blocks are
    /// pushed and popped. `held_bytes - free_bytes` is what live values
    /// hold, which never exceeds `used_bytes`.
    pub free_bytes: usize,
    /// The lengths of the live values, counted when a value is sealed
    /// and when its last handle drops. A block is at most 25 % plus
    /// 16 B over the length it was reserved for, so unless values were
    /// truncated, live blocks are at most `1.25 × value_bytes` plus 16 B
    /// per live value.
    pub value_bytes: usize,
}

/// The block class of a value of `len` bytes (see the module doc).
fn block_class_of(len: usize) -> usize {
    if len <= PAGE_BLOCK {
        return len.max(1).div_ceil(MIN_BLOCK) - 1;
    }
    let p = len.next_power_of_two();
    let doublings = (p / (2 * PAGE_BLOCK)).trailing_zeros() as usize;
    let step = p / (2 * BLOCKS_PER_DOUBLING);
    let i = (len - p / 2).div_ceil(step);
    STEP_BLOCK_CLASSES + doublings * BLOCKS_PER_DOUBLING + i - 1
}

/// Bytes of a block of class `class`.
fn block_bytes(class: usize) -> usize {
    if class < STEP_BLOCK_CLASSES {
        return (class + 1) * MIN_BLOCK;
    }
    let (doublings, i) = (
        (class - STEP_BLOCK_CLASSES) / BLOCKS_PER_DOUBLING,
        (class - STEP_BLOCK_CLASSES) % BLOCKS_PER_DOUBLING + 1,
    );
    let p = (2 * PAGE_BLOCK) << doublings;
    p / 2 + i * p / (2 * BLOCKS_PER_DOUBLING)
}

/// The block classes that may hold a value of `len` bytes charged
/// `charge`: its own class, then every larger one whose blocks are at
/// most 25 % over the value and inside the same charge.
fn fitting_classes(len: usize, charge: usize) -> std::ops::RangeInclusive<usize> {
    let own = block_class_of(len);
    let limit = charge.min(len + len / 4);
    // The largest class whose blocks are at most `limit` bytes.
    let last = block_class_of(limit + 1).saturating_sub(1);
    own..=last.max(own)
}

/// The charge every value held in a block of class `class` carries.
fn block_charge(class: usize) -> usize {
    block_bytes(class).next_power_of_two().max(MIN_CLASS)
}

/// What a block's allocation holds ahead of its bytes.
#[repr(C)]
struct Header {
    /// Live [`PoolBytes`] handles once sealed.
    refs: AtomicU32,
    /// The block class, fixed when the block is allocated.
    class: u32,
    /// The value's length; written only while the block has one owner
    /// (a reservation).
    len: usize,
    /// One strong reference to the pool (from `Arc::into_raw`) while the
    /// block is reserved or sealed; null on a freelist.
    pool: *const Inner,
}

/// A pointer to one block's allocation: a [`Header`] followed by
/// `block_bytes(class)` bytes. Who owns it is the holder's business: a
/// freelist, a [`PoolBytesMut`], or the [`PoolBytes`] handles together.
#[derive(Clone, Copy, Debug)]
struct Block(NonNull<Header>);

impl Block {
    fn layout(class: usize) -> Layout {
        Layout::from_size_align(
            BLOCK_HEADER_BYTES + block_bytes(class),
            std::mem::align_of::<Header>(),
        )
        .expect("block layout")
    }

    /// Allocates a zeroed block of class `class`, owned by the caller
    /// and holding no pool reference.
    fn alloc(class: usize) -> Block {
        let layout = Self::layout(class);
        // SAFETY: the layout is never zero-sized: it includes the header.
        let raw = unsafe { alloc::alloc_zeroed(layout) }.cast::<Header>();
        let Some(header) = NonNull::new(raw) else {
            alloc::handle_alloc_error(layout)
        };
        // SAFETY: `header` is a fresh allocation sized and aligned for a
        // `Header` at its start, and nothing else points to it.
        unsafe {
            header.as_ptr().write(Header {
                refs: AtomicU32::new(0),
                class: class as u32,
                len: 0,
                pool: ptr::null(),
            })
        };
        Block(header)
    }

    /// Frees the allocation.
    ///
    /// # Safety
    ///
    /// The caller owns the block alone, and never uses it again.
    unsafe fn dealloc(self) {
        let layout = Self::layout(self.class());
        // SAFETY: the block was allocated by `Block::alloc` with this
        // layout (its class never changes), and the caller owns it.
        unsafe { alloc::dealloc(self.0.as_ptr().cast(), layout) }
    }

    fn header(&self) -> &Header {
        // SAFETY: a `Block` points to a live allocation that starts with
        // an initialised `Header`, whose non-atomic fields change only
        // while one owner holds the block and no reference to it exists.
        unsafe { self.0.as_ref() }
    }

    fn class(&self) -> usize {
        self.header().class as usize
    }

    /// The first of the block's `block_bytes(class)` bytes.
    fn bytes(&self) -> *mut u8 {
        // SAFETY: the block's bytes start right after the header, inside
        // the same allocation.
        unsafe { self.0.as_ptr().add(1).cast() }
    }

    /// Records the value's length and the pool reference the block now
    /// holds.
    ///
    /// # Safety
    ///
    /// The caller owns the block alone.
    unsafe fn set(self, len: usize, pool: *const Inner) {
        // SAFETY: the caller owns the block, so no reference to the
        // header is alive.
        unsafe {
            let header = self.0.as_ptr();
            (*header).len = len;
            (*header).pool = pool;
        }
    }

    /// Puts a block whose last owner is done with it back on its pool's
    /// freelist, then drops the pool reference its header held (which
    /// may drop the pool, and with it the block).
    ///
    /// # Safety
    ///
    /// The caller owns the block alone, its header holds a pool
    /// reference, and the caller never uses the block again.
    unsafe fn give_back(self) {
        // SAFETY: the header holds one strong reference from
        // `Arc::into_raw`, which this takes over.
        let pool = unsafe { Arc::from_raw(self.header().pool) };
        // SAFETY: the caller owns the block alone.
        unsafe { self.set(0, ptr::null()) };
        pool.release(self);
    }
}

#[derive(Debug)]
struct Inner {
    /// Freelists per block class; class `b` holds blocks of
    /// `block_bytes(b)` bytes, each owned by its list.
    blocks: Vec<Mutex<Vec<Block>>>,
    /// One bit per block class (bit `b % 64` of word `b / 64`), set
    /// while its freelist is non-empty; written only under that list's
    /// mutex, read without it.
    nonempty: Box<[AtomicU64]>,
    max_class_bytes: usize,
    capacity: usize,
    used: AtomicUsize,
    held: AtomicUsize,
    /// Bytes of the blocks on the freelists; moved under their mutexes.
    free: AtomicUsize,
    /// Lengths of the sealed values alive.
    values: AtomicUsize,
    allocs: AtomicU64,
    reuses: AtomicU64,
    failures: AtomicU64,
    frees: AtomicU64,
    copied: AtomicU64,
}

// SAFETY: `blocks` holds raw block pointers, each owned by its freelist
// alone and moved in and out only under that list's mutex; a popped
// block goes to one reservation. Every other field (`nonempty`,
// `max_class_bytes`, `capacity`, and the atomic counters `used`,
// `held`, `free`, `values`, `allocs`, `reuses`, `failures`, `frees`,
// `copied`) is plain data or an atomic, safe to send and to share.
unsafe impl Send for Inner {}
// SAFETY: as for `Send`: shared access reaches the freelists only
// through their mutexes, and the other fields are immutable or atomic.
unsafe impl Sync for Inner {}

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

    /// Returns `block`, which holds no pool reference, to the freelist
    /// of its class and credits back its charge.
    fn release(&self, block: Block) {
        self.frees.fetch_add(1, Ordering::Relaxed);
        let class = block.class();
        let mut freelist = self.blocks[class].lock();
        freelist.push(block);
        if freelist.len() == 1 {
            self.nonempty[class / 64].fetch_or(1 << (class % 64), Ordering::Relaxed);
        }
        self.free.fetch_add(block_bytes(class), Ordering::Relaxed);
        drop(freelist);
        self.used.fetch_sub(block_charge(class), Ordering::Relaxed);
    }

    /// Pops a block off the first non-empty freelist among `classes`,
    /// skipping the empty ones by their bits. A bit read stale costs a
    /// lock that finds the list empty, or a block not reused.
    fn pop_first(&self, classes: std::ops::RangeInclusive<usize>) -> Option<Block> {
        let (mut class, last) = classes.into_inner();
        while class <= last {
            let word =
                self.nonempty[class / 64].load(Ordering::Relaxed) & (u64::MAX << (class % 64));
            if word == 0 {
                class = (class / 64 + 1) * 64;
                continue;
            }
            class = class / 64 * 64 + word.trailing_zeros() as usize;
            if class > last {
                break;
            }
            let mut freelist = self.blocks[class].lock();
            if let Some(block) = freelist.pop() {
                if freelist.is_empty() {
                    self.nonempty[class / 64].fetch_and(!(1 << (class % 64)), Ordering::Relaxed);
                }
                self.free.fetch_sub(block_bytes(class), Ordering::Relaxed);
                return Some(block);
            }
            class += 1;
        }
        None
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        for freelist in &mut self.blocks {
            for block in freelist.get_mut().drain(..) {
                // SAFETY: a block on a freelist is owned by that list
                // alone, and draining takes it off for good. Reserved
                // and sealed blocks hold a pool reference, so none is
                // alive while the pool drops.
                unsafe { block.dealloc() }
            }
        }
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
                nonempty: (0..num_blocks.div_ceil(64))
                    .map(|_| AtomicU64::new(0))
                    .collect(),
                max_class_bytes,
                capacity: capacity_bytes,
                used: AtomicUsize::new(0),
                held: AtomicUsize::new(0),
                free: AtomicUsize::new(0),
                values: AtomicUsize::new(0),
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

        let classes = fitting_classes(len, class_bytes);
        let block_class = *classes.start();
        let block = match inner.pop_first(classes) {
            Some(b) => {
                inner.reuses.fetch_add(1, Ordering::Relaxed);
                b
            }
            None => {
                inner
                    .held
                    .fetch_add(block_bytes(block_class), Ordering::Relaxed);
                Block::alloc(block_class)
            }
        };
        // SAFETY: the block came off a freelist or out of the allocator,
        // so this reservation owns it alone.
        unsafe { block.set(len, Arc::into_raw(Arc::clone(inner))) };
        inner.allocs.fetch_add(1, Ordering::Relaxed);
        Some(PoolBytesMut { block, len })
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
            free_bytes: i.free.load(Ordering::Relaxed),
            value_bytes: i.values.load(Ordering::Relaxed),
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
    /// Owned alone until sealed or dropped.
    block: Block,
    len: usize,
}

// SAFETY: `block` is owned by this reservation alone: its bytes and
// header are reached only through it, and the pool it points to is
// `Send + Sync`. `len` is plain data.
unsafe impl Send for PoolBytesMut {}
// SAFETY: `&PoolBytesMut` only reads `len`; writing the block (`block`)
// takes `&mut self`.
unsafe impl Sync for PoolBytesMut {}

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
        // SAFETY: `[offset, end)` lies within the reserved length, which
        // fits the block, and this reservation owns the block alone, so
        // nothing else reads or writes those bytes.
        unsafe {
            ptr::copy_nonoverlapping(data.as_ptr(), self.block.bytes().add(offset), data.len())
        };
        // SAFETY: a reserved block's header holds a pool reference.
        let pool = unsafe { &*self.block.header().pool };
        pool.copied.fetch_add(data.len() as u64, Ordering::Relaxed);
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
    /// [`crate::Store::put_reserved`]. No bytes are copied, and the
    /// reservation's pool reference passes to the value.
    pub fn seal(self) -> PoolBytes {
        let (block, pool) = (self.block, self.block.header().pool);
        // SAFETY: this reservation owns the block alone; the pool
        // reference stays in the header.
        unsafe { block.set(self.len, pool) };
        // SAFETY: a reserved block's header holds a pool reference.
        unsafe { &*pool }
            .values
            .fetch_add(self.len, Ordering::Relaxed);
        block.header().refs.store(1, Ordering::Relaxed);
        std::mem::forget(self);
        PoolBytes(block)
    }
}

impl Drop for PoolBytesMut {
    fn drop(&mut self) {
        // An unsealed reservation was never published: its block (and
        // capacity charge) go straight back to the pool.
        // SAFETY: this reservation owns the block alone, its header
        // holds the pool reference taken at reservation, and it is
        // dropping.
        unsafe { self.block.give_back() }
    }
}

/// A reference-counted, read-only value buffer backed by a [`Mempool`]
/// block: one pointer to the block's allocation, whose header holds the
/// count. Cloning is O(1); the block returns to the pool when the last
/// clone drops.
#[derive(Debug)]
pub struct PoolBytes(Block);

// SAFETY: the handles of one block share it read-only: its bytes and
// its header's `class` and `len` are written only before it is sealed,
// `refs` is atomic, and `pool` points to a `Send + Sync` pool whose
// reference only the last handle's drop releases. So handles may move
// to and be shared between threads, as `Arc<[u8]>` may.
unsafe impl Send for PoolBytes {}
// SAFETY: as for `Send`.
unsafe impl Sync for PoolBytes {}

impl PoolBytes {
    /// Length of the value in bytes (not the block size).
    pub fn len(&self) -> usize {
        self.0.header().len
    }

    /// True if the value is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity charge this buffer holds against its pool: the
    /// charge of the block class chosen at reservation, which can exceed
    /// [`Mempool::charged_bytes`]`(len)` when the reservation was
    /// [`PoolBytesMut::truncate`]d after being sized. Accounting
    /// cross-checks must sum this, not recompute from `len`.
    pub fn charged_bytes(&self) -> usize {
        block_charge(self.0.class())
    }
}

impl Clone for PoolBytes {
    fn clone(&self) -> Self {
        // As `Arc::clone`: a new handle is made from an existing one, so
        // no ordering is needed, only a stop before the count overflows.
        if self.0.header().refs.fetch_add(1, Ordering::Relaxed) > MAX_REFS {
            std::process::abort();
        }
        PoolBytes(self.0)
    }
}

impl Drop for PoolBytes {
    fn drop(&mut self) {
        // As `Arc`'s drop: release our uses of the bytes, and acquire
        // every other handle's before the block is reused.
        if self.0.header().refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        fence(Ordering::Acquire);
        let header = self.0.header();
        // SAFETY: a sealed block's header holds the pool reference its
        // reservation took.
        unsafe { &*header.pool }
            .values
            .fetch_sub(header.len, Ordering::Relaxed);
        // SAFETY: this was the last handle, so it owns the block alone,
        // and its header still holds that pool reference.
        unsafe { self.0.give_back() }
    }
}

impl std::ops::Deref for PoolBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: the first `len` bytes of the block were initialised
        // (zeroed at allocation, or written) and are not written again
        // while a handle lives.
        unsafe { std::slice::from_raw_parts(self.0.bytes(), self.len()) }
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
        assert_eq!(pool.inner.blocks.len(), 288, "block classes at 1 MiB");
        assert_eq!(pool.inner.nonempty.len(), 5, "one bit per class");
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
            if len <= PAGE_BLOCK {
                assert_eq!(block, len.next_multiple_of(16), "{len} B in 16 B steps");
            } else {
                assert!(
                    4 * block <= 5 * len,
                    "{len} B in a {block} B block is over 25 %"
                );
            }
            assert!(
                block <= pool.charged_bytes(len).unwrap(),
                "{len} B: block over charge"
            );
            let charge = pool.charged_bytes(len).unwrap();
            assert_eq!(
                block_charge(class),
                charge,
                "{len} B: the block class names the charge"
            );
            // It may borrow a larger block only of its charge and at most
            // 25 % over it, and every such class is in its range.
            let classes = fitting_classes(len, charge);
            assert_eq!(*classes.start(), class);
            for borrowed in classes.clone().skip(1) {
                assert!(4 * block_bytes(borrowed) <= 5 * len, "{len} B: {borrowed}");
                assert_eq!(block_charge(borrowed), charge, "{len} B: {borrowed}");
            }
            let next = classes.end() + 1;
            assert!(
                next == pool.inner.blocks.len()
                    || 4 * block_bytes(next) > 5 * len
                    || block_charge(next) != charge,
                "{len} B could borrow class {next} too"
            );
        }
        assert_eq!(block_class_of(max), pool.inner.blocks.len() - 1);
    }

    #[test]
    fn charge_and_block_are_separate_scales() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        let mut r = pool.reserve(1040).unwrap();
        assert_eq!(pool.used_bytes(), 2048, "charged its power of two");
        assert_eq!(pool.stats().held_bytes, 1040, "held in its block");
        r.write_at(0, &[3u8; 1040]);
        r.truncate(1024);
        let sealed = r.seal();
        assert_eq!(sealed.charged_bytes(), 2048);
        assert_eq!(block_bytes(sealed.0.class()), 1040);
        assert_eq!(pool.used_bytes(), 2048);
        assert_eq!(pool.stats().value_bytes, 1024, "the sealed length");
        drop(sealed);
        let s = pool.stats();
        assert_eq!(
            (s.used_bytes, s.held_bytes, s.free_bytes, s.value_bytes),
            (0, 1040, 1040, 0)
        );
    }

    #[test]
    fn a_freed_block_serves_values_of_its_charge_within_a_quarter() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        drop(pool.alloc_from(&[1u8; 1040]).unwrap());
        let bigger = pool.alloc_from(&[2u8; 1050]).unwrap();
        assert_eq!(pool.stats().reuses, 0, "1 050 B needs a 1 056 B block");
        let other_charge = pool.alloc_from(&[3u8; 1000]).unwrap();
        assert_eq!(pool.stats().reuses, 0, "1 000 B is charged 1 024 B");
        let smaller = pool.alloc_from(&[4u8; 1030]).unwrap();
        assert_eq!(pool.stats().reuses, 1, "1 030 B takes the 1 040 B block");
        assert_eq!(block_bytes(smaller.0.class()), 1040);
        assert_eq!(
            (bigger.charged_bytes(), other_charge.charged_bytes()),
            (2048, 1024)
        );
        let s = pool.stats();
        assert_eq!(
            (s.used_bytes, s.held_bytes, s.free_bytes),
            (2048 + 2048 + 1024, 1040 + 1056 + 1008, 0)
        );
    }

    #[test]
    fn an_empty_class_borrows_the_smallest_fitting_block() {
        let pool = Mempool::new(1 << 24, 1 << 16);
        let (a, b) = (
            pool.alloc_from(&[1u8; 1280]).unwrap(),
            pool.alloc_from(&[1u8; 1120]).unwrap(),
        );
        drop((a, b));
        let v = pool.alloc_from(&[2u8; 1100]).unwrap();
        assert_eq!(block_bytes(v.0.class()), 1120, "the smaller of two fits");
        assert_eq!(v.charged_bytes(), 2048);
        assert_eq!(pool.used_bytes(), 2048);
        drop(v);
        let home = |bytes| pool.inner.blocks[block_class_of(bytes)].lock().len();
        assert_eq!((home(1104), home(1120), home(1280)), (0, 1, 1), "back home");
        // Above 4 KiB the same 25 % bound holds: 5 000 B may take a
        // 6 144 B block, 4 500 B may not.
        drop(pool.alloc_from(&[3u8; 6144]).unwrap());
        let _small = pool.alloc_from(&[4u8; 4500]).unwrap();
        assert_eq!(home(6144), 1, "6 144 B is over 4 500 B by 36 %");
        let large = pool.alloc_from(&[5u8; 5000]).unwrap();
        assert_eq!((home(6144), block_bytes(large.0.class())), (0, 6144));
        let s = pool.stats();
        assert_eq!((s.allocs, s.reuses), (6, 2));
        assert_eq!(s.held_bytes, 1280 + 1120 + 6144 + 5120);
    }

    #[test]
    fn a_value_handle_is_one_pointer() {
        use std::mem::size_of;
        assert_eq!(size_of::<PoolBytes>(), 8);
        assert_eq!(size_of::<Option<PoolBytes>>(), 8);
        assert_eq!(BLOCK_HEADER_BYTES, 24);
    }

    #[test]
    fn concurrent_clones_release_the_block_once() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        let v = pool.alloc_from(&[9u8; 1000]).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let v = v.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        let c = v.clone();
                        assert_eq!(c[999], 9);
                    }
                })
            })
            .collect();
        drop(v);
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!((s.allocs, s.frees, s.used_bytes), (1, 1, 0));
        assert_eq!(s.free_bytes, 1008, "the block is on its freelist once");
        assert_eq!(s.held_bytes, 1008);
    }

    #[test]
    fn a_value_dropped_on_another_thread_outlives_the_pool() {
        let pool = Mempool::new(1 << 20, 1 << 16);
        drop(pool.alloc_from(b"on a freelist").unwrap());
        let v = pool.alloc_from(b"orphan").unwrap();
        drop(pool);
        std::thread::spawn(move || {
            assert_eq!(&v[..], b"orphan");
            drop(v); // the last pool reference: frees both blocks
        })
        .join()
        .unwrap();
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

    /// Four threads reserve, seal, truncate, abandon and drop values of
    /// lengths bunched so that a class is often empty while a neighbour
    /// holds blocks; between rounds, with every thread parked, the pool's
    /// books must agree with the values alive.
    #[test]
    fn four_threads_reserving_and_dropping_keep_the_books() {
        use std::sync::Barrier;
        const THREADS: usize = 4;
        const ROUNDS: usize = 12;
        let pool = Mempool::new(1 << 30, 1 << 16);
        let live: Arc<Vec<Mutex<Vec<PoolBytes>>>> =
            Arc::new((0..THREADS).map(|_| Mutex::new(Vec::new())).collect());
        let barrier = Arc::new(Barrier::new(THREADS + 1));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (pool, live, barrier) = (pool.clone(), live.clone(), barrier.clone());
                std::thread::spawn(move || {
                    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ t as u64;
                    let mut rng = move || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    for _ in 0..ROUNDS {
                        for _ in 0..400 {
                            let mut mine = live[t].lock();
                            let r = rng();
                            if r % 5 < 2 && !mine.is_empty() {
                                let i = (r >> 8) as usize % mine.len();
                                drop(mine.swap_remove(i));
                                continue;
                            }
                            let base = [1, 1000, 4000, 30_000][(r >> 8) as usize % 4];
                            let len = base + (r >> 16) as usize % (base / 8 + 64);
                            let mut v = pool.reserve(len).unwrap();
                            v.write_at(len - 1, &[t as u8]);
                            match r >> 40 & 7 {
                                0 => drop(v),
                                1 => mine.push({
                                    v.truncate(len - 1);
                                    v.seal()
                                }),
                                _ => mine.push(v.seal()),
                            }
                        }
                        barrier.wait();
                        barrier.wait();
                    }
                })
            })
            .collect();
        for round in 0..ROUNDS {
            barrier.wait();
            let guards: Vec<_> = live.iter().map(|l| l.lock()).collect();
            let (mut count, mut charged, mut blocks, mut lengths) = (0, 0, 0, 0);
            for v in guards.iter().flat_map(|l| l.iter()) {
                count += 1;
                charged += v.charged_bytes();
                blocks += block_bytes(v.0.class());
                lengths += v.len();
            }
            let s = pool.stats();
            assert_eq!(charged, s.used_bytes, "round {round}: audit == used");
            assert_eq!(s.held_bytes - s.free_bytes, blocks, "round {round}");
            assert!(blocks <= s.used_bytes, "round {round}: held - free <= used");
            assert_eq!(
                s.allocs - s.frees,
                count,
                "round {round}: one block a value"
            );
            assert_eq!(s.value_bytes, lengths, "round {round}");
            let mut walked = 0;
            for (class, freelist) in pool.inner.blocks.iter().enumerate() {
                let n = freelist.lock().len();
                walked += n * block_bytes(class);
                let bit =
                    pool.inner.nonempty[class / 64].load(Ordering::Relaxed) >> (class % 64) & 1;
                assert_eq!(bit == 1, n > 0, "round {round}: class {class} holds {n}");
            }
            assert_eq!(
                s.free_bytes, walked,
                "round {round}: the counter is the walk"
            );
            drop(guards);
            barrier.wait();
        }
        for w in workers {
            w.join().unwrap();
        }
        assert!(pool.stats().reuses > 0);
    }
}
