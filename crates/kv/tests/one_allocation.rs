//! A value costs one allocation: its block and its bookkeeping share
//! it. A counting global allocator tallies what each thread allocates,
//! so the tests of this binary may run in parallel; each test keeps its
//! values on its own thread.

use minos_kv::{Mempool, Store, StoreConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated less the bytes it has freed.
    static OUTSTANDING: Cell<isize> = const { Cell::new(0) };
}

fn count(allocs: u64, bytes: isize) {
    // A thread being torn down has no counts left to keep.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + allocs));
    let _ = OUTSTANDING.try_with(|o| o.set(o.get() + bytes));
}

// SAFETY: every call is passed straight to `System`; the counting
// touches only const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as isize);
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as isize);
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as isize));
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as isize - layout.size() as isize);
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations this thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread holds from the allocator.
fn outstanding() -> isize {
    OUTSTANDING.with(Cell::get)
}

/// Allocations `f` makes on this thread, and its result.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocs();
    let out = f();
    (allocs() - before, out)
}

#[test]
fn a_fresh_value_is_one_allocation_and_a_recycled_one_none() {
    let pool = Mempool::new(1 << 20, 1 << 16);
    let value = vec![7u8; 40_000];
    // One length per block class, so each first reserve is fresh.
    for len in [0, 20, 64, 100, 1000, 40_000] {
        let (n, v) = allocations_of(|| {
            let mut r = pool.reserve(len).unwrap();
            r.write_at(0, &value[..len]);
            r.seal()
        });
        assert_eq!(n, 1, "a fresh {len} B value");
        drop(v);
        let (n, v) = allocations_of(|| pool.reserve(len).unwrap().seal());
        assert_eq!(n, 0, "a recycled {len} B value");
        drop(v);
    }
    let v = pool.alloc_from(&value[..100]).unwrap();
    let (n, c) = allocations_of(|| v.clone());
    assert_eq!(n, 0, "a clone");
    assert_eq!(c, v);
}

#[test]
fn a_get_hit_allocates_nothing() {
    let store = Store::new(StoreConfig::for_items(2, 1024, 1 << 20));
    store.put(42, &[5u8; 300]).unwrap();
    let (n, hit) = allocations_of(|| store.get(42));
    assert_eq!(n, 0, "a GET hit");
    assert_eq!(hit.unwrap()[..], [5u8; 300]);
}

#[test]
fn dropping_every_value_and_the_pool_gives_every_byte_back() {
    let start = outstanding();
    let pool = Mempool::new(1 << 20, 1 << 16);
    let live: Vec<_> = (1..200)
        .map(|len| pool.alloc_from(&vec![1u8; len * 7]).unwrap())
        .collect();
    for len in 1..200 {
        drop(pool.alloc_from(&vec![2u8; len * 5]).unwrap());
    }
    let s = pool.stats();
    assert!(s.free_bytes > 0, "blocks on the freelists");
    assert!(s.held_bytes > s.free_bytes, "blocks still live");
    drop(pool);
    assert!(outstanding() > start, "live values hold their pool");
    drop(live);
    assert_eq!(outstanding(), start, "every block and the pool freed");
}
